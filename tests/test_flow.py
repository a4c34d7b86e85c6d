import dataclasses
import hashlib
import math
import warnings
from functools import partial

import numpy as np
import pytest
from test_basin import COMPLEX_EXP, CUBE, FOLD

from newtonflow.flow import (
    FIELD_BLOCK,
    SAMPLE_ERRORS,
    SCAN_OPTIONS,
    Direction,
    FlowFailure,
    FlowOptions,
    FlowStatus,
    Trajectory,
    _flow_then_polish,
    _newton_polish,
    decay_drift,
    direction_deviation,
    integrate,
    newton_field,
    newton_fields,
    solve_inverse,
)
from newtonflow.maps import FLOAT_OPS, ROW_OPS, C1Map, builtin, registry_entries, zampieri_field

ZAMP = builtin("zampieri-ex5")
F_ORIGIN = (1.0, 0.0)  # f(0,0) for the planar oracle map


def _bisect_root(g, lo, hi, iters=200):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_newton_field_closed_form():
    got = newton_field(ZAMP, (1.0, 1.0), F_ORIGIN)
    expected = (math.exp(-1) / math.sqrt(2) - 1.0, -math.sqrt(2) * math.exp(-1))
    np.testing.assert_allclose(got, expected, rtol=1e-12)
    # against the shipped companion formula on random points
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.uniform(-3, 3, size=2)
        np.testing.assert_allclose(
            newton_field(ZAMP, x, F_ORIGIN), zampieri_field(x), rtol=1e-9, atol=1e-12
        )


def test_newton_field_equilibrium_and_linear():
    y = ZAMP.eval((0.5, -0.25))
    np.testing.assert_allclose(newton_field(ZAMP, (0.5, -0.25), y), (0.0, 0.0), atol=1e-15)
    a = np.array([[2.0, 1.0], [0.0, 3.0]])
    m = builtin("linear", a=a)
    x = np.array([1.0, -2.0])
    np.testing.assert_allclose(newton_field(m, x, (0.0, 0.0)), -x, rtol=1e-14)


def test_forward_flow_converges_with_exact_decay():
    traj = integrate(ZAMP, (1.0, 1.0), F_ORIGIN, FlowOptions())
    assert traj.status is FlowStatus.CONVERGED
    np.testing.assert_allclose(traj.final_state, (0.0, 0.0), atol=1e-6)
    assert decay_drift(traj) <= 1e-6
    assert direction_deviation(traj) <= 1e-5
    # residual norm at each sample matches e^{-t} ||r0|| down to the
    # cancellation floor of evaluating f(x) - y* in doubles
    rn = np.linalg.norm(traj.residuals, axis=1)
    np.testing.assert_allclose(rn, rn[0] * np.exp(-traj.t), rtol=1e-7, atol=1e-13)


def test_linear_flow_exact_exponential():
    a = np.array([[2.0, 1.0], [0.0, 1.0]])
    m = builtin("linear", a=a)
    x0 = np.array([5.0, -3.0])
    traj = integrate(m, x0, (0.0, 0.0), FlowOptions())
    assert traj.status is FlowStatus.CONVERGED
    assert decay_drift(traj) <= 1e-10
    for i in range(len(traj.t)):
        np.testing.assert_allclose(
            traj.states[i], math.exp(-traj.t[i]) * x0, rtol=1e-8, atol=1e-12
        )


@pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8, 1e-10])
def test_linear_flow_accuracy_follows_the_tolerance(tol):
    # toward y* = 0 every linear flow is x(t) = e^{-t} x0: the recorded
    # states must stay within a tenth of the step tolerance of it.  Measured
    # max error / (1 + |x0|) under the PI controller: 7.9e-7, 2.3e-8, 4.4e-10,
    # 5.6e-12; under the elementary one: 5.9e-6, 6.1e-8, 6.4e-10, 6.5e-12
    rng = np.random.default_rng(7)
    opts = FlowOptions(tol=tol)
    for _ in range(20):
        m = builtin("linear", a=rng.standard_normal((2, 2)) + 2.0 * np.eye(2))
        x0 = rng.uniform(-3.0, 3.0, 2)
        traj = integrate(m, x0, (0.0, 0.0), opts)
        assert traj.status is FlowStatus.CONVERGED
        err = np.abs(traj.states - np.exp(-traj.t)[:, None] * x0).max()
        assert err <= 0.1 * tol * (1.0 + np.linalg.norm(x0)), (x0, err)


def test_bounded_map_blows_up_outside_range():
    m = builtin("arctan1d")
    traj = integrate(m, (0.0,), (2.0,), FlowOptions())
    assert traj.status is FlowStatus.BLOWUP
    assert abs(traj.final_state[0]) > 1e6


def test_equilibrium_returns_immediately():
    y = ZAMP.eval((0.0, 0.0))
    traj = integrate(ZAMP, (0.0, 0.0), y, FlowOptions())
    assert traj.status is FlowStatus.CONVERGED
    assert traj.steps == 0
    assert len(traj.t) == 1


def test_monotone_residual_forward():
    traj = integrate(ZAMP, (2.0, -1.5), F_ORIGIN, FlowOptions())
    rn = np.linalg.norm(traj.residuals, axis=1)
    assert np.all(np.diff(rn) < 0)
    assert np.all(np.diff(traj.t) > 0)


def test_backward_flow_inverts_forward():
    opts = FlowOptions(t_max=3.0, residual_tol=1e-30)
    fw = integrate(ZAMP, (1.0, 1.0), F_ORIGIN, opts)
    assert fw.status is FlowStatus.HORIZON_REACHED
    bw = integrate(ZAMP, fw.final_state, F_ORIGIN, opts, Direction.BACKWARD)
    assert bw.status is FlowStatus.HORIZON_REACHED
    assert np.all(np.diff(bw.t) < 0)
    assert np.linalg.norm(bw.final_state - (1.0, 1.0)) <= 1e-5
    # backward decay identity with signed time (residual grows as e^{|t|})
    assert decay_drift(bw) <= 1e-6 * np.exp(3.0)


def _counted(m, calls):
    """m with its raw fn, jac and point form counting their calls into
    ``calls``; a map without jac counts its finite-difference evaluations as
    fn calls.  One point call is one evaluation of f and one of f'."""
    def fn(x):
        calls["fn"] += 1
        return m.fn(x)

    def jac(x):
        calls["jac"] += 1
        return m.jac(x)

    def point(*xs):
        calls["point"] += 1
        return m.point(*xs)

    return dataclasses.replace(m, fn=fn, jac=None if m.jac is None else jac,
                               point=None if m.point is None else point)


def _pinned_runs(maps, rng):
    """sha256 over t, states, residuals, status and steps of 24 runs per map
    (6 seeded (start, target) pairs x forward/backward x a precise and a
    1e-6 tolerance), with the raw fn, jac and point calls they made."""
    digest = hashlib.sha256()
    calls = {"fn": 0, "jac": 0, "point": 0}
    for m in maps:
        m = _counted(m, calls)
        for start, target in rng.uniform(-2.0, 2.0, (6, 2, m.dim)):
            for opts in (FlowOptions(t_max=3.0), FlowOptions(tol=1e-6)):
                for direction in Direction:
                    traj = integrate(m, start, target, opts, direction)
                    for a in (traj.t, traj.states, traj.residuals):
                        digest.update(a.tobytes())
                    digest.update(f"{traj.status.value} {traj.steps};".encode())
    return digest.hexdigest(), calls


def test_both_time_directions_are_pinned():
    # bit-exact runs of every fixed-dimension built-in map, forward and
    # backward, at a precise and at a 1e-6 tolerance: 120 trajectories
    # whose statuses span all five outcomes.  A change to the stepper that
    # moves any t, state, residual, status or step count moves the digest,
    # and one that does more or less work moves the call counts.  Every
    # built-in here has a point form, through which the stages go: fn and jac
    # are called once per run, at the seed, and fn + point and jac + point
    # are the 137 953 evaluations of f and of f' that fn and jac made alone.
    maps = [builtin(e.key) for e in registry_entries() if e.dim is not None]
    digest, calls = _pinned_runs(maps, np.random.default_rng(0))
    assert digest == "415a04e547ec87a46f9be5d4a8a6daa4544a9bab619ba0bf36724b3ca2ac3f36"
    assert calls == {"fn": 120, "jac": 120, "point": 137833}


def test_lapack_solves_are_pinned():
    # linear maps at n = 3, whose field solves go through LAPACK
    rng = np.random.default_rng(1)
    maps = [builtin("linear", a=a + 3.0 * np.eye(3)) for a in rng.standard_normal((3, 3, 3))]
    assert _pinned_runs(maps, rng) == (
        "c32d5479caed92192e495523f0af3aabfb5bbcc8bd0a477e8368c84f1463d026",
        {"fn": 35460, "jac": 35460, "point": 0})


def test_finite_difference_jacobians_are_pinned():
    # maps without jac, whose Jacobians are central differences of fn
    maps = [C1Map(f"{key}-fd", builtin(key).dim, builtin(key).fn)
            for key in ("zampieri-ex5", "rot-poly2d", "cubic1d")]
    assert _pinned_runs(maps, np.random.default_rng(2)) == (
        "b79a535db0ee734fe7ed06c45788aa69e0cecb435fc7b4c2c8de78160fa1edf4",
        {"fn": 256574, "jac": 0, "point": 0})


def _holed_fn(bad, x):
    """x + x^3/10 per component, and ``bad`` wherever 0.45 < x[0] < 0.55."""
    if 0.45 < x[0] < 0.55:
        return np.full(len(x), bad)
    return x + 0.1 * x**3


def _holed_jac(x):
    # singular at a non-finite x, so a stage after a bad value raises
    return np.diag(1.0 + 0.3 * x**2)


def _holed_linear_fn(bad, x):
    """2x, and ``bad`` wherever 0.45 < x[0] < 0.55."""
    return np.full(len(x), bad) if 0.45 < x[0] < 0.55 else 2.0 * x


def _twice_identity(x):
    # finite at any x, so bad values reach the error test and the oracle
    return 2.0 * np.eye(len(x))


def _point_twin(fn, jac, x0, x1):
    """The point form of a planar (fn, jac): their values at (x0, x1) as floats."""
    x = np.array((x0, x1))
    return (*fn(x).tolist(), *jac(x).ravel().tolist())


# Each run's status, accepted steps and sha256 prefix of t and states, the
# same for each bad value, and its fn calls per bad value, recorded from the
# plain maps, whose fn and jac integrate adapts to a point form; the
# point-form twin must reproduce them.  The bands stop every run at x[0] =
# 0.55.  The cubic map's Jacobian raises SingularError at the non-finite
# stage after a bad value, so the run ends singular-jacobian; the linear
# map's bad values reach the error test.
_BAD = (math.nan, math.inf, -math.inf)
_HOLED_RUNS = {
    ("cubic", 1): ("singular-jacobian", 29, "2339cdd305aca2f5", (335, 375, 375)),
    ("cubic", 2): ("singular-jacobian", 34, "959687d9c54ceb5c", (360, 360, 360)),
    ("linear", 1): ("step-failure", 37, "a3be82efa253e96b", (475, 475, 475)),
    ("linear", 2): ("step-failure", 39, "6438f89e464d131b", (487, 487, 487)),
}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("bad", _BAD)
@pytest.mark.parametrize("form", ["cubic", "linear"])
def test_non_finite_values_are_rejected_steps(form, dim, bad):
    # the flow from x[0] = 1.5 toward the preimage x[0] = -1 crosses the
    # band where fn is NaN or infinite: every step with a stage in it is
    # rejected, quietly, and no recorded sample is non-finite.  In dim 2 a
    # twin with its own point form must step as the plain map does.
    fn, jac = ((_holed_fn, _holed_jac) if form == "cubic"
               else (_holed_linear_fn, _twice_identity))
    m = C1Map("holed", dim, partial(fn, bad), jac)
    maps = [m]
    if dim == 2:
        maps.append(dataclasses.replace(m, point=partial(_point_twin, m.fn, jac)))
    start, x_star = np.array((1.5, -0.7))[:dim], np.array((-1.0, 0.8))[:dim]
    status, steps, prefix, fn_calls = _HOLED_RUNS[form, dim]
    for m in maps:
        calls = {"fn": 0, "jac": 0, "point": 0}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate(_counted(m, calls), start, m.eval(x_star), FlowOptions())
        assert np.isfinite(traj.states).all() and np.isfinite(traj.residuals).all()
        assert not ((0.45 < traj.states[:, 0]) & (traj.states[:, 0] < 0.55)).any()
        digest = hashlib.sha256(b"".join(a.tobytes() for a in (traj.t, traj.states)))
        assert traj.status.value == status and traj.steps == steps
        assert digest.hexdigest()[:16] == prefix
        assert calls["fn"] + calls["point"] == fn_calls[_BAD.index(bad)]
        assert (calls["point"] > 0) == (m.point is not None)


def test_drift_bound_scales_with_tolerance():
    rot = builtin("rot-poly2d")
    cases = [
        (ZAMP, (1.0, 1.0), F_ORIGIN),
        (ZAMP, (-3.0, 2.5), F_ORIGIN),
        (rot, (2.0, -1.0), rot.eval((0.3, 0.4))),
        (builtin("cubic1d"), (3.0,), (1.0,)),
    ]
    for tol in (1e-10, 1e-8, 1e-6):
        opts = FlowOptions(tol=tol)
        for m, start, target in cases:
            traj = integrate(m, start, target, opts)
            assert traj.status is FlowStatus.CONVERGED, (m.name, tol)
            assert decay_drift(traj) <= 100.0 * tol * traj.steps, (m.name, tol)


def test_drift_detector_fires_on_injected_fault():
    traj = integrate(ZAMP, (1.0, 1.0), F_ORIGIN, FlowOptions())
    res = traj.residuals.copy()
    res[len(res) // 2, 0] += 1e-3
    broken = Trajectory(
        t=traj.t, states=traj.states, residuals=res,
        status=traj.status, steps=traj.steps, target=traj.target,
    )
    r0 = np.linalg.norm(res[0])
    assert decay_drift(broken) >= 1e-3 / r0
    assert decay_drift(traj) < 1e-3 / r0


def test_solve_inverse_planar_oracle():
    v = math.e / math.sqrt(2.0)
    x = solve_inverse(ZAMP, (v, v), (0.0, 0.0))
    assert np.linalg.norm(x - (1.0, 1.0)) <= 1e-8


def test_solve_inverse_cubic_against_bisection():
    m = builtin("cubic1d")
    root = _bisect_root(lambda x: x + x**3 - 10.0, 0.0, 3.0)
    x = solve_inverse(m, (10.0,), (0.0,))
    assert abs(x[0] - root) <= 1e-8


def test_solve_inverse_linear_exact():
    a = np.array([[3.0, 1.0], [-1.0, 2.0]])
    m = builtin("linear", a=a)
    y = np.array([1.0, 4.0])
    x = solve_inverse(m, y, (7.0, -5.0))
    np.testing.assert_allclose(x, np.linalg.solve(a, y), atol=1e-9)


def test_solve_inverse_failure_wraps_trajectory():
    m = builtin("arctan1d")
    with pytest.raises(FlowFailure) as ei:
        solve_inverse(m, (2.0,), (0.0,))
    assert ei.value.status is FlowStatus.BLOWUP
    assert abs(ei.value.trajectory.final_state[0]) > 1e6


def _full_flow_solve(m, target, start):
    """The solve without the handoff: the flow at the full FlowOptions, then
    the Newton polish."""
    traj, x, _ = _flow_then_polish(m, start, target, FlowOptions())
    if x is None:
        raise FlowFailure(traj)
    return x


@pytest.mark.parametrize("key, dim", [("zampieri-ex5", 2), ("cubic1d", 1), ("rot-poly2d", 2)])
def test_solve_inverse_agrees_with_the_full_flow(key, dim):
    m = builtin(key)
    rng = np.random.default_rng(41)
    for _ in range(5):
        target = m.eval(rng.uniform(-3.0, 3.0, dim))
        start = rng.uniform(-3.0, 3.0, dim)
        x = solve_inverse(m, target, start)
        assert np.linalg.norm(m.eval(x) - target) <= FlowOptions().residual_tol
        np.testing.assert_allclose(x, _full_flow_solve(m, target, start), rtol=0, atol=1e-8)


@pytest.mark.parametrize("box", [2.0, 4.0])
@pytest.mark.parametrize("m", [CUBE, COMPLEX_EXP, FOLD], ids=lambda m: m.name)
def test_handoff_keeps_the_preimage_of_the_full_flow(m, box):
    # on non-injective maps the flow picks the preimage its path leads to;
    # handing off to Newton early must not jump to another one
    rng = np.random.default_rng(42)
    both = 0
    for _ in range(67):
        start = rng.uniform(-box, box, 2)
        target = m.eval(rng.uniform(-box, box, 2))
        try:
            full = _full_flow_solve(m, target, start)
            x = solve_inverse(m, target, start)
        except FlowFailure:
            continue
        both += 1
        np.testing.assert_allclose(x, full, rtol=0, atol=1e-6 * (1.0 + np.linalg.norm(full)))
    assert both >= 60


@pytest.mark.parametrize("m, x0, box, preimages", [
    (FOLD, (1.0, 0.0), (-2.0, 2.3, -2.0, 2.0), 2),
    (COMPLEX_EXP, (0.0, 0.0), (-1.0, 1.0, -7.0, 7.0), 3),
    (CUBE, (1.0, 0.5), (-2.0, 2.0, -2.0, 2.0), 3),
], ids=["fold", "complex-exp", "z-cubed"])
def test_scan_tolerance_keeps_the_precise_preimage(m, x0, box, preimages):
    # basin scans run at the path tolerance SCAN_OPTIONS: on an 11x11 grid of
    # cell centers, every cell the precise flow brings to a preimage of f(x0)
    # must reach the same preimage at SCAN_OPTIONS
    target = m.eval(x0)
    xs, ys = ((lo + (np.arange(11) + 0.5) * (hi - lo) / 11) for lo, hi in (box[:2], box[2:]))
    ends = []
    for center in ((x, y) for x in xs for y in ys):
        precise = integrate(m, center, target, FlowOptions())
        if precise.status is not FlowStatus.CONVERGED:
            continue
        scan = integrate(m, center, target, SCAN_OPTIONS)
        assert scan.status is FlowStatus.CONVERGED, center
        end = precise.final_state
        np.testing.assert_allclose(scan.final_state, end, rtol=0,
                                   atol=1e-6 * (1.0 + np.linalg.norm(end)), err_msg=str(center))
        if all(np.linalg.norm(end - e) > 1e-3 for e in ends):
            ends.append(end)
    assert len(ends) == preimages, ends


@pytest.mark.parametrize("key, start, target, status", [
    ("arctan1d", (0.0,), (2.0,), FlowStatus.BLOWUP),
    ("exp1d", (0.0,), (-1.0,), FlowStatus.STEP_FAILURE),
    ("zampieri-ex5", (1.0, 1.0), (-1.0, 0.0), FlowStatus.SINGULAR_JACOBIAN),
])
def test_solve_inverse_failure_is_the_full_flow_trajectory(key, start, target, status):
    m = builtin(key)
    with pytest.raises(FlowFailure) as ei:
        solve_inverse(m, target, start)
    got = ei.value.trajectory
    full = integrate(m, start, target, FlowOptions())
    assert got.status is full.status is status
    assert got.steps == full.steps
    for name in ("t", "states", "residuals"):
        assert getattr(got, name).tobytes() == getattr(full, name).tobytes(), name


@pytest.mark.parametrize("key, start, target", [
    ("arctan1d", (0.0,), (2.0,)),
    ("exp1d", (0.0,), (-1.0,)),
    ("zampieri-ex5", (1.0, 1.0), (-1.0, 0.0)),
])
def test_a_failed_leg_at_the_callers_tolerances_is_the_failure(monkeypatch, key, start, target):
    # the approach leg at the caller's own tolerances is the full flow up to
    # where it stops, so when it fails no second run is needed
    import newtonflow.flow as flow_mod

    runs = []

    def spy(*args):
        runs.append(integrate(*args))
        return runs[-1]

    monkeypatch.setattr(flow_mod, "integrate", spy)
    m = builtin(key)
    opts = FlowOptions(tol=1e-4)
    with pytest.raises(FlowFailure) as ei:
        solve_inverse(m, target, start, opts)
    full = integrate(m, start, target, opts)
    assert len(runs) == 1 and ei.value.trajectory is runs[0]
    assert ei.value.status is full.status is not FlowStatus.CONVERGED
    for name in ("t", "states", "residuals"):
        assert getattr(runs[0], name).tobytes() == getattr(full, name).tobytes(), name


def test_solve_inverse_answers_are_pinned():
    # bit-exact solve_inverse answers: 8 seeded (start, target) pairs per
    # map, half the targets images f(x) and half drawn like the starts, so
    # the batch spans answers and every failure status.  A FlowFailure
    # enters the digest with its status and its trajectory's bytes.  The
    # step budget is cut to 4000, where the perturbed map's unreachable
    # targets end step-failure: at 100 000 steps they take 2 s each.
    opts = FlowOptions(max_steps=4000)
    maps = [builtin(e.key) for e in registry_entries() if e.dim is not None]
    maps += [ZAMP.with_perturbed_jacobian(1e-3), CUBE]
    rng = np.random.default_rng(5)
    digest = hashlib.sha256()
    outcomes = {}
    for m in maps:
        for i, (start, y) in enumerate(rng.uniform(-2.0, 2.0, (8, 2, m.dim))):
            target = m.eval(y) if i % 2 else y
            try:
                x = solve_inverse(m, target, start, opts)
            except FlowFailure as exc:
                traj = exc.trajectory
                digest.update(f"{exc.status.value} {traj.steps};".encode())
                for a in (traj.t, traj.states, traj.residuals):
                    digest.update(a.tobytes())
                outcomes[exc.status.value] = outcomes.get(exc.status.value, 0) + 1
            else:
                digest.update(x.tobytes())
                outcomes["solved"] = outcomes.get("solved", 0) + 1
    assert outcomes == {"solved": 47, "blowup": 2, "step-failure": 5, "singular-jacobian": 2}
    assert digest.hexdigest() == "654a65240e5d716375c15ca8b5e939dc848a40dcbf22ad17badf220e836c0f01"


def test_solve_inverse_ill_conditioned_linear_map():
    # integrate alone stalls near x* (test_ill_conditioned_linear_map_converges
    # is its strict xfail); Newton from the handoff point finishes
    m = builtin("linear", a=[[1.0, 1.0], [1.0, 1.01]])
    x = solve_inverse(m, (1.0, 2.0), (0.0, 0.0))
    np.testing.assert_allclose(x, (-99.0, 100.0), rtol=0, atol=1e-9)


def _jacobian_spy(calls):
    """ZAMP recording in ``calls`` each point it evaluates f' at: a jac call
    or a point call, which evaluates f and f' together."""
    return dataclasses.replace(ZAMP, jac=lambda x: calls.append(x) or ZAMP.jac(x),
                               point=lambda *x: calls.append(x) or ZAMP.point(*x))


def test_solve_inverse_does_less_integrator_work():
    # a deterministic count in place of a timing gate: the handoff must keep
    # removing the tail of the flow that Newton does in a few iterations
    rng = np.random.default_rng(43)
    targets = [ZAMP.eval(x) for x in rng.uniform(-3.0, 3.0, (20, 2))]
    work = []
    for solve in (solve_inverse, _full_flow_solve):
        calls = []
        m = _jacobian_spy(calls)
        for target in targets:
            solve(m, target, (0.0, 0.0))
        work.append(len(calls))
    assert work[0] <= 0.6 * work[1], work


# x -> x^3: toward 0 guarded Newton only thirds the error per step, so eight
# steps from the handoff point miss residual_tol
CUBE_1D = C1Map("x-cubed", 1, lambda x: x**3, lambda x: np.array(((3.0 * x[0] ** 2,),)))


def _spy_flow_runs(monkeypatch):
    """Record the residual_tol of every flow run and of every Newton polish."""
    import newtonflow.flow as flow_mod

    seen = {"integrate": [], "polish": []}

    def spy_integrate(m, start, target, opts, direction):
        seen["integrate"].append(opts.residual_tol)
        return integrate(m, start, target, opts, direction)

    def spy_polish(m, x, target, residual_tol):
        seen["polish"].append(residual_tol)
        return _newton_polish(m, x, target, residual_tol)

    monkeypatch.setattr(flow_mod, "integrate", spy_integrate)
    monkeypatch.setattr(flow_mod, "_newton_polish", spy_polish)
    return seen


def test_solve_inverse_falls_back_to_the_full_flow(monkeypatch):
    # the handoff run stops at 1e-2 of |f(1) - 0| = 1; its polish misses
    # residual_tol, so the full flow runs and both polishes aim at the
    # caller's residual_tol
    seen = _spy_flow_runs(monkeypatch)
    x = solve_inverse(CUBE_1D, (0.0,), (1.0,))
    tol = FlowOptions().residual_tol
    assert seen == {"integrate": [1e-2, tol], "polish": [tol, tol]}
    full = _flow_then_polish(CUBE_1D, (1.0,), (0.0,), FlowOptions())[1]
    assert x.tobytes() == full.tobytes()
    assert abs(x[0] ** 3) <= FlowOptions().residual_tol


def _jacobian_calls(solve, targets):
    calls = []
    m = _jacobian_spy(calls)
    for target in targets:
        solve(m, target, (0.0, 0.0))
    return len(calls)


def test_handoff_approach_at_handoff_squared_does_under_a_tenth_of_the_work():
    # the approach only has to reach the basin: at _HANDOFF**2 it costs a
    # fraction of the precise path (measured 0.072; 0.11 at 1e-6, 0.42 at
    # 1e-10)
    rng = np.random.default_rng(43)
    targets = [ZAMP.eval(x) for x in rng.uniform(-3.0, 3.0, (20, 2))]
    work = [_jacobian_calls(solve, targets) for solve in (solve_inverse, _full_flow_solve)]
    assert work[0] <= 0.09 * work[1], work


@pytest.mark.parametrize("tol, approach", [(1e-10, 1e-4), (1e-3, 1e-3)])
def test_handoff_approach_keeps_looser_caller_tolerances(monkeypatch, tol, approach):
    import newtonflow.flow as flow_mod

    seen = []

    def spy(m, start, target, opts, direction):
        seen.append(opts)
        return integrate(m, start, target, opts, direction)

    monkeypatch.setattr(flow_mod, "integrate", spy)
    v = math.e / math.sqrt(2.0)
    solve_inverse(ZAMP, (v, v), (0.0, 0.0), FlowOptions(tol=tol))
    assert seen[0].tol == approach


def test_a_failed_handoff_run_is_followed_by_the_full_path(monkeypatch):
    # at the path tolerance the handoff run is no longer the full run step
    # for step, so its failure is not the answer: the full path runs and raises
    seen = _spy_flow_runs(monkeypatch)
    with pytest.raises(FlowFailure) as ei:
        solve_inverse(builtin("arctan1d"), (2.0,), (0.0,))
    assert seen == {"integrate": [2e-2, FlowOptions().residual_tol], "polish": []}
    assert ei.value.status is FlowStatus.BLOWUP


def test_handoff_polish_must_contract():
    # from this handoff point plain guarded Newton keeps lowering the
    # residual but walks to the preimage 2*pi below the flow's; its first
    # step contracts the residual only by 0.60, and Theta <= 1/2 refuses it
    start = (3.4675738688458075, 3.9760180919550274)
    target = (0.06475683033869777, 0.18410005225554468)
    full = _full_flow_solve(COMPLEX_EXP, target, start)
    np.testing.assert_allclose(full, (-1.6339506317086192, 1.232565093709944), rtol=0, atol=1e-12)
    np.testing.assert_allclose(solve_inverse(COMPLEX_EXP, target, start), full, rtol=0, atol=1e-12)


def test_solve_inverse_residual_norm_overflow_is_quiet():
    # a polish step lands where ||r||^2 overflows; tier-1 turns the
    # RuntimeWarning np.linalg.norm would emit into an error
    target = (0.021216980925771622, 0.021290889229831217)
    x = solve_inverse(COMPLEX_EXP, target, (1.9139749922695364, -2.4347773604374323))
    assert np.linalg.norm(COMPLEX_EXP.eval(x) - target) <= FlowOptions().residual_tol


def _overflowing_run():
    """From x = 707 zampieri-ex5's residual is ~1e307, whose square
    overflows; every residual of the run is finite."""
    with pytest.raises(FlowFailure) as ei:
        solve_inverse(ZAMP, ZAMP.eval((0.0, 0.0)), (707.0, 0.5))
    return ei.value.trajectory


def test_a_trajectory_whose_residual_norm_overflows_is_quiet(tmp_path):
    # every residual's square overflows, but each norm is taken after an
    # exact power-of-two scaling: the final residual is math.hypot's, the
    # angle and the drift stay finite, and nothing emits the RuntimeWarning
    # tier-1 turns into an error
    traj = _overflowing_run()
    summary = traj.summary()
    assert summary["status"] == "horizon-reached"
    assert summary["final_residual"] == pytest.approx(math.hypot(*traj.residuals[-1]),
                                                      rel=1e-15)
    assert 0.0 <= summary["max_drift"] <= 1e-12
    assert 0.0 <= direction_deviation(traj) <= 1e-6
    traj.to_csv(tmp_path / "traj.csv")
    r_norm = [float(line.split(",")[3])
              for line in (tmp_path / "traj.csv").read_text().splitlines()[1:]]
    np.testing.assert_allclose(r_norm, [math.hypot(*r) for r in traj.residuals], rtol=1e-15)


def test_drift_is_scale_free_where_the_residual_norm_overflows():
    # ||r(0)||^2 overflows, so dividing by ||r(0)|| would read every finite
    # deviation as 0 and an overflowing one as NaN: the profile must be that
    # of the same run with its residuals scaled by 2^-600, where no square
    # overflows
    traj = _overflowing_run()
    scaled = dataclasses.replace(traj, residuals=np.ldexp(traj.residuals, -600))
    profile = traj.drift_profile()
    assert np.isfinite(profile).all() and profile.max() > 0.0
    assert profile.tobytes() == scaled.drift_profile().tobytes()
    assert direction_deviation(traj) == direction_deviation(scaled)


def test_a_start_whose_squared_norm_overflows_flows_to_the_horizon():
    # ||x0||^2 = ||r0||^2 = 2.5e309 overflows: the decay oracle and the
    # blow-up test must read the norms, not inf, and let the run step
    lin = builtin("linear", a=np.eye(2))
    traj = integrate(lin, (3e154, 4e154), (0.0, 0.0), FlowOptions(blowup_radius=1e300))
    assert traj.status is FlowStatus.HORIZON_REACHED and traj.steps > 0
    assert decay_drift(traj) <= 1e-6
    # the default radius 1e8 is behind it at the first step
    assert integrate(lin, (3e154, 4e154), (0.0, 0.0)).status is FlowStatus.BLOWUP


def test_newton_polish_refuses_a_step_whose_residual_norm_overflows():
    # Newton for x^3 = 1 from 1e-30 jumps to x ~ 3.3e59, where f ~ 3.7e178
    # is finite but its square is not: the norm is inf, never a decrease,
    # whether the halving test or the landing test is the one that applies
    for residual_tol in (FlowOptions().residual_tol, math.inf):
        x, rnorm = _newton_polish(CUBE_1D, (1e-30,), (1.0,), residual_tol)
        assert x.tolist() == [1e-30] and rnorm == 1.0


@pytest.mark.parametrize("key, start, target", [
    ("exp1d", -740.0, 0.2),       # f' = e^x subnormal: the step overflows to inf
    ("arctan1d", 1e154, -1.5),    # f' ~ 1e-308: the step passes max float
])
def test_newton_polish_ends_at_a_non_finite_step(key, start, target):
    # a Newton step to a non-finite x is no decrease, on floats and arrays
    m = builtin(key)
    for form in (m, dataclasses.replace(m, point=None)):
        x, rnorm = _newton_polish(form, (start,), (target,), FlowOptions().residual_tol)
        assert x.tolist() == [start]
        assert rnorm == abs(m.eval((start,))[0] - target)


def _polish_outcome(m, x, target):
    try:
        x, rnorm = _newton_polish(m, x, target, FlowOptions().residual_tol)
        return x.tobytes(), rnorm
    except Exception as exc:
        return type(exc), str(exc)


_POLISH_EDGES = {
    # f overflows at the start (NonFiniteError), x^2 overflows in the norm
    "cubic1d": [(5.7e102,), (1e60,), (-3e51,), (2.5,)],
    # e^x cut to inf past 709, and subnormal, with a step to a non-finite x
    "exp1d": [(708.99,), (709.5,), (-740.0,), (3.0,)],
    # f' = 0.0 (singular), f' = 1e-308 with a step past max float
    "arctan1d": [(1e155,), (1e154,), (-1e154,), (10.0,)],
    "zampieri-ex5": [(710.0, 0.0), (-700.0, 1e200), (3.0, -2.0)],
    "rot-poly2d": [(5.7e102, 0.0), (1e60, -1e60), (3.0, -2.0)],
}


@pytest.mark.parametrize("key", sorted(_POLISH_EDGES))
def test_newton_polish_on_floats_equals_the_array_path(key):
    # the polish through a point form keeps the bits, and the errors, of the
    # polish through eval, jacobian and solve_dense
    rng = np.random.default_rng(44)
    m = builtin(key)
    for formed in (m, m.with_perturbed_jacobian(0.3)):
        plain = dataclasses.replace(formed, point=None)
        starts = [*_POLISH_EDGES[key], *rng.uniform(-3.0, 3.0, (20, m.dim))]
        targets = [np.full(m.dim, v) for v in (-1.5, 0.2, 1.5)]
        for x, target in ((x, t) for x in starts for t in targets):
            got = _polish_outcome(formed, x, target)
            assert got == _polish_outcome(plain, x, target), (x, target)


def _identity_with_jacobian(slope, calls):
    """f(x) = x with Jacobian ``slope``: a Newton step keeps 1 - 1/slope of
    the residual.  ``calls`` collects the Jacobian evaluations."""
    return C1Map("identity", 1, lambda x: x,
                 lambda x: calls.append(x) or np.array(((slope,),)))


@pytest.mark.parametrize("slope, x0, kept", [
    (3.0, 1.0, 0),    # to 2/3 of a residual above residual_tol: refused
    (1.5, 1.0, 8),    # to 1/3, still above residual_tol: each step halves
    (3.0, 1e-10, 8),  # to 2/3 of a residual within residual_tol: each lands
])
def test_newton_polish_keeps_a_step_that_halves_or_lands(slope, x0, kept):
    calls = []
    x, rnorm = _newton_polish(_identity_with_jacobian(slope, calls), (x0,), (0.0,), 1e-9)
    want = x0
    for _ in range(kept):
        want -= want / slope
    assert x.tolist() == [want] and rnorm == abs(want)
    assert len(calls) == min(kept + 1, 8)


def test_trajectory_csv_and_summary(tmp_path):
    traj = integrate(ZAMP, (1.0, 1.0), F_ORIGIN, FlowOptions())
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x_0,x_1,r_norm,drift"
    assert len(lines) == len(traj.t) + 1
    s = traj.summary()
    assert set(s) == {"status", "t_final", "steps", "final_x", "final_residual", "max_drift"}
    assert s["status"] == "converged"
    assert s["final_residual"] <= 1e-9


def test_options_validation():
    # one step tolerance: the absolute/relative pair is gone
    assert [f.name for f in dataclasses.fields(FlowOptions)] == [
        "tol", "t_max", "blowup_radius", "residual_tol", "max_steps"]
    with pytest.raises(TypeError):
        FlowOptions(abs_tol=1e-6)
    with pytest.raises(ValueError):
        FlowOptions(tol=0.0)
    with pytest.raises(ValueError):
        FlowOptions(t_max=-1.0)
    with pytest.raises(ValueError):
        FlowOptions(max_steps=0)
    for name in ("tol", "t_max", "blowup_radius", "residual_tol"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                FlowOptions(**{name: bad})


def test_integrate_deterministic():
    a = integrate(ZAMP, (1.0, 1.0), F_ORIGIN, FlowOptions())
    b = integrate(ZAMP, (1.0, 1.0), F_ORIGIN, FlowOptions())
    np.testing.assert_array_equal(a.t, b.t)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.residuals, b.residuals)


def test_singular_seed_is_a_status_not_an_exception():
    # f(x) = (x0^2 + 1, x1) has a singular Jacobian on the x0 = 0 line
    from newtonflow.maps import C1Map

    m = C1Map(
        "fold", 2,
        lambda x: np.array([x[0] ** 2 + 1.0, x[1]]),
        lambda x: np.array([[2.0 * x[0], 0.0], [0.0, 1.0]]),
    )
    traj = integrate(m, (0.0, 0.5), (2.0, 0.0), FlowOptions())
    assert traj.status is FlowStatus.SINGULAR_JACOBIAN
    assert traj.steps == 0


def test_unreachable_target_stops_at_the_singularity_rule():
    # (-1, 0) is outside the range of the planar oracle map (its first
    # component stays positive): the flow runs toward a degenerate Jacobian
    # and stops once the stage solves fail the condition limit
    traj = integrate(ZAMP, (1.0, 1.0), (-1.0, 0.0), FlowOptions())
    assert traj.status is FlowStatus.SINGULAR_JACOBIAN
    assert traj.steps == 753


@pytest.mark.xfail(strict=True, reason=(
    "the decay-oracle floor 32*eps*(||y*|| + ||r||) leaves out the rounding "
    "noise of evaluating f itself, ~eps*||f'(x)||*||x||: near x* = (-99, 100) the "
    "decay check passes only steps of ~1e-9 and the run spends its step budget "
    "at residual 2.4e-6"))
def test_ill_conditioned_linear_map_converges():
    # cond(A) ~ 400; A x* = y* at x* = (-99, 100)
    m = builtin("linear", a=[[1.0, 1.0], [1.0, 1.01]])
    traj = integrate(m, (0.0, 0.0), (1.0, 2.0), FlowOptions(max_steps=5000))
    assert traj.status is FlowStatus.CONVERGED


def _outcomes(pairs):
    """(x bytes, F bytes or None) per yielded pair, then the type of the
    exception that ended the iteration, if any."""
    out = []
    try:
        for x, f_vec in pairs:
            out.append((x.tobytes(), None if f_vec is None else f_vec.tobytes()))
    except Exception as exc:
        out.append(type(exc))
    return out


def _rows(blocks):
    """The (block, F, ok, f) quadruples of newton_fields as per-row (x, F or None)."""
    for block, fields, ok, fx in blocks:
        assert len(block) <= FIELD_BLOCK and fields.shape == fx.shape == block.shape
        for x, f_vec, has_field in zip(block, fields, ok):
            yield x, f_vec if has_field else None


def _scalar_fields(m, pts, target):
    for x in pts:
        try:
            f_vec = newton_field(m, x, target)
        except SAMPLE_ERRORS:
            f_vec = None
        yield x, f_vec


def _planar_points(n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-6.0, 6.0, (n, 2))
    pts[::7, 0] = rng.uniform(-800.0, 800.0, len(pts[::7]))   # math.exp over- and underflows
    pts[::11, 1] *= 10.0 ** rng.uniform(0.0, 200.0, len(pts[::11]))
    return pts


@pytest.mark.parametrize("m", [
    ZAMP,
    ZAMP.with_perturbed_jacobian(1e-3),
    ZAMP.with_perturbed_jacobian(-1.0),   # every Jacobian zero: all rows singular
    builtin("rot-poly2d", eps=0.3),
], ids=["zampieri-ex5", "perturbed-1e-3", "perturbed-minus-1", "rot-poly2d"])
def test_newton_fields_match_newton_field_planar(m):
    pts = _planar_points(2 * FIELD_BLOCK + 452, seed=31)
    target = m.eval((0.2, -0.1))
    got = _outcomes(_rows(newton_fields(m, pts, target)))
    assert got == _outcomes(_scalar_fields(m, pts, target))
    assert len(got) == len(pts)
    assert any(f is None for _, f in got)


def test_newton_fields_take_the_block_path(monkeypatch):
    import newtonflow.flow as flow_mod

    calls = []
    scalar = flow_mod._value_and_field
    monkeypatch.setattr(flow_mod, "_value_and_field",
                        lambda *args: calls.append(args) or scalar(*args))
    pts = np.random.default_rng(34).uniform(-6.0, 6.0, (FIELD_BLOCK + 10, 2))
    pts[5] = (800.0, 0.0)   # math.exp overflows: this row alone leaves the block
    got = list(_rows(newton_fields(ZAMP, pts, F_ORIGIN)))
    assert len(got) == len(pts) and got[5][1] is None
    assert [args[1].tolist() for args in calls] == [[800.0, 0.0]]


@pytest.mark.parametrize("m, dim", [
    (builtin("cubic1d"), 1),
    (builtin("exp1d"), 1),
    (builtin("linear", a=[[2.0, 1.0, 0.0], [0.0, 3.0, 1.0], [1.0, 0.0, 4.0]]), 3),
])
def test_newton_fields_fall_back_to_newton_field(m, dim):
    pts = np.random.default_rng(32).uniform(-800.0, 800.0, (1500, dim))
    target = np.full(dim, 2.0)
    assert (_outcomes(_rows(newton_fields(m, pts, target)))
            == _outcomes(_scalar_fields(m, pts, target)))


@pytest.mark.parametrize("m, pts", [
    (ZAMP, _planar_points(FIELD_BLOCK + 300, seed=36)),
    (builtin("exp1d"), np.random.default_rng(37).uniform(-800.0, 800.0, (300, 1))),
], ids=["block path", "point path"])
def test_newton_fields_yield_f_of_each_row(m, pts):
    # check_cor22 reads f(x) from here rather than evaluating it a second time
    kept = 0
    for block, _, ok, fx in newton_fields(m, pts, m.eval(np.full(m.dim, 0.3))):
        for x, y in zip(block[ok], fx[ok]):
            assert y.tobytes() == m.eval(x).tobytes()
        kept += int(ok.sum())
    assert 0 < kept < len(pts)


def _reciprocal_fn(x):
    xi, eta = x.tolist()
    return np.array((1.0 / xi, eta))   # ZeroDivisionError at xi == 0


def _reciprocal_jac(x):
    xi = x.tolist()[0]
    return np.array(((-1.0 / (xi * xi), 0.0), (0.0, 1.0)))


def _reciprocal_point(xi, eta, ops=FLOAT_OPS):
    # ZeroDivisionError at xi == 0 on floats, inf on rows
    return 1.0 / xi, eta, -1.0 / (xi * xi), 0.0, 0.0, 1.0


# (1/xi, eta) with a point form: a planar map whose evaluator raises an error
# that is not a sample error
RECIPROCAL = C1Map("reciprocal", 2, _reciprocal_fn, _reciprocal_jac, point=_reciprocal_point)


def _raising_on_rows(xi, eta, ops=FLOAT_OPS):
    if ops is ROW_OPS:
        raise RuntimeError("row form failed")
    return ZAMP.point(xi, eta, ops)


def test_a_raising_row_form_propagates():
    # the point form on rows has no fallback when it raises: the exception
    # reaches the caller, as one from fn or jac would
    pts = np.random.default_rng(35).uniform(-2.0, 2.0, (10, 2))
    m = dataclasses.replace(ZAMP, point=_raising_on_rows)
    with pytest.raises(RuntimeError, match="row form failed"):
        list(newton_fields(m, pts, F_ORIGIN))
    with pytest.raises(RuntimeError, match="row form failed"):
        m.eval_rows(pts)


def test_newton_fields_raise_where_the_point_loop_raises():
    # the evaluator raises ZeroDivisionError in the second block: the
    # iteration ends there, after the first block was yielded whole
    pts = np.random.default_rng(33).uniform(1.0, 6.0, (1600, 2))
    pts[1500] = (0.0, 1.0)
    target = (0.5, 0.0)
    with np.errstate(divide="ignore"):
        got = _outcomes(_rows(newton_fields(RECIPROCAL, pts, target)))
    ref = _outcomes(_scalar_fields(RECIPROCAL, pts, target))
    assert ref[-1] is ZeroDivisionError and len(ref) == 1501
    assert got == ref[:FIELD_BLOCK] + ref[-1:]
    assert all(f is not None for _, f in got[:-1])
