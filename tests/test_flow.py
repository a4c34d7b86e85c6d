import math

import numpy as np
import pytest

from newtonflow.flow import (
    FIELD_BLOCK,
    SAMPLE_ERRORS,
    Direction,
    FlowFailure,
    FlowOptions,
    FlowStatus,
    Trajectory,
    decay_drift,
    direction_deviation,
    integrate,
    newton_field,
    newton_fields,
    solve_inverse,
)
from newtonflow.maps import builtin

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
            newton_field(ZAMP, x, F_ORIGIN), ZAMP.field_origin(x), rtol=1e-9, atol=1e-12
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


def test_drift_bound_scales_with_tolerance():
    rot = builtin("rot-poly2d")
    cases = [
        (ZAMP, (1.0, 1.0), F_ORIGIN),
        (ZAMP, (-3.0, 2.5), F_ORIGIN),
        (rot, (2.0, -1.0), rot.eval((0.3, 0.4))),
        (builtin("cubic1d"), (3.0,), (1.0,)),
    ]
    for tol in (1e-10, 1e-8, 1e-6):
        opts = FlowOptions(abs_tol=tol, rel_tol=tol)
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
    with pytest.raises(ValueError):
        FlowOptions(abs_tol=0.0)
    with pytest.raises(ValueError):
        FlowOptions(t_max=-1.0)
    with pytest.raises(ValueError):
        FlowOptions(max_steps=0)


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
    assert traj.steps == 721


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
    got = _outcomes(newton_fields(m, pts, target))
    assert got == _outcomes(_scalar_fields(m, pts, target))
    assert len(got) == len(pts)
    assert any(f is None for _, f in got)


def test_newton_fields_take_the_block_path(monkeypatch):
    import newtonflow.flow as flow_mod

    calls = []
    monkeypatch.setattr(flow_mod, "newton_field",
                        lambda *args: calls.append(args) or newton_field(*args))
    pts = np.random.default_rng(34).uniform(-6.0, 6.0, (FIELD_BLOCK + 10, 2))
    pts[5] = (800.0, 0.0)   # math.exp overflows: this row alone leaves the block
    got = list(newton_fields(ZAMP, pts, F_ORIGIN))
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
    assert _outcomes(newton_fields(m, pts, target)) == _outcomes(_scalar_fields(m, pts, target))


def test_newton_fields_raise_where_the_point_loop_raises():
    # f(x) - y* overflows to -inf in the second block: newton_field's input
    # check raises ValueError, after the rows before it were yielded
    pts = np.random.default_rng(33).uniform(-6.0, 6.0, (1600, 2))
    pts[1500] = (709.5, 0.0)
    target = (-1.7e308, 0.0)
    got = _outcomes(newton_fields(ZAMP, pts, target))
    assert got == _outcomes(_scalar_fields(ZAMP, pts, target))
    assert got[-1] is ValueError and len(got) == 1501
