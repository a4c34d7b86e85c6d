import dataclasses
import math

import numpy as np
import pytest
from test_flow import _planar_points, _scalar_fields

from newtonflow.certify import (
    POINT_SLACK,
    AuxFunction,
    BallSampler,
    Certificate,
    GridSampler,
    OmegaPoly,
    SphereSampler,
    Verdict,
    _inverse_integral,
    _sphere,
    aux_hadamard,
    aux_log_coercive,
    aux_log_h,
    check_ball_criterion,
    check_bounded_inverse_on_ball,
    check_coercive_map,
    check_cor22,
    check_hadamard,
    check_theorem21,
    check_theorem31,
    coercivity_evidence,
    dplus,
)
from newtonflow.cli import _pipeline_deviation
from newtonflow.flow import FIELD_BLOCK, newton_field
from newtonflow.maps import FLOAT_OPS, ROW_OPS, C1Map, builtin, zampieri_inv_jac, zampieri_radial

ZAMP = builtin("zampieri-ex5")
EYE2 = builtin("linear", a=np.eye(2))


def _fold_map():
    # singular Jacobian on the whole x0 = 0 line
    return C1Map(
        "fold", 2,
        lambda x: np.array([x[0] ** 2 + 1.0, x[1]]),
        lambda x: np.array([[2.0 * x[0], 0.0], [0.0, 1.0]]),
    )


# --- samplers ----------------------------------------------------------------


def test_samplers_reproducible_and_in_domain():
    ball = BallSampler(2.5, 500, seed=7)
    p1, p2 = ball.points(3), ball.points(3)
    np.testing.assert_array_equal(p1, p2)
    assert np.all(np.linalg.norm(p1, axis=1) <= 2.5 + 1e-12)

    sp = SphereSampler(4.0, 300, seed=8)
    q = sp.points(2)
    np.testing.assert_allclose(np.linalg.norm(q, axis=1), 4.0, rtol=1e-12)

    g = GridSampler(((-1, 1), (0, 2)), (3, 5))
    pts = g.points(2)
    assert pts.shape == (15, 2)
    assert pts[:, 0].min() == -1 and pts[:, 0].max() == 1
    assert pts[:, 1].min() == 0 and pts[:, 1].max() == 2


def test_sampler_validation():
    with pytest.raises(ValueError):
        BallSampler(1.0, 0)
    with pytest.raises(ValueError):
        SphereSampler(-1.0, 10)
    with pytest.raises(ValueError):
        GridSampler(((-1, 1),), 5).points(2)


# --- auxiliary functions ------------------------------------------------------


def test_log_h_normalization():
    k = aux_log_h(1.0, 1.0, 0.0, (0, 0), (0, 0), ZAMP)
    assert k.meta["normalized"] is True
    assert (k.meta["a"], k.meta["b"]) == (5.0, 4.0)
    assert k.k(np.zeros(2)) == pytest.approx(math.log(1.25))
    x = np.array([1.0, 2.0])
    assert k.k(x) == pytest.approx(math.log(1.25 + 5.0))


def test_log_h_collapses_to_plain_log():
    m = EYE2
    k = aux_log_h(3.0, 3.0, 0.0, (0, 0), (0, 0), m)
    assert k.meta["normalized"] is False
    x = np.array([2.0, 0.0])
    assert k.k(x) == pytest.approx(math.log(1.0 + 4.0))
    # k(x1) = ln(a/b)
    assert k.k(np.zeros(2)) == pytest.approx(math.log(1.0))


def test_log_h_rejects_negative_constants():
    with pytest.raises(ValueError):
        aux_log_h(-1.0, 0.0, 0.0, (0, 0), (0, 0), EYE2)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("slot", range(3))
def test_constants_must_be_finite(bad, slot):
    # a NaN or infinite constant would make every growth bound hold
    abc = [1.0, 1.0, 0.0]
    abc[slot] = bad
    with pytest.raises(ValueError, match="finite"):
        aux_log_h(*abc, (0, 0), (0, 0), EYE2)
    with pytest.raises(ValueError, match="finite"):
        check_cor22(ZAMP, (0, 0), (0, 0), *abc, GridSampler(((-2, 2), (-2, 2)), 5))


def test_hadamard_constant_omega_is_norm():
    k = aux_hadamard(OmegaPoly([1.0]))
    x = np.array([3.0, 4.0])
    assert k.k(x) == pytest.approx(5.0, rel=1e-10)  # outside the cap


def test_hadamard_affine_omega_closed_form():
    k = aux_hadamard(lambda s: 1.0 + s)
    for rho in (1.5, 3.0, 10.0):
        x = np.array([rho, 0.0])
        assert k.k(x) == pytest.approx(math.log1p(rho), rel=1e-10)


def test_hadamard_smoothing_continuity():
    k = aux_hadamard(lambda s: 1.0 + s)
    eps = 1e-7
    inner = k.k(np.array([1.0 - eps, 0.0]))
    outer = k.k(np.array([1.0 + eps, 0.0]))
    assert abs(inner - outer) <= 1e-6  # C^0 across the cap radius
    v = np.array([1.0, 0.0])
    d_in = dplus(k, np.array([1.0 - eps, 0.0]), v)
    d_out = dplus(k, np.array([1.0 + eps, 0.0]), v)
    assert abs(d_in - d_out) <= 1e-6  # matched slope
    # value/slope continuity at rho0 itself within 1e-9 via the cap constants
    c0, c2 = k.meta["c0"], k.meta["c2"]
    assert abs((c0 + c2) - k.k(np.array([1.0, 0.0]))) <= 1e-9
    assert abs(2.0 * c2 - 1.0 / (1.0 * (1.0 + 1.0))) <= 1e-9


def test_hadamard_rejects_nonpositive_omega():
    with pytest.raises(ValueError):
        aux_hadamard(lambda s: s)  # zero at 0


def test_log_coercive_values():
    k = aux_log_coercive(EYE2)
    assert k.k(np.zeros(2)) == pytest.approx(0.0)
    kz = aux_log_coercive(ZAMP)
    assert kz.k(np.zeros(2)) == pytest.approx(math.log(2.0))
    m1 = builtin("linear", a=[[2.0]])
    k1 = aux_log_coercive(m1)
    assert k1.k(np.array([1.0])) == pytest.approx(math.log(5.0))


def test_dplus_closed_forms():
    k = aux_log_h(3.0, 3.0, 0.0, (0, 0), (0, 0), EYE2)
    assert dplus(k, np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)
    # radial k at the center: derivative vanishes in any direction
    assert dplus(k, np.zeros(2), np.array([0.3, -0.4])) == pytest.approx(0.0)
    kl = aux_log_coercive(EYE2)
    got = dplus(kl, np.array([3.0, 4.0]), np.array([0.6, 0.8]))
    assert got == pytest.approx(10.0 / 26.0, rel=1e-12)


def test_dplus_numeric_matches_closed_forms():
    rng = np.random.default_rng(12)
    funcs = [
        aux_log_h(1.0, 1.0, 0.5, (0.2, -0.1), (0.1, 0.3), ZAMP),
        aux_hadamard(lambda s: 1.0 + s),
        aux_log_coercive(ZAMP),
    ]
    for aux in funcs:
        numeric = AuxFunction(kind="user", k=aux.k)  # strip the closed form
        for _ in range(300):
            x = rng.uniform(-3, 3, size=2)
            v = rng.standard_normal(2)
            if np.linalg.norm(v) < 1e-6:
                continue
            a = dplus(aux, x, v)
            b = dplus(numeric, x, v)
            assert abs(a - b) <= 1e-6 * (1.0 + abs(a)), (aux.kind, x, v)


@pytest.mark.xfail(strict=True, reason=(
    "without dplus_closed, dplus takes Richardson-extrapolated one-sided quotients "
    "with step s = 1e-6 (1 + ||x||) / ||v||, which steps over a kink of k closer "
    "than s: for the max norm near |x0| = |x1| it returns the slope beyond the kink"))
def test_dplus_numeric_is_the_right_derivative_at_max_norm_kinks():
    k = AuxFunction("max-norm", lambda x: float(np.max(np.abs(x))))
    # (x, v, exact right derivative): along x + t v, |x0| leads until |x1|
    # overtakes it at t = 5e-10, 1e-7 and 3e-9, so D+ k(x)[v] = sign(x0) v0
    cases = [((1.0, 1.0 - 1e-9), (-1.0, 1.0), -1.0),
             ((-2.0, 2.0 - 2e-7), (1.0, 1.0), -1.0),
             ((3.0, -3.0 + 3e-9), (0.0, -1.0), 0.0)]
    for x, v, exact in cases:
        assert dplus(k, np.array(x), np.array(v)) == pytest.approx(exact, abs=1e-6)


def test_dplus_rejects_zero_direction():
    k = aux_log_coercive(EYE2)
    with pytest.raises(ValueError):
        dplus(k, np.zeros(2), np.zeros(2))


def test_coercivity_evidence_statuses():
    ok, _, _ = coercivity_evidence(aux_hadamard(OmegaPoly([1.0])), 2)
    assert ok == "ok"
    flat, w, _ = coercivity_evidence(aux_hadamard(OmegaPoly([1.0, 0.0, 1.0])), 2)
    assert flat == "flattening" and w is not None
    dec, w, _ = coercivity_evidence(aux_log_coercive(ZAMP), 2)
    assert dec == "decreasing" and w is not None and w[0] < 0


# --- pipeline-vs-closed-form oracle ------------------------------------------


def test_radial_product_pipeline_matches_closed_form():
    rng = np.random.default_rng(99)
    f0 = ZAMP.eval((0.0, 0.0))
    for _ in range(1000):
        x = rng.standard_normal(2)
        x *= rng.uniform(0, 5) / max(np.linalg.norm(x), 1e-12)
        lhs = float(x @ newton_field(ZAMP, x, f0))
        ref = float(zampieri_radial(x[None])[0])
        assert abs(lhs - ref) <= 1e-9 * (1.0 + max(abs(lhs), abs(ref)))


# --- block reductions against per-point loops ---------------------------------
#
# cor22, ball and verify-ex5's pipeline check reduce whole blocks of
# newton_fields with np.vecdot.  The loops below are the per-point forms they
# replaced, kept as the reference: every value, witness and count must match
# bit for bit.


@pytest.mark.parametrize("dim", [1, 2])
def test_vecdot_rows_equal_the_per_row_product(dim):
    # the block reductions rest on np.vecdot rounding like a row's x @ f;
    # a numpy or BLAS change that breaks this fails here first
    rng = np.random.default_rng(60 + dim)
    grid = GridSampler(((-800.0, 800.0),) * dim, 41).points(dim)
    x = np.concatenate([grid, rng.uniform(-800.0, 800.0, (10_000, dim))])
    f = rng.standard_normal(x.shape) * 10.0 ** rng.uniform(-100.0, 100.0, x.shape)
    ref = np.array([float(x[i] @ f[i]) for i in range(len(x))])
    assert np.vecdot(x, f).tobytes() == ref.tobytes()
    assert np.vecdot(x, x).tobytes() == np.array([float(v @ v) for v in x]).tobytes()


class _Given:
    """A sampler that hands out fixed points."""

    seed = None

    def __init__(self, pts):
        self.pts = pts

    def points(self, dim):
        return self.pts


def _bits(v):
    return None if v is None else np.asarray(v, dtype=float).tobytes()


def _cor22_loop(m, x0, x1, a, b, c, pts):
    f0 = m.eval(x0)
    x1 = np.asarray(x1, dtype=float)
    worst, witness = -math.inf, None
    skipped = used = violations = 0
    for x, f_vec in _scalar_fields(m, pts, f0):
        if f_vec is None:
            skipped += 1
            continue
        d = x - x1
        lhs = float(d @ f_vec)
        rhs = a + b * float(d @ d)
        if c != 0.0:
            df = m.eval(x) - f0
            rhs += c * float(df @ df)
        margin = lhs - rhs
        used += 1
        if margin > POINT_SLACK * (1.0 + abs(rhs)):
            violations += 1
        if margin > worst:
            worst, witness = margin, x
    return _bits(worst), _bits(witness), used, skipped, violations


def _cor22_blocks(m, x0, x1, a, b, c, pts):
    cert = check_cor22(m, x0, x1, a, b, c, _Given(pts))
    return (_bits(cert.extremal_value), _bits(cert.witness), cert.samples_used,
            cert.samples_skipped_singular, cert.stats.get("violations", 0))


@pytest.mark.parametrize("m", [
    ZAMP,
    ZAMP.with_perturbed_jacobian(1e-3),
    builtin("rot-poly2d", eps=0.3),
], ids=["zampieri-ex5", "perturbed-1e-3", "rot-poly2d"])
@pytest.mark.parametrize("c", [0.0, 0.5])
def test_cor22_blocks_equal_the_point_loop(m, c):
    pts = _planar_points(2 * FIELD_BLOCK + 452, seed=61)
    x0, x1 = np.array([0.2, -0.1]), np.array([0.5, 0.25])
    with np.errstate(all="ignore"):
        ref = _cor22_loop(m, x0, x1, 0.0, 0.0, c, pts)
    got = _cor22_blocks(m, x0, x1, 0.0, 0.0, c, pts)
    assert got == ref
    assert 0 < got[3] < len(pts) and got[2] + got[3] == len(pts)


@pytest.mark.parametrize("c", [0.0, 0.5])
def test_cor22_blocks_equal_the_point_loop_in_1d(c):
    # exp1d has no point form: every row takes newton_field, and on the golden
    # -800..800 range the left side over- and underflows
    m = builtin("exp1d")
    pts = np.concatenate([np.linspace(-800.0, 800.0, 41)[:, None],
                          np.random.default_rng(62).uniform(-800.0, 800.0, (2100, 1))])
    with np.errstate(all="ignore"):
        ref = _cor22_loop(m, np.zeros(1), np.ones(1), 1.0, 1.0, c, pts)
    assert _cor22_blocks(m, np.zeros(1), np.ones(1), 1.0, 1.0, c, pts) == ref


@pytest.mark.parametrize("c", [0.0, 0.5])
def test_cor22_evaluates_f_once_per_sample(c):
    # the c-term reads f(x) from the field blocks, which compute it anyway:
    # one point-form call on rows per block, and none on floats
    calls = []

    def point(xi, eta, ops=FLOAT_OPS):
        calls.append(len(xi) if ops is ROW_OPS else ops)
        return ZAMP.point(xi, eta, ops)

    m = dataclasses.replace(ZAMP, point=point)
    check_cor22(m, (0, 0), (0, 0), 1.0, 1.0, c, GridSampler(((-5, 5), (-5, 5)), 41))
    assert calls == [FIELD_BLOCK, 41 * 41 - FIELD_BLOCK]


def test_cor22_largest_margin_tied_across_blocks_keeps_the_first():
    # for the identity map toward f(0) = 0 the margin is -3||x||^2 - 1: the
    # two rows nearest the origin tie, one in each block
    pts = np.random.default_rng(63).uniform(1.0, 2.0, (FIELD_BLOCK + 100, 2))
    pts[5] = (0.1, 0.0)
    pts[FIELD_BLOCK + 5] = (0.0, 0.1)
    assert float(pts[5] @ pts[5]) == float(pts[FIELD_BLOCK + 5] @ pts[FIELD_BLOCK + 5])
    args = (EYE2, np.zeros(2), np.zeros(2), 1.0, 2.0, 0.0, pts)
    got = _cor22_blocks(*args)
    assert got == _cor22_loop(*args)
    assert np.frombuffer(got[1]).tolist() == [0.1, 0.0]


def _ball_loop(m, x0, r, count, seed):
    f0 = m.eval(x0)
    pts = x0 + _sphere(np.random.default_rng(seed), m.dim, r, count)
    kept, vals = [], []
    for x, f_vec in _scalar_fields(m, pts, f0):
        if f_vec is not None:
            kept.append(x)
            vals.append(float((x - x0) @ f_vec))
    imax, imin = int(np.argmax(vals)), int(np.argmin(vals))
    return (_bits(vals[imin]), _bits(vals[imax]), _bits(kept[imin]), _bits(kept[imax]),
            len(vals), len(pts) - len(vals))


@pytest.mark.parametrize("m, x0, r", [
    (ZAMP, (0.0, 0.0), 2.0),
    (ZAMP, (0.0, 0.0), 800.0),     # exp over- and underflows: skipped rows
    (ZAMP.with_perturbed_jacobian(1e-3), (0.3, -0.2), 5.0),
    (builtin("exp1d"), (0.0,), 700.0),
], ids=["zampieri-ex5", "zampieri-ex5-r800", "perturbed-1e-3", "exp1d"])
def test_ball_blocks_equal_the_point_loop(m, x0, r):
    x0 = np.asarray(x0, dtype=float)
    with np.errstate(all="ignore"):
        ref = _ball_loop(m, x0, r, 2 * FIELD_BLOCK + 452, seed=64)
    c = check_ball_criterion(m, x0, r, 2 * FIELD_BLOCK + 452, seed=64)
    got = (_bits(c.stats["min"]), _bits(c.stats["max"]), _bits(c.stats["min_witness"]),
           _bits(c.stats["max_witness"]), c.samples_used, c.samples_skipped_singular)
    assert got == ref
    assert c.extremal_value == c.stats["max"] and c.witness is c.stats["max_witness"]


def test_all_skipped_samples_give_no_samples():
    singular = ZAMP.with_perturbed_jacobian(-1.0)   # every Jacobian zero
    pts = _planar_points(2 * FIELD_BLOCK + 452, seed=65)
    certs = [check_cor22(singular, (0, 0), (0, 0), 1.0, 1.0, c, _Given(pts)) for c in (0.0, 1.0)]
    certs.append(check_ball_criterion(singular, (0.0, 0.0), 1.0, len(pts), seed=65))
    for cert in certs:
        assert cert.verdict is Verdict.INCONCLUSIVE and cert.stats == {"reason": "no valid samples"}
        assert (cert.extremal_value, cert.witness, cert.samples_used) == (None, None, 0)
        assert cert.samples_skipped_singular == len(pts)


def _pipeline_loop(m, pts, f0):
    worst = 0.0
    for x, f_vec in _scalar_fields(m, pts, f0):
        if f_vec is None:
            worst = math.inf
            continue
        lhs = float(x @ f_vec)
        ref = float(zampieri_radial(x[None])[0])
        worst = max(worst, abs(lhs - ref) / (1.0 + max(abs(lhs), abs(ref))))
    return worst


@pytest.mark.parametrize("m", [
    ZAMP,
    ZAMP.with_perturbed_jacobian(1e-3),
    ZAMP.with_perturbed_jacobian(-1.0),
], ids=["zampieri-ex5", "perturbed-1e-3", "perturbed-minus-1"])
@pytest.mark.parametrize("radius", [5.0, 800.0])
def test_pipeline_check_blocks_equal_the_point_loop(m, radius):
    # radius 800 puts rows past math.exp's range: skipped rows, NaN deviations
    pts = BallSampler(radius, 2 * FIELD_BLOCK + 452, seed=66).points(2)
    f0 = ZAMP.eval((0.0, 0.0))
    with np.errstate(all="ignore"):
        ref = _pipeline_loop(m, pts, f0)
    assert _bits(_pipeline_deviation(m, pts, f0)) == _bits(ref)


# --- criterion checks ---------------------------------------------------------


def test_theorem21_linear_satisfied():
    k = aux_log_h(3.0, 3.0, 0.0, (0, 0), (0, 0), EYE2)
    cert = check_theorem21(EYE2, (0.0, 0.0), k, BallSampler(5.0, 400, seed=1))
    assert cert.verdict is Verdict.SATISFIED
    assert cert.extremal_value <= 1e-9  # sup of -2||x||^2/(1+||x||^2)
    assert cert.witness is not None


def test_theorem21_planar_oracle_satisfied():
    k = aux_log_h(1.0, 1.0, 0.0, (0, 0), (0, 0), ZAMP)
    cert = check_theorem21(ZAMP, (0.0, 0.0), k, BallSampler(5.0, 400, seed=2))
    assert cert.verdict is Verdict.SATISFIED
    # proof bound: sup D+_F k <= normalized b
    assert cert.extremal_value <= 4.0 + 1e-6


def test_theorem21_no_valid_samples_inconclusive():
    m = _fold_map()
    line = GridSampler(((0.0, 0.0), (-1.0, 1.0)), (1, 9))  # all on the singular line
    k = aux_log_h(3.0, 3.0, 0.0, (1.0, 0.0), (1.0, 0.0), m)
    cert = check_theorem21(m, (1.0, 0.0), k, line)
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert cert.samples_used == 0
    assert cert.samples_skipped_singular == 9


def test_cor22_planar_oracle_grid_satisfied():
    cert = check_cor22(ZAMP, (0, 0), (0, 0), 1.0, 1.0, 0.0,
                       GridSampler(((-5, 5), (-5, 5)), 101))
    assert cert.verdict is Verdict.SATISFIED
    assert cert.stats["violations"] == 0
    assert cert.samples_used == 101 * 101


def test_cor22_arctan_pure_sign():
    m = builtin("arctan1d")
    cert = check_cor22(m, (0.0,), (0.0,), 0.0, 0.0, 0.0, GridSampler(((-6, 6),), 301))
    assert cert.verdict is Verdict.SATISFIED
    # closed form: LHS = -x (1+x^2) arctan x <= 0
    assert cert.extremal_value <= 0.0


def test_cor22_exp_map_closed_form_agreement():
    m = builtin("exp1d")
    f0 = m.eval((0.0,))
    grid = GridSampler(((-10, 4),), 141)
    for x in grid.points(1):
        lhs = float((x - 0.0) @ newton_field(m, x, f0))
        ref = x[0] * (math.exp(-x[0]) - 1.0)
        assert abs(lhs - ref) <= 1e-9 * (1.0 + abs(ref))
    cert = check_cor22(m, (0.0,), (0.0,), 1.0, 1.0, 0.0, grid)
    assert cert.verdict is Verdict.SATISFIED


def test_cor22_violation_carries_witness():
    m = builtin("linear", a=np.eye(1))
    # F(x) = -x, so (x - 2) . (-x) = 2x - x^2 > 0 on (0, 2)
    cert = check_cor22(m, (0.0,), (2.0,), 0.0, 0.0, 0.0, GridSampler(((-3, 3),), 61))
    assert cert.verdict is Verdict.VIOLATED
    assert cert.witness is not None
    assert 0.0 < cert.witness[0] < 2.0
    assert cert.extremal_value > 1e-9


def test_theorem31_linear_hadamard_satisfied():
    k = aux_hadamard(OmegaPoly([1.0]))
    cert = check_theorem31(EYE2, k, BallSampler(5.0, 150, seed=3), n_dirs=12, seed=4)
    assert cert.verdict is Verdict.SATISFIED
    assert cert.extremal_value <= 1.0 + 1e-9


def test_theorem31_planar_oracle_coercivity_fires():
    # sup stays <= 1 but k = ln(1+||f||^2) is not coercive along xi -> -inf
    cert = check_theorem31(ZAMP, aux_log_coercive(ZAMP),
                           BallSampler(4.0, 150, seed=5), n_dirs=12, seed=6)
    assert cert.verdict is Verdict.VIOLATED
    assert cert.stats["coercivity"] == "decreasing"
    assert cert.extremal_value <= 1.0 + 1e-9
    assert cert.witness is not None and cert.witness[0] < 0


def test_theorem31_empty_sampler_inconclusive():
    m = _fold_map()
    line = GridSampler(((0.0, 0.0), (-1.0, 1.0)), (1, 9))
    cert = check_theorem31(m, aux_log_coercive(m), line, n_dirs=4, seed=0)
    assert cert.verdict is Verdict.INCONCLUSIVE


def test_hadamard_gate_cubic_and_arctan():
    cert = check_hadamard(builtin("cubic1d"), OmegaPoly([1.0]), GridSampler(((-5, 5),), 201))
    assert cert.verdict is Verdict.SATISFIED
    assert cert.stats["divergence"] == "diverges"

    cert = check_hadamard(builtin("arctan1d"), OmegaPoly([1.0, 0.0, 1.0]),
                          GridSampler(((-5, 5),), 201))
    assert cert.verdict is Verdict.VIOLATED
    assert cert.stats["pointwise_ok"] is True  # the bound itself holds with equality
    assert cert.stats["divergence"] == "converges"
    assert cert.stats["integral_value"] == pytest.approx(math.pi / 2, rel=1e-8)


def test_hadamard_pointwise_violation():
    cert = check_hadamard(builtin("arctan1d"), OmegaPoly([1.0]), GridSampler(((-3, 3),), 101))
    assert cert.verdict is Verdict.VIOLATED
    assert cert.stats["pointwise_ok"] is False
    assert cert.witness is not None
    assert abs(abs(cert.witness[0]) - 3.0) <= 1e-12  # worst point on the boundary


def test_hadamard_linear_constant_bound():
    a = np.array([[2.0, 0.0], [0.0, 0.5]])
    m = builtin("linear", a=a)
    cert = check_hadamard(m, OmegaPoly([2.0]), BallSampler(5.0, 100, seed=9))
    assert cert.verdict is Verdict.SATISFIED


def test_hadamard_user_omega_capped_inconclusive():
    cert = check_hadamard(builtin("cubic1d"), lambda s: 1.0, GridSampler(((-5, 5),), 101))
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert cert.stats["divergence_decided"] == "numeric-evidence"
    assert cert.stats["divergence"] == "growing"
    assert len(cert.stats["integral_profile"]) == 11  # radii 1, 2, ..., 1024


def test_omega_poly_validation_and_degree():
    with pytest.raises(ValueError):
        OmegaPoly([])
    with pytest.raises(ValueError):
        OmegaPoly([0.0, 1.0])
    with pytest.raises(ValueError):
        OmegaPoly([1.0, -1.0])
    for coeffs in ([math.nan], [1.0, math.nan], [math.inf], [1.0, math.inf], [1.0, -math.inf]):
        with pytest.raises(ValueError):
            OmegaPoly(coeffs)
    assert OmegaPoly([1.0, 2.0]).diverges()
    assert OmegaPoly([1.0, 2.0, 0.0]).degree == 1
    assert not OmegaPoly([1.0, 0.0, 3.0]).diverges()
    assert OmegaPoly([2.0])(3.0) == 2.0
    assert OmegaPoly([1.0, 2.0, 3.0])(2.0) == 1.0 + 4.0 + 12.0


@pytest.mark.parametrize("coeffs, lo, hi, exact", [
    ([1.0, 1.0], 1.0, 3.0, math.log(2.0)),
    ([1.0, 0.0, 1.0], 0.0, math.inf, math.pi / 2.0),
    ([1.0, 2.0, 1.0], 0.0, math.inf, 1.0),          # zero discriminant: (1 + s)^2
    ([1.0, 2.0, 1.0], 0.0, 1.0, 0.5),
    ([1.0, 1.0, 1.0], 0.0, math.inf, 2.0 * math.pi / (3.0 * math.sqrt(3.0))),  # negative
    ([2.0, 3.0, 1.0], 0.0, math.inf, math.log(2.0)),  # positive: (1 + s)(2 + s)
    ([2.0], 0.5, 4.5, 2.0),
    ([1.0, 3.0, 3.0, 1.0], 0.0, math.inf, 0.5),     # (1 + s)^3: the numeric rule
])
def test_inverse_integral_matches_closed_forms(coeffs, lo, hi, exact):
    assert _inverse_integral(OmegaPoly(coeffs), lo, hi) == pytest.approx(exact, rel=1e-15, abs=0)


def test_inverse_integral_closed_forms_match_the_numeric_rule():
    # a plain callable takes the Gauss-Legendre path, the OmegaPoly the antiderivative
    rng = np.random.default_rng(18)
    for _ in range(60):
        degree = int(rng.integers(0, 3))
        omega = OmegaPoly([rng.uniform(0.1, 3.0), *rng.uniform(0.0, 3.0, size=degree)])
        lo, hi = sorted(rng.uniform(0.0, 50.0, size=2))
        for b in (hi, math.inf) if omega.degree == 2 else (hi,):
            closed = _inverse_integral(omega, lo, b)
            numeric = _inverse_integral(lambda s: omega(s), lo, b)
            assert numeric == pytest.approx(closed, rel=1e-12, abs=0)


def test_inverse_integral_raises_when_the_orders_disagree():
    # 1/omega peaks at 1e4 over a width of 1e-2 around s = 1/2
    with pytest.raises(ValueError, match="did not settle"):
        _inverse_integral(lambda s: 1e-4 + (s - 0.5) ** 2, 0.0, 1.0)


def test_coercive_map_gate():
    cert = check_coercive_map(builtin("rot-poly2d"))
    assert cert.verdict is Verdict.SATISFIED
    cert = check_coercive_map(builtin("linear", a=np.eye(2)))
    assert cert.verdict is Verdict.SATISFIED
    cert = check_coercive_map(ZAMP)
    assert cert.verdict is Verdict.VIOLATED
    assert cert.witness[0] < -3.0
    assert cert.stats["evidence_only"] is True


@pytest.mark.parametrize("factor", [0.0, -1.0, -math.inf, math.inf, math.nan])
def test_coercive_growth_factor_must_be_positive_and_finite(factor):
    # -inf or NaN would decide the verdict without looking at the minima
    with pytest.raises(ValueError, match="growth_factor"):
        check_coercive_map(ZAMP, growth_factor=factor)


def test_every_ball_and_sphere_draw_needs_a_radius_and_a_sample():
    cubic = builtin("cubic1d")
    with pytest.raises(ValueError, match="radii must not be empty"):
        check_coercive_map(cubic, radii=[])
    for bad in (0.0, -1.0, math.inf, math.nan):
        for draw in (lambda: BallSampler(bad, 10), lambda: SphereSampler(bad, 10),
                     lambda: check_coercive_map(cubic, radii=[bad]),
                     lambda: check_ball_criterion(cubic, (0.0,), bad),
                     lambda: check_bounded_inverse_on_ball(cubic, bad)):
            with pytest.raises(ValueError, match="radius must be positive and finite"):
                draw()
    for draw in (lambda: BallSampler(1.0, 0), lambda: SphereSampler(1.0, 0),
                 lambda: check_coercive_map(cubic, samples_per_sphere=0),
                 lambda: check_ball_criterion(cubic, (0.0,), 1.0, sphere_samples=0),
                 lambda: check_bounded_inverse_on_ball(cubic, 1.0, count=0)):
        with pytest.raises(ValueError, match="count must be >= 1"):
            draw()


def test_one_dimensional_sphere_draw_is_random_signs():
    # The 1-D sphere {-r, r} is drawn as random signs, so a draw of count points
    # holds both only with probability 1 - 2**(1 - count): one point checks one side.
    one_side = [SphereSampler(2.0, 1, seed=seed).points(1) for seed in range(8)]
    assert all(p.shape == (1, 1) and abs(p[0, 0]) == 2.0 for p in one_side)
    assert set(SphereSampler(2.0, 64, seed=0).points(1)[:, 0]) == {-2.0, 2.0}
    cert = check_ball_criterion(builtin("cubic1d"), (0.0,), 2.0, sphere_samples=1)
    assert cert.samples_used == 1
    assert abs(cert.witness[0]) == 2.0


def test_ball_criterion_linear_and_shrinking_radius():
    m = builtin("linear", a=np.eye(2))
    cert = check_ball_criterion(m, (0.0, 0.0), 2.0, 400, seed=1)
    assert cert.verdict is Verdict.SATISFIED
    assert cert.extremal_value == pytest.approx(-4.0, rel=1e-9)

    cert = check_ball_criterion(ZAMP, (0.0, 0.0), 1e-6, 400, seed=2)
    assert cert.verdict is Verdict.SATISFIED
    assert cert.extremal_value == pytest.approx(-1e-12, rel=1e-3)


def test_ball_criterion_planar_oracle_sign_profile():
    cert = check_ball_criterion(ZAMP, (0.0, 0.0), 1.0, 2000, seed=3)
    # reported extremes must match the closed-form radial product at the witnesses
    for key, val in (("min_witness", cert.stats["min"]), ("max_witness", cert.stats["max"])):
        w = np.asarray(cert.stats[key])
        assert zampieri_radial(w[None])[0] == pytest.approx(val, rel=1e-9, abs=1e-12)
    # measured profile on the unit circle is entirely nonpositive
    assert cert.stats["max"] <= 1e-9
    assert cert.stats["min"] < -0.5


def test_bounded_inverse_on_ball():
    a = np.array([[2.0, 0.0], [0.0, 0.5]])
    m = builtin("linear", a=a)
    s = check_bounded_inverse_on_ball(m, 1.0, count=64, seed=0)
    assert s.value == pytest.approx(2.0, rel=1e-12)

    s = check_bounded_inverse_on_ball(builtin("arctan1d"), 3.0, count=128, seed=0)
    assert s.value == pytest.approx(10.0, rel=1e-12)
    assert abs(s.witness[0]) == pytest.approx(3.0)

    # singular sample short-circuits to +inf with the offending point attached
    degenerate = C1Map(
        "rank-one", 2,
        lambda x: np.array([x[0] + x[1], x[0] + x[1]]),
        lambda x: np.ones((2, 2)),
    )
    s = check_bounded_inverse_on_ball(degenerate, 1.0, count=16, seed=0)
    assert s.value == math.inf
    assert s.witness is not None


def test_bounded_inverse_skips_non_finite_samples():
    # samples where f' is non-finite are skipped and not counted
    half = C1Map(
        "half-finite", 1,
        lambda x: np.array([x[0]]),
        lambda x: np.array([[1.0 if x[0] < 0.0 else math.inf]]),
    )
    s = check_bounded_inverse_on_ball(half, 2.0, count=64, seed=0)
    total = 64 + 16  # ball and shell
    assert s.value == 1.0
    assert s.witness[0] < 0.0
    assert 0 < s.samples_used < total

    # exp overflows beyond x ~ 709 (skipped) and its derivative underflows to
    # zero below x ~ -745 (singular: +inf with the point as witness)
    s = check_bounded_inverse_on_ball(builtin("exp1d"), 800.0, count=64, seed=0)
    assert s.value == math.inf
    assert s.witness[0] < -700.0
    # only the points evaluated before the stop count: 10 of 80, 2 of them skipped
    assert s.samples_used == 8


def test_bounded_inverse_planar_oracle_cross_check():
    s = check_bounded_inverse_on_ball(ZAMP, 1.0, count=512, seed=4)
    import newtonflow.linalg as linalg

    # value at the witness agrees with the closed-form inverse Jacobian norm
    ref = linalg.spectral_extremes(zampieri_inv_jac(s.witness))[0]
    assert s.value == pytest.approx(ref, rel=1e-9)
    # and a fine boundary sweep cannot beat the sampled sup by much
    ang = np.linspace(0, 2 * np.pi, 2000)
    grid_sup = max(
        linalg.spectral_extremes(zampieri_inv_jac(np.array((np.cos(a), np.sin(a)))))[0]
        for a in ang
    )
    assert s.value >= 0.97 * grid_sup


def _recording(m):
    """m without a point form, recording every point passed to fn and to jac."""
    seen = {"fn": [], "jac": []}

    def recorded(name, g):
        def call(x):
            seen[name].append(np.array(x))
            return g(x)
        return call

    return C1Map(m.name, m.dim, recorded("fn", m.fn), recorded("jac", m.jac)), seen


def _min_gap(a, b) -> float:
    """Smallest distance between a row of a and a row of b."""
    return float(np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2).min())


def test_bounded_inverse_shell_is_not_the_ball_pushed_out():
    count = 512
    for m, r in ((ZAMP, 1.0), (builtin("rot-poly2d"), 3.0)):
        rec, seen = _recording(m)
        check_bounded_inverse_on_ball(rec, r, count=count, seed=7)
        pts = np.array(seen["jac"])
        ball, shell = pts[:count], pts[count:]
        assert len(shell) == count // 4
        np.testing.assert_allclose(np.linalg.norm(shell, axis=1), r, rtol=1e-12)
        pushed = r * ball / np.linalg.norm(ball, axis=1, keepdims=True)
        assert _min_gap(shell, pushed) > 1e-12


def test_theorem31_directions_are_not_the_evidence_sphere():
    seen = {"k": [], "v": []}

    def k(x):
        seen["k"].append(np.array(x))
        return math.log1p(float(x @ x))

    def dp(x, v):
        seen["v"].append(np.array(v))
        return 2.0 * float(x @ v) / (1.0 + float(x @ x))

    n_dirs = 8
    check_theorem31(EYE2, AuxFunction("recorded", k, dp), BallSampler(2.0, 5, seed=1),
                    n_dirs=n_dirs, seed=4)
    # f' = I, so the directions are the u themselves: the 2n axes, then the
    # random units; the first evidence sphere has radius 1
    dirs = np.array(seen["v"][4:4 + n_dirs])
    first_sphere = np.array(seen["k"][:64])
    np.testing.assert_allclose(np.linalg.norm(first_sphere, axis=1), 1.0, rtol=1e-12)
    assert _min_gap(dirs, first_sphere) > 1e-12


def test_theorem21_evidence_is_not_the_sample_draw():
    seen = []

    def k(x):
        seen.append(np.array(x))
        return math.log1p(float(x @ x))

    def dp(x, v):
        return 2.0 * float(x @ v) / (1.0 + float(x @ x))

    sampler = BallSampler(5.0, 300, seed=3)
    check_theorem21(ZAMP, (0.0, 0.0), AuxFunction("recorded", k, dp), sampler)
    # with a closed-form D+, k is evaluated only on the evidence spheres
    pts = sampler.points(2)[:64]
    dirs = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    first_sphere = np.array(seen[:64])
    np.testing.assert_allclose(np.linalg.norm(first_sphere, axis=1), 1.0, rtol=1e-12)
    assert _min_gap(dirs, first_sphere) > 1e-12


@pytest.mark.parametrize("key", ["cubic1d", "rot-poly2d"])
def test_samples_used_counts_the_points_evaluated(key):
    m, seen = _recording(builtin(key))
    cert = check_coercive_map(m, radii=(1.0, 2.0, 4.0), samples_per_sphere=32, seed=1)
    assert cert.samples_used == len(seen["fn"]) == 3 * 32

    m, seen = _recording(builtin(key))
    cert = check_ball_criterion(m, np.zeros(m.dim), 1.0, sphere_samples=40, seed=2)
    assert cert.samples_used == len(seen["jac"]) == 40

    m, seen = _recording(builtin(key))
    s = check_bounded_inverse_on_ball(m, 2.0, count=40, seed=3)
    assert s.samples_used == len(seen["jac"]) == 40 + 10


def test_certificates_deterministic():
    c1 = check_cor22(ZAMP, (0, 0), (0, 0), 1, 1, 0, GridSampler(((-5, 5), (-5, 5)), 41))
    c2 = check_cor22(ZAMP, (0, 0), (0, 0), 1, 1, 0, GridSampler(((-5, 5), (-5, 5)), 41))
    assert c1.to_json_dict() == c2.to_json_dict()
    b1 = check_coercive_map(ZAMP, seed=11)
    b2 = check_coercive_map(ZAMP, seed=11)
    assert b1.to_json_dict() == b2.to_json_dict()


def test_certificate_json_schema():
    cert = check_cor22(ZAMP, (0, 0), (0, 0), 1, 1, 0, GridSampler(((-2, 2), (-2, 2)), 11))
    doc = cert.to_json_dict()
    assert set(doc) == {
        "criterion", "verdict", "extremal_value", "witness", "threshold",
        "samples_used", "samples_skipped_singular", "seed", "stats",
    }
    import json

    json.dumps(doc)  # round-trippable


def test_cor22_satisfied_implies_theorem21_bound():
    # proof-constant consistency on a shared sample set
    sampler = GridSampler(((-5, 5), (-5, 5)), 41)
    cert = check_cor22(ZAMP, (0, 0), (0, 0), 1.0, 1.0, 0.0, sampler)
    assert cert.verdict is Verdict.SATISFIED
    k = aux_log_h(1.0, 1.0, 0.0, (0, 0), (0, 0), ZAMP)
    b_norm = k.meta["b"]
    f0 = ZAMP.eval((0.0, 0.0))
    sup = -math.inf
    for x in sampler.points(2):
        fv = newton_field(ZAMP, x, f0)
        if not np.any(fv):
            continue
        sup = max(sup, dplus(k, x, fv))
    assert sup <= b_norm + 1e-6
