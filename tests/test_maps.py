import math
import pickle

import numpy as np
import pytest

from newtonflow import maps
from newtonflow.maps import (
    _EXP_MAX,
    FLOAT_OPS,
    ROW_OPS,
    C1Map,
    DomainError,
    NonFiniteError,
    UnknownMapError,
    builtin,
    fd_jacobian_check,
    list_maps,
    registry_entries,
    zampieri_inv_jac,
    zampieri_radial,
)


def _registry_instances():
    out = []
    for e in registry_entries():
        if e.key == "linear":
            out.append(builtin("linear", dim=3))
        else:
            out.append(builtin(e.key))
    return out


def test_planar_oracle_eval():
    m = builtin("zampieri-ex5")
    np.testing.assert_allclose(m.eval((0.0, 0.0)), (1.0, 0.0), atol=1e-16)
    v = math.e / math.sqrt(2.0)
    np.testing.assert_allclose(m.eval((1.0, 1.0)), (v, v), rtol=1e-15)


def test_arctan_eval():
    m = builtin("arctan1d")
    assert m.eval((0.0,))[0] == 0.0
    assert m.eval((1.0,))[0] == pytest.approx(math.pi / 4)


def test_planar_oracle_jacobian_closed_forms():
    m = builtin("zampieri-ex5")
    np.testing.assert_allclose(m.jacobian((0.0, 0.0)), np.eye(2), atol=1e-16)
    # at (0, 1): prefactor 2^{-3/2} on [[2, -1], [2, 1]]
    expected = np.array([[2.0, -1.0], [2.0, 1.0]]) / 2.0**1.5
    np.testing.assert_allclose(m.jacobian((0.0, 1.0)), expected, rtol=1e-15)


def test_linear_jacobian_is_the_matrix():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    m = builtin("linear", a=a)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(2)
        np.testing.assert_array_equal(m.jacobian(x), a)
        np.testing.assert_allclose(m.eval(x), a @ x, rtol=1e-15)


def test_builtin_cubic():
    m = builtin("cubic1d")
    assert m.eval((2.0,))[0] == pytest.approx(10.0)
    assert m.jacobian((2.0,))[0, 0] == pytest.approx(13.0)


def test_builtin_unknown_key():
    with pytest.raises(UnknownMapError):
        builtin("no-such-map")


def test_builtin_dim_validation():
    with pytest.raises(ValueError):
        builtin("zampieri-ex5", dim=3)
    with pytest.raises(ValueError):
        builtin("linear")


@pytest.mark.parametrize("key, params, name", [
    ("cubic1d", {"eps": 0.3}, "eps"),
    ("zampieri-ex5", {"a": np.eye(2)}, "a"),
    ("rot-poly2d", {"a": np.eye(2)}, "a"),
    ("linear", {"eps": 0.3}, "eps"),
])
def test_builtin_rejects_parameters_the_map_does_not_take(key, params, name):
    with pytest.raises(TypeError, match=f"map '{key}' does not take '{name}'"):
        builtin(key, **params)


@pytest.mark.parametrize("eps", [0.0, -0.1, math.nan, math.inf])
def test_rot_poly_eps_must_be_positive_and_finite(eps):
    with pytest.raises(ValueError, match="eps"):
        builtin("rot-poly2d", eps=eps)


def test_fd_check_linear_exact():
    # central differences are exact for affine maps up to rounding, which at
    # step h ~ cbrt(eps) means eps * ||A x|| / (2h) ~ 1e-11 for |x| <= 3
    m = builtin("linear", a=np.array([[2.0, -1.0], [0.5, 3.0]]))
    rng = np.random.default_rng(1)
    probes = rng.uniform(-3, 3, size=(20, 2))
    assert fd_jacobian_check(m, probes) <= 1e-10


def test_fd_check_planar_oracle():
    m = builtin("zampieri-ex5")
    rng = np.random.default_rng(2)
    probes = rng.standard_normal((100, 2))
    probes = 3.0 * probes / np.maximum(np.linalg.norm(probes, axis=1, keepdims=True), 1.0)
    assert fd_jacobian_check(m, probes) <= 1e-6


def test_fd_check_cubic_pointwise():
    m = builtin("cubic1d")
    # analytic slope 13 at x=2; the central difference is good to ~1e-8 rel
    assert fd_jacobian_check(m, [(2.0,)]) <= 1e-8 * 13.0


def test_all_registry_jacobians_consistent():
    rng = np.random.default_rng(3)
    for m in _registry_instances():
        probes = rng.standard_normal((100, m.dim))
        probes = 3.0 * probes / np.maximum(np.linalg.norm(probes, axis=1, keepdims=True), 1.0)
        assert fd_jacobian_check(m, probes) <= 1e-5, m.name


def test_planar_oracle_companion_inverse_jacobian():
    m = builtin("zampieri-ex5")
    rng = np.random.default_rng(4)
    for _ in range(1000):
        x = rng.uniform(-3, 3, size=2)
        prod = m.jacobian(x) @ zampieri_inv_jac(x)
        assert np.abs(prod - np.eye(2)).max() <= 1e-9


def test_planar_oracle_first_component_positive():
    m = builtin("zampieri-ex5")
    rng = np.random.default_rng(5)
    pts = rng.uniform(-8, 8, size=(10000, 2))
    vals = np.array([m.eval(p)[0] for p in pts])
    assert vals.min() > 0.0


def test_overflow_raises_non_finite():
    m = builtin("exp1d")
    with pytest.raises(NonFiniteError):
        m.eval((1000.0,))


def test_eval_dimension_mismatch():
    m = builtin("zampieri-ex5")
    with pytest.raises(ValueError):
        m.eval((1.0, 2.0, 3.0))


def test_fd_fallback_jacobian():
    m = C1Map("square-shift", 2, lambda x: np.array([x[0] ** 2, x[0] + x[1]]))
    j = m.jacobian((1.5, 0.0))
    np.testing.assert_allclose(j, [[3.0, 0.0], [1.0, 1.0]], atol=1e-8)


def test_rot_poly_determinant_never_small():
    m = builtin("rot-poly2d")
    rng = np.random.default_rng(6)
    for _ in range(200):
        x = rng.uniform(-20, 20, size=2)
        j = m.jacobian(x)
        assert j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0] >= 1.0


def test_list_maps_wire_format():
    entries = list_maps()
    keys = [e["key"] for e in entries]
    assert keys == sorted(keys)
    assert set(keys) == {
        "zampieri-ex5", "arctan1d", "linear", "cubic1d", "exp1d", "rot-poly2d"
    }
    for e in entries:
        assert set(e) == {"key", "dim", "description", "paper_ref"}


def test_perturbed_jacobian_hook():
    m = builtin("zampieri-ex5")
    bad = m.with_perturbed_jacobian(1e-3)
    j0 = m.jacobian((0.3, -0.7))
    j1 = bad.jacobian((0.3, -0.7))
    np.testing.assert_allclose(j1, (1 + 1e-3) * j0, rtol=1e-15)


def test_maps_survive_pickle_round_trip():
    # pooled basin scans ship maps to worker processes by pickle, and the
    # golden basin lines are too small to take the pool: this is the test
    maps = _registry_instances() + [
        builtin("linear", a=np.array([[2.0, 1.0], [0.0, 3.0]])),
        builtin("rot-poly2d", eps=0.3),
        builtin("zampieri-ex5").with_perturbed_jacobian(1e-3),
        builtin("rot-poly2d", eps=0.3).with_perturbed_jacobian(1e-3),
        builtin("linear", a=np.array([[2.0, 1.0], [0.0, 3.0]])).with_perturbed_jacobian(1e-3),
    ]
    for m in maps:
        back = pickle.loads(pickle.dumps(m))
        x = np.linspace(0.3, 0.7, m.dim)
        assert back.name == m.name
        want = np.array(m.float_point(*x.tolist()))
        assert np.array(back.float_point(*x.tolist())).tobytes() == want.tobytes()
        assert back.eval(x).tobytes() == m.eval(x).tobytes()
        assert back.jacobian(x).tobytes() == m.jacobian(x).tobytes()
        assert (back.point is None) == (m.point is None)
        if m.point is not None:
            assert np.array(back.point(*x)).tobytes() == np.array(m.point(*x)).tobytes()
        if m.point is not None and m.dim == 2:
            for got, want in zip(back.rows(x[None]), m.rows(x[None])):
                assert got.tobytes() == want.tobytes()


def test_non_finite_error_survives_pickle_round_trip():
    # a worker's NonFiniteError reaches the scanning process rebuilt from
    # (name, x), with the same message
    exc = NonFiniteError("zampieri-ex5", (800.0, -3.5))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is NonFiniteError
    assert back.name == exc.name and back.x.tobytes() == exc.x.tobytes()
    assert str(back) == str(exc)


# edges of the exponential's argument: non-finite, signed zero, the clip
# point and its neighbours, in both signs (zampieri_radial takes e^{-xi})
_EXP_EDGES = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, _EXP_MAX,
                       np.nextafter(_EXP_MAX, math.inf), np.nextafter(_EXP_MAX, 0.0)])
_EXP_EDGES = np.concatenate((_EXP_EDGES, -_EXP_EDGES))


def _row_points(n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-700.0, 700.0, (n, 2))
    pts[::3] = rng.uniform(-8.0, 8.0, (len(pts[::3]), 2))
    pts[::5, 1] *= 10.0 ** rng.uniform(0.0, 200.0, len(pts[::5]))
    pts[::7, 0] = rng.uniform(709.0, 800.0, len(pts[::7]))   # past math.exp's overflow
    sub = pts[1::11]   # |xi| in 708..745: subnormal e^xi or e^{-xi}
    sub[:, 0] = rng.uniform(708.0, 745.0, len(sub)) * rng.choice((-1.0, 1.0), len(sub))
    pts[2::13, 0] = rng.choice(_EXP_EDGES, len(pts[2::13]))
    pts[3::17, 1] = rng.choice(_EXP_EDGES, len(pts[3::17]))
    return pts


# rot-poly2d's band 5.6e102 < |xi| < 1.3e154, where the cube overflows and
# fn and jac raise, but 3 eps xi^2 is finite
_CUBE_BAND = np.array([(1e120, 1.0), (1.0, -1e120), (1e103, 2.0)])


@pytest.mark.parametrize("m", [
    builtin("zampieri-ex5"),
    builtin("zampieri-ex5").with_perturbed_jacobian(1e-3),
    builtin("rot-poly2d", eps=0.1),
    builtin("rot-poly2d", eps=0.3),
    builtin("rot-poly2d").with_perturbed_jacobian(1e-3),
], ids=["zampieri-ex5", "perturbed", "rot-poly2d-0.1", "rot-poly2d-0.3", "perturbed-rot-poly2d"])
def test_row_forms_equal_scalar_bytes(m):
    pts = np.concatenate((_row_points(4000, seed=41), _CUBE_BAND))
    fy, jy = m.rows(pts)
    assert fy.shape == (len(pts), 2) and jy.shape == (len(pts), 2, 2)
    finite = 0
    for i, x in enumerate(pts):
        for rows, one in ((fy, m.fn), (jy, m.jac)):
            try:
                with np.errstate(over="ignore"):
                    ref = np.asarray(one(x), dtype=float)
            except OverflowError:
                ref = None
            if ref is None or np.isnan(x).any():
                # a row the form cannot compute, or a NaN input: math.exp(nan)
                # is nan where the row form clips it to inf
                assert not np.isfinite(rows[i]).all()
                continue
            assert rows[i].tobytes() == ref.tobytes(), x
            finite += 1
    assert finite > len(pts)
    if m.name == "rot-poly2d":
        for x, f, j in zip(_CUBE_BAND, fy[-len(_CUBE_BAND):], jy[-len(_CUBE_BAND):]):
            assert not np.isfinite(f).all() and not np.isfinite(j).all(), x
            for one in (m.fn, m.jac):
                with pytest.raises(OverflowError):
                    one(x)


def _radial_point(x):
    # zampieri_radial of one point in Python floats: the reference for its rows
    xi, eta = x.tolist()
    t = 1.0 + eta * eta
    e = math.exp(-xi)
    return xi * (e / math.sqrt(t) - 1.0) - eta * eta * e * math.sqrt(t)


def test_radial_rows_equal_the_point_formula():
    pts = _row_points(4000, seed=42)
    pts[::9, 0] = -pts[::9, 0]   # e^{-xi} up to e^{800}, past math.exp's range
    got = zampieri_radial(pts)
    assert got.shape == (len(pts),)
    finite = 0
    for x, v in zip(pts, got):
        try:
            ref = _radial_point(x)
        except OverflowError:
            ref = None
        if ref is None or np.isnan(x).any():
            assert not math.isfinite(v)
            continue
        assert np.float64(v).tobytes() == np.float64(ref).tobytes(), x
        finite += 1
    assert finite > len(pts) // 2


def _exp_rows_per_element(v):
    # the per-element formulation of _exp_rows, the reference for its one pass
    return np.array([math.exp(s) if s <= _EXP_MAX else math.inf for s in v.tolist()])


def _cube_per_element(v):
    # Python's float ** per element, inf of the sign where it overflows: the
    # reference for ROW_OPS.pow
    out = []
    for s in v.tolist():
        try:
            out.append(s ** 3)
        except OverflowError:
            out.append(math.copysign(math.inf, s))
    return np.array(out)


def test_exp_rows_equal_the_per_element_formulation(monkeypatch):
    pts = _row_points(4000, seed=43)
    pts[::9, 0] = -pts[::9, 0]
    edges = np.concatenate((_EXP_EDGES, np.linspace(-745.5, -707.5, 400)))
    assert maps._exp_rows(edges).tobytes() == _exp_rows_per_element(edges).tobytes()
    # the cube's edges: the overflow threshold and its neighbours, the band
    # above, subnormals, non-finite values and magnitudes 1e-320..1e102
    top = np.cbrt(np.finfo(float).max)
    cubes = np.concatenate((_EXP_EDGES, _CUBE_BAND.ravel(),
                            top * (1.0 + np.linspace(-1e-14, 1e-14, 81)),
                            [1e103, 10.0, 5e-324, 2.2e-308, 1e-310],
                            10.0 ** np.random.default_rng(44).uniform(-320.0, 102.0, 4000)))
    cubes = np.concatenate((cubes, -cubes))
    with np.errstate(over="ignore"):
        got, want = ROW_OPS.pow(cubes, 3), _cube_per_element(cubes)
    # float ** keeps the sign of a NaN base, np.float_power drops it
    nan = np.isnan(cubes)
    assert got[~nan].tobytes() == want[~nan].tobytes() and np.isnan(got[nan]).all()
    m = builtin("zampieri-ex5")
    forms = (lambda p: m.rows(p)[0], lambda p: m.rows(p)[1], zampieri_radial)
    got = [form(pts).tobytes() for form in forms]
    monkeypatch.setattr(maps, "_exp_rows", _exp_rows_per_element)
    monkeypatch.setattr(ROW_OPS, "exp", staticmethod(_exp_rows_per_element))
    assert got == [form(pts).tobytes() for form in forms]


def _row_loop(m, block):
    return np.array([m.eval(x) for x in block])


def test_eval_rows_matches_the_row_loop():
    block = np.random.default_rng(42).uniform(-8.0, 8.0, (3000, 2))
    for m in (builtin("zampieri-ex5"), builtin("rot-poly2d")):
        assert m.eval_rows(block).tobytes() == _row_loop(m, block).tobytes()
    cubic = builtin("cubic1d")
    assert cubic.eval_rows(block[:, :1]).tobytes() == _row_loop(cubic, block[:, :1]).tobytes()


def _raised(call):
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


def _exp_pair(xi, eta, ops=FLOAT_OPS):
    # (e^xi, eta): on floats e^800 raises OverflowError, on rows it is inf
    e = ops.exp(xi)
    return e, eta, e, 0.0, 0.0, 1.0


def test_eval_rows_raises_like_the_row_loop():
    # a user point form whose rows overflow through ops.exp at 800 and 900
    m = C1Map("exp-rows", 2, lambda x: np.array(_exp_pair(*x.tolist())[:2]), point=_exp_pair)
    block = np.array([[0.0, 1.0], [1.0, 2.0], [800.0, 3.0], [900.0, 4.0]])
    got = _raised(lambda: m.eval_rows(block))
    assert got == _raised(lambda: _row_loop(m, block))
    assert got == (NonFiniteError, "map 'exp-rows' produced non-finite values at [800.0, 3.0]")
    # past its range zampieri's math.exp raises OverflowError, which eval turns
    # into NonFiniteError, and so does eval_rows
    zamp = builtin("zampieri-ex5")
    block = np.array([[0.0, 1.0], [710.0, 0.0], [800.0, 0.0]])
    assert _raised(lambda: zamp.eval_rows(block)) == _raised(lambda: _row_loop(zamp, block))
    assert _raised(lambda: zamp.eval_rows(block))[0] is NonFiniteError
    # malformed blocks fail as eval fails on their rows
    assert _raised(lambda: zamp.eval_rows(np.ones((2, 3))))[0] is ValueError
    assert _raised(lambda: zamp.eval_rows([[0.0, np.nan]]))[0] is ValueError


def _raised_or_bytes(call):
    try:
        return np.asarray(call(), dtype=float).tobytes()
    except (OverflowError, NonFiniteError, DomainError, ValueError) as exc:
        return type(exc)


# |x| where x^3 overflows, in both signs and on both sides of cbrt(max)
_CUBE_TOP = float(np.cbrt(np.finfo(float).max))
_CUBE_EDGES = np.array([5.6e102, 5.7e102, np.nextafter(_CUBE_TOP, 0.0), _CUBE_TOP,
                        np.nextafter(_CUBE_TOP, math.inf), 1e120, 1e155])
_CUBE_EDGES = np.concatenate((_CUBE_EDGES, -_CUBE_EDGES))

# Each map with a point form, with the points where its formula is at an
# edge: exp1d's cut at 709 and math.exp's range, arctan1d's overflowing
# x^2, the cube's overflow.  exp1d and arctan1d raise nowhere.
_POINT_MAPS = [
    (builtin("zampieri-ex5"), ()),
    (builtin("rot-poly2d", eps=0.1), ()),
    (builtin("rot-poly2d", eps=0.3), ()),
    (builtin("cubic1d"), _CUBE_EDGES),
    (builtin("exp1d"), (708.99, 709.0, 709.78, 710.0, -800.0)),
    (builtin("arctan1d"), (1e155, -1e155)),
]
_POINT_IDS = ["zampieri-ex5", "rot-poly2d-0.1", "rot-poly2d-0.3", "cubic1d", "exp1d", "arctan1d"]


def _assert_point_is_fn_and_jac(m, edges):
    # the point-form contract: f and f' of fn and jac, bit for bit, raising
    # where they raise (e^xi past its range, x**3 past 1.8e308); a 1-D map
    # takes each coordinate of the planar points as a point
    pts = np.concatenate((_row_points(4000, seed=41).reshape(-1, m.dim),
                          np.reshape(edges, (-1, m.dim))))
    raised = 0
    for x in pts:
        got = _raised_or_bytes(lambda: m.point(*x.tolist()))
        with np.errstate(all="ignore"):   # a perturbation scaling inf or past max
            want = [_raised_or_bytes(lambda: m.fn(x)), _raised_or_bytes(lambda: m.jac(x))]
        if got is OverflowError:
            assert want == [OverflowError, OverflowError], x
            raised += 1
        else:
            assert got == b"".join(want), x
    assert raised < len(pts) // 2
    assert (raised > 0) == (m.name not in ("exp1d", "arctan1d"))


@pytest.mark.parametrize("m, edges", _POINT_MAPS, ids=_POINT_IDS)
def test_point_form_equals_fn_and_jac_bytes(m, edges):
    _assert_point_is_fn_and_jac(m, edges)


@pytest.mark.parametrize("eps", [1e-3, -1.0])
@pytest.mark.parametrize("m, edges", _POINT_MAPS, ids=_POINT_IDS)
def test_perturbed_maps_scale_the_point_form(m, edges, eps):
    # a perturbed map keeps its point form, with f' scaled as jac is in
    # either dimension, so the flow steps with the perturbed f'
    _assert_point_is_fn_and_jac(m.with_perturbed_jacobian(eps), edges)


def test_line_point_forms_at_their_edges():
    exp = builtin("exp1d")
    assert exp.point(708.99) == (math.exp(708.99),) * 2
    assert exp.point(-800.0) == (0.0, 0.0)
    for x in (709.0, 709.78, 710.0):   # past the cut, e^x is inf, never raised
        assert exp.point(x) == (math.inf, math.inf)
        for evaluate in (exp.eval, exp.jacobian):
            with pytest.raises(NonFiniteError):
                evaluate((x,))
    arctan = builtin("arctan1d")
    for x in (1e155, -1e155):   # x^2 overflows: f' is 0.0, and finite
        assert arctan.point(x) == (math.copysign(math.pi / 2, x), 0.0)
        assert arctan.jacobian((x,)).tolist() == [[0.0]]
    cubic = builtin("cubic1d")
    for x in (5.6e102, -5.6e102):
        f, a = cubic.point(x)
        assert math.isfinite(f) and cubic.jacobian((x,)).tolist() == [[a]]
    for x in (5.7e102, -5.7e102, 1e120):
        # the cube overflows: fn and jac raise OverflowError, though 3x^2 is
        # finite, and eval and jacobian raise NonFiniteError
        for raw in (cubic.fn, cubic.jac):
            with pytest.raises(OverflowError):
                raw(np.array((x,)))
        for evaluate in (cubic.eval, cubic.jacobian):
            with pytest.raises(NonFiniteError):
                evaluate((x,))


def _holed(x):
    """x + x^3/10 per component, undefined on the band 0.45 < x[0] < 0.55."""
    if 0.45 < x[0] < 0.55:
        raise DomainError("in the hole")
    return x + 0.1 * x**3


def test_maps_without_a_point_form():
    zamp, cubic = builtin("zampieri-ex5"), builtin("cubic1d")
    assert C1Map("user", 2, zamp.fn, zamp.jac).point is None
    assert C1Map("user", 1, cubic.fn, cubic.jac).point is None
    assert all(builtin("linear", dim=n).point is None for n in (1, 2, 3))

    # float_point is a built-in's own point form, and for a map without one
    # fn and then jac_or_fd at the point, bit for bit, raising where they
    # raise, in any dimension
    for m in _registry_instances():
        assert m.float_point is m.point or m.name == "linear"
    holed = [C1Map("holed", n, _holed, lambda x: np.diag(1.0 + 0.3 * x**2)) for n in (1, 2, 3)]
    pointless = [
        (C1Map("user", 1, cubic.fn, cubic.jac), _CUBE_EDGES),
        (C1Map("user", 2, zamp.fn, zamp.jac), ()),
        (C1Map("fd", 2, builtin("rot-poly2d").fn), _CUBE_BAND),  # finite differences
        (builtin("linear", a=[[2.0, 1.0, 0.0], [0.0, 3.0, 1.0], [1.0, 0.0, 4.0]]), ()),
    ] + [(m, [0.5] * m.dim + [0.4] * m.dim) for m in holed]
    coords = _row_points(600, seed=44).ravel()
    for m, edges in pointless:
        assert m.float_point.func is maps._fn_jac_point
        pts = np.concatenate((coords[:len(coords) // m.dim * m.dim], np.ravel(edges)))
        raised = set()
        for x in pts.reshape(-1, m.dim):
            with np.errstate(all="ignore"):
                got = _raised_or_bytes(lambda: m.float_point(*x.tolist()))
                want = _raised_or_bytes(lambda: (*m.fn(x), *m.jac_or_fd(x).ravel()))
            assert got == want, (m.name, x)
            if isinstance(got, type):
                raised.add(got)
        # finite differences refuse a non-finite point with ValueError
        assert raised == {"holed": {DomainError}, "linear": set(),
                          "fd": {OverflowError, ValueError}}.get(m.name, {OverflowError}), m.name
