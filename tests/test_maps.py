import math
import pickle

import numpy as np
import pytest

from newtonflow.maps import (
    C1Map,
    NonFiniteError,
    UnknownMapError,
    builtin,
    fd_jacobian_check,
    list_maps,
    registry_entries,
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
        prod = m.jacobian(x) @ m.inv_jac(x)
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
    # companions untouched: they remain valid oracles
    assert bad.inv_jac is m.inv_jac


def test_maps_survive_pickle_round_trip():
    # basin scans ship maps to worker processes by pickle
    maps = _registry_instances() + [
        builtin("rot-poly2d", eps=0.3),
        builtin("zampieri-ex5").with_perturbed_jacobian(1e-3),
    ]
    for m in maps:
        back = pickle.loads(pickle.dumps(m))
        x = np.linspace(0.3, 0.7, m.dim)
        assert back.name == m.name
        assert back.eval(x).tobytes() == m.eval(x).tobytes()
        assert back.jacobian(x).tobytes() == m.jacobian(x).tobytes()
        if m.jac_rows is not None:
            assert back.fn_rows(x[None]).tobytes() == m.fn_rows(x[None]).tobytes()
            assert back.jac_rows(x[None]).tobytes() == m.jac_rows(x[None]).tobytes()


def _row_points(n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-700.0, 700.0, (n, 2))
    pts[::3] = rng.uniform(-8.0, 8.0, (len(pts[::3]), 2))
    pts[::5, 1] *= 10.0 ** rng.uniform(0.0, 200.0, len(pts[::5]))
    pts[::7, 0] = rng.uniform(709.0, 800.0, len(pts[::7]))   # past math.exp's overflow
    return pts


@pytest.mark.parametrize("m", [
    builtin("zampieri-ex5"),
    builtin("zampieri-ex5").with_perturbed_jacobian(1e-3),
], ids=["zampieri-ex5", "perturbed"])
def test_row_forms_equal_scalar_bytes(m):
    pts = _row_points(4000, seed=41)
    fy, jy = m.fn_rows(pts), m.jac_rows(pts)
    assert fy.shape == (len(pts), 2) and jy.shape == (len(pts), 2, 2)
    finite = 0
    for i, x in enumerate(pts):
        for rows, one in ((fy, m.fn), (jy, m.jac)):
            try:
                ref = one(x)
            except OverflowError:
                assert not np.isfinite(rows[i]).all()   # a row the form cannot compute
                continue
            assert rows[i].tobytes() == np.asarray(ref, dtype=float).tobytes(), x
            finite += 1
    assert finite > len(pts)


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


def test_eval_rows_raises_like_the_row_loop():
    # np.exp in both forms, so the rows are bit-equal: 800 and 900 overflow
    m = C1Map("exp-rows", 1, lambda x: np.exp(x), fn_rows=lambda xs: np.exp(xs))
    block = np.array([[0.0], [1.0], [800.0], [900.0]])
    with np.errstate(over="ignore"):
        got = _raised(lambda: m.eval_rows(block))
        assert got == _raised(lambda: _row_loop(m, block))
    assert got == (NonFiniteError, "map 'exp-rows' produced non-finite values at [800.0]")
    # past its range zampieri's math.exp raises OverflowError, and so does eval_rows
    zamp = builtin("zampieri-ex5")
    block = np.array([[0.0, 1.0], [710.0, 0.0], [800.0, 0.0]])
    assert _raised(lambda: zamp.eval_rows(block)) == _raised(lambda: _row_loop(zamp, block))
    assert _raised(lambda: zamp.eval_rows(block))[0] is OverflowError
    # malformed blocks fail as eval fails on their rows
    assert _raised(lambda: zamp.eval_rows(np.ones((2, 3))))[0] is ValueError
    assert _raised(lambda: zamp.eval_rows([[0.0, np.nan]]))[0] is ValueError
