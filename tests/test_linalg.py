import numpy as np
import pytest

from newtonflow.linalg import (
    SingularError,
    _solve_raw,
    _solve_rows,
    inverse_norm,
    operator_norm,
    solve_dense,
    spectral_extremes,
)
from newtonflow.maps import builtin


def _well_conditioned(rng, n, cond=1e3):
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.logspace(0.0, -np.log10(cond), n)
    return q1 @ np.diag(s) @ q2


def _charpoly_sigma_min(a):
    """Brute-force sigma_min for n <= 3: roots of the characteristic
    polynomial of A^T A, assembled by hand (independent of any SVD code)."""
    b = np.asarray(a, dtype=float)
    b = b.T @ b
    n = b.shape[0]
    if n == 1:
        coeffs = [1.0, -b[0, 0]]
    elif n == 2:
        coeffs = [1.0, -(b[0, 0] + b[1, 1]), b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]]
    elif n == 3:
        tr = b[0, 0] + b[1, 1] + b[2, 2]
        m01 = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
        m02 = b[0, 0] * b[2, 2] - b[0, 2] * b[2, 0]
        m12 = b[1, 1] * b[2, 2] - b[1, 2] * b[2, 1]
        d = (
            b[0, 0] * (b[1, 1] * b[2, 2] - b[1, 2] * b[2, 1])
            - b[0, 1] * (b[1, 0] * b[2, 2] - b[1, 2] * b[2, 0])
            + b[0, 2] * (b[1, 0] * b[2, 1] - b[1, 1] * b[2, 0])
        )
        coeffs = [1.0, -tr, m01 + m02 + m12, -d]
    else:
        raise ValueError("brute force limited to n <= 3")
    roots = np.roots(coeffs)
    return float(np.sqrt(max(np.min(roots.real), 0.0)))


def test_planar_oracle_jacobian_at_origin_is_identity():
    m = builtin("zampieri-ex5")
    j = m.jacobian((0.0, 0.0))
    np.testing.assert_allclose(j, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(solve_dense(j, (1.0, 0.0)), (1.0, 0.0), atol=1e-15)


def test_solve_identity_returns_rhs():
    b = np.array([1.0, -2.0, 3.0, 0.5])
    np.testing.assert_array_equal(solve_dense(np.eye(4), b), b)


def test_solve_recovers_constructed_solution():
    rng = np.random.default_rng(7)
    a = _well_conditioned(rng, 5)
    x0 = rng.standard_normal(5)
    b = a @ x0
    x = solve_dense(a, b)
    assert np.linalg.norm(x - x0) <= 1e-10 * np.linalg.norm(x0)


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_dense(np.eye(3), np.ones(2))


def test_inverse_norm_identity_and_diagonal():
    assert inverse_norm(np.eye(3)) == pytest.approx(1.0)
    assert inverse_norm(np.diag([2.0, 0.5])) == pytest.approx(2.0)


def test_inverse_norm_arctan_derivative():
    # d/dx arctan = 1/(1+x^2); at x=3 the inverse derivative is 10
    x = 3.0
    a = np.array([[1.0 / (1.0 + x * x)]])
    assert inverse_norm(a) == pytest.approx(10.0, rel=1e-12)


def test_solve_matvec_round_trip_at_cond_1e6():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        a = _well_conditioned(rng, n, cond=1e6)
        x = rng.standard_normal(n)
        got = solve_dense(a, a @ x)
        assert np.linalg.norm(got - x) <= 1e-9 * np.linalg.norm(x)


def test_inverse_norm_against_charpoly_oracle():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 4))
        a = _well_conditioned(rng, n, cond=100.0)
        sigma_min = _charpoly_sigma_min(a)
        assert inverse_norm(a) * sigma_min == pytest.approx(1.0, rel=1e-7)


def test_inverse_norm_lower_bound():
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a = _well_conditioned(rng, n, cond=1e4)
        assert inverse_norm(a) >= 1.0 / operator_norm(a) - 1e-12


def test_singular_matrix_raises_with_column():
    # the error carries the extreme singular values instead of a pivot column
    with pytest.raises(SingularError) as ei:
        solve_dense(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))
    assert ei.value.sigma_max == pytest.approx(5.0)
    assert ei.value.sigma_min == 0.0
    with pytest.raises(SingularError):
        solve_dense(np.zeros((3, 3)), np.ones(3))
    with pytest.raises(SingularError):
        inverse_norm(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_non_finite_input_rejected():
    with pytest.raises(ValueError):
        solve_dense(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(ValueError):
        solve_dense(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.ones(2))


def test_spectral_extremes_small_dims_match_svd():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3, 5):
        for _ in range(50):
            a = rng.standard_normal((n, n))
            smax, smin = spectral_extremes(a)
            s = np.linalg.svd(a, compute_uv=False)
            assert smax == pytest.approx(float(s[0]), rel=1e-10, abs=1e-12)
            assert smin == pytest.approx(float(s[-1]), rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("a", [
    [[1e160, 0.0], [0.0, 1e160]],
    [[1e-170, 0.0], [0.0, 1e-170]],
    [[1e100, 1e100], [0.0, 1e100]],
    [[3e-200, -1e-200], [2e-200, 5e-200]],
    [[1e300, 2e299], [-4e299, 7e299]],
])
def test_spectral_extremes_scale_safe(a):
    # squares of these entries overflow or underflow: only a relative error counts
    a = np.array(a)
    smax, smin = spectral_extremes(a)
    s = np.linalg.svd(a, compute_uv=False)
    assert smax == pytest.approx(float(s[0]), rel=1e-12, abs=0.0)
    assert smin == pytest.approx(float(s[-1]), rel=1e-10, abs=0.0)
    assert inverse_norm(a) == pytest.approx(1.0 / float(s[-1]), rel=1e-10, abs=0.0)


def test_solve_dense_at_extreme_scale():
    x = solve_dense(np.diag([1e160, 1e160]), np.array([1.0, -2.0]))
    assert x.tolist() == [1e-160, -2e-160]
    with pytest.raises(SingularError):
        solve_dense(np.zeros((2, 2)), np.ones(2))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_condition_limit_rule(n):
    # the one singularity rule: singular unless sigma_max <= 1e13 * sigma_min
    rng = np.random.default_rng(100 + n)
    a = _well_conditioned(rng, n, cond=1e12)
    x = rng.standard_normal(n)
    assert np.all(np.isfinite(solve_dense(a, a @ x)))
    assert np.isfinite(inverse_norm(a))
    a = _well_conditioned(rng, n, cond=1e14)
    with pytest.raises(SingularError):
        solve_dense(a, np.ones(n))
    with pytest.raises(SingularError):
        inverse_norm(a)


def _solve_rows_cases():
    """2x2 systems for the row solve: random at scales 10^-200..10^200,
    rank-one, zero, and with non-finite entries in A or b."""
    rng = np.random.default_rng(21)
    n = 3000
    scale = 10.0 ** rng.uniform(-200.0, 200.0, n)
    a = rng.standard_normal((n, 2, 2)) * scale[:, None, None]
    b = rng.standard_normal((n, 2)) * 10.0 ** rng.uniform(-200.0, 200.0, (n, 1))
    a[:200] = np.einsum("ni,nj->nij", rng.standard_normal((200, 2)),
                        rng.standard_normal((200, 2))) * scale[:200, None, None]
    a[200:210] = 0.0
    bad = (np.nan, np.inf, -np.inf)
    for i in range(210, 240):
        a[i].flat[i % 4] = bad[i % 3]
    for i in range(240, 260):
        b[i, i % 2] = bad[i % 3]
    a[260:1260] /= scale[260:1260, None, None]   # unit scale, mostly well conditioned
    return a, b


def test_solve_rows_matches_scalar_solve():
    a, b = _solve_rows_cases()
    x, ok = _solve_rows(a, b)
    for i in range(len(a)):
        try:
            ref = _solve_raw(a[i], b[i])
        except (SingularError, ArithmeticError):
            ref = None
        (a00, a01), (a10, a11) = a[i].tolist()
        fro2 = a00 * a00 + a01 * a01 + a10 * a10 + a11 * a11
        vouched = (ref is not None and np.isfinite(a[i]).all() and np.isfinite(b[i]).all()
                   and 1e-150 < fro2 < 1e150 and np.isfinite(ref).all())
        assert ok[i] == vouched, (i, a[i], b[i])
        if ok[i]:
            assert x[i].tobytes() == ref.tobytes(), (i, a[i], b[i])
    # every kind of row is present: the bit-equal block path and all its exits
    assert 1000 <= ok.sum() < len(a) - 300
