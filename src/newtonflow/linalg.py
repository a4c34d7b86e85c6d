"""Dense linear algebra kernels: the singularity rule, solves, spectral norms.

Everything here operates on numpy arrays and Python floats.  Matrices are
square, real and dense.  Dimensions 1 and 2 get closed-form fast paths on
Python floats, because the Newton-flow integrator calls these kernels
thousands of times per trajectory; larger matrices go through numpy's LAPACK
bindings.
"""

from __future__ import annotations

import math

import numpy as np

# The one singularity rule: A counts as singular unless sigma_min > 0 and
# sigma_max <= COND_LIMIT * sigma_min.  The flow field -f'(x)^{-1}(f(x) - y*)
# is meaningless beyond it, and a garbage solve would poison every downstream
# certificate.  Why 1e13 and not 1e14: flow statuses and step counts were
# calibrated against a relative pivot tolerance of 1e-13, which for 2x2
# matrices amounts to roughly 1/cond, and 1e13 reproduces them.  At 1e14 the
# unreachable zampieri-ex5 run from (1, 1) toward (-1, 0) would go on from
# 753 to 812 steps before stopping.
COND_LIMIT = 1e13


class SingularError(Exception):
    """The matrix is singular to working precision under the COND_LIMIT rule.

    Carries the extreme singular values so callers can report how the
    Jacobian degenerated.
    """

    def __init__(self, sigma_max: float, sigma_min: float):
        self.sigma_max = sigma_max
        self.sigma_min = sigma_min
        super().__init__(
            f"singular matrix: sigma_max = {sigma_max:.3e}, sigma_min = {sigma_min:.3e} "
            f"(condition limit {COND_LIMIT:.0e})"
        )


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float array, optionally checking its length."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        v = np.atleast_1d(v.squeeze())
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {np.shape(x)}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise ValueError("vector has non-finite entries")
    return v


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite square 2-D float array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


# Rules of the scalar 2x2 path that the row path shares: written with + - * /,
# abs, comparisons and & only, each runs on Python floats and elementwise on
# arrays alike, so the two paths agree bit for bit by construction.


def _regular(smax, smin):
    """The singularity rule: True where the matrix counts as regular."""
    return (smin > 0.0) & (smax <= COND_LIMIT * smin)


def _in_band(fro2):
    """True where the squared Frobenius norm lets _extremes2 run unscaled."""
    return (fro2 > 1e-150) & (fro2 < 1e150)


def _pivot_swaps(a00, a10):
    """Row pivoting: True where the second row has the larger first entry."""
    return abs(a10) > abs(a00)


def _eliminate(a00, a01, a10, a11, b0, b1):
    """(x0, x1) solving [[a00, a01], [a10, a11]] x = (b0, b1) by one
    elimination step with the first row as pivot row."""
    l10 = a10 / a00
    u11 = a11 - l10 * a01
    x1 = (b1 - l10 * b0) / u11
    return (b0 - a01 * x1) / a00, x1


def _extremes2(a00: float, a01: float, a10: float, a11: float) -> tuple[float, float]:
    """(sigma_max, sigma_min) of the 2x2 matrix [[a00, a01], [a10, a11]].

    sigma_min = |det| / sigma_max avoids the cancellation that the direct
    formula sqrt((f - sqrt(f^2 - 4 det^2))/2) suffers near singularity.
    Squares of entries above ~1e154 overflow and below ~1e-154 underflow,
    so outside a safe band the entries are first scaled by an exact power
    of two; inside it the formula runs on the entries as they are.
    """
    fro2 = a00 * a00 + a01 * a01 + a10 * a10 + a11 * a11
    if not _in_band(fro2):
        big = max(abs(a00), abs(a01), abs(a10), abs(a11))
        if 0.0 < big < math.inf and not math.isnan(fro2):
            e = -math.frexp(big)[1]
            smax, smin = _extremes2(math.ldexp(a00, e), math.ldexp(a01, e),
                                    math.ldexp(a10, e), math.ldexp(a11, e))
            return math.ldexp(smax, -e), math.ldexp(smin, -e)
    d = a00 * a11 - a01 * a10
    disc = fro2 * fro2 - 4.0 * d * d
    smax = math.sqrt(0.5 * (fro2 + math.sqrt(disc if disc > 0.0 else 0.0)))
    smin = abs(d) / smax if smax > 0.0 else 0.0
    return smax, smin


def _extremes_raw(a: np.ndarray) -> tuple[float, float]:
    """(sigma_max, sigma_min) without input validation."""
    n = a.shape[0]
    if n == 1:
        s = abs(float(a[0, 0]))
        return s, s
    if n == 2:
        (a00, a01), (a10, a11) = a.tolist()
        return _extremes2(a00, a01, a10, a11)
    if not np.all(np.isfinite(a)):
        return math.nan, math.nan  # fails the rule, like NaN in the closed forms
    s = np.linalg.svd(a, compute_uv=False)
    return float(s[0]), float(s[-1])


def _regular_extremes(a: np.ndarray) -> tuple[float, float]:
    """(sigma_max, sigma_min), raising SingularError when the rule fails."""
    smax, smin = _extremes_raw(a)
    if not _regular(smax, smin):
        raise SingularError(smax, smin)
    return smax, smin


def _solve2(a00: float, a01: float, a10: float, a11: float,
            b0: float, b1: float) -> tuple[float, float]:
    """(x0, x1) solving [[a00, a01], [a10, a11]] x = (b0, b1), all Python floats.

    The 2x2 solve of every scalar path: the singularity rule on _extremes2
    of the four entries (SingularError when it fails), then one row-pivoted
    elimination step.  Python float arithmetic gives the same IEEE results
    as numpy scalars, with no intermediate array.

    Most matrices pass the rule by a margin that needs no singular values:
    in the band where _extremes2 runs unscaled, with its determinant d,
    sigma_max^2 <= ||A||_F^2, so ||A||_F^2 <= 1e12 |d| gives cond =
    sigma_max^2 / |d| <= 1e12, ten times inside COND_LIMIT, which rounding
    cannot cross.  Such a matrix is regular under the full rule too, so the
    pre-test changes no decision and no value.
    """
    fro2 = a00 * a00 + a01 * a01 + a10 * a10 + a11 * a11
    if not (_in_band(fro2) and fro2 <= 1e12 * abs(a00 * a11 - a01 * a10)):
        smax, smin = _extremes2(a00, a01, a10, a11)
        if not _regular(smax, smin):
            raise SingularError(smax, smin)
    if _pivot_swaps(a00, a10):
        return _eliminate(a10, a11, a00, a01, b1, b0)
    return _eliminate(a00, a01, a10, a11, b0, b1)


def _solve1(a00: float, b0: float) -> tuple[float]:
    """(x0,) solving a00 x0 = b0, all Python floats: the 1x1 solve of every
    scalar path, the singularity rule on |a00| (SingularError when it fails),
    then one division."""
    s = abs(a00)
    if not _regular(s, s):
        raise SingularError(s, s)
    return (b0 / a00,)


def _solve_raw(a: np.ndarray, b: list[float]) -> tuple[float, ...] | np.ndarray:
    """Solve A x = b without input validation, for hot loops.

    ``b`` is the right-hand side as Python floats (``ndarray.tolist()``).
    Applies the singularity rule first.  Dimensions 1 and 2 run in Python
    float arithmetic and return x as a tuple of floats; a 1x1 or 2x2 system
    is _solve1 or _solve2 of its entries.  Larger systems go through LAPACK
    and return an array.
    """
    n = a.shape[0]
    if n == 2:
        (a00, a01), (a10, a11) = a.tolist()
        b0, b1 = b
        return _solve2(a00, a01, a10, a11, b0, b1)
    if n == 1:
        return _solve1(a.item(), b[0])
    _regular_extremes(a)
    return np.linalg.solve(a, b)


def _solve_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the 2x2 systems a[i] x[i] = b[i] of an (N, 2, 2) and an (N, 2) block.

    Returns (x, ok).  Where ok[i] holds, x[i] equals
    ``_solve_raw(a[i], b[i].tolist())`` bit for bit: it is _extremes2
    unscaled, then _regular, _pivot_swaps and _eliminate of _solve2,
    applied elementwise.  ok[i] is False, and x[i] meaningless, when the
    rule fails, when the squared entries leave the band in which _extremes2
    runs unscaled, or when an input or the result is non-finite (where this
    path divides by zero, the scalar one raises ZeroDivisionError); the
    caller takes such rows through the scalar path.
    """
    a00, a01, a10, a11 = a[:, 0, 0], a[:, 0, 1], a[:, 1, 0], a[:, 1, 1]
    b0, b1 = b[:, 0], b[:, 1]
    with np.errstate(all="ignore"):
        fro2 = a00 * a00 + a01 * a01 + a10 * a10 + a11 * a11
        d = a00 * a11 - a01 * a10
        disc = fro2 * fro2 - 4.0 * d * d
        smax = np.sqrt(0.5 * (fro2 + np.sqrt(np.where(disc > 0.0, disc, 0.0))))
        smin = np.abs(d) / smax
        ok = _in_band(fro2) & _regular(smax, smin) & np.isfinite(b).all(axis=1)
        rows = np.where(_pivot_swaps(a00, a10),
                        (a10, a11, a00, a01, b1, b0), (a00, a01, a10, a11, b0, b1))
        x = np.stack(_eliminate(*rows), axis=1)
    ok &= np.isfinite(x).all(axis=1)
    return x, ok


def solve_dense(a, b) -> np.ndarray:
    """Solve A x = b for a square A, raising SingularError under the rule."""
    a = as_matrix(a)
    return np.asarray(_solve_raw(a, as_vector(b, a.shape[0]).tolist()))


def spectral_extremes(a) -> tuple[float, float]:
    """(sigma_max, sigma_min): the extreme singular values of a square matrix."""
    return _extremes_raw(as_matrix(a))


def inverse_norm(a) -> float:
    """Spectral norm of the inverse, ||A^{-1}||_2 = 1 / sigma_min(A).

    Raises SingularError under the COND_LIMIT rule rather than returning a
    huge finite value for a numerically singular matrix.
    """
    return 1.0 / _regular_extremes(as_matrix(a))[1]
