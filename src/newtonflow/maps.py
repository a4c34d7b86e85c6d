"""C1 maps f: R^n -> R^n with analytic or finite-difference Jacobians.

A C1Map bundles an evaluator, an optional closed-form Jacobian and optional
row forms of both.  The oracle map zampieri-ex5 also has closed forms of its
inverse Jacobian, its Newton field toward f(0) and the radial product
x . F(x), as the plain functions zampieri_inv_jac, zampieri_field and
zampieri_radial, which the test batteries compare the numerical pipeline
against.

The registry is one table of entries; each builds its map from plain
module-level evaluators, bound to their parameters (a matrix, a
coefficient) with functools.partial, never closures, so maps pickle
cleanly into worker processes during basin scans.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from .linalg import as_vector

# Central-difference step: cbrt(eps) balances truncation against rounding
# for a C^3 evaluator.
FD_REL_STEP = float(np.cbrt(np.finfo(float).eps))


class DomainError(Exception):
    """The map is not defined at the requested point."""


class NonFiniteError(Exception):
    """Evaluation overflowed or produced NaN."""

    def __init__(self, name: str, x):
        self.name = name
        self.x = np.asarray(x, dtype=float)
        super().__init__(f"map {name!r} produced non-finite values at {self.x.tolist()}")

    def __reduce__(self):
        # rebuilt from (name, x), not from the message, when a scan's worker
        # process hands it back
        return type(self), (self.name, self.x)


class UnknownMapError(KeyError):
    """Registry lookup failed."""


@dataclass(frozen=True)
class C1Map:
    """An evaluatable C1 map with Jacobian access.

    ``jac`` is the closed-form Jacobian; when None, ``jacobian`` falls back
    to central finite differences with per-coordinate steps
    h_i = FD_REL_STEP * max(1, |x_i|).

    ``fn_rows`` and ``jac_rows`` are optional row forms of ``fn`` and
    ``jac`` for sampled checks: they take an (N, dim) block of points and
    return (N, dim) values and (N, dim, dim) Jacobians.  Row i must equal
    ``fn(X[i])`` / ``jac(X[i])`` bit for bit wherever that is finite; a row
    the form cannot compute comes back non-finite, and such rows go through
    ``fn`` / ``jac`` one by one.  A row form never raises for that; an
    exception it raises propagates like one from any other evaluator.  A map
    without them is evaluated row by row.
    """

    name: str
    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    fn_rows: Optional[Callable[[np.ndarray], np.ndarray]] = None
    jac_rows: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def _checked(self, fn, x) -> np.ndarray:
        """fn at the validated x.  An OverflowError in fn or a non-finite
        value raises NonFiniteError, which names the map and the point."""
        x = as_vector(x, self.dim)
        try:
            y = np.asarray(fn(x), dtype=float)
        except OverflowError:
            raise NonFiniteError(self.name, x) from None
        if not np.all(np.isfinite(y)):
            raise NonFiniteError(self.name, x)
        return y

    def eval(self, x) -> np.ndarray:
        return self._checked(self.fn, x)

    def eval_rows(self, block) -> np.ndarray:
        """``eval`` of every row of an (N, dim) block, as one (N, dim) array.

        Uses ``fn_rows`` when the map has one.  Without it, or when it yields
        a non-finite value, the rows go through ``eval`` one by one, so the
        error raised is that of the first bad row.
        """
        block = np.asarray(block, dtype=float)
        rows_fit = block.ndim == 2 and block.shape[1] == self.dim
        if self.fn_rows is not None and rows_fit and np.isfinite(block).all():
            y = np.asarray(self.fn_rows(block), dtype=float)
            if np.isfinite(y).all():
                return y
        return np.array([self.eval(x) for x in block]).reshape(len(block), self.dim)

    @property
    def jac_or_fd(self) -> Callable[[np.ndarray], np.ndarray]:
        """``jac``, or central finite differences for a map without one."""
        return self.jac if self.jac is not None else self._fd_jacobian

    def jacobian(self, x) -> np.ndarray:
        return self._checked(self.jac_or_fd, x)

    def _fd_jacobian(self, x: np.ndarray) -> np.ndarray:
        n = self.dim
        j = np.empty((n, n))
        for i in range(n):
            h = FD_REL_STEP * max(1.0, abs(x[i]))
            xp = x.copy()
            xm = x.copy()
            xp[i] += h
            xm[i] -= h
            j[:, i] = (self.eval(xp) - self.eval(xm)) / (2.0 * h)
        return j

    def with_perturbed_jacobian(self, eps: float) -> "C1Map":
        """Fault-injection hook: scale the analytic Jacobian by (1 + eps)."""
        if self.jac is None:
            raise ValueError("map has no analytic Jacobian to perturb")
        jac_rows = None if self.jac_rows is None else partial(_scaled_jac, self.jac_rows, 1.0 + eps)
        return replace(self, jac=partial(_scaled_jac, self.jac, 1.0 + eps), jac_rows=jac_rows)


def _scaled_jac(jac, factor, x):
    return factor * np.asarray(jac(x), dtype=float)


def fd_jacobian_check(m: C1Map, probes) -> float:
    """Max over probes of ||J_analytic - J_fd||_inf / (1 + ||J_analytic||_inf)."""
    if m.jac is None:
        raise ValueError("map has no analytic Jacobian to check")
    worst = 0.0
    for x in probes:
        x = as_vector(x, m.dim)
        ja = m.jacobian(x)
        jf = m._fd_jacobian(x)
        na = float(np.abs(ja).sum(axis=1).max())
        nd = float(np.abs(ja - jf).sum(axis=1).max())
        worst = max(worst, nd / (1.0 + na))
    return worst


# --- built-in maps ---------------------------------------------------------
#
# zampieri-ex5 is the planar map
#     f(xi, eta) = e^xi / sqrt(1 + eta^2) * (1, eta),
# a local diffeomorphism of R^2 that is injective but not onto (its first
# component is positive).  Its inverse Jacobian, Newton field and radial
# product below are closed forms, which makes it the toolkit's main
# end-to-end oracle.


# fn and jac run in the flow's hot loop: unpacking with tolist() gives Python
# floats, whose arithmetic matches numpy scalars bit for bit at a fraction of
# the cost.
def _zampieri_fn(x):
    xi, eta = x.tolist()
    c = math.exp(xi) / math.sqrt(1.0 + eta * eta)
    return np.array((c, c * eta))


def _zampieri_jac(x):
    xi, eta = x.tolist()
    t = 1.0 + eta * eta
    c = math.exp(xi) / (t * math.sqrt(t))
    return np.array(((c * t, -c * eta), (c * eta * t, c)))


# The row forms repeat the scalar expressions elementwise.  The exponential is
# math.exp per element, because np.exp differs from it in the last bit on some
# inputs; where math.exp overflows (and raises) the row gets inf instead.
_EXP_MAX = math.log(np.finfo(float).max)


def _exp_rows(v):
    return np.array([math.exp(s) if s <= _EXP_MAX else math.inf for s in v.tolist()])


def _zampieri_fn_rows(x):
    xi, eta = x[:, 0], x[:, 1]
    with np.errstate(all="ignore"):
        c = _exp_rows(xi) / np.sqrt(1.0 + eta * eta)
        return np.stack((c, c * eta), axis=1)


def _zampieri_jac_rows(x):
    xi, eta = x[:, 0], x[:, 1]
    j = np.empty((len(x), 2, 2))
    with np.errstate(all="ignore"):
        t = 1.0 + eta * eta
        c = _exp_rows(xi) / (t * np.sqrt(t))
        j[:, 0, 0] = c * t
        j[:, 0, 1] = -c * eta
        j[:, 1, 0] = c * eta * t
        j[:, 1, 1] = c
    return j


def zampieri_inv_jac(x):
    """zampieri-ex5's inverse Jacobian f'(x)^{-1}."""
    xi, eta = x
    t = 1.0 + eta * eta
    c = math.exp(-xi) / math.sqrt(t)
    return np.array(((c, c * eta), (-c * eta * t, c * t)))


def zampieri_field(x):
    """zampieri-ex5's Newton field -f'(x)^{-1} (f(x) - f(0)), with f(0) = (1, 0)."""
    xi, eta = x
    t = 1.0 + eta * eta
    c = math.exp(-xi) / math.sqrt(t)
    return np.array((c - 1.0, -c * eta * t))


def zampieri_radial(x):
    """The radial product x . zampieri_field(x)."""
    xi, eta = x
    t = 1.0 + eta * eta
    e = math.exp(-xi)
    return xi * (e / math.sqrt(t) - 1.0) - eta * eta * e * math.sqrt(t)


def _arctan_fn(x):
    return np.array((math.atan(x[0]),))


def _arctan_jac(x):
    return np.array(((1.0 / (1.0 + x[0] * x[0]),),))


def _cubic_fn(x):
    return np.array((x[0] + x[0] ** 3,))


def _cubic_jac(x):
    return np.array(((1.0 + 3.0 * x[0] * x[0],),))


def _exp_fn(x):
    return np.array((math.exp(x[0]) if x[0] < 709.0 else math.inf,))


def _exp_jac(x):
    return _exp_fn(x).reshape(1, 1)


def _linear_fn(a, x):
    return a @ x


def _linear_jac(a, x):
    return a


def _rot_poly_fn(eps, x):
    """Quarter-turn rotation plus a small odd cubic: (-eta + e*xi^3, xi + e*eta^3)."""
    xi, eta = x.tolist()
    return np.array((-eta + eps * xi**3, xi + eps * eta**3))


def _rot_poly_jac(eps, x):
    xi, eta = x.tolist()
    # det = 1 + 9 e^2 xi^2 eta^2 >= 1: never singular.
    return np.array(((3.0 * eps * xi * xi, -1.0), (1.0, 3.0 * eps * eta * eta)))


def _build_linear(dim=None, a=None):
    if a is None:
        if dim is None:
            raise ValueError("linear map needs a matrix or a dimension")
        a = np.eye(dim)
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("linear map matrix must be square")
    if dim is not None and a.shape[0] != dim:
        raise ValueError("matrix size disagrees with dim")
    return C1Map("linear", a.shape[0], partial(_linear_fn, a), partial(_linear_jac, a))


def _build_rot_poly(eps=0.1):
    if not 0.0 < eps < math.inf:  # NaN fails too
        raise ValueError("eps must be positive and finite")
    return C1Map("rot-poly2d", 2, partial(_rot_poly_fn, eps), partial(_rot_poly_jac, eps))


@dataclass(frozen=True)
class MapRegistryEntry:
    key: str
    dim: Optional[int]  # None: dimension chosen at build time
    description: str
    paper_ref: str
    builder: Callable[..., C1Map]


_REGISTRY: dict[str, MapRegistryEntry] = {e.key: e for e in (
    MapRegistryEntry(
        "zampieri-ex5", 2,
        "planar map e^xi/sqrt(1+eta^2) * (1, eta): injective local diffeomorphism "
        "of R^2, not surjective (first component positive); ships closed-form "
        "inverse Jacobian, Newton field and radial product as oracles",
        "Zampieri (1992), nonsurjective planar example",
        lambda: C1Map("zampieri-ex5", 2, _zampieri_fn, _zampieri_jac,
                      fn_rows=_zampieri_fn_rows, jac_rows=_zampieri_jac_rows),
    ),
    MapRegistryEntry(
        "arctan1d", 1,
        "x -> arctan x: injective onto (-pi/2, pi/2); inverse-derivative growth "
        "1 + x^2 defeats the Hadamard-Levy integral condition",
        "classic bounded counterexample for surjectivity criteria",
        lambda: C1Map("arctan1d", 1, _arctan_fn, _arctan_jac),
    ),
    MapRegistryEntry(
        "linear", None,
        "x -> A x for an invertible matrix A (identity by default)",
        "trivial case of the affine growth bound on ||f'(x)^{-1}||",
        _build_linear,
    ),
    MapRegistryEntry(
        "cubic1d", 1,
        "x -> x + x^3: global diffeomorphism of R with f' = 1 + 3x^2 >= 1",
        "monotone scalar benchmark with a bisection-checkable inverse",
        lambda: C1Map("cubic1d", 1, _cubic_fn, _cubic_jac),
    ),
    MapRegistryEntry(
        "exp1d", 1,
        "x -> e^x: injective, not surjective; targets <= 0 make the Newton flow "
        "blow up",
        "blow-up detection benchmark",
        lambda: C1Map("exp1d", 1, _exp_fn, _exp_jac),
    ),
    MapRegistryEntry(
        "rot-poly2d", 2,
        "quarter-turn rotation plus small odd cubic: coercive planar "
        "diffeomorphism onto R^2 (det f' = 1 + 9 eps^2 xi^2 eta^2 >= 1)",
        "coercivity-based bijectivity benchmark",
        _build_rot_poly,
    ),
)}


def builtin(key: str, dim: int | None = None, **params) -> C1Map:
    """Build a registry map.  Unknown keys raise UnknownMapError, a ``dim``
    other than a fixed-dimension map's raises ValueError and a parameter the
    map does not take raises TypeError."""
    try:
        entry = _REGISTRY[key]
    except KeyError:
        raise UnknownMapError(key) from None
    if entry.dim is None:
        params["dim"] = dim
    elif dim is not None and dim != entry.dim:
        raise ValueError(f"map {key!r} has dimension {entry.dim}, not {dim}")
    taken = inspect.signature(entry.builder).parameters
    for name in params:
        if name not in taken:
            raise TypeError(f"map {key!r} does not take {name!r}")
    return entry.builder(**params)


def registry_entries() -> list[MapRegistryEntry]:
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def list_maps() -> list[dict]:
    """One dict per registry entry, the `list-maps` wire format."""
    fields = ("key", "dim", "description", "paper_ref")
    return [{name: getattr(e, name) for name in fields} for e in registry_entries()]
