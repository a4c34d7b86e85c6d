"""C1 maps f: R^n -> R^n with analytic or finite-difference Jacobians.

A C1Map bundles an evaluator, an optional closed-form Jacobian and, for
n <= 2, an optional point form of the pair, which runs on floats and, for a
planar map, on rows.  Every map, in every dimension, has a float form,
``float_point``: its point form, or one built from the evaluator and the
Jacobian (or finite differences); the flow evaluates its stages through it.
The oracle map zampieri-ex5 also has closed forms of its inverse Jacobian,
its Newton field toward f(0) and the radial product x . F(x), as the plain
functions zampieri_inv_jac, zampieri_field and zampieri_radial, which the
test batteries compare the numerical pipeline against.

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


# The exponential on rows is math.exp: np.exp differs from it in the last bit
# on 4.6% of inputs (numpy 2.4.6, AVX-512).  map() runs it over the row in one
# C-level pass; the row is clipped to _EXP_MAX first, so math.exp never raises,
# and rows above it or NaN get inf, as math.exp's overflow would.
_EXP_MAX = math.log(np.finfo(float).max)


def _exp_rows(v):
    e = np.fromiter(map(math.exp, np.minimum(v, _EXP_MAX).tolist()), float, len(v))
    e[~(v <= _EXP_MAX)] = math.inf
    return e


# A point form's functions on floats and on rows, as class attributes (a lookup
# costs what math.exp's does).  A row op equals its float op bit for bit where
# that is finite, else gives inf or NaN; np.power would not round like **.
# Only planar forms run on rows, so ROW_OPS has no atan.
class FLOAT_OPS:
    exp, sqrt, pow, atan = math.exp, math.sqrt, pow, math.atan


class ROW_OPS:
    exp, sqrt, pow = staticmethod(_exp_rows), np.sqrt, np.float_power


@dataclass(frozen=True)
class C1Map:
    """An evaluatable C1 map with Jacobian access.

    ``jac`` is the closed-form Jacobian; when None, ``jacobian`` falls back
    to central finite differences with per-coordinate steps
    h_i = FD_REL_STEP * max(1, |x_i|).

    ``point`` is an optional point form of a map with n <= 2: f and f' from
    one call, using only arithmetic and the functions of ``ops``.
    ``point(x, ops=FLOAT_OPS)`` returns (f0, a00) at n = 1, and
    ``point(xi, eta, ops=FLOAT_OPS)`` returns (f0, f1, a00, a01, a10, a11) at
    n = 2.  On floats it equals ``fn`` and ``jac`` bit for bit and raises
    where they raise; the Newton polish takes f and f' from one call to it
    per point (a map without one, f from ``eval`` and f' from ``jacobian``
    only where a step needs it).  A planar one with
    ROW_OPS on a block's columns gives ``rows`` and ``eval_rows``.  A map
    whose ``fn`` or ``jac`` is replaced must replace or drop it.

    ``float_point`` is the same call for every map and every n: ``point``
    where the map has one, else ``fn`` and then ``jac_or_fd`` at the point.
    ``integrate`` evaluates every stage through it.
    """

    name: str
    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    point: Optional[Callable[..., tuple]] = None

    def _checked(self, fn, x) -> np.ndarray:
        """fn at the validated x.  An OverflowError in fn or a non-finite
        value raises NonFiniteError, which names the map and the point."""
        x = as_vector(x, self.dim)
        try:
            y = np.asarray(fn(x), dtype=float)
        except OverflowError:
            raise NonFiniteError(self.name, x) from None
        if not np.isfinite(y).all():
            raise NonFiniteError(self.name, x)
        return y

    def eval(self, x) -> np.ndarray:
        return self._checked(self.fn, x)

    def eval_rows(self, block) -> np.ndarray:
        """``eval`` of every row of an (N, dim) block, as one (N, dim) array:
        f of ``rows`` where all of it is finite, else ``eval`` row by row, so
        the error raised is that of the first bad row."""
        block = np.asarray(block, dtype=float)
        rows_fit = block.ndim == 2 and block.shape[1] == self.dim
        if self.point is not None and self.dim == 2 and rows_fit and np.isfinite(block).all():
            y = self._point_rows(block)[0]
            if np.isfinite(y).all():
                return y
        return np.array([self.eval(x) for x in block]).reshape(len(block), self.dim)

    def rows(self, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(f, f') of an (N, 2) block, (N, 2) and (N, 2, 2), from one ``point``
        call: row i is ``fn``/``jac`` at block[i] where they return finite
        values, and non-finite in both where they raise (a finite f' row is
        set to NaN: past rot-poly2d's cube overflow, 3 eps xi^2 is finite)."""
        f, (a00, a01, a10, a11) = self._point_rows(block)
        j = np.empty((len(f), 2, 2))
        j[:, 0, 0], j[:, 0, 1], j[:, 1, 0], j[:, 1, 1] = a00, a01, a10, a11
        bad = ~np.isfinite(f).all(axis=1)
        if bad.any():
            j[bad & np.isfinite(j).all(axis=(1, 2))] = math.nan
        return f, j

    def _point_rows(self, block: np.ndarray) -> tuple[np.ndarray, list]:
        """f as an (N, 2) array and the four f' columns, from ``point``."""
        with np.errstate(all="ignore"):
            f0, f1, *jac = self.point(block[:, 0], block[:, 1], ROW_OPS)
        f = np.empty((len(block), 2))
        f[:, 0], f[:, 1] = f0, f1
        return f, jac

    @property
    def float_point(self) -> Callable[..., tuple]:
        """``point``, or the point form built from ``fn`` and ``jac_or_fd``:
        f and f' at (x_0, ..., x_{n-1}) as one tuple of n + n^2 floats."""
        if self.point is not None:
            return self.point
        return partial(_fn_jac_point, self.fn, self.jac_or_fd)

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
        """Fault-injection hook: scale the analytic Jacobian, and the point
        form's f', by (1 + eps)."""
        if self.jac is None:
            raise ValueError("map has no analytic Jacobian to perturb")
        factor = 1.0 + eps
        point = (None if self.point is None
                 else partial(_scaled_point, self.point, factor, self.dim))
        return replace(self, jac=partial(_scaled_jac, self.jac, factor), point=point)


def _scaled_jac(jac, factor, x):
    return factor * np.asarray(jac(x), dtype=float)


def _scaled_point(point, factor, dim, *args, **kwargs):
    # f, then f' scaled: its trailing dim^2 entries
    values = point(*args, **kwargs)
    return (*values[:dim], *(factor * a for a in values[dim:]))


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


# A built-in of dimension 1 or 2 states its formula once, as a point form;
# Python floats round like numpy's ufuncs, so a planar one has the same bits
# on floats and on rows.  Its fn and jac are the two adapters below, bound to
# it with partial; _fn_jac_point is the reverse, float_point's form of a map
# without one.
def _point_fn(point, x):
    return np.array(point(*x.tolist())[:len(x)])


def _point_jac(point, x):
    n = len(x)
    return np.array(point(*x.tolist())[n:]).reshape(n, n)


def _fn_jac_point(fn, jac, *y) -> tuple:
    """f and f' at y from ``fn`` and then ``jac``, as floats."""
    x = np.array(y)
    return (*np.asarray(fn(x), dtype=float).tolist(),
            *np.asarray(jac(x), dtype=float).ravel().tolist())


def _formed(name, dim, form):
    return C1Map(name, dim, partial(_point_fn, form), partial(_point_jac, form), point=form)


def _zampieri(xi, eta, ops=FLOAT_OPS):
    """f = c (1, eta) and f' = cj [[t, -eta], [eta t, 1]], with t = 1 + eta^2,
    c = e^xi / sqrt(t) and cj = e^xi / (t sqrt(t)), sharing e^xi and sqrt(t)."""
    t = 1.0 + eta * eta
    s = ops.sqrt(t)
    e = ops.exp(xi)
    c = e / s
    cj = e / (t * s)
    return c, c * eta, cj * t, -cj * eta, cj * eta * t, cj


# The oracles are closed forms of their own, not built on _zampieri: the tests
# check the pipeline against them, which would be circular otherwise.
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
    """The radial product x . zampieri_field(x) of each row of an (N, 2) block,
    bit-equal to the closed form in Python floats (np.sqrt rounds like math.sqrt)."""
    xi, eta = x[:, 0], x[:, 1]
    with np.errstate(all="ignore"):
        t = 1.0 + eta * eta
        e = _exp_rows(-xi)
        return xi * (e / np.sqrt(t) - 1.0) - eta * eta * e * np.sqrt(t)


def _arctan(x, ops=FLOAT_OPS):
    """f = arctan x and f' = 1 / (1 + x^2), which is 0.0 where x^2 overflows
    (|x| > 1.3e154)."""
    return ops.atan(x), 1.0 / (1.0 + x * x)


def _cubic(x, ops=FLOAT_OPS):
    """f = x + x^3 and f' = 1 + 3 x^2 >= 1.  A float cube raises OverflowError
    past |x| ~ 5.6e102, so there jac raises too, as fn does."""
    return x + ops.pow(x, 3), 1.0 + 3.0 * x * x


def _exp(x, ops=FLOAT_OPS):
    """f = f' = e^x, cut to inf from x = 709 on (and at NaN)."""
    e = ops.exp(x) if x < 709.0 else math.inf
    return e, e


def _linear_fn(a, x):
    return a @ x


def _linear_jac(a, x):
    return a


def _rot_poly(eps, xi, eta, ops=FLOAT_OPS):
    """Quarter-turn rotation plus a small odd cubic: f = (-eta + e*xi^3,
    xi + e*eta^3) and f' = [[3e xi^2, -1], [1, 3e eta^2]], whose determinant
    1 + 9 e^2 xi^2 eta^2 >= 1 is never singular.  A float cube raises
    OverflowError past |xi| ~ 5.6e102, so there jac raises too, as fn does."""
    return (-eta + eps * ops.pow(xi, 3), xi + eps * ops.pow(eta, 3),
            3.0 * eps * xi * xi, -1.0, 1.0, 3.0 * eps * eta * eta)


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
    return _formed("rot-poly2d", 2, partial(_rot_poly, eps))


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
        lambda: _formed("zampieri-ex5", 2, _zampieri),
    ),
    MapRegistryEntry(
        "arctan1d", 1,
        "x -> arctan x: injective onto (-pi/2, pi/2); inverse-derivative growth "
        "1 + x^2 defeats the Hadamard-Levy integral condition",
        "classic bounded counterexample for surjectivity criteria",
        lambda: _formed("arctan1d", 1, _arctan),
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
        lambda: _formed("cubic1d", 1, _cubic),
    ),
    MapRegistryEntry(
        "exp1d", 1,
        "x -> e^x: injective, not surjective; targets <= 0 make the Newton flow "
        "blow up",
        "blow-up detection benchmark",
        lambda: _formed("exp1d", 1, _exp),
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
