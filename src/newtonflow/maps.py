"""C1 maps f: R^n -> R^n with analytic or finite-difference Jacobians.

A C1Map bundles an evaluator, an optional closed-form Jacobian and, for the
oracle maps, closed-form companions (inverse Jacobian, Newton field toward
f(0), and the radial product x . F(x)) that the test batteries compare the
numerical pipeline against.

The registry ships a fixed set of maps.  Evaluators are module-level
callables, never closures, so maps pickle cleanly into worker processes
during basin scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
        self.x = np.asarray(x, dtype=float)
        super().__init__(f"map {name!r} produced non-finite values at {self.x.tolist()}")


class UnknownMapError(KeyError):
    """Registry lookup failed."""


@dataclass(frozen=True)
class C1Map:
    """An evaluatable C1 map with Jacobian access.

    ``jac`` is the closed-form Jacobian; when None, ``jacobian`` falls back
    to central finite differences with per-coordinate steps
    h_i = FD_REL_STEP * max(1, |x_i|).

    The companion fields are closed-form quantities available only for
    oracle maps; they are never used by the solver pipeline itself:

    - ``inv_jac(x)``      inverse Jacobian f'(x)^{-1}
    - ``field_origin(x)`` Newton field -f'(x)^{-1}(f(x) - f(0))
    - ``radial_origin(x)`` the scalar x . field_origin(x)
    """

    name: str
    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    inv_jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    field_origin: Optional[Callable[[np.ndarray], np.ndarray]] = None
    radial_origin: Optional[Callable[[np.ndarray], float]] = None

    def eval(self, x) -> np.ndarray:
        x = as_vector(x, self.dim)
        y = np.asarray(self.fn(x), dtype=float)
        if not np.all(np.isfinite(y)):
            raise NonFiniteError(self.name, x)
        return y

    def jacobian(self, x) -> np.ndarray:
        x = as_vector(x, self.dim)
        if self.jac is not None:
            j = np.asarray(self.jac(x), dtype=float)
        else:
            j = self._fd_jacobian(x)
        if not np.all(np.isfinite(j)):
            raise NonFiniteError(self.name, x)
        return j

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
        """Fault-injection hook: scale the analytic Jacobian by (1 + eps).

        Companions are left untouched on purpose: they are the oracles a
        perturbed pipeline is supposed to disagree with.
        """
        if self.jac is None:
            raise ValueError("map has no analytic Jacobian to perturb")
        return replace(self, jac=_PerturbedJac(self.jac, eps))


class _PerturbedJac:
    def __init__(self, jac, eps):
        self.jac = jac
        self.eps = eps

    def __call__(self, x):
        return (1.0 + self.eps) * np.asarray(self.jac(x), dtype=float)


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
# component is positive).  All of its companion quantities below are closed
# forms, which makes it the toolkit's main end-to-end oracle.


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


def _zampieri_inv_jac(x):
    xi, eta = x
    t = 1.0 + eta * eta
    c = math.exp(-xi) / math.sqrt(t)
    return np.array(((c, c * eta), (-c * eta * t, c * t)))


def _zampieri_field(x):
    # -f'(x)^{-1} (f(x) - f(0)), with f(0) = (1, 0)
    xi, eta = x
    t = 1.0 + eta * eta
    c = math.exp(-xi) / math.sqrt(t)
    return np.array((c - 1.0, -c * eta * t))


def _zampieri_radial(x):
    xi, eta = x
    t = 1.0 + eta * eta
    e = math.exp(-xi)
    return xi * (e / math.sqrt(t) - 1.0) - eta * eta * e * math.sqrt(t)


def _arctan_fn(x):
    return np.array((math.atan(x[0]),))


def _arctan_jac(x):
    return np.array(((1.0 / (1.0 + x[0] * x[0]),),))


def _arctan_inv_jac(x):
    return np.array(((1.0 + x[0] * x[0],),))


def _cubic_fn(x):
    return np.array((x[0] + x[0] ** 3,))


def _cubic_jac(x):
    return np.array(((1.0 + 3.0 * x[0] * x[0],),))


def _exp_fn(x):
    return np.array((math.exp(x[0]) if x[0] < 709.0 else math.inf,))


def _exp_jac(x):
    return np.array(((math.exp(x[0]) if x[0] < 709.0 else math.inf,),))


class _LinearEval:
    def __init__(self, a: np.ndarray):
        self.a = a

    def __call__(self, x):
        return self.a @ x


class _LinearJac:
    def __init__(self, a: np.ndarray):
        self.a = a

    def __call__(self, x):
        return self.a


class _RotPolyFn:
    """Quarter-turn rotation plus a small odd cubic: (-eta + e*xi^3, xi + e*eta^3)."""

    def __init__(self, eps: float):
        self.eps = eps

    def __call__(self, x):
        xi, eta = x
        e = self.eps
        return np.array((-eta + e * xi**3, xi + e * eta**3))


class _RotPolyJac:
    def __init__(self, eps: float):
        self.eps = eps

    def __call__(self, x):
        xi, eta = x
        e = self.eps
        # det = 1 + 9 e^2 xi^2 eta^2 >= 1: never singular.
        return np.array(((3.0 * e * xi * xi, -1.0), (1.0, 3.0 * e * eta * eta)))


@dataclass(frozen=True)
class MapRegistryEntry:
    key: str
    dim: Optional[int]  # None: dimension chosen at build time
    description: str
    paper_ref: str
    builder: Callable[..., C1Map]


def _build_zampieri(dim=2, **params):
    if dim != 2:
        raise ValueError("zampieri-ex5 is a planar map (dim 2)")
    return C1Map(
        name="zampieri-ex5",
        dim=2,
        fn=_zampieri_fn,
        jac=_zampieri_jac,
        inv_jac=_zampieri_inv_jac,
        field_origin=_zampieri_field,
        radial_origin=_zampieri_radial,
    )


def _build_arctan(dim=1, **params):
    if dim != 1:
        raise ValueError("arctan1d is one-dimensional")
    return C1Map("arctan1d", 1, _arctan_fn, _arctan_jac, inv_jac=_arctan_inv_jac)


def _build_cubic(dim=1, **params):
    if dim != 1:
        raise ValueError("cubic1d is one-dimensional")
    return C1Map("cubic1d", 1, _cubic_fn, _cubic_jac)


def _build_exp(dim=1, **params):
    if dim != 1:
        raise ValueError("exp1d is one-dimensional")
    return C1Map("exp1d", 1, _exp_fn, _exp_jac)


def _build_linear(dim=None, a=None, **params):
    if a is None:
        if dim is None:
            raise ValueError("linear map needs a matrix or a dimension")
        a = np.eye(dim)
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("linear map matrix must be square")
    if dim is not None and a.shape[0] != dim:
        raise ValueError("matrix size disagrees with dim")
    return C1Map("linear", a.shape[0], _LinearEval(a), _LinearJac(a))


def _build_rot_poly(dim=2, eps=0.1, **params):
    if dim != 2:
        raise ValueError("rot-poly2d is a planar map (dim 2)")
    if eps <= 0:
        raise ValueError("eps must be positive")
    return C1Map("rot-poly2d", 2, _RotPolyFn(eps), _RotPolyJac(eps))


_REGISTRY: dict[str, MapRegistryEntry] = {}


def _register(entry: MapRegistryEntry):
    if entry.key in _REGISTRY:
        raise ValueError(f"duplicate registry key {entry.key!r}")
    _REGISTRY[entry.key] = entry


_register(MapRegistryEntry(
    "zampieri-ex5", 2,
    "planar map e^xi/sqrt(1+eta^2) * (1, eta): injective local diffeomorphism "
    "of R^2, not surjective (first component positive); ships closed-form "
    "inverse Jacobian, Newton field and radial product as oracles",
    "Zampieri (1992), nonsurjective planar example",
    _build_zampieri,
))
_register(MapRegistryEntry(
    "arctan1d", 1,
    "x -> arctan x: injective onto (-pi/2, pi/2); inverse-derivative growth "
    "1 + x^2 defeats the Hadamard-Levy integral condition",
    "classic bounded counterexample for surjectivity criteria",
    _build_arctan,
))
_register(MapRegistryEntry(
    "linear", None,
    "x -> A x for an invertible matrix A (identity by default)",
    "trivial case of the affine growth bound on ||f'(x)^{-1}||",
    _build_linear,
))
_register(MapRegistryEntry(
    "cubic1d", 1,
    "x -> x + x^3: global diffeomorphism of R with f' = 1 + 3x^2 >= 1",
    "monotone scalar benchmark with a bisection-checkable inverse",
    _build_cubic,
))
_register(MapRegistryEntry(
    "exp1d", 1,
    "x -> e^x: injective, not surjective; targets <= 0 make the Newton flow "
    "blow up",
    "blow-up detection benchmark",
    _build_exp,
))
_register(MapRegistryEntry(
    "rot-poly2d", 2,
    "quarter-turn rotation plus small odd cubic: coercive planar "
    "diffeomorphism onto R^2 (det f' = 1 + 9 eps^2 xi^2 eta^2 >= 1)",
    "coercivity-based bijectivity benchmark",
    _build_rot_poly,
))


def builtin(key: str, dim: int | None = None, **params) -> C1Map:
    """Build a registry map.  Unknown keys raise UnknownMapError."""
    try:
        entry = _REGISTRY[key]
    except KeyError:
        raise UnknownMapError(key) from None
    if dim is None:
        dim = entry.dim
    return entry.builder(dim=dim, **params)


def registry_entries() -> list[MapRegistryEntry]:
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def list_maps() -> list[dict]:
    """One dict per registry entry, the `list-maps` wire format."""
    return [
        {
            "key": e.key,
            "dim": e.dim,
            "description": e.description,
            "paper_ref": e.paper_ref,
        }
        for e in registry_entries()
    ]
