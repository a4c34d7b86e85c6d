"""Numerical certificates for injectivity/bijectivity of local diffeomorphisms.

Each check estimates one hypothesis of a global inversion criterion on a
structured sample set and returns a Certificate.  Suprema over all of R^n are
not decidable by sampling, so verdicts are graded:

- ``satisfied``    no violation found, and the growth statistics look stable;
- ``violated``     a concrete witness point (or a decreasing coercivity
                   profile / convergent growth integral) falsifies the
                   hypothesis;
- ``inconclusive`` not enough evidence either way.

The auxiliary scalar functions k are the common ingredient: nonnegative,
coercive, locally Lipschitz, with right directional derivatives D+_v k.
Three families are built in:

- ``aux_log_h``        log of a/b + ||x - x1||^2 + c/(b-2) ||f(x)-f(x0)||^2
- ``aux_hadamard``     integral of 1/omega along ||x||, smoothed near 0
- ``aux_log_coercive`` log(1 + ||f(x)||^2)
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import linalg
# newton_field stays importable from here: the benchmark's traced run spans
# certify.newton_field
from .flow import SAMPLE_ERRORS, newton_field, newton_fields  # noqa: F401
from .linalg import SingularError, as_vector
from .maps import C1Map

POINT_SLACK = 1e-9            # numeric slack for pointwise inequalities
TREND_GROWTH_MARGIN = 0.05    # relative sup growth between inner/outer shells
FLATTEN_RATIO = 0.05          # late/early increment ratio that flags saturation
SMOOTHING_RADIUS = 1.0        # quadratic cap radius for aux_hadamard
_DOUBLING_RADII = tuple(float(2**j) for j in range(11))  # growth-evidence radii
_EVIDENCE_SAMPLES = 64        # samples per sphere of coercivity_evidence


class Verdict(str, Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return [float(x) for x in v]
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


@dataclass(frozen=True)
class Certificate:
    """Structured verdict of one criterion check."""

    criterion: str
    verdict: Verdict
    extremal_value: Optional[float]
    witness: Optional[np.ndarray]
    threshold: Optional[float]
    samples_used: int
    samples_skipped_singular: int
    seed: Optional[int]
    stats: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return _jsonable({**asdict(self), "verdict": self.verdict.value})


# --- samplers ---------------------------------------------------------------


@dataclass(frozen=True)
class GridSampler:
    """Regular grid over an axis-aligned box: ((lo, hi), ...) per axis."""

    box: tuple
    resolution: tuple | int

    seed = None

    def points(self, dim: int) -> np.ndarray:
        box = self.box
        if len(box) != dim:
            raise ValueError(f"box has {len(box)} axes, map has dim {dim}")
        res = self.resolution
        if isinstance(res, int):
            res = (res,) * dim
        if any(r < 1 for r in res):
            raise ValueError("resolution must be >= 1 per axis")
        axes = [np.linspace(lo, hi, r) for (lo, hi), r in zip(box, res)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=1)


def _unit_directions(rng, count: int, dim: int) -> np.ndarray:
    """``count`` seeded uniform unit vectors in R^dim, one per row."""
    d = rng.standard_normal((count, dim))
    d /= np.maximum(np.linalg.norm(d, axis=1, keepdims=True), 1e-300)
    return d


def _check_draw(radius: float, count: int) -> None:
    """The rule of every ball and sphere draw: a positive, finite radius and
    at least one sample."""
    if not 0.0 < radius < math.inf:  # NaN fails too
        raise ValueError(f"radius must be positive and finite, got {radius}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")


@dataclass(frozen=True)
class _RadialSampler:
    radius: float
    count: int
    seed: int = 0

    def __post_init__(self):
        _check_draw(self.radius, self.count)


def _ball(rng, dim: int, radius: float, count: int) -> np.ndarray:
    """``count`` uniform points in the ball ||x|| <= radius, one per row."""
    _check_draw(radius, count)
    d = _unit_directions(rng, count, dim)
    return d * (radius * rng.random(count) ** (1.0 / dim))[:, None]


def _sphere(rng, dim: int, radius: float, count: int) -> np.ndarray:
    """``count`` uniform points on the sphere ||x|| = radius (in 1-D, random signs)."""
    _check_draw(radius, count)
    return radius * _unit_directions(rng, count, dim)


class BallSampler(_RadialSampler):
    """Uniform samples in the ball ||x|| <= radius, reproducible by seed."""

    def points(self, dim: int) -> np.ndarray:
        return _ball(np.random.default_rng(self.seed), dim, self.radius, self.count)


class SphereSampler(_RadialSampler):
    """Uniform samples on the sphere ||x|| = radius, reproducible by seed."""

    def points(self, dim: int) -> np.ndarray:
        return _sphere(np.random.default_rng(self.seed), dim, self.radius, self.count)


def _quad_inverse(omega, lo: float, hi: float, limit: int) -> float:
    """Integral of 1/omega over [lo, hi] by adaptive quadrature.

    scipy is imported here, on first use, so that importing the package and
    every check that does not integrate 1/omega need only numpy.
    """
    from scipy.integrate import quad

    return quad(lambda s: 1.0 / omega(s), lo, hi, limit=limit)[0]


# --- auxiliary coercive functions -------------------------------------------


@dataclass(frozen=True)
class AuxFunction:
    """Nonnegative coercive scalar function with right directional derivatives.

    ``k`` evaluates the function; ``dplus_closed``, when present, is the
    closed-form D+_v k(x, v).  Without it, `dplus` falls back to a one-sided
    difference refined once by Richardson extrapolation.
    """

    kind: str
    k: Callable[[np.ndarray], float]
    dplus_closed: Optional[Callable[[np.ndarray, np.ndarray], float]] = None
    meta: dict = field(default_factory=dict)


def dplus(aux: AuxFunction, x, v) -> float:
    """Right directional derivative D+_v k(x)."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if not np.any(v):
        raise ValueError("direction must be nonzero")
    if aux.dplus_closed is not None:
        return float(aux.dplus_closed(x, v))
    # hypot scales internally, so a tiny nonzero v keeps a nonzero norm
    s = 1e-6 * (1.0 + float(np.linalg.norm(x))) / math.hypot(*v)
    k0 = aux.k(x)
    d1 = (aux.k(x + s * v) - k0) / s
    d2 = (aux.k(x + 0.5 * s * v) - k0) / (0.5 * s)
    return float(2.0 * d2 - d1)


def _check_constants(*constants) -> None:
    # written so that NaN fails too
    if not all(0.0 <= v < math.inf for v in constants):
        raise ValueError("constants must be finite and nonnegative")


def aux_log_h(a: float, b: float, c: float, x0, x1, m: C1Map) -> AuxFunction:
    """ln(a/b + ||x-x1||^2 + c/(b-2) ||f(x)-f(x0)||^2), constants normalized.

    When (a, b) does not already satisfy a >= b > 2, the pair is replaced by
    (a+b+3, b+3); the replacement preserves the quadratic-growth inequality
    the function is paired with while making b - 2 positive.
    """
    _check_constants(a, b, c)
    a0, b0 = a, b
    normalized = not (a >= b > 2.0)
    if normalized:
        a, b = a + b + 3.0, b + 3.0
    gamma = c / (b - 2.0)
    x0 = as_vector(x0, m.dim)
    x1 = as_vector(x1, m.dim)
    f0 = m.eval(x0)
    base = a / b

    def h(x):
        """(x - x1, f(x) - f(x0) or None when c == 0, the argument of ln)."""
        d = x - x1
        hv = base + float(d @ d)
        if c == 0.0:
            return d, None, hv
        df = m.eval(x) - f0
        hv += gamma * float(df @ df)
        return d, df, hv

    def k(x):
        return math.log(h(x)[2])

    def dp(x, v):
        d, df, hv = h(x)
        num = 2.0 * float(d @ v)
        if df is not None:
            num += 2.0 * gamma * float(df @ (m.jacobian(x) @ v))
        return num / hv

    return AuxFunction(
        kind="log-h",
        k=k,
        dplus_closed=dp,
        meta={
            "a": a, "b": b, "c": c, "gamma": gamma,
            "normalized": normalized, "a_original": a0, "b_original": b0,
        },
    )


def aux_hadamard(omega: Callable[[float], float]) -> AuxFunction:
    """Integral of 1/omega from 0 to ||x||, with a quadratic cap inside
    ||x|| <= rho0 = SMOOTHING_RADIUS.

    The cap (value and slope matched at rho0) removes the kink of ||x|| at the
    origin so the function is C^1 everywhere.  ``omega`` must be positive and
    continuous on [0, inf).
    """
    rho0 = SMOOTHING_RADIUS
    for s in (0.0, 0.5 * rho0, rho0, 5.0, 100.0):
        w = float(omega(s))
        if not (w > 0.0) or not math.isfinite(w):
            raise ValueError(f"omega must be positive and finite (omega({s}) = {w})")

    def _integral(lo, hi):
        val = _quad_inverse(omega, lo, hi, 200)
        if not math.isfinite(val):
            raise ValueError("quadrature failure in aux_hadamard")
        return val

    i0 = _integral(0.0, rho0)
    c2 = 1.0 / (2.0 * rho0 * float(omega(rho0)))
    c0 = i0 - c2 * rho0 * rho0

    def k(x):
        rho = float(np.linalg.norm(x))
        if rho <= rho0:
            return c0 + c2 * rho * rho
        return i0 + _integral(rho0, rho)

    def dp(x, v):
        rho = float(np.linalg.norm(x))
        if rho == 0.0:
            return 0.0
        xv = float(np.asarray(x) @ np.asarray(v))
        if rho <= rho0:
            return 2.0 * c2 * xv
        return xv / (rho * float(omega(rho)))

    return AuxFunction(
        kind="hadamard", k=k, dplus_closed=dp,
        meta={"rho0": rho0, "c0": c0, "c2": c2, "omega": omega},
    )


def aux_log_coercive(m: C1Map) -> AuxFunction:
    """ln(1 + ||f(x)||^2): coercive exactly when f is."""

    def k(x):
        fx = m.eval(x)
        return math.log1p(float(fx @ fx))

    def dp(x, v):
        fx = m.eval(x)
        jv = m.jacobian(x) @ v
        return 2.0 * float(fx @ jv) / (1.0 + float(fx @ fx))

    return AuxFunction(kind="log-coercive", k=k, dplus_closed=dp, meta={"map": m.name})


def _value_or_inf(value, x) -> float:
    """value(x) with a sample error or a non-finite result mapped to +inf
    (coercivity scans reach huge radii)."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            v = float(value(x))
        except SAMPLE_ERRORS:
            return math.inf
    return v if math.isfinite(v) else math.inf


def _sphere_minima(value, dim: int, radii, count: int, rng) -> tuple[list, list]:
    """Minimum of ``value`` and its first argmin on each nested sphere ||x|| = r.

    ``value`` maps a point to a float; it counts as +inf where _value_or_inf
    says so.  The scan stops at the first sphere with no finite value, so
    fewer minima than radii mean failure.
    """
    minima, witnesses = [], []
    for r in radii:
        pts = _sphere(rng, dim, r, count)
        vals = np.array([_value_or_inf(value, p) for p in pts])
        if not np.isfinite(vals).any():
            break
        i = int(vals.argmin())
        minima.append(float(vals[i]))
        witnesses.append(pts[i])
    return minima, witnesses


def _flattening(increments: np.ndarray) -> bool:
    """Late growth increments collapsed against the early ones, as for a bounded profile."""
    early = float(increments[:3].max())
    late = float(increments[-3:].max())
    return late <= FLATTEN_RATIO * max(early, 0.0) or late <= 1e-12


def coercivity_evidence(aux: AuxFunction, dim: int, seed: int | np.random.Generator = 0
                        ) -> tuple[str, Optional[np.ndarray], dict]:
    """Probe k(x) -> inf as ||x|| -> inf on the nested spheres of radii
    _DOUBLING_RADII, _EVIDENCE_SAMPLES samples each from default_rng(seed).

    Returns (status, witness, details) with status one of:
    ``ok``          sphere minima grow without saturating;
    ``decreasing``  a larger sphere has a smaller minimum (witness attached);
    ``flattening``  growth increments collapse, as for a bounded k;
    ``undecided``   spheres had no finite samples.
    """
    radii = list(_DOUBLING_RADII)
    mins, witnesses = _sphere_minima(aux.k, dim, radii, _EVIDENCE_SAMPLES,
                                     np.random.default_rng(seed))
    if len(mins) < len(radii):
        return "undecided", None, {"radii": radii, "minima": None}
    mins_arr = np.array(mins)
    diffs = np.diff(mins_arr)
    details = {"radii": radii, "minima": mins, "increments": diffs.tolist()}
    slack = POINT_SLACK * np.maximum(1.0, np.abs(mins_arr[:-1]))
    bad = np.nonzero(diffs < -slack)[0]
    if bad.size:
        return "decreasing", witnesses[int(bad[0]) + 1], details
    if _flattening(diffs):
        return "flattening", witnesses[-1], details
    return "ok", None, details


def _growth_trend(radii: np.ndarray, values: np.ndarray) -> tuple[Optional[bool], dict]:
    """Heuristic growth detector: compare sup over inner vs outer radius shells.

    Returns (ok, details); ok is None when there are too few samples to say.
    """
    n = len(values)
    if n < 16:
        return None, {"reason": "too-few-samples", "n": n}
    order = np.argsort(radii, kind="stable")
    vals = values[order]
    quarters = np.array_split(vals, 4)
    sups = [float(q.max()) for q in quarters]
    early = max(sups[0], sups[1])
    late = max(sups[2], sups[3])
    growing = late > early + TREND_GROWTH_MARGIN * max(1.0, abs(early))
    return not growing, {"shell_sups": sups, "early": early, "late": late}


# --- criterion checks -------------------------------------------------------


def _seed_of(sampler, seed):
    """The seed a certificate reports: the explicit one, else the sampler's."""
    return seed if seed is not None else getattr(sampler, "seed", None)


def _no_samples(criterion: str, threshold, skipped: int, seed) -> Certificate:
    return Certificate(criterion, Verdict.INCONCLUSIVE, None, None, threshold,
                       0, skipped, seed, {"reason": "no valid samples"})


def _dplus_sup(criterion: str, m: C1Map, k: AuxFunction, samples,
               co_seed: int | np.random.Generator, seed, **extra_stats) -> Certificate:
    """Sampled sup of max_v D+_v k(x) over ``samples``, pairs (x, directions),
    graded.

    Directions None (a sample error) skip the point; no directions drop it
    uncounted.  The first non-finite D+ is a violation on the spot.
    Satisfied needs positive coercivity evidence for k and a sup that does
    not grow from the inner to the outer radius shells; a decreasing
    coercivity profile is a violation with its own witness.
    """
    skipped = 0
    kept, radii, vals = [], [], []
    for x, vs in samples:
        if vs is None:
            skipped += 1
            continue
        if not vs:
            continue
        point_max = -math.inf
        for v in vs:
            val = dplus(k, x, v)
            if not math.isfinite(val):
                return Certificate(criterion, Verdict.VIOLATED, math.inf,
                                   np.asarray(x, dtype=float), None, len(vals) + 1,
                                   skipped, seed, {"reason": "non-finite derivative"})
            point_max = max(point_max, val)
        kept.append(x)
        radii.append(float(np.linalg.norm(x)))
        vals.append(point_max)
    if not vals:
        return _no_samples(criterion, None, skipped, seed)
    i = int(np.argmax(vals))
    sup, witness = vals[i], np.asarray(kept[i], dtype=float)
    co_status, co_witness, co_details = coercivity_evidence(k, m.dim, seed=co_seed)
    trend_ok, trend = _growth_trend(np.array(radii), np.array(vals))
    stats = {"sup": sup, **extra_stats, "trend": trend, "coercivity": co_status,
             "coercivity_details": co_details}
    if co_status == "decreasing":
        verdict, witness = Verdict.VIOLATED, co_witness
    elif co_status in ("flattening", "undecided") or not trend_ok:
        verdict = Verdict.INCONCLUSIVE
    else:
        verdict = Verdict.SATISFIED
    return Certificate(criterion, verdict, sup, witness, None, len(vals), skipped,
                       seed, stats)


def check_theorem21(m: C1Map, x0, k: AuxFunction, sampler, seed: int | None = None) -> Certificate:
    """Sampled sup of D+_{F(x)} k(x) along the Newton field toward f(x0).

    The hypothesis being probed: k coercive and the sup finite.  Satisfied
    requires a stable (non-growing) sup across radius shells and positive
    coercivity evidence for k.
    """
    x0 = as_vector(x0, m.dim)
    f0 = m.eval(x0)
    pts = sampler.points(m.dim)
    seed = _seed_of(sampler, seed)

    def along_field():
        for block, fields, ok, _ in newton_fields(m, pts, f0):
            for x, f_vec, has_field in zip(block, fields, ok):
                # at the equilibrium the field vanishes: D+ undefined, point dropped
                yield x, ([f_vec] if np.any(f_vec) else []) if has_field else None

    return _dplus_sup("thm21", m, k, along_field(), seed or 0, seed)


def check_cor22(m: C1Map, x0, x1, a: float, b: float, c: float, sampler,
                seed: int | None = None) -> Certificate:
    """Quadratic-growth bound (x-x1).F(x) <= a + b||x-x1||^2 + c||f(x)-f(x0)||^2.

    The left side is evaluated exactly (one Jacobian solve per sample); a
    sample violates when it exceeds the right side by more than
    POINT_SLACK*(1+|rhs|).
    """
    _check_constants(a, b, c)
    x0 = as_vector(x0, m.dim)
    x1 = as_vector(x1, m.dim)
    f0 = m.eval(x0)
    pts = sampler.points(m.dim)
    seed = _seed_of(sampler, seed)

    worst, witness = -math.inf, None
    skipped = used = violations = 0
    for block, fields, ok, fx in newton_fields(m, pts, f0):
        x = block[ok]
        skipped += len(block) - len(x)
        if not len(x):
            continue
        used += len(x)
        d = x - x1
        with np.errstate(all="ignore"):
            lhs = np.vecdot(d, fields[ok])
            rhs = a + b * np.vecdot(d, d)
            if c != 0.0:
                df = fx[ok] - f0
                rhs += c * np.vecdot(df, df)
            margin = lhs - rhs
            violations += int(np.count_nonzero(margin > POINT_SLACK * (1.0 + np.abs(rhs))))
        # the first largest margin; a NaN margin is never the largest
        i = int(np.argmax(np.where(np.isnan(margin), -math.inf, margin)))
        if margin[i] > worst:
            worst, witness = float(margin[i]), x[i]

    if used == 0:
        return _no_samples("cor22", POINT_SLACK, skipped, seed)
    verdict = Verdict.VIOLATED if violations else Verdict.SATISFIED
    return Certificate("cor22", verdict, worst, witness, POINT_SLACK, used, skipped,
                       seed, {"violations": violations, "constants": {"a": a, "b": b, "c": c}})


def check_theorem31(m: C1Map, k: AuxFunction, sampler_x, n_dirs: int = 16,
                    seed: int = 0) -> Certificate:
    """Sampled sup of D+_v k(x) over v = f'(x)^{-1} u, u on the unit sphere.

    Directions are the 2n axis vectors plus n_dirs seeded random units, shared
    across sample points.  Satisfied also needs evidence that k is coercive
    (the bijectivity argument needs it), drawn next from the same generator.
    """
    pts = sampler_x.points(m.dim)
    rng = np.random.default_rng(seed)
    dirs = np.concatenate([np.eye(m.dim), -np.eye(m.dim), _unit_directions(rng, n_dirs, m.dim)])

    def inverse_images():
        for x in pts:
            try:
                jac = m.jacobian(x)
                vs = [linalg._solve_raw(jac, u) for u in dirs]
            except SAMPLE_ERRORS:
                vs = None
            yield x, vs

    return _dplus_sup("thm31", m, k, inverse_images(), rng, seed,
                      n_dirs=int(dirs.shape[0]))


class OmegaPoly:
    """Polynomial growth bound omega(s) = c0 + c1 s + ... with c_i >= 0, c0 > 0.

    For this family the divergence of the integral of 1/omega is decided
    exactly: it diverges iff the degree is at most 1.
    """

    def __init__(self, coeffs: Sequence[float]):
        coeffs = tuple(float(c) for c in coeffs)
        if not coeffs or not coeffs[0] > 0.0:
            raise ValueError("omega needs a positive constant term")
        if not all(0.0 <= c < math.inf for c in coeffs):
            raise ValueError("omega coefficients must be finite and nonnegative")
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        self.coeffs = coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def diverges(self) -> bool:
        return self.degree <= 1

    def __call__(self, s: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc

    def __repr__(self):
        return f"OmegaPoly({list(self.coeffs)})"


def check_hadamard(m: C1Map, omega, sampler, seed: int | None = None) -> Certificate:
    """Growth-bound criterion: ||f'(x)^{-1}|| <= omega(||x||), integral of
    1/omega divergent.

    Part (i) is checked pointwise on the samples.  Part (ii) is decided
    symbolically for OmegaPoly bounds; for arbitrary callables only numeric
    evidence on _DOUBLING_RADII is collected and the verdict is capped at inconclusive.
    """
    pts = sampler.points(m.dim)
    seed = _seed_of(sampler, seed)
    if len(pts) == 0:
        return _no_samples("hadamard", POINT_SLACK, 0, seed)

    worst = -math.inf
    witness = None
    pointwise_ok = True
    for x in pts:
        w = float(omega(float(np.linalg.norm(x))))
        try:
            inv_n = linalg.inverse_norm(m.jacobian(x))
        except SAMPLE_ERRORS:
            inv_n = math.inf
        margin = inv_n - w
        if margin > POINT_SLACK * (1.0 + abs(w)):
            pointwise_ok = False
        if margin > worst:
            worst = margin
            witness = np.asarray(x, dtype=float)

    stats: dict = {"pointwise_margin": worst, "pointwise_ok": pointwise_ok}
    if isinstance(omega, OmegaPoly):
        diverges = omega.diverges()
        stats["divergence"] = "diverges" if diverges else "converges"
        stats["divergence_decided"] = "symbolic"
        if not diverges:
            stats["integral_value"] = float(_quad_inverse(omega, 0.0, math.inf, 400))
            if pointwise_ok:
                witness = None  # the violation is the convergent integral, not a point
        verdict = Verdict.SATISFIED if pointwise_ok and diverges else Verdict.VIOLATED
    else:
        # user-supplied omega: numeric divergence evidence only
        integrals = []
        acc = 0.0
        lo = 0.0
        for r in _DOUBLING_RADII:
            acc += _quad_inverse(omega, lo, r, 200)
            integrals.append(acc)
            lo = r
        flattening = _flattening(np.diff(np.array([0.0] + integrals)))
        stats["divergence"] = "flattening" if flattening else "growing"
        stats["divergence_decided"] = "numeric-evidence"
        stats["integral_profile"] = integrals
        verdict = Verdict.INCONCLUSIVE if pointwise_ok else Verdict.VIOLATED
    return Certificate("hadamard", verdict, worst, witness, POINT_SLACK, len(pts), 0,
                       seed, stats)


def check_coercive_map(m: C1Map, radii: Sequence[float] | None = None,
                       samples_per_sphere: int = 128, seed: int = 0,
                       growth_factor: float = 10.0) -> Certificate:
    """Coercivity evidence for f itself: min ||f|| on nested spheres must grow.

    ``radii`` defaults to (1, 2, 4, 8, 16).

    Satisfied-evidence when the minimum over the largest sphere exceeds
    growth_factor times the minimum over the smallest; otherwise
    violated-evidence with the flattest direction as witness.  Sampling can
    only ever provide evidence here, not proof.
    """
    radii = (1.0, 2.0, 4.0, 8.0, 16.0) if radii is None else tuple(float(r) for r in radii)
    if not radii:
        raise ValueError("radii must not be empty")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    for r in radii:
        _check_draw(r, samples_per_sphere)
    if not 0.0 < growth_factor < math.inf:  # NaN fails too
        raise ValueError("growth_factor must be positive and finite")

    minima, witnesses = _sphere_minima(lambda p: np.linalg.norm(m.eval(p)), m.dim, radii,
                                       samples_per_sphere, np.random.default_rng(seed))
    if len(minima) < len(radii):
        verdict, value, witness, used = Verdict.INCONCLUSIVE, None, None, 0
        stats = {"reason": "no finite samples", "radius": radii[len(minima)]}
    else:
        grew = minima[-1] > growth_factor * minima[0]
        verdict = Verdict.SATISFIED if grew else Verdict.VIOLATED
        value, witness = minima[-1], np.asarray(witnesses[-1], dtype=float)
        used = len(radii) * samples_per_sphere
        stats = {"radii": list(radii), "minima": minima,
                 "growth_factor": growth_factor, "evidence_only": True}
    return Certificate("coercive", verdict, value, witness, growth_factor, used, 0,
                       seed, stats)


def check_ball_criterion(m: C1Map, x0, r: float, sphere_samples: int = 1024,
                         seed: int = 0) -> Certificate:
    """Sign of (x - x0) . F(x) on the sphere ||x - x0|| = r.

    All values <= POINT_SLACK certifies the invertibility ball; the reported
    min/max witnesses expose the actual sign profile either way.  In 1-D the draw
    is random signs: both of x0 -+ r are checked with probability 1 - 2**(1 - sphere_samples).
    """
    x0 = as_vector(x0, m.dim)
    f0 = m.eval(x0)
    pts = x0 + _sphere(np.random.default_rng(seed), m.dim, r, sphere_samples)

    has_field, vals = [], []
    for block, fields, ok, _ in newton_fields(m, pts, f0):
        has_field.append(ok)
        with np.errstate(all="ignore"):
            vals.append(np.vecdot(block[ok] - x0, fields[ok]))
    kept, vals = pts[np.concatenate(has_field)], np.concatenate(vals)
    skipped = len(pts) - len(vals)
    if not len(vals):
        return _no_samples("ball", POINT_SLACK, skipped, seed)
    # argmax and argmin over all values: the first extreme, a NaN ahead of any number
    imax, imin = int(np.argmax(vals)), int(np.argmin(vals))
    vmax, wmax = float(vals[imax]), kept[imax]
    stats = {"min": float(vals[imin]), "max": vmax, "min_witness": kept[imin],
             "max_witness": wmax, "radius": r}
    verdict = Verdict.SATISFIED if vmax <= POINT_SLACK else Verdict.VIOLATED
    return Certificate("ball", verdict, vmax, wmax, POINT_SLACK, len(vals), skipped,
                       seed, stats)


class SampledSup(NamedTuple):
    value: float
    witness: Optional[np.ndarray]
    samples_used: int


def check_bounded_inverse_on_ball(m: C1Map, r: float, count: int = 512,
                                  seed: int = 0) -> SampledSup:
    """Sampled sup of ||f'(x)^{-1}|| over the ball ||x|| <= r.

    In R^n with continuous f' this sup is automatically finite; the value
    feeds solver diagnostics.  A singular sample short-circuits to +inf with
    the offending point as witness.  ``count`` ball points, then
    max(count // 4, 2n) points of the sphere ||x|| = r, where the sup is
    typically attained, come from one generator; in 1-D the shell is random
    signs, holding both -r and r with probability 1 - 2**(1 - max(count // 4, 2)).
    Samples where f' is non-finite or undefined are skipped and not counted;
    samples_used counts the points evaluated, up to and including a singular one.
    """
    rng = np.random.default_rng(seed)
    ball = _ball(rng, m.dim, r, count)
    shell = _sphere(rng, m.dim, r, max(count // 4, 2 * m.dim))
    pts = np.concatenate([ball, shell])

    sup = 0.0
    witness = None
    skipped = 0
    for i, x in enumerate(pts):
        try:
            v = linalg.inverse_norm(m.jacobian(x))
        except SingularError:
            return SampledSup(math.inf, np.asarray(x, dtype=float), i + 1 - skipped)
        except SAMPLE_ERRORS:
            skipped += 1
            continue
        if v > sup:
            sup = v
            witness = np.asarray(x, dtype=float)
    return SampledSup(sup, witness, len(pts) - skipped)
