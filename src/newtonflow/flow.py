"""Continuous Newton (Davidenko) flow xdot = -f'(x)^{-1} (f(x) - y*).

Along an exact solution the residual r(t) = f(x(t)) - y* obeys the identity
r(t) = e^{-t} r(0): it shrinks exponentially *along a fixed direction*.  The
integrator below exploits that as a built-in oracle: every accepted step must
reproduce the e^{-dt} contraction of the residual vector to within a small
multiple of the local tolerance, which is a global correctness check no
generic ODE code has.  The same identity, measured over a whole trajectory,
is exposed as `decay_drift`.

The stepper is an embedded Dormand-Prince 5(4) pair with elementary
step-size control.  Backward integration (the opposite vector field, used
to show solutions are global in the past) runs the same stepper with the
time sign flipped; the decay identity then predicts e^{+|dt|} growth.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import linalg
from .linalg import SingularError, as_vector
from .maps import C1Map, DomainError, NonFiniteError, _exp_rows

# Failures of one field evaluation that a sampled check skips (or scores)
# and goes on from; anything else propagates.
SAMPLE_ERRORS = (SingularError, NonFiniteError, DomainError, OverflowError)

# Rows per block of newton_fields: large enough that numpy's per-call cost
# vanishes, small enough that a block's temporaries stay out of peak memory.
# Measured on verify-ex5 (2 vCPUs, numpy 2.4.6): peak RSS 41.7 MB with 1024
# rows, 54.7 MB with each sample set as one block, at the same wall time.
FIELD_BLOCK = 1024


class FlowStatus(str, Enum):
    CONVERGED = "converged"
    BLOWUP = "blowup"
    SINGULAR_JACOBIAN = "singular-jacobian"
    HORIZON_REACHED = "horizon-reached"
    STEP_FAILURE = "step-failure"


class Direction(Enum):
    FORWARD = 1
    BACKWARD = -1


@dataclass(frozen=True)
class FlowOptions:
    tol: float = 1e-10           # per-step error, absolute and relative to |x|
    t_max: float = 40.0          # e^{-40} ~ 4e-18: below double precision
    blowup_radius: float = 1e8
    residual_tol: float = 1e-9
    max_steps: int = 100_000

    def __post_init__(self):
        for name in ("tol", "t_max", "blowup_radius", "residual_tol"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")


class FlowFailure(Exception):
    """solve_inverse could not reach the target; wraps the trajectory."""

    def __init__(self, trajectory: "Trajectory"):
        self.trajectory = trajectory
        self.status = trajectory.status
        super().__init__(f"flow terminated with status {trajectory.status.value}")


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped flow states.

    ``t`` is strictly increasing for forward runs and strictly decreasing for
    backward runs.  ``residuals[i] = f(states[i]) - target``.
    """

    t: np.ndarray
    states: np.ndarray
    residuals: np.ndarray
    status: FlowStatus
    steps: int
    target: np.ndarray

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def t_final(self) -> float:
        return float(self.t[-1])

    @property
    def final_residual_norm(self) -> float:
        return _norm(self.residuals[-1].tolist())

    @np.errstate(over="ignore", invalid="ignore")
    def drift_profile(self) -> np.ndarray:
        """Per-sample deviation ||r(t) - e^{-t} r(0)|| / ||r(0)||, from
        _norm: a residual whose square overflows still gives a finite drift.
        e^{-t} is math.exp's, as in integrate's decay oracle: np.exp's last
        bit depends on the SIMD loop numpy dispatches to."""
        r0 = self.residuals[0]
        n0 = _norm(r0.tolist())
        if n0 == 0.0:
            return np.zeros(len(self.t))
        pred = _exp_rows(-self.t)[:, None] * r0[None, :]
        return _row_norms(self.residuals - pred) / n0

    def summary(self) -> dict:
        return {
            "status": self.status.value,
            "t_final": self.t_final,
            "steps": self.steps,
            "final_x": [float(v) for v in self.final_state],
            "final_residual": self.final_residual_norm,
            "max_drift": decay_drift(self),
        }

    def to_csv(self, path) -> None:
        """Columns: t, x_0..x_{n-1}, r_norm, drift."""
        rows = np.column_stack((self.t, self.states, _row_norms(self.residuals),
                                self.drift_profile()))
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t"] + [f"x_{i}" for i in range(self.states.shape[1])]
                       + ["r_norm", "drift"])
            w.writerows([repr(v) for v in row] for row in rows.tolist())


def newton_field(m: C1Map, x, target) -> np.ndarray:
    """F(x) = -f'(x)^{-1} (f(x) - y*), computed by a fresh dense solve.

    Raises NonFiniteError where y* - f(x) overflows.
    """
    return _value_and_field(m, x, target)[1]


def _value_and_field(m: C1Map, x, target) -> tuple[np.ndarray, np.ndarray]:
    """(f(x), F(x)) from one evaluation of f: ``newton_field`` with the value
    it is built on."""
    x = as_vector(x, m.dim)
    target = as_vector(target, m.dim)
    fx = m.eval(x)
    jac = m.jacobian(x)
    rhs = target - fx
    if not np.isfinite(rhs).all():
        raise NonFiniteError(m.name, x)
    return fx, linalg.solve_dense(jac, rhs)


def newton_fields(m: C1Map, pts, target):
    """Yield (block, F, ok, fx) per FIELD_BLOCK rows of ``pts``: F[i] is
    ``newton_field(m, block[i], target)`` and fx[i] is f(block[i]) where ok[i]
    holds; ok[i] is False where the field raises one of SAMPLE_ERRORS.

    Planar maps with a point form compute a block from ``m.rows`` and
    linalg._solve_rows, whose rows equal the scalar path bit for bit.  Every
    other row runs the scalar path in row order before its block is yielded,
    so values, skips and the first exception are those of a per-point loop;
    one the point form raises on rows propagates when its block is reached.
    """
    batched = m.dim == 2 and m.point is not None
    if batched:
        target = as_vector(target, 2)
    for lo in range(0, len(pts), FIELD_BLOCK):
        block = pts[lo:lo + FIELD_BLOCK]
        if batched:
            fx, fields, ok = _field_rows(m, block, target)
        else:
            fx, fields = np.empty((2, len(block), m.dim))
            ok = np.zeros(len(block), dtype=bool)
        for i in np.flatnonzero(~ok):
            try:
                fx[i], fields[i] = _value_and_field(m, block[i], target)
            except SAMPLE_ERRORS:
                continue
            ok[i] = True
        yield block, fields, ok, fx


def _field_rows(m: C1Map, block: np.ndarray, target: np.ndarray):
    """(f, F, ok) for a block of a planar map with a point form, from one
    ``m.rows`` call: ok marks the rows whose f and F the block computed."""
    block = np.asarray(block, dtype=float)
    fx, jac = m.rows(block)
    with np.errstate(all="ignore"):
        fields, ok = linalg._solve_rows(jac, target - fx)
    ok &= np.isfinite(block).all(axis=1)
    return fx, fields, ok


def decay_drift(traj: Trajectory) -> float:
    """Max over samples of ||r(t) - e^{-t} r(0)|| / ||r(0)||.

    The flow's primary integration-error oracle: exactly zero in exact
    arithmetic, and bounded by a small multiple of the step tolerance
    times the step count for a healthy run.
    """
    return float(traj.drift_profile().max())


def direction_deviation(traj: Trajectory) -> float:
    """Max angle (radians) between r(t) and r(0) over the trajectory.

    The residual direction is invariant along exact solutions (the image
    moves on the half-line through the target), so any rotation is
    integration error.  Each residual is first scaled by the power of two
    that brings its largest |component| into [1/2, 1), so no product
    overflows; the scaling is exact and leaves a finite angle's bits as
    they are.
    """
    r = traj.residuals
    if not r[0].any():
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.ldexp(r, -np.frexp(np.abs(r).max(axis=1))[1][:, None])
        norms = _row_norms(u)
        keep = norms > 0.0
        # products and sums as ufuncs, not a BLAS product: no FMA
        cosang = (u[keep] * u[0]).sum(axis=1) / (norms[keep] * norms[0])
        return float(np.arccos(np.clip(cosang, -1.0, 1.0)).max())


# Dormand-Prince 5(4) coefficients as float tuples.  Row i of _TABLEAU
# combines k_1..k_i into stage i + 1; its last row is the fifth-order
# solution, which is propagated.  _ERR_WEIGHTS is (b5 - b4), the embedded
# error weights.  Stage 7 sits at the step endpoint (FSAL), which also hands
# us the candidate residual for free.
_TABLEAU = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_ERR_WEIGHTS = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

# Step-size control.  A step the error estimate rejects scales h by
# _SAFETY * err^(-1/5) within [0.1, 1]; one the decay oracle or a failed
# stage rejects halves it.  After an accepted step the elementary controller
# (Hairer, Norsett & Wanner I, II.4) sets h *= _GROWTH_SAFETY * err^(-1/5)
# within [_MIN_FACTOR, _MAX_FACTOR], and at most 1 right after a rejection;
# err is the larger of the error estimate and the decay oracle's ratio.  h
# stops changing at err = _GROWTH_SAFETY^5 = 0.9^(1/0.06) ~ 0.17, the level
# a PI controller with integral gain 0.06 holds, so steady-state accuracy
# is that controller's.  While h grows, that PI controller held err near
# 2e-3 and grew h ~10% per step, and most steps of a short run went into
# the ramp; this one grows h as fast as the error allows (0.81x the
# accepted steps on the 17x17 zampieri-ex5 scan of tests/test_basin.py).
_SAFETY = 0.9
_GROWTH_SAFETY = 0.9 ** (1 / (5 * 0.06))
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_H_MIN = 1e-14
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # smallest normal double

# The approach leg of _flow_then_polish (solve_inverse and every basin scan
# cell) hands off to Newton once the residual is this share of its initial
# norm.  On non-injective maps the flow picks the preimage; Newton started
# too far out can land on another one (seen on complex exp at 0.5).  1e-2
# keeps a wide margin.  The flow to it runs at tol = _HANDOFF**2: the
# decay oracle (10*tol of the residual per step) then checks every step to
# a tenth of the share at which it hands off.  That takes a ninth of the
# accepted steps the default 1e-10 takes (2469 against 22557 over
# perfbench's solve-batch, seed 5; 4452 at 1e-6).
_HANDOFF = 1e-2
_POLISH_STEPS = 8  # most Newton steps of one _newton_polish

# The path tolerance: runs that decide where the flow goes, not the digits
# of where it ends.  Basin scans run their approach legs at it, and
# solve_inverse runs its leg (_flow_then_polish's ``near``) at it or looser.
# Neither outputs the stepper's digits: Newton replaces a converged leg's,
# and a scan's t_conv comes from the decay identity, not from the step at
# which the run stopped.
SCAN_OPTIONS = FlowOptions(tol=_HANDOFF**2)


@np.errstate(all="ignore")
def integrate(
    m: C1Map,
    start,
    target,
    opts: FlowOptions | None = None,
    direction: Direction = Direction.FORWARD,
) -> Trajectory:
    """Integrate the Newton flow from ``start`` toward ``target``.

    The returned Trajectory's status reports how the run ended; in-flight
    failures (singular Jacobian, overflow, vanishing steps) become statuses
    rather than exceptions, and numpy's floating-point warnings are off.
    Samples are recorded at every accepted step.
    """
    opts = opts or FlowOptions()
    x = as_vector(start, m.dim)
    target = as_vector(target, m.dim)
    sgn = 1.0 if direction is Direction.FORWARD else -1.0
    oracle_tol = 10.0 * opts.tol
    tl = target.tolist()
    tnorm = _norm(tl)

    dim = m.dim
    point = m.float_point

    fx = m.eval(x)  # validated once; map errors at the seed raise to the caller
    # states and residuals are kept as lists of floats, one list per sample
    # (not tuples: a run's freed 2-tuples stay on CPython's tuple free list,
    # which kept about 1 MB of pools resident across verify-ex5 passes)
    xl, rl = x.tolist(), (fx - target).tolist()
    rnorm = _norm(rl)
    ts = [0.0]
    xs = [xl]
    rs = [rl]

    def finish(status, steps):
        return Trajectory(
            t=np.array(ts),
            states=np.array(xs),
            residuals=np.array(rs),
            status=status,
            steps=steps,
            target=target,
        )

    if rnorm <= opts.residual_tol:
        return finish(FlowStatus.CONVERGED, 0)

    # The field F = -f'(x)^{-1} r is evaluated unvalidated: non-finite
    # residuals propagate into the step error or the decay violation, whose
    # negated acceptance comparisons then reject the step, and a Jacobian
    # that fails the singularity rule (non-finite entries included) raises
    # SingularError.
    solve = linalg._solve_raw
    try:
        jac = m.jac_or_fd(x)
        # FSAL: each accepted step hands its last stage on as k0
        k0 = tuple(map(float, solve(jac, [-v for v in rl])))
    except (SingularError, NonFiniteError, OverflowError):
        return finish(FlowStatus.SINGULAR_JACOBIAN, 0)
    # det f' cannot change sign along an exact trajectory: the field is
    # undefined where det f' = 0, and the solution ends there.  At n <= 2 a
    # stage whose det has the seed's opposite sign fails as a singular one
    # (a zero det already does, in the solve), so a run that meets a fold
    # ends singular-jacobian instead of zigzagging across it, which the
    # per-step decay oracle alone allows at loose tolerance.  At n >= 3 the
    # sign would cost a factorization per stage, and it is not checked.
    seed_sign = _det_sign(jac.ravel().tolist()) if dim <= 2 else math.nan

    # start small; the controller corrects within a few steps
    h = min(1e-2 * (1.0 + _norm(xl)) / (1.0 + _norm(k0)), opts.t_max, 1.0)

    tau = 0.0
    accepted = 0
    attempts = 0
    last_rejected = False
    last_exc: Exception | None = None
    tol = opts.tol
    blowup_sq = opts.blowup_radius * opts.blowup_radius
    solve1, solve2 = linalg._solve1, linalg._solve2
    if dim == 2:
        t0, t1 = tl
    elif dim == 1:
        t0, = tl
    else:
        k = np.empty((7, dim))

    while True:
        if attempts >= opts.max_steps:
            return finish(FlowStatus.STEP_FAILURE, accepted)
        attempts += 1
        h = min(h, opts.t_max - tau)
        if h < _H_MIN:
            if isinstance(last_exc, SingularError):
                return finish(FlowStatus.SINGULAR_JACOBIAN, accepted)
            return finish(FlowStatus.STEP_FAILURE, accepted)

        # Stage i + 1 is x + (sgn * h) * (A_i . (k_1..k_i)), and its field
        # F = -f'^{-1} r the next k; the last stage is x_new.  The step
        # carries the time sign.  Each stage is one float_point call and one
        # solve.  At n <= 2 the solve is 1x1 or 2x2 on Python floats, and the
        # stage and error sums run left to right over the tableau's rows, as
        # the self-dots below do: IEEE arithmetic alone fixes their bits,
        # where a BLAS dot's depend on its kernel's summation order and FMA.
        sh = sgn * h
        try:
            if dim == 2:
                x0, x1 = xl
                ks = [k0]
                for row in _TABLEAU:
                    d0 = d1 = 0.0
                    for a, (p, q) in zip(row, ks):
                        d0 += a * p
                        d1 += a * q
                    y0, y1 = x0 + sh * d0, x1 + sh * d1
                    f0, f1, a00, a01, a10, a11 = point(y0, y1)
                    if (a00 * a11 - a01 * a10) * seed_sign < 0.0:
                        raise SingularError(*linalg._extremes2(a00, a01, a10, a11))
                    r0, r1 = f0 - t0, f1 - t1
                    ks.append(solve2(a00, a01, a10, a11, -r0, -r1))
                e0 = e1 = 0.0
                for a, (p, q) in zip(_ERR_WEIGHTS, ks):
                    e0 += a * p
                    e1 += a * q
                yl, r_new, k_new, ek = [y0, y1], [r0, r1], ks[6], (e0, e1)
            elif dim == 1:
                x0, = xl
                ks = [k0]
                for row in _TABLEAU:
                    d0 = 0.0
                    for a, (p,) in zip(row, ks):
                        d0 += a * p
                    y0 = x0 + sh * d0
                    f0, a00 = point(y0)
                    if a00 * seed_sign < 0.0:
                        raise SingularError(abs(a00), abs(a00))
                    r0 = f0 - t0
                    ks.append(solve1(a00, -r0))
                e0 = 0.0
                for a, (p,) in zip(_ERR_WEIGHTS, ks):
                    e0 += a * p
                yl, r_new, k_new, ek = [y0], [r0], ks[6], (e0,)
            else:
                # n >= 3: the stage and error sums are numpy dots
                k[0] = k0
                for i in range(1, 7):
                    yl = [a + sh * d for a, d in zip(xl, np.dot(_TABLEAU[i - 1], k[:i]).tolist())]
                    vals = point(*yl)
                    r_new = [a - b for a, b in zip(vals[:dim], tl)]
                    k[i] = solve(np.reshape(vals[dim:], (dim, dim)), [-v for v in r_new])
                k_new, ek = k[6].tolist(), np.dot(_ERR_WEIGHTS, k).tolist()
        except SAMPLE_ERRORS as exc:
            last_exc = exc
            last_rejected = True
            h *= 0.5
            continue

        # embedded 4th/5th-order error estimate, RMS-scaled; comparisons are
        # negated so NaN falls into the reject branch.  max() drops a NaN of
        # x_new where np.maximum keeps it, but a NaN there comes from a
        # non-finite stage, which already makes its error term non-finite.
        err_vec = [sh * e / (tol + tol * max(abs(a), abs(b)))
                   for e, a, b in zip(ek, xl, yl)]
        err = math.sqrt(_selfdot(err_vec) / dim)
        if not (err <= 1.0):
            last_exc = None
            last_rejected = True
            h *= max(0.1, min(1.0, _SAFETY * err**-0.2)) if math.isfinite(err) else 0.5
            continue

        # decay oracle: the residual vector must contract by e^{-sgn*h},
        # direction included.  The floor term is the cancellation noise of
        # evaluating f(x) - y* in floating point; below it the identity is
        # unobservable, not violated.
        decay = math.exp(-sgn * h)
        viol = _norm([a - decay * b for a, b in zip(r_new, rl)])
        allowed = oracle_tol * rnorm + 32.0 * _EPS * (tnorm + rnorm)
        ratio = viol / allowed
        if not (ratio <= 1.0):
            last_exc = None
            last_rejected = True
            h *= 0.5
            continue

        tau += h
        accepted += 1
        xl, rl, k0 = yl, r_new, k_new
        rnorm = _norm(rl)
        ts.append(sgn * tau)
        xs.append(xl)
        rs.append(rl)

        if rnorm <= opts.residual_tol:
            return finish(FlowStatus.CONVERGED, accepted)
        # ||x||^2 >= R^2, and ||x|| >= R where R^2 overflows
        if _selfdot(xl) >= blowup_sq and (blowup_sq < math.inf
                                          or _norm(xl) >= opts.blowup_radius):
            return finish(FlowStatus.BLOWUP, accepted)
        if tau >= opts.t_max * (1.0 - 1e-14):
            return finish(FlowStatus.HORIZON_REACHED, accepted)

        comb = max(err, ratio, 1e-10)
        factor = _GROWTH_SAFETY * comb**-0.2
        if last_rejected:
            factor = min(factor, 1.0)
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        last_rejected = False
        last_exc = None


def _selfdot(v) -> float:
    """v . v of a sequence of Python floats, summed left to right: IEEE
    arithmetic fixes its bits, where a BLAS dot's depend on its kernel."""
    s = 0.0
    for a in v:
        s += a * a
    return s


def _det_sign(a) -> float:
    """sign(det) of a 1x1 or 2x2 matrix given as its entries, Python floats
    in row order: 1.0, -1.0 or 0.0, and NaN where an entry is not finite.
    Where a 2x2's det is not a finite normal float, the entries are first
    scaled by the power of two that brings the largest into [1/2, 1), which
    is exact, so the products neither overflow nor, unless the matrix is
    singular, underflow."""
    d = a[0] if len(a) == 1 else a[0] * a[3] - a[1] * a[2]
    if _TINY <= abs(d) < math.inf:  # so every entry is finite
        return math.copysign(1.0, d)
    if not all(map(math.isfinite, a)):
        return math.nan
    if len(a) == 4:
        e = -math.frexp(max(map(abs, a)))[1]
        a00, a01, a10, a11 = (math.ldexp(v, e) for v in a)
        d = a00 * a11 - a01 * a10
    return float((d > 0.0) - (d < 0.0))


def _newton_polish(m: C1Map, x, target,
                   residual_tol: float) -> tuple[np.ndarray, float]:
    """Guarded plain Newton from x, at most _POLISH_STEPS steps: (x, the
    residual norm at x).  A step is kept if it lowers the residual norm and
    either at least halves it (Deuflhard's monotonicity test Theta <= 1/2: a
    step that contracts less left the region where Newton converges fast and
    may head for another preimage) or lands within ``residual_tol``, where it
    only polishes rounding.  At n <= 2 it must also not land where det f'
    has the opposite sign of det f' at x: that is another sheet of a fold,
    which Theta <= 1/2 alone does not always reject.  The first step not
    kept ends the polish; an overflowed norm (inf) is no decrease, and
    neither is a step to a non-finite x.  Every map in every dimension runs
    on lists of floats through _FloatNewton, with the values and errors of
    eval, jacobian and solve_dense."""
    newton = _FloatNewton(m, target)
    x = as_vector(x, m.dim).tolist()
    r, best = newton.residual(x)
    seed_sign = newton.det_sign()
    for _ in range(_POLISH_STEPS):
        if best == 0.0:
            break
        try:
            x_try = newton.step(x, r)
            if not all(map(math.isfinite, x_try)):
                break
            r_try, n_try = newton.residual(x_try)
        except SAMPLE_ERRORS:
            break
        if not (n_try < best and (n_try <= 0.5 * best or n_try <= residual_tol)):
            break
        if newton.det_sign() * seed_sign < 0.0:
            break
        x, r, best = x_try, r_try, n_try
    return np.array(x), best


class _FloatNewton:
    """The polish's residual and Newton step on lists of floats.  Where the
    map has a point form, f and f' at a point come from one point call.
    Otherwise, or where the point form raises OverflowError, f comes from
    eval, and f' from jacobian when the det-sign test or the step from that
    point first needs it, so a refused landing costs no f'.  The solve is
    _solve1 or _solve2 at n <= 2 and _solve_raw at n >= 3."""

    def __init__(self, m: C1Map, target):
        self.m, self.n = m, m.dim
        self.tl = as_vector(target, m.dim).tolist()

    def residual(self, x):
        """(f(x) - y*, its norm); f' at x too where the point form gives it."""
        self.x, self.jac = x, None
        f = None
        if self.m.point is not None:
            try:
                values = self.m.point(*x)
            except OverflowError:
                pass
            else:
                f, self.jac = values[:self.n], values[self.n:]
                if not all(map(math.isfinite, f)):
                    raise NonFiniteError(self.m.name, x)
        if f is None:
            f = self.m.eval(np.array(x)).tolist()
        r = [a - b for a, b in zip(f, self.tl)]
        return r, _norm(r)

    def det_sign(self):
        """sign(det f') at the last residual's point; NaN at n >= 3 and
        where f' raises or is not finite."""
        if self.n > 2:
            return math.nan
        try:
            return _det_sign(self._jacobian())
        except SAMPLE_ERRORS:
            return math.nan

    def step(self, x, r):
        jac = self._jacobian()
        if not all(map(math.isfinite, jac)):
            raise NonFiniteError(self.m.name, x)  # as jacobian would
        if not all(map(math.isfinite, r)):
            as_vector(r)  # solve_dense's ValueError
        if self.n > 2:
            d = linalg._solve_raw(np.reshape(jac, (self.n, self.n)), r).tolist()
        else:
            d = (linalg._solve1 if self.n == 1 else linalg._solve2)(*jac, *r)
        return [a - s for a, s in zip(x, d)]

    def _jacobian(self):
        """f' at the last residual's point as n^2 floats, evaluated once."""
        if self.jac is None:
            self.jac = self.m.jacobian(np.array(self.x)).ravel().tolist()
        return self.jac


def _norm(r) -> float:
    """||r|| of a sequence of Python floats (``ndarray.tolist()``), from
    _selfdot.  Only where that sum of squares overflows or underflows is r
    first scaled by the power of two that brings its largest |component|
    into [1/2, 1), which is exact; inf only where the norm itself is."""
    s = _selfdot(r)
    if s < _TINY or s == math.inf:
        e = math.frexp(max(map(abs, r), default=0.0))[1]
        try:
            return math.ldexp(math.sqrt(_selfdot([math.ldexp(a, -e) for a in r])), e)
        except OverflowError:  # the norm itself overflows
            return math.inf
    return math.sqrt(s)  # NaN included


def _row_norms(a: np.ndarray) -> np.ndarray:
    """_norm of each row of a 2-D array."""
    return np.array([_norm(row) for row in a.tolist()])


def _flow_then_polish(m: C1Map, start, target, opts: FlowOptions,
                      near: FlowOptions | None = None, r0: float = 0.0
                      ) -> tuple[Trajectory, np.ndarray | None, float]:
    """The one way a run reaches a polished answer: (trajectory, x,
    ||f(x) - y*||), or (trajectory, None, its final residual norm) when the
    flow at ``opts`` does not converge.

    The leg flows forward at ``near`` (default ``opts``) until the residual
    is within max(opts.residual_tol, _HANDOFF * r0), with r0 = ||f(start) -
    y*|| or 0 for the full flow.  A converged leg is Newton-polished toward
    opts.residual_tol.  The leg raises only residual_tol, which only the
    stop test reads, so at ``near == opts`` it is the full flow step for step
    up to where it stops, and its failure is the answer; a leg that is the
    full flow is never run again.  Any other miss runs the full flow at
    ``opts`` and the same polish.
    """
    near = near or opts
    leg_opts = near
    handoff = _HANDOFF * r0
    # an overflowed initial residual (inf) leaves the stop test as it is
    if opts.residual_tol < handoff < math.inf:
        leg_opts = replace(near, residual_tol=handoff)
    leg = integrate(m, start, target, leg_opts, Direction.FORWARD)
    if leg.status is FlowStatus.CONVERGED:
        x, rnorm = _newton_polish(m, leg.final_state, target, opts.residual_tol)
        if rnorm <= opts.residual_tol or leg_opts == opts:
            return leg, x, rnorm
    elif near == opts:
        return leg, None, leg.final_residual_norm
    return _flow_then_polish(m, start, target, opts)


def solve_inverse(m: C1Map, target, start, opts: FlowOptions | None = None) -> np.ndarray:
    """Solve f(x) = y* globally: x with ||f(x) - y*|| <= residual_tol.

    The flow runs at the path tolerance SCAN_OPTIONS (or the caller's, if
    looser) and hands off to guarded Newton (_flow_then_polish), so the
    answer and any FlowFailure (carrying the trajectory) are the full
    flow's at ``opts``.
    """
    opts = opts or FlowOptions()
    x0 = as_vector(start, m.dim)
    target = as_vector(target, m.dim)
    near = replace(opts, tol=max(opts.tol, SCAN_OPTIONS.tol))
    r0 = _norm((m.eval(x0) - target).tolist())
    traj, x, _ = _flow_then_polish(m, x0, target, opts, near, r0)
    if x is None:
        raise FlowFailure(traj)
    return x
