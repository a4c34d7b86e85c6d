"""Continuous Newton (Davidenko) flow xdot = -f'(x)^{-1} (f(x) - y*).

Along an exact solution the residual r(t) = f(x(t)) - y* obeys the identity
r(t) = e^{-t} r(0): it shrinks exponentially *along a fixed direction*.  The
integrator below exploits that as a built-in oracle: every accepted step must
reproduce the e^{-dt} contraction of the residual vector to within a small
multiple of the local tolerance, which is a global correctness check no
generic ODE code has.  The same identity, measured over a whole trajectory,
is exposed as `decay_drift`.

The stepper is an embedded Dormand-Prince 5(4) pair with PI step-size
control.  Backward integration (the opposite vector field, used to show
solutions are global in the past) runs the same stepper with the time sign
flipped; the decay identity then predicts e^{+|dt|} growth.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import linalg
from .linalg import SingularError, as_vector
from .maps import C1Map, DomainError, NonFiniteError

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
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    t_max: float = 40.0          # e^{-40} ~ 4e-18: below double precision
    blowup_radius: float = 1e8
    residual_tol: float = 1e-9
    max_steps: int = 100_000

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol", "t_max", "blowup_radius", "residual_tol"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")


# The basin scans' tolerance: runs that decide where the flow goes, not
# the digits of where it ends.  It trades digits nobody reads for a ~4x
# faster run, but keeps t_conv, which a scan outputs, to about 1e-6 (the
# approach leg of solve_inverse, whose digits Newton replaces, runs looser).
SCAN_OPTIONS = FlowOptions(abs_tol=1e-6, rel_tol=1e-6)


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
        return float(np.linalg.norm(self.residuals[-1]))

    def drift_profile(self) -> np.ndarray:
        """Per-sample deviation ||r(t) - e^{-t} r(0)|| / ||r(0)||."""
        r0 = self.residuals[0]
        n0 = float(np.linalg.norm(r0))
        if n0 == 0.0:
            return np.zeros(len(self.t))
        pred = np.exp(-self.t)[:, None] * r0[None, :]
        return np.linalg.norm(self.residuals - pred, axis=1) / n0

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
        rnorm = np.linalg.norm(self.residuals, axis=1)
        rows = np.column_stack((self.t, self.states, rnorm, self.drift_profile()))
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

    Planar maps with both row forms compute a block with linalg._solve_rows,
    whose rows equal the scalar path bit for bit.  Every other row runs
    the scalar path in row order before its block is yielded, so values,
    skips and the first exception are those of a per-point loop.  An
    exception raised by a row form propagates when its block is reached.
    """
    batched = m.dim == 2 and m.fn_rows is not None and m.jac_rows is not None
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
    """(f, F, ok) for a block of a planar map with row forms: ok marks the
    rows whose value f and field F the block computed."""
    block = np.asarray(block, dtype=float)
    with np.errstate(all="ignore"):
        fx = np.asarray(m.fn_rows(block), dtype=float)
        jac = np.asarray(m.jac_rows(block), dtype=float)
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
    integration error.
    """
    r0 = traj.residuals[0]
    n0 = float(np.linalg.norm(r0))
    if n0 == 0.0:
        return 0.0
    norms = np.linalg.norm(traj.residuals, axis=1)
    keep = norms > 0.0
    cosang = (traj.residuals[keep] @ r0) / (norms[keep] * n0)
    return float(np.arccos(np.clip(cosang, -1.0, 1.0)).max())


# Dormand-Prince 5(4) coefficients.  The fifth-order solution is propagated;
# row E is (b5 - b4), the embedded error weights.  Stage 7 sits at the step
# endpoint (FSAL), which also hands us the candidate residual for free.
_A_ROWS = [
    np.array(row)
    for row in (
        (),
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    )
]
_E = np.array(
    (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_KI = 0.06          # PI controller: h *= safety * err^-(KI+KP) * err_prev^KP
_KP = 0.08
_H_MIN = 1e-14
_EPS = float(np.finfo(float).eps)

# solve_inverse hands off to Newton once the residual is this share of its
# initial norm.  On non-injective maps the flow picks the preimage; Newton
# started too far out can land on another one (seen on complex exp at 0.5).
# 1e-2 keeps a wide margin.  The flow to it runs at abs_tol = rel_tol =
# _HANDOFF**2: the decay oracle (10*rel_tol of the residual per step) then
# checks every step to a tenth of the share at which it hands off.  That
# takes a sixth of the accepted steps the default 1e-10 takes (3856 against
# 23920 over perfbench's solve-batch, seed 5; 6042 at SCAN_OPTIONS).
_HANDOFF = 1e-2
_POLISH_STEPS = 8  # most Newton steps of one _newton_polish


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
    oracle_tol = 10.0 * opts.rel_tol
    tnorm = float(np.linalg.norm(target))

    fn = m.fn
    jacf = m.jac_or_fd

    fx = m.eval(x)  # validated once; map errors at the seed raise to the caller
    r = fx - target
    rnorm = float(np.linalg.norm(r))

    ts = [0.0]
    xs = [x.copy()]
    rs = [r.copy()]

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
    k = np.empty((7, m.dim))
    try:
        # FSAL: each accepted step hands k[6] on to k[0]
        k[0] = solve(jacf(x), [-v for v in r.tolist()])
    except (SingularError, NonFiniteError, OverflowError):
        return finish(FlowStatus.SINGULAR_JACOBIAN, 0)

    # start small; the controller corrects within a few steps
    fmag = float(np.linalg.norm(k[0]))
    h = min(1e-2 * (1.0 + float(np.linalg.norm(x))) / (1.0 + fmag), opts.t_max, 1.0)

    tau = 0.0
    accepted = 0
    attempts = 0
    err_prev = 1.0
    last_rejected = False
    last_exc: Exception | None = None
    dim = m.dim
    abs_tol, rel_tol = opts.abs_tol, opts.rel_tol
    blowup_sq = opts.blowup_radius * opts.blowup_radius
    xl = x.tolist()
    heads = [k[:i] for i in range(7)]  # views: k[:i] without a slice per stage

    while True:
        if attempts >= opts.max_steps:
            return finish(FlowStatus.STEP_FAILURE, accepted)
        attempts += 1
        h = min(h, opts.t_max - tau)
        if h < _H_MIN:
            if isinstance(last_exc, SingularError):
                return finish(FlowStatus.SINGULAR_JACOBIAN, accepted)
            return finish(FlowStatus.STEP_FAILURE, accepted)

        # Stage i is x + (sgn * h) * (A_i @ k[:i]) with k[i] = F; the last
        # stage is x_new.  The step carries the time sign.  The stage sums
        # and the self-dots below stay numpy calls: they are BLAS kernels
        # with FMA, whose bits a plain float sum does not reproduce.  Every
        # elementwise operation runs on Python floats, which round like
        # numpy's ufuncs without their per-call cost on n-vectors.
        sh = sgn * h
        try:
            for i in range(1, 7):
                yl = [a + sh * d for a, d in zip(xl, _A_ROWS[i].dot(heads[i]).tolist())]
                y = np.array(yl)
                r_new = fn(y) - target
                k[i] = solve(jacf(y), [-v for v in r_new.tolist()])
        except SAMPLE_ERRORS as exc:
            last_exc = exc
            last_rejected = True
            h *= 0.5
            continue

        # embedded 4th/5th-order error estimate, RMS-scaled; comparisons are
        # negated so NaN falls into the reject branch.  max() drops a NaN of
        # x_new where np.maximum keeps it, but a NaN there comes from a
        # non-finite stage, which already makes its error term non-finite.
        err_vec = np.array([sh * e / (abs_tol + rel_tol * max(abs(a), abs(b)))
                            for e, a, b in zip(_E.dot(k).tolist(), xl, yl)])
        err = math.sqrt(float(err_vec.dot(err_vec)) / dim)
        if not (err <= 1.0):
            last_exc = None
            last_rejected = True
            h *= max(0.1, min(1.0, _SAFETY * err**-0.2)) if math.isfinite(err) else 0.5
            continue

        # decay oracle: the residual vector must contract by e^{-sgn*h},
        # direction included.  The floor term is the cancellation noise of
        # evaluating f(x) - y* in floating point; below it the identity is
        # unobservable, not violated.
        dev = r_new - math.exp(-sgn * h) * r
        viol = math.sqrt(abs(float(dev.dot(dev))))
        allowed = oracle_tol * rnorm + 32.0 * _EPS * (tnorm + rnorm)
        ratio = viol / allowed
        if not (ratio <= 1.0):
            last_exc = None
            last_rejected = True
            h *= 0.5
            continue

        tau += h
        accepted += 1
        x, xl = y, yl
        r = r_new
        k[0] = k[6]
        rnorm = math.sqrt(float(r.dot(r)))
        ts.append(sgn * tau)
        xs.append(x)
        rs.append(r)

        if rnorm <= opts.residual_tol:
            return finish(FlowStatus.CONVERGED, accepted)
        if float(x.dot(x)) >= blowup_sq:
            return finish(FlowStatus.BLOWUP, accepted)
        if tau >= opts.t_max * (1.0 - 1e-14):
            return finish(FlowStatus.HORIZON_REACHED, accepted)

        comb = max(err, ratio, 1e-10)
        factor = _SAFETY * comb ** -(_KI + _KP) * err_prev**_KP
        if last_rejected:
            factor = min(factor, 1.0)
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        err_prev = comb
        last_rejected = False
        last_exc = None


def _newton_polish(m: C1Map, x, target, residual_tol: float) -> np.ndarray:
    """Guarded plain Newton from x, at most _POLISH_STEPS steps.  A step is
    kept if it lowers the residual norm and either at least halves it
    (Deuflhard's monotonicity test Theta <= 1/2: a step that contracts less
    left the region where Newton converges fast and may head for another
    preimage) or lands within ``residual_tol``, where it only polishes
    rounding.  The first step not kept ends the polish; an overflowed norm
    (inf) is no decrease."""
    target = as_vector(target, m.dim)
    x = as_vector(x, m.dim).copy()
    r = m.eval(x) - target
    best = _norm(r)
    for _ in range(_POLISH_STEPS):
        if best == 0.0:
            break
        try:
            step = linalg.solve_dense(m.jacobian(x), r)
            x_try = x - step
            r_try = m.eval(x_try) - target
        except SAMPLE_ERRORS:
            break
        n_try = _norm(r_try)
        if not (n_try < best and (n_try <= 0.5 * best or n_try <= residual_tol)):
            break
        x, r, best = x_try, r_try, n_try
    return x


def _norm(r: np.ndarray) -> float:
    """||r||, inf where its square overflows, without a RuntimeWarning."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(r))


def _flow_then_polish(m: C1Map, start, target,
                      opts: FlowOptions) -> tuple[Trajectory, np.ndarray | None]:
    """The forward flow at ``opts``, then the Newton polish from its end
    point, which is within opts.residual_tol: (trajectory, x), with x None
    when the flow did not converge."""
    traj = integrate(m, start, target, opts, Direction.FORWARD)
    if traj.status is not FlowStatus.CONVERGED:
        return traj, None
    return traj, _newton_polish(m, traj.final_state, target, opts.residual_tol)


def solve_inverse(m: C1Map, target, start, opts: FlowOptions | None = None) -> np.ndarray:
    """Solve f(x) = y* globally: flow from ``start`` to the neighbourhood of
    the solution, then finish with guarded Newton.

    Returns x with ||f(x) - y*|| <= residual_tol.  Raises FlowFailure
    (carrying the trajectory) if the flow ends in any non-converged status.
    The flow only has to carry x into the basin of the preimage it leads
    to, so it runs at abs_tol = rel_tol = _HANDOFF**2 (or the caller's, if
    looser) and only until the residual is _HANDOFF times its initial norm
    (or residual_tol, if that is larger).  The Newton polish to the caller's
    residual_tol then replaces the flow's digits quadratically; unlike a
    basin scan's t_conv, they are never output.  On any miss (that run
    ending non-converged, residual_tol not reached) the full flow runs from
    ``start`` at ``opts``, followed by the same polish, so the answer and
    any FlowFailure are those of the full flow.  CLI ``solve``
    still reports the full-tolerance trajectory.
    """
    opts = opts or FlowOptions()
    x0 = as_vector(start, m.dim)
    target = as_vector(target, m.dim)
    near = replace(opts, abs_tol=max(opts.abs_tol, _HANDOFF**2),
                   rel_tol=max(opts.rel_tol, _HANDOFF**2))
    handoff = _HANDOFF * _norm(m.eval(x0) - target)
    # an overflowed initial residual (inf) leaves the stop test as it is
    if opts.residual_tol < handoff < math.inf:
        near = replace(near, residual_tol=handoff)
    traj = integrate(m, x0, target, near, Direction.FORWARD)
    if traj.status is FlowStatus.CONVERGED:
        x = _newton_polish(m, traj.final_state, target, opts.residual_tol)
        if _norm(m.eval(x) - target) <= opts.residual_tol:
            return x
    traj, x = _flow_then_polish(m, x0, target, opts)
    if x is None:
        raise FlowFailure(traj)
    return x
