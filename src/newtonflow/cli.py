"""Command-line interface: solve, certify, basin, verify-ex5, list-maps.

Conventions:

- vectors are comma-separated decimals (``--target 1,0``), matrices
  row-major (``--A 1,0,0,1``), growth bounds are tagged families
  (``const:c``, ``affine:a,b``, ``poly:c0,c1,c2``);
- a plain-text config file (``key = value`` lines, ``#`` comments) supplies
  defaults for its subcommand's options, command-line flags win;
- results are JSON on stdout (or ``--out``), with a ``schema`` version and a
  ``timestamp`` field; everything else is byte-reproducible given ``--seed``.

Flow: one table gives each option its default text and its parser; the
resolved config is parsed once, the subcommand maps the parsed options to a
(document, exit code) pair and the document is emitted once.  Bad values,
points where the map cannot be evaluated and unusable files end there as
``error: ...`` with exit code 1.

Exit codes: 0 success/satisfied, 1 configuration error, 2 flow failure,
3 certificate violated, 4 inconclusive, 5 verification battery failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import basin as basin_mod
from . import certify as certify_mod
from .certify import (
    BallSampler,
    GridSampler,
    OmegaPoly,
    SphereSampler,
    Verdict,
)
from .flow import (
    FIELD_BLOCK,
    SAMPLE_ERRORS,
    FlowOptions,
    FlowStatus,
    _flow_then_polish,
    decay_drift,
    direction_deviation,
    integrate,
    newton_fields,
)
from .maps import UnknownMapError, builtin, list_maps, zampieri_radial

SCHEMA = 1

_VERDICT_EXIT = {Verdict.SATISFIED: 0, Verdict.VIOLATED: 3, Verdict.INCONCLUSIVE: 4}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; 2 is reserved for flow
    # failures here, so usage problems are rerouted to exit code 1
    def error(self, message):
        raise UsageError(message)


# --- value parsers -----------------------------------------------------------
# Each takes an option's text and returns its value or raises ValueError.


def _floats(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip() != ""]


def _vec(text: str) -> np.ndarray:
    vals = _floats(text)
    if not vals:
        raise ValueError("must not be empty")
    return np.array(vals)


def _matrix(text: str) -> np.ndarray:
    vals = _floats(text)
    n = math.isqrt(len(vals))
    if n * n != len(vals):
        raise ValueError(f"matrix needs a square number of entries, got {len(vals)}")
    return np.array(vals).reshape(n, n)


def _box(text: str) -> list[float]:
    box = _floats(text)
    if len(box) != 4:
        raise ValueError("needs xmin,xmax,ymin,ymax")
    return box


def _res(text: str) -> int | tuple:
    vals = [int(v) for v in text.split(",")]
    if len(vals) > 2:
        raise ValueError("needs nx or nx,ny")
    return vals[0] if len(vals) == 1 else tuple(vals)


# A count inside a vector is parsed with int(), as --count is: 3.9 is an error.
def _grid(text: str) -> tuple[list[float], int]:
    bounds, _, res = text.rpartition(",")
    return _floats(bounds), int(res)


def _radius_count(text: str) -> tuple[float, int]:
    vals = text.split(",")
    if len(vals) != 2:
        raise ValueError("needs radius,count")
    return float(vals[0]), int(vals[1])


def _finite(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"must be finite, got {text}")
    return v


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise ValueError("must be >= 1")
    return n


def _choice(*names):
    def parse(text: str) -> str:
        if text not in names:
            raise ValueError(f"expected one of {' | '.join(names)}, got {text!r}")
        return text
    return parse


_OMEGA_SIZES = {"const": 1, "affine": 2, "poly": None}


def _omega(text: str) -> OmegaPoly:
    tag, _, body = text.partition(":")
    if tag not in _OMEGA_SIZES:
        raise ValueError(f"must look like const:c, affine:a,b or poly:c0,c1,c2 (got {text!r})")
    coeffs = _floats(body)
    if _OMEGA_SIZES[tag] not in (None, len(coeffs)):
        raise ValueError(f"{tag} takes {_OMEGA_SIZES[tag]} coefficient(s)")
    return OmegaPoly(coeffs)


# --- option table ------------------------------------------------------------
# (name, default text, help, parser).  A default of None makes the option
# required; an option whose default is "" is None when its text is empty.

_COMMON = [
    ("seed", "0", "seed for every randomized component", int),
    ("out", "", "write the JSON result here instead of stdout", str),
]

_MAP_FIELDS = [
    ("map", None, "registry key (see list-maps)", str),
    ("dim", "", "dimension, for maps that take one", int),
    ("A", "", "row-major matrix for --map linear", _matrix),
    ("eps", "", "cubic coefficient for --map rot-poly2d", float),
]

_FLOW_FIELDS = [
    ("tol", "1e-10", "integrator step tolerance", float),
    ("t-max", "40", "flow-time horizon", float),
    ("blowup-radius", "1e8", "norm threshold for blow-up", float),
    ("residual-tol", "1e-9", "convergence threshold on ||f(x)-y*||", float),
    ("max-steps", "100000", "step-attempt budget", int),
]

_FIELDS = {
    "solve": _MAP_FIELDS + [
        ("target", None, "target vector y*", _vec),
        ("start", None, "initial point", _vec),
        ("traj", "", "also write the trajectory CSV here", str),
    ] + _FLOW_FIELDS + _COMMON,
    "certify": _MAP_FIELDS + [
        ("criterion", None,
         "thm21 | cor22 | thm31 | hadamard | coercive | ball | inverse-bound",
         _choice("thm21", "cor22", "thm31", "hadamard", "coercive", "ball", "inverse-bound")),
        ("a", "0", "constant a", float),
        ("b", "0", "constant b", float),
        ("c", "0", "constant c", float),
        ("x0", "", "base point x0 (defaults to the origin)", _vec),
        ("x1", "", "center x1 (defaults to the origin)", _vec),
        ("k", "logh", "auxiliary function: logh | hadamard | logcoercive",
         _choice("logh", "hadamard", "logcoercive")),
        ("omega", "", "growth bound, e.g. const:1, affine:1,2, poly:1,0,1", _omega),
        ("grid", "", "grid sampler: lo,hi per axis then resolution", _grid),
        ("ball", "", "ball sampler: radius,count", _radius_count),
        ("sphere", "", "sphere sampler: radius,count", _radius_count),
        ("radii", "", "sphere radii (coercive)", _floats),
        ("spc", "128", "samples per sphere (coercive)", int),
        ("dirs", "16", "random directions (thm31)", int),
        ("r", "1", "ball/sphere radius (ball, inverse-bound)", float),
        ("count", "512", "sample count (ball, inverse-bound)", int),
        ("growth-factor", "10", "required growth of min ||f|| (coercive)", float),
    ] + _COMMON,
    "basin": _MAP_FIELDS + [
        ("x0", None, "flow target seed point", _vec),
        ("box", "-4,4,-4,4", "scan box xmin,xmax,ymin,ymax", _box),
        ("res", "101", "grid resolution (nx or nx,ny)", _res),
        ("workers", "", "process pool size (default: CPU count)", _positive_int),
        ("format", "csv", "grid export format: csv | json", _choice("csv", "json")),
        ("probe", "0", "injectivity probe pairs (0 = off)", int),
        ("grid-out", "", "write the per-cell grid here", str),
    ] + [
        # scans run at the path tolerance, flow.SCAN_OPTIONS
        (name, "1e-4" if name == "tol" else default, help_text, parse)
        for name, default, help_text, parse in _FLOW_FIELDS
    ] + _COMMON,
    "verify-ex5": [
        ("samples", "10000", "points for the pipeline-vs-closed-form oracle", int),
        ("grid-res", "201", "resolution of the growth-inequality grid", int),
        ("positive-samples", "100000", "points for the range-sign witness", _positive_int),
        ("perturb-jacobian", "0", "fault-injection: scale the Jacobian by 1+eps", _finite),
    ] + _COMMON,
    "list-maps": [],
}


def _key(name: str) -> str:
    """The attribute that holds option ``--name`` in parsed options."""
    return name.replace("-", "_")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved parameters of one CLI invocation.

    Every value is stored in its string form, so serializing and re-parsing
    the config reproduces it exactly.
    """

    command: str
    values: dict

    def to_text(self) -> str:
        lines = [f"command = {self.command}"]
        lines += [f"{k} = {v}" for k, v in self.values.items()]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        command = ""
        values = {}
        for ln, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"config line {ln}: expected 'key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            if key == "command":
                command = val
            else:
                values[key] = val
        return cls(command, values)


def _resolve(command: str, cli_values: dict, file_cfg: RunConfig) -> RunConfig:
    """The flags, then the config file, then the defaults; a file may set
    only the options of ``command``."""
    if file_cfg.command not in ("", command):
        raise UsageError(f"config file is for {file_cfg.command!r}, not {command!r}")
    names = [name for name, *_ in _FIELDS[command]]
    for key in file_cfg.values:
        if key not in names:
            raise UsageError(f"config key {key!r} is not an option of {command}")
    values = {}
    for name, default, *_ in _FIELDS[command]:
        v = cli_values.get(_key(name))
        if v is None:
            v = file_cfg.values.get(name, default)
        if v is None:
            raise UsageError(f"missing required option --{name}")
        values[name] = v
    return RunConfig(command, values)


def _parse(cfg: RunConfig) -> argparse.Namespace:
    """Every option of the config through its parser, once."""
    opts = argparse.Namespace()
    for name, default, _help, parse in _FIELDS[cfg.command]:
        text = cfg.values[name]
        try:
            value = None if text == "" == default else parse(text)
        except (ValueError, OverflowError) as e:
            raise UsageError(f"--{name}: {e}") from None
        setattr(opts, _key(name), value)
    return opts


# --- building from parsed options --------------------------------------------


def _build_map(o):
    params = {k: v for k, v in (("a", o.A), ("eps", o.eps)) if v is not None}
    try:
        return builtin(o.map, dim=o.dim, **params)
    except UnknownMapError:
        raise UsageError(f"unknown map {o.map!r}; see list-maps") from None
    except TypeError as e:  # a parameter the map does not take
        raise UsageError(str(e)) from None


def _flow_opts(o) -> FlowOptions:
    return FlowOptions(**{_key(name): getattr(o, _key(name)) for name, *_ in _FLOW_FIELDS})


def _sampler(o, dim: int):
    if sum(getattr(o, name) is not None for name in ("grid", "ball", "sphere")) > 1:
        raise UsageError("give at most one of --grid/--ball/--sphere")
    if o.grid is not None:
        bounds, res = o.grid
        if len(bounds) != 2 * dim:
            raise UsageError(
                f"--grid needs lo,hi per axis plus a resolution ({2 * dim + 1} "
                f"numbers for dim {dim})"
            )
        return GridSampler(tuple(zip(bounds[::2], bounds[1::2])), res)
    if o.sphere is not None:
        return SphereSampler(*o.sphere, seed=o.seed)
    return BallSampler(*(o.ball or (5.0, 2000)), seed=o.seed)


def _needs_omega(o, what: str) -> OmegaPoly:
    if o.omega is None:
        raise UsageError(f"{what} needs --omega")
    return o.omega


def _aux(o, m, x0, x1):
    if o.k == "logh":
        return certify_mod.aux_log_h(o.a, o.b, o.c, x0, x1, m)
    if o.k == "hadamard":
        return certify_mod.aux_hadamard(_needs_omega(o, "--k hadamard"))
    return certify_mod.aux_log_coercive(m)


# --- output ------------------------------------------------------------------


def _strict(v):
    """Encode non-finite floats as the strings "inf", "-inf" and "nan"."""
    if isinstance(v, float) and not math.isfinite(v):
        return str(float(v))
    if isinstance(v, dict):
        return {k: _strict(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_strict(x) for x in v]
    return v


def _emit(doc, out_path: str | None) -> None:
    """A dict becomes one stamped JSON document; a list, one object per line."""
    if isinstance(doc, list):
        text = "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in doc)
    else:
        doc = dict(doc, schema=SCHEMA,
                   timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"))
        text = json.dumps(_strict(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- subcommands: parsed options -> (document, exit code) ---------------------


def cmd_solve(o):
    m = _build_map(o)
    traj, x, rnorm = _flow_then_polish(m, o.start, o.target, _flow_opts(o))
    if o.traj:
        traj.to_csv(o.traj)
    s = traj.summary()
    doc = {"command": "solve", "map": m.name, "seed": o.seed,
           **{k: s[k] for k in ("status", "steps", "t_final")}}
    if x is None:
        return {**doc, "final_x": s["final_x"], "final_residual": s["final_residual"]}, 2
    return {**doc, "x": [float(v) for v in x], "max_drift": s["max_drift"],
            "residual": rnorm}, 0


def cmd_certify(o):
    m = _build_map(o)
    seed = o.seed
    x0 = np.zeros(m.dim) if o.x0 is None else o.x0
    x1 = np.zeros(m.dim) if o.x1 is None else o.x1

    if o.criterion == "inverse-bound":
        sup = certify_mod.check_bounded_inverse_on_ball(m, o.r, count=o.count, seed=seed)
        return {
            "command": "certify",
            "map": m.name,
            "criterion": "inverse-bound",
            "value": sup.value,
            "witness": None if sup.witness is None else [float(v) for v in sup.witness],
            "samples_used": sup.samples_used,
            "seed": seed,
        }, 0
    if o.criterion == "thm21":
        aux = _aux(o, m, x0, x1)
        cert = certify_mod.check_theorem21(m, x0, aux, _sampler(o, m.dim), seed=seed)
    elif o.criterion == "cor22":
        cert = certify_mod.check_cor22(m, x0, x1, o.a, o.b, o.c, _sampler(o, m.dim), seed=seed)
    elif o.criterion == "thm31":
        aux = _aux(o, m, x0, x1)
        cert = certify_mod.check_theorem31(m, aux, _sampler(o, m.dim), n_dirs=o.dirs, seed=seed)
    elif o.criterion == "hadamard":
        omega = _needs_omega(o, "--criterion hadamard")
        cert = certify_mod.check_hadamard(m, omega, _sampler(o, m.dim), seed=seed)
    elif o.criterion == "coercive":
        cert = certify_mod.check_coercive_map(
            m, radii=o.radii or None, samples_per_sphere=o.spc, seed=seed,
            growth_factor=o.growth_factor,
        )
    else:  # ball
        cert = certify_mod.check_ball_criterion(m, x0, o.r, o.count, seed=seed)
    return {"command": "certify", "map": m.name, **cert.to_json_dict()}, _VERDICT_EXIT[cert.verdict]


def cmd_basin(o):
    m = _build_map(o)
    grid = basin_mod.scan_basin(m, o.x0, o.box, o.res, opts=_flow_opts(o), workers=o.workers)
    if o.grid_out:
        basin_mod.export_grid(grid, o.grid_out, o.format)

    doc = {
        "command": "basin",
        "map": m.name,
        "box": list(grid.box),
        "nx": grid.nx,
        "ny": grid.ny,
        "counts": grid.status_counts(),
        "seed": o.seed,
        "grid_out": o.grid_out,
    }
    if o.probe > 0:
        rep = basin_mod.injectivity_probe(grid, m, pairs=o.probe, seed=o.seed)
        doc["injectivity"] = rep.to_json_dict()
    return doc, 0


def _pipeline_deviation(m, pts, f0) -> float:
    """Largest relative deviation of x . F(x) (``m``'s Newton field toward f0) from
    zampieri_radial(x) over the rows of ``pts``; NaN deviations are left out, and
    a point without a field (a degenerate perturbation) deviates without bound."""
    worst = 0.0
    for block, fields, ok, _ in newton_fields(m, pts, f0):
        if not ok.all():
            worst = math.inf
        x = block[ok]
        with np.errstate(all="ignore"):
            lhs = np.vecdot(x, fields[ok])
            ref = zampieri_radial(x)
            rel = np.abs(lhs - ref) / (1.0 + np.maximum(np.abs(lhs), np.abs(ref)))
        worst = float(np.fmax.reduce(rel, initial=worst))
    return worst


def cmd_verify_ex5(o):
    """Run the end-to-end battery for the planar oracle map."""
    seed = o.seed
    m = builtin("zampieri-ex5")
    probe_map = m.with_perturbed_jacobian(o.perturb_jacobian) if o.perturb_jacobian != 0.0 else m
    f0 = m.eval((0.0, 0.0))
    checks = []

    # 1. pipeline (dense solve) against the closed-form radial product
    worst = _pipeline_deviation(probe_map, BallSampler(5.0, o.samples, seed=seed).points(2), f0)
    checks.append({
        "name": "pipeline-oracle",
        "passed": bool(worst <= 1e-9),
        "max_relative_deviation": worst,
        "samples": o.samples,
    })

    # 2. the quadratic growth inequality on the grid
    cert = certify_mod.check_cor22(
        probe_map, (0, 0), (0, 0), 1.0, 1.0, 0.0,
        GridSampler(((-5, 5), (-5, 5)), o.grid_res), seed=seed,
    )
    checks.append({
        "name": "quadratic-growth-grid",
        "passed": bool(cert.verdict is Verdict.SATISFIED),
        "verdict": cert.verdict.value,
        "violations": cert.stats.get("violations"),
        "grid_res": o.grid_res,
    })

    # 3. non-surjectivity witness: the first component stays positive
    n_pos = o.positive_samples
    rng2 = np.random.default_rng(seed + 1)
    pts = rng2.uniform(-8.0, 8.0, size=(n_pos, 2))
    min_first = min(float(m.eval_rows(pts[lo:lo + FIELD_BLOCK])[:, 0].min())
                    for lo in range(0, n_pos, FIELD_BLOCK))
    checks.append({
        "name": "positive-first-component",
        "passed": bool(min_first > 0.0),
        "min_first_component": min_first,
        "samples": n_pos,
    })

    # 4. flow convergence with the exponential-decay identity
    traj = integrate(probe_map, (1.0, 1.0), f0, FlowOptions())
    drift = decay_drift(traj)
    dirdev = direction_deviation(traj)
    checks.append({
        "name": "flow-decay",
        "passed": bool(
            traj.status is FlowStatus.CONVERGED and drift <= 1e-6 and dirdev <= 1e-5
        ),
        "status": traj.status.value,
        "max_drift": drift,
        "direction_deviation": dirdev,
        "steps": traj.steps,
    })

    # 5. sign profile of (x . F) on circles: reported, not gated
    profile = []
    for i, r in enumerate((0.5, 1.0, 2.0, 5.0)):
        c = certify_mod.check_ball_criterion(m, (0.0, 0.0), r, 2000, seed=seed + i)
        profile.append({
            "radius": r,
            "min": c.stats["min"],
            "max": c.stats["max"],
            "all_nonpositive": c.verdict is Verdict.SATISFIED,
        })

    failed = [c["name"] for c in checks if not c["passed"]]
    doc = {
        "command": "verify-ex5",
        "map": "zampieri-ex5",
        "checks": checks,
        "sign_profile": profile,
        "perturb_jacobian": o.perturb_jacobian,
        "ok": not failed,
        "failed": failed,
        "seed": seed,
    }
    return doc, 0 if not failed else 5


def cmd_list_maps(o):
    return list_maps(), 0


# --- driver ------------------------------------------------------------------


def _build_parser() -> _Parser:
    p = _Parser(prog="newtonflow", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command")
    for command, fields in _FIELDS.items():
        sp = sub.add_parser(command, help=f"{command} subcommand")
        for name, default, help_text, _ in fields:
            suffix = "" if default in (None, "") else f" (default: {default})"
            sp.add_argument(f"--{name}", default=None, help=help_text + suffix)
        sp.add_argument("--config", default=None,
                        help="plain-text config file with key = value defaults")
        sp.add_argument("--dump-config", default=None,
                        help="write the fully resolved config here")
    return p


_COMMANDS = {
    "solve": cmd_solve,
    "certify": cmd_certify,
    "basin": cmd_basin,
    "verify-ex5": cmd_verify_ex5,
    "list-maps": cmd_list_maps,
}


def _is_number_like(tok: str) -> bool:
    """A digit anywhere (vectors, boxes) or a float() literal (-inf, -nan)."""
    if any(ch.isdigit() for ch in tok):
        return True
    try:
        float(tok)
    except ValueError:
        return False
    return True


def _normalize_argv(argv) -> list:
    """Join ``--flag -5,...`` into ``--flag=-5,...``.

    argparse would otherwise read a leading-minus numeric value as an
    option name; vectors and boxes routinely start with a negative number,
    and ``-inf`` or ``-nan`` must reach the option's parser to be refused.
    """
    out = []
    for tok in argv:
        flag = out[-1] if out else ""
        if (flag.startswith("--") and "=" not in flag
                and tok.startswith("-") and _is_number_like(tok)):
            out[-1] = f"{flag}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = _normalize_argv(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
        if not args.command:
            raise UsageError("a subcommand is required (see --help)")
        file_cfg = RunConfig(args.command, {})
        if args.config:
            with open(args.config) as fh:
                file_cfg = RunConfig.from_text(fh.read())
        cfg = _resolve(args.command, vars(args), file_cfg)
        if args.dump_config:
            with open(args.dump_config, "w") as fh:
                fh.write(cfg.to_text())
        opts = _parse(cfg)
        # every non-finite value ends as a status, a skip or "inf"; numpy's
        # overflow and invalid-value warnings would only add noise to stderr
        with np.errstate(all="ignore"):
            doc, code = _COMMANDS[args.command](opts)
        _emit(doc, getattr(opts, "out", None))
        return code
    except (UsageError, ValueError, OSError, *SAMPLE_ERRORS) as e:
        # input-caused failures; SAMPLE_ERRORS here come from a point the
        # user gave (a start, target or base point), sampled points are skipped
        sys.stderr.write(f"error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
