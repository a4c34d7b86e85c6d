"""Command-line interface: solve, certify, basin, verify-ex5, list-maps.

Conventions:

- vectors are comma-separated decimals (``--target 1,0``), matrices
  row-major (``--A 1,0,0,1``), growth bounds are tagged families
  (``const:c``, ``affine:a,b``, ``poly:c0,c1,c2``);
- a plain-text config file (``key = value`` lines, ``#`` comments) supplies
  defaults, command-line flags win;
- results are JSON on stdout (or ``--out``), with a ``schema`` version and a
  ``timestamp`` field; everything else is byte-reproducible given ``--seed``.

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
    FlowOptions,
    FlowStatus,
    _newton_polish,
    decay_drift,
    direction_deviation,
    integrate,
    newton_fields,
)
from .maps import UnknownMapError, builtin, list_maps

SCHEMA = 1

_VERDICT_EXIT = {Verdict.SATISFIED: 0, Verdict.VIOLATED: 3, Verdict.INCONCLUSIVE: 4}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; 2 is reserved for flow
    # failures here, so usage problems are rerouted to exit code 1
    def error(self, message):
        raise UsageError(message)


# --- option grammar ----------------------------------------------------------

_COMMON = [
    ("seed", "0", "seed for every randomized component"),
    ("out", "", "write the JSON result here instead of stdout"),
]

_MAP_FIELDS = [
    ("map", None, "registry key (see list-maps)"),
    ("dim", "", "dimension, for maps that take one"),
    ("A", "", "row-major matrix for --map linear"),
    ("eps", "", "cubic coefficient for --map rot-poly2d"),
]

_FLOW_FIELDS = [
    ("abs-tol", "1e-10", "integrator absolute tolerance"),
    ("rel-tol", "1e-10", "integrator relative tolerance"),
    ("t-max", "40", "flow-time horizon"),
    ("blowup-radius", "1e8", "norm threshold for blow-up"),
    ("residual-tol", "1e-9", "convergence threshold on ||f(x)-y*||"),
    ("max-steps", "100000", "step-attempt budget"),
]

_FIELDS = {
    "solve": _MAP_FIELDS + [
        ("target", None, "target vector y*"),
        ("start", None, "initial point"),
        ("traj", "", "also write the trajectory CSV here"),
    ] + _FLOW_FIELDS + _COMMON,
    "certify": _MAP_FIELDS + [
        ("criterion", None,
         "thm21 | cor22 | thm31 | hadamard | coercive | ball | inverse-bound"),
        ("a", "0", "constant a"),
        ("b", "0", "constant b"),
        ("c", "0", "constant c"),
        ("x0", "", "base point x0 (defaults to the origin)"),
        ("x1", "", "center x1 (defaults to the origin)"),
        ("k", "logh", "auxiliary function: logh | hadamard | logcoercive"),
        ("omega", "", "growth bound, e.g. const:1, affine:1,2, poly:1,0,1"),
        ("grid", "", "grid sampler: lo,hi per axis then resolution"),
        ("ball", "", "ball sampler: radius,count"),
        ("sphere", "", "sphere sampler: radius,count"),
        ("radii", "", "sphere radii for coercive/hadamard evidence"),
        ("spc", "128", "samples per sphere (coercive)"),
        ("dirs", "16", "random directions (thm31)"),
        ("r", "1", "ball/sphere radius (ball, inverse-bound)"),
        ("count", "512", "sample count (ball, inverse-bound)"),
        ("growth-factor", "10", "required growth of min ||f|| (coercive)"),
    ] + _COMMON,
    "basin": _MAP_FIELDS + [
        ("x0", None, "flow target seed point"),
        ("box", "-4,4,-4,4", "scan box xmin,xmax,ymin,ymax"),
        ("res", "101", "grid resolution (nx or nx,ny)"),
        ("workers", "", "process pool size (default: CPU count)"),
        ("format", "csv", "grid export format: csv | json"),
        ("probe", "0", "injectivity probe pairs (0 = off)"),
        ("grid-out", "", "write the per-cell grid here"),
    ] + [
        # scans run at the looser scan tolerances
        (name, "1e-6" if name in ("abs-tol", "rel-tol") else default, help_text)
        for name, default, help_text in _FLOW_FIELDS
    ] + _COMMON,
    "verify-ex5": [
        ("samples", "10000", "points for the pipeline-vs-closed-form oracle"),
        ("grid-res", "201", "resolution of the growth-inequality grid"),
        ("positive-samples", "100000", "points for the range-sign witness"),
        ("perturb-jacobian", "0", "fault-injection: scale the Jacobian by 1+eps"),
    ] + _COMMON,
    "list-maps": [],
}


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
        command = None
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
        if command is None:
            command = ""
        return cls(command, values)


def _resolve(command: str, cli_values: dict, config_values: dict) -> RunConfig:
    values = {}
    for name, default, _help in _FIELDS[command]:
        v = cli_values.get(name)
        if v is None:
            v = config_values.get(name)
        if v is None:
            v = default
        if v is None:
            raise UsageError(f"missing required option --{name}")
        values[name] = v
    return RunConfig(command, values)


# --- value parsing -----------------------------------------------------------


def _floats(text: str, what: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise UsageError(f"cannot parse {what}: {text!r}") from None


def _vec(text: str, what: str) -> np.ndarray:
    vals = _floats(text, what)
    if not vals:
        raise UsageError(f"{what} must not be empty")
    return np.array(vals)


def _matrix(text: str) -> np.ndarray:
    vals = _floats(text, "matrix")
    n = math.isqrt(len(vals))
    if n * n != len(vals):
        raise UsageError(f"matrix needs a square number of entries, got {len(vals)}")
    return np.array(vals).reshape(n, n)


def _omega(text: str) -> OmegaPoly:
    if ":" not in text:
        raise UsageError(f"omega must look like const:c, affine:a,b or poly:c0,c1,c2 (got {text!r})")
    tag, body = text.split(":", 1)
    coeffs = _floats(body, "omega coefficients")
    if tag not in ("const", "affine", "poly"):
        raise UsageError(f"unknown omega family {tag!r}")
    if tag == "const" and len(coeffs) != 1:
        raise UsageError("const takes one coefficient")
    if tag == "affine" and len(coeffs) != 2:
        raise UsageError("affine takes two coefficients")
    return OmegaPoly(coeffs)


def _build_map(cfg: RunConfig):
    key = cfg.values["map"]
    kwargs = {}
    if cfg.values.get("A"):
        kwargs["a"] = _matrix(cfg.values["A"])
    if cfg.values.get("eps"):
        kwargs["eps"] = float(cfg.values["eps"])
    dim = int(cfg.values["dim"]) if cfg.values.get("dim") else None
    try:
        return builtin(key, dim=dim, **kwargs)
    except UnknownMapError:
        raise UsageError(f"unknown map {key!r}; see list-maps") from None
    except TypeError as e:  # a parameter the map does not take
        raise UsageError(str(e)) from None


def _flow_options(cfg: RunConfig) -> FlowOptions:
    v = cfg.values
    return FlowOptions(
        abs_tol=float(v["abs-tol"]),
        rel_tol=float(v["rel-tol"]),
        t_max=float(v["t-max"]),
        blowup_radius=float(v["blowup-radius"]),
        residual_tol=float(v["residual-tol"]),
        max_steps=int(v["max-steps"]),
    )


def _sampler(cfg: RunConfig, dim: int, seed: int):
    chosen = [name for name in ("grid", "ball", "sphere") if cfg.values.get(name)]
    if len(chosen) > 1:
        raise UsageError("give at most one of --grid/--ball/--sphere")
    if not chosen:
        return BallSampler(5.0, 2000, seed=seed)
    kind = chosen[0]
    vals = _floats(cfg.values[kind], f"{kind} sampler")
    if kind == "grid":
        if len(vals) != 2 * dim + 1:
            raise UsageError(
                f"--grid needs lo,hi per axis plus a resolution ({2 * dim + 1} "
                f"numbers for dim {dim})"
            )
        box = tuple((vals[2 * i], vals[2 * i + 1]) for i in range(dim))
        return GridSampler(box, int(vals[-1]))
    if len(vals) != 2:
        raise UsageError(f"--{kind} needs radius,count")
    if kind == "ball":
        return BallSampler(vals[0], int(vals[1]), seed=seed)
    return SphereSampler(vals[0], int(vals[1]), seed=seed)


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


def _emit(doc: dict, out_path: str) -> None:
    doc = dict(doc)
    doc["schema"] = SCHEMA
    doc["timestamp"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    text = json.dumps(_strict(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- subcommands -------------------------------------------------------------


def cmd_solve(cfg: RunConfig) -> int:
    m = _build_map(cfg)
    target = _vec(cfg.values["target"], "--target")
    start = _vec(cfg.values["start"], "--start")
    opts = _flow_options(cfg)

    traj = integrate(m, start, target, opts)
    if cfg.values.get("traj"):
        traj.to_csv(cfg.values["traj"])

    if traj.status is FlowStatus.CONVERGED:
        x = _newton_polish(m, traj.final_state, target)
        residual = float(np.linalg.norm(m.eval(x) - target))
        _emit(
            {
                "command": "solve",
                "map": m.name,
                "status": traj.status.value,
                "x": [float(v) for v in x],
                "residual": residual,
                "steps": traj.steps,
                "t_final": traj.t_final,
                "max_drift": decay_drift(traj),
                "seed": int(cfg.values["seed"]),
            },
            cfg.values["out"],
        )
        return 0
    _emit(
        {
            "command": "solve",
            "map": m.name,
            "status": traj.status.value,
            "final_x": [float(v) for v in traj.final_state],
            "final_residual": traj.final_residual_norm,
            "steps": traj.steps,
            "t_final": traj.t_final,
            "seed": int(cfg.values["seed"]),
        },
        cfg.values["out"],
    )
    return 2


def _aux_from_config(cfg: RunConfig, m, x0, x1, seed: int):
    kind = cfg.values["k"]
    if kind == "logh":
        return certify_mod.aux_log_h(
            float(cfg.values["a"]), float(cfg.values["b"]), float(cfg.values["c"]),
            x0, x1, m,
        )
    if kind == "hadamard":
        if not cfg.values.get("omega"):
            raise UsageError("--k hadamard needs --omega")
        return certify_mod.aux_hadamard(_omega(cfg.values["omega"]))
    if kind == "logcoercive":
        return certify_mod.aux_log_coercive(m)
    raise UsageError(f"unknown auxiliary function {kind!r}")


def cmd_certify(cfg: RunConfig) -> int:
    m = _build_map(cfg)
    seed = int(cfg.values["seed"])
    criterion = cfg.values["criterion"]
    zeros = "0," * (m.dim - 1) + "0"
    x0 = _vec(cfg.values.get("x0") or zeros, "--x0")
    x1 = _vec(cfg.values.get("x1") or zeros, "--x1")
    radii = _floats(cfg.values["radii"], "--radii") if cfg.values.get("radii") else None

    if criterion == "thm21":
        aux = _aux_from_config(cfg, m, x0, x1, seed)
        cert = certify_mod.check_theorem21(m, x0, aux, _sampler(cfg, m.dim, seed), seed=seed)
    elif criterion == "cor22":
        cert = certify_mod.check_cor22(
            m, x0, x1,
            float(cfg.values["a"]), float(cfg.values["b"]), float(cfg.values["c"]),
            _sampler(cfg, m.dim, seed), seed=seed,
        )
    elif criterion == "thm31":
        aux = _aux_from_config(cfg, m, x0, x1, seed)
        cert = certify_mod.check_theorem31(
            m, aux, _sampler(cfg, m.dim, seed),
            n_dirs=int(cfg.values["dirs"]), seed=seed,
        )
    elif criterion == "hadamard":
        if not cfg.values.get("omega"):
            raise UsageError("--criterion hadamard needs --omega")
        cert = certify_mod.check_hadamard(
            m, _omega(cfg.values["omega"]), _sampler(cfg, m.dim, seed),
            radii=radii, seed=seed,
        )
    elif criterion == "coercive":
        cert = certify_mod.check_coercive_map(
            m, radii=radii or (1.0, 2.0, 4.0, 8.0, 16.0),
            samples_per_sphere=int(cfg.values["spc"]), seed=seed,
            growth_factor=float(cfg.values["growth-factor"]),
        )
    elif criterion == "ball":
        cert = certify_mod.check_ball_criterion(
            m, x0, float(cfg.values["r"]), int(cfg.values["count"]), seed=seed,
        )
    elif criterion == "inverse-bound":
        sup = certify_mod.check_bounded_inverse_on_ball(
            m, float(cfg.values["r"]), count=int(cfg.values["count"]), seed=seed,
        )
        _emit(
            {
                "command": "certify",
                "map": m.name,
                "criterion": "inverse-bound",
                "value": sup.value,
                "witness": None if sup.witness is None else [float(v) for v in sup.witness],
                "samples_used": sup.samples_used,
                "seed": seed,
            },
            cfg.values["out"],
        )
        return 0
    else:
        raise UsageError(f"unknown criterion {criterion!r}")

    doc = {"command": "certify", "map": m.name}
    doc.update(cert.to_json_dict())
    _emit(doc, cfg.values["out"])
    return _VERDICT_EXIT[cert.verdict]


def cmd_basin(cfg: RunConfig) -> int:
    m = _build_map(cfg)
    x0 = _vec(cfg.values["x0"], "--x0")
    box = _floats(cfg.values["box"], "--box")
    if len(box) != 4:
        raise UsageError("--box needs xmin,xmax,ymin,ymax")
    res_vals = [int(v) for v in cfg.values["res"].split(",")]
    res = res_vals[0] if len(res_vals) == 1 else tuple(res_vals[:2])
    workers = int(cfg.values["workers"]) if cfg.values.get("workers") else None
    opts = _flow_options(cfg)

    grid = basin_mod.scan_basin(m, x0, box, res, opts=opts, workers=workers)
    if cfg.values.get("grid-out"):
        basin_mod.export_grid(grid, cfg.values["grid-out"], cfg.values["format"])

    doc = {
        "command": "basin",
        "map": m.name,
        "box": list(grid.box),
        "nx": grid.nx,
        "ny": grid.ny,
        "counts": grid.status_counts(),
        "seed": int(cfg.values["seed"]),
        "grid_out": cfg.values.get("grid-out") or None,
    }
    pairs = int(cfg.values["probe"])
    if pairs > 0:
        rep = basin_mod.injectivity_probe(grid, m, pairs=pairs, seed=int(cfg.values["seed"]))
        doc["injectivity"] = rep.to_json_dict()
    _emit(doc, cfg.values["out"])
    return 0


def cmd_verify_ex5(cfg: RunConfig) -> int:
    """Run the end-to-end battery for the planar oracle map."""
    seed = int(cfg.values["seed"])
    perturb = float(cfg.values["perturb-jacobian"])
    if not math.isfinite(perturb):
        raise UsageError(f"perturb-jacobian must be finite, got {cfg.values['perturb-jacobian']}")
    n_pos = int(cfg.values["positive-samples"])
    if n_pos < 1:
        raise UsageError("positive-samples must be >= 1")
    m = builtin("zampieri-ex5")
    probe_map = m.with_perturbed_jacobian(perturb) if perturb != 0.0 else m
    f0 = m.eval((0.0, 0.0))
    checks = []

    # 1. pipeline (dense solve) against the closed-form radial product; a
    # point without a field (a degenerate perturbation) deviates without bound
    n = int(cfg.values["samples"])
    worst = 0.0
    for x, f_vec in newton_fields(probe_map, BallSampler(5.0, n, seed=seed).points(2), f0):
        if f_vec is None:
            worst = math.inf
            continue
        lhs = float(x @ f_vec)
        ref = m.radial_origin(x)
        worst = max(worst, abs(lhs - ref) / (1.0 + max(abs(lhs), abs(ref))))
    checks.append({
        "name": "pipeline-oracle",
        "passed": bool(worst <= 1e-9),
        "max_relative_deviation": worst,
        "samples": n,
    })

    # 2. the quadratic growth inequality on the grid
    res = int(cfg.values["grid-res"])
    cert = certify_mod.check_cor22(
        probe_map, (0, 0), (0, 0), 1.0, 1.0, 0.0,
        GridSampler(((-5, 5), (-5, 5)), res), seed=seed,
    )
    checks.append({
        "name": "quadratic-growth-grid",
        "passed": bool(cert.verdict is Verdict.SATISFIED),
        "verdict": cert.verdict.value,
        "violations": cert.stats.get("violations"),
        "grid_res": res,
    })

    # 3. non-surjectivity witness: the first component stays positive
    rng2 = np.random.default_rng(seed + 1)
    pts = rng2.uniform(-8.0, 8.0, size=(n_pos, 2))
    min_first = min(min(m.eval_rows(pts[lo:lo + FIELD_BLOCK])[:, 0].tolist())
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
            "all_nonpositive": bool(c.stats["max"] <= 1e-9),
        })

    failed = [c["name"] for c in checks if not c["passed"]]
    doc = {
        "command": "verify-ex5",
        "map": "zampieri-ex5",
        "checks": checks,
        "sign_profile": profile,
        "perturb_jacobian": perturb,
        "ok": not failed,
        "failed": failed,
        "seed": seed,
    }
    _emit(doc, cfg.values["out"])
    return 0 if not failed else 5


def cmd_list_maps(cfg: RunConfig) -> int:
    for entry in list_maps():
        sys.stdout.write(json.dumps(entry, sort_keys=True) + "\n")
    return 0


# --- driver ------------------------------------------------------------------


def _build_parser() -> _Parser:
    p = _Parser(prog="newtonflow", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command")
    for command, fields in _FIELDS.items():
        sp = sub.add_parser(command, help=f"{command} subcommand")
        for name, default, help_text in fields:
            suffix = "" if default in (None, "") else f" (default: {default})"
            sp.add_argument(f"--{name}", default=None, help=help_text + suffix)
        sp.add_argument("--config", default=None,
                        help="plain-text config file with key = value defaults")
        sp.add_argument("--dump-config", default=None,
                        help="write the fully resolved config here")
    return p


_DISPATCH = {
    "solve": cmd_solve,
    "certify": cmd_certify,
    "basin": cmd_basin,
    "verify-ex5": cmd_verify_ex5,
    "list-maps": cmd_list_maps,
}


def _normalize_argv(argv) -> list:
    """Join ``--flag -5,...`` into ``--flag=-5,...``.

    argparse would otherwise read a leading-minus numeric value as an
    option name; vectors and boxes routinely start with a negative number.
    """
    out = []
    i = 0
    argv = list(argv)
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok.startswith("--")
            and "=" not in tok
            and nxt is not None
            and nxt.startswith("-")
            and any(ch.isdigit() for ch in nxt)
        ):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _normalize_argv(argv)
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("a subcommand is required (see --help)")
        config_values = {}
        if getattr(args, "config", None):
            try:
                with open(args.config) as fh:
                    config_values = RunConfig.from_text(fh.read()).values
            except OSError as e:
                raise UsageError(f"cannot read config: {e}") from None
        cli_values = {
            name: getattr(args, name.replace("-", "_"))
            for name, _d, _h in _FIELDS[args.command]
        }
        cfg = _resolve(args.command, cli_values, config_values)
        if getattr(args, "dump_config", None):
            with open(args.dump_config, "w") as fh:
                fh.write(cfg.to_text())
        return _DISPATCH[args.command](cfg)
    except (UsageError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
