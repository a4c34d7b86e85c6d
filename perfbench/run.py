"""newtonflow benchmark runner.

    python3 perfbench/run.py --workload basin-scan --seed 1 --seconds 30 --trace 0

Run from the repository root.  The seed draws the workload's inputs; the
program receives only those inputs.  With ``--trace 0`` the end-to-end
metrics of BENCHMARK.json are measured with tracing off; with ``--trace 1``
a separate traced run gives the per-layer metrics.  Human-readable lines go
first, and the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Load is closed-loop from one caller; the only parallelism is the basin
scan's own process pool, sized to the CPU count.  Every measurement runs in
a child process (worker.py) with BLAS and OpenMP limited to one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
BUDGET_S = 170.0      # the whole run, set-up included, ends within this
SETUP_RUNS = 5        # setup_s is the median of this many fresh interpreters
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# work counts that must repeat exactly for a given seed and code
REPEATED_COUNTS = ("maps.fn_calls", "maps.jac_calls", "maps.eval_calls",
                   "flow.accepted_steps", "flow.field_evals", "cli.modules_loaded")

# --- inputs -------------------------------------------------------------------

BASIN_RES = 17
# x0 is drawn once in each quarter of [-1, 1] along its first coordinate:
# the scan's cost follows that coordinate, so one x0 per strip keeps the
# cost of a pass nearly the same for every seed
BASIN_STRIPS = (-1.0, -0.5, 0.0, 0.5)
BASIN_BOX = (-4.0, 4.0, -4.0, 4.0)
PROBE_PAIRS = 100_000
SOLVES_PER_MAP = 100


def _zampieri(x):
    c = math.exp(x[0]) / math.sqrt(1.0 + x[1] * x[1])
    return [c, c * x[1]]


def make_inputs(workload: str, seed: int, workers: int) -> dict:
    """The workload's inputs, drawn from the seed alone.

    Solve targets are evaluated from closed forms here, independently of the
    program's own maps.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "basin-scan":
        return {
            "x0": [[lo + rng.uniform(0.0, 0.5), rng.uniform(-1.0, 1.0)] for lo in BASIN_STRIPS],
            "probe_seed": [rng.randrange(2**31) for _ in BASIN_STRIPS],
            "box": list(BASIN_BOX),
            "res": BASIN_RES,
            "pairs": PROBE_PAIRS,
            "workers": workers,
        }
    if workload == "solve-batch":
        zx = [[rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)] for _ in range(SOLVES_PER_MAP)]
        cx = [[rng.uniform(-3.0, 3.0)] for _ in range(SOLVES_PER_MAP)]
        return {
            "zampieri-ex5": {"x_true": zx, "targets": [_zampieri(x) for x in zx]},
            "cubic1d": {"x_true": cx, "targets": [[x[0] + x[0] ** 3] for x in cx]},
        }
    if workload == "verify-ex5":
        return {"seed": rng.randrange(2**31)}
    raise ValueError(f"unknown workload {workload!r}")


# --- child processes ----------------------------------------------------------


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.update({v: "1" for v in THREAD_VARS})
    return env


def _child(args, deadline: float) -> tuple[dict, float]:
    """Run worker.py with ``args``; return its JSON result and wall time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # the worker and its pool
        proc.communicate()
        raise BenchError(f"{args[0]} run exceeded the {BUDGET_S:.0f} s budget") from None
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} run exited with code {proc.returncode}")
    try:
        return json.loads(out.strip().splitlines()[-1]), wall
    except (IndexError, ValueError):
        raise BenchError(f"{args[0]} run printed no result") from None


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_ms_p50", "ms"),
                         ("_ms_p95", "ms"), ("_s", "s"), ("_mb", "MB"),
                         ("evals_per_step", "evals/step"), ("efficiency", "ratio"),
                         ("error_rate", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def _code_hash() -> str:
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "newtonflow"), HERE):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + fh.read())
    return h.hexdigest()[:16]


def _check_counts(workload: str, seed: int, metrics: dict) -> list[str]:
    """Compare work counts with an earlier traced run of the same code and seed."""
    counts = {k: metrics[k] for k in REPEATED_COUNTS}
    path = os.path.join(WORK, "counts", f"{_code_hash()}-{workload}-{seed}.json")
    if os.path.exists(path):
        with open(path) as fh:
            before = json.load(fh)
        return [f"{k}: {before[k]} then {counts[k]}" for k in counts if before.get(k) != counts[k]]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(counts, fh)
    return []


# --- the run --------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: int, trace: bool, workdir: str) -> dict:
    deadline = time.monotonic() + BUDGET_S
    workers = os.cpu_count() or 1
    inputs_path = os.path.join(workdir, "inputs.json")
    with open(inputs_path, "w") as fh:
        json.dump(make_inputs(workload, seed, workers), fh)
    base = [workload, inputs_path, workdir]

    setups = [_child(["setup", *base], deadline) for _ in range(SETUP_RUNS)]
    first = setups[0][0]
    if not os.path.samefile(os.path.dirname(first["newtonflow"]), os.path.join(SRC, "newtonflow")):
        raise BenchError(f"imported newtonflow from {first['newtonflow']}, not from {SRC}")
    modules = {s["modules"] for s, _ in setups}
    machine = {"nproc": workers, "basin_workers": workers, **first["versions"]}
    print("machine: " + json.dumps(machine, sort_keys=True))

    unsteady = []
    if len(modules) != 1:
        unsteady.append(f"modules loaded differ between set-ups: {sorted(modules)}")
    if not trace:
        res, _ = _child(["timed", *base, seconds], deadline)
        metrics = {
            "setup_s": statistics.median(w for _, w in setups),
            "wall_s": statistics.median(res["wall_s"]),
            "cpu_s": statistics.median(res["cpu_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        report = {"passes": len(res["wall_s"])}
    else:
        spans_path = os.path.join(WORK, "traces", f"{workload}-seed{seed}.json")
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        res, _ = _child(["traced", *base, f"{workload}/seed{seed}", spans_path], deadline)
        metrics = {
            **res["per_layer"],
            "cli.import_s": statistics.median(s["import_s"] for s, _ in setups),
            "cli.modules_loaded": first["modules"],
        }
        report = {**res["report"], "untraced_wall_s": res["untraced_s"],
                  "traced_wall_s": res["traced_s"]}
        print(f"spans: {os.path.relpath(spans_path, ROOT)}")
        unsteady += _check_counts(workload, seed, metrics)
    if res["solve_ms"]:
        report["solve_ms_p50"] = statistics.median(res["solve_ms"])
        report["solve_ms_p95"] = statistics.quantiles(res["solve_ms"], n=20,
                                                      method="inclusive")[-1]
        report["solve_samples"] = len(res["solve_ms"])
    report["error_rate"] = res["failed"] / res["attempted"]
    for note in res["problems"]:
        print(f"FAILED: {note}")
    for note in unsteady:
        print(f"UNSTEADY: {note}")
    return {"correct": res["failed"] == 0 and not unsteady,
            "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics, "report": report}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=("basin-scan", "solve-batch", "verify-ex5"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if not os.path.isfile(os.path.join(SRC, "newtonflow", "__init__.py")):
        print(f"error: no newtonflow sources under {SRC}", file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result["metrics"]
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names) or any(m["unit"] != _unit(m["name"]) for m in wanted):
        print(f"error: measured {sorted(metrics)}, BENCHMARK.json lists {sorted(names)}",
              file=sys.stderr)
        return 1
    for name in names:
        print(f"{args.workload} {name} = {metrics[name]:.6g} {_unit(name)}")
    for name, value in sorted(result["report"].items()):
        print(f"{args.workload} {name} = {value:.6g} {_unit(name)} (report only)")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": metrics[n], "unit": _unit(n)} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
