"""One measurement process of the benchmark; ``run.py`` starts it.

    worker.py setup  WORKLOAD INPUTS WORKDIR
    worker.py timed  WORKLOAD INPUTS WORKDIR SECONDS
    worker.py traced WORKLOAD INPUTS WORKDIR TRACE_ID SPANS_PATH

``setup`` is a fresh interpreter that imports newtonflow and builds the
workload, then exits.  ``timed`` repeats the workload with tracing off for
SECONDS (at least MIN_PASSES times) and reports every pass.
``traced`` runs the workload once untraced and once traced, writes the
spans to SPANS_PATH, then measures the fixed-input layer rows.  Each mode
prints one JSON object on stdout.
"""

import json
import sys
import time

t_start = time.perf_counter()
import newtonflow  # noqa: E402

IMPORT_S = time.perf_counter() - t_start

import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)  # joined pool workers
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def _peak_rss_mb(workers: int) -> float:
    """Own peak plus ``workers`` times the largest pool worker's peak.

    Forked workers count the pages they share with the parent too, so this
    is the sum of per-process peaks, an upper bound on the joint peak.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * worker if worker else 0)) / 1024.0


def _outcome(outs) -> dict:
    problems = [p for o in outs for p in o.problems][:8]
    return {"attempted": sum(o.attempted for o in outs),
            "failed": sum(o.failed for o in outs),
            "problems": problems}


def setup(workload, inputs, workdir):
    import numpy
    import scipy

    WORKLOADS[workload](inputs, workdir)
    return {"import_s": IMPORT_S, "modules": len(sys.modules),
            "newtonflow": newtonflow.__file__,
            "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                         "scipy": scipy.__version__}}


def timed(workload, inputs, workdir, seconds):
    w = WORKLOADS[workload](inputs, workdir)
    deadline = time.perf_counter() + float(seconds)
    walls, cpus, outs = [], [], []
    # stop before a pass that would end past the deadline, unless fewer
    # than MIN_PASSES have run
    while len(walls) < MIN_PASSES or time.perf_counter() + statistics.median(walls) <= deadline:
        c0 = _cpu_s()
        t0 = time.perf_counter()
        outs.append(w.run())
        walls.append(time.perf_counter() - t0)
        cpus.append(_cpu_s() - c0)
    return {"wall_s": walls, "cpu_s": cpus,
            "peak_rss_mb": _peak_rss_mb(inputs.get("workers", 0)),
            "solve_ms": [v for o in outs for v in o.solve_ms],
            **_outcome(outs)}


def traced(workload, inputs, workdir, trace_id, spans_path):
    from layers import layer_rows
    from tracing import Tracer

    make = WORKLOADS[workload]
    outs, report = [], {}
    # counters do not cross the process pool, so the traced scan is serial;
    # its untraced twin is the single-process baseline
    serial = {"workers": 1} if workload == "basin-scan" else {}
    if serial:
        t0 = time.perf_counter()
        outs.append(make(inputs, workdir).run())
        pooled_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    untraced = make(inputs, workdir).run(**serial)
    untraced_s = time.perf_counter() - t0
    outs.append(untraced)

    tracer = Tracer(trace_id)
    with tracer.installed():
        w = make(inputs, workdir)
        t0 = time.perf_counter()
        outs.append(w.run(**serial))
        traced_s = time.perf_counter() - t0
    with open(spans_path, "w") as fh:
        json.dump(tracer.dump(), fh)

    rows = layer_rows()
    integ = tracer.named("integrate")
    steps = sum(s.attrs["steps"] for s in integ)
    evals = sum(s.attrs["jac_calls"] for s in integ)
    fn_calls, jac_calls = tracer.fn_calls(), tracer.jac_calls()
    per_layer = {
        "maps.fn_calls": fn_calls,
        "maps.jac_calls": jac_calls,
        "maps.eval_calls": tracer.eval_calls,
        "maps.raw_s": 1e-6 * (fn_calls * rows["maps.fn_us"] + jac_calls * rows["maps.jac_us"]),
        **rows,
        "flow.integrate_calls": len(integ),
        "flow.accepted_steps": steps,
        "flow.field_evals": evals,
        "flow.evals_per_step": evals / steps,
        "flow.step_us": 1e6 * tracer.total("integrate") / steps,
        "flow.integrate_ms_p50": tracer.median_ms("integrate"),
        "flow.newton_field_calls": len(tracer.named("newton_field")),
        "trace.overhead_s": traced_s - untraced_s,
    }
    report.update({f"{layer}.self_s": v for layer, v in tracer.layer_self_times().items()})
    if workload == "basin-scan":
        cells = inputs["res"] ** 2 * len(inputs["x0"])
        scan_s = tracer.total("scan_basin")
        report.update({
            "basin.scan_s": scan_s,
            "basin.probe_s": tracer.total("injectivity_probe"),
            "basin.export_s": tracer.total("export_grid"),
            "basin.cells_per_s": cells / scan_s,
            "basin.pooled_s": pooled_s,
            "basin.serial_scan_s": untraced_s,
            "basin.parallel_efficiency": untraced_s / (inputs["workers"] * pooled_s),
        })
    if workload == "solve-batch":
        report["flow.polish_ms_p50"] = tracer.median_ms("solve_inverse", self_only=True)
    if workload == "verify-ex5":
        certs = tracer.named("check_cor22") + tracer.named("check_ball_criterion")
        cert_s = sum(s.duration for s in certs)
        report.update({
            "certify.cor22_s": tracer.total("check_cor22"),
            "certify.ball_s": tracer.total("check_ball_criterion"),
            "certify.samples_per_s": sum(s.attrs["samples_used"] for s in certs) / cert_s,
            "certify.samples_skipped": sum(s.attrs["samples_skipped"] for s in certs),
            "cli.self_s": sum(tracer.self_times("cli.main")),
        })
    return {"per_layer": per_layer, "report": report, "untraced_s": untraced_s,
            "traced_s": traced_s, "solve_ms": untraced.solve_ms, **_outcome(outs)}


if __name__ == "__main__":
    mode, workload, inputs_path, workdir, *rest = sys.argv[1:]
    with open(inputs_path) as fh:
        inputs = json.load(fh)
    result = {"setup": setup, "timed": timed, "traced": traced}[mode](
        workload, inputs, workdir, *rest)
    print(json.dumps(result))
