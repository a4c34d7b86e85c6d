"""Fixed-input layer rows: the per-call cost of each layer's hot entry points.

Inputs are fixed, so the rows do not depend on the workload or the seed.  The
traced run reports them next to the call counts, so a layer's time in a
workload can be read as count x per-call cost.  Standalone:

    PYTHONPATH=src python3 perfbench/layers.py
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

from newtonflow import basin, flow, linalg, maps

X = np.array((0.3, -0.7))
START = np.array((1.0, 1.0))
REPEATS = 9
REPEAT_S = 0.02   # each repeat runs at least this long


def _per_call(call) -> float:
    """Median over REPEATS of the mean time of one call, in seconds."""
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            call()
        elapsed = time.perf_counter() - t0
        if elapsed >= REPEAT_S:
            break
        number *= 2
    samples = [elapsed / number]
    for _ in range(REPEATS - 1):
        t0 = time.perf_counter()
        for _ in range(number):
            call()
        samples.append((time.perf_counter() - t0) / number)
    return statistics.median(samples)


def layer_rows() -> dict[str, float]:
    m = maps.builtin("zampieri-ex5")
    f0 = m.eval((0.0, 0.0))
    jac = m.jacobian(X)
    rhs = f0 - m.eval(X)
    us = 1e6
    ms = 1e3
    return {
        "maps.fn_us": us * _per_call(lambda: m.fn(X)),
        "maps.jac_us": us * _per_call(lambda: m.jac(X)),
        "maps.eval_us": us * _per_call(lambda: m.eval(X)),
        "maps.jacobian_us": us * _per_call(lambda: m.jacobian(X)),
        "linalg.solve_dense_us": us * _per_call(lambda: linalg.solve_dense(jac, rhs)),
        "linalg.spectral_extremes_us": us * _per_call(lambda: linalg.spectral_extremes(jac)),
        "flow.newton_field_us": us * _per_call(lambda: flow.newton_field(m, X, f0)),
        "flow.trajectory_scan_ms":
            ms * _per_call(lambda: flow.integrate(m, START, f0, basin.SCAN_OPTIONS)),
        "flow.trajectory_precise_ms":
            ms * _per_call(lambda: flow.integrate(m, START, f0, flow.FlowOptions())),
    }


if __name__ == "__main__":
    for name, value in layer_rows().items():
        print(json.dumps({"name": name, "value": value}))
