"""Acceptance battery: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import re
import time

import numpy as np

from newtonflow.basin import injectivity_probe, scan_basin
from newtonflow.certify import (
    GridSampler,
    OmegaPoly,
    Verdict,
    aux_log_h,
    check_coercive_map,
    check_cor22,
    check_hadamard,
    dplus,
)
from newtonflow.cli import main as cli_main
from newtonflow.flow import (
    FlowOptions,
    FlowStatus,
    decay_drift,
    direction_deviation,
    integrate,
    newton_field,
    solve_inverse,
)
from newtonflow.maps import builtin, zampieri_radial

ZAMP = builtin("zampieri-ex5")
F_ORIGIN = ZAMP.eval((0.0, 0.0))


def _report(num, name, ok, detail=""):
    flag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{flag}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


def test_01_decay_identity():
    t0 = time.perf_counter()
    traj = integrate(ZAMP, (1.0, 1.0), (1.0, 0.0),
                     FlowOptions(tol=1e-10))
    elapsed = time.perf_counter() - t0
    drift = decay_drift(traj)
    dirdev = direction_deviation(traj)
    ok = (
        traj.status is FlowStatus.CONVERGED
        and drift <= 1e-6
        and dirdev <= 1e-5
        and elapsed < 1.0
    )
    _report(1, "exponential decay identity on the planar oracle flow", ok,
            f"drift={drift:.2e}, angle={dirdev:.2e} rad, {elapsed:.2f}s")


def test_02_radial_product_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        x = rng.standard_normal(2)
        x *= rng.uniform(0.0, 5.0) / max(float(np.linalg.norm(x)), 1e-12)
        lhs = float(x @ newton_field(ZAMP, x, F_ORIGIN))
        ref = float(zampieri_radial(x[None])[0])
        worst = max(worst, abs(lhs - ref) / (1.0 + max(abs(lhs), abs(ref))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    _report(2, "pipeline x.F equals the closed-form radial product", ok,
            f"max rel dev={worst:.2e} over 1e4 points, {elapsed:.2f}s")


def test_03_quadratic_growth_grid_certificate():
    cert = check_cor22(ZAMP, (0, 0), (0, 0), 1.0, 1.0, 0.0,
                       GridSampler(((-5, 5), (-5, 5)), 201))
    ok = (
        cert.verdict is Verdict.SATISFIED
        and cert.stats["violations"] == 0
        and cert.samples_used == 201 * 201
    )
    _report(3, "x.F <= 1 + |x|^2 on the 201x201 grid over [-5,5]^2", ok,
            f"max margin={cert.extremal_value:.3e}")


def test_04_non_surjectivity_witness():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-8.0, 8.0, size=(100_000, 2))
    lo = min(float(ZAMP.eval(p)[0]) for p in pts)
    ok = lo > 0.0
    _report(4, "first component of the oracle map stays positive", ok,
            f"min over 1e5 samples = {lo:.3e}")


def test_05_hadamard_gate():
    good = check_hadamard(builtin("cubic1d"), OmegaPoly([1.0]),
                          GridSampler(((-5, 5),), 201))
    bad = check_hadamard(builtin("arctan1d"), OmegaPoly([1.0, 0.0, 1.0]),
                         GridSampler(((-5, 5),), 201))
    ok = (
        good.verdict is Verdict.SATISFIED
        and good.stats["divergence_decided"] == "symbolic"
        and bad.verdict is Verdict.VIOLATED
        and bad.stats["divergence"] == "converges"
        and bad.stats["divergence_decided"] == "symbolic"
        and bad.stats["pointwise_ok"] is True
    )
    _report(5, "growth-bound gate accepts the cubic, rejects arctan", ok,
            f"arctan integral={bad.stats.get('integral_value', float('nan')):.4f}")


def test_06_coercivity_gate():
    good = check_coercive_map(builtin("rot-poly2d"), seed=3)
    bad = check_coercive_map(ZAMP, seed=3)
    ok = (
        good.verdict is Verdict.SATISFIED
        and bad.verdict is Verdict.VIOLATED
        and bad.witness is not None
        and bad.witness[0] < -3.0
        and abs(bad.witness[1]) < 0.25 * abs(bad.witness[0])
    )
    _report(6, "coercivity gate: rot-poly2d passes, oracle map fails", ok,
            f"flat direction witness={None if bad.witness is None else bad.witness.round(3).tolist()}")


def test_07_global_solve_batch():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    failures = 0
    for _ in range(100):
        x_true = rng.uniform(-3.0, 3.0, size=2)
        y = ZAMP.eval(x_true)
        x = solve_inverse(ZAMP, y, (0.0, 0.0))
        if float(np.linalg.norm(ZAMP.eval(x) - y)) > 1e-9:
            failures += 1
    cubic = builtin("cubic1d")
    for _ in range(100):
        x_true = rng.uniform(-3.0, 3.0, size=1)
        y = cubic.eval(x_true)
        x = solve_inverse(cubic, y, (0.0,))
        if float(np.linalg.norm(cubic.eval(x) - y)) > 1e-9:
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 30.0
    _report(7, "100% success on 200 random global inversions", ok,
            f"failures={failures}, {elapsed:.1f}s")


def test_08_blowup_detection():
    t0 = time.perf_counter()
    traj = integrate(builtin("arctan1d"), (0.0,), (2.0,), FlowOptions())
    elapsed = time.perf_counter() - t0
    ok = (
        traj.status is FlowStatus.BLOWUP
        and abs(traj.final_state[0]) > 1e6
        and elapsed < 1.0
    )
    _report(8, "unreachable target drives the flow to blow-up", ok,
            f"status={traj.status.value}, |x|={abs(traj.final_state[0]):.2e}, {elapsed:.2f}s")


def test_09_basin_scan_full_convergence():
    t0 = time.perf_counter()
    grid = scan_basin(ZAMP, (0.0, 0.0), (-4, 4, -4, 4), 101, workers=2)
    rep = injectivity_probe(grid, ZAMP, pairs=100_000, seed=5)
    elapsed = time.perf_counter() - t0
    counts = grid.status_counts()
    ok = (
        counts == {"converged": 101 * 101}
        and not rep.collision_found
        and rep.pairs_checked == 100_000
        and elapsed < 60.0
    )
    _report(9, "whole 101x101 grid converges; no injectivity collision", ok,
            f"counts={counts}, min ratio={rep.min_ratio:.2e}, {elapsed:.1f}s")


def test_10_proof_constant_consistency():
    k = aux_log_h(1.0, 1.0, 0.0, (0, 0), (0, 0), ZAMP)
    b_norm = k.meta["b"]
    sup = -math.inf
    for x in GridSampler(((-5, 5), (-5, 5)), 201).points(2):
        fv = newton_field(ZAMP, x, F_ORIGIN)
        if not np.any(fv):
            continue
        sup = max(sup, dplus(k, x, fv))
    ok = sup <= b_norm + 1e-6
    _report(10, "sup of D+_F k on the growth grid stays under the proof constant", ok,
            f"sup={sup:.6f} <= b={b_norm}")


def test_11_seeded_cli_determinism(capsys):
    def run(argv):
        code = cli_main(argv)
        out = capsys.readouterr().out
        json.loads(out)  # well-formed before any stripping
        return code, re.sub(r'"timestamp": "[^"]*"', '"timestamp": X', out)

    commands = [
        ["solve", "--map", "zampieri-ex5", "--target", "1,0", "--start", "1,1",
         "--seed", "3"],
        ["certify", "--map", "zampieri-ex5", "--criterion", "coercive", "--seed", "3"],
        ["certify", "--map", "zampieri-ex5", "--criterion", "ball", "--x0", "0,0",
         "--r", "1", "--seed", "3"],
        ["basin", "--map", "zampieri-ex5", "--x0", "0,0", "--box", "-2,2,-2,2",
         "--res", "7", "--workers", "1", "--probe", "500", "--seed", "3"],
        ["verify-ex5", "--samples", "500", "--grid-res", "21",
         "--positive-samples", "1000", "--seed", "3"],
    ]
    identical = True
    for argv in commands:
        c1, o1 = run(argv)
        c2, o2 = run(argv)
        if c1 != c2 or o1 != o2:
            identical = False
            break
    _report(11, "seeded CLI outputs are byte-identical (timestamp excluded)",
            identical)
