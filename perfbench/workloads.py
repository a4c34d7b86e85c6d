"""The benchmark's workloads: build the program objects from generated inputs,
run one pass, and check every output.

Each workload object is built from the JSON-able input dict that ``run.py``
draws from the seed; the program never sees the seed itself.  ``run()``
performs one pass and returns an ``Outcome`` whose failures count against
``error_rate``: a failed check is reported, never dropped.

Maps are built through ``maps.builtin`` and program functions are called
through their modules, so the traced run can swap in counters and spans.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from newtonflow import basin, cli, flow, maps

SOLVE_RESIDUAL_TOL = 1e-9
SOLVE_STATE_TOL = 1e-6   # the maps are injective, so the solution is x_true


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list = field(default_factory=list)   # first few failure notes
    solve_ms: list = field(default_factory=list)

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 8:
            self.problems.append(note)


class BasinScan:
    """``newtonflow basin`` on zampieri-ex5 once per seed point x0: scan,
    injectivity probe and CSV export."""

    def __init__(self, inputs: dict, workdir: str):
        self.map = maps.builtin("zampieri-ex5")
        self.x0s = [np.array(x0) for x0 in inputs["x0"]]
        self.probe_seeds = [int(s) for s in inputs["probe_seed"]]
        self.box = tuple(inputs["box"])
        self.res = int(inputs["res"])
        self.pairs = int(inputs["pairs"])
        self.workers = int(inputs["workers"])
        self.grid_out = os.path.join(workdir, "grid.csv")

    def run(self, workers: int | None = None) -> Outcome:
        out = Outcome(attempted=0, failed=0)
        for x0, probe_seed in zip(self.x0s, self.probe_seeds):
            grid = basin.scan_basin(self.map, x0, self.box, self.res,
                                    workers=workers or self.workers)
            rep = basin.injectivity_probe(grid, self.map, pairs=self.pairs, seed=probe_seed)
            basin.export_grid(grid, self.grid_out)
            self.check(grid, rep, out)
        return out

    def check(self, grid, rep, out: Outcome) -> None:
        cells = self.res * self.res
        out.attempted += cells + self.pairs
        counts = grid.status_counts()
        converged = counts.get("converged", 0)
        if converged != cells:
            out.fail(f"{cells - converged} of {cells} cells did not converge: {counts}",
                     cells - converged)
        if rep.collision_found:
            out.fail(f"{len(rep.collisions)} injectivity collisions", len(rep.collisions))
        if rep.pairs_checked != self.pairs:
            out.fail(f"probe checked {rep.pairs_checked} of {self.pairs} pairs",
                     abs(self.pairs - rep.pairs_checked))
        if basin.load_grid_records(self.grid_out) != grid.records():
            out.fail("exported CSV does not read back as the scanned grid")


class SolveBatch:
    """Serial ``solve_inverse`` calls at the default precise options, from the origin."""

    def __init__(self, inputs: dict, workdir: str):
        self.cases = []
        for key, start in (("zampieri-ex5", (0.0, 0.0)), ("cubic1d", (0.0,))):
            m = maps.builtin(key)
            for x_true, y in zip(inputs[key]["x_true"], inputs[key]["targets"]):
                self.cases.append((m, np.array(y), np.array(start), np.array(x_true)))

    def run(self) -> Outcome:
        out = Outcome(attempted=len(self.cases), failed=0)
        for m, y, start, x_true in self.cases:
            t0 = time.perf_counter()
            try:
                x = flow.solve_inverse(m, y, start)
            except flow.FlowFailure as exc:
                out.fail(f"{m.name} target {y.tolist()}: {exc}")
                continue
            finally:
                out.solve_ms.append(1e3 * (time.perf_counter() - t0))
            residual = float(np.linalg.norm(m.eval(x) - y))
            error = float(np.linalg.norm(x - x_true))
            if not (residual <= SOLVE_RESIDUAL_TOL and error <= SOLVE_STATE_TOL):
                out.fail(f"{m.name} target {y.tolist()}: residual {residual:.3e}, "
                         f"|x - x_true| {error:.3e}")
        return out


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


class VerifyEx5:
    """``newtonflow verify-ex5 --seed s --out file``, in-process."""

    def __init__(self, inputs: dict, workdir: str):
        self.argv = ["verify-ex5", "--seed", str(int(inputs["seed"])),
                     "--out", os.path.join(workdir, "verify-ex5.json")]
        self.out_path = self.argv[-1]

    def run(self) -> Outcome:
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        code = cli.main(self.argv)
        try:
            with open(self.out_path) as fh:
                doc = json.loads(fh.read(), parse_constant=_reject_constant)
            checks = doc["checks"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            out = Outcome(attempted=1, failed=0)
            out.fail(f"exit code {code}, unreadable result: {exc}")
            return out
        out = Outcome(attempted=len(checks), failed=0)
        for c in checks:
            if c.get("passed") is not True:
                out.fail(f"check {c.get('name')!r} failed")
        if out.failed == 0 and (code != 0 or doc.get("ok") is not True):
            out.fail(f"exit code {code}, ok = {doc.get('ok')!r}")
        return out


WORKLOADS = {"basin-scan": BasinScan, "solve-batch": SolveBatch, "verify-ex5": VerifyEx5}

