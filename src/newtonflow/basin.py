"""Basin-of-attraction grid scans for planar Newton flows.

Every cell center of a rectangular grid is flowed toward f(x0); the per-cell
status/convergence-time records probe, empirically, how much of the plane
belongs to the basin of x0 (for maps satisfying the global-inversion
hypotheses the whole grid converges), and feed a pairwise injectivity
falsification probe.

Cells are independent tasks: the scan maps them over a process pool, which
returns results in cell order, so worker count never changes the result.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

# integrate stays importable from here: the benchmark's traced run spans
# basin.integrate
from .flow import (  # noqa: F401
    SCAN_OPTIONS,
    FlowOptions,
    FlowStatus,
    _flow_then_polish,
    _norm,
    integrate,
)
from .maps import C1Map

# ||f(x) - f(x')|| <= SEP_TOL ||x - x'|| flags a pair as an injectivity collision
SEP_TOL = 1e-9

# the fields of one grid record, in order: the CSV header and the JSON cell keys
COLUMNS = ("i", "j", "cx", "cy", "status", "t_conv", "final_residual")


def _centers(lo: float, hi: float, n: int) -> np.ndarray:
    """Centers of the n equal cells that split [lo, hi]."""
    return lo + (np.arange(n) + 0.5) * (hi - lo) / n


@dataclass(frozen=True)
class BasinGrid:
    """Per-cell flow outcomes on a rectangular grid of seed points.

    Cell (i, j) is seeded at its center ``(cx[i], cy[j])``.  A converged
    cell's ``t_conv`` is ln(||r(0)|| / residual_tol), the time at which the
    decay identity reaches residual_tol (0 if it starts within it), and its
    ``final_residual`` that of its Newton-polished point (<= residual_tol).
    Any other cell has NaN ``t_conv`` and the residual where the stepper
    stopped.
    """

    box: tuple[float, float, float, float]
    nx: int
    ny: int
    status: np.ndarray          # (nx, ny) of FlowStatus
    t_conv: np.ndarray          # (nx, ny) float
    final_residual: np.ndarray  # (nx, ny) float

    @property
    def cx(self) -> np.ndarray:
        return _centers(*self.box[:2], self.nx)

    @property
    def cy(self) -> np.ndarray:
        return _centers(*self.box[2:], self.ny)

    def status_counts(self) -> dict:
        counts: dict[str, int] = {}
        for s in self.status.ravel():
            counts[s.value] = counts.get(s.value, 0) + 1
        return counts

    def converged_centers(self) -> np.ndarray:
        """Centers of all converged cells, ordered by (i, j)."""
        cx, cy = self.cx, self.cy
        out = []
        for i in range(self.nx):
            for j in range(self.ny):
                if self.status[i, j] is FlowStatus.CONVERGED:
                    out.append((cx[i], cy[j]))
        return np.array(out)

    def records(self) -> list[tuple]:
        """One COLUMNS tuple per cell; t_conv is None where the cell did not converge."""
        cx, cy = self.cx, self.cy
        recs = []
        for i in range(self.nx):
            for j in range(self.ny):
                t = self.t_conv[i, j]
                recs.append((
                    i, j, float(cx[i]), float(cy[j]),
                    self.status[i, j].value,
                    None if math.isnan(t) else float(t),
                    float(self.final_residual[i, j]),
                ))
        return recs


def _scan_cell(m: C1Map, center, target, opts: FlowOptions):
    """(status, t_conv, final residual) of one cell: those of
    _flow_then_polish at ``opts``, with the approach leg only where the
    exact flow reaches residual_tol before t_max."""
    tol = opts.residual_tol
    r0 = _norm(m.eval(center) - target)
    t_conv = math.log(r0 / tol) if r0 > tol else 0.0
    traj, x, rnorm = _flow_then_polish(m, center, target, opts,
                                       r0=r0 if t_conv < opts.t_max else 0.0)
    if x is None:
        return traj.status, math.nan, rnorm
    return FlowStatus.CONVERGED, t_conv, rnorm


def scan_basin(
    m: C1Map,
    x0,
    box,
    resolution,
    opts: FlowOptions | None = None,
    workers: int | None = None,
) -> BasinGrid:
    """One forward flow per cell center, targeting f(x0).

    ``box`` is (xmin, xmax, ymin, ymax); ``resolution`` an int or (nx, ny),
    at least 2 per axis.  ``workers`` defaults to the CPU count; pass 1 to
    force the serial path (required for maps that do not pickle).
    """
    if m.dim != 2:
        raise ValueError("basin scans are defined for planar maps only")
    if isinstance(resolution, int):
        nx = ny = resolution
    else:
        nx, ny = resolution
    if nx < 2 or ny < 2:
        raise ValueError("resolution must be at least 2x2")
    xmin, xmax, ymin, ymax = (float(v) for v in box)
    if xmax <= xmin or ymax <= ymin:
        raise ValueError("box must have positive extent")
    opts = opts or SCAN_OPTIONS
    target = m.eval(x0)

    centers = [np.array((x, y))
               for x in _centers(xmin, xmax, nx) for y in _centers(ymin, ymax, ny)]
    scan = functools.partial(_scan_cell, m, target=target, opts=opts)

    if workers is None:
        workers = os.cpu_count() or 1
    if workers <= 1 or len(centers) < 64:
        results = list(map(scan, centers))
    else:
        # imported here: the pool's modules cost every other command start-up
        # time and memory
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(32, len(centers) // (workers * 16))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(scan, centers, chunksize=chunk))

    status, t_conv, final_residual = zip(*results)
    return BasinGrid((xmin, xmax, ymin, ymax), nx, ny,
                     np.array(status, dtype=object).reshape(nx, ny),
                     np.array(t_conv).reshape(nx, ny),
                     np.array(final_residual).reshape(nx, ny))


@dataclass(frozen=True)
class InjectivityReport:
    pairs_checked: int
    min_ratio: float
    min_pair: tuple[np.ndarray, np.ndarray]
    collisions: list
    sep_tol: float

    @property
    def collision_found(self) -> bool:
        return bool(self.collisions)

    def to_json_dict(self) -> dict:
        return {
            "pairs_checked": self.pairs_checked,
            "min_ratio": self.min_ratio,
            "min_pair": np.array(self.min_pair).tolist(),
            "collisions": [np.array(pair).tolist() for pair in self.collisions],
            "collision_found": self.collision_found,
            "sep_tol": self.sep_tol,
        }


def injectivity_probe(
    grid: BasinGrid,
    m: C1Map,
    pairs: int = 100_000,
    seed: int = 0,
) -> InjectivityReport:
    """Collision search over converged cell centers.

    Samples random pairs x != x' and flags ||f(x) - f(x')|| <= SEP_TOL
    ||x - x'|| as an injectivity counterexample.  Finding none falsifies
    nothing, but a collision comes with concrete witnesses.
    """
    centers = grid.converged_centers()
    if len(centers) < 2:
        raise ValueError("need at least two converged cells")
    values = m.eval_rows(centers)

    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(centers), size=(int(pairs * 1.1) + 16, 2))
    idx = idx[idx[:, 0] != idx[:, 1]][:pairs]
    while len(idx) < pairs:  # extremely unlikely refill
        extra = rng.integers(0, len(centers), size=(pairs, 2))
        extra = extra[extra[:, 0] != extra[:, 1]]
        idx = np.concatenate([idx, extra])[:pairs]

    dx = np.linalg.norm(centers[idx[:, 0]] - centers[idx[:, 1]], axis=1)
    df = np.linalg.norm(values[idx[:, 0]] - values[idx[:, 1]], axis=1)
    ratios = df / dx
    jmin = int(np.argmin(ratios))
    collisions = [
        (centers[a], centers[b])
        for a, b in idx[ratios <= SEP_TOL][:16]
    ]
    return InjectivityReport(
        pairs_checked=int(len(idx)),
        min_ratio=float(ratios[jmin]),
        min_pair=(centers[idx[jmin, 0]], centers[idx[jmin, 1]]),
        collisions=collisions,
        sep_tol=SEP_TOL,
    )


def export_grid(grid: BasinGrid, path, format: str = "csv") -> None:
    """Write the grid as CSV (one row per cell) or JSON; bit-stable output."""
    if format == "csv":
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(COLUMNS)
            for i, j, cx, cy, st, tc, fr in grid.records():
                w.writerow([i, j, repr(cx), repr(cy), st,
                            "" if tc is None else repr(tc), repr(fr)])
    elif format == "json":
        doc = {
            "schema": 1,
            "box": list(grid.box),
            "nx": grid.nx,
            "ny": grid.ny,
            "cells": [dict(zip(COLUMNS, rec)) for rec in grid.records()],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    else:
        raise ValueError(f"unknown format {format!r}")


def load_grid_records(path, format: str = "csv") -> list[tuple]:
    """Parse an exported grid back into the `BasinGrid.records()` shape."""
    if format == "csv":
        out = []
        with open(path, newline="") as fh:
            rd = csv.reader(fh)
            header = next(rd)
            if header != list(COLUMNS):
                raise ValueError("unexpected CSV header")
            for row in rd:
                i, j, cx, cy, st, tc, fr = row
                out.append((int(i), int(j), float(cx), float(cy), st,
                            None if tc == "" else float(tc), float(fr)))
        return out
    if format == "json":
        with open(path) as fh:
            doc = json.load(fh)
        return [tuple(c[name] for name in COLUMNS) for c in doc["cells"]]
    raise ValueError(f"unknown format {format!r}")
