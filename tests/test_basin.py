import dataclasses
import math

import numpy as np
import pytest

from newtonflow.basin import (
    SCAN_OPTIONS,
    export_grid,
    injectivity_probe,
    load_grid_records,
    scan_basin,
)
from newtonflow.flow import (
    FlowOptions,
    FlowStatus,
    _flow_then_polish,
    _newton_polish,
    integrate,
)
from newtonflow.maps import C1Map, builtin

ZAMP = builtin("zampieri-ex5")


def _complex_exp_fn(x):
    e = math.exp(x[0])
    return np.array((e * math.cos(x[1]), e * math.sin(x[1])))


def _complex_exp_jac(x):
    e = math.exp(x[0])
    c, s = math.cos(x[1]), math.sin(x[1])
    return np.array(((e * c, -e * s), (e * s, e * c)))


# non-injective local diffeomorphism of the plane (period 2*pi in x1);
# its range misses only the origin, so image segments crossing 0 give
# cells that cannot converge within a short horizon
COMPLEX_EXP = C1Map("complex-exp", 2, _complex_exp_fn, _complex_exp_jac)


def _fold_fn(x):
    return np.array((x[0] ** 2 + 1.0, x[1]))


def _fold_jac(x):
    return np.array(((2.0 * x[0], 0.0), (0.0, 1.0)))


FOLD = C1Map("fold", 2, _fold_fn, _fold_jac)


def _cube_fn(x):
    return np.array((x[0] ** 3 - 3.0 * x[0] * x[1] ** 2, 3.0 * x[0] ** 2 * x[1] - x[1] ** 3))


def _cube_jac(x):
    a, b = 3.0 * (x[0] ** 2 - x[1] ** 2), 6.0 * x[0] * x[1]
    return np.array(((a, -b), (b, a)))


# z -> z^3 as a planar map: three preimages for every target but 0
CUBE = C1Map("z-cubed", 2, _cube_fn, _cube_jac)


def test_linear_scan_all_converge_with_predicted_times():
    a = np.array([[2.0, 0.0], [0.0, 1.0]])
    m = builtin("linear", a=a)
    grid = scan_basin(m, (0.0, 0.0), (-2, 2, -2, 2), 9, workers=1)
    assert grid.status_counts() == {"converged": 81}
    cx, cy = grid.cx, grid.cy
    for i in range(9):
        for j in range(9):
            r0 = np.linalg.norm(a @ np.array((cx[i], cy[j])))
            if r0 <= SCAN_OPTIONS.residual_tol:  # the cell sitting on x0
                assert grid.t_conv[i, j] == 0.0
                continue
            # the time at which ||r(t)|| = e^{-t} ||r(0)|| reaches residual_tol
            t_exact = math.log(r0 / SCAN_OPTIONS.residual_tol)
            assert grid.t_conv[i, j] == pytest.approx(t_exact, rel=1e-14, abs=0.0)


def test_planar_oracle_scan_fully_converged():
    grid = scan_basin(ZAMP, (0.0, 0.0), (-4, 4, -4, 4), 21, workers=1)
    assert grid.status_counts() == {"converged": 21 * 21}
    # center cell sits exactly on x0 and converges instantly
    assert grid.t_conv[10, 10] == 0.0
    assert np.nanmax(grid.final_residual) <= SCAN_OPTIONS.residual_tol


def test_scan_step_count_stays_below_the_pi_controllers(monkeypatch):
    # a deterministic work count in place of a timing gate: a scan-tolerance
    # run is short, and step control that ramps h up slowly spends most of
    # its steps there.  The PI controller (KI = 0.06, KP = 0.08) took 11 687
    # accepted steps on this scan; the elementary controller takes 9 502
    steps = []

    def spy(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        steps.append(traj.steps)
        return traj

    monkeypatch.setattr("newtonflow.flow.integrate", spy)
    grid = scan_basin(ZAMP, (0.0, 0.0), (-4, 4, -4, 4), 17, workers=1)
    assert grid.status_counts() == {"converged": 17 * 17}
    assert len(steps) == 17 * 17
    assert sum(steps) <= 0.85 * 11_687, sum(steps)


def _spy_scan_runs(monkeypatch) -> list:
    """Record every trajectory the scan's cells integrate."""
    runs = []

    def spy(*args, **kwargs):
        runs.append(integrate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr("newtonflow.flow.integrate", spy)
    return runs


def test_scan_cells_hand_off_to_newton(monkeypatch):
    # each cell flows only until its residual is 1e-2 of its initial norm
    # and Newton does the rest: the full flow to residual_tol took 9 502
    # accepted steps on this scan, the approach legs take 3 746
    runs = _spy_scan_runs(monkeypatch)
    grid = scan_basin(ZAMP, (0.0, 0.0), (-4, 4, -4, 4), 17, workers=1)
    assert grid.status_counts() == {"converged": 17 * 17}
    assert len(runs) == 17 * 17
    assert sum(r.steps for r in runs) <= 0.5 * 9_502, [r.steps for r in runs]


def test_scan_agrees_with_the_full_flow_cell_by_cell():
    # the approach leg and its polish stand in for the full flow at the same
    # options: every cell keeps the full flow's status and t_conv, and a
    # non-converged cell its final residual, bit for bit
    short_horizon = FlowOptions(tol=1e-8, t_max=6.0)
    seen = set()
    for m, x0, box, res, opts in (
        (FOLD, (1.0, 0.0), (-2, 2, -2, 2), 11, SCAN_OPTIONS),
        (COMPLEX_EXP, (0.0, 0.0), (-1, 1, -7, 7), 11, SCAN_OPTIONS),
        (CUBE, (1.0, 0.5), (-2, 2, -2, 2), 11, SCAN_OPTIONS),
        (ZAMP, (0.3, -0.2), (-40, 40, -30, 30), 11, SCAN_OPTIONS),
        (COMPLEX_EXP, (0.0, 0.0), (-2, 2, -2, 2), 7, short_horizon),
    ):
        grid = scan_basin(m, x0, box, res, opts=opts, workers=1)
        target = m.eval(x0)
        tol = opts.residual_tol
        for i, cx in enumerate(grid.cx):
            for j, cy in enumerate(grid.cy):
                full = integrate(m, (cx, cy), target, opts)
                where = (m.name, cx, cy)
                assert grid.status[i, j] is full.status, where
                seen.add(full.status)
                if full.status is FlowStatus.CONVERGED:
                    # ||r0|| with its squares summed left to right, as the
                    # scan sums them: IEEE arithmetic fixes its bits
                    a, b = full.residuals[0].tolist()
                    r0 = math.sqrt(a * a + b * b)
                    assert grid.t_conv[i, j] == (math.log(r0 / tol) if r0 > tol else 0.0), where
                    assert grid.final_residual[i, j] <= tol, where
                else:
                    assert math.isnan(grid.t_conv[i, j]), where
                    assert grid.final_residual[i, j] == full.final_residual_norm, where
    # every exit a scan cell can take here was compared
    assert seen == {FlowStatus.CONVERGED, FlowStatus.HORIZON_REACHED,
                    FlowStatus.STEP_FAILURE, FlowStatus.SINGULAR_JACOBIAN}, seen


def test_a_cell_whose_polish_misses_is_the_full_flow(monkeypatch):
    # (x^3, y) toward 0: guarded Newton only thirds x per step, so eight
    # steps from the handoff point miss residual_tol, and the full flow at
    # the scan's options, run after the leg and polished, decides the cell
    m = C1Map("x-cubed-y", 2, lambda x: np.array((x[0] ** 3, x[1])),
              lambda x: np.array(((3.0 * x[0] ** 2, 0.0), (0.0, 1.0))))
    runs = _spy_scan_runs(monkeypatch)
    grid = scan_basin(m, (0.0, 0.0), (0.5, 1.5, -1, 1), 2, workers=1)
    assert grid.status_counts() == {"converged": 4}
    assert len(runs) == 2 * 4  # a leg, then the full flow, per cell
    tol = SCAN_OPTIONS.residual_tol
    for full, residual, t_conv in zip(runs[1::2], grid.final_residual.ravel(),
                                      grid.t_conv.ravel()):
        assert residual == _newton_polish(m, full.final_state, full.target, tol)[1] <= tol
        assert t_conv == math.log(np.linalg.norm(full.residuals[0]) / tol)


def test_cells_whose_residual_norm_overflows_are_quiet():
    # near x = 709 zampieri-ex5's residual is ~1e307, whose square overflows,
    # and tier-1 turns a RuntimeWarning into an error; the norm is still
    # finite, and the decay identity gives it at the horizon: e^{-40} ||r(0)||
    grid = scan_basin(ZAMP, (0.0, 0.0), (700, 709, -1, 1), 2, workers=1)
    assert grid.status_counts() == {"horizon-reached": 4}
    assert np.isnan(grid.t_conv).all()
    target = ZAMP.eval((0.0, 0.0))
    for i, cx in enumerate(grid.cx):
        for j, cy in enumerate(grid.cy):
            r0 = math.hypot(*(ZAMP.eval((cx, cy)) - target))
            assert grid.final_residual[i, j] == pytest.approx(math.exp(-40.0) * r0, rel=1e-6)


def test_scan_deterministic_across_worker_counts():
    g1 = scan_basin(ZAMP, (0.0, 0.0), (-3, 3, -3, 3), 11, workers=1)
    g2 = scan_basin(ZAMP, (0.0, 0.0), (-3, 3, -3, 3), 11, workers=2)
    np.testing.assert_array_equal(g1.t_conv, g2.t_conv)
    np.testing.assert_array_equal(g1.final_residual, g2.final_residual)
    assert all(
        g1.status[i, j] is g2.status[i, j] for i in range(11) for j in range(11)
    )


def test_converged_cells_reproduce_under_rerun():
    grid = scan_basin(ZAMP, (0.0, 0.0), (-3, 3, -3, 3), 7, workers=1)
    target = ZAMP.eval((0.0, 0.0))
    cx, cy = grid.cx, grid.cy
    for i in (0, 3, 6):
        for j in (0, 3, 6):
            traj = integrate(ZAMP, (cx[i], cy[j]), target, SCAN_OPTIONS)
            assert traj.status is grid.status[i, j] is FlowStatus.CONVERGED
            r0 = np.linalg.norm(traj.residuals[0])
            tol = SCAN_OPTIONS.residual_tol
            # a converged cell reports the residual of the Newton-polished
            # end of its approach leg, not of the full run's last step
            center = np.array((cx[i], cy[j]))
            _, x, rnorm = _flow_then_polish(ZAMP, center, target, SCAN_OPTIONS, r0=r0)
            assert x is not None and rnorm == grid.final_residual[i, j] <= tol
            t_conv = grid.t_conv[i, j]
            assert t_conv == (math.log(r0 / tol) if r0 > tol else 0.0)
            # the stepper stops at the end of the first step past t_conv
            assert t_conv <= traj.t_final <= t_conv + 1.0


def test_short_horizon_gives_mixed_statuses():
    opts = FlowOptions(tol=1e-8, t_max=6.0)
    grid = scan_basin(COMPLEX_EXP, (0.0, 0.0), (-2, 2, -2, 2), 9, opts=opts, workers=1)
    counts = grid.status_counts()
    assert counts.get("converged", 0) > 0
    assert len(counts) >= 2  # mixed outcomes, reported as-is


def test_fold_map_scan_and_collision():
    # cells with x0 < 0 and x0 > 0 both converge (to mirror preimages);
    # the singular line itself is reported, not hidden
    grid = scan_basin(FOLD, (1.0, 0.0), (-2, 2, -2, 2), 21, workers=1)
    counts = grid.status_counts()
    assert counts.get("converged", 0) > 300
    assert counts.get("singular-jacobian", 0) >= 1
    rep = injectivity_probe(grid, FOLD, pairs=20000, seed=3)
    assert rep.collision_found
    a, b = rep.collisions[0]
    np.testing.assert_allclose(FOLD.eval(a), FOLD.eval(b), atol=1e-12)


def test_injectivity_probe_planar_oracle_clean():
    grid = scan_basin(ZAMP, (0.0, 0.0), (-4, 4, -4, 4), 21, workers=1)
    rep = injectivity_probe(grid, ZAMP, pairs=50000, seed=0)
    assert not rep.collision_found
    assert rep.pairs_checked == 50000
    assert rep.min_ratio > 1e-4


def test_injectivity_probe_row_form_is_the_point_loop():
    # the probe evaluates its centers with eval_rows: a map without a point
    # form goes through eval one point at a time, and the report must not change
    grid = scan_basin(ZAMP, (0.0, 0.0), (-6, 6, -6, 6), 13, workers=1)
    pointwise = dataclasses.replace(ZAMP, point=None)
    got = [injectivity_probe(grid, m, pairs=5000, seed=2).to_json_dict()
           for m in (ZAMP, pointwise)]
    assert got[0] == got[1]


def test_injectivity_probe_linear_ratio_bound():
    a = np.array([[3.0, 1.0], [0.0, 2.0]])
    m = builtin("linear", a=a)
    grid = scan_basin(m, (0.0, 0.0), (-2, 2, -2, 2), 9, workers=1)
    rep = injectivity_probe(grid, m, pairs=5000, seed=1)
    sigma_min = np.linalg.svd(a, compute_uv=False)[-1]
    assert rep.min_ratio >= sigma_min - 1e-12


def test_export_round_trip_and_byte_stability(tmp_path):
    grid = scan_basin(ZAMP, (0.0, 0.0), (-2, 2, -2, 2), 5, workers=1)
    for fmt, name in (("csv", "g.csv"), ("json", "g.json")):
        p1 = tmp_path / ("a_" + name)
        p2 = tmp_path / ("b_" + name)
        export_grid(grid, p1, fmt)
        export_grid(grid, p2, fmt)
        assert p1.read_bytes() == p2.read_bytes()
        assert load_grid_records(p1, fmt) == grid.records()


def test_export_csv_shape(tmp_path):
    grid = scan_basin(ZAMP, (0.0, 0.0), (-1, 1, -1, 1), 2, workers=1)
    path = tmp_path / "grid.csv"
    export_grid(grid, path, "csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "i,j,cx,cy,status,t_conv,final_residual"
    assert len(lines) == 5  # header + 4 cells


def test_scan_validation():
    with pytest.raises(ValueError):
        scan_basin(builtin("cubic1d"), (0.0,), (-1, 1, -1, 1), 5)
    with pytest.raises(ValueError):
        scan_basin(ZAMP, (0.0, 0.0), (-1, 1, -1, 1), 1)
    with pytest.raises(ValueError):
        scan_basin(ZAMP, (0.0, 0.0), (1, -1, -1, 1), 5)
    grid = scan_basin(ZAMP, (0.0, 0.0), (-1, 1, -1, 1), 3, workers=1)
    with pytest.raises(ValueError):
        injectivity_probe(
            grid.__class__(grid.box, 2, 2,
                           np.full((2, 2), FlowStatus.BLOWUP, dtype=object),
                           np.full((2, 2), math.nan), np.full((2, 2), 1.0)),
            ZAMP,
        )
