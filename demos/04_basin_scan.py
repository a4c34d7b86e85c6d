"""Basin-of-attraction scans: flow every grid cell toward f(x0).

For maps satisfying the global-inversion criteria the whole grid converges
(the basin is the entire plane).  For maps that are not globally invertible
the per-cell statuses draw the failure structure instead.
"""

import math
import os
import tempfile

import numpy as np

from newtonflow import C1Map, FlowOptions, builtin, export_grid, injectivity_probe, scan_basin

# %% the planar oracle map: every cell converges

zamp = builtin("zampieri-ex5")
grid = scan_basin(zamp, (0.0, 0.0), (-4, 4, -4, 4), 41, workers=2)
print("oracle map, 41x41 over [-4,4]^2:", grid.status_counts())
print("slowest cell t_conv = %.2f, fastest = %.2f"
      % (np.nanmax(grid.t_conv), np.nanmin(grid.t_conv)))

rep = injectivity_probe(grid, zamp, pairs=20000, seed=0)
print("injectivity probe: collision =", rep.collision_found,
      " min ||df||/||dx|| =", f"{rep.min_ratio:.3e}")

csv_path = os.path.join(tempfile.gettempdir(), "newtonflow_basin.csv")
export_grid(grid, csv_path, "csv")
print("wrote", csv_path)

# %% a non-injective map: the probe finds concrete collisions


def _fold_fn(x):
    return np.array((x[0] ** 2 + 1.0, x[1]))


def _fold_jac(x):
    return np.array(((2.0 * x[0], 0.0), (0.0, 1.0)))


fold = C1Map("fold", 2, _fold_fn, _fold_jac)
gf = scan_basin(fold, (1.0, 0.0), (-2, 2, -2, 2), 21, workers=1)
print("\nfold map (x^2+1, y):", gf.status_counts())
repf = injectivity_probe(gf, fold, pairs=20000, seed=1)
print("collision found:", repf.collision_found)
if repf.collision_found:
    a, b = repf.collisions[0]
    print("  witnesses:", a, "and", b, "-> f equal:",
          np.allclose(fold.eval(a), fold.eval(b)))

# %% the planar exponential (e^x cos y, e^x sin y): range misses the origin,
# so cells whose image segment crosses 0 cannot converge in a short horizon


def _cexp_fn(x):
    e = math.exp(x[0])
    return np.array((e * math.cos(x[1]), e * math.sin(x[1])))


def _cexp_jac(x):
    e = math.exp(x[0])
    c, s = math.cos(x[1]), math.sin(x[1])
    return np.array(((e * c, -e * s), (e * s, e * c)))


cexp = C1Map("complex-exp", 2, _cexp_fn, _cexp_jac)
opts = FlowOptions(tol=1e-8, t_max=20.0)
gc = scan_basin(cexp, (0.0, 0.0), (-2, 2, -2, 2), 21, opts=opts, workers=1)
print("\ncomplex-exp, horizon t_max=20:", gc.status_counts())
print("(statuses are reported as observed; slow escape and true blow-up are"
      " not reinterpreted)")
