"""The exponential decay identity, used as a built-in correctness oracle.

Along exact solutions of the Newton flow the residual satisfies
r(t) = e^{-t} r(0): the norm decays like e^{-t} and the direction never
rotates.  The integrator enforces this per step; `decay_drift` measures the
accumulated deviation over a whole trajectory, which makes every run its own
error report.
"""

import os
import tempfile

import numpy as np

from newtonflow import (
    Direction,
    FlowOptions,
    builtin,
    decay_drift,
    direction_deviation,
    integrate,
)

zamp = builtin("zampieri-ex5")
target = zamp.eval((0.0, 0.0))

# %% forward flow: watch ||r(t)|| track e^{-t} ||r(0)||

traj = integrate(zamp, (1.0, 1.0), target, FlowOptions())
rn = np.linalg.norm(traj.residuals, axis=1)
print("status:", traj.status.value, " accepted steps:", traj.steps)
print(f"{'t':>8}  {'||r(t)||':>12}  {'e^-t ||r0||':>12}")
for i in np.linspace(0, len(traj.t) - 1, 8, dtype=int):
    print(f"{traj.t[i]:8.3f}  {rn[i]:12.3e}  {rn[0] * np.exp(-traj.t[i]):12.3e}")

print("\nmax drift     :", decay_drift(traj))
print("max rotation  :", direction_deviation(traj), "rad")

# %% backward flow: run to a horizon, then integrate the opposite field home

opts = FlowOptions(t_max=4.0, residual_tol=1e-30)
fw = integrate(zamp, (1.0, 1.0), target, opts)
bw = integrate(zamp, fw.final_state, target, opts, Direction.BACKWARD)
print("\nforward endpoint :", fw.final_state)
print("backward return  :", bw.final_state, " (started from (1, 1))")
print("round-trip error :", np.linalg.norm(bw.final_state - (1.0, 1.0)))

# %% trajectories export to CSV with per-sample drift columns

csv_path = os.path.join(tempfile.gettempdir(), "newtonflow_trajectory.csv")
traj.to_csv(csv_path)
print("\nwrote", csv_path)
print("summary:", traj.summary())
