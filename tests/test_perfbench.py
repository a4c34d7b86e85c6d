import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _make_inputs(workload, seed):
    """The benchmark's own inputs for ``workload`` at ``seed``."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.make_inputs(workload, seed, workers=2)


def _small_inputs(workload):
    if workload == "basin-scan":
        return {"x0": [[0.25, -0.5]], "probe_seed": [7], "box": [-4.0, 4.0, -4.0, 4.0],
                "res": 5, "pairs": 1000, "workers": 2}
    inputs = _make_inputs(workload, 41)
    if workload == "solve-batch":   # 5 solves per map
        inputs = {key: {name: values[:5] for name, values in case.items()}
                  for key, case in inputs.items()}
    return inputs


@pytest.mark.parametrize("workload", ["basin-scan", "solve-batch", "verify-ex5"])
def test_traced_workload_runs(workload, tmp_path):
    # the traced benchmark run on a small input: it reads the integrate
    # spans' step counts (and runs the basin scan through the pool and
    # serially), so a change that stops calling integrate or breaks either
    # scan path fails here before the benchmark does
    inputs_path = tmp_path / "inputs.json"
    inputs_path.write_text(json.dumps(_small_inputs(workload)))
    work = tmp_path / "work"
    work.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "traced", workload,
         str(inputs_path), str(work), "smoke", str(tmp_path / "spans.json")],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["failed"] == 0, result["problems"]
    assert result["per_layer"]["flow.accepted_steps"] > 0
