import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_basin_scan_runs(tmp_path):
    # the traced benchmark run on a small basin scan: it reads the integrate
    # spans' step counts and runs the scan through the pool and serially, so
    # a change that breaks either fails here before the benchmark does
    inputs = {"x0": [[0.25, -0.5]], "probe_seed": [7], "box": [-4.0, 4.0, -4.0, 4.0],
              "res": 5, "pairs": 1000, "workers": 2}
    inputs_path = tmp_path / "inputs.json"
    inputs_path.write_text(json.dumps(inputs))
    work = tmp_path / "work"
    work.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "traced", "basin-scan",
         str(inputs_path), str(work), "smoke", str(tmp_path / "spans.json")],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["failed"] == 0, result["problems"]
    assert result["per_layer"]["flow.accepted_steps"] > 0
