"""Smoke test: the demos run to completion and print something."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_global_inversion.py", "02_decay_identity.py",
                                  "03_certificates.py", "04_basin_scan.py"])
def test_demo_runs(demo, tmp_path):
    # TMPDIR keeps the demos' CSV exports inside the test's own directory
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
