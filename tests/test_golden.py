"""Byte-parity tests: seeded CLI commands and the option table against their
recorded outputs.

Each line of ``golden/certify.jsonl`` holds one argv, its exit code and its
stdout with the timestamp masked.  Only maps of dimension <= 2 appear, whose
solves run in closed form, so no line calls LAPACK.  The flow's sums run on
Python floats, so the `solve` lines do not depend on the BLAS kernel either,
and a test runs them on another one (`linear`'s f is the BLAS product a @ x,
which is exact for the recorded matrix).  The certify and verify-ex5 lines
take dot products through numpy, and so through the kernel's summation
order and FMA.  ``golden/options.json`` holds each subcommand's ``--help``
text at 80 columns and its ``--dump-config`` output with only the required
options given.  To record the commands of COMMANDS that the file does not
hold yet, and the option file when it is missing, run

    PYTHONPATH=src python tests/test_golden.py

The recorder only adds: every line already in the file is kept as it is, so
a recorded line cannot drift with the code, and a new line takes its place
in COMMANDS order.  Record new commands from the commit before the change
they are meant to pin.  To re-record a line on purpose, delete it from the
file first.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from newtonflow import basin
from newtonflow.cli import _FIELDS, main

GOLDEN = Path(__file__).parent / "golden" / "certify.jsonl"
OPTIONS = Path(__file__).parent / "golden" / "options.json"

_C = ["certify", "--seed", "3", "--map"]
_S = ["solve", "--seed", "3", "--map"]
_B = ["basin", "--seed", "3", "--res", "9", "--workers", "2", "--probe", "500", "--map"]

COMMANDS = [
    # zampieri-ex5: every criterion
    _C + ["zampieri-ex5", "--criterion", "thm21", "--a", "1", "--b", "1", "--ball", "5,300"],
    _C + ["zampieri-ex5", "--criterion", "thm21", "--k", "logcoercive", "--grid", "-3,3,-3,3,13"],
    _C + ["zampieri-ex5", "--criterion", "thm21", "--k", "hadamard", "--omega", "poly:1,1",
          "--sphere", "3,120"],
    _C + ["zampieri-ex5", "--criterion", "cor22", "--a", "1", "--b", "1", "--grid", "-5,5,-5,5,21"],
    _C + ["zampieri-ex5", "--criterion", "thm31", "--k", "hadamard", "--omega", "affine:1,1",
          "--ball", "4,80", "--dirs", "4"],
    _C + ["zampieri-ex5", "--criterion", "hadamard", "--omega", "poly:1,0,1", "--ball", "5,200"],
    _C + ["zampieri-ex5", "--criterion", "coercive", "--spc", "48"],
    _C + ["zampieri-ex5", "--criterion", "ball", "--r", "1", "--count", "300"],
    _C + ["zampieri-ex5", "--criterion", "inverse-bound", "--r", "2", "--count", "200"],
    # rot-poly2d
    _C + ["rot-poly2d", "--criterion", "thm21", "--k", "logcoercive", "--ball", "5,200"],
    _C + ["rot-poly2d", "--criterion", "thm31", "--k", "logh", "--a", "1", "--b", "1", "--c", "1",
          "--sphere", "3,60", "--dirs", "3"],
    _C + ["rot-poly2d", "--criterion", "cor22", "--a", "1", "--b", "1", "--c", "1",
          "--x0", "0.5,-0.5", "--x1", "1,0", "--ball", "5,300"],
    _C + ["rot-poly2d", "--criterion", "hadamard", "--omega", "poly:1,1", "--grid", "-4,4,-4,4,15"],
    _C + ["rot-poly2d", "--criterion", "coercive", "--spc", "32", "--radii", "1,3,9,27"],
    _C + ["rot-poly2d", "--criterion", "ball", "--r", "2", "--count", "200", "--x0", "0.3,0.1"],
    _C + ["rot-poly2d", "--criterion", "inverse-bound", "--r", "3", "--count", "200"],
    # cubic1d
    _C + ["cubic1d", "--criterion", "thm21", "--k", "hadamard", "--omega", "const:1",
          "--grid", "-10,10,101"],
    _C + ["cubic1d", "--criterion", "thm31", "--k", "logcoercive", "--ball", "10,150"],
    _C + ["cubic1d", "--criterion", "cor22", "--a", "1", "--b", "1", "--sphere", "4,50"],
    _C + ["cubic1d", "--criterion", "hadamard", "--omega", "const:1", "--sphere", "5,50"],
    _C + ["cubic1d", "--criterion", "coercive", "--radii", "1,10,100"],
    _C + ["cubic1d", "--criterion", "ball", "--r", "2", "--count", "40"],
    # arctan1d
    _C + ["arctan1d", "--criterion", "thm21", "--k", "logh", "--a", "2", "--b", "1",
          "--grid", "-50,50,201"],
    _C + ["arctan1d", "--criterion", "thm31", "--k", "hadamard", "--omega", "affine:1,1",
          "--ball", "20,100"],
    _C + ["arctan1d", "--criterion", "cor22", "--a", "1", "--b", "0"],
    _C + ["arctan1d", "--criterion", "hadamard", "--omega", "poly:1,0,1", "--grid", "-20,20,81"],
    _C + ["arctan1d", "--criterion", "coercive"],
    _C + ["arctan1d", "--criterion", "inverse-bound", "--r", "3"],
    # exp1d: overflow, underflow and singular samples
    _C + ["exp1d", "--criterion", "thm21", "--k", "logcoercive", "--grid", "-800,800,41"],
    _C + ["exp1d", "--criterion", "thm31", "--k", "logh", "--a", "1", "--b", "1", "--c", "1",
          "--grid", "-800,800,41"],
    _C + ["exp1d", "--criterion", "hadamard", "--omega", "const:1", "--grid", "-800,800,11"],
    _C + ["exp1d", "--criterion", "coercive", "--radii", "1,10,100,1000"],
    _C + ["exp1d", "--criterion", "ball", "--r", "1", "--count", "20", "--x0", "1"],
    ["certify", "--map", "exp1d", "--criterion", "inverse-bound", "--r", "800"],
    # the end-to-end battery, honest and with an injected Jacobian fault
    ["verify-ex5", "--samples", "500", "--grid-res", "21", "--positive-samples", "1000"],
    ["verify-ex5", "--samples", "500", "--grid-res", "21", "--positive-samples", "1000",
     "--perturb-jacobian", "1e-3"],
    # every built-in map through the flow, with each terminal status
    _S + ["zampieri-ex5", "--target", "1,0", "--start", "1,1"],
    _S + ["zampieri-ex5", "--target", "-1,0", "--start", "1,1"],
    _S + ["arctan1d", "--target", "2", "--start", "0"],
    _S + ["cubic1d", "--target", "10", "--start", "0"],
    _S + ["exp1d", "--target", "5", "--start", "0"],
    _S + ["exp1d", "--target", "-1", "--start", "0"],
    _S + ["rot-poly2d", "--eps", "0.3", "--target", "1,2", "--start", "0,0"],
    _S + ["linear", "--A", "2,1,0,3", "--target", "1,2", "--start", "0,0"],
    # pooled basin scans: the maps travel to the workers by pickle
    _B + ["rot-poly2d", "--x0", "0,0"],
    _B + ["linear", "--A", "2,1,0,3", "--x0", "0,0"],
    ["list-maps"],
    # sampled fields across 1024-row block boundaries, with overflowing and
    # singular samples that leave the batched path
    _C + ["zampieri-ex5", "--criterion", "cor22", "--a", "1", "--b", "1",
          "--grid", "-800,800,-800,800,41"],
    _C + ["zampieri-ex5", "--criterion", "cor22", "--a", "1", "--b", "1", "--c", "1",
          "--grid", "-5,5,-5,5,61"],
    _C + ["zampieri-ex5", "--criterion", "thm21", "--k", "logcoercive",
          "--grid", "-6,6,-6,6,41"],
    _C + ["zampieri-ex5", "--criterion", "ball", "--r", "3", "--count", "2500"],
    # the battery at its default size
    ["verify-ex5", "--seed", "5"],
]


def _run(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    out = re.sub(r'"timestamp": "[^"]*"', '"timestamp": "<masked>"', buf.getvalue())
    return {"argv": list(argv), "exit": code, "stdout": out}


def _recorded() -> list:
    if not GOLDEN.exists():  # first recording
        return []
    return [json.loads(line) for line in GOLDEN.read_text().splitlines()]


@pytest.mark.parametrize("record", _recorded(), ids=lambda r: " ".join(r["argv"]))
def test_seeded_output_matches_golden(record):
    assert _run(record["argv"]) == record


# A fresh interpreter in which every import of scipy raises ImportError runs
# every recorded command: numpy is the only dependency.
_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None
from test_golden import _recorded, _run
print(json.dumps([_run(r["argv"]) for r in _recorded()]))
"""


def test_golden_commands_run_without_scipy():
    import newtonflow

    path = [str(Path(newtonflow.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], env=env, check=True,
                         capture_output=True, text=True, timeout=600).stdout
    got = json.loads(out)
    assert len(got) == len(_recorded())
    for run, record in zip(got, _recorded()):
        assert run == record, record["argv"]


# The flow's pins for maps with n <= 2 and the `solve` lines hold whatever the
# BLAS kernel: their sums run on Python floats.  A child interpreter runs
# them with OpenBLAS forced to its Prescott kernels (SSE3, no FMA), which any
# x86-64 runs; a numpy without OpenBLAS ignores the variable.  The n = 3
# LAPACK pin keeps numpy's stage sums, and certify and verify-ex5 numpy's
# dot products, so they are left out.
_KERNEL_FREE_PINS = [
    "test_flow.py::test_both_time_directions_are_pinned",
    "test_flow.py::test_finite_difference_jacobians_are_pinned",
    "test_flow.py::test_non_finite_values_are_rejected_steps",  # 12 runs
    "test_flow.py::test_solve_inverse_answers_are_pinned",
]


def test_flow_pins_hold_on_another_blas_kernel():
    import newtonflow

    here = Path(__file__).parent
    solves = [f"test_golden.py::test_seeded_output_matches_golden[{' '.join(r['argv'])}]"
              for r in _recorded() if r["argv"][0] == "solve"]
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott",
               PYTHONPATH=str(Path(newtonflow.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          *_KERNEL_FREE_PINS, *solves], cwd=here, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout[-4000:]
    assert re.search(rf"\b{len(solves) + 15} passed\b", run.stdout), run.stdout[-4000:]


def test_golden_file_lists_every_command():
    assert [r["argv"] for r in _recorded()] == COMMANDS


# the options each subcommand requires, with values it accepts
REQUIRED = {
    "solve": ["--map", "zampieri-ex5", "--target", "1,0", "--start", "1,1"],
    "certify": ["--map", "zampieri-ex5", "--criterion", "coercive"],
    "basin": ["--map", "zampieri-ex5", "--x0", "0,0"],
    "verify-ex5": [],
    "list-maps": [],
}


def _no_scan(*args, **kwargs):
    raise ValueError("scan not run")


def _options(command: str, dump_path: Path) -> dict:
    help_out = io.StringIO()
    with contextlib.redirect_stdout(help_out), pytest.raises(SystemExit):
        main([command, "--help"])
    # the default 101x101 basin scan is not needed for its config
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(basin, "scan_basin", _no_scan)
        main([command, *REQUIRED[command], "--dump-config", str(dump_path)])
    return {"help": help_out.getvalue(), "dump_config": dump_path.read_text()}


@pytest.mark.parametrize("command", list(REQUIRED))
def test_option_table_bytes_match_golden(command, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    recorded = json.loads(OPTIONS.read_text())[command]
    assert _options(command, tmp_path / "dump.cfg") == recorded
    for name, default, _help, parse in _FIELDS[command]:
        if default:  # "" is unset and None is required: neither is parsed
            parse(default)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    have = {json.dumps(r["argv"]): r for r in _recorded()}
    records = [have.get(json.dumps(argv)) or _run(argv) for argv in COMMANDS]
    GOLDEN.write_text("".join(json.dumps(r) + "\n" for r in records))
    if not OPTIONS.exists():
        os.environ["COLUMNS"] = "80"
        with tempfile.TemporaryDirectory() as tmp:
            table = {c: _options(c, Path(tmp) / "dump.cfg") for c in REQUIRED}
        OPTIONS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
