"""Byte-parity test: seeded CLI commands against their recorded outputs.

Each line of ``golden/certify.jsonl`` holds one argv, its exit code and its
stdout with the timestamp masked.  Only maps of dimension <= 2 appear, whose
linear algebra runs in closed form, so the bytes do not depend on the LAPACK
build.  To record the commands of COMMANDS that the file does not hold yet, run

    PYTHONPATH=src python tests/test_golden.py

The recorder only appends: every line already in the file is kept as it is,
so a recorded line cannot drift with the code.  Record new commands from the
commit before the change they are meant to pin.  To re-record a line on
purpose, delete it from the file first.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from newtonflow.cli import main

GOLDEN = Path(__file__).parent / "golden" / "certify.jsonl"

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


def test_golden_file_lists_every_command():
    assert [r["argv"] for r in _recorded()] == COMMANDS


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    have = [r["argv"] for r in _recorded()]
    with GOLDEN.open("a") as fh:
        for argv in COMMANDS:
            if argv not in have:
                fh.write(json.dumps(_run(argv)) + "\n")
