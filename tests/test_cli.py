import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from newtonflow.cli import RunConfig, UsageError, main


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _strip_timestamp(text: str) -> str:
    return re.sub(r'^\s*"timestamp": "[^"]*",?\n', "", text, flags=re.M)


def test_solve_success_payload(capsys):
    code, out = _run(capsys, ["solve", "--map", "zampieri-ex5",
                              "--target", "1,0", "--start", "1,1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["status"] == "converged"
    assert np.linalg.norm(doc["x"]) <= 1e-8
    assert doc["residual"] <= 1e-9
    assert doc["max_drift"] <= 1e-6
    assert "timestamp" in doc


def test_solve_blowup_exit_code(capsys):
    code, out = _run(capsys, ["solve", "--map", "arctan1d", "--target", "2", "--start", "0"])
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "blowup"
    assert abs(doc["final_x"][0]) > 1e6


def test_solve_linear_identity(capsys):
    code, out = _run(capsys, ["solve", "--map", "linear", "--A", "1,0,0,1",
                              "--target", "0,0", "--start", "5,5"])
    assert code == 0
    doc = json.loads(out)
    assert np.allclose(doc["x"], [0.0, 0.0], atol=1e-9)


def test_solve_writes_trajectory_csv(tmp_path, capsys):
    path = tmp_path / "traj.csv"
    code, _ = _run(capsys, ["solve", "--map", "cubic1d", "--target", "10",
                            "--start", "0", "--traj", str(path)])
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x_0,r_norm,drift"
    assert len(lines) > 2


def test_certify_cor22_exit_zero(capsys):
    code, out = _run(capsys, [
        "certify", "--map", "zampieri-ex5", "--criterion", "cor22",
        "--a", "1", "--b", "1", "--c", "0", "--x0", "0,0", "--x1", "0,0",
        "--grid", "-5,5,-5,5,101",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "satisfied"
    assert doc["samples_used"] == 101 * 101
    assert doc["stats"]["violations"] == 0


def test_certify_hadamard_exit_codes(capsys):
    code, out = _run(capsys, ["certify", "--map", "arctan1d", "--criterion", "hadamard",
                              "--omega", "poly:1,0,1", "--grid", "-5,5,101"])
    assert code == 3
    doc = json.loads(out)
    assert doc["stats"]["divergence"] == "converges"
    assert doc["stats"]["integral_value"] == pytest.approx(math.pi / 2, rel=1e-6)

    code, out = _run(capsys, ["certify", "--map", "cubic1d", "--criterion", "hadamard",
                              "--omega", "const:1", "--grid", "-5,5,101"])
    assert code == 0


def test_certify_inconclusive_exit_code(capsys):
    # too few samples for the growth-trend statistic
    code, out = _run(capsys, ["certify", "--map", "linear", "--dim", "2",
                              "--criterion", "thm21", "--a", "3", "--b", "3",
                              "--ball", "5,8"])
    assert code == 4
    assert json.loads(out)["verdict"] == "inconclusive"


def test_certify_ball_and_inverse_bound(capsys):
    code, out = _run(capsys, ["certify", "--map", "zampieri-ex5", "--criterion", "ball",
                              "--x0", "0,0", "--r", "1", "--count", "512"])
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "satisfied"
    assert doc["stats"]["max"] <= 1e-9

    code, out = _run(capsys, ["certify", "--map", "arctan1d",
                              "--criterion", "inverse-bound", "--r", "3"])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(10.0)


def test_unknown_criterion_and_map_are_config_errors(capsys):
    assert main(["certify", "--map", "zampieri-ex5", "--criterion", "nope"]) == 1
    capsys.readouterr()
    assert main(["solve", "--map", "missing", "--target", "1", "--start", "0"]) == 1
    capsys.readouterr()
    assert main(["solve", "--map", "cubic1d", "--start", "0"]) == 1  # no target
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()


def test_omega_spec_validation(capsys):
    assert main(["certify", "--map", "cubic1d", "--criterion", "hadamard",
                 "--omega", "wat:1"]) == 1
    capsys.readouterr()
    assert main(["certify", "--map", "cubic1d", "--criterion", "hadamard"]) == 1
    capsys.readouterr()


def test_basin_command_with_probe(tmp_path, capsys):
    grid_path = tmp_path / "grid.csv"
    code, out = _run(capsys, ["basin", "--map", "zampieri-ex5", "--x0", "0,0",
                              "--box", "-2,2,-2,2", "--res", "9", "--workers", "1",
                              "--probe", "1000", "--grid-out", str(grid_path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"] == {"converged": 81}
    assert doc["injectivity"]["collision_found"] is False
    assert grid_path.exists()
    header = grid_path.read_text().splitlines()[0]
    assert header == "i,j,cx,cy,status,t_conv,final_residual"


def test_verify_ex5_passes_and_detects_faults(capsys):
    code, out = _run(capsys, ["verify-ex5", "--samples", "1500", "--grid-res", "41",
                              "--positive-samples", "3000"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    names = [c["name"] for c in doc["checks"]]
    assert names == ["pipeline-oracle", "quadratic-growth-grid",
                     "positive-first-component", "flow-decay"]
    assert len(doc["sign_profile"]) == 4
    assert all(p["all_nonpositive"] for p in doc["sign_profile"])

    code, out = _run(capsys, ["verify-ex5", "--samples", "500", "--grid-res", "21",
                              "--positive-samples", "1000",
                              "--perturb-jacobian", "1e-3"])
    assert code == 5
    doc = json.loads(out)
    assert "pipeline-oracle" in doc["failed"]


def test_verify_ex5_zero_jacobian_fails_the_battery(capsys):
    # 1 + eps = 0 makes every Jacobian singular: no point has a Newton field
    code, out = _run(capsys, ["verify-ex5", "--samples", "200", "--grid-res", "11",
                              "--positive-samples", "100", "--perturb-jacobian", "-1"])
    assert code == 5
    doc = json.loads(out)
    assert "pipeline-oracle" in doc["failed"]
    assert doc["checks"][0]["max_relative_deviation"] == "inf"


def test_list_maps_one_json_object_per_line(capsys):
    code, out = _run(capsys, ["list-maps"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    for line in lines:
        doc = json.loads(line)
        assert set(doc) == {"key", "dim", "description", "paper_ref"}


def test_config_file_and_dump_round_trip(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("command = solve\nmap = cubic1d\ntarget = 10\nstart = 0\n# comment\n")
    dump_path = tmp_path / "resolved.cfg"
    code, out = _run(capsys, ["solve", "--config", str(cfg_path),
                              "--dump-config", str(dump_path)])
    assert code == 0
    assert json.loads(out)["x"][0] == pytest.approx(2.0, abs=1e-9)

    text = dump_path.read_text()
    cfg = RunConfig.from_text(text)
    assert cfg.command == "solve"
    assert cfg.values["map"] == "cubic1d"
    # parse -> serialize -> parse is the identity
    assert RunConfig.from_text(cfg.to_text()) == cfg


def test_cli_flag_overrides_config(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("command = solve\nmap = cubic1d\ntarget = 10\nstart = 0\n")
    code, out = _run(capsys, ["solve", "--config", str(cfg_path), "--target", "2"])
    assert code == 0
    # root of x + x^3 = 2 is 1
    assert json.loads(out)["x"][0] == pytest.approx(1.0, abs=1e-8)


def test_run_config_parse_errors():
    with pytest.raises(UsageError):
        RunConfig.from_text("not a config line\n")


def test_seeded_outputs_byte_identical(capsys):
    argv = ["certify", "--map", "zampieri-ex5", "--criterion", "coercive", "--seed", "9"]
    _, out1 = _run(capsys, argv)
    _, out2 = _run(capsys, argv)
    assert _strip_timestamp(out1) == _strip_timestamp(out2)
    assert json.loads(out1)["seed"] == 9


@pytest.mark.parametrize("argv", [
    ["basin", "--map", "zampieri-ex5", "--x0", "0,0", "--res", "1"],
    ["basin", "--map", "zampieri-ex5", "--x0", "0,0", "--res", "3,x"],
    ["certify", "--map", "zampieri-ex5", "--criterion", "cor22", "--grid", "-1,1,-1,1,0"],
    ["certify", "--map", "zampieri-ex5", "--criterion", "thm31", "--dirs", "x"],
    ["solve", "--map", "zampieri-ex5", "--target", "1,0,0", "--start", "0,0"],
    # a map option the chosen map does not take
    ["solve", "--map", "cubic1d", "--eps", "0.3", "--target", "10", "--start", "0"],
    ["solve", "--map", "zampieri-ex5", "--A", "1,0,0,1", "--target", "1,0", "--start", "1,1"],
    # a Jacobian fault must be a finite factor
    ["verify-ex5", "--perturb-jacobian", "nan"],
    ["verify-ex5", "--perturb-jacobian", "inf"],
    ["verify-ex5", "--perturb-jacobian", "1e400"],
    ["verify-ex5", "--positive-samples", "0"],
])
def test_bad_values_exit_one_without_traceback(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_non_finite_values_are_strict_json(capsys):
    code, out = _run(capsys, ["certify", "--map", "exp1d", "--criterion", "hadamard",
                              "--omega", "const:1", "--grid", "-800,800,11"])
    assert code == 3
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["extremal_value"] == "inf"
    assert doc["stats"]["pointwise_margin"] == "inf"

    # f'(x)^{-1} u = e^{-x} u is below 1e-154 here: tiny, but not a zero direction
    code, out = _run(capsys, ["certify", "--map", "exp1d", "--criterion", "thm31",
                              "--k", "logcoercive", "--grid", "300,500,5"])
    assert code == 3
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["verdict"] == "violated"
    assert doc["stats"]["coercivity"] == "decreasing"


def test_import_does_not_load_scipy():
    import newtonflow

    env = dict(os.environ, PYTHONPATH=str(Path(newtonflow.__file__).parents[1]))
    probe = ("import sys, newtonflow; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"
