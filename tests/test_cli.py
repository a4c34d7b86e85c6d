import ast
import dataclasses
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from newtonflow import basin, certify, cli, maps
from newtonflow.cli import _FIELDS, RunConfig, UsageError, main
from newtonflow.flow import FlowOptions
from newtonflow.maps import C1Map


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


def test_verify_ex5_passes(capsys):
    # fault detection (--perturb-jacobian 1e-3 ends in exit 5) is pinned byte
    # for byte by its golden line in golden/certify.jsonl
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


@pytest.mark.parametrize("lines", [
    "bogus = 7\n",
    # the two tolerance keys a --dump-config file held before --tol
    "abs-tol = 1e-3\n",
    "rel-tol = 1e-3\n",
    "abs_tol = 1e-3\n",
    # an option of another subcommand, and a file written for another one
    "x0 = 0,0\n",
    "command = basin\n",
])
def test_a_config_file_sets_only_the_options_of_its_subcommand(tmp_path, capsys, lines):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("map = cubic1d\ntarget = 10\nstart = 0\n" + lines)
    assert main(["solve", "--config", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    # the same file without the line runs
    cfg_path.write_text("command = solve\nmap = cubic1d\ntarget = 10\nstart = 0\n")
    assert main(["solve", "--config", str(cfg_path)]) == 0


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
    # the map cannot be evaluated at a point the user gave
    ["basin", "--map", "zampieri-ex5", "--x0", "800,0", "--res", "3", "--workers", "1"],
    ["solve", "--map", "zampieri-ex5", "--target", "1,0", "--start", "800,1"],
    ["certify", "--map", "zampieri-ex5", "--criterion", "thm21", "--x0", "800,0"],
    ["certify", "--map", "zampieri-ex5", "--criterion", "thm21", "--x0", "1e300,0"],
    ["solve", "--map", "rot-poly2d", "--eps", "nan", "--target", "1,0", "--start", "1,1"],
    ["solve", "--map", "rot-poly2d", "--eps", "inf", "--target", "1,0", "--start", "1,1"],
    ["solve", "--map", "linear", "--A", "nan,0,0,1", "--target", "1,0", "--start", "1,1"],
    ["solve", "--map", "linear", "--A", "1e308,1e308,1e308,1e308",
     "--target", "1,0", "--start", "1,1"],
    # files that cannot be written
    ["solve", "--map", "zampieri-ex5", "--target", "1,0", "--start", "1,1",
     "--traj", "/nonexistent/x.csv"],
    ["solve", "--map", "zampieri-ex5", "--target", "1,0", "--start", "1,1",
     "--out", "/nonexistent/o.json"],
    ["basin", "--map", "zampieri-ex5", "--x0", "0,0", "--res", "3", "--workers", "1",
     "--grid-out", "/nonexistent/g.csv"],
    ["solve", "--map", "cubic1d", "--target", "1", "--start", "0",
     "--dump-config", "/nonexistent/d.cfg"],
    # NaN or infinite constants, growth bounds and tolerances
    ["certify", "--map", "zampieri-ex5", "--criterion", "cor22", "--a", "nan",
     "--grid", "-2,2,-2,2,5"],
    ["certify", "--map", "zampieri-ex5", "--criterion", "hadamard", "--omega", "poly:1,nan",
     "--grid", "-2,2,-2,2,5"],
    ["certify", "--map", "zampieri-ex5", "--criterion", "hadamard", "--omega", "poly:inf",
     "--grid", "-2,2,-2,2,5"],
    ["solve", "--map", "zampieri-ex5", "--target", "1,0", "--start", "1,1", "--tol", "nan"],
    ["certify", "--map", "zampieri-ex5", "--criterion", "coercive", "--growth-factor=-inf"],
    ["certify", "--map", "zampieri-ex5", "--criterion", "coercive", "--growth-factor", "-inf"],
    ["certify", "--map", "zampieri-ex5", "--criterion", "cor22", "--a", "-nan",
     "--grid", "-2,2,-2,2,5"],
    # an empty value is unset only for an option whose default is empty
    ["basin", "--map", "zampieri-ex5", "--x0", "0,0", "--res", ""],
    # malformed values of options the chosen criterion ignores
    ["certify", "--map", "zampieri-ex5", "--criterion", "coercive", "--dirs", "x"],
    ["certify", "--map", "zampieri-ex5", "--criterion", "cor22", "--omega", "wat:1",
     "--grid", "-2,2,-2,2,5"],
    # every ball and sphere draw needs a positive, finite radius and a sample
    ["certify", "--map", "cubic1d", "--criterion", "ball", "--r", "2", "--count", "0"],
    ["certify", "--map", "cubic1d", "--criterion", "coercive", "--spc", "0"],
    ["certify", "--map", "cubic1d", "--criterion", "ball", "--r", "nan"],
    ["certify", "--map", "cubic1d", "--criterion", "ball", "--r", "inf"],
    ["certify", "--map", "cubic1d", "--criterion", "inverse-bound", "--r", "nan"],
    ["certify", "--map", "cubic1d", "--criterion", "inverse-bound", "--r", "inf"],
    ["certify", "--map", "zampieri-ex5", "--criterion", "thm21", "--ball", "nan,10"],
    ["certify", "--map", "zampieri-ex5", "--criterion", "thm21", "--sphere", "inf,10"],
    ["certify", "--map", "cubic1d", "--criterion", "coercive", "--radii", "1,nan"],
    ["certify", "--map", "cubic1d", "--criterion", "coercive", "--radii=-4,-2,-1"],
    # a count inside a vector follows the integer rule, and --res takes at most nx,ny
    ["certify", "--map", "zampieri-ex5", "--criterion", "thm21", "--grid", "-1,1,-1,1,3.9"],
    ["certify", "--map", "zampieri-ex5", "--criterion", "thm21", "--ball", "1,20.9"],
    ["certify", "--map", "zampieri-ex5", "--criterion", "thm21", "--sphere", "1,20.9"],
    ["basin", "--map", "zampieri-ex5", "--x0", "0,0", "--res", "3,3,7", "--workers", "1"],
    # a process pool needs a worker
    ["basin", "--map", "zampieri-ex5", "--x0", "0,0", "--res", "3", "--workers", "0"],
    ["basin", "--map", "zampieri-ex5", "--x0", "0,0", "--res", "3", "--workers", "-4"],
    # one step tolerance: the abs/rel pair is gone
    ["solve", "--map", "zampieri-ex5", "--target", "1,0", "--start", "1,1",
     "--abs-tol", "1e-6"],
    ["basin", "--map", "zampieri-ex5", "--x0", "0,0", "--res", "3", "--workers", "1",
     "--rel-tol", "1e-6"],
])
def test_bad_values_exit_one_without_traceback(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv, value", [
    (["--criterion", "ball", "--r", "nan"], "nan"),
    (["--criterion", "inverse-bound", "--r", "inf"], "inf"),
    (["--criterion", "thm21", "--ball", "nan,10"], "nan"),
    (["--criterion", "thm21", "--sphere", "inf,10"], "inf"),
    (["--criterion", "coercive", "--radii", "1,nan"], "nan"),
])
def test_non_finite_radius_is_named(capsys, argv, value):
    assert main(["certify", "--map", "cubic1d"] + argv) == 1
    assert capsys.readouterr().err == f"error: radius must be positive and finite, got {value}\n"


@pytest.mark.parametrize("criterion, flag, value", [
    ("coercive", "--growth-factor", "-inf"),
    ("coercive", "--growth-factor", "-Infinity"),
    ("cor22", "--a", "-nan"),
])
def test_dash_led_float_literal_reaches_its_parser(capsys, criterion, flag, value):
    base = ["certify", "--map", "zampieri-ex5", "--criterion", criterion,
            "--grid", "-2,2,-2,2,5"]
    assert main(base + [f"{flag}={value}"]) == 1
    joined = capsys.readouterr().err
    assert main(base + [flag, value]) == 1
    assert capsys.readouterr().err == joined
    assert "expected one argument" not in joined


def test_empty_value_of_an_option_with_empty_default_is_unset(capsys):
    base = ["certify", "--map", "zampieri-ex5", "--criterion", "ball", "--count", "50"]
    _, unset = _run(capsys, base)
    code, empty = _run(capsys, base + ["--x0", "", "--out", "", "--sphere", ""])
    assert code == 0
    assert _strip_timestamp(empty) == _strip_timestamp(unset)


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


def _default_of(fn, name):
    return inspect.signature(fn).parameters[name].default


# (subcommand, option, the library default its default text repeats)
_REPEATED_DEFAULTS = [
    *[(command, f.name.replace("_", "-"), getattr(opts, f.name))
      for command, opts in (("solve", FlowOptions()), ("basin", basin.SCAN_OPTIONS))
      for f in dataclasses.fields(FlowOptions)],
    ("certify", "dirs", _default_of(certify.check_theorem31, "n_dirs")),
    ("certify", "spc", _default_of(certify.check_coercive_map, "samples_per_sphere")),
    ("certify", "growth-factor", _default_of(certify.check_coercive_map, "growth_factor")),
    ("certify", "count", _default_of(certify.check_bounded_inverse_on_ball, "count")),
]


@pytest.mark.parametrize("command, name, expected", _REPEATED_DEFAULTS)
def test_option_defaults_repeat_the_library_defaults(command, name, expected):
    # the option table writes these defaults as text, pinned by options.json;
    # a change on either side alone must fail here
    [(default, parse)] = [(d, p) for n, d, _h, p in _FIELDS[command] if n == name]
    value = parse(default)
    assert value == expected and type(value) is type(expected)


def test_readme_names_only_flags_the_cli_has():
    # a renamed or removed option must take its README mentions with it
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--([a-z][a-z0-9-]*)", section))
    options = {name for fields in _FIELDS.values() for name, *_ in fields}
    assert named, "no flags found in the Command line section"
    assert named - options - {"config", "dump-config", "help"} == set()


def test_import_does_not_load_scipy():
    import newtonflow

    env = dict(os.environ, PYTHONPATH=str(Path(newtonflow.__file__).parents[1]))
    probe = ("import sys, newtonflow; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


def test_numpy_is_the_only_dependency():
    import newtonflow

    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    src = Path(newtonflow.__file__).parent
    allowed = set(sys.stdlib_module_names) | {"numpy", "newtonflow"}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            assert set(roots) <= allowed, (path.name, node.lineno, roots)
    pyproject = src.parents[1] / "pyproject.toml"
    deps = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group() for d in deps] == ["numpy"]


@pytest.mark.parametrize("argv", [
    ["solve", "--map", "linear", "--A", "1e308,1e308,1e308,1e308",
     "--target", "1,0", "--start", "1,1"],
    ["certify", "--seed", "3", "--map", "exp1d", "--criterion", "thm21",
     "--k", "logcoercive", "--grid", "-800,800,41"],
    ["certify", "--seed", "3", "--map", "exp1d", "--criterion", "thm31", "--k", "logh",
     "--a", "1", "--b", "1", "--c", "1", "--grid", "-800,800,41"],
])
def test_handled_overflow_prints_no_numpy_warning(argv):
    import newtonflow

    env = dict(os.environ, PYTHONPATH=str(Path(newtonflow.__file__).parents[1]))
    err = subprocess.run([sys.executable, "-m", "newtonflow.cli", *argv], env=env,
                         capture_output=True, text=True, timeout=120).stderr
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize("argv, point", [
    (["solve", "--map", "zampieri-ex5", "--target", "1,0", "--start", "800,1"], "[800.0, 1.0]"),
    # one cell's seed ends the whole scan
    (["basin", "--map", "zampieri-ex5", "--x0", "0,0", "--box", "700,720,-1,1",
      "--res", "3", "--workers", "1"], "[710.0, -0.6666666666666667]"),
])
def test_overflow_at_a_given_point_names_the_map_and_the_point(capsys, argv, point):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: map 'zampieri-ex5' produced non-finite values at {point}\n"


def test_pooled_scan_reports_a_worker_overflow_like_the_serial_one(capsys):
    argv = ["basin", "--map", "zampieri-ex5", "--x0", "0,0", "--box", "700,720,-1,1",
            "--res", "9"]
    assert main(argv + ["--workers", "1"]) == 1
    serial = capsys.readouterr().err
    assert main(argv + ["--workers", "2"]) == 1
    assert capsys.readouterr().err == serial


def test_cor22_skips_samples_where_the_residual_overflows(capsys):
    # y* - f(x) = 1e308 - (-1e308) overflows on the three grid points with x = -1
    code, out = _run(capsys, ["certify", "--map", "linear", "--A", "1e308,0,0,1e308",
                              "--criterion", "cor22", "--x0", "1,0",
                              "--grid", "-1,1,-1,1,3"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["samples_used"], doc["samples_skipped_singular"]) == (6, 3)
    # F(x) = (1, 0) - x, so x . F(x) <= 0 on the kept points, with 0 at the origin
    assert doc["verdict"] == "satisfied" and doc["extremal_value"] == 0.0


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    # perfbench/tracing.py swaps program functions by module and name; a
    # refactor that drops one of those names must fail here, not in a traced
    # benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    swapped = [(maps, "builtin"), (cli, "builtin"), (C1Map, "eval")] + tracing.SPANNED
    before = [getattr(owner, name) for owner, name in swapped]
    with tracing.Tracer("t").installed() as tracer:
        assert all(getattr(owner, name) is not fn
                   for (owner, name), fn in zip(swapped, before))
        m = maps.builtin("zampieri-ex5")
        certify.check_cor22(m, (0, 0), (0, 0), 1.0, 1.0, 0.0,
                            certify.GridSampler(((-1, 1), (-1, 1)), 3))
    assert [getattr(owner, name) for owner, name in swapped] == before
    [span] = tracer.named("check_cor22")
    assert span.attrs["samples_used"] == 9 and tracer.eval_calls == 1
