"""End-to-end checks of the command-line front end (in process)."""

import argparse
import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from compactfix import cli, greenop
from compactfix.casestudy import PROBLEMS
from compactfix.cli import MAX_GRID_N, build_parser, main
from compactfix.funcspace import load_grid_function


def test_solve_writes_run_directory(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["solve", "--grid-step", "0.25", "--truncation", "4",
               "--out", str(out), "--no-timestamp"])
    assert rc == 0
    for name in ("solution.csv", "solution.csv.json", "convergence.csv",
                 "profile.csv", "summary.json"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["problem"] == "hyperbolic-erf"
    assert summary["config"]["rho_ball"] == 0.5
    assert summary["iterations"] >= 1
    assert "converged in" in capsys.readouterr().out


def test_solve_line_counts_converged_profile_nodes(tmp_path, capsys):
    # at truncation 3 the Picard loop converges but only the y = 0 ladder
    # does, so the line must not read as a certified profile
    out = tmp_path / "short"
    rc = main(["solve", "--truncation", "3", "--grid-step", "0.05",
               "--out", str(out), "--no-timestamp"])
    assert rc == 0
    line = capsys.readouterr().out
    assert line.startswith("converged in 5 iterations, ")
    assert "; profile converged at 1 of 21 y-nodes; outputs in" in line
    summary = json.loads((out / "summary.json").read_text())
    assert summary["profile_at_1"] is None
    assert summary["profile_converged"] == 1


def test_solve_iteration_failure_exits_2(tmp_path, capsys):
    rc = main(["solve", "--grid-step", "0.5", "--truncation", "4",
               "--max-iter", "1", "--tol", "1e-30",
               "--out", str(tmp_path / "run")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "numerical failure: no convergence after 1 iterations "
        "(last gap 0.117)\n")


@pytest.mark.parametrize("amplitude, iteration", [(1e10, 7), (1e160, 2)])
def test_non_finite_gap_stops_the_solve(tmp_path, capsys, monkeypatch,
                                        amplitude, iteration):
    # q's exponent doubles with each iteration until q^2 overflows: at
    # amplitude 1e10 the seventh gap is NaN, at 1e160 the second.  The loop
    # stops there, not after --max-iter applications.  The overflow
    # warnings are genuine, so they are shown, one line each
    path = _problem_file(tmp_path, nonlinearity={
        "id": "gauss-plus-square", "params": {"amplitude": amplitude}})
    applies = []
    apply = greenop.GridHammersteinOperator.apply

    def counted(self, samples):
        applies.append(1)
        return apply(self, samples)

    monkeypatch.setattr(greenop.GridHammersteinOperator, "apply", counted)
    with warnings.catch_warnings():
        warnings.filterwarnings("always", "(overflow|invalid value) "
                                "encountered", RuntimeWarning)
        rc = main(["solve", "--problem-file", path,
                   "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert "warning: overflow encountered in square" in err
    assert err[-1] == (f"numerical failure: gap nan at iteration "
                       f"{iteration} is not finite")
    assert len(applies) == iteration


def test_solve_rejects_zero_grid_step(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["solve", "--grid-step", "0", "--out", str(out)])
    assert rc == 1
    assert "usage error: hx must be positive and finite" \
        in capsys.readouterr().err
    assert not out.exists()


def test_solve_rejects_nan_tol(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["solve", "--tol", "nan", "--grid-step", "0.25",
               "--truncation", "4", "--out", str(out)])
    assert rc == 1
    assert "usage error: tol must be positive and finite" \
        in capsys.readouterr().err
    assert not out.exists()


def test_solve_rejects_grid_step_that_does_not_divide(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["solve", "--grid-step", "0.07", "--truncation", "4",
               "--out", str(out)])
    assert rc == 1
    assert "usage error: hx = 0.07 does not divide" in capsys.readouterr().err
    assert not out.exists()


def test_solve_refuses_a_grid_outside_the_node_bounds(tmp_path, capsys):
    # a grid of billions of nodes is refused before q is allocated, and a
    # 2 x 2 grid before the Picard loop: both are usage errors
    out = tmp_path / "run"
    for argv, message in (
            (["--grid-step", "1e-4"], "the grid has 240001 x 10001 = "
                                      "2400250001 nodes, more than "
                                      "MAX_NODES = 10000000"),
            (["--truncation", "1e6"], "the grid has 50000001 x 51 = "
                                      "2550000051 nodes"),
            (["--grid-step", "1", "--truncation", "1"],
             "the grid has 2 x 2 nodes; every axis needs at least 3")):
        rc = main(["solve", *argv, "--out", str(out)])
        assert rc == 1, argv
        assert f"usage error: {message}" in capsys.readouterr().err
        assert not out.exists()


def test_nan_and_infinite_radii_exit_1(tmp_path, capsys):
    for rho in ("nan", "inf"):
        rc = main(["check-conditions", "--rho", rho,
                   "--out", str(tmp_path / f"cc-{rho}")])
        assert rc == 1
        assert "positive and finite" in capsys.readouterr().err
    out = tmp_path / "run"
    rc = main(["solve", "--rho", "nan", "--grid-step", "0.25",
               "--truncation", "4", "--out", str(out)])
    assert rc == 1
    assert "rho must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def _problem_file(tmp_path, **doc):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(dict(
        {"kernel": {"id": "gauss-shift"},
         "nonlinearity": {"id": "gauss-plus-square"}}, **doc)))
    return str(path)


def test_solve_takes_truncation_from_problem_file(tmp_path):
    path = _problem_file(tmp_path, truncation=8.0)
    for extra, want in (([], 8.0), (["--truncation", "4"], 4.0)):
        out = tmp_path / f"run{want:g}"
        rc = main(["solve", "--problem-file", path, "--grid-step", "0.25",
                   "--out", str(out), "--no-timestamp"] + extra)
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["truncation"] == want


def test_check_conditions_takes_truncation_from_problem_file(tmp_path):
    reports = {}
    for name, doc, extra in (("file", {"truncation": 4.0}, []),
                             ("flag", {}, ["--truncation", "4"]),
                             ("default", {}, [])):
        (tmp_path / name).mkdir()
        path = _problem_file(tmp_path / name, **doc)
        out = tmp_path / name / "cc"
        rc = main(["check-conditions", "--problem-file", path,
                   "--rho-range", "0.3:0.5:0.1", "--out", str(out),
                   "--no-timestamp"] + extra)
        assert rc == 0
        reports[name] = (out / "cone_report.json").read_bytes()
    assert reports["file"] == reports["flag"] != reports["default"]


def test_built_in_and_file_problems_solve_alike(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(PROBLEMS["hyperbolic-erf"]))
    solve = ["solve", "--grid-step", "0.25", "--truncation", "4",
             "--no-timestamp"]
    a, b = tmp_path / "built_in", tmp_path / "file"
    assert main(solve + ["--out", str(a)]) == 0
    assert main(solve + ["--problem-file", str(path), "--out", str(b)]) == 0
    for name in ("solution.csv", "solution.csv.json", "convergence.csv",
                 "profile.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    # only the problem id differs: the file names none
    assert (b / "summary.json").read_text().replace(
        '"problem": "custom"', '"problem": "hyperbolic-erf"') \
        == (a / "summary.json").read_text()


def test_windowless_face_is_a_numerical_failure(tmp_path, capsys):
    # on [0, 1] no node lies past the first window's radius 1
    rc = main(["solve", "--truncation", "1", "--grid-step", "0.25",
               "--out", str(tmp_path / "run")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "numerical failure: no nodes in any window of face 'axis0:inf'\n")


def test_validate_writes_its_report_like_every_subcommand(capsys):
    # an empty --out is a directory that cannot be made, for every report
    for cmd in (["validate-closed-forms", "--grid-n", "4"],
                ["check-conditions", "--rho", "0.5"],
                ["compactify-demo"]):
        assert main(cmd + ["--out", ""]) == 1
        assert capsys.readouterr().err == (
            "usage error: [Errno 2] No such file or directory: ''\n")


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_check_conditions_problem_file_writes_strict_json(tmp_path):
    # with weight 1 the dominator r^2 + amp exp(-t^2 - s^2) has no Gaussian
    # tail and C4 diverges on growing finite partials: the report says so
    # in C4's status and records no number for M0*Phi_r
    for rate, weight, c4 in ((2.0, "exp(-x^2/2)", "verified_on_truncation"),
                             (1.0, "1", "diverges")):
        path = _problem_file(
            tmp_path, truncation=12.0, weight=weight,
            kernel={"id": "gauss-shift", "params": {"rate": rate}})
        out = tmp_path / f"cc{rate:g}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["check-conditions", "--problem-file", path,
                       "--out", str(out), "--no-timestamp"])
        assert rc == 0
        doc = json.loads((out / "cone_report.json").read_text(),
                         parse_constant=_refuse_constant)
        assert doc["hypotheses"]["C1"]["status"] == "verified"
        assert doc["hypotheses"]["C4"]["status"] == c4
    # the weight-1 report
    assert doc["hypotheses"]["C3"]["status"] == "unverified"
    assert "M0*Phi_r" not in doc["integrals"]


@pytest.mark.parametrize("command, part, params, message", [
    ("validate-closed-forms", "kernel", {"rate": 0}, "rate must be"),
    ("check-conditions", "kernel", {"rate": -1}, "rate must be"),
    ("check-conditions", "kernel", {"rate": "nan"}, "rate must be"),
    ("check-conditions", "nonlinearity", {"amplitude": -1},
     "amplitude must be"),
])
def test_problem_file_parameters_are_validated(tmp_path, capsys, command,
                                               part, params, message):
    ids = {"kernel": "gauss-shift", "nonlinearity": "gauss-plus-square"}
    path = _problem_file(tmp_path, **{part: {"id": ids[part],
                                             "params": params}})
    out = tmp_path / "run"
    rc = main([command, "--problem-file", path, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and message in err
    assert not out.exists()


def test_quadrature_failure_is_a_numerical_failure(tmp_path, capsys):
    # at rate 1e4 the kernel is a spike of width 1e-2 at t = x, narrower
    # than the finest panels, so its absolute integral cannot settle
    path = _problem_file(tmp_path, kernel={"id": "gauss-shift",
                                           "params": {"rate": 1e4}})
    rc = main(["validate-closed-forms", "--problem-file", path,
               "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: no convergence")
    assert len(err.strip().splitlines()) == 1


def test_overflowing_radius_is_a_numerical_failure(tmp_path, package_env):
    # r^2 overflows the dominator's tail scale; C3's tail search once
    # looped forever on the NaN tail bound.  The overflow warnings are
    # genuine, so this one call runs with them ignored.
    res = subprocess.run(
        [sys.executable, "-W", "ignore::RuntimeWarning", "-m",
         "compactfix.cli", "check-conditions", "--rho", "1e200",
         "--out", str(tmp_path / "run")],
        env=package_env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 2
    err = res.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ")


def test_overflow_warnings_are_one_line_each(tmp_path, package_env):
    # the same call with its warnings shown: each is one "warning: " line,
    # not numpy's location line and source line, before the failure line
    res = subprocess.run(
        [sys.executable, "-m", "compactfix.cli", "check-conditions",
         "--rho", "1e200", "--out", str(tmp_path / "run")],
        env=package_env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 2
    err = res.stderr.strip().splitlines()
    assert len(err) >= 2, err
    assert all(line.startswith("warning: ") for line in err[:-1]), err
    assert err[-1].startswith("numerical failure: ")


def test_long_truncation_solves_past_the_weight_underflow(tmp_path, capsys):
    # exp(-x^2/2) is 0 in float64 beyond x = 38.6, but the solve never
    # divides by it: q converges everywhere and u = phi q rounds to 0 there
    out = tmp_path / "run"
    rc = main(["solve", "--grid-step", "0.1", "--truncation", "40",
               "--out", str(out), "--no-timestamp"])
    assert rc == 0
    assert "profile converged at 11 of 11 y-nodes" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["profile_converged"] == 11
    sol = load_grid_function(out / "solution.csv")
    assert np.all(np.isfinite(sol.samples))
    assert np.all(sol.samples[sol.axes[0] > 38.6] == 0.0)
    assert np.any(sol.samples[sol.axes[0] <= 38.6] > 0.0)
    # the file holds q = u/phi, which stays exact where u rounds to 0
    far = sol.quotient()[sol.axes[0] > 38.6]
    assert np.all(np.isfinite(far)) and np.all(far[:, 1:] > 0.0)
    assert np.all(far[:, 0] == 0.0)  # the y-integral is empty at y = 0


@pytest.mark.parametrize("doc, key", [
    ({"kernel": {"id": "gauss-shift", "params": {"rte": 2}},
      "nonlinearity": {"id": "zero"}}, "'rte'"),
    ({"kernel": {"id": "gauss-shift"}}, "'nonlinearity'"),
    # values of the wrong JSON type: one usage-error line each, never a
    # TypeError traceback, and truncation true is not read as 1.0
    ({"truncation": None, "kernel": {"id": "gauss-shift"},
      "nonlinearity": {"id": "zero"}}, "truncation"),
    ({"truncation": True, "kernel": {"id": "gauss-shift"},
      "nonlinearity": {"id": "zero"}}, "truncation"),
    ({"weight": ["1"], "kernel": {"id": "gauss-shift"},
      "nonlinearity": {"id": "zero"}}, "weight"),
    ({"kernel": {"id": ["gauss-shift"]},
      "nonlinearity": {"id": "zero"}}, "kernel id"),
    ({"kernel": {"id": "gauss-shift"},
      "nonlinearity": {"id": ["zero"]}}, "nonlinearity id"),
    ({"id": ["x", 1], "kernel": {"id": "gauss-shift"},
      "nonlinearity": {"id": "zero"}}, "problem id"),
])
def test_problem_file_key_errors_are_usage_errors(tmp_path, capsys, doc,
                                                  key):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    rc = main(["check-conditions", "--problem-file", str(path),
               "--out", str(tmp_path / "run")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and key in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


def test_solve_rejects_demo_problems(tmp_path, capsys):
    rc = main(["solve", "--problem", "arctan-demo",
               "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "invalid choice: 'arctan-demo'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # a demo has no closed forms to validate, no kernel to check
    ["validate-closed-forms", "--problem", "arctan-demo"],
    ["check-conditions", "--problem", "gaussian-family"],
    # a problem file always carries a kernel, so no demo can read one
    ["ascoli-demo", "--problem-file", "FILE"],
    ["compactify-demo", "--problem-file", "FILE"],
])
def test_problems_and_demos_do_not_mix(tmp_path, capsys, argv):
    path = _problem_file(tmp_path)
    out = tmp_path / "run"
    rc = main([path if a == "FILE" else a for a in argv]
              + ["--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error: ")
    assert not out.exists()


def test_profile_without_a_limit_is_a_numerical_failure(tmp_path, capsys):
    # under exp(-x^2/2) the rate-0.5 kernel makes q grow like exp(x^2/6):
    # the solve runs, but the profile has no limit at infinity
    path = _problem_file(tmp_path, truncation=8.0, kernel={
        "id": "gauss-shift", "params": {"rate": 0.5}})
    out = tmp_path / "run"
    rc = main(["solve", "--problem-file", path, "--grid-step", "0.25",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["numerical failure: no limit of u/phi at y0 = 0.25"]
    assert not out.exists()


def test_solve_prints_the_ball_warning_as_one_line(tmp_path, capsys):
    # at amplitude 1/4 the index-one condition fails at the monitored
    # rho = 0.5; the warning is one line, before the failure line
    path = _problem_file(
        tmp_path, truncation=8.0,
        kernel={"id": "gauss-shift", "params": {"rate": 0.5}},
        nonlinearity={"id": "gauss-plus-square",
                      "params": {"amplitude": 0.25}})
    rc = main(["solve", "--problem-file", path, "--grid-step", "0.25",
               "--truncation", "8", "--out", str(tmp_path / "run")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "warning: index-one condition fails at rho = 0.5 (lhs = 1.253); "
        "the monitored ball is not certified",
        "numerical failure: no limit of u/phi at y0 = 0.25"]


def test_check_conditions_report(tmp_path, capsys):
    out = tmp_path / "cones"
    rc = main(["check-conditions", "--rho-range", "0.15:0.85:0.05",
               "--truncation", "16", "--out", str(out), "--no-timestamp"])
    assert rc == 0
    doc = json.loads((out / "cone_report.json").read_text(),
                     parse_constant=_refuse_constant)
    assert set(doc) == {"problem", "r", "hypotheses", "integrals", "rows",
                        "holding_interval", "sweep_truncation"}
    # the hypothesis report's radius is the ladder's middle rung, and the
    # truncation reaches the sweep only
    assert doc["r"] == 0.5
    assert doc["sweep_truncation"] == 16.0
    assert doc["hypotheses"]["C4"]["status"] == "diverges"
    assert "M0*Phi_r" not in doc["integrals"]
    assert len(doc["rows"]) == 15
    assert all(row["holds"] for row in doc["rows"])
    lo, hi = doc["holding_interval"]
    assert lo == pytest.approx(0.15) and hi == pytest.approx(0.85)
    assert "index-one holds on" in capsys.readouterr().out


def test_check_conditions_prints_the_hypothesis_statuses(tmp_path, capsys):
    # C4 diverges for the shipped problem, and stdout says so; the exit
    # code stays 0
    out = tmp_path / "statuses"
    rc = main(["check-conditions", "--rho", "0.5", "--out", str(out),
               "--no-timestamp"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("hypotheses at r = 0.5: C1 verified, "
                        "C2 verified_on_truncation, C3 verified, "
                        "C4 diverges")
    doc = json.loads((out / "cone_report.json").read_text())
    assert lines[0].split(": ", 1)[1] == ", ".join(
        f"{key} {c['status']}" for key, c in sorted(doc["hypotheses"].items()))


def test_check_conditions_single_rho(tmp_path):
    out = tmp_path / "single"
    rc = main(["check-conditions", "--rho", "0.5", "--out", str(out),
               "--no-timestamp"])
    assert rc == 0
    doc = json.loads((out / "cone_report.json").read_text())
    assert len(doc["rows"]) == 1
    assert doc["rows"][0]["holds"]


def test_check_conditions_rejects_bad_range(tmp_path, capsys):
    # a ladder too long to allocate is refused before np.arange runs
    for bad in ("abc", "1:0.5:0.1", "0:1:-0.1", "0.1:nan:0.1",
                "0.1:1:inf", "nan:1:0.1", "0.1:1e9:1e-9", "0:1:1e-4"):
        rc = main(["check-conditions", "--rho-range", bad,
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("bad", ["0", "-5", "nan", "inf"])
def test_check_conditions_rejects_bad_truncation(tmp_path, capsys, bad):
    rc = main(["check-conditions", "--truncation", bad,
               "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "--truncation must be positive and finite" \
        in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_ascoli_demo(tmp_path, capsys):
    out = tmp_path / "ascoli"
    rc = main(["ascoli-demo", "--out", str(out), "--no-timestamp"])
    assert rc == 0
    doc = json.loads((out / "ascoli_report.json").read_text())
    assert doc["bounded"] and doc["equicontinuous"]
    assert not doc["equiconvergent"]
    assert "equiconvergent: False" in capsys.readouterr().out
    rc = main(["ascoli-demo", "--problem", "bump-chain",
               "--out", str(out)])
    assert rc == 1


def test_compactify_demo_both_problems(tmp_path):
    out = tmp_path / "arctan"
    assert main(["compactify-demo", "--out", str(out),
                 "--no-timestamp"]) == 0
    doc = json.loads((out / "compactify_demo.json").read_text())
    assert doc["two_point"]["+inf"] == pytest.approx(math.pi / 2, abs=1e-6)
    assert doc["one_point"] == {"inf": "no_limit"}
    out2 = tmp_path / "bump"
    assert main(["compactify-demo", "--problem", "bump-chain",
                 "--out", str(out2), "--no-timestamp"]) == 0
    doc2 = json.loads((out2 / "compactify_demo.json").read_text())
    assert doc2["derivative"]["status"] == "no_limit"
    assert main(["compactify-demo", "--problem", "hyperbolic-erf",
                 "--out", str(tmp_path / "bad")]) == 1


def test_validate_closed_forms_pass_and_fail(tmp_path, capsys):
    out = tmp_path / "val"
    rc = main(["validate-closed-forms", "--grid-n", "5", "--out", str(out),
               "--no-timestamp"])
    assert rc == 0
    doc = json.loads((out / "validation.json").read_text())
    assert doc["pass"] is True
    assert all(g < 1e-6 for g in doc["gaps"].values())
    rc = main(["validate-closed-forms", "--grid-n", "5", "--tol", "1e-18",
               "--out", str(tmp_path / "val2"), "--no-timestamp"])
    assert rc == 2
    assert "OUTSIDE TOLERANCE" in capsys.readouterr().out


@pytest.mark.parametrize("args, option", [
    (["--grid-n", "0"], "--grid-n"), (["--grid-n", "-3"], "--grid-n"),
    (["--grid-n", "1"], "--grid-n"), (["--tol", "nan"], "--tol"),
    (["--tol", "0"], "--tol"), (["--tol", "inf"], "--tol"),
    (["--grid-n", str(MAX_GRID_N + 1)], "--grid-n")])
def test_validate_closed_forms_rejects_bad_grid_and_tol(
        tmp_path, capsys, monkeypatch, args, option):
    # refused before any comparison grid is built: the grid's arrays grow
    # as n^2
    def no_grid(*args, **kwargs):
        raise AssertionError("validate_closed_forms was called")

    monkeypatch.setattr(cli, "validate_closed_forms", no_grid)
    rc = main(["validate-closed-forms", *args, "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: " + option)
    assert not (tmp_path / "x").exists()


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["frobnicate"]) == 1
    assert main(["solve", "--frob"]) == 1
    assert main(["solve", "--problem", "nope",
                 "--out", str(tmp_path / "x")]) == 1
    assert main(["solve", "--problem-file", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "x")]) == 1
    assert "usage error" in capsys.readouterr().err


def test_no_timestamp_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["check-conditions", "--rho-range", "0.3:0.5:0.1",
            "--no-timestamp"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "cone_report.json").read_bytes() \
        == (b / "cone_report.json").read_bytes()
    solve = ["solve", "--grid-step", "0.25", "--truncation", "4",
             "--no-timestamp"]
    sa, sb = tmp_path / "solve_a", tmp_path / "solve_b"
    assert main(solve + ["--out", str(sa)]) == 0
    assert main(solve + ["--out", str(sb)]) == 0
    for name in ("solution.csv", "solution.csv.json", "convergence.csv",
                 "profile.csv", "summary.json"):
        assert (sa / name).read_bytes() == (sb / name).read_bytes(), name
    stamped = tmp_path / "c"
    assert main(["check-conditions", "--rho", "0.5",
                 "--out", str(stamped)]) == 0
    doc = json.loads((stamped / "cone_report.json").read_text())
    assert "written_at" in doc


def test_fresh_interpreter_runs_match_in_process(tmp_path, package_env,
                                                 capsys):
    # main freezes the heap it finds, which must change no output: a fresh
    # interpreter writes the bytes an in-process call writes
    solve = ["solve", "--grid-step", "0.25", "--truncation", "4",
             "--no-timestamp"]
    validate = ["validate-closed-forms", "--grid-n", "10", "--no-timestamp"]
    runs = [(solve, "solve_a"), (solve, "solve_b"), (validate, "validate")]
    lines = {}
    for args, name in runs:
        res = subprocess.run(
            [sys.executable, "-m", "compactfix.cli", *args,
             "--out", str(tmp_path / name)],
            env=package_env, capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        lines[name] = res.stdout
    line = (r"converged in \d+ iterations, gap \S+, beta \S+; profile "
            r"converged at \d+ of \d+ y-nodes; outputs in ")
    for name in ("solve_a", "solve_b"):
        assert re.fullmatch(line + re.escape(str(tmp_path / name)) + "\n",
                            lines[name]), lines[name]
    for args, name in ((solve, "solve_in"), (validate, "validate_in")):
        assert main(args + ["--out", str(tmp_path / name)]) == 0
    inproc = capsys.readouterr().out.splitlines(keepends=True)
    assert inproc[0].rpartition("outputs in ")[0] \
        == lines["solve_a"].rpartition("outputs in ")[0]
    assert "".join(inproc[1:]) == lines["validate"]
    for a, b in (("solve_a", "solve_b"), ("solve_a", "solve_in"),
                 ("validate", "validate_in")):
        files = sorted(p.name for p in (tmp_path / a).iterdir())
        assert files and files == sorted(
            p.name for p in (tmp_path / b).iterdir())
        for f in files:
            assert (tmp_path / a / f).read_bytes() \
                == (tmp_path / b / f).read_bytes(), (b, f)


def test_main_freezes_the_heap_of_a_fresh_interpreter(tmp_path, package_env):
    # importing the CLI module freezes nothing; main() does, even on a
    # usage error
    script = ("import gc, sys\nimport compactfix.cli\n"
              "before = gc.get_freeze_count()\n"
              "code = compactfix.cli.main(sys.argv[1:])\n"
              "print(before, gc.get_freeze_count(), code)\n")
    res = subprocess.run(
        [sys.executable, "-c", script, "validate-closed-forms", "--grid-n",
         "1", "--out", str(tmp_path / "run")],
        env=package_env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    before, after, code = (int(v) for v in res.stdout.split())
    assert before == 0 and after > 0 and code == 1


def test_readme_shows_every_subcommand_with_each_problem_id():
    # the README's command-line section is the CLI's user documentation:
    # one example line per subcommand and --problem choice
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for name, sp in sub.choices.items():
        problem = next(a for a in sp._actions if "--problem" in a.option_strings)
        for pid in problem.choices:
            assert f"compactfix {name} --problem {pid}" in section, \
                (name, pid)
