"""End-to-end checks of the command-line front end (in process)."""

import json
import math
import warnings

import pytest

from compactfix.cli import main


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
    assert "solve failed" in capsys.readouterr().err


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
    # the absolute tolerance of the Phi_r integrals cannot be met at this
    # magnitude
    path = _problem_file(tmp_path, nonlinearity={
        "id": "gauss-plus-square", "params": {"amplitude": 1e200}})
    rc = main(["check-conditions", "--problem-file", path,
               "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: no convergence")
    assert len(err.strip().splitlines()) == 1


def test_weight_underflow_is_a_numerical_failure(tmp_path, capsys):
    # exp(-x^2/2) is 0 in float64 beyond x = 38.6; the error names the
    # first node where it is
    out = tmp_path / "run"
    rc = main(["solve", "--grid-step", "0.1", "--truncation", "40",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: weight exp(-x^2/2)")
    assert "at x = 38.7:" in err
    assert not out.exists()


@pytest.mark.parametrize("doc, key", [
    ({"kernel": {"id": "gauss-shift", "params": {"rte": 2}},
      "nonlinearity": {"id": "zero"}}, "'rte'"),
    ({"kernel": {"id": "gauss-shift"}}, "'nonlinearity'"),
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


def test_solve_rejects_demo_problems(tmp_path, capsys):
    rc = main(["solve", "--problem", "arctan-demo",
               "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "no solve branch" in capsys.readouterr().err


def test_check_conditions_report(tmp_path, capsys):
    out = tmp_path / "cones"
    rc = main(["check-conditions", "--rho-range", "0.15:0.85:0.05",
               "--truncation", "16", "--out", str(out), "--no-timestamp"])
    assert rc == 0
    doc = json.loads((out / "cone_report.json").read_text(),
                     parse_constant=_refuse_constant)
    assert set(doc) == {"problem", "hypotheses", "integrals", "rows",
                        "holding_interval"}
    assert doc["hypotheses"]["C4"]["status"] == "diverges"
    assert "M0*Phi_r" not in doc["integrals"]
    assert len(doc["rows"]) == 15
    assert all(row["holds"] for row in doc["rows"])
    lo, hi = doc["holding_interval"]
    assert lo == pytest.approx(0.15) and hi == pytest.approx(0.85)
    assert "index-one holds on" in capsys.readouterr().out


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
    (["--tol", "0"], "--tol"), (["--tol", "inf"], "--tol")])
def test_validate_closed_forms_rejects_bad_grid_and_tol(tmp_path, capsys,
                                                        args, option):
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
