"""Named problems, the pipeline driver and closed-form validation."""

import json
import math
import warnings

import numpy as np
import pytest

from compactfix.casestudy import (PROBLEM_IDS, load_problem,
                                  load_problem_file, run_full_pipeline,
                                  validate_closed_forms)
from compactfix.compactify import ExtensionError
from compactfix.funcspace import WEIGHT_REGISTRY, BumpChain
from compactfix.greenop import check_hypotheses
from compactfix.solver import SolveConfig, pde_residual, picard_solve


def test_load_problem_knows_every_id():
    for pid in PROBLEM_IDS:
        assert load_problem(pid).id == pid
    with pytest.raises(ValueError) as err:
        load_problem("lorentzian")
    assert "hyperbolic-erf" in str(err.value)


def test_hyperbolic_problem_wiring(problem, rng):
    assert problem.weight_desc == "exp(-x^2/2)"
    assert problem.weight is WEIGHT_REGISTRY["exp(-x^2/2)"]
    assert problem.kernel.name == "gauss-shift"
    assert problem.default_config.rho_ball == 0.5
    assert set(problem.closed_forms) == {"abs_integral", "Tu0", "Tu0_face"}
    assert problem.kernel.weighted_sup(2.0, 0.5) == pytest.approx(
        math.exp(4.0))
    xs = np.linspace(0.0, 30.0, 61)
    assert np.all(problem.weight(xs) > 0.0)
    for _ in range(200):
        x, t = rng.uniform(0.0, 6.0, size=2)
        assert problem.kernel.kx(x, t) == pytest.approx(
            math.exp(-(x - t) ** 2))


def test_closed_forms_match_quadrature(problem):
    gaps = validate_closed_forms(problem, n=8)
    assert set(gaps) == {"abs_integral", "Tu0", "Tu0_face"}
    for name, gap in gaps.items():
        assert gap < 1e-6, name


def test_pipeline_gaussian_family_branch():
    bundle = run_full_pipeline("gaussian-family")
    demo = bundle.demo
    assert demo["bounded"] and demo["equicontinuous"]
    assert not demo["equiconvergent"]
    assert demo["separation"] == pytest.approx(0.7303884874204196, abs=1e-9)
    assert demo["worst_deviation"] > 0.5
    assert not bundle.objects["report"].all_conditions
    doc = bundle.summary()
    assert doc["problem"] == "gaussian-family"
    json.dumps(doc)


def test_pipeline_bump_chain_branch():
    bundle = run_full_pipeline("bump-chain")
    demo = bundle.demo
    assert demo["value"]["status"] == "converged"
    assert abs(demo["value"]["value"]) < 1e-3
    assert demo["derivative"]["status"] == "no_limit"
    # the witness points expose the full swing of the derivative
    assert demo["derivative"]["oscillation"] == pytest.approx(
        BumpChain.peak_slope, abs=1e-9)


def test_pipeline_arctan_branch():
    bundle = run_full_pipeline("arctan-demo")
    demo = bundle.demo
    assert demo["two_point"]["+inf"] == pytest.approx(math.pi / 2, abs=1e-6)
    assert demo["two_point"]["-inf"] == pytest.approx(-math.pi / 2, abs=1e-6)
    assert demo["one_point"] == {"inf": "no_limit"}
    assert isinstance(bundle.objects["one_point_error"], ExtensionError)


def test_pipeline_hyperbolic_solve_branch():
    cfg = SolveConfig(hx=0.1, hy=0.1, truncation=16.0, tol=1e-8,
                      rho_ball=0.5)
    bundle = run_full_pipeline("hyperbolic-erf", cfg)
    statuses = {k: v.status for k, v in bundle.hypotheses.conditions.items()}
    assert statuses == {"C1": "verified", "C2": "verified_on_truncation",
                        "C3": "verified", "C4": "diverges"}
    assert "M0*Phi_r" not in bundle.hypotheses.integrals
    lo, hi = bundle.cone.holding_interval()
    assert lo == pytest.approx(0.15) and hi == pytest.approx(1.0)
    held = {row["rho"] for row in bundle.cone.rows if row["holds"]}
    assert 0.5 in held and 0.05 not in held and 0.1 not in held
    s = bundle.solve
    assert s.in_ball is True
    assert max(s.beta_history) <= 0.5
    assert pde_residual(s.solution, bundle.problem.nl) == pytest.approx(
        0.069, abs=5e-3)
    assert s.residual_sup < 5e-3
    assert all(r.status == "converged" for _, r in s.profile)
    doc = bundle.summary()
    assert set(doc) == {"problem", "config", "hypotheses", "cone", "solve"}
    assert doc["solve"]["iterations"] == s.iterations


def test_pipeline_summary_is_deterministic():
    cfg = SolveConfig(hx=0.25, hy=0.25, truncation=8.0, tol=1e-8,
                      rho_ball=0.5)
    one = run_full_pipeline("hyperbolic-erf", cfg).summary()
    two = run_full_pipeline("hyperbolic-erf", cfg).summary()
    assert one == two


def test_load_problem_file(tmp_path):
    doc = {"id": "fast-decay", "truncation": 12.0,
           "kernel": {"id": "gauss-shift", "params": {"rate": 2.0}},
           "nonlinearity": {"id": "gauss-plus-square",
                            "params": {"amplitude": 0.25}}}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    prob = load_problem_file(path)
    assert prob.id == "fast-decay"
    assert prob.default_config.truncation == 12.0
    assert prob.kernel.kx(1.0, 0.0) == pytest.approx(math.exp(-2.0))
    # the analytic weighted sup is only known for the unit rate
    assert prob.kernel.weighted_sup is None
    assert prob.nl.eval(0.0, 0.0, 0.0) == 0.25
    assert prob.weight_desc == "exp(-x^2/2)"
    assert "abs_integral" in prob.closed_forms
    # a weight-"1" file solves through the registry's unit weight
    path.write_text(json.dumps(dict(doc, weight="1")))
    flat = load_problem_file(path)
    assert flat.weight is WEIGHT_REGISTRY["1"]
    res = picard_solve(flat, SolveConfig(hx=0.25, hy=0.25, truncation=4.0))
    assert res.solution.weight_desc == "1"
    assert np.array_equal(res.solution.quotient(), res.solution.samples)
    assert res.solution.samples.max() > 0.0


def _gauss_shift_problem(tmp_path, rate, weight):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(
        {"truncation": 8.0, "weight": weight,
         "kernel": {"id": "gauss-shift", "params": {"rate": rate}},
         "nonlinearity": {"id": "gauss-plus-square",
                          "params": {"amplitude": 0.25}}}))
    return load_problem_file(path)


def test_unit_weight_file_gets_no_gaussian_weight_closed_forms(tmp_path):
    prob = _gauss_shift_problem(tmp_path, 1.0, "1")
    assert prob.kernel.weighted_sup is None
    assert prob.kernel.weighted_quotient is None
    rep = check_hypotheses(prob.kernel, prob.weight, prob.nl, 0.5,
                           truncation=8.0)
    # sup over x >= t of exp(-(x-t)^2) / 1 is 1, attained at x = t
    ts, sup = rep.profiles["M0"]
    assert np.allclose(sup, 1.0)
    assert rep.conditions["C1"].status == "verified"
    # Phi_r = amp exp(-t^2 - s^2) + r^2 dominates f on |v| <= r, and its
    # constant part has no Gaussian tail: C3 says so instead of integrating
    # to a cut-off, and M0 * Phi_r grows with every truncation radius
    c3 = rep.conditions["C3"]
    assert c3.status == "unverified"
    assert "no Gaussian tail" in c3.detail
    assert float(c3.detail.split("margin ")[1].split(" ")[0]) <= 0.0
    assert "Phi_r" not in rep.integrals
    assert "|z0|*Phi_r" not in rep.integrals
    # every partial is finite, so no number is recorded for the product
    c4 = rep.conditions["C4"]
    assert c4.status == "diverges"
    assert all(math.isfinite(p) for p in c4.data["partials"])
    assert "M0*Phi_r" not in rep.integrals


def test_rate_two_file_quotient_is_exact_far_out(tmp_path):
    prob = _gauss_shift_problem(tmp_path, 2.0, "exp(-x^2/2)")
    x = np.array([40.0, 64.0])
    # exp(x^2/2 - 2 (x-1)^2), where kx and phi have both underflowed
    assert np.array_equal(prob.kernel.weighted_quotient(x, 1.0),
                          np.exp(x ** 2 / 2.0 - 2.0 * (x - 1.0) ** 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_hypotheses(prob.kernel, prob.weight, prob.nl, 0.5,
                               truncation=8.0)
    assert rep.conditions["C1"].status == "verified"
    assert np.all(np.isfinite(rep.profiles["z0"]))
    assert rep.conditions["C4"].status == "verified_on_truncation"
    assert all(math.isfinite(v) for v in rep.integrals.values())


def test_load_problem_file_rejects_unknown_pieces(tmp_path):
    base = {"kernel": {"id": "gauss-shift"},
            "nonlinearity": {"id": "zero"}}

    def write(**overrides):
        doc = dict(base, **overrides)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return path

    with pytest.raises(ValueError, match="unknown kernel"):
        load_problem_file(write(kernel={"id": "bessel"}))
    with pytest.raises(ValueError, match="unknown nonlinearity"):
        load_problem_file(write(nonlinearity={"id": "cubic"}))
    with pytest.raises(ValueError, match="unknown weight"):
        load_problem_file(write(weight="exp(-x)"))
