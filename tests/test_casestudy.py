"""Named problems, the pipeline driver and closed-form validation."""

import json
import math
import warnings

import numpy as np
import pytest

from compactfix.casestudy import (DEMOS, PROBLEM_IDS, PROBLEMS, load_problem,
                                  load_problem_file, run_full_pipeline,
                                  validate_closed_forms)
from compactfix.funcspace import WEIGHT_REGISTRY, BumpChain
from compactfix.greenop import _weighted_quotient_sups, check_hypotheses
from compactfix.solver import SolveConfig, picard_solve


def test_load_problem_knows_every_id():
    for pid in PROBLEM_IDS:
        assert load_problem(pid).id == pid
    with pytest.raises(ValueError) as err:
        load_problem("lorentzian")
    assert "hyperbolic-erf" in str(err.value)
    # the demos are not problems
    for demo_id in DEMOS:
        with pytest.raises(ValueError, match="unknown problem id"):
            load_problem(demo_id)


def test_hyperbolic_problem_wiring(problem, rng):
    assert problem.weight_desc == "exp(-x^2/2)"
    assert problem.weight is WEIGHT_REGISTRY["exp(-x^2/2)"]
    assert problem.kernel.name == "gauss-shift"
    assert problem.truncation == 24.0
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
    demo = run_full_pipeline("gaussian-family")
    assert demo["bounded"] and demo["equicontinuous"]
    assert not demo["equiconvergent"]
    assert demo["separation"] == pytest.approx(0.7303884874204196, abs=1e-9)
    assert demo["worst_deviation"] > 0.5
    json.dumps(demo)


def test_pipeline_bump_chain_branch():
    demo = run_full_pipeline("bump-chain")
    assert demo["value"]["status"] == "converged"
    assert abs(demo["value"]["value"]) < 1e-3
    assert demo["derivative"]["status"] == "no_limit"
    # the witness points expose the full swing of the derivative
    assert demo["derivative"]["oscillation"] == pytest.approx(
        BumpChain.peak_slope, abs=1e-9)


def test_pipeline_arctan_branch():
    demo = run_full_pipeline("arctan-demo")
    assert demo["two_point"]["+inf"] == pytest.approx(math.pi / 2, abs=1e-6)
    assert demo["two_point"]["-inf"] == pytest.approx(-math.pi / 2, abs=1e-6)
    assert demo["one_point"] == {"inf": "no_limit"}


def test_pipeline_refuses_problems_with_a_kernel():
    # the CLI solves and checks kernel problems itself; the error names
    # the demos
    with pytest.raises(ValueError, match="unknown demo id") as err:
        run_full_pipeline("hyperbolic-erf")
    for demo_id in DEMOS:
        assert demo_id in str(err.value)


def test_pipeline_summary_is_deterministic():
    # the demo summary is what ascoli-demo and compactify-demo write
    for pid in DEMOS:
        one, two = (json.dumps(run_full_pipeline(pid)) for _ in "12")
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
    assert prob.truncation == 12.0
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


def test_built_in_problem_is_its_document(tmp_path):
    # load_problem and load_problem_file build the same document alike
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(dict(PROBLEMS["hyperbolic-erf"],
                                    id="hyperbolic-erf")))
    built_in = load_problem("hyperbolic-erf")
    from_file = load_problem_file(path)
    assert from_file.id == built_in.id
    assert from_file.truncation == built_in.truncation
    assert sorted(from_file.closed_forms) == sorted(built_in.closed_forms) \
        == ["Tu0", "Tu0_face", "abs_integral"]
    assert validate_closed_forms(from_file) == validate_closed_forms(built_in)


@pytest.mark.parametrize("doc, forms", [
    ({}, ["Tu0", "Tu0_face", "abs_integral"]),
    ({"nonlinearity": {"id": "gauss-plus-square",
                       "params": {"amplitude": 0.5}}},
     ["Tu0", "Tu0_face", "abs_integral"]),
    ({"weight": "1"}, ["abs_integral"]),
    ({"kernel": {"id": "gauss-shift", "params": {"rate": 2.0}}},
     ["abs_integral"]),
    ({"nonlinearity": {"id": "zero"}}, ["abs_integral"]),
])
def test_closed_forms_follow_the_pieces(tmp_path, doc, forms):
    # T(0) and its face values reduce to erf only for the rate-1
    # gauss-shift kernel and the gauss-plus-square forcing (of any
    # amplitude) under exp(-x^2/2), whatever the problem's id
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(dict(PROBLEMS["hyperbolic-erf"], **doc)))
    problem = load_problem_file(path)
    assert sorted(problem.closed_forms) == forms
    gaps = validate_closed_forms(problem, n=8)
    assert sorted(gaps) == forms
    assert max(gaps.values()) < 1e-6


def _gauss_shift_problem(tmp_path, rate, weight):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(
        {"truncation": 8.0, "weight": weight,
         "kernel": {"id": "gauss-shift", "params": {"rate": rate}},
         "nonlinearity": {"id": "gauss-plus-square",
                          "params": {"amplitude": 0.25}}}))
    return load_problem_file(path)


def test_unit_weight_file_gets_no_gaussian_weight_closed_forms(tmp_path,
                                                               c4_partials):
    rate = 1.0
    prob = _gauss_shift_problem(tmp_path, rate, "1")
    assert prob.kernel.weighted_sup is None
    # phi = 1 makes kx, d log kx/dx and f their own weighted forms, bitwise
    x = np.linspace(0.0, 8.0, 33)[:, None]
    t = np.linspace(0.0, 8.0, 29)[None, :]
    kx = prob.kernel.kx(x, t)
    assert np.array_equal(prob.kernel.weighted_quotient(x, t), kx)
    assert np.array_equal(prob.kernel.qx(x, t), kx)
    assert np.array_equal(prob.kernel.dlog_qx(x, t), -2.0 * rate * (x - t))
    s = np.linspace(0.0, 1.0, 29)[None, :]
    q = np.linspace(-1.0, 1.0, 33)[:, None] * s
    assert np.array_equal(prob.nl.q_eval(x, s, q), prob.nl.eval(x, s, q))
    rep = check_hypotheses(prob.kernel, prob.weight, prob.nl, 0.5)
    # sup over x >= t of exp(-(x-t)^2) / 1 is 1, attained at x = t, on the
    # report's 41 columns of [0, 8]
    sup = _weighted_quotient_sups(prob.kernel.weighted_quotient,
                                  np.linspace(0.0, 8.0, 41), 16.0)
    assert np.allclose(sup, 1.0)
    assert rep["hypotheses"]["C1"]["status"] == "verified"
    # Phi_r = amp exp(-t^2 - s^2) + r^2 dominates f on |v| <= r, and its
    # constant part has no Gaussian tail: C3 says so instead of integrating
    # to a cut-off, and M0 * Phi_r grows with every truncation radius
    c3 = rep["hypotheses"]["C3"]
    assert c3["status"] == "unverified"
    assert "no Gaussian tail" in c3["detail"]
    assert float(c3["detail"].split("margin ")[1].split(" ")[0]) <= 0.0
    assert "Phi_r" not in rep["integrals"]
    assert "|z0|*Phi_r" not in rep["integrals"]
    # every partial is finite, so no number is recorded for the product
    c4 = rep["hypotheses"]["C4"]
    assert c4["status"] == "diverges"
    assert all(math.isfinite(p) for p in c4_partials(rep))
    assert "M0*Phi_r" not in rep["integrals"]


def test_rate_two_file_quotient_is_exact_far_out(tmp_path):
    prob = _gauss_shift_problem(tmp_path, 2.0, "exp(-x^2/2)")
    x = np.array([40.0, 64.0])
    # exp(x^2/2 - 2 (x-1)^2), where kx and phi have both underflowed
    assert np.array_equal(prob.kernel.weighted_quotient(x, 1.0),
                          np.exp(x ** 2 / 2.0 - 2.0 * (x - 1.0) ** 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_hypotheses(prob.kernel, prob.weight, prob.nl, 0.5)
    assert rep["hypotheses"]["C1"]["status"] == "verified"
    # the face limit z0 is finite on all 9 sampled columns
    assert "face limit exists at 9 sampled columns" \
        in rep["hypotheses"]["C1"]["detail"]
    assert rep["hypotheses"]["C4"]["status"] == "verified_on_truncation"
    assert all(math.isfinite(v) for v in rep["integrals"].values())


def _hand_forms(rate):
    """The weighted forms of exp(-rate (x-t)^2) for phi = exp(-x^2/2),
    derived by hand: kx/phi = exp(x^2/2 - rate (x-t)^2), and
    qx = kx(x, t) phi(t)^2 / phi(x) as a square in t, a Gaussian ridge of
    width 1/sqrt(rate + 1) about t = rate x / (rate + 1); dlog_qx is the
    exponent's x-derivative, with (rate + 1) centre = rate."""
    centre = rate / (rate + 1.0)
    growth = (1.0 - rate) / (2.0 * (rate + 1.0))

    def weighted_quotient(x, t):
        return np.exp(x ** 2 / 2.0 - rate * (x - t) ** 2)

    def qx(x, t):
        return np.exp(growth * x ** 2 - (rate + 1.0) * (t - centre * x) ** 2)

    def dlog_qx(x, t):
        return 2.0 * (growth * x + rate * (t - centre * x))

    return {"weighted_quotient": weighted_quotient, "qx": qx,
            "dlog_qx": dlog_qx}


@pytest.mark.parametrize("rate", [0.5, 1.0, 2.0])
def test_derived_forms_match_the_hand_derived_ones(tmp_path, rate):
    # the forms derived from log kx and log phi against the algebra above,
    # on the h = 0.01 grid of [0, 24], to 1e-12 of each row's peak
    kernel = _gauss_shift_problem(tmp_path, rate, "exp(-x^2/2)").kernel
    xs = np.linspace(0.0, 24.0, 2401)
    for name, hand in _hand_forms(rate).items():
        for a in range(0, len(xs), 256):
            x, t = xs[a:a + 256, None], xs[None, :]
            want = hand(x, t)
            peak = np.abs(want).max(axis=1, keepdims=True)
            gap = np.abs(getattr(kernel, name)(x, t) - want)
            assert np.all(gap <= 1e-12 * peak), (name, a)


@pytest.mark.parametrize("weight", ["1", "exp(-x^2/2)"])
@pytest.mark.parametrize("rate", [1.0, 2.0])
def test_dqx_is_the_x_derivative_of_qx(tmp_path, rate, weight):
    kernel = _gauss_shift_problem(tmp_path, rate, weight).kernel
    x = np.linspace(0.0, 12.0, 49)[:, None]
    t = np.linspace(0.0, 12.0, 37)[None, :]
    h = 1e-6
    centred = (kernel.qx(x + h, t) - kernel.qx(x - h, t)) / (2.0 * h)
    dqx = kernel.dlog_qx(x, t) * kernel.qx(x, t)
    assert np.max(np.abs(dqx - centred)) < 1e-8
    if rate == 1.0 and weight == "exp(-x^2/2)":
        assert np.allclose(dqx, -(x - 2.0 * t) * kernel.qx(x, t),
                           rtol=1e-14, atol=0.0)


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
    # JSON of the wrong type is refused with a ValueError, never a TypeError
    with pytest.raises(ValueError, match="unknown weight"):
        load_problem_file(write(weight=["1"]))
    with pytest.raises(ValueError, match="unknown kernel id"):
        load_problem_file(write(kernel={"id": ["gauss-shift"]}))
    with pytest.raises(ValueError, match="unknown nonlinearity id"):
        load_problem_file(write(nonlinearity={"id": ["zero"]}))
    with pytest.raises(ValueError, match="problem id must be a string"):
        load_problem_file(write(id=["x", 1]))
    for bad in (None, True, "24", 0, -1.0):
        with pytest.raises(ValueError, match="truncation must be"):
            load_problem_file(write(truncation=bad))
