"""Cone functionals, index conditions and the multiplicity chain logic."""

import json
import math

import numpy as np
import pytest
from scipy.special import erf

from compactfix.casestudy import _gauss_square_nonlinearity
from compactfix.cones import (ChainError, ConeSpec, IndexCheck,
                              abs_integral_beta_factor, alpha_inf, beta_sup,
                              cone_membership, default_eval_grid, f_inf_rho,
                              f_sup_rho, gamma_zero, index_one_check,
                              index_one_sweep, index_zero_check,
                              multiplicity_plan)
from compactfix.greenop import Nonlinearity

SQPI2 = math.sqrt(math.pi) / 2.0


def _const_nl(c):
    return Nonlinearity("const", lambda t, s, v: c + 0.0 * (
        np.asarray(t) + np.asarray(s) + np.asarray(v)))


def test_cone_membership():
    spec = ConeSpec()
    assert cone_membership(np.zeros(5), spec)
    assert cone_membership(np.exp(-np.linspace(0.0, 4.0, 9) ** 2), spec)
    bad = np.ones(9)
    bad[3] = -0.1
    assert not cone_membership(bad, spec)
    assert cone_membership(np.full(4, -1e-13), spec)


def test_f_sup_rho_closed_form(problem):
    grid = default_eval_grid()
    # the sup sits at the origin with v = rho, so (1/8 + rho^2) / rho
    assert f_sup_rho(problem.nl, 0.5, grid) == 0.75
    for rho in (0.2, 1.0, 3.0):
        expected = (0.125 + rho * rho) / rho
        assert f_sup_rho(problem.nl, rho, grid) == pytest.approx(
            expected, rel=1e-12)
    assert f_sup_rho(_const_nl(0.0), 1.0, grid) == 0.0
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            f_sup_rho(problem.nl, bad, grid)


def test_f_inf_rho(problem):
    grid = default_eval_grid()
    assert 0.0 <= f_inf_rho(problem.nl, 0.5, grid) < 1e-10
    assert f_inf_rho(_const_nl(2.0), 4.0, grid) == pytest.approx(0.5,
                                                                 rel=1e-12)
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            f_inf_rho(problem.nl, bad, grid)


def _loop_f_sup_rho(nl, rho, grid):
    """Reference: one f evaluation per v-value."""
    tm, sm = np.meshgrid(*grid, indexing="ij")
    best = -np.inf
    for v in np.linspace(0.0, rho, 41):
        best = max(best, float(np.max(nl.eval(tm, sm, v))))
    return best / rho


def _loop_f_inf_rho(nl, rho, grid):
    tm, sm = np.meshgrid(*grid, indexing="ij")
    worst = np.inf
    for v in np.linspace(0.0, 10.0 * rho, 81):
        worst = min(worst, float(np.min(nl.eval(tm, sm, v))))
    return worst / rho


def test_v_ladder_sup_and_inf_match_the_loops(problem, rng):
    unit = _gauss_square_nonlinearity("1", 0.7)
    rhos = np.concatenate([np.round(np.arange(0.05, 1.0 + 0.005, 0.01), 10),
                           10.0 ** rng.uniform(-6.0, 6.0, 20)])
    for grid in (default_eval_grid(), default_eval_grid(3.0)):
        for nl in (problem.nl, unit):
            for rho in rhos:
                assert f_sup_rho(nl, rho, grid) \
                    == _loop_f_sup_rho(nl, rho, grid)
                assert f_inf_rho(nl, rho, grid) \
                    == _loop_f_inf_rho(nl, rho, grid)


def test_nan_nonlinearity_never_certifies_index_one(problem):
    # a NaN once dropped out of the running max: f_sup read 2.0 at 0.5
    nan_nl = Nonlinearity("nan-above", lambda t, s, v: np.where(
        np.asarray(v) > 0.25, math.nan, 1.0 + 0.0 * np.asarray(t)))
    assert math.isnan(f_sup_rho(nan_nl, 0.5, default_eval_grid()))
    assert math.isnan(f_inf_rho(nan_nl, 0.5, default_eval_grid()))
    chk = index_one_check(problem.kernel, nan_nl, problem.spec, 0.5)
    assert math.isnan(chk.lhs) and not chk.holds


def test_beta_factor_is_the_far_corner(problem):
    grid = default_eval_grid()
    beta, prof = abs_integral_beta_factor(problem.kernel, problem.spec, grid)
    assert prof.shape == (len(grid[0]), len(grid[1]))
    assert np.all(prof[0, :] == 0.0) and np.all(prof[:, 0] == 0.0)
    assert beta == prof.max()
    assert beta == pytest.approx(SQPI2 * erf(24.0), abs=1e-9)


def test_index_one_holds_at_half(problem):
    chk = index_one_check(problem.kernel, problem.nl, problem.spec, 0.5)
    assert chk.kind == "index_one" and chk.holds
    assert chk.lhs == pytest.approx(0.75 * SQPI2 * erf(24.0), abs=1e-9)
    assert chk.lhs == pytest.approx(0.6646701940895687, abs=1e-9)
    assert chk.data["f_sup"] == 0.75


def test_index_one_fails_at_small_and_large_radius(problem):
    for rho, lhs in [(0.01, 11.087), (5.0, 4.453)]:
        chk = index_one_check(problem.kernel, problem.nl, problem.spec, rho)
        assert not chk.holds
        assert chk.lhs == pytest.approx(lhs, abs=5e-3)
        assert chk.lhs > 1.0


def test_index_one_sweep_interval(problem):
    rhos = np.arange(0.15, 0.85 + 1e-9, 0.01)
    report = index_one_sweep(problem.kernel, problem.nl, problem.spec, rhos)
    assert all(row["holds"] for row in report.rows)
    lo, hi = report.holding_interval()
    assert lo == pytest.approx(0.15) and hi == pytest.approx(0.85)
    betas = {row["beta_factor"] for row in report.rows}
    assert len(betas) == 1
    doc = json.loads(report.to_json())
    assert len(doc["rows"]) == len(rhos)
    assert set(doc["rows"][0]) == {"rho", "f_sup", "beta_factor", "lhs",
                                   "holds"}
    # lhs is convex in rho here, smallest near the middle of the interval
    lhss = [row["lhs"] for row in report.rows]
    assert min(lhss) < lhss[0] and min(lhss) < lhss[-1]


def test_index_zero_with_zero_gamma_never_holds(problem):
    chk = index_zero_check(problem.kernel, problem.nl, problem.spec, 1.0)
    assert chk.kind == "index_zero"
    assert chk.lhs == 0.0 and not chk.holds
    assert chk.data["gamma_integral"] == 0.0


def test_index_zero_with_constructed_gamma(problem):
    grid = default_eval_grid()
    x_top = grid[0][-1]

    def gamma_profile(t, s):
        return problem.kernel.kx(x_top, t) * np.ones_like(s)

    spec = ConeSpec(gamma_is_zero=False, gamma_sublevels_bounded=True,
                    gamma_kernel_profile=gamma_profile)
    chk = index_zero_check(problem.kernel, _const_nl(2.0), spec, 1.0, grid)
    assert chk.data["gamma_integral"] == pytest.approx(SQPI2 * erf(x_top),
                                                       abs=1e-7)
    assert chk.lhs == pytest.approx(2.0 * SQPI2, abs=1e-6)
    assert chk.holds
    # same data, larger ball: the inf scales down and the check fails
    far = index_zero_check(problem.kernel, _const_nl(2.0), spec, 3.0, grid)
    assert far.lhs < 1.0 and not far.holds
    # boundedness of the sublevel sets is an input, not something the grid
    # can certify; without it the check must not claim to hold
    unbounded = ConeSpec(gamma_is_zero=False, gamma_sublevels_bounded=False,
                         gamma_kernel_profile=gamma_profile)
    chk2 = index_zero_check(problem.kernel, _const_nl(2.0), unbounded, 1.0,
                            grid)
    assert chk2.lhs > 1.0 and not chk2.holds
    with pytest.raises(ValueError, match="gamma_kernel_profile"):
        index_zero_check(problem.kernel, _const_nl(2.0),
                         ConeSpec(gamma_is_zero=False), 1.0, grid)


def test_functional_laws_seeded(rng):
    for _ in range(200):
        u = rng.normal(size=40)
        v = rng.normal(size=40)
        assert alpha_inf(u + v) >= alpha_inf(u) + alpha_inf(v) - 1e-12
        c = abs(rng.normal())
        assert alpha_inf(c * u) == pytest.approx(c * alpha_inf(u), rel=1e-12,
                                                 abs=1e-300)
        assert beta_sup(c * u) == pytest.approx(c * beta_sup(u), rel=1e-12)
        assert beta_sup(u + v) <= beta_sup(u) + beta_sup(v) + 1e-12
        w = np.abs(u)
        assert beta_sup(w) <= beta_sup(w + np.abs(v))
        assert gamma_zero(u) == 0.0


def test_cone_contains_no_lines(rng):
    for _ in range(200):
        u = rng.normal(size=20)
        assert not (alpha_inf(u) >= 0.0 and alpha_inf(-u) >= 0.0)
    w = np.abs(rng.normal(size=20)) + 0.1
    assert alpha_inf(w) > 0.0 and alpha_inf(-w) < 0.0


def _chk(kind, rho):
    return IndexCheck(rho, kind, 0.5, True)


def test_multiplicity_single_index_one_ball():
    spec = ConeSpec()
    plan = multiplicity_plan([_chk("index_one", 0.5)], spec)
    assert plan.verdict == "at least one fixed point"
    assert "beta(u) < 0.5" in plan.detail
    assert plan.chain == (("index_one", 0.5),)


def test_multiplicity_zero_one_pair():
    spec = ConeSpec(b_func=lambda r: 2.0 * r)
    plan = multiplicity_plan([_chk("index_zero", 1.0), _chk("index_one", 3.0)],
                             spec)
    assert plan.verdict == "at least one fixed point"
    assert "zero-one chain" in plan.detail
    assert plan.chain == (("index_zero", 1.0), ("index_one", 3.0))


def test_multiplicity_one_zero_pair():
    spec = ConeSpec(c_func=lambda r: 2.0 * r)
    plan = multiplicity_plan([_chk("index_one", 1.0), _chk("index_zero", 4.0)],
                             spec)
    assert plan.verdict == "at least one fixed point"
    assert "one-zero chain" in plan.detail


def test_multiplicity_separation_failure_is_fatal():
    spec = ConeSpec(b_func=lambda r: 2.0 * r, c_func=lambda r: 2.0 * r)
    with pytest.raises(ChainError, match="single index-one"):
        multiplicity_plan([_chk("index_zero", 1.0), _chk("index_one", 1.5)],
                          spec)


def test_multiplicity_triples():
    spec = ConeSpec(b_func=lambda r: 2.0 * r, c_func=lambda r: 2.0 * r)
    plan = multiplicity_plan([_chk("index_zero", 0.5), _chk("index_one", 2.0),
                              _chk("index_zero", 5.0)], spec)
    assert plan.verdict == "at least two fixed points"
    assert len(plan.chain) == 3
    other = multiplicity_plan([_chk("index_one", 0.5),
                               _chk("index_zero", 2.0),
                               _chk("index_one", 5.0)], spec)
    assert other.verdict == "at least two fixed points"


def test_multiplicity_degrades_without_translation_maps():
    plan = multiplicity_plan([_chk("index_zero", 1.0), _chk("index_one", 3.0)],
                             ConeSpec())
    assert plan.verdict == "at least one fixed point"
    assert "needs b" in plan.detail


def test_multiplicity_edge_cases():
    spec = ConeSpec()
    assert multiplicity_plan([], spec).verdict == "no conclusion"
    failed = IndexCheck(0.5, "index_one", 2.0, False)
    assert multiplicity_plan([failed], spec).verdict == "no conclusion"
    zero_only = multiplicity_plan([_chk("index_zero", 1.0)], spec)
    assert zero_only.verdict == "no conclusion"
    assert "annulus" in zero_only.detail
    with pytest.raises(ValueError, match="sorted"):
        multiplicity_plan([_chk("index_one", 2.0), _chk("index_zero", 1.0)],
                          spec)
