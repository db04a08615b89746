"""Cone functionals and the index-one ball condition."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.special import erf

from compactfix.casestudy import _gauss_square_nonlinearity
from compactfix.cones import (abs_integral_beta_factor, beta_sup,
                              default_eval_grid, f_sup_rho,
                              holding_interval, index_one_check,
                              index_one_sweep)
from compactfix.greenop import Nonlinearity, kernel_abs_integral

SQPI2 = math.sqrt(math.pi) / 2.0


def _const_nl(c):
    return Nonlinearity("const", lambda t, s, v: c + 0.0 * (
        np.asarray(t) + np.asarray(s) + np.asarray(v)))


def test_f_sup_rho_closed_form(problem):
    grid = default_eval_grid(24.0)
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


def _loop_f_sup_rho(nl, rho, grid):
    """Reference: one f evaluation per v-value."""
    tm, sm = np.meshgrid(*grid, indexing="ij")
    best = -np.inf
    for v in np.linspace(0.0, rho, 41):
        best = max(best, float(np.max(nl.eval(tm, sm, v))))
    return best / rho


def test_v_ladder_sup_matches_the_loop(problem, rng):
    unit = _gauss_square_nonlinearity("1", 0.7)
    rhos = np.concatenate([np.round(np.arange(0.05, 1.0 + 0.005, 0.01), 10),
                           10.0 ** rng.uniform(-6.0, 6.0, 20)])
    for grid in (default_eval_grid(24.0), default_eval_grid(3.0)):
        for nl in (problem.nl, unit):
            for rho in rhos:
                assert f_sup_rho(nl, rho, grid) \
                    == _loop_f_sup_rho(nl, rho, grid)


def test_nan_nonlinearity_never_certifies_index_one(problem):
    # a NaN once dropped out of the running max: f_sup read 2.0 at 0.5
    nan_nl = Nonlinearity("nan-above", lambda t, s, v: np.where(
        np.asarray(v) > 0.25, math.nan, 1.0 + 0.0 * np.asarray(t)))
    assert math.isnan(f_sup_rho(nan_nl, 0.5, default_eval_grid(24.0)))
    chk = index_one_check(problem.kernel, nan_nl, 0.5,
                          default_eval_grid(24.0))
    assert math.isnan(chk["lhs"]) and not chk["holds"]


def test_beta_factor_is_the_far_corner(problem):
    grid = default_eval_grid(24.0)
    beta = abs_integral_beta_factor(problem.kernel, grid)
    assert beta == pytest.approx(SQPI2 * erf(24.0), abs=1e-9)
    # the attached closed form against the quadrature of |kx|
    assert beta == pytest.approx(
        beta_sup(kernel_abs_integral(problem.kernel, *grid)), abs=1e-12)
    bare = dataclasses.replace(problem.kernel, abs_integral=None)
    with pytest.raises(ValueError, match="no abs_integral"):
        abs_integral_beta_factor(bare, grid)


def test_index_one_holds_at_half(problem):
    chk = index_one_check(problem.kernel, problem.nl, 0.5,
                          default_eval_grid(24.0))
    assert chk["holds"]
    assert chk["lhs"] == pytest.approx(0.75 * SQPI2 * erf(24.0), abs=1e-9)
    assert chk["lhs"] == pytest.approx(0.6646701940895687, abs=1e-9)
    assert chk["f_sup"] == 0.75
    assert abs_integral_beta_factor(problem.kernel, default_eval_grid(24.0)) \
        == pytest.approx(SQPI2 * erf(24.0), abs=1e-9)


def test_index_one_fails_at_small_and_large_radius(problem):
    for rho, lhs in [(0.01, 11.087), (5.0, 4.453)]:
        chk = index_one_check(problem.kernel, problem.nl, rho,
                              default_eval_grid(24.0))
        assert not chk["holds"]
        assert chk["lhs"] == pytest.approx(lhs, abs=5e-3)
        assert chk["lhs"] > 1.0


def test_index_one_sweep_interval(problem):
    rhos = np.arange(0.15, 0.85 + 1e-9, 0.01)
    report = index_one_sweep(problem.kernel, problem.nl, rhos,
                             default_eval_grid(24.0))
    assert all(row["holds"] for row in report)
    lo, hi = holding_interval(report)
    assert lo == pytest.approx(0.15) and hi == pytest.approx(0.85)
    betas = {row["beta_factor"] for row in report}
    assert len(betas) == 1
    assert len(report) == len(rhos)
    assert set(report[0]) == {"rho", "f_sup", "beta_factor", "lhs",
                                   "holds"}
    # lhs is convex in rho here, smallest near the middle of the interval
    lhss = [row["lhs"] for row in report]
    assert min(lhss) < lhss[0] and min(lhss) < lhss[-1]


def test_functional_laws_seeded(rng, alpha_inf):
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


def test_cone_contains_no_lines(rng, alpha_inf):
    for _ in range(200):
        u = rng.normal(size=20)
        assert not (alpha_inf(u) >= 0.0 and alpha_inf(-u) >= 0.0)
    w = np.abs(rng.normal(size=20)) + 0.1
    assert alpha_inf(w) > 0.0 and alpha_inf(-w) < 0.0
