"""Cone functionals and the index-one ball condition.

The cone is K = {u : alpha(u) >= 0} for the pointwise infimum alpha, and
its balls are measured by beta, the sup norm.  The checkable index
condition is

  index one  on {beta < rho}:   0 < f_sup_rho * beta(abs kernel integral) < 1

and where it holds the ball {beta < rho} holds a fixed point.  A window of
such radii certifies existence and locates the solution; it says nothing
about a second one, and none exists for the problems this package can
express: their y-integral is always over [0, y], so the equation is
Volterra in y and Gronwall in the weighted norm allows at most one bounded
solution.
"""

from __future__ import annotations

import math

import numpy as np


def beta_sup(samples):
    """Default scale functional: the sup norm."""
    return float(np.max(np.abs(samples)))


def default_eval_grid(truncation):
    """33 x 9 nodes on [0, truncation] x [0, 1]."""
    return (np.linspace(0.0, truncation, 33), np.linspace(0.0, 1.0, 9))


def f_sup_rho(nl, rho, grid):
    """sup of f(t, s, v)/rho over the grid and 41 values v in [0, rho].

    Equals the cone quantity sup{f(t, u(t))/rho : u in K, beta(u) = rho}
    when f is continuous in v (tent functions realize any pointwise value);
    the v-grid makes it exact at the endpoints for v-monotone f.  All 41
    values are evaluated in one call.
    """
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError(f"rho must be positive and finite, got {rho!r}")
    tm, sm = np.meshgrid(*grid, indexing="ij")
    vals = nl.eval(tm, sm, np.linspace(0.0, rho, 41)[:, None, None])
    return float(np.max(vals)) / rho


def abs_integral_beta_factor(kernel, grid):
    """beta applied to the kernel's attached closed form abs_integral on
    the grid; ValueError for a kernel without one (validate-closed-forms
    checks the closed form against quadrature)."""
    if kernel.abs_integral is None:
        raise ValueError(f"kernel {kernel.name!r} has no abs_integral")
    return beta_sup(kernel.abs_integral(*np.meshgrid(*grid, indexing="ij")))


def index_one_check(kernel, nl, rho, grid, beta_factor=None):
    """Check 0 < f_sup_rho * beta(kernel abs integral) < 1 on grid, as the
    JSON-ready row {"rho", "f_sup", "beta_factor", "lhs", "holds"}."""
    if beta_factor is None:
        beta_factor = abs_integral_beta_factor(kernel, grid)
    fsup = f_sup_rho(nl, rho, grid)
    lhs = fsup * beta_factor
    # a numpy rho makes lhs a numpy float, whose comparison gives an
    # np.bool_, which json cannot write
    return {"rho": rho, "f_sup": fsup, "beta_factor": beta_factor,
            "lhs": lhs, "holds": bool(0.0 < lhs < 1.0)}


def index_one_sweep(kernel, nl, rhos, grid):
    """The index_one_check rows across a rho ladder on grid, reusing the
    beta factor."""
    beta_factor = abs_integral_beta_factor(kernel, grid)
    return [index_one_check(kernel, nl, float(rho), grid, beta_factor)
            for rho in rhos]


def holding_interval(rows):
    """(lo, hi) spanning the rhos of the rows where the check holds, or
    None."""
    held = [r["rho"] for r in rows if r["holds"]]
    return (min(held), max(held)) if held else None
