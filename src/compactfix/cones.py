"""Cone functionals and fixed-point-index condition checkers.

The cone is K = {u : alpha(u) >= 0} for a superadditive, positively
homogeneous functional alpha.  The two checkable index conditions are

  index one  on {beta < rho}:   0 < f_sup_rho * beta(abs kernel integral) < 1
  index zero on {gamma < rho}:  f_inf_rho * integral of gamma(G(., s)) ds > 1

and multiplicity_plan combines held conditions into existence conclusions
following the four alternating-chain patterns, with the b/c maps mediating
between the beta and gamma scales.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .greenop import _unit_strip_integral, kernel_abs_integral


def alpha_inf(samples):
    """Default cone functional: the pointwise infimum."""
    return float(np.min(samples))


def beta_sup(samples):
    """Default scale functional: the sup norm."""
    return float(np.max(np.abs(samples)))


def gamma_zero(samples):
    return 0.0


@dataclass
class ConeSpec:
    """Functionals and bookkeeping for one cone setup.

    alpha/beta/gamma act on sample arrays.  gamma_is_zero short-circuits the
    index-zero branch.  gamma_kernel_profile(t, s), when given, evaluates
    gamma applied to the kernel column at integration point (t, s); it is
    vectorised, called on arrays t of shape (m, 1) and s of shape (m, k)
    and returning values of shape (m, k).
    gamma_sublevels_bounded is an input flag (boundedness of {gamma < rho}
    inside the cone is a statement about the continuous space that the grid
    cannot certify).  b_func/c_func translate between the two rho scales.
    """

    alpha: object = alpha_inf
    beta: object = beta_sup
    gamma: object = gamma_zero
    gamma_is_zero: bool = True
    b_func: object = None
    c_func: object = None
    gamma_sublevels_bounded: bool = False
    gamma_kernel_profile: object = None
    name: str = "inf/sup/0"


def cone_membership(u, spec):
    """alpha(u) >= 0, up to a rounding slack of 1e-12."""
    samples = u.samples if hasattr(u, "samples") else np.asarray(u)
    return spec.alpha(samples) >= -1e-12


def default_eval_grid(truncation=24.0):
    """33 x 9 nodes on [0, truncation] x [0, 1]."""
    return (np.linspace(0.0, truncation, 33), np.linspace(0.0, 1.0, 9))


def _check_radius(rho):
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError(f"rho must be positive and finite, got {rho!r}")


def f_sup_rho(nl, rho, grid):
    """sup of f(t, s, v)/rho over the grid and 41 values v in [0, rho].

    Equals the cone quantity sup{f(t, u(t))/rho : u in K, beta(u) = rho}
    when f is continuous in v (tent functions realize any pointwise value);
    the v-grid makes it exact at the endpoints for v-monotone f.
    """
    _check_radius(rho)
    tm, sm = np.meshgrid(*grid, indexing="ij")
    best = -np.inf
    for v in np.linspace(0.0, rho, 41):
        best = max(best, float(np.max(nl.eval(tm, sm, v))))
    return best / rho


def f_inf_rho(nl, rho, grid):
    """inf of f(t, s, v)/rho over the grid and 81 values v in [0, 10 rho].

    Sampling v beyond the exact admissible set can only lower the value, so
    the result is a conservative lower bound for the index-zero condition.
    """
    _check_radius(rho)
    tm, sm = np.meshgrid(*grid, indexing="ij")
    worst = np.inf
    for v in np.linspace(0.0, 10.0 * rho, 81):
        worst = min(worst, float(np.min(nl.eval(tm, sm, v))))
    return worst / rho


@dataclass
class IndexCheck:
    rho: float
    kind: str  # "index_one" | "index_zero"
    lhs: float
    holds: bool
    data: dict = field(default_factory=dict)


def abs_integral_beta_factor(kernel, spec, grid, tol=1e-8):
    """beta applied to the profile t -> integral of |G(t, s)| ds."""
    prof = kernel_abs_integral(kernel, grid[0], grid[1], tol)
    return spec.beta(prof), prof


def index_one_check(kernel, nl, spec, rho, grid=None, beta_factor=None,
                    tol=1e-8):
    """Check 0 < f_sup_rho * beta(kernel abs integral) < 1."""
    grid = grid if grid is not None else default_eval_grid()
    if beta_factor is None:
        beta_factor, _ = abs_integral_beta_factor(kernel, spec, grid, tol)
    fsup = f_sup_rho(nl, rho, grid)
    lhs = fsup * beta_factor
    return IndexCheck(rho, "index_one", lhs, 0.0 < lhs < 1.0,
                      {"f_sup": fsup, "beta_factor": beta_factor})


def index_zero_check(kernel, nl, spec, rho, grid=None, tol=1e-8):
    """Check f_inf_rho * integral of gamma(G(., s)) ds > 1.

    holds also requires the gamma sublevel sets to be bounded, which is the
    spec's input flag.  With the zero gamma the left side is 0 and the
    check reports holds = False for every rho.
    """
    grid = grid if grid is not None else default_eval_grid()
    if spec.gamma_is_zero:
        return IndexCheck(rho, "index_zero", 0.0, False,
                          {"f_inf": f_inf_rho(nl, rho, grid),
                           "gamma_integral": 0.0,
                           "bounded": spec.gamma_sublevels_bounded})
    if spec.gamma_kernel_profile is None:
        raise ValueError("index-zero check needs gamma_kernel_profile")
    gint = _unit_strip_integral(spec.gamma_kernel_profile,
                                float(grid[0][-1]), tol)
    finf = f_inf_rho(nl, rho, grid)
    lhs = finf * gint
    return IndexCheck(rho, "index_zero", lhs,
                      lhs > 1.0 and spec.gamma_sublevels_bounded,
                      {"f_inf": finf, "gamma_integral": gint,
                       "bounded": spec.gamma_sublevels_bounded})


# ---------------------------------------------------------------------------
# multiplicity bookkeeping


class ChainError(Exception):
    """A supplied rho-chain matches an index pattern but violates the b/c
    separation inequalities."""


@dataclass
class PlanResult:
    verdict: str  # "no conclusion" | "at least one fixed point" | ...
    detail: str
    chain: tuple


def _sep_ok(lo, hi, func):
    return hi.rho > func(lo.rho)


def multiplicity_plan(checks, spec):
    """Strongest existence conclusion from a sorted list of index checks.

    Chains follow the four alternating patterns: zero-one and one-zero pairs
    give one fixed point, zero-one-zero and one-zero-one triples give two,
    each needing the b/c separation between consecutive radii.  A matching
    pattern whose separation fails (with the maps available) raises
    ChainError; missing maps degrade the plan to what single balls give.
    """
    rhos = [c.rho for c in checks]
    if rhos != sorted(rhos):
        raise ValueError("checks must be sorted by rho")
    holding = [c for c in checks if c.holds]
    if not holding:
        return PlanResult("no conclusion", "no index condition holds", ())
    have_b = spec.b_func is not None
    have_c = spec.c_func is not None
    matched_failed = False
    degraded = []

    for a, b_, c in itertools.combinations(holding, 3):
        kinds = (a.kind, b_.kind, c.kind)
        if kinds == ("index_zero", "index_one", "index_zero"):
            if have_b and have_c:
                if _sep_ok(a, b_, spec.b_func) and _sep_ok(b_, c,
                                                           spec.c_func):
                    return PlanResult(
                        "at least two fixed points",
                        f"zero-one-zero chain at rho = {a.rho:g}, "
                        f"{b_.rho:g}, {c.rho:g}",
                        ((a.kind, a.rho), (b_.kind, b_.rho),
                         (c.kind, c.rho)))
                matched_failed = True
            else:
                degraded.append("zero-one-zero triple needs both b and c")
        elif kinds == ("index_one", "index_zero", "index_one"):
            if have_b and have_c:
                if _sep_ok(a, b_, spec.c_func) and _sep_ok(b_, c,
                                                           spec.b_func):
                    return PlanResult(
                        "at least two fixed points",
                        f"one-zero-one chain at rho = {a.rho:g}, "
                        f"{b_.rho:g}, {c.rho:g}",
                        ((a.kind, a.rho), (b_.kind, b_.rho),
                         (c.kind, c.rho)))
                matched_failed = True
            else:
                degraded.append("one-zero-one triple needs both b and c")

    for a, b_ in itertools.combinations(holding, 2):
        kinds = (a.kind, b_.kind)
        if kinds == ("index_zero", "index_one"):
            if have_b:
                if _sep_ok(a, b_, spec.b_func):
                    return PlanResult(
                        "at least one fixed point",
                        f"zero-one chain at rho = {a.rho:g}, {b_.rho:g}: "
                        f"solution with beta between the two radii",
                        ((a.kind, a.rho), (b_.kind, b_.rho)))
                matched_failed = True
            else:
                degraded.append("zero-one pair needs b")
        elif kinds == ("index_one", "index_zero"):
            if have_c:
                if _sep_ok(a, b_, spec.c_func):
                    return PlanResult(
                        "at least one fixed point",
                        f"one-zero chain at rho = {a.rho:g}, {b_.rho:g}",
                        ((a.kind, a.rho), (b_.kind, b_.rho)))
                matched_failed = True
            else:
                degraded.append("one-zero pair needs c")

    ones = [c for c in holding if c.kind == "index_one"]
    if matched_failed:
        raise ChainError(
            "rho ordering violates the b/c separation required by every "
            "matching chain pattern"
            + ("; a single index-one ball would still give one fixed point"
               if ones else ""))
    if ones:
        c = ones[0]
        note = ("; " + "; ".join(sorted(set(degraded)))) if degraded else ""
        return PlanResult(
            "at least one fixed point",
            f"index-one ball at rho = {c.rho:g}: solution with "
            f"beta(u) < {c.rho:g}" + note,
            ((c.kind, c.rho),))
    return PlanResult(
        "no conclusion",
        "only index-zero conditions hold; no annulus can be formed"
        + (("; " + "; ".join(sorted(set(degraded)))) if degraded else ""),
        tuple((c.kind, c.rho) for c in holding))


# ---------------------------------------------------------------------------
# rho sweeps


@dataclass
class ConeReport:
    rows: tuple

    def to_json(self):
        return json.dumps({"rows": list(self.rows)}, indent=1,
                          sort_keys=True)

    def holding_interval(self):
        """(lo, hi) spanning the rhos where the check holds, or None."""
        held = [r["rho"] for r in self.rows if r["holds"]]
        return (min(held), max(held)) if held else None


def index_one_sweep(kernel, nl, spec, rhos, grid=None, tol=1e-8):
    """index_one_check across a rho ladder, reusing the beta factor."""
    grid = grid if grid is not None else default_eval_grid()
    beta_factor, _ = abs_integral_beta_factor(kernel, spec, grid, tol)
    rows = []
    for rho in rhos:
        chk = index_one_check(kernel, nl, spec, float(rho), grid,
                              beta_factor, tol)
        rows.append({"rho": float(rho), "f_sup": chk.data["f_sup"],
                     "beta_factor": beta_factor, "lhs": chk.lhs,
                     "holds": bool(chk.holds)})
    return ConeReport(tuple(rows))
