"""Acceptance run: the numbered project criteria, one printed line each.

Every test prints "[ N] name: PASS/FAIL (detail)" before asserting, so a
plain `pytest tests/test_acceptance.py -s` shows the whole scorecard.

The residual-decay half of criterion 4 measures the equation being solved,
the integral equation for q = u/phi differentiated once in x and once in y,
q_xy = qx(x, x) g + int_0^x dqx(x, t) g dt with g = q_eval, on the
converged iterate; its cross stencil is second order, so the residual falls
about fourfold per halving of the grid step.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import erf

from compactfix.compactify import (ExtensionError, HalfLineOnePoint,
                                   LineOnePoint, LineTwoPoint, extend,
                                   halfline_metric, kappa_limit)
from compactfix.cones import (abs_integral_beta_factor, beta_sup,
                              default_eval_grid, index_one_check,
                              index_one_sweep)
from compactfix.funcspace import (WEIGHT_REGISTRY, BumpChain,
                                  WeightedGridFunction, gamma,
                                  gaussian_family, gaussian_family_separation,
                                  precompactness_report, weighted_norm)
from compactfix.greenop import (GridHammersteinOperator, apply_T,
                                kernel_abs_integral)
from compactfix.solver import SolveConfig, picard_solve

SQPI2 = math.sqrt(math.pi) / 2.0


def _report(num, name, ok, detail):
    print(f"[{num:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def solved(problem):
    """The two production solves shared by criteria 4 and 5."""
    t0 = time.perf_counter()
    h02 = picard_solve(problem, SolveConfig(hx=0.02, hy=0.02,
                                            truncation=24.0, tol=1e-8,
                                            rho_ball=0.5))
    h01 = picard_solve(problem, SolveConfig(hx=0.01, hy=0.01,
                                            truncation=24.0, tol=1e-8,
                                            rho_ball=0.5))
    return {"h02": h02, "h01": h01,
            "seconds": time.perf_counter() - t0}


def test_01_kernel_identity(problem):
    t0 = time.perf_counter()
    xs = np.linspace(0.08, 8.0, 10)
    ys = np.linspace(0.1, 1.0, 10)
    q = kernel_abs_integral(problem.kernel, xs, ys)
    worst = float(np.abs(q - SQPI2 * ys[None, :] * erf(xs[:, None])).max())
    sup = float(q.max())
    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and sup <= SQPI2 + 1e-9 and dt < 5.0
    _report(1, "kernel-identity", ok,
            f"max gap {worst:.2e} at 100 points, sup {sup:.9f}, {dt:.2f}s")


def test_02_operator_closed_form(problem):
    t0 = time.perf_counter()
    xs = np.linspace(0.0, 8.0, 50)
    ys = np.linspace(0.0, 1.0, 50)
    u0 = WeightedGridFunction((xs, ys), np.zeros((50, 50)), problem.weight,
                              cmap=problem.cmap,
                              weight_desc=problem.weight_desc)
    out = apply_T(u0, problem.kernel, problem.nl, method="adaptive")
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    grid_gap = float(np.abs(out.samples
                            - problem.closed_forms["Tu0"](X, Y)).max())
    face = out.infinity["axis0:inf"][(0, 0)]
    idx = np.linspace(0, len(ys) - 1, 11).astype(int)
    face_gap = float(np.abs(face[idx]
                            - problem.closed_forms["Tu0_face"](ys[idx])).max())
    dt = time.perf_counter() - t0
    ok = grid_gap < 1e-6 and face_gap < 1e-4 and dt < 5.0
    _report(2, "operator-closed-form", ok,
            f"grid gap {grid_gap:.2e}, face gap {face_gap:.2e} "
            f"at 11 y-nodes, {dt:.2f}s")


def test_03_index_interval(problem):
    t0 = time.perf_counter()
    grid = default_eval_grid(24.0)
    beta = abs_integral_beta_factor(problem.kernel, grid)
    rhos = np.round(np.arange(0.15, 0.85 + 1e-9, 0.01), 10)
    sweep = index_one_sweep(problem.kernel, problem.nl, rhos,
                            grid)
    sampled_ok = all(row["holds"] for row in sweep)
    fail_small = index_one_check(problem.kernel, problem.nl,
                                 0.01, grid, beta)
    fail_large = index_one_check(problem.kernel, problem.nl,
                                 5.0, grid, beta)
    lo = (2.0 - math.sqrt(2.0)) / 4.0
    hi = (2.0 + math.sqrt(2.0)) / 4.0
    dense = np.linspace(lo + 1e-9, hi - 1e-9, 200)
    contained = all(index_one_check(problem.kernel, problem.nl,
                                    float(r), grid, beta)["holds"]
                    for r in dense)
    dt = time.perf_counter() - t0
    ok = (sampled_ok and not fail_small["holds"] and not fail_large["holds"]
          and contained and dt < 10.0)
    _report(3, "index-interval", ok,
            f"holds on [0.15, 0.85] step 0.01, fails at 0.01 "
            f"(lhs {fail_small['lhs']:.3g}) and 5 "
            f"(lhs {fail_large['lhs']:.3g}), "
            f"({lo:.4f}, {hi:.4f}) contained, {dt:.2f}s")


def test_04_existence_realized(solved):
    res = solved["h02"]
    nonneg = bool(np.all(res.solution.samples >= 0.0))
    beta = beta_sup(res.solution.samples)
    ok = (res.gap_history[-1] < 1e-8 and res.iterations < 50 and nonneg
          and beta < 0.5 and solved["seconds"] < 120.0)
    _report(4, "existence-realized", ok,
            f"gap {res.gap_history[-1]:.2e} in {res.iterations} iterations, "
            f"nonnegative, beta {beta:.4f} < 0.5, "
            f"both solves {solved['seconds']:.1f}s")


def test_04_residual_decay(solved):
    r02 = solved["h02"].residual_sup
    r01 = solved["h01"].residual_sup
    ok = r02 < 5e-3 and r01 < r02 / 3.0
    _report(4, "residual-decay", ok,
            f"residual {r02:.3e} at h=0.02 and {r01:.3e} at h=0.01 of the "
            "differentiated q-equation, ratio "
            f"{r02 / r01:.2f} per halving")


def test_05_asymptotic_profile(solved):
    prof = solved["h02"].profile
    statuses = {res.status for _, res in prof}
    worst_osc = max(res.oscillation for _, res in prof)
    ok = statuses == {"converged"} and worst_osc < 1e-4
    _report(5, "asymptotic-profile", ok,
            f"{len(prof)} y-nodes all converged, "
            f"worst oscillation {worst_osc:.2e}")


def test_06_translating_gaussians():
    t0 = time.perf_counter()
    sep = gaussian_family_separation(10)
    rep = precompactness_report(gaussian_family(40))
    dt = time.perf_counter() - t0
    ok = (sep >= 1.0 - math.exp(-1.0) - 1e-6 and rep["bounded"]
          and rep["equicontinuous"] and not rep["equiconvergent"] and dt < 5.0)
    _report(6, "translating-gaussians", ok,
            f"separation {sep:.6f} >= 0.632120, bounded and equicontinuous "
            f"but not equiconvergent, {dt:.2f}s")


def test_07_bump_chain():
    chain = BumpChain()
    peak = 8.0 / (3.0 * math.sqrt(3.0))
    exact = all(
        abs(chain.derivative(chain.rising_inflection(k)) - peak) < 1e-12
        and chain.derivative(chain.support_end(k)) == 0.0
        for k in (2, 3, 4))
    cmap = HalfLineOnePoint()
    inf_pt = cmap.infinity_points()[0]
    value_limit = kappa_limit(chain.value, inf_pt, cmap, tol=1e-3,
                              extra_samples=chain.witness_points)
    deriv_limit = kappa_limit(chain.derivative, inf_pt, cmap, tol=1e-3,
                              extra_samples=chain.witness_points)
    ok = (exact and value_limit.status == "converged"
          and abs(value_limit.value) < 1e-3
          and deriv_limit.status == "no_limit")
    _report(7, "bump-chain", ok,
            f"derivative hits {peak:.6f} and 0 exactly for k in 2..4; "
            f"value limit {value_limit.status}({value_limit.value:.2g}), "
            f"derivative {deriv_limit.status} with swing "
            f"{deriv_limit.oscillation:.4f}")


def test_08_arctan_extension():
    ext = extend(np.arctan, LineTwoPoint(), tol=1e-6)
    two_ok = (abs(ext["+inf"] - math.pi / 2) < 1e-6
              and abs(ext["-inf"] + math.pi / 2) < 1e-6)
    try:
        extend(np.arctan, LineOnePoint(), tol=1e-6)
        one_failed = False
    except ExtensionError:
        one_failed = True
    ok = two_ok and one_failed
    _report(8, "arctan-extension", ok,
            f"two-point limits {ext['+inf']:.8f} / "
            f"{ext['-inf']:.8f}, one-point extension rejected")


def test_09_property_suites(problem, alpha_inf):
    rng = np.random.default_rng(20240816)
    failures = 0
    n = 200

    xs = np.linspace(0.0, 8.0, 33)
    phi = WEIGHT_REGISTRY["exp(-x^2/2)"]

    def norm(samples):
        return weighted_norm(WeightedGridFunction((xs,), samples, phi))

    for _ in range(n):  # norm axioms
        a = rng.normal(size=33)
        b = rng.normal(size=33)
        c = rng.normal()
        na, nb = norm(a), norm(b)
        good = norm(a + b) <= na + nb + 1e-12 * (na + nb)
        if abs(c) > 1e-12:
            good &= abs(norm(c * a) - abs(c) * na) <= 1e-10 * max(1.0, na)
        good &= (na > 0.0) == bool(np.any(a != 0.0))
        failures += not good

    for i in range(n):  # metric axioms on the compactified half line
        pts = list(rng.uniform(0.0, 50.0, size=3))
        if i % 7 == 0:
            pts[i % 3] = math.inf
        a, b, c = pts
        good = (halfline_metric(a, b) == halfline_metric(b, a)
                and halfline_metric(a, a) == 0.0
                and halfline_metric(a, c) <= halfline_metric(a, b)
                + halfline_metric(b, c) + 1e-15)
        failures += not good

    gxs = np.linspace(0.0, 8.0, 17)
    for _ in range(n):  # trace map linearity and bound
        a = rng.normal(size=17)
        b = rng.normal(size=17)
        fa, fb = rng.normal(), rng.normal()

        def mk(samples, fv):
            return WeightedGridFunction(
                (gxs,), samples, phi, infinity={"axis0:inf": {(0,): fv}})

        ga = gamma(mk(a, fa))
        gb = gamma(mk(b, fb))
        gc = gamma(mk(2.0 * a + 3.0 * b, 2.0 * fa + 3.0 * fb))
        scale = max(1.0, float(np.abs(gc.values).max()))
        good = np.allclose(gc.values, 2.0 * ga.values + 3.0 * gb.values,
                           atol=1e-10 * scale)
        good &= ga.sup() <= weighted_norm(mk(a, fa)) + 1e-12
        failures += not good

    for _ in range(n):  # cone functional laws
        u = rng.normal(size=40)
        v = rng.normal(size=40)
        c = abs(rng.normal())
        good = alpha_inf(u + v) >= alpha_inf(u) + alpha_inf(v) - 1e-12
        good &= abs(alpha_inf(c * u) - c * alpha_inf(u)) \
            <= 1e-10 * max(1.0, abs(alpha_inf(u)))
        good &= abs(beta_sup(c * u) - c * beta_sup(u)) \
            <= 1e-10 * max(1.0, beta_sup(u))
        good &= beta_sup(u + v) <= beta_sup(u) + beta_sup(v) + 1e-12
        good &= beta_sup(np.abs(u)) <= beta_sup(np.abs(u) + np.abs(v))
        if np.any(u != 0.0):
            good &= not (alpha_inf(u) >= 0.0 and alpha_inf(-u) >= 0.0)
        failures += not good

    axes = (np.linspace(0.0, 6.0, 13), np.linspace(0.0, 1.0, 5))
    op = GridHammersteinOperator(problem.kernel, problem.nl, axes)
    shape = tuple(len(a) for a in axes)
    # operator positivity and monotonicity, in its coordinate q = u/phi
    for _ in range(n):
        u = rng.uniform(0.0, 0.5, size=shape)
        v = u + rng.uniform(0.0, 0.5, size=shape)
        tu, tv = op.apply(u), op.apply(v)
        good = bool(np.all(tu >= 0.0) and np.all(tv >= tu - 1e-12))
        failures += not good

    ok = failures == 0
    _report(9, "property-suites", ok,
            f"{failures} failures in {5 * n} randomized instances "
            "across 5 suites")
