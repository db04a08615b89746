"""Quadrature routines, the integral operator and the hypothesis checker."""

import dataclasses
import itertools
import json
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import erf, erfc

from compactfix.casestudy import (_gauss_shift_kernel,
                                  _gauss_square_nonlinearity,
                                  load_problem_file)
from compactfix.funcspace import WEIGHT_REGISTRY, WeightedGridFunction
from compactfix.greenop import (GridHammersteinOperator, Kernel,
                                Nonlinearity, QuadratureError, _GK15,
                                _basis_matrix, _bspline_rows,
                                _spline_coefficients,
                                _unit_interval_integrals,
                                _weighted_quotient_sups,
                                apply_T, check_hypotheses,
                                cumulative_weight_block,
                                cumulative_weights, gaussian_tail,
                                kernel_abs_integral, kernel_row_blocks,
                                panel_quadrature)
from compactfix.solver import SolveConfig

SQPI2 = math.sqrt(math.pi) / 2.0


def test_panel_quadrature_gaussian_segment():
    got = panel_quadrature(lambda t: np.exp(-t ** 2), 0.0, 1.0, 1e-12)
    assert got.shape == (1,)
    assert abs(got[0] - SQPI2 * erf(1.0)) < 1e-12


def test_panel_quadrature_polynomial_and_empty_interval():
    assert panel_quadrature(lambda t: t ** 3, 0.0, 2.0, 1e-12)[0] \
        == pytest.approx(4.0, abs=1e-13)
    assert panel_quadrature(lambda t: t, 1.0, 1.0)[0] == 0.0
    assert panel_quadrature(lambda t: t, 2.0, 1.0)[0] == 0.0


def test_panel_rule_is_quadpacks_gauss_kronrod_pair():
    # the 15-node Kronrod rule is exact through degree 22 (3 * 7 + 1) and,
    # being symmetric, for every odd degree: through 23, not at 24
    nodes, kronrod, gauss = _GK15
    for d in range(25):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        err = abs(kronrod @ nodes ** d - exact)
        assert (err <= 1e-15) == (d <= 23), d
    # the 7-node Gauss rule sits on every second Kronrod node, its weight 0
    # at the others
    x7, w7 = np.polynomial.legendre.leggauss(7)
    assert np.abs(nodes[1::2] - x7).max() <= 1e-15
    assert np.abs(gauss[1::2] - w7).max() <= 1e-15
    assert np.all(gauss[::2] == 0.0)
    assert np.all(np.diff(nodes) > 0) and np.all(nodes == -nodes[::-1])
    for w in (kronrod, gauss[1::2]):
        assert np.all(w > 0) and np.all(w == w[::-1])


def test_panel_quadrature_certifies_a_level_with_the_7_node_rule():
    # the two-rule test: level 0 and the 7-node Gauss rule on the same
    # panel, both summed over the values of one call on the 15 nodes
    nodes = []

    def g(t):
        nodes.append(t.shape[1])
        return np.exp(-t ** 2)

    got = panel_quadrature(g, 0.0, 1.0, 1e-12)
    assert nodes == [15]
    assert abs(got[0] - SQPI2 * erf(1.0)) < 1e-15


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
def test_panel_quadrature_refuses_a_bad_tol_before_evaluating(tol):
    # a NaN, negative or zero tol would run every panel level and then
    # report a numerical failure; an infinite one certifies nothing
    calls = []

    def g(t):
        calls.append(t)
        return np.ones_like(t)

    with pytest.raises(ValueError, match=f"tol must be positive and "
                                         f"finite, got {tol!r}"):
        panel_quadrature(g, 0.0, 1.0, tol)
    assert calls == []


def test_panel_quadrature_reports_no_convergence():
    # an integrable singularity inside a panel never settles to 1e-12
    with pytest.raises(QuadratureError, match="no convergence") as err:
        panel_quadrature(lambda t: np.abs(t - 1.0 / 3.0) ** -0.5,
                         0.0, 1.0, tol=1e-12)
    assert err.value.last_estimate is not None
    assert np.all(np.isfinite(err.value.last_estimate))


def test_panel_quadrature_refuses_a_nan_integrand_at_once():
    calls = []

    def g(t):
        calls.append(t)
        return np.where(t > 0.7, math.nan, 1.0)

    with pytest.raises(QuadratureError, match="not finite at panel level 0"):
        panel_quadrature(g, 0.0, 1.0, tol=1e-10)
    # level 0 only, not every level up to the cap
    assert len(calls) == 1


def test_panel_quadrature_integrates_many_intervals_in_one_call():
    calls = []
    a = np.array([0.0, -1.0, 0.5, 2.0, 3.0])
    b = np.array([1.0, 1.0, 0.5, 4.0, 1.0])

    def g(t):
        calls.append(t.shape)
        return np.exp(-t ** 2)

    got = panel_quadrature(g, a, b, 1e-12)
    want = SQPI2 * (erf(b) - erf(a)) * (b > a)
    assert np.abs(got - want).max() < 1e-12
    # one call of g per level, every interval a row of the node array
    assert all(shape[0] == len(a) for shape in calls)
    # a scalar bound broadcasts against an array of the other
    got = panel_quadrature(lambda t: np.exp(-t ** 2), 0.0, b, 1e-12)
    assert np.abs(got - SQPI2 * erf(b)).max() < 1e-12


def test_gaussian_tail_bound_is_certified():
    bound = gaussian_tail(1.0)
    for b in (0.5, 1.0, 2.0, 4.0):
        remainder = SQPI2 * erfc(b)
        assert bound(b) >= remainder
    assert bound(0.0) == math.inf
    assert gaussian_tail(1.0, scale=3.0)(2.0) == pytest.approx(
        3.0 * bound(2.0))


def test_kernel_abs_integral_against_closed_form(problem, rng):
    k = problem.kernel
    zero = kernel_abs_integral(k, [1.0, 0.0, -1.0], [0.0, 1.0])
    assert zero.shape == (3, 2)
    assert np.all(zero[:, 0] == 0.0) and np.all(zero[1:, :] == 0.0)
    xs = rng.uniform(0.05, 8.0, 10)
    ys = rng.uniform(0.05, 1.0, 10)
    table = kernel_abs_integral(k, xs, ys)
    expected = SQPI2 * ys[None, :] * erf(xs[:, None])
    assert table.shape == (10, 10)
    assert np.abs(table - expected).max() < 1e-6


def test_cumulative_weights_structure():
    nodes = np.linspace(0.0, 1.0, 9)
    W = cumulative_weights(nodes)
    assert np.all(W[0] == 0.0)
    assert np.all(W >= 0.0)
    h = nodes[1] - nodes[0]
    assert np.allclose(W[1, :2], h / 2.0)
    with pytest.raises(ValueError, match="uniform"):
        cumulative_weights(np.array([0.0, 1.0, 3.0]))


def _row_loop_cumulative_weights(nodes):
    """Reference: the cumulative rule filled one row at a time."""
    n = len(nodes)
    h = nodes[1] - nodes[0]
    W = np.zeros((n, n))
    for i in range(1, n):
        if i == 1:
            W[1, :2] = h / 2.0
        elif i % 2 == 0:
            W[i, 0] = W[i, i] = h / 3.0
            W[i, 1:i:2] = 4.0 * h / 3.0
            W[i, 2:i:2] = 2.0 * h / 3.0
        elif i == 3:
            W[3, [0, 3]] = 3.0 * h / 8.0
            W[3, [1, 2]] = 9.0 * h / 8.0
        else:
            m = i - 3
            W[i, 0] = W[i, m] = h / 3.0
            W[i, 1:m:2] = 4.0 * h / 3.0
            W[i, 2:m:2] = 2.0 * h / 3.0
            W[i, m] += 3.0 * h / 8.0
            W[i, [m + 1, m + 2]] = 9.0 * h / 8.0
            W[i, i] = 3.0 * h / 8.0
    return W


def test_cumulative_weights_match_row_loop_bit_for_bit():
    for n in list(range(2, 41)) + [2401]:
        nodes = np.linspace(0.0, 24.0, n)
        W = cumulative_weights(nodes)
        assert W.tobytes() == _row_loop_cumulative_weights(nodes).tobytes(), n


def test_cumulative_weight_blocks_match_the_matrix_bit_for_bit():
    # blocks of 64 rows (the operator's and the residual's) and blocks that
    # start on every row parity near the special rows 1 and 3, with column
    # ranges that cut through the bulk and through the diagonal; the
    # reference is the row loop, which cumulative_weights matches
    for n in list(range(2, 41)) + [2401]:
        nodes = np.linspace(0.0, 24.0, n)
        W = _row_loop_cumulative_weights(nodes)
        h = nodes[1] - nodes[0]
        starts = sorted(set(range(0, n, 64)) | set(range(min(n, 9)))
                        | {n // 2, n - 1})
        for a in starts:
            b = min(a + 64, n)
            for c0, c1 in ((0, b), (0, n), (a // 2, b), (max(a - 5, 0), a),
                           (a, n)):
                got = cumulative_weight_block(h, a, b, c0, c1)
                assert got.tobytes() == W[a:b, c0:c1].tobytes(), (n, a, c0)


def test_cumulative_weights_exact_for_cubics():
    nodes = np.linspace(0.0, 2.0, 11)
    W = cumulative_weights(nodes)
    for coeffs in [(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
                   (0.5, -1.0, 2.0, 3.0)]:
        poly = np.polynomial.Polynomial(coeffs)
        exact = poly.integ()(nodes) - poly.integ()(nodes[0])
        got = W @ poly(nodes)
        # row 1 is a single trapezoid panel, exact only through degree 1
        assert np.allclose(got[2:], exact[2:], atol=1e-12)
    lin = np.polynomial.Polynomial((2.0, 1.0))
    assert np.allclose(W @ lin(nodes), lin.integ()(nodes) - lin.integ()(0.0),
                       atol=1e-13)


def test_grid_apply_matches_closed_form_at_zero(problem):
    xs = np.arange(0.0, 8.0 + 1e-9, 0.02)
    ys = np.arange(0.0, 1.0 + 1e-9, 0.02)
    u0 = WeightedGridFunction((xs, ys), np.zeros((len(xs), len(ys))),
                              problem.weight, cmap=problem.cmap,
                              weight_desc=problem.weight_desc)
    out = apply_T(u0, problem.kernel, problem.nl, method="grid")
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    expected = problem.closed_forms["Tu0"](X, Y)
    assert np.abs(out.samples - expected).max() < 1e-6
    # a face is attached only when the ladder converged at every y-node
    assert "axis0:inf" in out.infinity
    face = out.infinity["axis0:inf"][(0, 0)]
    assert np.abs(face - problem.closed_forms["Tu0_face"](ys)).max() < 1e-5


def test_grid_apply_positive_and_monotone(problem, coarse_axes, rng):
    # the case study has a quotient form: apply maps q = u/phi to q+
    op = GridHammersteinOperator(problem.kernel, problem.nl, coarse_axes)
    shape = tuple(len(a) for a in coarse_axes)
    for _ in range(200):
        u = rng.uniform(0.0, 0.5, size=shape)
        v = u + rng.uniform(0.0, 0.5, size=shape)
        tu = op.apply(u)
        tv = op.apply(v)
        assert np.all(tu >= 0.0)
        assert np.all(tv >= tu - 1e-12)


def _grid_function(problem, xs, ys, samples):
    return WeightedGridFunction((xs, ys), samples, problem.weight,
                                cmap=problem.cmap)


def test_adaptive_apply_matches_closed_form_at_zero(problem):
    # the second grid is the benchmark's; a grid starting at 0.5 must still
    # integrate from 0
    for xs, ys in ((np.linspace(0.0, 2.0, 9), np.linspace(0.0, 1.0, 5)),
                   (np.linspace(0.0, 8.0, 12), np.linspace(0.0, 1.0, 12)),
                   (np.linspace(0.5, 2.0, 7), np.linspace(0.25, 1.0, 4))):
        u0 = _grid_function(problem, xs, ys, np.zeros((len(xs), len(ys))))
        out = apply_T(u0, problem.kernel, problem.nl, method="adaptive",
                      tol=1e-10)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        expected = problem.closed_forms["Tu0"](X, Y)
        assert np.abs(out.samples - expected).max() < 1e-12


def _nested_adaptive_apply(u, kernel, nl, tol):
    """Reference: one scipy dblquad per output node on the clamped spline
    of u, independent of the panel rule under test."""
    from scipy.integrate import dblquad
    from scipy.interpolate import RectBivariateSpline

    xs, ys = u.axes
    spline = RectBivariateSpline(xs, ys, u.samples, kx=3, ky=3)

    def node_value(x, y):
        if x <= 0 or y <= 0:
            return 0.0

        def integrand(s, t):
            v = spline(min(max(t, xs[0]), xs[-1]),
                       min(max(s, ys[0]), ys[-1]))[0, 0]
            return kernel.kx(x, t) * nl.eval(t, s, v)

        return dblquad(integrand, 0.0, x, 0.0, y, epsabs=tol * 1e-3,
                       epsrel=0.0)[0]

    return np.array([[node_value(x, y) for y in ys] for x in xs])


def test_adaptive_apply_matches_nested_reference_on_kinked_u(problem, rng):
    # random samples make a spline whose third derivatives jump at the
    # knots; the offset grid also checks the clamped read below x = 0.5
    for x0 in (0.0, 0.5):
        xs = np.linspace(x0, x0 + 2.0, 5)
        ys = np.linspace(0.0, 1.0, 4)
        u = _grid_function(problem, xs, ys, rng.uniform(0.0, 0.5, (5, 4)))
        got = apply_T(u, problem.kernel, problem.nl, method="adaptive",
                      tol=1e-10).samples
        want = _nested_adaptive_apply(u, problem.kernel, problem.nl, 1e-10)
        assert np.abs(got - want).max() <= 1e-9


@pytest.mark.parametrize("xs, ys", [
    (np.linspace(0.0, 8.0, 12), np.linspace(0.0, 1.0, 12)),
    (np.linspace(0.0, 6.0, 17), np.linspace(0.0, 1.0, 9)),
    (np.array([0.0, 0.1, 0.35, 1.2, 1.3, 2.9, 3.0, 5.5]),
     np.array([0.25, 0.3, 0.7, 1.0])),
    (np.linspace(0.5, 2.0, 4), np.geomspace(1e-3, 1.0, 6)),
])
def test_numpy_spline_matches_fitpack_interpolant(xs, ys, rng):
    # FITPACK's RectBivariateSpline is the reference; the adaptive route
    # does not import it
    from scipy.interpolate import RectBivariateSpline

    samples = rng.uniform(-1.0, 1.0, (len(xs), len(ys)))
    ref = RectBivariateSpline(xs, ys, samples, kx=3, ky=3)
    tx, ty, coef, _, _ = _spline_coefficients(xs, ys, samples)
    assert np.array_equal(tx, ref.tck[0]) and np.array_equal(ty, ref.tck[1])
    t = np.concatenate([xs, rng.uniform(xs[0], xs[-1], 40)])
    s = np.concatenate([ys, rng.uniform(ys[0], ys[-1], 40)])
    got = _basis_matrix(*_bspline_rows(tx, t), len(tx) - 4) @ coef \
        @ _basis_matrix(*_bspline_rows(ty, s), len(ty) - 4).T
    want = ref(t[:, None], s[None, :], grid=False)
    assert np.abs(got - want).max() <= 1e-13
    assert np.abs(got[:len(xs), :len(ys)] - samples).max() <= 1e-13


def _crosscheck_grids(problem, rng):
    """The u = 0 and cone grids of the cross-check benchmark and a kinked
    spline (random samples) on a grid that starts at 0.5."""
    zero_xs, zero_ys = np.linspace(0.0, 8.0, 12), np.linspace(0.0, 1.0, 12)
    cone_xs, cone_ys = np.linspace(0.0, 6.0, 17), np.linspace(0.0, 1.0, 9)
    X, Y = np.meshgrid(cone_xs, cone_ys, indexing="ij")
    cone = (0.2 * (1.0 - X / 12.0) ** 2 * (1.0 + 0.5 * X / 6.0)
            * (1.0 + 0.7 * Y))
    kinked_xs, kinked_ys = np.linspace(0.5, 2.5, 5), np.linspace(0.0, 1.0, 4)
    return {"zero": _grid_function(problem, zero_xs, zero_ys,
                                   np.zeros((12, 12))),
            "cone": _grid_function(problem, cone_xs, cone_ys, cone),
            "kinked": _grid_function(problem, kinked_xs, kinked_ys,
                                     rng.uniform(0.0, 0.5, (5, 4)))}


def test_adaptive_apply_does_not_depend_on_the_t_block(problem, rng,
                                                       monkeypatch):
    # blocks of 7 t-nodes leave a ragged last block at every panel level
    # (176 and 256 t-nodes at level 0); only the summation grouping changes
    from compactfix import greenop

    shipped = greenop._T_BLOCK
    grids = _crosscheck_grids(problem, rng)
    for u in (grids["cone"], grids["zero"]):
        got = {}
        for block in (7, shipped):
            monkeypatch.setattr(greenop, "_T_BLOCK", block)
            got[block] = apply_T(u, problem.kernel, problem.nl,
                                 method="adaptive").samples
        scale = np.abs(got[shipped]).max()
        assert scale > 0
        assert np.abs(got[7] - got[shipped]).max() <= 1e-13 * scale


def test_adaptive_apply_refuses_an_axis_below_four_nodes(problem):
    for axis, shape in ((0, (3, 5)), (1, (6, 3))):
        xs = np.linspace(0.0, 2.0, shape[0])
        ys = np.linspace(0.0, 1.0, shape[1])
        u = _grid_function(problem, xs, ys, np.zeros(shape))
        with pytest.raises(ValueError, match=f"at least 4 nodes on axis "
                                             f"{axis}, got 3"):
            apply_T(u, problem.kernel, problem.nl, method="adaptive")


def test_adaptive_apply_leaves_scipy_interpolate_unloaded(package_env):
    # the spline is numpy's, and the panel rule's table is QUADPACK's
    # literals, so neither route loads scipy.interpolate or scipy.integrate
    code = ("import sys, numpy as np\n"
            "from compactfix.casestudy import load_problem\n"
            "from compactfix.funcspace import WeightedGridFunction\n"
            "from compactfix.greenop import apply_T, panel_quadrature\n"
            "p = load_problem('hyperbolic-erf')\n"
            "u = WeightedGridFunction((np.linspace(0.0, 8.0, 12),"
            " np.linspace(0.0, 1.0, 12)), np.zeros((12, 12)), p.weight,"
            " cmap=p.cmap)\n"
            "out = apply_T(u, p.kernel, p.nl, method='adaptive')\n"
            "assert 'axis0:inf' in out.infinity\n"
            "assert panel_quadrature(np.exp, 0.0, 1.0)[0] > 1.718\n"
            "print(sorted(m for m in sys.modules if m.startswith("
            "('scipy.interpolate', 'scipy.integrate'))))")
    out = subprocess.run([sys.executable, "-c", code], env=package_env,
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_adaptive_apply_refuses_nan_and_unsettled_integrands(problem):
    xs = np.linspace(0.0, 2.0, 5)
    ys = np.linspace(0.0, 1.0, 4)
    u = _grid_function(problem, xs, ys, np.zeros((5, 4)))
    nan_nl = Nonlinearity("nan", lambda t, s, v: np.where(t > 1.0, math.nan,
                                                          1.0 + v))
    with pytest.raises(QuadratureError, match="not finite at panel level 0"):
        apply_T(u, problem.kernel, nan_nl, method="adaptive")
    # an integrable singularity off every panel break: each doubling moves
    # the values by about the square root of the panel width
    spike = Nonlinearity("spike", lambda t, s, v:
                         np.abs(t - 1.0 / 3.0) ** -0.5 + v)
    with pytest.raises(QuadratureError, match="no convergence") as err:
        apply_T(u, problem.kernel, spike, method="adaptive")
    assert np.all(np.isfinite(err.value.last_estimate))


def test_adaptive_apply_refuses_a_bad_tol_before_evaluating(problem):
    # a NaN, negative or zero tol would run all 7 panel levels (1.7-2.0 s
    # on a 17 x 9 grid) before a QuadratureError
    xs = np.linspace(0.0, 2.0, 5)
    ys = np.linspace(0.0, 1.0, 4)
    u = _grid_function(problem, xs, ys, np.zeros((5, 4)))
    calls = []

    def counting(t, s, v):
        calls.append(v)
        return problem.nl.eval(t, s, v)

    nl = dataclasses.replace(problem.nl, eval=counting)
    for tol in (math.nan, -1.0, 0.0):
        with pytest.raises(ValueError, match=f"tol must be positive and "
                                             f"finite, got {tol!r}"):
            apply_T(u, problem.kernel, nl, method="adaptive", tol=tol)
    assert calls == []


def _settled_level(monkeypatch, run):
    """(result, L, level_values, tol) of the 2-d route's one _settle call
    made by run(): L is the panel level whose 15-node Kronrod values were
    returned, and level_values(L) computes that level's Kronrod values
    again."""
    from compactfix import greenop

    calls = []
    settle = greenop._settle

    def recording(level_pair, tol):
        out = settle(level_pair, tol)
        calls.append((out, level_pair, tol))
        return out

    monkeypatch.setattr(greenop, "_settle", recording)
    run()
    # restored, so that a further call wraps the shipped routine again
    monkeypatch.setattr(greenop, "_settle", settle)
    (out, level_pair, tol), = calls

    def level_values(level):
        return level_pair(level)[0]

    level = next(L for L in range(greenop._MAX_PANEL_LEVEL + 1)
                 if np.array_equal(level_values(L), out))
    return out, level, level_values, tol


def test_adaptive_apply_evaluates_one_level_and_its_7_node_companion(
        problem, rng):
    # the two-rule test certifies level 0 with the 7-node Gauss rule on
    # the same panels, whose nodes are among the 15 Kronrod nodes, so f is
    # evaluated once, on 15 x 15 points per panel pair
    grids = _crosscheck_grids(problem, rng)
    for u in (grids["zero"], grids["cone"]):
        points = []

        def counting(t, s, v):
            points.append(np.broadcast(t, s, v).size)
            return problem.nl.eval(t, s, v)

        nl = dataclasses.replace(problem.nl, eval=counting)
        apply_T(u, problem.kernel, nl, method="adaptive")
        panels = (len(u.axes[0]) - 1) * (len(u.axes[1]) - 1)
        assert sum(points) <= panels * 15 ** 2
    assert sum(points) == 28800


def test_adaptive_apply_accepts_levels_that_the_next_doubling_confirms(
        problem, rng, monkeypatch):
    # a level that the 7-node rule certifies agrees to tol with the
    # 15-node values on twice as many panels, as the two-level test asked
    for name, u in _crosscheck_grids(problem, rng).items():
        out, level, level_integrals, tol = _settled_level(
            monkeypatch, lambda: apply_T(u, problem.kernel, problem.nl,
                                         method="adaptive"))
        assert level == 0, name
        assert np.abs(level_integrals(level + 1) - out).max() <= tol, name


def _narrow_bump(c, w, axis=0):
    """(kernel, nl, u): kx = 1, f = exp(-((t - c)/w)^2) (in s instead for
    axis 1) and u = 0 on a 5 x 4 grid of [0, 2] x [0, 1]."""
    def zero(x, t):
        return np.zeros(np.broadcast(x, t).shape)

    kernel = Kernel("one", zero, zero, "1")
    nl = Nonlinearity("bump", lambda t, s, v:
                      np.exp(-(((t, s)[axis] - c) / w) ** 2) + 0.0 * v)
    xs, ys = np.linspace(0.0, 2.0, 5), np.linspace(0.0, 1.0, 4)
    return kernel, nl, WeightedGridFunction((xs, ys), np.zeros((5, 4)))


def test_adaptive_apply_refines_a_narrow_bump(monkeypatch):
    # f = exp(-((t - c)/w)^2) with kx = 1: Tu(x, y) is y times a difference
    # of error functions.  15 nodes on a panel of width 0.5 do not resolve
    # the bump, so the panels are doubled until the 7-node rule agrees
    c, w = 0.9, 0.04
    kernel, nl, u = _narrow_bump(c, w)
    xs, ys = u.axes
    out, level, level_integrals, tol = _settled_level(
        monkeypatch, lambda: apply_T(u, kernel, nl, method="adaptive",
                                     tol=1e-12))
    assert level >= 1
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    want = Y * w * SQPI2 * (erf((X - c) / w) + erf(c / w))
    assert np.abs(out - want).max() <= 1e-12
    # level 0 misses the bump by far more than tol
    assert np.abs(level_integrals(0) - want).max() > 1e-6


def _two_tensor_panel_integrals(u, nl, kx, tol, levels):
    """Reference: the adaptive route with each rule on its own node set,
    two passes per panel level: the 15-node Kronrod rule of _GK15 on its
    tensor of t-nodes x s-nodes, then the 7-node Gauss rule of
    leggauss(7) on its own tensor.  Each pass places its nodes by its own
    affine map, reads u through full B-spline basis matrices and sums the
    whole tensor at once; every level evaluated is appended to levels."""
    from compactfix import greenop

    xs, ys = u.axes
    tx, ty, coef, _, _ = _spline_coefficients(xs, ys, u.samples)
    bx = np.union1d([0.0], xs[xs > 0])
    by = np.union1d([0.0], ys[ys > 0])

    def panels(breaks, level, rule):
        n = 2 ** level
        lo = np.repeat(breaks[:-1], n)
        half = np.repeat(np.diff(breaks), n) / (2 * n)
        mid = lo + half * (2 * np.tile(np.arange(n), len(breaks) - 1) + 1)
        return ((mid[:, None] + half[:, None] * rule[0]).ravel(),
                (half[:, None] * rule[1]).ravel())

    def level_integrals(level, rule):
        t, wt = panels(bx, level, rule)
        s, ws = panels(by, level, rule)
        bt = _basis_matrix(*_bspline_rows(tx, np.clip(t, xs[0], xs[-1])),
                           len(xs))
        bs = _basis_matrix(*_bspline_rows(ty, np.clip(s, ys[0], ys[-1])),
                           len(ys))
        vals = nl.eval(t[:, None], s[None, :], bt @ coef @ bs.T)
        xmat = wt * (t[None, :] < xs[:, None]) * kx(xs[:, None], t[None, :])
        ymat = ws * (s[None, :] < ys[:, None])
        return xmat @ vals @ ymat.T

    def level_pair(level):
        levels.append(level)
        return (level_integrals(level, (_GK15[0], _GK15[1])),
                level_integrals(level, np.polynomial.legendre.leggauss(7)))

    return greenop._settle(level_pair, tol)


def test_adaptive_route_matches_the_two_tensor_reference(
        problem, rng, monkeypatch):
    # summing both rules over one set of values changes where the values
    # are computed, not which: the route and the reference settle at the
    # same levels and differ only by rounding.  The bumps in t and in s
    # settle at a level >= 1 (the one in s tells a Kronrod y-rule from a
    # Gauss one), the uneven grid has non-uniform axes, and blocks of 7
    # t-nodes leave a ragged last block.  The two group their sums and
    # place their nodes differently, so they may differ by rounding in
    # each of the few thousand terms of a sum of positive terms: 64 ulps
    # of the image's largest entry, fixed before either was run.
    from compactfix import greenop

    grids = _crosscheck_grids(problem, rng)
    bump_kernel, bump_nl, bump_u = _narrow_bump(0.9, 0.04)
    _, bump_s_nl, _ = _narrow_bump(0.45, 0.04, axis=1)
    uneven = _grid_function(
        problem, np.array([0.0, 0.1, 0.35, 1.2, 1.3, 2.9, 3.0, 5.5]),
        np.array([0.25, 0.3, 0.7, 1.0]), rng.uniform(0.0, 0.5, (8, 4)))
    shipped = greenop._T_BLOCK
    cases = {"cone": (grids["cone"], problem.kernel, problem.nl, 1e-10,
                      shipped),
             "zero": (grids["zero"], problem.kernel, problem.nl, 1e-10,
                      shipped),
             "bump": (bump_u, bump_kernel, bump_nl, 1e-12, shipped),
             "bump_s": (bump_u, bump_kernel, bump_s_nl, 1e-12, shipped),
             "uneven": (uneven, problem.kernel, problem.nl, 1e-10, shipped),
             "ragged": (grids["cone"], problem.kernel, problem.nl, 1e-10,
                        7)}
    settle = greenop._settle

    def recording(level_pair, tol):
        def level_pair_seen(level):
            route_levels.append(level)
            return level_pair(level)

        return settle(level_pair_seen, tol)

    for name, (u, kernel, nl, tol, block) in cases.items():
        monkeypatch.setattr(greenop, "_T_BLOCK", block)
        levels, route_levels = [], []
        want = _two_tensor_panel_integrals(u, nl, kernel.kx, tol, levels)
        monkeypatch.setattr(greenop, "_settle", recording)
        got = greenop._panel_integrals(u, nl, kernel.kx, tol)
        monkeypatch.setattr(greenop, "_settle", settle)
        assert route_levels == levels, name
        assert max(levels) >= (1 if name.startswith("bump") else 0), name
        bound = 64 * np.finfo(float).eps * np.abs(want).max()
        assert np.abs(got - want).max() <= bound, name


def test_adaptive_apply_builds_one_node_set_and_basis_per_level(
        problem, rng, monkeypatch):
    # one _gl_panels call per level for both axes and one _bspline_rows
    # pass per axis and level; at level 0 that pass also gives the spline's
    # collocation matrices (_two_tensor_panel_integrals makes 6
    # _bspline_rows calls at level 0).  The 12 x 12 grid settles at level
    # 0, the bump at level 4.
    from compactfix import greenop

    calls, levels = {}, []
    for name in ("_gl_panels", "_bspline_rows"):
        def counting(*args, _fn=getattr(greenop, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(greenop, name, counting)
    settle = greenop._settle

    def recording(level_pair, tol):
        def level_pair_seen(level):
            levels.append(level)
            return level_pair(level)

        return settle(level_pair_seen, tol)

    monkeypatch.setattr(greenop, "_settle", recording)
    bump_kernel, bump_nl, bump_u = _narrow_bump(0.9, 0.04)
    cases = {"zero": (_crosscheck_grids(problem, rng)["zero"],
                      problem.kernel, problem.nl, 1e-10, 0),
             "bump": (bump_u, bump_kernel, bump_nl, 1e-12, 4)}
    for name, (u, kernel, nl, tol, level) in cases.items():
        calls.update(_gl_panels=0, _bspline_rows=0)
        levels.clear()
        apply_T(u, kernel, nl, method="adaptive", tol=tol)
        assert levels == list(range(level + 1)), name
        assert calls == {"_gl_panels": 1 + level,
                         "_bspline_rows": 2 + 2 * level}, name


@pytest.fixture
def ladders(monkeypatch):
    """(grid function, face, tol, results) of every face_limit call."""
    calls = []
    face_limit = WeightedGridFunction.face_limit

    def recording(self, face, tol=1e-6):
        results = face_limit(self, face, tol)
        calls.append((self, face, tol, results))
        return results

    monkeypatch.setattr(WeightedGridFunction, "face_limit", recording)
    return calls


def test_crosscheck_pair_evaluates_the_weight_once(problem, rng,
                                                   monkeypatch, ladders):
    # the adaptive and the grid image of one input share its axes and its
    # phi column (WeightedGridFunction.image), and both equal, bit for
    # bit, the images built as standalone grid functions.  apply_T runs
    # no face ladder: the first read of an image's infinity runs its one
    # face's ladder, at FACE_TOL, with the statuses, values and stored
    # faces of attach_faces on the standalone function, and later reads
    # run none.  The cone's faces do not settle on 17 nodes, the zero
    # grid's adaptive image's do.  phi is counted through its registry
    # entry, as a grid function takes no other weight, and is evaluated on
    # axis 0's nodes alone
    from compactfix import funcspace, greenop

    def face_bytes(out, results):
        return ([r.status for r in results],
                b"".join(np.float64(r.value).tobytes() for r in results),
                b"".join(np.array(r.oscillations).tobytes() for r in results),
                {face: v[(0, 0)].tobytes()
                 for face, v in out.infinity.items()})

    grids = _crosscheck_grids(problem, rng)
    weight = problem.weight
    for name in ("cone", "zero"):
        calls = []

        def counting(x):
            calls.append(x.shape)
            return weight(x)

        monkeypatch.setitem(funcspace.WEIGHT_REGISTRY, problem.weight_desc,
                            counting)
        u = WeightedGridFunction(grids[name].axes, grids[name].samples,
                                 counting, cmap=problem.cmap)
        adaptive = apply_T(u, problem.kernel, problem.nl, method="adaptive")
        grid = apply_T(u, problem.kernel, problem.nl, method="grid")
        assert calls == [u.axes[0].shape], name
        assert ladders == [], name

        args = (u.weight, u.cmap)
        want_adaptive = WeightedGridFunction(u.axes, greenop._panel_integrals(
            u, problem.nl, problem.kernel.kx, 1e-10), *args)
        op = GridHammersteinOperator(problem.kernel, problem.nl, u.axes)
        want_grid = WeightedGridFunction.from_quotient(
            u.axes, op.apply(u.quotient()), *args)
        for got, want in ((adaptive, want_adaptive), (grid, want_grid)):
            assert got.samples.tobytes() == want.samples.tobytes(), name
            assert got.quotient().tobytes() == want.quotient().tobytes(), \
                name
            assert ladders == [], name
            faces = got.infinity
            assert got.infinity is faces, name
            [(read, face, tol, results)] = ladders
            assert (read, face, tol) == (got, "axis0:inf",
                                         funcspace.FACE_TOL), name
            ladders.clear()
            want_results = funcspace.attach_faces(want)["axis0:inf"]
            ladders.clear()
            assert face_bytes(got, results) \
                == face_bytes(want, want_results), name
        assert [set(adaptive.infinity), set(grid.infinity)] == [
            {"axis0:inf"} if name == "zero" else set(), set()], name
        assert ladders == [], name


def _zero_image(problem, rng):
    """The adaptive image of the cross-check's u = 0 grid, whose face
    settles, and the standalone grid function of its samples with its
    faces attached."""
    from compactfix.funcspace import attach_faces

    u = _crosscheck_grids(problem, rng)["zero"]
    image = apply_T(u, problem.kernel, problem.nl, method="adaptive")
    want = WeightedGridFunction(u.axes, image.samples, u.weight, u.cmap)
    attach_faces(want)
    return image, want


def test_readers_of_a_fresh_image_see_its_faces(problem, rng, ladders,
                                                tmp_path):
    # the norm, the writer and the trace read the faces through infinity,
    # which runs the image's one ladder at their read
    from compactfix.funcspace import gamma, save_grid_function, weighted_norm

    image, want = _zero_image(problem, rng)
    ladders.clear()
    assert weighted_norm(image) == weighted_norm(want)
    assert len(ladders) == 1

    image, want = _zero_image(problem, rng)
    ladders.clear()
    got, expected = gamma(image), gamma(want)
    assert len(ladders) == 1
    assert got.values.tobytes() == expected.values.tobytes()
    assert {face: v.tobytes() for face, v in got.infinity.items()} \
        == {face: v.tobytes() for face, v in expected.infinity.items()} \
        != {}

    image, want = _zero_image(problem, rng)
    ladders.clear()
    save_grid_function(image, tmp_path / "image.csv")
    assert len(ladders) == 1
    save_grid_function(want, tmp_path / "want.csv")
    for suffix in ("", ".json"):
        assert (tmp_path / f"image.csv{suffix}").read_bytes() \
            == (tmp_path / f"want.csv{suffix}").read_bytes()
    side = json.loads((tmp_path / "image.csv.json").read_text())
    assert list(side["infinity"]) == ["axis0:inf"]


def test_copies_and_reloads_of_an_image_run_no_ladder(problem, rng,
                                                      ladders, tmp_path):
    # only apply_T leaves faces due: a grid function built from an image,
    # by the constructor, image() or from_quotient, holds the faces it is
    # given, and a reloaded image its saved ones
    from compactfix.funcspace import load_grid_function, save_grid_function

    image, want = _zero_image(problem, rng)
    ladders.clear()
    args = (image.axes, image.samples, image.weight, image.cmap)
    for other in (WeightedGridFunction(*args),
                  WeightedGridFunction.from_quotient(*args),
                  image.image(image.samples),
                  image.image(image.samples, quotient=True)):
        assert other.infinity == {}
    assert ladders == []
    save_grid_function(image, tmp_path / "image.csv")
    assert len(ladders) == 1
    loaded = load_grid_function(tmp_path / "image.csv")
    assert loaded.infinity["axis0:inf"][(0, 0)].tobytes() \
        == want.infinity["axis0:inf"][(0, 0)].tobytes()
    assert len(ladders) == 1


def test_an_image_raises_its_face_errors_at_the_first_read(problem,
                                                          tmp_path):
    # on [0, 1] no node lies past the first window's radius 1: apply_T
    # returns the image, and every read of its faces raises (they stay
    # due), the writer's before it creates a file; far out the weight
    # underflows, so the adaptive image's u cannot be divided by phi, and
    # its faces and quotient raise at their read
    from compactfix.compactify import FaceLimitError
    from compactfix.funcspace import (WeightUnderflowError,
                                      save_grid_function, weighted_norm)

    ys = np.linspace(0.0, 1.0, 4)
    xs = np.linspace(0.0, 1.0, 5)
    u = _grid_function(problem, xs, ys, np.zeros((5, 4)))
    for method in ("grid", "adaptive"):
        image = apply_T(u, problem.kernel, problem.nl, method=method)
        assert np.all(np.isfinite(image.quotient()))
        for read in (lambda: image.infinity, lambda: image.infinity,
                     lambda: weighted_norm(image),
                     lambda: save_grid_function(image, tmp_path / "u.csv")):
            with pytest.raises(FaceLimitError, match=(
                    "no nodes in any window of face 'axis0:inf'")):
                read()
        assert list(tmp_path.iterdir()) == []
    xs = np.linspace(0.0, 40.0, 41)
    u = _grid_function(problem, xs, ys, np.zeros((41, 4)))
    image = apply_T(u, problem.kernel, problem.nl, method="adaptive")
    for read in (image.quotient, lambda: image.infinity):
        with pytest.raises(WeightUnderflowError, match="x = 39"):
            read()


def test_an_image_stores_its_array_read_only(problem, rng):
    # the faces read later are those of the array apply_T returned
    u = _crosscheck_grids(problem, rng)["cone"]
    grid = apply_T(u, problem.kernel, problem.nl, method="grid")
    adaptive = apply_T(u, problem.kernel, problem.nl, method="adaptive")
    for stored in (grid.quotient(), adaptive.samples):
        with pytest.raises(ValueError, match="read-only"):
            stored[0, 0] = 1.0


def test_apply_rejects_bad_method_and_shape(problem):
    xs = np.linspace(0.0, 2.0, 9)
    ys = np.linspace(0.0, 1.0, 5)
    u = WeightedGridFunction((xs, ys), np.zeros((9, 5)), problem.weight,
                             cmap=problem.cmap)
    with pytest.raises(ValueError, match="method"):
        apply_T(u, problem.kernel, problem.nl, method="magic")
    u1 = WeightedGridFunction((xs,), np.zeros(9))
    with pytest.raises(ValueError, match="2d"):
        apply_T(u1, problem.kernel, problem.nl, method="adaptive")


def _dense_apply(kernel, nl, axes, u):
    """Reference: the dense grid route (Wx kx) @ F @ B^T on u itself."""
    xs, ys = axes
    A = cumulative_weights(xs) * kernel.kx(xs[:, None], xs[None, :])
    B = cumulative_weights(ys)
    tm, sm = np.meshgrid(xs, ys, indexing="ij")
    return A @ (nl.eval(tm, sm, u) @ B.T)


def _unit_weight_problem(tmp_path):
    """The case study's kernel and forcing as a weight-"1" problem file."""
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(
        {"weight": "1", "kernel": {"id": "gauss-shift"},
         "nonlinearity": {"id": "gauss-plus-square"}}))
    return load_problem_file(path)


def _backward_ridge(weight_desc):
    """kx = exp(-16 (t - 24 + 3x)^2), a narrow ridge at t = 24 - 3x, which
    moves backward in t as x grows: at step 0.02 the rows on [5.12, 8.96)
    probe a wrong span of their block's band, and on [6.4, 7.68) the first
    row's span starts after the last row's ends."""
    return Kernel("backward-ridge",
                  lambda x, t: -16.0 * (t - 24.0 + 3.0 * x) ** 2,
                  lambda x, t: -96.0 * (t - 24.0 + 3.0 * x), weight_desc)


def test_banded_quotient_operator_matches_dense_route(problem, rng,
                                                      tmp_path):
    # q+ = T(phi q)/phi on the trimmed band, for the case study, for a
    # weight-"1" file, whose quotient forms are kx and f themselves, and
    # for a weight-"1" kernel whose probed bands must widen
    axes = SolveConfig(hx=0.02, hy=0.02, truncation=24.0).axes()
    unit = _unit_weight_problem(tmp_path)
    backward = dataclasses.replace(unit, kernel=_backward_ridge("1"))
    for prob in (problem, unit, backward):
        op = GridHammersteinOperator(prob.kernel, prob.nl, axes)
        phi = prob.weight(axes[0])[:, None]
        q = rng.uniform(0.0, 0.5, size=tuple(len(a) for a in axes))
        dense = _dense_apply(prob.kernel, prob.nl, axes, phi * q) / phi
        assert np.abs(op.apply(q) - dense).max() <= 1e-14, prob.weight_desc


def test_operator_apply_works_in_its_output(problem, rng):
    # f(q) B^T goes into the output a row block at a time and the band
    # products replace it there in place, from the last block back: the
    # image is bitwise that of the whole-grid f(q) B^T and a fresh output,
    # and an application holds one grid besides its input, not two
    axes = SolveConfig(hx=0.02, hy=0.02, truncation=24.0).axes()
    op = GridHammersteinOperator(problem.kernel, problem.nl, axes)
    q = rng.uniform(0.0, 0.5, size=tuple(len(a) for a in axes))
    inner = problem.nl.q_eval(axes[0][:, None], axes[1][None, :], q) \
        @ cumulative_weights(axes[1]).T
    want = np.empty_like(inner)
    for a, c0, block in op.blocks:
        rows, cols = block.shape
        want[a:a + rows] = block @ inner[c0:c0 + cols]
    del inner
    tracemalloc.start()
    try:
        got = op.apply(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak <= 1.25 * q.nbytes, peak / q.nbytes


def test_operator_refuses_a_problem_without_its_quotient_form(problem):
    axes = (np.linspace(0.0, 2.0, 9), np.linspace(0.0, 1.0, 5))
    plain = Nonlinearity("plain", problem.nl.eval)
    with pytest.raises(ValueError, match="nonlinearity 'plain' has no q_eval"):
        GridHammersteinOperator(problem.kernel, plain, axes)


def test_quotient_operator_stores_its_band_only(problem):
    axes = SolveConfig(hx=0.01, hy=0.01, truncation=24.0).axes()
    op = GridHammersteinOperator(problem.kernel, problem.nl, axes)
    n = len(axes[0])
    assert sum(block.size for _, _, block in op.blocks) <= 0.4 * n * n


def test_operator_build_evaluates_the_band_only(problem, counting_kernel):
    # every block evaluates qx on its band, on its first and last rows
    # over the causal range and on the two cut columns
    axes = SolveConfig(hx=0.01, hy=0.01, truncation=24.0).axes()
    op = GridHammersteinOperator(counting_kernel, problem.nl, axes)
    bound = sum(block.size + 2 * (a + block.shape[0]) + 2 * block.shape[0]
                for a, _, block in op.blocks)
    assert counting_kernel.points["qx"] <= bound


def _causal_range_blocks(k, xs):
    """Reference: each row block evaluated on its whole causal range and
    trimmed to the columns where |k| reaches 2^-53 of its row peak in some
    row."""
    h = xs[1] - xs[0]
    for a in range(0, len(xs), 64):
        b = min(a + 64, len(xs))
        kv = k(xs[a:b, None], xs[None, :b])
        mag = np.abs(kv)
        keep = np.flatnonzero(np.any(
            mag >= 2.0 ** -53 * mag.max(axis=1, keepdims=True), axis=0))
        c0, c1 = (int(keep[0]), int(keep[-1]) + 1) if keep.size else (0, b)
        yield a, c0, cumulative_weight_block(h, a, b, c0, c1) * kv[:, c0:c1]


def test_probed_bands_equal_the_causal_range_rule():
    # at truncation 16 the bands start after column 0 in all but one case
    # and end before the causal end for weight exp(-x^2/2)
    cases = itertools.product(("exp(-x^2/2)", "1"), (0.5, 1.0, 2.0),
                              (0.05, 0.02, 0.01))
    for weight, rate, h in cases:
        k = _gauss_shift_kernel(weight, rate).qx
        xs = SolveConfig(hx=h, truncation=16.0).axes()[0]
        got = list(kernel_row_blocks(k, xs))
        want = list(_causal_range_blocks(k, xs))
        case = (weight, rate, h)
        assert [(a, c0) for a, c0, _ in got] \
            == [(a, c0) for a, c0, _ in want], case
        for (_, _, block), (_, _, ref) in zip(got, want):
            assert block.shape == ref.shape and np.array_equal(block, ref), \
                case


def test_check_hypotheses_statuses(problem):
    rep = check_hypotheses(problem.kernel, problem.nl, r=0.5)
    assert rep["hypotheses"]["C1"]["status"] == "verified"
    assert rep["hypotheses"]["C2"]["status"] == "verified_on_truncation"
    assert rep["hypotheses"]["C3"]["status"] == "verified"
    assert rep["hypotheses"]["C4"]["status"] == "diverges"
    assert any("diverges" in f"{c['status']} ({c['detail']})"
               for c in rep["hypotheses"].values())
    assert set(rep) == {"r", "hypotheses", "integrals"} and rep["r"] == 0.5
    assert all(set(c) == {"status", "detail"}
               for c in rep["hypotheses"].values())


def test_check_hypotheses_integrals(problem, c4_partials):
    rep = check_hypotheses(problem.kernel, problem.nl, r=0.5)
    # Phi_r integrates in closed form over the half strip
    expected_phi = 0.125 * SQPI2 ** 2 * erf(1.0) + 0.25 * SQPI2
    assert rep["integrals"]["Phi_r"] == pytest.approx(expected_phi, abs=1e-6)
    # C4 diverges, so no number is recorded for its M-branch
    assert "M0*Phi_r" not in rep["integrals"]
    assert rep["integrals"]["|z0|*Phi_r"] == 0.0
    assert math.isfinite(rep["integrals"]["w0*Phi_r"])
    assert rep["integrals"]["w0*Phi_r"] > 0.0
    # the weighted column sup is exp(t^2), attained at x = 2t, on the
    # report's 41 columns of [0, 8]
    ts = np.linspace(0.0, 8.0, 41)
    sup = _weighted_quotient_sups(problem.kernel.weighted_quotient, ts, 16.0)
    rel = np.abs(sup - np.exp(ts ** 2)) / np.exp(ts ** 2)
    assert rel.max() < 1e-3
    # (|z0|*Phi_r == 0 above: every column's face limit z0 is 0)
    partials = c4_partials(rep)
    assert partials[1] > 1.5 * partials[0]
    assert not math.isfinite(partials[2])


def test_check_hypotheses_phi_r_tail_is_certified(problem):
    # Phi_r is integrated over [0, B] x [0, 1], with B the first integer at
    # which the certified Gaussian tail bound is below tol: the dropped
    # tail and the quadrature error together stay below tol
    for r in (0.1, 2.0):
        exact = 0.125 * SQPI2 ** 2 * erf(1.0) + r * r * SQPI2
        for tol in (1e-4, 1e-8):
            rep = check_hypotheses(problem.kernel, problem.nl, r=r, tol=tol)
            assert abs(rep["integrals"]["Phi_r"] - exact) <= tol
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            check_hypotheses(problem.kernel, problem.nl, r=0.5, tol=bad)


@pytest.mark.parametrize("amplitude", [1.0, 10.0])
def test_phi_r_tail_scale_comes_from_the_dominator(problem, amplitude):
    # the tail of amp exp(-t^2 - s^2) + r^2 exp(-t^2) grows with the
    # amplitude; the cut-off B must grow with it
    nl = _gauss_square_nonlinearity("exp(-x^2/2)", amplitude)
    r, tol = 0.5, 1e-8
    assert nl.dominator(r)[1] == pytest.approx(
        amplitude * SQPI2 * erf(1.0) + r * r)
    rep = check_hypotheses(problem.kernel, nl, r=r, tol=tol)
    exact = amplitude * SQPI2 ** 2 * erf(1.0) + r * r * SQPI2
    assert rep["hypotheses"]["C3"]["status"] == "verified"
    assert abs(rep["integrals"]["Phi_r"] - exact) <= tol


class _RawQuotientKernel(Kernel):
    """A Kernel whose weighted quotient divides the raw factors
    kx(x, t)/phi(x) instead of combining their exponents."""

    def weighted_quotient(self, x, t):
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.kx(x, t) / WEIGHT_REGISTRY[self.weight_desc](x)


def _raw_quotient_kernel(weight_desc):
    """The rate-2 gauss-shift kernel as a _RawQuotientKernel."""
    return _RawQuotientKernel("raw", lambda x, t: -2.0 * (x - t) ** 2,
                              lambda x, t: -4.0 * (x - t), weight_desc)


def test_check_hypotheses_counts_only_finite_limits_and_partials(
        problem, c4_partials):
    # the raw division kx/phi of a rate-2 kernel is 0/0 once both factors
    # underflow: every face limit and the widest partial M0*Phi_r integral
    # are nan, and a nan never certifies
    raw = _raw_quotient_kernel(problem.weight_desc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_hypotheses(raw, problem.nl, r=0.5)
    c1 = rep["hypotheses"]["C1"]
    assert c1["status"] == "unverified"
    assert "face limit exists at 0 of 9 sampled columns" in c1["detail"]
    c4 = rep["hypotheses"]["C4"]
    assert c4["status"] == "unverified"
    assert math.isnan(c4_partials(rep)[2])
    assert not any(math.isnan(v) for v in rep["integrals"].values())
    assert "M0*Phi_r" not in rep["integrals"]
    assert "|z0|*Phi_r" not in rep["integrals"]


def _loop_quotient_sup(quotient, t, x_hi, n):
    """Reference: one kernel column per call."""
    xs = np.linspace(t, x_hi, n)
    with np.errstate(over="ignore"):
        q = np.abs(quotient(xs, t))
    return float(q[int(np.argmax(q))])


def test_hypothesis_profiles_match_the_column_loops(problem):
    for kernel in (problem.kernel, _raw_quotient_kernel(problem.weight_desc)):
        quotient = kernel.weighted_quotient
        rep = check_hypotheses(kernel, problem.nl, r=0.5)
        # C1 on the 41 report columns
        ts = np.linspace(0.0, 8.0, 41)
        sups = _weighted_quotient_sups(quotient, ts, 16.0)
        assert np.array_equal(sups, [_loop_quotient_sup(quotient, t, 16.0,
                                                        1200) for t in ts],
                              equal_nan=True)
        # C4 on the columns of each doubling truncation
        for R in (8.0, 16.0, 32.0):
            tt = np.linspace(0.0, R, int(20 * R) + 1)
            want = [_loop_quotient_sup(quotient, t, max(2.0 * R, 10.0), 800)
                    for t in tt]
            assert np.array_equal(
                _weighted_quotient_sups(quotient, tt, max(2.0 * R, 10.0),
                                        800), want, equal_nan=True)
        # C2's moduli, read back from C2's printed max and from the
        # w0*Phi_r integral they are integrated into (NaN if one is NaN)
        xs = np.linspace(0.0, 8.0, 400)
        emb = xs / (1.0 + xs)
        want = np.array([float((np.abs(np.diff(quotient(xs, t) * (xs >= t)))
                                / np.diff(emb)).max()) for t in ts])
        assert f"max {np.max(want):.3g};" in rep["hypotheses"]["C2"]["detail"]
        phi_r, _ = problem.nl.dominator(0.5)
        w_phi = np.trapezoid(want * _unit_interval_integrals(
            phi_r, ts, 1e-10), ts)
        assert np.array_equal(rep["integrals"]["w0*Phi_r"], w_phi,
                              equal_nan=True)


def test_phi_r_integrals_settle_relative_to_a_large_forcing(problem):
    # the Phi_r integrals settle to their tolerances times Phi_r's sampled
    # peak: at amplitude 1e6 the two rules of C4's s-integrals still differ
    # by 2.3e-10 at the finest panels, above an absolute 1e-10
    nl = _gauss_square_nonlinearity("exp(-x^2/2)", 1e6)
    r, tol = 0.5, 1e-8
    rep = check_hypotheses(problem.kernel, nl, r=r, tol=tol)
    assert {key: c["status"] for key, c in rep["hypotheses"].items()} == {
        "C1": "verified", "C2": "verified_on_truncation", "C3": "verified",
        "C4": "diverges"}
    exact = 1e6 * SQPI2 ** 2 * erf(1.0) + r * r * SQPI2
    assert abs(rep["integrals"]["Phi_r"] - exact) <= tol * (1e6 + r * r)


def test_check_hypotheses_rejects_nonpositive_radius(problem):
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            check_hypotheses(problem.kernel, problem.nl, r=bad)


def test_check_hypotheses_fails_on_an_infinite_phi_r_peak(problem):
    # r^2 overflows Phi_r, so its relative tolerance would be infinite: a
    # numerical failure, not a refused tol
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(QuadratureError,
                           match="Phi_r is not finite on the sampled"):
            check_hypotheses(problem.kernel, problem.nl, r=1e200)


def test_nonlinearity_domination_on_cone_sections(problem, rng):
    nl = problem.nl
    for r in (0.3, 0.5, 2.0):
        phi_r, _ = nl.dominator(r)
        t = rng.uniform(0.0, 10.0, size=300)
        s = rng.uniform(0.0, 1.0, size=300)
        v = rng.uniform(-1.0, 1.0, size=300) * r * np.exp(-t ** 2 / 2.0)
        assert np.all(nl.eval(t, s, v) <= phi_r(t, s) + 1e-15)
