"""Quadrature routines, the integral operator and the hypothesis checker."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import erf, erfc

from compactfix.casestudy import _gauss_square_nonlinearity
from compactfix.funcspace import WeightedGridFunction
from compactfix.greenop import (GridHammersteinOperator, Kernel,
                                Nonlinearity, QuadratureError,
                                _quotient_fn, _weighted_quotient_sups,
                                apply_T, check_hypotheses,
                                cumulative_weight_block,
                                cumulative_weights, gaussian_tail,
                                kernel_abs_integral, panel_quadrature)
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
                      tol=1e-10, faces=False)
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
                      tol=1e-10, faces=False).samples
        want = _nested_adaptive_apply(u, problem.kernel, problem.nl, 1e-10)
        assert np.abs(got - want).max() <= 1e-9


def test_adaptive_apply_refuses_nan_and_unsettled_integrands(problem):
    xs = np.linspace(0.0, 2.0, 5)
    ys = np.linspace(0.0, 1.0, 4)
    u = _grid_function(problem, xs, ys, np.zeros((5, 4)))
    nan_nl = Nonlinearity("nan", lambda t, s, v: np.where(t > 1.0, math.nan,
                                                          1.0 + v))
    with pytest.raises(QuadratureError, match="not finite at panel level 0"):
        apply_T(u, problem.kernel, nan_nl, method="adaptive", faces=False)
    # an integrable singularity off every panel break: each doubling moves
    # the values by about the square root of the panel width
    spike = Nonlinearity("spike", lambda t, s, v:
                         np.abs(t - 1.0 / 3.0) ** -0.5 + v)
    with pytest.raises(QuadratureError, match="no convergence") as err:
        apply_T(u, problem.kernel, spike, method="adaptive", faces=False)
    assert np.all(np.isfinite(err.value.last_estimate))


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


def _column_kernel():
    """Separable kernel without a quotient form whose weighted x-column is
    exactly exp(-t^2): kx(x, t) = phi(x) exp(-t^2)."""
    def kx(x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        return np.exp(-x ** 2 / 2.0 - t ** 2)

    return Kernel("gauss-column", kx)


def _dense_apply(kernel, nl, axes, u):
    """Reference: the dense grid route (Wx kx) @ F @ B^T on u itself."""
    xs, ys = axes
    A = cumulative_weights(xs) * kernel.kx(xs[:, None], xs[None, :])
    B = cumulative_weights(ys)
    tm, sm = np.meshgrid(xs, ys, indexing="ij")
    return A @ (nl.eval(tm, sm, u) @ B.T)


def test_banded_quotient_operator_matches_dense_route(problem, rng):
    axes = SolveConfig(hx=0.02, hy=0.02, truncation=24.0).axes()
    op = GridHammersteinOperator(problem.kernel, problem.nl, axes)
    assert op.quotient
    phi = problem.weight(axes[0])[:, None]
    q = rng.uniform(0.0, 0.5, size=tuple(len(a) for a in axes))
    dense = _dense_apply(problem.kernel, problem.nl, axes, phi * q) / phi
    assert np.abs(op.apply(q) - dense).max() <= 1e-14


@pytest.mark.parametrize("kernel", [
    _column_kernel(),
    Kernel("gauss-shift", lambda x, t: np.exp(-(x - t) ** 2))])
def test_no_split_operator_matches_dense_route(problem, rng, kernel):
    # without Kernel.qx the operator acts on u over the whole causal range,
    # for a kernel of product form and for the convolution kernel
    axes = (np.linspace(0.0, 16.0, 161), np.linspace(0.0, 1.0, 21))
    op = GridHammersteinOperator(kernel, problem.nl, axes)
    assert not op.quotient
    u = rng.uniform(0.0, 0.5, size=(161, 21))
    dense = _dense_apply(kernel, problem.nl, axes, u)
    assert np.abs(op.apply(u) - dense).max() <= 1e-14


@pytest.mark.parametrize("quotient", [True, False])
def test_operator_converts_at_its_coordinate_boundary(problem, rng,
                                                      quotient):
    # from_u, apply, to_u is T on u in either coordinate, and gap is the
    # weighted sup distance of two iterates
    kernel = problem.kernel if quotient else _column_kernel()
    axes = (np.linspace(0.0, 8.0, 81), np.linspace(0.0, 1.0, 11))
    op = GridHammersteinOperator(kernel, problem.nl, axes)
    assert op.quotient == quotient
    phi = problem.weight(axes[0])[:, None]
    u = phi * rng.uniform(0.0, 0.5, size=(81, 11))
    tu = op.to_u(op.apply(op.from_u(u, phi)), phi)
    dense = _dense_apply(kernel, problem.nl, axes, u)
    assert np.abs((tu - dense) / phi).max() <= 1e-14
    gap = op.gap(op.from_u(tu, phi), op.from_u(u, phi), phi)
    assert gap == pytest.approx(np.abs((tu - u) / phi).max(), rel=1e-13)


def test_quotient_operator_stores_its_band_only(problem):
    axes = SolveConfig(hx=0.01, hy=0.01, truncation=24.0).axes()
    op = GridHammersteinOperator(problem.kernel, problem.nl, axes)
    n = len(axes[0])
    assert sum(block.size for _, _, block in op.blocks) <= 0.4 * n * n


def test_check_hypotheses_statuses(problem):
    rep = check_hypotheses(problem.kernel, problem.weight, problem.nl,
                           r=0.5)
    assert rep.conditions["C1"].status == "verified"
    assert rep.conditions["C2"].status == "verified_on_truncation"
    assert rep.conditions["C3"].status == "verified"
    assert rep.conditions["C4"].status == "diverges"
    assert any("diverges" in line for line in rep.lines())


def test_check_hypotheses_integrals(problem, c4_partials):
    rep = check_hypotheses(problem.kernel, problem.weight, problem.nl,
                           r=0.5)
    # Phi_r integrates in closed form over the half strip
    expected_phi = 0.125 * SQPI2 ** 2 * erf(1.0) + 0.25 * SQPI2
    assert rep.integrals["Phi_r"] == pytest.approx(expected_phi, abs=1e-6)
    # C4 diverges, so no number is recorded for its M-branch
    assert "M0*Phi_r" not in rep.integrals
    assert rep.integrals["|z0|*Phi_r"] == 0.0
    assert math.isfinite(rep.integrals["w0*Phi_r"])
    assert rep.integrals["w0*Phi_r"] > 0.0
    # the weighted column sup is exp(t^2), attained at x = 2t
    ts, sup = rep.profiles["M0"]
    rel = np.abs(sup - np.exp(ts ** 2)) / np.exp(ts ** 2)
    assert rel.max() < 1e-3
    assert np.abs(rep.profiles["z0"]).max() < 1e-12
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
            rep = check_hypotheses(problem.kernel, problem.weight,
                                   problem.nl, r=r, tol=tol)
            assert abs(rep.integrals["Phi_r"] - exact) <= tol
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            check_hypotheses(problem.kernel, problem.weight, problem.nl,
                             r=0.5, tol=bad)


@pytest.mark.parametrize("amplitude", [1.0, 10.0])
def test_phi_r_tail_scale_comes_from_the_dominator(problem, amplitude):
    # the tail of amp exp(-t^2 - s^2) + r^2 exp(-t^2) grows with the
    # amplitude; the cut-off B must grow with it
    nl = _gauss_square_nonlinearity("exp(-x^2/2)", amplitude)
    r, tol = 0.5, 1e-8
    assert nl.dominator(r).tail_scale == pytest.approx(
        amplitude * SQPI2 * erf(1.0) + r * r)
    rep = check_hypotheses(problem.kernel, problem.weight, nl, r=r, tol=tol)
    exact = amplitude * SQPI2 ** 2 * erf(1.0) + r * r * SQPI2
    assert rep.conditions["C3"].status == "verified"
    assert abs(rep.integrals["Phi_r"] - exact) <= tol


def test_check_hypotheses_counts_only_finite_limits_and_partials(
        problem, c4_partials):
    # without a combined-exponent quotient, kx/phi of a rate-2 kernel is
    # 0/0 once both factors underflow: every face limit and the widest
    # partial M0*Phi_r integral are nan
    raw = Kernel("raw", lambda x, t: np.exp(-2.0 * (x - t) ** 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_hypotheses(raw, problem.weight, problem.nl, r=0.5)
    c1 = rep.conditions["C1"]
    assert c1.status == "unverified"
    assert "face limit exists at 0 of 9 sampled columns" in c1.detail
    c4 = rep.conditions["C4"]
    assert c4.status == "unverified"
    assert math.isnan(c4_partials(rep)[2])
    assert not any(math.isnan(v) for v in rep.integrals.values())
    assert "M0*Phi_r" not in rep.integrals
    assert "|z0|*Phi_r" not in rep.integrals


def _loop_quotient_sup(quotient, t, x_hi, n):
    """Reference: one kernel column per call."""
    xs = np.linspace(t, x_hi, n)
    with np.errstate(over="ignore"):
        q = np.abs(quotient(xs, t))
    return float(q[int(np.argmax(q))])


def test_hypothesis_profiles_match_the_column_loops(problem):
    raw = Kernel("raw", lambda x, t: np.exp(-2.0 * (x - t) ** 2))
    for kernel in (problem.kernel, raw):
        quotient = _quotient_fn(kernel, problem.weight)
        rep = check_hypotheses(kernel, problem.weight, problem.nl, r=0.5)
        # C1 on the 41 report columns
        ts, sups = rep.profiles["M0"]
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
        # C2's moduli
        xs = np.linspace(0.0, 8.0, 400)
        emb = xs / (1.0 + xs)
        want = [float((np.abs(np.diff(quotient(xs, t) * (xs >= t)))
                       / np.diff(emb)).max()) for t in ts]
        assert np.array_equal(rep.profiles["w0"][1], want, equal_nan=True)


def test_check_hypotheses_rejects_nonpositive_radius(problem):
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            check_hypotheses(problem.kernel, problem.weight, problem.nl,
                             r=bad)


def test_nonlinearity_domination_on_cone_sections(problem, rng):
    nl = problem.nl
    for r in (0.3, 0.5, 2.0):
        phi_r = nl.dominator(r)
        t = rng.uniform(0.0, 10.0, size=300)
        s = rng.uniform(0.0, 1.0, size=300)
        v = rng.uniform(-1.0, 1.0, size=300) * r * np.exp(-t ** 2 / 2.0)
        assert np.all(nl.eval(t, s, v) <= phi_r(t, s) + 1e-15)
