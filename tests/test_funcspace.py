"""Weighted grid functions: norms, trace maps, precompactness diagnostics."""

import csv
import dataclasses
import inspect
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import compactfix
from compactfix.funcspace import (WEIGHT_REGISTRY, BumpChain,
                                  FaceLimitError, WeightedGridFunction,
                                  _family_quotient_derivatives,
                                  equiconvergence_deviation,
                                  equicontinuity_modulus, gamma_p,
                                  gaussian_family, gaussian_family_separation,
                                  load_grid_function, multi_indices,
                                  precompactness_report, quotient_derivative,
                                  save_grid_function, weighted_norm)


phi = WEIGHT_REGISTRY["exp(-x^2/2)"]


# half-line grid reaching far enough that several tail windows have nodes
XS = np.linspace(0.0, 24.0, 49)


def wgf(samples, weight=phi, order=0, infinity=None, axes=(XS,)):
    return WeightedGridFunction(axes, samples, weight, order,
                                infinity=infinity)


def test_multi_indices_order_one_two_dims():
    assert multi_indices(1, 2) == [(0, 0), (0, 1), (1, 0)]
    assert multi_indices(0, 3) == [(0, 0, 0)]


def test_quotient_derivative_of_the_weight_itself_is_zero():
    # f = phi has quotient identically 1, so every derivative vanishes
    f = wgf(phi(XS), order=2)
    for p in [(1,), (2,)]:
        assert np.all(quotient_derivative(f, p) == 0.0)


def test_quotient_derivative_exact_for_linear_quotient():
    f = wgf(XS * phi(XS))
    d = quotient_derivative(f, (1,))
    assert np.allclose(d, 1.0, atol=1e-12)


def test_quotient_derivative_mixed_partial():
    xs = np.linspace(0.0, 4.0, 21)
    ys = np.linspace(0.0, 1.0, 11)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    f = WeightedGridFunction((xs, ys), X * Y)
    d = quotient_derivative(f, (1, 1))
    assert np.allclose(d, 1.0, atol=1e-10)


def test_quotient_derivative_resolves_bump_slope():
    chain = BumpChain()
    xs = np.arange(2.5, 3.5 + 1e-12, 1e-4)
    f = WeightedGridFunction((xs,), chain.value(xs))
    d = quotient_derivative(f, (1,))
    i = int(np.argmin(np.abs(xs - chain.rising_inflection(3))))
    assert abs(d[i] - BumpChain.peak_slope) < 1e-3


def test_quotient_derivative_rejects_too_coarse_grid():
    f = WeightedGridFunction((np.array([0.0, 1.0]),), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="too coarse"):
        quotient_derivative(f, (2,))
    with pytest.raises(ValueError, match="length"):
        quotient_derivative(f, (1, 0))


def test_grid_function_validation():
    with pytest.raises(ValueError, match="shape"):
        WeightedGridFunction((XS,), np.zeros(len(XS) + 1))
    with pytest.raises(ValueError, match="increasing"):
        WeightedGridFunction((np.array([0.0, 2.0, 1.0]),), np.zeros(3))
    bad = WeightedGridFunction((XS,), np.zeros_like(XS),
                               weight=lambda x: np.zeros_like(x))
    with pytest.raises(ValueError, match="positive"):
        bad.weight_values()


def test_weighted_norm_zero_and_weight():
    assert weighted_norm(wgf(np.zeros_like(XS))) == 0.0
    assert weighted_norm(wgf(phi(XS))) == 1.0


def test_weighted_norm_unweighted_gaussian_peak():
    xs = np.linspace(0.0, 6.0, 601)
    f = WeightedGridFunction((xs,), np.exp(-(xs - 3.0) ** 2))
    assert abs(weighted_norm(f) - 1.0) < 1e-12


def test_weighted_norm_ranges_over_stored_faces():
    f = wgf(0.1 * phi(XS), infinity={"inf": {(0,): 2.0}})
    assert weighted_norm(f) == 2.0
    # face entries above the class order do not count
    g = wgf(0.1 * phi(XS), infinity={"inf": {(1,): 99.0}})
    assert abs(weighted_norm(g) - 0.1) < 1e-15


def test_weighted_norm_axioms_seeded():
    xs = np.linspace(0.0, 8.0, 33)
    rng = np.random.default_rng(20240816)

    def norm(samples):
        return weighted_norm(WeightedGridFunction((xs,), samples, phi,
                                                  order=1))

    assert norm(np.zeros_like(xs)) == 0.0
    for _ in range(200):
        a = rng.normal(size=xs.size)
        b = rng.normal(size=xs.size)
        na, nb, nab = norm(a), norm(b), norm(a + b)
        assert nab <= na + nb + 1e-12 * (na + nb)
        c = rng.normal()
        if abs(c) > 1e-12:
            nc = norm(c * a)
            assert abs(nc - abs(c) * na) <= 1e-12 * max(1.0, nc)
        assert na > 0.0


def test_gamma_p_of_constant_quotient():
    f = wgf(phi(XS))
    g = gamma_p(f, (0,))
    assert np.allclose(g.values, 1.0)
    assert g.infinity["inf"] == pytest.approx(1.0, abs=1e-12)
    assert g.sup() == pytest.approx(1.0, abs=1e-12)
    emb = g.embedded_axes[0]
    assert np.all(np.diff(emb) > 0) and emb.max() < 1.0


def test_gamma_p_is_linear():
    xs = np.linspace(0.0, 8.0, 17)
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = rng.normal(size=xs.size)
        b = rng.normal(size=xs.size)
        fa, fb = rng.normal(), rng.normal()

        def mk(samples, face):
            return WeightedGridFunction((xs,), samples, phi,
                                        infinity={"inf": {(0,): face}})

        ga = gamma_p(mk(a, fa), (0,))
        gb = gamma_p(mk(b, fb), (0,))
        gc = gamma_p(mk(2.0 * a + 3.0 * b, 2.0 * fa + 3.0 * fb), (0,))
        scale = max(1.0, np.abs(gc.values).max())
        assert np.allclose(gc.values, 2.0 * ga.values + 3.0 * gb.values,
                           atol=1e-10 * scale)
        assert gc.infinity["inf"] == pytest.approx(
            2.0 * ga.infinity["inf"] + 3.0 * gb.infinity["inf"], abs=1e-12)


def test_gamma_p_sup_bounded_by_weighted_norm():
    xs = np.linspace(0.0, 8.0, 33)
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = rng.normal(size=xs.size)
        faces = {"inf": {(0,): rng.normal(), (1,): rng.normal()}}
        f = WeightedGridFunction((xs,), a, phi, order=1, infinity=faces)
        bound = weighted_norm(f)
        for p in [(0,), (1,)]:
            assert gamma_p(f, p).sup() <= bound + 1e-12


def test_gamma_zero_separates_grid_functions():
    xs = np.linspace(0.0, 8.0, 33)
    rng = np.random.default_rng(13)
    face = {"inf": {(0,): 0.0}}
    for _ in range(200):
        a = rng.normal(size=xs.size)
        b = rng.normal(size=xs.size)
        ga = gamma_p(WeightedGridFunction((xs,), a, phi, infinity=face), (0,))
        gb = gamma_p(WeightedGridFunction((xs,), b, phi, infinity=face), (0,))
        gap = np.abs(ga.values - gb.values).max()
        assert gap > 0.0
        # the trace map cannot shrink differences below the sample gap
        assert gap >= np.abs(a - b).max() - 1e-9


def test_gamma_p_raises_when_grid_limit_is_missing():
    f = WeightedGridFunction((XS,), np.sin(XS))
    with pytest.raises(FaceLimitError) as err:
        gamma_p(f, (0,), tol=1e-3)
    assert err.value.face == "inf"
    assert err.value.result.status == "no_limit"


def test_face_limit_needs_nodes_in_some_window():
    xs = np.linspace(0.0, 0.9, 10)
    f = WeightedGridFunction((xs,), np.zeros_like(xs))
    with pytest.raises(ValueError, match="window"):
        f.face_limit((0,), "inf")


def test_precompactness_gaussian_family_counterexample():
    """Translates of one Gaussian: bounded, equicontinuous, not equiconvergent.

    Every member claims face value 0, but each window at infinity still
    contains later members at full height, so the deviation never drops.
    """
    rep = precompactness_report(gaussian_family(40))
    assert rep.bounded
    assert rep.bound == pytest.approx(1.0, abs=1e-9)
    assert rep.equicontinuous
    assert not rep.equiconvergent
    assert rep.worst_deviation > 0.5
    assert not rep.all_conditions


def test_precompactness_finite_subfamily_passes():
    # with the window far beyond the last centre all three conditions hold
    rep = precompactness_report(gaussian_family(10))
    assert rep.all_conditions
    single = precompactness_report(gaussian_family(3)[:1])
    assert single.all_conditions


def test_precompactness_deviation_tracks_the_marching_front():
    for n in (5, 10):
        fam = gaussian_family(n, truncation=n + 2.0)
        rep = precompactness_report(fam)
        assert not rep.equiconvergent
        assert rep.worst_deviation > 0.5


def test_precompactness_scaled_convergent_family_passes():
    xs = np.arange(0.0, 24.0 + 1e-9, 0.01)
    fam = [WeightedGridFunction((xs,), c * np.exp(-xs ** 2),
                                infinity={"inf": {(0,): 0.0}})
           for c in (0.0, 0.5, -0.5, 1.0, -1.0)]
    rep = precompactness_report(fam)
    assert rep.all_conditions
    assert rep.worst_deviation < 1e-12


def _doubling_modulus(family, max_shift=64):
    """Reference: every delta recomputes all shifts up to its own."""
    f0, ps, derivs = _family_quotient_derivatives(family)
    out = []
    for axis in range(f0.ndim):
        h = float(np.min(np.diff(f0.axes[axis])))
        shift = 1
        while shift <= max_shift:
            delta = shift * h
            worst = 0.0
            for p in ps:
                v = derivs[p]
                for s in range(1, shift + 1):
                    sl_hi = [slice(None)] * v.ndim
                    sl_lo = [slice(None)] * v.ndim
                    sl_hi[axis + 1] = slice(s, None)
                    sl_lo[axis + 1] = slice(None, -s)
                    d = np.abs(v[tuple(sl_hi)] - v[tuple(sl_lo)]).max()
                    worst = max(worst, float(d))
            out.append((delta, worst))
            shift *= 2
    return sorted(out)


def test_equicontinuity_modulus_matches_the_doubling_loop(rng):
    # a member of period 4 nodes differs most at shift 2, so the worst
    # difference must be carried past the shifts 3 and 4
    fam = gaussian_family(12, truncation=16.0, step=0.01)
    wave = 3.0 * np.sin(np.pi * np.arange(len(fam[0].axes[0])) / 2.0)
    fam.append(fam[0].with_samples(wave))
    assert equicontinuity_modulus(fam) == _doubling_modulus(fam)
    assert len(equicontinuity_modulus(fam)) == 7
    # a 2-d family of order 1: three quotient derivatives per member
    xs = np.linspace(0.0, 6.0, 61)
    ys = np.linspace(0.0, 1.0, 41)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    fam2 = [WeightedGridFunction(
        (xs, ys), a * np.exp(-(X - c) ** 2) * (1.0 + b * Y ** 2), phi,
        order=1) for a, b, c in rng.uniform(0.0, 3.0, (5, 3))]
    fam2.append(fam2[0].with_samples(np.sin(np.pi * np.arange(61) / 2.0)
                                     [:, None] * np.exp(-X ** 2 / 2.0)))
    for max_shift in (1, 12, 32):
        got = equicontinuity_modulus(fam2, max_shift)
        assert got == _doubling_modulus(fam2, max_shift)
    assert len(got) == 12


VALUES = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data(), st.integers(1, 2), st.integers(1, 11), st.integers(0, 1))
def test_window_modulus_equals_the_doubling_loop(data, ndim, members, order):
    shape = tuple(data.draw(st.integers(order + 2, 24), label=f"n{i}")
                  for i in range(ndim))
    axes = tuple(np.arange(n) * 0.25 for n in shape)
    fam = [WeightedGridFunction(
        axes, data.draw(hnp.arrays(float, shape, elements=VALUES)),
        order=order) for _ in range(members)]
    max_shift = data.draw(st.integers(1, min(shape) - 1), label="max_shift")
    assert equicontinuity_modulus(fam, max_shift) \
        == _doubling_modulus(fam, max_shift)


@pytest.mark.parametrize("node", [400, -5])
def test_nan_sample_never_certifies(node):
    # a NaN once dropped out of the running max: every omega read 0.0, and
    # a NaN in the tail windows left the family equiconvergent
    fam = gaussian_family(12, truncation=16.0, step=0.01)
    bad = fam[3].samples.copy()
    bad[node] = math.nan
    fam[3] = fam[3].with_samples(bad, fam[3].infinity)
    assert all(math.isnan(w) for _, w in equicontinuity_modulus(fam))
    rep = precompactness_report(fam)
    assert not rep.equicontinuous and not rep.all_conditions
    if node < 0:
        assert all(math.isnan(d) for _, d in equiconvergence_deviation(fam))
        assert not rep.equiconvergent


def test_equiconvergence_requires_stored_faces():
    xs = np.arange(0.0, 24.0 + 1e-9, 0.5)
    fam = [WeightedGridFunction((xs,), np.exp(-xs ** 2))]
    with pytest.raises(FaceLimitError) as err:
        equiconvergence_deviation(fam)
    assert err.value.face == "inf"


def test_family_members_must_share_grid_and_order():
    xs = np.linspace(0.0, 8.0, 17)
    ys = np.linspace(0.0, 8.0, 33)
    fa = WeightedGridFunction((xs,), np.zeros_like(xs))
    fb = WeightedGridFunction((ys,), np.zeros_like(ys))
    with pytest.raises(ValueError, match="grid"):
        precompactness_report([fa, fb])
    fc = WeightedGridFunction((xs,), np.zeros_like(xs), order=1)
    with pytest.raises(ValueError, match="order"):
        precompactness_report([fa, fc])
    with pytest.raises(ValueError, match="empty"):
        precompactness_report([])


def test_bump_chain_exact_values():
    chain = BumpChain()
    for k in (2, 3, 4):
        assert chain.value(float(k)) == pytest.approx(1.0 / k, abs=1e-15)
        x_inf = chain.rising_inflection(k)
        assert chain.value(x_inf) == pytest.approx((4.0 / 9.0) / k, abs=1e-12)
        assert chain.derivative(x_inf) == pytest.approx(BumpChain.peak_slope,
                                                        abs=1e-12)
        x_end = chain.support_end(k)
        assert chain.value(x_end) == 0.0
        assert chain.derivative(x_end) == 0.0
        xs = np.linspace(k - 1.0 / k, k + 1.0 / k, 1001)
        assert chain.value(xs).max() <= 1.0 / k + 1e-15
        assert np.abs(chain.derivative(xs)).max() <= (BumpChain.peak_slope
                                                      + 1e-12)


def test_bump_chain_vanishes_between_supports():
    chain = BumpChain()
    # right of bump 2 ends at 2.5, bump 3 starts at 8/3
    gap = np.linspace(2.51, 2.66, 50)
    assert np.all(chain.value(gap) == 0.0)
    assert np.all(chain.derivative(gap) == 0.0)


def test_bump_chain_witness_points_land_in_the_window():
    chain = BumpChain()
    for delta in (0.5, 0.1, 0.01):
        pts = chain.witness_points(delta)
        assert np.all(pts > 1.0 / delta - 1.0)
        # the witnesses expose the full derivative swing inside the window
        assert chain.derivative(pts).max() == pytest.approx(
            BumpChain.peak_slope, abs=1e-12)
        assert np.abs(chain.derivative(pts)).min() == 0.0


def test_gaussian_family_separation_floor():
    sep10 = gaussian_family_separation(10)
    sep3 = gaussian_family_separation(3)
    assert sep10 >= 1.0 - math.exp(-1.0) - 1e-6
    # the minimum is always an adjacent pair, so it does not shrink with n
    assert abs(sep10 - sep3) < 1e-12
    assert sep10 == pytest.approx(0.7303884874204196, abs=1e-10)


def test_save_load_round_trip(tmp_path):
    xs = np.linspace(0.0, 6.0, 13)
    ys = np.linspace(0.0, 1.0, 5)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    samples = np.sin(X) * phi(X) + Y * phi(X)
    infinity = {"axis0:inf": {(0, 0): np.linspace(0.0, 1.0, 5),
                              (1, 0): np.zeros(5)}}
    f = WeightedGridFunction((xs, ys), samples, phi, order=1,
                             infinity=infinity, weight_desc="exp(-x^2/2)")
    path = tmp_path / "grid.csv"
    save_grid_function(f, path)
    g = load_grid_function(path)
    assert g.order == 1 and g.weight_desc == "exp(-x^2/2)"
    for a, b in zip(f.axes, g.axes):
        assert np.array_equal(a, b)
    assert np.array_equal(f.samples, g.samples)
    assert set(g.infinity) == {"axis0:inf"}
    assert np.array_equal(g.infinity["axis0:inf"][(0, 0)],
                          np.linspace(0.0, 1.0, 5))
    assert weighted_norm(g) == weighted_norm(f)


def test_load_rejects_unknown_weight(tmp_path):
    import json

    f = wgf(phi(XS))
    path = tmp_path / "grid.csv"
    save_grid_function(f, path)
    sidecar = tmp_path / "grid.csv.json"
    side = json.loads(sidecar.read_text())
    side["weight"] = "cosh(x)"
    sidecar.write_text(json.dumps(side))
    with pytest.raises(ValueError, match="unknown weight"):
        load_grid_function(path)


def test_grid_function_names_its_weight_from_the_registry(problem,
                                                          tmp_path):
    xs = np.linspace(0.0, 8.0, 33)
    ys = np.linspace(0.0, 1.0, 5)
    X, _ = np.meshgrid(xs, ys, indexing="ij")
    f = WeightedGridFunction((xs, ys), phi(X) * (1.0 + X), problem.weight,
                             cmap=problem.cmap)
    assert f.weight_desc == "exp(-x^2/2)"
    assert weighted_norm(f) == pytest.approx(9.0, abs=1e-12)
    save_grid_function(f, tmp_path / "grid.csv")
    g = load_grid_function(tmp_path / "grid.csv")
    assert g.weight is phi
    assert weighted_norm(g) == weighted_norm(f)
    assert WeightedGridFunction((xs,), np.ones_like(xs)).weight_desc == "1"


def test_weight_and_its_description_must_agree(tmp_path):
    with pytest.raises(ValueError, match="does not name"):
        WeightedGridFunction((XS,), phi(XS), phi, weight_desc="1")
    with pytest.raises(ValueError, match="does not name"):
        WeightedGridFunction((XS,), phi(XS), weight_desc="exp(-x^2/2)")
    with pytest.raises(ValueError, match="unknown weight"):
        WeightedGridFunction((XS,), phi(XS), phi, weight_desc="cosh(x)")
    # a weight outside the registry computes, but has no name to save
    f = WeightedGridFunction((XS,), phi(XS),
                             lambda x: np.exp(-x ** 2 / 2.0))
    assert f.weight_desc is None and weighted_norm(f) == 1.0
    path = tmp_path / "grid.csv"
    with pytest.raises(ValueError, match="WEIGHT_REGISTRY"):
        save_grid_function(f, path)
    assert not path.exists()


def _per_cell_csv_writer(f, csv_path):
    """Reference writer: csv.writer with one f-string per cell."""
    names = ["x", "y", "z"][: f.ndim]
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(names + ["value"])
        flat = [m.ravel() for m in f.mesh()] + [f.samples.ravel()]
        for row in zip(*flat):
            w.writerow([f"{v:.17g}" for v in row])


@pytest.mark.parametrize("shape", [(9,), (4, 5), (3, 2, 4)])
def test_save_matches_per_cell_writer_and_round_trips(tmp_path, shape):
    rng = np.random.default_rng(len(shape))
    axes = tuple(np.concatenate(([-0.0], np.cumsum(rng.uniform(1e-3, 2.0,
                                                               n - 1))))
                 for n in shape)
    samples = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300,
                                                                  shape)
    specials = [-0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf,
                1.0 / 3.0, 2.0 ** -1074 * 3]
    samples.flat[:len(specials)] = specials
    f = WeightedGridFunction(axes, samples)
    save_grid_function(f, tmp_path / "fast.csv")
    _per_cell_csv_writer(f, tmp_path / "slow.csv")
    assert (tmp_path / "fast.csv").read_bytes() \
        == (tmp_path / "slow.csv").read_bytes()
    g = load_grid_function(tmp_path / "fast.csv")
    assert g.samples.tobytes() == f.samples.tobytes()
    for a, b in zip(f.axes, g.axes):
        assert a.tobytes() == b.tobytes()


def test_cli_import_skips_spline_and_quadrature_modules():
    src = os.path.dirname(os.path.dirname(compactfix.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, compactfix.cli; print(sorted(m for m in sys.modules"
            " if m.startswith(('scipy.interpolate', 'scipy.integrate'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_exports_resolve_and_deleted_names_stay_gone():
    assert len(set(compactfix.__all__)) == len(compactfix.__all__)
    for name in compactfix.__all__:
        getattr(compactfix, name)
    assert "bump_chain" not in compactfix.__all__
    assert not hasattr(compactfix, "bump_chain")
    # every 1-d integral goes through panel_quadrature
    for name in ("adaptive_quadrature", "unbounded_quadrature"):
        assert name not in compactfix.__all__
        assert not hasattr(compactfix, name)
    for name in ("adaptive_quadrature", "unbounded_quadrature", "_panel"):
        assert not hasattr(compactfix.greenop, name)
    for cls, attr in [(compactfix.Kernel, "eval"),
                      (compactfix.Kernel, "support"),
                      (compactfix.HypothesisReport, "all_usable"),
                      (WeightedGridFunction, "check_infinity_faces")]:
        assert not hasattr(cls, attr), (cls.__name__, attr)
    for cls, attr in [(compactfix.Nonlinearity, "monotone_in_u"),
                      (compactfix.NamedProblem, "domain"),
                      (compactfix.NamedProblem, "weight1d"),
                      (compactfix.ConeSpec, "e"),
                      # face values come from the window ladder only
                      (compactfix.Kernel, "z_form"),
                      (compactfix.SolveConfig, "quad_tol"),
                      # settings with one value in use are constants
                      (compactfix.Kernel, "ky"),
                      (compactfix.SolveConfig, "face_tol"),
                      (compactfix.NamedProblem, "default_config"),
                      (compactfix.NamedProblem, "payload"),
                      (compactfix.greenop.ConditionResult, "data"),
                      (compactfix.PrecompactnessReport, "eps_ladder")]:
        assert attr not in {f.name for f in dataclasses.fields(cls)}, \
            (cls.__name__, attr)
    assert "weight" not in inspect.signature(
        compactfix.GridHammersteinOperator).parameters
    assert "operator" not in inspect.signature(
        compactfix.apply_T).parameters
    for name in ("compute_residual", "compute_profile"):
        assert name not in inspect.signature(
            compactfix.picard_solve).parameters
    for fn, names in [
            (compactfix.apply_T, ("face_tol",)),
            (compactfix.check_hypotheses, ("truncation", "n_t", "n_s")),
            (compactfix.cones.default_eval_grid, ("n_t", "n_s")),
            (compactfix.f_sup_rho, ("n_v",)),
            (compactfix.f_inf_rho, ("v_max", "n_v")),
            (compactfix.cone_membership, ("slack",)),
            (compactfix.kappa_limit, ("samples_per_level", "radius_cap",
                                      "seed")),
            (compactfix.extend, ("kwargs",)),
            (compactfix.precompactness_report, ("eps_ladder",))]:
        params = inspect.signature(fn).parameters
        for name in names:
            assert name not in params, (fn.__name__, name)
