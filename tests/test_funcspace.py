"""Weighted grid functions: norms, trace maps, precompactness diagnostics."""

import csv
import dataclasses
import inspect
import json
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import compactfix
from compactfix.compactify import (HalfLineOnePoint, IntervalIdentity,
                                   LimitResult, LineOnePoint, LineTwoPoint,
                                   ProductCompactification, classify_ladder,
                                   kappa_limit)
from compactfix import funcspace
from compactfix.funcspace import (FACE_TOL, LOG_WEIGHTS, NAMED_MAPS,
                                  WEIGHT_REGISTRY, BumpChain, FaceLimitError,
                                  WeightedGridFunction,
                                  WeightUnderflowError, _CSV_CHUNK,
                                  _face_axis, _family_quotients, _format_17g,
                                  equiconvergence_deviation,
                                  attach_faces, equicontinuity_modulus,
                                  gamma,
                                  gaussian_family, gaussian_family_separation,
                                  load_grid_function,
                                  precompactness_report,
                                  save_grid_function, weighted_norm)


phi = WEIGHT_REGISTRY["exp(-x^2/2)"]


# half-line grid reaching far enough that several tail windows have nodes
XS = np.linspace(0.0, 24.0, 49)


def wgf(samples, weight=phi, infinity=None, axes=(XS,)):
    return WeightedGridFunction(axes, samples, weight, infinity=infinity)


def test_grid_function_validation():
    with pytest.raises(ValueError, match="shape"):
        WeightedGridFunction((XS,), np.zeros(len(XS) + 1))
    with pytest.raises(ValueError, match="increasing"):
        WeightedGridFunction((np.array([0.0, 2.0, 1.0]),), np.zeros(3))
    # phi = 0 where it underflows fails only where it is divided by; a
    # weight outside the registry, such as a negative one, at once
    far = np.array([39.0, 40.0])
    bad = WeightedGridFunction((far,), np.zeros_like(far), weight=phi)
    assert not np.any(bad.weight_values())
    with pytest.raises(WeightUnderflowError, match="positive"):
        bad.quotient()
    with pytest.raises(ValueError, match="not a WEIGHT_REGISTRY entry"):
        WeightedGridFunction((XS,), np.zeros_like(XS),
                             weight=lambda x: -np.ones_like(x))


def test_weighted_norm_zero_and_weight():
    assert weighted_norm(wgf(np.zeros_like(XS))) == 0.0
    assert weighted_norm(wgf(phi(XS))) == 1.0


def test_weighted_norm_unweighted_gaussian_peak():
    xs = np.linspace(0.0, 6.0, 601)
    f = WeightedGridFunction((xs,), np.exp(-(xs - 3.0) ** 2))
    assert abs(weighted_norm(f) - 1.0) < 1e-12


def test_weighted_norm_ranges_over_stored_faces():
    f = wgf(0.1 * phi(XS), infinity={"axis0:inf": {(0,): 2.0}})
    assert weighted_norm(f) == 2.0


def test_weighted_norm_is_nan_when_a_value_is_nan():
    # Python's max(0.0, nan) is 0.0: a NaN sample read 0.0 alone and 2.0
    # beside a face of 2.0, and a NaN face beside finite samples read 1.0
    xs = np.linspace(0.0, 8.0, 9)
    samples = np.ones(9)
    samples[4] = math.nan
    for values, face in ((samples, None), (samples, 2.0),
                         (np.ones(9), math.nan)):
        f = WeightedGridFunction(
            (xs,), values,
            infinity=None if face is None else {"axis0:inf": {(0,): face}})
        assert math.isnan(weighted_norm(f)), face


def test_gamma_sup_is_nan_when_a_value_is_nan():
    # the same max over the faces: a NaN face or a NaN grid value beside
    # finite ones makes the trace's sup NaN
    grid = np.ones(9)
    nan_grid = grid.copy()
    nan_grid[4] = math.nan
    for values, faces in ((grid, {"axis0:inf": math.nan}),
                          (nan_grid, {"axis0:inf": 2.0}),
                          (grid, {"axis0:-inf": np.array(0.5),
                                  "axis0:+inf": np.array(math.nan)})):
        assert math.isnan(compactfix.GammaFunction(values, faces).sup())
    assert compactfix.GammaFunction(grid, {"axis0:inf": 2.0}).sup() == 2.0


def test_weighted_norm_axioms_seeded():
    xs = np.linspace(0.0, 8.0, 33)
    rng = np.random.default_rng(20240816)

    def norm(samples):
        return weighted_norm(WeightedGridFunction((xs,), samples, phi))

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
    g = gamma(f)
    assert np.allclose(g.values, 1.0)
    assert g.infinity["axis0:inf"] == pytest.approx(1.0, abs=1e-12)
    assert g.sup() == pytest.approx(1.0, abs=1e-12)


def test_gamma_p_is_linear():
    xs = np.linspace(0.0, 8.0, 17)
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = rng.normal(size=xs.size)
        b = rng.normal(size=xs.size)
        fa, fb = rng.normal(), rng.normal()

        def mk(samples, face):
            return WeightedGridFunction(
                (xs,), samples, phi, infinity={"axis0:inf": {(0,): face}})

        ga = gamma(mk(a, fa))
        gb = gamma(mk(b, fb))
        gc = gamma(mk(2.0 * a + 3.0 * b, 2.0 * fa + 3.0 * fb))
        scale = max(1.0, np.abs(gc.values).max())
        assert np.allclose(gc.values, 2.0 * ga.values + 3.0 * gb.values,
                           atol=1e-10 * scale)
        assert gc.infinity["axis0:inf"] == pytest.approx(
            2.0 * ga.infinity["axis0:inf"] + 3.0 * gb.infinity["axis0:inf"],
            abs=1e-12)


def test_gamma_p_sup_bounded_by_weighted_norm():
    xs = np.linspace(0.0, 8.0, 33)
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = rng.normal(size=xs.size)
        faces = {"axis0:inf": {(0,): rng.normal()}}
        f = WeightedGridFunction((xs,), a, phi, infinity=faces)
        assert gamma(f).sup() <= weighted_norm(f) + 1e-12


def test_gamma_zero_separates_grid_functions():
    xs = np.linspace(0.0, 8.0, 33)
    rng = np.random.default_rng(13)
    face = {"axis0:inf": {(0,): 0.0}}
    for _ in range(200):
        a = rng.normal(size=xs.size)
        b = rng.normal(size=xs.size)
        ga = gamma(WeightedGridFunction((xs,), a, phi, infinity=face))
        gb = gamma(WeightedGridFunction((xs,), b, phi, infinity=face))
        gap = np.abs(ga.values - gb.values).max()
        assert gap > 0.0
        # the trace map cannot shrink differences below the sample gap
        assert gap >= np.abs(a - b).max() - 1e-9


def test_gamma_p_raises_when_grid_limit_is_missing():
    f = WeightedGridFunction((XS,), np.sin(XS))
    with pytest.raises(FaceLimitError) as err:
        gamma(f)
    assert err.value.face == "axis0:inf"
    assert err.value.result.status == "no_limit"


def test_face_limit_needs_nodes_in_some_window():
    xs = np.linspace(0.0, 0.9, 10)
    f = WeightedGridFunction((xs,), np.zeros_like(xs))
    with pytest.raises(ValueError, match="window"):
        f.face_limit("axis0:inf")


def test_attach_faces_stores_a_scalar_on_a_1d_grid(monkeypatch):
    # the face value of a 1-d grid is a scalar under the key (0,); gamma
    # reads it back instead of its own ladder, which does not converge at
    # a FACE_TOL of 1e-300, and weighted_norm takes it into the sup
    xs = np.linspace(0.0, 40.0, 801)
    f = WeightedGridFunction((xs,), np.exp(-xs) - 1.0)
    (res,) = attach_faces(f)["axis0:inf"]
    assert res.converged
    assert list(f.infinity) == ["axis0:inf"]
    assert list(f.infinity["axis0:inf"]) == [(0,)]
    stored = f.infinity["axis0:inf"][(0,)]
    assert np.ndim(stored) == 0 and stored == res.value
    monkeypatch.setattr(funcspace, "FACE_TOL", 1e-300)
    with pytest.raises(FaceLimitError):
        gamma(f.image(f.samples))
    assert gamma(f).infinity == {"axis0:inf": stored}
    assert weighted_norm(f) == abs(stored) == 1.0


def _metric_ball(f, face, delta):
    """Reference window: the nodes of the face's axis whose image under
    x/(1 + |x|) lies within delta of the face's infinity point, "-inf" at
    -1 and "inf" and "+inf" at 1, in the metric of the axis's map: the
    circle's min(|a - b|, 2 - |a - b|) for the one-point line, which glues
    -1 to 1, and |a - b| otherwise."""
    axis = _face_axis(face)
    fac = f.cmap.factors[axis]
    x = f.axes[axis]
    d = np.abs(x / (1.0 + np.abs(x)) - (-1.0 if face.endswith("-inf")
                                        else 1.0))
    if isinstance(fac, LineOnePoint):
        d = np.minimum(d, 2.0 - d)
    return d < delta


def _windows(f, face):
    """Reference: the boolean window mask of each level of a face ladder,
    down to the last window of at least 2 nodes."""
    masks = []
    for k in range(1, 61):
        mask = _metric_ball(f, face, 2.0 ** -k)
        if mask.sum() < 2:
            break
        masks.append(mask)
    return masks


def _per_node_ladder(f, vals, face, coord_index, tol):
    """Reference: one face ladder, a boolean window mask per level, and
    the value at the node of largest tail radius: the node farthest out,
    the last in axis order on the glued line's ties."""
    axis = _face_axis(face)
    x = f.axes[axis]
    radius = (np.abs(x) if isinstance(f.cmap.factors[axis], LineOnePoint)
              else -x if face.endswith("-inf") else x)
    far = np.flatnonzero(radius == radius.max())[-1]
    col = vals if f.ndim == 1 else (vals[:, coord_index] if axis == 0
                                    else vals[coord_index, :])
    oscillations = []
    for mask in _windows(f, face):
        window = col[mask]
        oscillations.append(float(window.max() - window.min()))
    value = float(col[far])
    if not oscillations:
        raise ValueError(f"truncated grid has no nodes in any window of face "
                         f"{face!r}")
    status = classify_ladder(oscillations, tol)
    return LimitResult(status, value if status == "converged" else None,
                       tuple(oscillations))


def _per_node_profile(f, vals, face, tol):
    nodes = f.axes[1 - _face_axis(face)]
    return [(float(node), _per_node_ladder(f, vals, face, j, tol))
            for j, node in enumerate(nodes)]


def _face_profile(f, face):
    """face_limit's results on a face of a 2-d grid, paired with the nodes
    of the other axis."""
    return list(zip(f.axes[1 - _face_axis(face)].tolist(),
                    f.face_limit(face)))


def test_one_pass_face_profile_equals_the_per_node_ladders(rng):
    # the solve's grid at h = 0.02: a limit c(y) plus a tail whose decay
    # and oscillation vary across y, so the columns end converged, no_limit
    # and inconclusive
    xs = np.linspace(0.0, 24.0, 1201)
    ys = np.linspace(0.0, 1.0, 51)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    q = (np.cos(Y) + rng.uniform(-1e-3, 1e-3, X.shape) * np.exp(-X * Y)
         + 0.1 * (1.0 - Y) * np.sin(3.0 * X)
         * np.where(Y < 0.3, 1.0, 1.0 / (1.0 + X)))
    f = WeightedGridFunction((xs, ys), q)
    got = _face_profile(f, "axis0:inf")
    assert got == _per_node_profile(f, q, "axis0:inf", FACE_TOL)
    assert {res.status for _, res in got} == {"converged", "no_limit",
                                              "inconclusive"}
    # a face along the second axis reads the rows
    g = WeightedGridFunction((ys, xs), q.T, cmap=ProductCompactification(
        (IntervalIdentity(), HalfLineOnePoint())))
    assert _face_profile(g, "axis1:inf") \
        == _per_node_profile(g, q.T, "axis1:inf", FACE_TOL)
    # each slice reads as the 1-d grid of that slice does, bit for bit
    slices = [WeightedGridFunction((xs,), col).face_limit("axis0:inf")
              for col in q.T]
    for h, face in ((f, "axis0:inf"), (g, "axis1:inf")):
        assert [[res] for res in h.face_limit(face)] == slices
    # a NaN column fails its own ladders only; NaN != NaN, so it is
    # compared through repr, which prints every float exactly
    q[1100, 7] = np.nan
    got = _face_profile(f, "axis0:inf")
    want = _per_node_profile(f, q, "axis0:inf", FACE_TOL)
    assert repr(got) == repr(want)
    assert got[:7] + got[8:] == want[:7] + want[8:]
    assert math.isnan(got[7][1].oscillation)
    assert got[7][1].status == "inconclusive"


def test_one_pass_ladder_on_a_line_reads_both_faces(rng):
    xs = np.linspace(-40.0, 30.0, 281)
    f = WeightedGridFunction((xs,), np.tanh(xs) + np.exp(-np.abs(xs)),
                             cmap=ProductCompactification((LineTwoPoint(),)))
    vals = f.quotient()
    for face in ("axis0:-inf", "axis0:+inf"):
        (got,) = f.face_limit(face)
        assert got == _per_node_ladder(f, vals, face, None, FACE_TOL)
        assert got.converged
    # the first window of "axis0:+inf" is every node with x > 1
    assert _windows(f, "axis0:+inf")[0].tolist() == (xs > 1.0).tolist()
    stored = gamma(f).infinity
    assert stored["axis0:-inf"] == _per_node_ladder(f, vals, "axis0:-inf",
                                                    None, FACE_TOL).value
    assert stored["axis0:+inf"] == got.value
    # sparse tails: levels 2-4 share one window on each side
    xs = np.array([-21.0, -20.0, -2.5, -2.0, 0.0, 2.0, 2.5, 20.0, 21.0])
    f = WeightedGridFunction((xs,), rng.uniform(-1.0, 1.0, xs.size),
                             cmap=ProductCompactification((LineTwoPoint(),)))
    for face in ("axis0:-inf", "axis0:+inf"):
        (got,) = f.face_limit(face)
        assert got == _per_node_ladder(f, f.samples, face, None, FACE_TOL)
        assert [int(m.sum()) for m in _windows(f, face)] == [4, 2, 2, 2]


def test_glued_infinity_ladder_reads_both_tails():
    # LineOnePoint glues -inf and +inf into one point, whose metric balls
    # hold both tails |x| > 1/delta - 1: arctan, which tends to -pi/2 and
    # +pi/2, has no limit there, as kappa_limit finds too
    cmap = LineOnePoint()
    xs = np.linspace(-40.0, 40.0, 801)
    f = WeightedGridFunction((xs,), np.arctan(xs),
                             cmap=ProductCompactification((cmap,)))
    with pytest.raises(FaceLimitError) as err:
        gamma(f)
    assert err.value.face == "axis0:inf"
    assert err.value.result.status == "no_limit"
    assert kappa_limit(np.arctan, cmap.infinity_points()[0], cmap,
                       tol=0.1).status == "no_limit"
    (got,) = f.face_limit("axis0:inf")
    assert got == _per_node_ladder(f, f.quotient(), "axis0:inf", None,
                                   FACE_TOL)
    assert _windows(f, "axis0:inf")[0].tolist() \
        == (np.abs(xs) > 1.0).tolist()
    g = WeightedGridFunction((xs,), np.exp(-xs ** 2), cmap=f.cmap)
    assert gamma(g).infinity == {"axis0:inf": 0.0}
    # a half strip whose unbounded axis is a glued line
    ys = np.linspace(0.0, 1.0, 5)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    h = WeightedGridFunction(
        (xs, ys), np.arctan(X) * Y + np.exp(-X ** 2),
        cmap=ProductCompactification((cmap, IntervalIdentity())))
    got = _face_profile(h, "axis0:inf")
    assert got == _per_node_profile(h, h.quotient(), "axis0:inf", FACE_TOL)
    assert [res.status for _, res in got] == ["converged"] + ["no_limit"] * 4


def test_product_with_a_two_point_line_has_both_faces(tmp_path):
    # one face per infinity point of each factor; tanh tends to -1 at -inf
    xs = np.linspace(-40.0, 40.0, 801)
    ys = np.linspace(0.0, 1.0, 5)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    f = WeightedGridFunction(
        (xs, ys), np.tanh(X) + 0.0 * Y,
        cmap=ProductCompactification((LineTwoPoint(), IntervalIdentity())))
    assert f.face_labels() == ["axis0:-inf", "axis0:+inf"]
    got = gamma(f).infinity
    assert set(got) == {"axis0:-inf", "axis0:+inf"}
    assert np.all(got["axis0:-inf"] == -1.0)
    assert np.all(got["axis0:+inf"] == 1.0)
    # the equiconvergence check reads both faces, five windows each
    f.infinity = {face: {(0, 0): v} for face, v in got.items()}
    devs = equiconvergence_deviation([f], _family_quotients([f]))
    assert [len(rows) for rows in devs.values()] == [5, 5]
    assert all(rows[-1][1] < 1e-12 for rows in devs.values())
    # the half strip keeps its one face
    assert WeightedGridFunction((xs - xs[0], ys), np.zeros_like(X)) \
        .face_labels() == ["axis0:inf"]
    # the file names the two-point line, so both faces reload; a bare map
    # is no product and is refused
    save_grid_function(f, tmp_path / "grid.csv")
    assert load_grid_function(tmp_path / "grid.csv").face_labels() \
        == ["axis0:-inf", "axis0:+inf"]
    with pytest.raises(ValueError, match="LineTwoPoint object .* is not a "
                                         "product"):
        WeightedGridFunction((xs, ys), np.tanh(X), cmap=LineTwoPoint())


def test_modulus_refuses_an_axis_not_longer_than_max_shift(monkeypatch):
    # tanh over a two-point line times an interval with 5 y-nodes: the y
    # axis is too short for the windows up to the widest shift, 64
    xs = np.linspace(-40.0, 40.0, 801)
    ys = np.linspace(0.0, 1.0, 5)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    f = WeightedGridFunction(
        (xs, ys), np.tanh(X) + 0.0 * Y,
        infinity={"axis0:-inf": {(0, 0): -np.ones(5)},
                  "axis0:+inf": {(0, 0): np.ones(5)}},
        cmap=ProductCompactification((LineTwoPoint(), IntervalIdentity())))
    with pytest.raises(ValueError, match="more than 64 nodes on every "
                                         "axis, its widest shift; axis 1 "
                                         "has 5"):
        precompactness_report([f])
    # nothing is read before the check
    monkeypatch.setattr(funcspace, "_MAX_SHIFT", 5)
    with pytest.raises(ValueError, match="more than 5 .* axis 1 has 5"):
        equicontinuity_modulus([f], {})
    monkeypatch.setattr(funcspace, "_MAX_SHIFT", 4)
    quotients = _family_quotients([f])
    assert [len(rows) for rows in equicontinuity_modulus(
        [f], quotients).values()] == [3, 3]


def test_face_profile_needs_nodes_in_some_window():
    xs = np.linspace(0.0, 1.0, 11)
    ys = np.linspace(0.0, 1.0, 3)
    f = WeightedGridFunction((xs, ys), np.zeros((11, 3)))
    with pytest.raises(ValueError, match="no nodes in any window of face "
                                         "'axis0:inf'"):
        f.face_limit("axis0:inf")
    with pytest.raises(ValueError, match="window"):
        _per_node_profile(f, f.samples, "axis0:inf", FACE_TOL)
    # the half strip's second axis is an interval: it has no face
    with pytest.raises(ValueError, match="no infinity face 'axis1:inf'"):
        f.face_limit("axis1:inf")


def test_precompactness_gaussian_family_counterexample():
    """Translates of one Gaussian: bounded, equicontinuous, not equiconvergent.

    Every member claims face value 0, but each window at infinity still
    contains later members at full height, so the deviation never drops.
    """
    rep = precompactness_report(gaussian_family(40))
    assert rep["bounded"]
    assert rep["bound"] == pytest.approx(1.0, abs=1e-9)
    assert rep["equicontinuous"]
    assert not rep["equiconvergent"]
    assert rep["worst_deviation"] > 0.5
    assert not (rep["bounded"] and rep["equicontinuous"]
                and rep["equiconvergent"])
    # the report is its JSON document: the moduli and deviations it reads
    # stay behind
    assert set(rep) == {"bounded", "bound", "equicontinuous",
                        "equiconvergent", "worst_deviation"}


def test_precompactness_finite_subfamily_passes():
    # with the window far beyond the last centre all three conditions hold
    for fam in (gaussian_family(10), gaussian_family(3)[:1]):
        rep = precompactness_report(fam)
        assert (rep["bounded"] and rep["equicontinuous"]
                and rep["equiconvergent"])


def test_precompactness_deviation_tracks_the_marching_front():
    for n in (5, 10):
        fam = gaussian_family(n, truncation=n + 2.0)
        rep = precompactness_report(fam)
        assert not rep["equiconvergent"]
        assert rep["worst_deviation"] > 0.5


def test_precompactness_scaled_convergent_family_passes():
    xs = np.arange(0.0, 24.0 + 1e-9, 0.01)
    fam = [WeightedGridFunction((xs,), c * np.exp(-xs ** 2),
                                infinity={"axis0:inf": {(0,): 0.0}})
           for c in (0.0, 0.5, -0.5, 1.0, -1.0)]
    rep = precompactness_report(fam)
    assert rep["bounded"] and rep["equicontinuous"] and rep["equiconvergent"]
    assert rep["worst_deviation"] < 1e-12


def test_equiconvergence_is_decided_per_face():
    # e^x tends to its stored 0 at -inf while 0.5 sin x keeps its swing at
    # +inf: a verdict pooled over the faces read equiconvergent, with a
    # worst deviation of 3.4e-14, the best window of the best face
    xs = np.linspace(-60.0, 60.0, 4801)
    f = WeightedGridFunction(
        (xs,), np.where(xs < 0.0, np.exp(xs), 0.5 * np.sin(xs)),
        cmap=ProductCompactification((LineTwoPoint(),)),
        infinity={"axis0:-inf": {(0,): 0.0}, "axis0:+inf": {(0,): 0.0}})
    devs = equiconvergence_deviation([f], _family_quotients([f]))
    assert devs["axis0:-inf"][-1][1] < 1e-12
    best = min(d for _, d in devs["axis0:+inf"])
    assert best > 0.49
    rep = precompactness_report([f])
    assert not rep["equiconvergent"]
    assert rep["worst_deviation"] == best


def test_equicontinuity_is_decided_per_axis():
    # sin(40x) e^-x swings by 1.55 between neighbouring x-nodes; the y
    # axis, along which nothing changes, passed it in a pooled verdict
    xs = np.linspace(0.0, 40.0, 801)
    ys = np.linspace(0.0, 1.0, 81)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    f = WeightedGridFunction((xs, ys), np.sin(40.0 * X) * np.exp(-X) + 0.0 * Y,
                             infinity={"axis0:inf": {(0, 0): np.zeros(81)}})
    modulus = equicontinuity_modulus([f], _family_quotients([f]))
    assert min(w for _, w in modulus[0]) > 1.5
    assert all(w == 0.0 for _, w in modulus[1])
    rep = precompactness_report([f])
    assert not rep["equicontinuous"]
    assert rep["equiconvergent"]


def test_precompactness_report_builds_the_derivative_stack_once(
        monkeypatch):
    calls = []
    build = compactfix.funcspace._family_quotients

    def counting(family):
        calls.append(len(family))
        return build(family)

    monkeypatch.setattr(compactfix.funcspace, "_family_quotients",
                        counting)
    fam = gaussian_family(10)
    precompactness_report(fam)
    assert calls == [len(fam)]


def _doubling_modulus(family, max_shift=64):
    """Reference: every delta recomputes all shifts up to its own, one
    list of (delta, omega) rows per axis."""
    f0 = family[0]
    v = np.stack(_family_quotients(family))
    out = {}
    for axis in range(f0.ndim):
        h = float(np.min(np.diff(f0.axes[axis])))
        out[axis] = []
        shift = 1
        while shift <= max_shift:
            delta = shift * h
            worst = 0.0
            for s in range(1, shift + 1):
                sl_hi = [slice(None)] * v.ndim
                sl_lo = [slice(None)] * v.ndim
                sl_hi[axis + 1] = slice(s, None)
                sl_lo[axis + 1] = slice(None, -s)
                d = np.abs(v[tuple(sl_hi)] - v[tuple(sl_lo)]).max()
                worst = max(worst, float(d))
            out[axis].append((delta, worst))
            shift *= 2
    return out


def test_equicontinuity_modulus_matches_the_doubling_loop(rng, monkeypatch):
    # a member of period 4 nodes differs most at shift 2, so the worst
    # difference must be carried past the shifts 3 and 4
    fam = gaussian_family(12, truncation=16.0, step=0.01)
    wave = 3.0 * np.sin(np.pi * np.arange(len(fam[0].axes[0])) / 2.0)
    f0 = fam[0]
    fam.append(WeightedGridFunction(f0.axes, wave, f0.weight, f0.cmap))
    modulus = equicontinuity_modulus(fam, _family_quotients(fam))
    assert modulus == _doubling_modulus(fam)
    assert [len(rows) for rows in modulus.values()] == [7]
    # a 2-d family under the Gaussian weight
    xs = np.linspace(0.0, 6.0, 61)
    ys = np.linspace(0.0, 1.0, 41)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    fam2 = [WeightedGridFunction(
        (xs, ys), a * np.exp(-(X - c) ** 2) * (1.0 + b * Y ** 2), phi)
        for a, b, c in rng.uniform(0.0, 3.0, (5, 3))]
    f0 = fam2[0]
    fam2.append(WeightedGridFunction(
        f0.axes, np.sin(np.pi * np.arange(61) / 2.0)[:, None]
        * np.exp(-X ** 2 / 2.0), f0.weight, f0.cmap))
    quotients = _family_quotients(fam2)
    for max_shift in (1, 12, 32):
        monkeypatch.setattr(funcspace, "_MAX_SHIFT", max_shift)
        got = equicontinuity_modulus(fam2, quotients)
        assert got == _doubling_modulus(fam2, max_shift)
    assert [len(rows) for rows in got.values()] == [6, 6]


VALUES = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data(), st.integers(1, 2), st.integers(1, 11))
def test_window_modulus_equals_the_doubling_loop(data, ndim, members):
    shape = tuple(data.draw(st.integers(2, 24), label=f"n{i}")
                  for i in range(ndim))
    axes = tuple(np.arange(n) * 0.25 for n in shape)
    fam = [WeightedGridFunction(
        axes, data.draw(hnp.arrays(float, shape, elements=VALUES)))
        for _ in range(members)]
    max_shift = data.draw(st.integers(1, min(shape) - 1), label="max_shift")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(funcspace, "_MAX_SHIFT", max_shift)
        got = equicontinuity_modulus(fam, _family_quotients(fam))
    assert got == _doubling_modulus(fam, max_shift)


@pytest.mark.parametrize("node", [400, -5])
def test_nan_sample_never_certifies(node):
    # a NaN once dropped out of the running max: every omega read 0.0, and
    # a NaN in the tail windows left the family equiconvergent
    fam = gaussian_family(12, truncation=16.0, step=0.01)
    bad = fam[3].samples.copy()
    bad[node] = math.nan
    g = fam[3]
    fam[3] = WeightedGridFunction(g.axes, bad, g.weight, g.cmap, g.infinity)
    quotients = _family_quotients(fam)
    assert all(math.isnan(w) for _, w in equicontinuity_modulus(
        fam, quotients)[0])
    rep = precompactness_report(fam)
    assert not rep["equicontinuous"]
    if node < 0:
        assert all(math.isnan(d)
                   for _, d in equiconvergence_deviation(
                       fam, quotients)["axis0:inf"])
        assert not rep["equiconvergent"]


@pytest.mark.parametrize("member", [3, 10])
def test_nan_member_makes_the_family_unbounded(member):
    # bound is np.max of the per-member maxima: Python's max() would keep
    # the 1.0 of the members before the NaN one
    fam = gaussian_family(12, truncation=16.0, step=0.01)
    bad = fam[member].samples.copy()
    bad[400] = math.nan
    g = fam[member]
    fam[member] = WeightedGridFunction(g.axes, bad, g.weight, g.cmap,
                                       g.infinity)
    rep = precompactness_report(fam)
    assert math.isnan(rep["bound"])
    assert not rep["bounded"]


def test_unit_weight_quotient_is_the_samples():
    # x / 1.0 == x bitwise, so weight 1 hands back samples undivided
    specials = [-0.0, 0.0, 5e-324, -5e-324, 2.0 ** -1074 * 3, math.nan,
                math.inf, -math.inf, 1.0 / 3.0, -1e308]
    samples = np.array(specials)
    want = samples.tobytes()
    f = WeightedGridFunction((np.arange(len(specials)) * 0.5,), samples)
    q = f.quotient()
    assert np.shares_memory(q, f.samples)
    assert q.tobytes() == want


def test_every_weight_is_the_exponential_of_its_log():
    # each weight is a function of x alone, called on x's nodes or on any
    # array of x values, such as a meshgrid's
    xs = np.linspace(-40.0, 40.0, 801)
    X, _ = np.meshgrid(xs, np.linspace(0.0, 1.0, 5), indexing="ij")
    assert set(LOG_WEIGHTS) == set(WEIGHT_REGISTRY)
    for name, (log_phi, dlog_phi) in LOG_WEIGHTS.items():
        w = WEIGHT_REGISTRY[name]
        assert np.array_equal(w(xs), np.exp(log_phi(xs)))
        assert np.array_equal(w(X), np.exp(log_phi(X)))
        h = 1e-5
        centred = (log_phi(xs + h) - log_phi(xs - h)) / (2.0 * h)
        assert np.allclose(dlog_phi(xs), centred, rtol=0.0, atol=1e-7), name
    # the values the registry held as closed forms
    assert np.array_equal(WEIGHT_REGISTRY["1"](X), np.ones(X.shape))
    assert np.array_equal(phi(xs), np.exp(-xs ** 2 / 2.0))


def test_precompactness_report_reads_the_family_in_place():
    import tracemalloc

    precompactness_report(gaussian_family(3))   # first-call imports
    fam = gaussian_family(40, 48.0, 0.005)
    family_bytes = sum(g.samples.nbytes for g in fam)
    tracemalloc.start()
    try:
        precompactness_report(fam)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a whole copy of the family (a stack, the samples divided by 1) breaks
    # the peak bound, and a kept one (a ones grid per member) the retained one
    assert peak <= family_bytes
    assert retained < 0.1e6


def test_demo_family_report_is_unchanged():
    # the translating Gaussians of ascoli-demo, read bitwise
    fam = gaussian_family(40, 48.0, 0.005)
    rep = precompactness_report(fam)
    assert rep["bound"] == 1.0 and rep["bounded"]
    quotients = _family_quotients(fam)
    assert tuple(equicontinuity_modulus(fam, quotients)[0]) == (
        (0.0049999999999954525, 0.0042888002386666235),
        (0.009999999999990905, 0.008577419246395102),
        (0.01999999999998181, 0.01715397821711695),
        (0.03999999999996362, 0.03430107500693713),
        (0.07999999999992724, 0.06854712348663305),
        (0.15999999999985448, 0.13665788174641813),
        (0.31999999999970896, 0.26985375722172156))
    assert tuple(equiconvergence_deviation(fam, quotients)["axis0:inf"]) == (
        (0.5, 1.0), (0.25, 1.0), (0.125, 1.0), (0.0625, 1.0), (0.03125, 1.0))
    assert rep["worst_deviation"] == 1.0


def _per_slice_deviation(f, face, stored):
    """Reference: for each window of the face's ladder, the worst gap
    between a slice of f's quotient along the face's axis and that
    slice's stored face value, one slice at a time, on a half line,
    whose tail radius is x itself."""
    axis = _face_axis(face)
    radii = f.axes[axis]
    q = np.moveaxis(f.quotient(), axis, 0)
    out = []
    for k in range(1, 61):
        window = radii > 2.0 ** k - 1.0
        if window.sum() < 2:
            break
        out.append((2.0 ** -k, max(
            float(np.abs(q[window, j] - stored[j]).max())
            for j in range(q.shape[1]))))
    return out


def test_half_strip_profile_is_equiconvergent():
    # q = y + e^-x tends to its stored face y on every slice; a window
    # that also spans |y - y_j| < delta reads the profile's own spread
    # (0.837 down to 0.025) and calls the family not equiconvergent
    xs = np.linspace(0.0, 40.0, 801)
    ys = np.linspace(0.0, 1.0, 81)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    f = WeightedGridFunction((xs, ys), Y + np.exp(-X),
                             infinity={"axis0:inf": {(0, 0): ys}})
    devs = equiconvergence_deviation([f], _family_quotients([f]))
    assert devs == {"axis0:inf": _per_slice_deviation(f, "axis0:inf", ys)}
    assert devs["axis0:inf"][-1][1] < 1e-12
    assert precompactness_report([f])["equiconvergent"]


def test_equiconvergence_reads_the_ladder_windows():
    # one row per level of the face's ladder, at the ladder's deltas
    xs = np.linspace(0.0, 40.0, 801)
    ys = np.linspace(0.0, 1.0, 5)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    f1 = WeightedGridFunction((xs,), np.exp(-xs),
                              infinity={"axis0:inf": {(0,): 0.0}})
    f2 = WeightedGridFunction((xs, ys), Y * np.exp(-X),
                              infinity={"axis0:inf": {(0, 0): 0.0 * ys}})
    for f, res in ((f1, f1.face_limit("axis0:inf")[0]),
                   (f2, f2.face_limit("axis0:inf")[0])):
        (devs,) = equiconvergence_deviation(
            [f, f], _family_quotients([f, f])).values()
        assert [d for d, _ in devs] \
            == [2.0 ** -(k + 1) for k in range(len(res.oscillations))]


def test_equiconvergence_needs_a_window_on_every_face():
    # no node lies beyond x = 1, so the face has no window: the ladder's
    # ValueError, not a family that reads "not equiconvergent"
    xs = np.linspace(0.0, 0.9, 10)
    fam = [WeightedGridFunction((xs,), np.zeros_like(xs),
                                infinity={"axis0:inf": {(0,): 0.0}})]
    with pytest.raises(ValueError, match="no nodes in any window of face "
                                         "'axis0:inf'"):
        equiconvergence_deviation(fam, _family_quotients(fam))


def test_equiconvergence_requires_stored_faces():
    xs = np.arange(0.0, 24.0 + 1e-9, 0.5)
    fam = [WeightedGridFunction((xs,), np.exp(-xs ** 2))]
    with pytest.raises(FaceLimitError) as err:
        equiconvergence_deviation(fam, _family_quotients(fam))
    assert err.value.face == "axis0:inf"


def test_family_members_must_share_grid_and_order():
    xs = np.linspace(0.0, 8.0, 17)
    ys = np.linspace(0.0, 8.0, 33)
    fa = WeightedGridFunction((xs,), np.zeros_like(xs))
    fb = WeightedGridFunction((ys,), np.zeros_like(ys))
    with pytest.raises(ValueError, match="grid"):
        precompactness_report([fa, fb])
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
    infinity = {"axis0:inf": {(0, 0): np.linspace(0.0, 1.0, 5)}}
    f = WeightedGridFunction((xs, ys), samples, phi, infinity=infinity,
                             weight_desc="exp(-x^2/2)")
    path = tmp_path / "grid.csv"
    save_grid_function(f, path)
    g = load_grid_function(path)
    assert g.weight_desc == "exp(-x^2/2)"
    for a, b in zip(f.axes, g.axes):
        assert np.array_equal(a, b)
    assert g.quotient().tobytes() == f.quotient().tobytes()
    assert np.array_equal(g.samples, g.weight_values() * f.quotient())
    assert set(g.infinity) == {"axis0:inf"}
    assert np.array_equal(g.infinity["axis0:inf"][(0, 0)],
                          np.linspace(0.0, 1.0, 5))
    assert weighted_norm(g) == weighted_norm(f)


def test_load_rejects_unknown_weight(tmp_path):
    f = wgf(phi(XS))
    path = tmp_path / "grid.csv"
    save_grid_function(f, path)
    sidecar = tmp_path / "grid.csv.json"
    side = json.loads(sidecar.read_text())
    side["weight"] = "cosh(x)"
    sidecar.write_text(json.dumps(side))
    with pytest.raises(ValueError, match="unknown weight"):
        load_grid_function(path)


@pytest.mark.parametrize("name", sorted(NAMED_MAPS) + ["product"])
def test_save_load_save_keeps_the_cmap(tmp_path, name):
    # each named map alone on a 1-d grid and as factor 0 of a 2-d grid: the
    # sidecar names every factor, and the map reloads with its own faces
    # and ladders (a one-point line times an interval once reloaded as a
    # half line, whose face reads the arctan inconclusive, not no_limit);
    # "product" is the default half strip and a product with faces on
    # both axes
    xs = np.linspace(-40.0 if name.startswith("line") else 0.0, 40.0, 161)
    ys = np.linspace(0.0, 1.0, 3)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    if name == "product":
        ws = np.linspace(-40.0, 40.0, 81)
        Xw, W = np.meshgrid(xs, ws, indexing="ij")
        cases = (((xs, ys), None, np.arctan(X) * (1.0 + Y)),
                 ((xs, ws), (HalfLineOnePoint(), LineTwoPoint()),
                  np.arctan(Xw) * (2.0 + np.arctan(W))))
    else:
        cases = (((xs,), (NAMED_MAPS[name](),), np.arctan(xs)),
                 ((xs, ys), (NAMED_MAPS[name](), IntervalIdentity()),
                  np.arctan(X) * (1.0 + Y)))
    for axes, factors, samples in cases:
        f = WeightedGridFunction(
            axes, samples,
            cmap=factors and ProductCompactification(factors))
        factors = f.cmap.factors
        save_grid_function(f, tmp_path / "a.csv")
        side = json.loads((tmp_path / "a.csv.json").read_text())
        assert side["cmap"] == [fac.name for fac in factors]
        g = load_grid_function(tmp_path / "a.csv")
        save_grid_function(g, tmp_path / "b.csv")
        assert (tmp_path / "a.csv.json").read_bytes() \
            == (tmp_path / "b.csv.json").read_bytes()
        assert list(map(type, g.cmap.factors)) == list(map(type, factors))
        assert g.face_labels() == f.face_labels()

        def statuses(h):
            return [[res.status for res in h.face_limit(face)]
                    for face in h.face_labels()]

        assert statuses(g) == statuses(f)
        # the faces that reload are the faces gamma certifies
        zero = g.image(np.zeros_like(g.samples))
        assert set(gamma(zero).infinity) == set(f.face_labels())
    if name == "line-onepoint":
        assert [res.status for res in g.face_limit(
            "axis0:inf")] == ["no_limit"] * 3
    if name == "product":
        assert len(g.face_labels()) == 3


def test_load_refuses_an_unknown_cmap(tmp_path):
    path = tmp_path / "grid.csv"
    save_grid_function(wgf(phi(XS)), path)
    sidecar = tmp_path / "grid.csv.json"
    side = json.loads(sidecar.read_text())
    for name in ("ball", "halfstrip"):
        side["cmap"] = [name]
        sidecar.write_text(json.dumps(side))
        with pytest.raises(ValueError,
                           match=f"unknown compactification '{name}'"):
            load_grid_function(path)


def test_load_refuses_a_cmap_that_is_not_one_name_per_axis(tmp_path):
    # an older sidecar's single name, "product" included, which always
    # reloaded as a half line times intervals; a list of another length;
    # a name that is no map; each message names the value
    xs, ys = np.linspace(0.0, 4.0, 9), np.linspace(0.0, 1.0, 3)
    path = tmp_path / "grid.csv"
    save_grid_function(WeightedGridFunction((xs, ys), np.zeros((9, 3))), path)
    sidecar = tmp_path / "grid.csv.json"
    side = json.loads(sidecar.read_text())
    assert side["cmap"] == ["halfline-onepoint", "interval"]
    for cmap, match in (
            ("product", "sidecar cmap 'product' is not a list of 2 map "
                        "names, one per axis"),
            ("halfline-onepoint", "cmap 'halfline-onepoint' is not a list"),
            (["line-onepoint"], r"cmap \['line-onepoint'\] is not a list of "
                                "2 map names"),
            (["interval"] * 3, r"cmap \['interval', 'interval', 'interval'\] "
                               "is not a list of 2"),
            (["line-onepoint", "circle"], "unknown compactification 'circle'"),
            (["interval", 1], "unknown compactification 1")):
        side["cmap"] = cmap
        sidecar.write_text(json.dumps(side))
        with pytest.raises(ValueError, match=match):
            load_grid_function(path)


def test_constructor_and_load_refuse_a_face_the_map_lacks(tmp_path):
    # face values are kept under the map's own labels only: weighted_norm
    # takes its sup over every stored value, so a value at a face that
    # does not exist (a 1-d half line's face is "axis0:inf", not "inf")
    # would be counted
    faces = r"whose faces are \['axis0:inf'\]"
    with pytest.raises(ValueError, match=f"infinity face 'inf' is not a "
                                         f"face of the map, {faces}"):
        wgf(phi(XS), infinity={"inf": {(0,): 7.0}})
    strip = (XS, np.linspace(0.0, 1.0, 3))
    with pytest.raises(ValueError, match=r"'axis1:inf' is not a face of the "
                                         r"map, whose faces are "
                                         r"\['axis0:inf'\]"):
        WeightedGridFunction(strip, np.zeros((49, 3)),
                             infinity={"axis1:inf": {(0, 0): np.zeros(49)}})
    path = tmp_path / "grid.csv"
    save_grid_function(wgf(phi(XS), infinity={"axis0:inf": {(0,): 0.0}}),
                       path)
    assert weighted_norm(load_grid_function(path)) == 1.0
    sidecar = tmp_path / "grid.csv.json"
    side = json.loads(sidecar.read_text())
    side["infinity"] = {"inf": 7.0}
    sidecar.write_text(json.dumps(side))
    with pytest.raises(ValueError, match=f"infinity face 'inf' is not a "
                                         f"face of the map, {faces}"):
        load_grid_function(path)


_HALF_STRIP = (HalfLineOnePoint(), IntervalIdentity())


class _Strip(HalfLineOnePoint):
    """A map that no sidecar name rebuilds."""

    name = "strip"


def test_constructor_refuses_a_cmap_without_names(tmp_path):
    # a map is a product of NAMED_MAPS, one per axis; a product of two
    # intervals, which a sidecar once could not name, now round trips
    xs = np.linspace(0.0, 1.0, 5)
    axes = (xs, np.linspace(0.0, 1.0, 3))
    for axes_, cmap, match in (
            ((xs,), ProductCompactification((_Strip(),)),
             r"ProductCompactification\(factors=\(<.*_Strip object .*>,\)\) "
             "is not"),
            ((xs,), HalfLineOnePoint(), "HalfLineOnePoint object .* is not "
                                        "a product of one named map per "
                                        "axis"),
            (axes, ProductCompactification((HalfLineOnePoint(),)),
             "for 2 axes"),
            ((xs,), ProductCompactification(_HALF_STRIP), "for 1 axes")):
        with pytest.raises(ValueError, match=match):
            WeightedGridFunction(axes_, np.zeros(tuple(map(len, axes_))),
                                 cmap=cmap)
    boxed = ProductCompactification((IntervalIdentity(),) * 2)
    save_grid_function(WeightedGridFunction(axes, np.zeros((5, 3)),
                                            cmap=boxed), tmp_path / "box.csv")
    g = load_grid_function(tmp_path / "box.csv")
    assert list(map(type, g.cmap.factors)) == [IntervalIdentity] * 2
    assert g.face_labels() == []


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


def test_weight_and_its_description_must_agree():
    with pytest.raises(ValueError, match="does not name"):
        WeightedGridFunction((XS,), phi(XS), phi, weight_desc="1")
    with pytest.raises(ValueError, match="does not name"):
        WeightedGridFunction((XS,), phi(XS), weight_desc="exp(-x^2/2)")
    with pytest.raises(ValueError, match="unknown weight"):
        WeightedGridFunction((XS,), phi(XS), phi, weight_desc="cosh(x)")
    # a weight outside the registry has no name to save, so it is refused,
    # even when it computes the registry's values
    with pytest.raises(ValueError, match="is not a WEIGHT_REGISTRY entry"):
        WeightedGridFunction((XS,), phi(XS), lambda x: np.exp(-x ** 2 / 2.0))


def _per_cell_csv_writer(f, csv_path):
    """Reference writer: csv.writer with one f-string per value of u/phi."""
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["u/phi"])
        for v in f.quotient().ravel():
            w.writerow([f"{v:.17g}"])


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
    # weight 1 writes the samples as they are; exp(-x^2/2) keeps the
    # given quotient
    for f in (WeightedGridFunction(axes, samples),
              WeightedGridFunction.from_quotient(axes, samples, phi)):
        save_grid_function(f, tmp_path / "fast.csv")
        _per_cell_csv_writer(f, tmp_path / "slow.csv")
        assert (tmp_path / "fast.csv").read_bytes() \
            == (tmp_path / "slow.csv").read_bytes()
        g = load_grid_function(tmp_path / "fast.csv")
        assert g.quotient().tobytes() == f.quotient().tobytes()
        assert g.samples.tobytes() == f.samples.tobytes()
        for a, b in zip(f.axes, g.axes):
            assert a.tobytes() == b.tobytes()


def test_save_matches_per_cell_writer_across_chunks(tmp_path):
    # more than two chunks, the last one partial, with zeros and values
    # that take "%" one at a time in different chunks and on both sides
    # of a chunk boundary
    chunk = _CSV_CHUNK
    shape = (3, (2 * chunk + 125) // 3)
    assert 2 * chunk < math.prod(shape) < 3 * chunk
    rng = np.random.default_rng(40)
    axes = tuple(np.cumsum(rng.uniform(0.1, 1.0, n)) for n in shape)
    q = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 18, shape)
    fallbacks = {5: math.nan, chunk - 1: math.inf, chunk: -math.inf,
                 chunk + 7: 5e-324, 2 * chunk - 1: -2.0 ** -1060,
                 2 * chunk: 1e-7, q.size - 1: 1e300, 17: -0.0, chunk + 1: 0.0}
    for i, v in fallbacks.items():
        q.flat[i] = v
    f = WeightedGridFunction.from_quotient(axes, q, phi)
    save_grid_function(f, tmp_path / "fast.csv")
    _per_cell_csv_writer(f, tmp_path / "slow.csv")
    assert (tmp_path / "fast.csv").read_bytes() \
        == (tmp_path / "slow.csv").read_bytes()
    g = load_grid_function(tmp_path / "fast.csv")
    assert g.quotient().tobytes() == q.tobytes()


def _percent_17g(values):
    return b"".join(b"%.17g\r\n" % v for v in values.tolist())


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.integers(0, 64),
                  elements=st.floats(width=64)
                  | st.floats(-1e18, 1e18, width=64)))
def test_format_17g_is_percent_17g(values):
    assert _format_17g(values) == _percent_17g(values)


def _seeded_17g_cases():
    """The values where a 17-digit formatter goes wrong first."""
    cases = [-np.float64(np.nan), np.nan, np.inf, -np.inf, 0.0, -0.0,
             5e-324, -5e-324, 2.2250738585072009e-308, 2.0 ** -1030]
    for e in range(-7, 18):
        v = float(10.0 ** e)
        cases += [v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)]
    # the double nearest 1e-6 lies below 10^-6
    cases.append(1e-6)
    # exact ties of 17 digits: odd / 2^(k+1) times 10^k is odd 5^k / 2,
    # half an odd integer, which lies in [10^16, 10^17) for the smallest
    # odd >= 2 10^16 / 5^k; it is a double for k >= 1, and the next odd
    # rounds the other way
    tied = set()
    for k in range(23):
        odd = -(-2 * 10 ** 16 // 5 ** k) | 1
        if odd < 2 ** 53:
            tied.add(k)
            cases += [odd / 2.0 ** (k + 1), (odd + 2) / 2.0 ** (k + 1)]
    assert tied == set(range(1, 23))
    values = np.array(cases, dtype=float)
    return np.concatenate([values, -values])


def test_format_17g_seeded_cases():
    values = _seeded_17g_cases()
    assert _format_17g(values) == _percent_17g(values)
    lines = _format_17g(values).split(b"\r\n")
    assert lines[values.tolist().index(1e-6)] == b"9.9999999999999995e-07"
    assert _format_17g(np.array([-0.0, 0.0])) == b"-0\r\n0\r\n"
    assert _format_17g(np.array([])) == b""


def test_writer_memory_does_not_grow_with_the_grid(tmp_path):
    # the chunk's arrays are the writer's memory: a 16-chunk grid peaks
    # within a few KB of a 1-chunk one (both with the same sidecar axis)
    rng = np.random.default_rng(41)

    def peak(rows):
        axes = (np.arange(rows) + 1.0, np.arange(_CSV_CHUNK) + 1.0)
        q = rng.uniform(-1, 1, (rows, _CSV_CHUNK)) * 10.0 ** rng.uniform(
            -5, 3, (rows, _CSV_CHUNK))
        f = WeightedGridFunction.from_quotient(axes, q, phi)
        save_grid_function(f, tmp_path / "warm.csv")
        tracemalloc.start()
        try:
            save_grid_function(f, tmp_path / "grid.csv")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, sixteen = peak(1), peak(16)
    assert abs(sixteen - one) < 4 * 1024, (one, sixteen)


def test_from_quotient_keeps_q_where_the_weight_underflows(tmp_path):
    xs = np.linspace(0.0, 40.0, 41)
    q = 1.0 + xs
    f = WeightedGridFunction.from_quotient((xs,), q, phi)
    assert f.samples.tobytes() == (phi(xs) * q).tobytes()
    assert np.array_equal(f.quotient(), q) and f.samples[-1] == 0.0
    assert weighted_norm(f) == 41.0
    # a copy with new samples keeps no quotient and divides again
    with pytest.raises(WeightUnderflowError, match="x = 39"):
        WeightedGridFunction(f.axes, f.samples, f.weight,
                             f.cmap).quotient()
    save_grid_function(f, tmp_path / "q.csv")
    assert np.array_equal(load_grid_function(tmp_path / "q.csv").quotient(),
                          q)


@pytest.mark.parametrize("shape", [(7,), (7, 5), (7, 3, 4)])
def test_phi_is_a_column_and_samples_are_phi_q(shape):
    rng = np.random.default_rng(len(shape))
    axes = tuple(np.linspace(0.0, 30.0, n) for n in shape)
    q = rng.standard_normal(shape)
    f = WeightedGridFunction.from_quotient(axes, q, phi)
    column = f.weight_values()
    assert column.shape == (shape[0],) + (1,) * (len(shape) - 1)
    assert column.ravel().tobytes() == phi(axes[0]).tobytes()
    # the product formed at each read is the one on the full grid, bit for
    # bit, and q is the array given, not a copy
    full = phi(np.meshgrid(*axes, indexing="ij")[0])
    assert f.samples.tobytes() == (full * q).tobytes()
    assert f.quotient() is q
    # an image, of u or of q, shares the column
    for image in (f.image(q), f.image(q, quotient=True)):
        assert image.weight_values() is column
    assert f.image(q).quotient().tobytes() == (q / full).tobytes()


@pytest.mark.parametrize("build, weight, axes", [
    # the solve's grid at h = 0.01 and truncation 24, which stores q
    (WeightedGridFunction.from_quotient, phi,
     (np.linspace(0.0, 24.0, 2401), np.linspace(0.0, 1.0, 101))),
    # a member of ascoli-demo's family: weight 1 on a 1-d grid, where phi's
    # column has as many entries as the samples
    (WeightedGridFunction, None, (np.arange(0.0, 48.0025, 0.005),))])
def test_a_grid_function_allocates_no_grid(build, weight, axes):
    import tracemalloc

    values = np.ones(tuple(len(a) for a in axes))
    build(axes, values, weight)   # first-call imports
    tracemalloc.start()
    try:
        f = build(axes, values, weight)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a phi grid, a meshgrid, an eager phi q or a 1-d column of ones would
    # each be a whole grid; the check of the axes' order takes np.diff of
    # each axis, which on a 1-d grid is as long as the samples
    axis_check = sum(2 * a.nbytes for a in axes)
    assert peak < 0.1 * values.nbytes + axis_check
    assert retained < 0.1 * values.nbytes
    assert f.quotient() is values


def test_sidecar_holds_four_keys_and_one_value_per_face(tmp_path):
    # a 1-d and a 2-d grid reload bitwise, q and faces; the sidecar holds
    # axes, cmap, infinity and weight, and each face one number or list
    xs, ys = np.linspace(0.0, 24.0, 49), np.linspace(0.0, 1.0, 5)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    path = tmp_path / "grid.csv"
    sidecar = tmp_path / "grid.csv.json"
    for f, face in ((WeightedGridFunction.from_quotient(
                        (xs,), 1.0 / 3.0 + np.exp(-xs), phi,
                        infinity={"axis0:inf": {(0,): 1.0 / 3.0}}),
                     1.0 / 3.0),
                    (WeightedGridFunction.from_quotient(
                        (xs, ys), np.sin(Y) + np.exp(-X), phi,
                        infinity={"axis0:inf": {(0, 0): np.sin(ys)}}),
                     np.sin(ys).tolist())):
        save_grid_function(f, path)
        side = json.loads(sidecar.read_text())
        assert sorted(side) == ["axes", "cmap", "infinity", "weight"]
        assert side["infinity"] == {"axis0:inf": face}
        g = load_grid_function(path)
        assert g.quotient().tobytes() == f.quotient().tobytes()
        key = (0,) * f.ndim
        assert list(g.infinity) == ["axis0:inf"]
        assert list(g.infinity["axis0:inf"]) == [key]
        assert np.asarray(g.infinity["axis0:inf"][key]).tobytes() \
            == np.asarray(f.infinity["axis0:inf"][key]).tobytes()
    # the former format: an "order" key and faces keyed by multi-index
    for old, match in ((dict(side, order=0), r"has keys \['axes', 'cmap', "
                        r"'infinity', 'order', 'weight'\]"),
                       (dict(side, infinity={"axis0:inf": {
                           "0,0": np.sin(ys).tolist()}}),
                        "infinity face 'axis0:inf' holds a dict, not a "
                        "number or a list"),
                       (dict(side, infinity={"axis0:inf": True}),
                        "holds a bool"),
                       (dict(side, infinity={"axis0:inf": ["a"]}),
                        "could not convert string to float"),
                       (dict(side, infinity=[1.0]),
                        r"infinity \[1\.0\] is not an object")):
        sidecar.write_text(json.dumps(old))
        with pytest.raises(ValueError, match=rf"grid\.csv: .*{match}"):
            load_grid_function(path)


def test_face_values_of_another_shape_are_refused(tmp_path):
    ys = np.linspace(0.0, 1.0, 5)
    strip = (XS, ys)
    u = np.outer(phi(XS), np.ones(5))
    for p, v in (((0, 0), np.full(3, 7.0)), ((0, 0), 7.0), ((0,), np.zeros(5)),
                 ((0, 0, 0), np.zeros(5))):
        with pytest.raises(ValueError, match="'axis0:inf' holds"):
            WeightedGridFunction(strip, u, phi,
                                 infinity={"axis0:inf": {p: v}})
    with pytest.raises(ValueError, match=r"holds \{\(0,\): \(2,\)\}, keys "
                                         r"and their values' shapes; it "
                                         r"takes \{\(0,\): \(\)\}"):
        wgf(phi(XS), infinity={"axis0:inf": {(0,): np.zeros(2)}})
    # a face value saved with the wrong number of entries is refused on
    # load, where it would have set the norm to 7
    path = tmp_path / "strip.csv"
    save_grid_function(WeightedGridFunction(
        strip, u, phi, infinity={"axis0:inf": {(0, 0): np.ones(5)}}), path)
    sidecar = tmp_path / "strip.csv.json"
    side = json.loads(sidecar.read_text())
    side["infinity"] = {"axis0:inf": [7.0, 7.0, 7.0]}
    sidecar.write_text(json.dumps(side))
    with pytest.raises(ValueError,
                       match=r"strip\.csv: .* holds \{\(0, 0\): \(3,\)\}"):
        load_grid_function(path)


def test_load_refuses_a_sidecar_without_a_weight(tmp_path):
    # a null weight loaded as weight "1", so samples[-1] read the saved q
    # (3.0) where phi q is 1.1e-5; a missing key raised a bare KeyError
    path = tmp_path / "grid.csv"
    save_grid_function(WeightedGridFunction.from_quotient(
        (XS[:11],), np.full(11, 3.0), phi), path)
    sidecar = tmp_path / "grid.csv.json"
    side = json.loads(sidecar.read_text())
    sidecar.write_text(json.dumps(dict(side, weight=None)))
    with pytest.raises(ValueError, match=r"grid\.csv: unknown weight None"):
        load_grid_function(path)
    for key in ("weight", "axes", "cmap", "infinity"):
        rest = sorted(k for k in side if k != key)
        sidecar.write_text(json.dumps({k: side[k] for k in rest}))
        with pytest.raises(ValueError, match=re.escape(
                f"grid.csv: the sidecar has keys {rest}; it takes exactly "
                "axes, cmap, infinity and weight")):
            load_grid_function(path)


def test_save_refuses_a_u_whose_weight_is_zero(tmp_path):
    xs = np.linspace(0.0, 40.0, 41)
    f = WeightedGridFunction((xs,), phi(xs), phi)
    path = tmp_path / "grid.csv"
    with pytest.raises(WeightUnderflowError, match="x = 39"):
        save_grid_function(f, path)
    assert not path.exists()
    assert not (tmp_path / "grid.csv.json").exists()


def test_load_refuses_another_header(tmp_path):
    f = wgf(phi(XS))
    path = tmp_path / "grid.csv"
    save_grid_function(f, path)
    # the former format: coordinate columns and a value column of u
    path.write_text("x,value\r\n" + "".join(
        f"{x:.17g},{v:.17g}\r\n" for x, v in zip(XS, f.samples)))
    with pytest.raises(ValueError, match="header 'x,value' is not 'u/phi'"):
        load_grid_function(path)
    path.write_text("")
    with pytest.raises(ValueError, match="header '' is not 'u/phi'"):
        load_grid_function(path)


def test_load_refuses_a_value_count_off_the_axes(tmp_path):
    # and, naming the file, a value that is no number and sidecar axes
    # that are not lists of numbers, which raised TypeError or a
    # ValueError without the path
    f = wgf(phi(XS))
    path = tmp_path / "grid.csv"
    save_grid_function(f, path)
    lines = path.read_text().splitlines()
    for body in (lines[:-1], lines + ["1"]):
        path.write_text("\r\n".join(body) + "\r\n")
        with pytest.raises(ValueError,
                           match=f"{len(body) - 1} values for the 49 nodes"):
            load_grid_function(path)
    path.write_text("\r\n".join(lines[:5] + ["abc"] + lines[6:]) + "\r\n")
    with pytest.raises(ValueError, match=r"grid\.csv: .*'abc'"):
        load_grid_function(path)
    save_grid_function(f, path)
    sidecar = tmp_path / "grid.csv.json"
    side = json.loads(sidecar.read_text())
    for axes in (5, None, [3.0], "abc", [], [["0", "1"]], [[True, 1.0]],
                 [[[0.0], [1.0]]]):
        sidecar.write_text(json.dumps(dict(side, axes=axes)))
        with pytest.raises(ValueError, match="grid.csv: sidecar axes is "
                                             "not a list of lists of numbers"):
            load_grid_function(path)


def test_cli_import_skips_spline_and_quadrature_modules(package_env):
    code = ("import sys, compactfix.cli; print(sorted(m for m in sys.modules"
            " if m.startswith(('scipy.interpolate', 'scipy.integrate'))))")
    out = subprocess.run([sys.executable, "-c", code], env=package_env,
                         check=True, capture_output=True, text=True).stdout
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
    # one cone, one index condition: the index-zero branch and the
    # multiplicity chains are gone
    for name in ("ConeSpec", "ChainError", "PlanResult", "cone_membership",
                 "f_inf_rho", "index_zero_check", "multiplicity_plan"):
        assert name not in compactfix.__all__
        assert not hasattr(compactfix, name)
    for name in ("ConeSpec", "ChainError", "PlanResult", "cone_membership",
                 "f_inf_rho", "index_zero_check", "multiplicity_plan",
                 "gamma_zero", "_sep_ok", "_v_ladder_values",
                 "_unit_strip_integral", "itertools",
                 # the ball check reads the attached closed form
                 "_QUAD_TOL", "kernel_abs_integral"):
        assert not hasattr(compactfix.cones, name), name
    # a report is the document it writes: no record class carries it
    for mod, name in [(compactfix.greenop, "ConditionResult"),
                      (compactfix.greenop, "HypothesisReport"),
                      (compactfix.cones, "IndexCheck"),
                      (compactfix.cones, "ConeReport"),
                      (compactfix.funcspace, "PrecompactnessReport")]:
        assert name not in compactfix.__all__
        assert not hasattr(compactfix, name)
        assert not hasattr(mod, name), name
    # only tests read the full B-spline matrix; the package reads the rows
    assert not hasattr(compactfix.greenop, "_bspline_basis")
    # records carry only the fields the program reads
    assert not hasattr(compactfix.compactify, "LevelEvidence")
    assert [f.name for f in dataclasses.fields(compactfix.LimitResult)] \
        == ["status", "value", "oscillations"]
    # a kernel is its logarithm, its weight and two optional closed forms;
    # every weighted form is a method
    assert [f.name for f in dataclasses.fields(compactfix.Kernel)] == [
        "name", "log_kx", "dlog_kx", "weight_desc", "abs_integral",
        "weighted_sup"]
    for cls, attrs in [(compactfix.NamedProblem, ("spec",)),
                       (compactfix.GammaFunction, ("p", "embedded_axes"))]:
        fields = {f.name for f in dataclasses.fields(cls)}
        for attr in attrs:
            assert attr not in fields, (cls.__name__, attr)
    # a demo returns its summary dict; no wrapper carries it
    assert "PipelineBundle" not in compactfix.__all__
    assert not hasattr(compactfix.casestudy, "PipelineBundle")
    # every problem has a kernel, which carries its weight, and a
    # nonlinearity, and all of them the half strip's map, which a sidecar
    # names by its factors: a product has no name of its own
    for f in dataclasses.fields(compactfix.NamedProblem):
        if f.name in ("kernel", "nl"):
            assert f.default is dataclasses.MISSING, f.name
    assert "weight_desc" not in {
        f.name for f in dataclasses.fields(compactfix.NamedProblem)}
    assert "cmap" not in {
        f.name for f in dataclasses.fields(compactfix.NamedProblem)}
    assert not hasattr(compactfix.NamedProblem.cmap, "name")
    for name in ("face_labels", "_named_cmap"):
        assert not hasattr(compactfix.funcspace, name), name
    # the weighted space is order 0: no class order, no multi-indices, no
    # finite-difference quotient derivatives, and one trace map
    for name in ("multi_indices", "quotient_derivative", "gamma_p"):
        assert name not in compactfix.__all__
        assert not hasattr(compactfix, name)
    for name in ("multi_indices", "quotient_derivative", "gamma_p", "_p_key",
                 "_p_unkey", "_family_quotient_derivatives"):
        assert not hasattr(compactfix.funcspace, name), name
    # an operator image reads its faces at their first read, so apply_T
    # has no knob that skips them
    assert "faces" not in inspect.signature(compactfix.apply_T).parameters
    assert not hasattr(WeightedGridFunction((XS,), phi(XS)), "order")
    for fn in (WeightedGridFunction, WeightedGridFunction.from_quotient):
        assert "order" not in inspect.signature(fn).parameters
    assert "p" not in inspect.signature(
        WeightedGridFunction.face_limit).parameters
    assert [type(fac) for fac in compactfix.NamedProblem.cmap.factors] \
        == [HalfLineOnePoint, IntervalIdentity]
    # a map is its infinity labels and its ball rule: no point records, no
    # embedding, no constructor-given name; a dominator is a pair
    for name in ("XPoint", "Dominator"):
        assert name not in compactfix.__all__
        assert not hasattr(compactfix, name)
    assert not hasattr(compactfix.compactify, "XPoint")
    assert not hasattr(compactfix.greenop, "Dominator")
    for cls in (compactfix.compactify.CompactMap, HalfLineOnePoint,
                LineTwoPoint, LineOnePoint, IntervalIdentity,
                ProductCompactification):
        for attr in ("forward", "distance"):
            assert not hasattr(cls, attr), (cls.__name__, attr)
    assert [f.name for f in dataclasses.fields(ProductCompactification)] \
        == ["factors"]
    # the grid operator works in the quotient only, and every kernel
    # carries its own weighted quotient
    case = compactfix.load_problem("hyperbolic-erf")
    op = compactfix.GridHammersteinOperator(
        case.kernel, case.nl,
        (np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 3)))
    for attr in ("quotient", "from_u", "to_u", "gap"):
        assert not hasattr(op, attr), attr
    assert not hasattr(compactfix.greenop, "_quotient_fn")
    for cls, attr in [(compactfix.Kernel, "eval"),
                      (compactfix.Kernel, "support"),
                      (WeightedGridFunction, "check_infinity_faces")]:
        assert not hasattr(cls, attr), (cls.__name__, attr)
    for cls, attr in [(compactfix.Nonlinearity, "monotone_in_u"),
                      (compactfix.NamedProblem, "domain"),
                      (compactfix.NamedProblem, "weight1d"),
                      # face values come from the window ladder only
                      (compactfix.Kernel, "z_form"),
                      (compactfix.SolveConfig, "quad_tol"),
                      # settings with one value in use are constants
                      (compactfix.Kernel, "ky"),
                      # the solve stays in q: the residual reads dlog_qx
                      # on the grid operator's blocks
                      (compactfix.Kernel, "dkx"),
                      (compactfix.Kernel, "dqx"),
                      (compactfix.SolveConfig, "face_tol"),
                      (compactfix.NamedProblem, "default_config"),
                      (compactfix.NamedProblem, "payload")]:
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
            (compactfix.cones.abs_integral_beta_factor, ("spec", "tol")),
            (compactfix.index_one_check, ("spec", "tol")),
            (compactfix.index_one_sweep, ("spec", "tol")),
            (compactfix.run_full_pipeline, ("cfg",)),
            (compactfix.kappa_limit, ("samples_per_level", "radius_cap",
                                      "seed", "levels")),
            (compactfix.extend, ("kwargs",)),
            (compactfix.precompactness_report, ("eps_ladder",)),
            # every band is trimmed
            (compactfix.greenop.kernel_row_blocks,
             ("trim", "start", "stop"))]:
        params = inspect.signature(fn).parameters
        for name in names:
            assert name not in params, (fn.__name__, name)
    # the residual is the q-equation's, so it always needs the kernel, and
    # it reads the grid operator's blocks: it never builds a band of its own
    params = inspect.signature(compactfix.pde_residual).parameters
    for name in ("kernel", "blocks"):
        assert params[name].default is inspect.Parameter.empty, name
