import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compactfix.compactify import (ExtensionError, HalfLineOnePoint,
                                   LineOnePoint, LineTwoPoint,
                                   ProductCompactification, classify_ladder,
                                   default_levels, extend, halfline_metric,
                                   kappa_limit)
from compactfix.funcspace import BumpChain, WeightedGridFunction, gamma
from compactfix.solver import asymptotic_profile

HALF = st.one_of(st.just(math.inf),
                 st.floats(min_value=0.0, max_value=1e9,
                           allow_nan=False, allow_infinity=False))


def _distance(cmap, point, x):
    """The metric distance of domain points x to an infinity point, which
    the maps' ball rule stands for: x/(1 + |x|) embeds the domain in
    [-1, 1] with "-inf" at -1 and "inf" and "+inf" at 1, and the one-point
    line glues -1 to 1, so its metric is the circle's
    min(|a - b|, 2 - |a - b|)."""
    x = np.asarray(x, dtype=float)
    d = np.abs(x / (1.0 + np.abs(x)) - (-1.0 if point == "-inf" else 1.0))
    return np.minimum(d, 2.0 - d) if isinstance(cmap, LineOnePoint) else d


# ---------------------------------------------------------------------------
# metrics


def test_halfline_metric_endpoints():
    assert halfline_metric(0.0, math.inf) == 1.0
    assert halfline_metric(1.0, math.inf) == 0.5
    assert halfline_metric(3.0, 3.0) == 0.0


@settings(max_examples=350, derandomize=True)
@given(HALF, HALF, HALF)
def test_halfline_metric_axioms(a, b, c):
    dab = halfline_metric(a, b)
    assert dab >= 0.0
    assert dab == halfline_metric(b, a)
    if a == b:
        assert dab == 0.0
    assert halfline_metric(a, c) <= dab + halfline_metric(b, c) + 1e-12


def test_ball_radius_is_the_metric_ball():
    # r > 1/delta - 1 holds exactly where the metric distance is below
    # delta, away from the ball's boundary, where rounding decides
    tail = np.geomspace(1e-3, 1e9, 481)
    for cmap in (HalfLineOnePoint(), LineTwoPoint(), LineOnePoint()):
        for point in cmap.infinity_points():
            for k in range(1, 21):
                delta = 2.0 ** -k
                edge = 1.0 / delta - 1.0
                x = np.concatenate([tail, edge * np.array(
                    [1.0 - 1e-8, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.0 + 1e-8])])
                if not isinstance(cmap, HalfLineOnePoint):
                    x = np.concatenate([-x, [0.0], x])
                r = cmap.ball_radius(point, x)
                far = np.abs(r - edge) > 1e-9 * edge
                assert far.sum() >= len(x) - 6
                assert ((r > edge) == (_distance(cmap, point, x) < delta))[
                    far].all(), (cmap.name, point, k)


# ---------------------------------------------------------------------------
# ladder classification


def test_classify_ladder_converged():
    assert classify_ladder((1.0, 0.1, 1e-8), tol=1e-6) == "converged"


def test_classify_ladder_no_limit():
    assert classify_ladder((2.0, 2.0, 1.9), tol=1e-6) == "no_limit"


def test_classify_ladder_inconclusive_on_descent():
    # still falling fast; neither certified nor refuted
    assert classify_ladder((1.0, 0.2, 0.01), tol=1e-6) == "inconclusive"


def test_default_levels_deepen_with_tol():
    lv6 = default_levels(1e-6)
    lv9 = default_levels(1e-9)
    assert lv6[0] == 0.5
    assert len(lv9) > len(lv6)
    assert min(lv9) < 2.0 ** -30
    assert all(a > b for a, b in zip(lv9, lv9[1:]))


# ---------------------------------------------------------------------------
# kappa limits


def test_arctan_two_point_limits():
    cmap = LineTwoPoint()
    minus, plus = cmap.infinity_points()
    res = kappa_limit(np.arctan, plus, cmap, tol=1e-6)
    assert res.converged
    assert abs(res.value - math.pi / 2) < 1e-6
    res = kappa_limit(np.arctan, minus, cmap, tol=1e-6)
    assert res.converged
    assert abs(res.value + math.pi / 2) < 1e-6


def test_arctan_one_point_has_no_limit():
    cmap = LineOnePoint()
    res = kappa_limit(np.arctan, cmap.infinity_points()[0], cmap, tol=1e-6)
    assert res.status == "no_limit"
    # the persistent oscillation is the full swing between the two tails
    assert res.oscillation > 2.0


def test_constant_function_converges_to_constant():
    cmap = HalfLineOnePoint()
    res = kappa_limit(lambda x: np.full_like(np.asarray(x, dtype=float), 4.25),
                      cmap.infinity_points()[0], cmap, tol=1e-8)
    assert res.converged
    assert res.value == 4.25


def test_kappa_limit_rejects_finite_points():
    # a point is one of the map's infinity labels; the half line has no
    # "+inf"
    cmap = HalfLineOnePoint()
    with pytest.raises(ValueError, match="'\\+inf' is not an infinity"):
        kappa_limit(np.exp, "+inf", cmap)


def test_kappa_limit_extra_samples_are_filtered_to_the_ball():
    """Witness points outside the metric ball must be ignored."""
    cmap = HalfLineOnePoint()
    inf_pt = cmap.infinity_points()[0]
    seen = []

    def probe(x):
        x = np.asarray(x, dtype=float)
        seen.append(x.min())
        return np.zeros_like(x)

    res = kappa_limit(probe, inf_pt, cmap, tol=1e-6,
                      extra_samples=lambda delta: [0.5])
    assert res.converged and res.value == 0.0
    # 0.5 maps to embedded 1/3, far from every shrinking ball at 1
    assert min(seen) > 0.5


@pytest.mark.parametrize("fill", [math.inf, -math.inf, math.nan])
def test_kappa_limit_levels_with_non_finite_samples_never_certify(fill):
    # the weighted quotient of a kernel column that grows without bound
    # overflows far out; such levels read as an infinite oscillation,
    # without a numpy warning, and never certify a limit
    cmap = HalfLineOnePoint()
    inf_pt = cmap.infinity_points()[0]
    res = kappa_limit(lambda x: np.where(np.asarray(x) > 100.0, fill, 1.0),
                      inf_pt, cmap)
    assert not res.converged and res.value is None
    # every ball of radius below 1/101 about infinity lies beyond x = 100
    far = [osc for k, osc in enumerate(res.oscillations)
           if 2.0 ** -(k + 1) < 1.0 / 101.0]
    assert far and all(osc == math.inf for osc in far)


def _samples(f, point, cmap, tol=1e-6, extra_samples=None):
    """kappa_limit's result and the points it called f on, one array per
    call."""
    seen = []

    def recorded(x):
        seen.append(np.array(x, dtype=float))
        return f(x)

    res = kappa_limit(recorded, point, cmap, tol, extra_samples)
    return res, seen


def _loop_kappa_limit(f, point, cmap, tol=1e-6, extra_samples=None):
    """Reference: the ladder on kappa_limit's one sample set, a ball per
    level, as (oscillations, value).  Ball delta holds every sample of
    tail radius above 1/delta - 1, the ball rule (which
    test_ball_radius_is_the_metric_ball checks against the metric: the
    geometric samples lie within 1e-9 of their ball's edge, where the
    metric's rounding decides).  The balls stop before the first with
    fewer than 2 samples; the value is f at the sample of largest radius,
    the last one on ties."""
    _, (pts,) = _samples(f, point, cmap, tol, extra_samples)
    vals = np.asarray(f(pts), dtype=float)
    radius = cmap.ball_radius(point, pts)
    oscillations = []
    for delta in default_levels(tol):
        ball = vals[[r > 1.0 / delta - 1.0 for r in radius]]
        if len(ball) < 2:
            break
        oscillations.append(float(ball.max() - ball.min()))
    far = np.flatnonzero(radius == radius.max())[-1]
    return tuple(oscillations), float(vals[far])


def test_kappa_limit_evidence_matches_the_per_point_loop():
    chain = BumpChain()
    half, two, one = HalfLineOnePoint(), LineTwoPoint(), LineOnePoint()
    cases = [(chain.derivative, half, half.infinity_points()[0],
              chain.witness_points),
             (chain.value, half, half.infinity_points()[0],
              chain.witness_points),
             (np.arctan, one, one.infinity_points()[0],
              lambda delta: [-3.0 / delta, 0.5, 2.0 / delta])]
    cases += [(np.arctan, two, p, None) for p in two.infinity_points()]
    for f, cmap, point, extra in cases:
        got = kappa_limit(f, point, cmap, tol=1e-6, extra_samples=extra)
        oscillations, value = _loop_kappa_limit(f, point, cmap, 1e-6, extra)
        assert got.oscillations == oscillations
        assert got.value == (value if got.converged else None)


def test_kappa_limit_calls_f_once():
    chain = BumpChain()
    cmap = HalfLineOnePoint()
    for extra in (None, chain.witness_points):
        res, seen = _samples(chain.value, "inf", cmap, 1e-6, extra)
        assert res.converged and len(seen) == 1
    # the witness points join the one call
    assert len(seen[0]) > len(_samples(chain.value, "inf", cmap)[1][0])


def test_kappa_limit_is_the_grid_ladder_on_its_own_samples():
    # one ball rule, one reduction and one value rule: on kappa_limit's
    # samples, used as the nodes of a 1-d grid, the grid face ladder reads
    # the same balls and then deeper ones, up to RADIUS_CAP
    chain = BumpChain()
    half, two, one = HalfLineOnePoint(), LineTwoPoint(), LineOnePoint()
    cases = [(np.arctan, two, "-inf", None), (np.arctan, two, "+inf", None),
             (lambda x: 1.0 / (1.0 + np.abs(x)), one, "inf", None),
             (chain.value, half, "inf", chain.witness_points)]
    for f, cmap, point, extra in cases:
        got, (pts,) = _samples(f, point, cmap, 1e-6, extra)
        xs = np.unique(pts)
        (grid,) = WeightedGridFunction(
            (xs,), f(xs), cmap=ProductCompactification((cmap,))).face_limit(
            f"axis0:{point}", tol=1e-6)
        depth = len(got.oscillations)
        assert len(grid.oscillations) > depth
        assert grid.oscillations[:depth] == got.oscillations
        assert got.converged and grid.converged
        assert grid.value == got.value


# ---------------------------------------------------------------------------
# extension


def test_extend_arctan_two_point():
    cmap = LineTwoPoint()
    ext = extend(np.arctan, cmap, tol=1e-6)
    assert abs(ext["+inf"] - math.pi / 2) < 1e-6
    assert abs(ext["-inf"] + math.pi / 2) < 1e-6


def test_extend_arctan_one_point_fails():
    with pytest.raises(ExtensionError) as err:
        extend(np.arctan, LineOnePoint(), tol=1e-6)
    assert "inf" in err.value.failures
    assert err.value.failures["inf"].status == "no_limit"


def test_extend_decaying_exponential_on_half_line():
    ext = extend(lambda x: np.exp(-np.asarray(x, dtype=float)),
                 HalfLineOnePoint(), tol=1e-6)
    assert abs(ext["inf"]) < 1e-6


def _half_strip():
    """exp(-x) + y on a grid of [0, 40] x [0, 1], on the default half-strip
    compactification (a half line times an interval)."""
    xs = np.linspace(0.0, 40.0, 4001)
    ys = np.linspace(0.0, 1.0, 5)
    x, y = np.meshgrid(xs, ys, indexing="ij")
    return WeightedGridFunction((xs, ys), np.exp(-x) + y)


def test_product_face_point_labels_finite_coordinate():
    g = _half_strip()
    prof = asymptotic_profile(g)
    assert [node for node, _ in prof] == g.axes[1].tolist()
    assert all(res.converged for _, res in prof)
    # the profile is stored on the face it reads
    assert list(g.infinity) == ["axis0:inf"]
    assert g.infinity["axis0:inf"][(0, 0)].tolist() \
        == [res.value for _, res in prof]


def test_product_limit_along_a_face():
    # the limit along the face x = inf is y at every node
    g = _half_strip()
    faces = gamma(g, tol=1e-4).infinity
    assert list(faces) == ["axis0:inf"]
    assert np.allclose(faces["axis0:inf"], g.axes[1], atol=1e-3)
