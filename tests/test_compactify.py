import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compactfix.compactify import (BallCompactification, ExtensionError,
                                   HalfLineOnePoint, IntervalIdentity,
                                   LevelEvidence, LineOnePoint, LineTwoPoint,
                                   ProductCompactification, XPoint,
                                   ball_inverse, ball_map, classify_ladder,
                                   default_levels, extend, halfline_metric,
                                   kappa_limit)
from compactfix.funcspace import BumpChain

HALF = st.one_of(st.just(math.inf),
                 st.floats(min_value=0.0, max_value=1e9,
                           allow_nan=False, allow_infinity=False))


# ---------------------------------------------------------------------------
# ball map


def test_ball_map_fixed_point_at_origin():
    assert np.allclose(ball_map([0.0, 0.0]), [0.0, 0.0])


def test_ball_map_three_four():
    # |x| = 5, so the image is x/6
    assert np.allclose(ball_map([3.0, 4.0]), [0.5, 2.0 / 3.0])


def test_ball_map_approaches_boundary_monotonically():
    target = np.array([1.0, 0.0])
    dists = [np.linalg.norm(ball_map([t, 0.0]) - target)
             for t in (10.0, 100.0, 1000.0)]
    assert dists == sorted(dists, reverse=True)
    assert dists[-1] < 1e-3
    for t in (10.0, 100.0, 1000.0):
        assert np.linalg.norm(ball_map([t, 0.0])) < 1.0


def test_ball_inverse_examples():
    assert np.allclose(ball_inverse([0.0, 0.0]), [0.0, 0.0])
    assert np.allclose(ball_inverse([0.5, 2.0 / 3.0]), [3.0, 4.0])


def test_ball_inverse_rejects_boundary():
    with pytest.raises(ValueError):
        ball_inverse([1.0, 0.0])
    with pytest.raises(ValueError):
        ball_inverse([0.8, 0.8])


def test_ball_inverse_round_trip_inside_ball(rng):
    worst = 0.0
    for _ in range(300):
        y = rng.standard_normal(3)
        y *= rng.uniform(0.0, 0.9) / np.linalg.norm(y)
        worst = max(worst, float(np.linalg.norm(ball_map(ball_inverse(y))
                                                - y)))
    assert worst < 1e-12


def test_ball_round_trip_relative_error(rng):
    """x -> ball -> inverse round trip.

    The backward division by 1 - |y| amplifies |y|'s rounding by (1 + |x|),
    so the tight 1e-12 bound holds up to |x| ~ 1e3 and degrades gracefully
    (still below 1e-9 relative) out to 1e6.
    """
    for bound, tol in ((1e3, 1e-12), (1e6, 1e-9)):
        worst = 0.0
        for _ in range(300):
            x = rng.standard_normal(2)
            x *= 10.0 ** rng.uniform(-2, math.log10(bound)) \
                / np.linalg.norm(x)
            err = np.linalg.norm(ball_inverse(ball_map(x)) - x)
            worst = max(worst, float(err / np.linalg.norm(x)))
        assert worst < tol


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


@settings(max_examples=250, derandomize=True)
@given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))
def test_circle_metric_axioms(a, b, c):
    m = LineOnePoint().metric
    pa, pb, pc = ((a,),), ((b,),), ((c,),)
    pa, pb, pc = (XPoint((a,)), XPoint((b,)), XPoint((c,)))
    dab = m(pa, pb)
    assert 0.0 <= dab <= 1.0 + 1e-15
    assert dab == m(pb, pa)
    assert m(pa, pa) == 0.0
    assert m(pa, pc) <= dab + m(pb, pc) + 1e-12


@settings(max_examples=250, derandomize=True)
@given(*(st.floats(0, 1e6, allow_nan=False) for _ in range(3)),
       *(st.floats(0, 1, allow_nan=False) for _ in range(3)))
def test_product_metric_axioms(x1, x2, x3, y1, y2, y3):
    cmap = ProductCompactification((HalfLineOnePoint(),
                                    IntervalIdentity(0.0, 1.0)))
    pa = cmap.forward_point([x1, y1])
    pb = cmap.forward_point([x2, y2])
    pc = cmap.forward_point([x3, y3])
    dab = cmap.metric(pa, pb)
    assert dab >= 0.0
    assert dab == cmap.metric(pb, pa)
    assert cmap.metric(pa, pa) == 0.0
    assert cmap.metric(pa, pc) <= dab + cmap.metric(pb, pc) + 1e-12


def test_two_point_metric_separates_signs():
    cmap = LineTwoPoint()
    minus, plus = cmap.infinity_points()
    assert cmap.metric(minus, plus) == 2.0
    assert cmap.metric(cmap.forward_point(50.0), plus) < 0.02


# ---------------------------------------------------------------------------
# ladder classification


def _ev(*oscs):
    return [LevelEvidence(2.0 ** -(k + 1), o, 5, 0.0)
            for k, o in enumerate(oscs)]


def test_classify_ladder_converged():
    assert classify_ladder(_ev(1.0, 0.1, 1e-8), tol=1e-6) == "converged"


def test_classify_ladder_no_limit():
    assert classify_ladder(_ev(2.0, 2.0, 1.9), tol=1e-6) == "no_limit"


def test_classify_ladder_inconclusive_on_descent():
    # still falling fast; neither certified nor refuted
    assert classify_ladder(_ev(1.0, 0.2, 0.01), tol=1e-6) == "inconclusive"


def test_classify_ladder_needs_samples():
    with pytest.raises(ValueError):
        classify_ladder([LevelEvidence(0.5, 1.0, 0, 0.0)], tol=1e-6)


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
    cmap = HalfLineOnePoint()
    with pytest.raises(ValueError):
        kappa_limit(np.exp, cmap.forward_point(1.0), cmap)


def test_kappa_limit_stable_under_level_halving():
    cmap = LineTwoPoint()
    plus = cmap.infinity_points()[1]
    tol = 1e-6
    base = kappa_limit(np.arctan, plus, cmap, tol=tol)
    halved = kappa_limit(np.arctan, plus, cmap, tol=tol,
                         levels=[lv / 2 for lv in default_levels(tol)])
    assert base.converged and halved.converged
    assert abs(base.value - halved.value) <= tol


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


def _loop_kappa_limit(f, point, cmap, tol=1e-6, extra_samples=None):
    """Reference: the ladder with one metric call per sample point."""
    rng = np.random.default_rng(0)
    evidence = []
    for delta in default_levels(tol):
        pts = cmap.sample_ball(point, delta, 8, rng, 1.0e8)
        if extra_samples is not None:
            ex = np.atleast_1d(np.asarray(extra_samples(delta), dtype=float))
            keep = [p for p in ex
                    if cmap.metric(cmap.forward_point(p), point) < delta]
            pts = np.concatenate([np.asarray(pts, dtype=float).ravel(),
                                  np.asarray(keep, dtype=float)]) \
                if keep else np.asarray(pts, dtype=float)
        if len(pts) == 0:
            continue
        vals = np.asarray(f(pts), dtype=float)
        dist = np.array([cmap.metric(cmap.forward_point(p), point)
                         for p in pts])
        evidence.append(LevelEvidence(delta, float(vals.max() - vals.min()),
                                      len(pts), float(vals[np.argmin(dist)])))
    return tuple(evidence)


def _face_sum(p):
    p = np.asarray(p, dtype=float)
    return np.exp(-p[:, 0]) + p[:, 1]


def test_kappa_limit_evidence_matches_the_per_point_loop():
    chain = BumpChain()
    half, two, one = HalfLineOnePoint(), LineTwoPoint(), LineOnePoint()
    ball = BallCompactification(1)
    prod = ProductCompactification((HalfLineOnePoint(),
                                    IntervalIdentity(0.0, 1.0)))
    cases = [(chain.derivative, half, half.infinity_points()[0],
              chain.witness_points),
             (chain.value, half, half.infinity_points()[0],
              chain.witness_points),
             (np.arctan, one, one.infinity_points()[0],
              lambda delta: [-3.0 / delta, 0.5, 2.0 / delta])]
    cases += [(np.arctan, two, p, None) for p in two.infinity_points()]
    cases += [(np.tanh, ball, p, None) for p in ball.infinity_points()]
    cases += [(_face_sum, prod, prod.face_point(0, (y,)), None)
              for y in (0.0, 0.5, 1.0)]
    for f, cmap, point, extra in cases:
        got = kappa_limit(f, point, cmap, tol=1e-6, extra_samples=extra)
        assert got.evidence == _loop_kappa_limit(f, point, cmap, 1e-6,
                                                 extra)


def test_finite_point_balls_match_the_per_point_filter():
    cmap = LineOnePoint()
    for x in (-40.0, -1.0, 0.0, 0.3, 7.0, 900.0):
        point = cmap.forward_point(x)
        x0 = float(cmap.inverse(point.embedded[0]))
        for delta in (0.5, 0.01, 1e-5):
            got = cmap.sample_ball(point, delta, 64,
                                   np.random.default_rng(5), 1.0e8)
            rng = np.random.default_rng(5)
            pts = x0 + (rng.random(64) - 0.5) * 2 * delta * (1 + abs(x0)) ** 2
            keep = np.array([cmap.metric((e,), point) < delta
                             for e in cmap.forward(pts)])
            assert np.array_equal(got, pts[keep])


# ---------------------------------------------------------------------------
# extension


def test_extend_arctan_two_point():
    cmap = LineTwoPoint()
    ext = extend(np.arctan, cmap, tol=1e-6)
    assert abs(ext.limits["+inf"] - math.pi / 2) < 1e-6
    assert abs(ext.limits["-inf"] + math.pi / 2) < 1e-6
    plus = cmap.infinity_points()[1]
    assert ext.value(plus) == ext.limits["+inf"]


def test_extend_matches_f_at_finite_points():
    cmap = LineTwoPoint()
    ext = extend(np.arctan, cmap, tol=1e-6)
    for x in (-3.0, 0.0, 1.7, 42.0):
        p = cmap.forward_point(x)
        # same evaluation path: bit-identical, not merely close
        expected = np.arctan(cmap.inverse(np.asarray(p.embedded)))
        assert ext.value(p) == float(np.asarray(expected).ravel()[0])


def test_extend_arctan_one_point_fails():
    with pytest.raises(ExtensionError) as err:
        extend(np.arctan, LineOnePoint(), tol=1e-6)
    assert "inf" in err.value.failures
    assert err.value.failures["inf"].status == "no_limit"


def test_extend_decaying_exponential_on_half_line():
    ext = extend(lambda x: np.exp(-np.asarray(x, dtype=float)),
                 HalfLineOnePoint(), tol=1e-6)
    assert abs(ext.limits["inf"]) < 1e-6


def test_ball_compactification_one_dimensional_limits():
    cmap = BallCompactification(1)
    minus, plus = cmap.infinity_points()
    res = kappa_limit(lambda x: np.tanh(np.asarray(x, dtype=float)),
                      plus, cmap, tol=1e-6)
    assert res.converged and abs(res.value - 1.0) < 1e-6
    res = kappa_limit(lambda x: np.tanh(np.asarray(x, dtype=float)),
                      minus, cmap, tol=1e-6)
    assert res.converged and abs(res.value + 1.0) < 1e-6


def test_product_face_point_labels_finite_coordinate():
    cmap = ProductCompactification((HalfLineOnePoint(),
                                    IntervalIdentity(0.0, 1.0)))
    pt = cmap.face_point(0, (0.25,))
    assert pt.at_infinity
    assert pt.infinite_axes == (0,)
    assert pt.embedded[1] == 0.25


def test_product_limit_along_a_face():
    cmap = ProductCompactification((HalfLineOnePoint(),
                                    IntervalIdentity(0.0, 1.0)))
    pt = cmap.face_point(0, (0.5,))

    def f(p):
        p = np.asarray(p, dtype=float)
        return np.exp(-p[:, 0]) + p[:, 1]

    res = kappa_limit(f, pt, cmap, tol=1e-4)
    assert res.converged
    assert abs(res.value - 0.5) < 1e-3
