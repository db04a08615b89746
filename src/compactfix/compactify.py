"""Metric compactifications of unbounded domains and limits along them.

A compactification of a 1-d domain is its tails table: the label of each
infinity point ("inf", or "-inf" and "+inf") with the signs of the domain
tails that the point's balls hold.  One ball rule follows: a domain point of
tail radius r (CompactMap.ball_radius) about an infinity point lies in the
point's metric ball of radius delta iff r > 1/delta - 1, because the
embedding x/(1 + |x|) puts it at distance 1/(1 + r) from the point.  A
grid's domain is a product of such maps, one per axis.  Limits at infinity
points are estimated by sampling the domain inside shrinking metric balls
and watching the oscillation of the sampled values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# kappa_limit samples each ball at fixed geometric radii up to RADIUS_CAP,
# _SAMPLES_PER_LEVEL points per ball at least, so that its results are
# reproducible
RADIUS_CAP = 1.0e8
_SAMPLES_PER_LEVEL = 8


def halfline_metric(a, b):
    """Distance |h(a) - h(b)| on [0, inf] with h(x) = x/(1+x), h(inf) = 1."""
    return abs(_h_half(a) - _h_half(b))


def _h_half(x):
    if x == math.inf:
        return 1.0
    if x < 0:
        raise ValueError("half-line points must be >= 0")
    return x / (1.0 + x)


@dataclass(frozen=True)
class LimitResult:
    """Outcome of a sampled limit estimate at one infinity point.

    status is 'converged', 'no_limit' or 'inconclusive'.  oscillations[k]
    is the oscillation on the metric ball of radius 2^-(k+1), for every
    ball tested, and oscillation the last of them.  A converged result
    carries the value of its last ball: kappa_limit reads it at the ball's
    first sample of largest tail radius; the grid face ladders of
    funcspace._face_ladders read it at the deepest window's last node in
    axis order, which is the farthest node of a "+inf" window but the
    innermost (largest x) of a "-inf" one, and the farthest node of the
    +inf tail of LineOnePoint's two-tailed window.
    """

    status: str
    value: float | None
    oscillations: tuple

    @property
    def converged(self):
        return self.status == "converged"

    @property
    def oscillation(self):
        return self.oscillations[-1]


def default_levels(tol=1e-6):
    """Dyadic delta ladder 2^-1 ... 2^-K, deep enough to certify tol."""
    kmax = max(12, int(math.ceil(math.log2(1.0 / tol))) + 4)
    return [2.0 ** -k for k in range(1, kmax + 1)]


def classify_ladder(oscillations, tol):
    """Shared converged / no_limit / inconclusive rule for oscillation ladders.

    oscillations: one per tested ball, coarsest first, no ball empty.
    converged:  oscillation below tol on the smallest ball.
    no_limit:   oscillation at least tol on every ball and not substantially
                decreasing (finest > half of the coarsest), i.e. a genuine
                persistent oscillation rather than an unfinished descent.
    """
    if oscillations[-1] < tol:
        return "converged"
    if (min(oscillations) >= tol and len(oscillations) >= 2
            and oscillations[-1] > 0.5 * oscillations[0]):
        return "no_limit"
    return "inconclusive"


def kappa_limit(f, point, cmap, tol=1e-6, extra_samples=None):
    """Estimate the limit of f at an infinity point of a compactification.

    f is evaluated on domain points at geometric radii inside the metric
    balls B(point, delta) for delta in default_levels(tol); ValueError for
    a label that is not one of cmap.infinity_points().  The ladder stops at
    the first ball without samples (a ball beyond RADIUS_CAP), so the k-th
    oscillation is still that of radius 2^-(k+1).  Returns a LimitResult;
    the value of a converged result is f at its first sample of largest
    tail radius.

    extra_samples, when given, is a callable delta -> domain points that are
    merged into each level after filtering to the metric ball.  Generic
    probing cannot see features whose measure shrinks along the domain (the
    marching-bump derivative is the canonical case), so counterexample
    demonstrations pass the witness points explicitly.
    """
    if point not in cmap.infinity_points():
        raise ValueError(f"{point!r} is not an infinity point of "
                         f"{cmap.name!r}")
    oscillations = []
    for delta in default_levels(tol):
        pts = cmap.sample_ball(point, delta)
        if extra_samples is not None:
            ex = np.atleast_1d(np.asarray(extra_samples(delta), dtype=float))
            pts = np.concatenate(
                [pts, ex[cmap.ball_radius(point, ex) > 1.0 / delta - 1.0]])
        if len(pts) == 0:
            break
        vals = np.asarray(f(pts), dtype=float)
        value = float(vals[np.argmax(cmap.ball_radius(point, pts))])
        # a level with a non-finite sample never certifies
        oscillations.append(float(vals.max()) - float(vals.min())
                            if np.isfinite(vals).all() else math.inf)
    status = classify_ladder(oscillations, tol)
    return LimitResult(status, value if status == "converged" else None,
                       tuple(oscillations))


class ExtensionError(Exception):
    """Continuous extension failed; .failures maps point labels to results."""

    def __init__(self, failures):
        self.failures = failures
        names = ", ".join(sorted(failures))
        super().__init__(f"no limit at infinity point(s): {names}")


@dataclass
class Extension:
    """A function's limits at every infinity point, by point label."""

    limits: dict


def extend(f, cmap, tol=1e-6):
    """Extend f continuously to the compactification, or raise ExtensionError.

    Requires every infinity point of the map to have a converged kappa_limit;
    the failures dict of the raised error names each point that does not.
    """
    limits = {}
    failures = {}
    for p in cmap.infinity_points():
        res = kappa_limit(f, p, cmap, tol=tol)
        if res.converged:
            limits[p] = res.value
        else:
            failures[p] = res
    if failures:
        raise ExtensionError(failures)
    return Extension(limits)


def _tail_radii(delta, n=_SAMPLES_PER_LEVEL):
    """At least n geometric sample radii in (1/delta - 1, RADIUS_CAP], the
    tail that the metric ball of radius delta about infinity holds under
    x/(1 + |x|): powers of two, topped up."""
    lo = 1.0 / delta - 1.0
    if lo >= RADIUS_CAP:
        return np.array([])
    lo = max(lo, 1e-12)
    j0 = int(math.floor(math.log2(lo))) + 1
    radii = [2.0 ** j for j in range(j0, int(math.log2(RADIUS_CAP)) + 1)
             if 2.0 ** j > lo]
    if len(radii) < n:
        radii = list(np.geomspace(lo * (1 + 1e-9), RADIUS_CAP, n))
    return np.asarray(sorted(set(radii)))


class CompactMap:
    """Base class: a compactification of a 1-d domain, by its tails table.

    tails maps the label of each infinity point to the signs of the domain
    tails that the point's metric balls hold; the points, their balls'
    samples and the ball rule all derive from it."""

    name = "abstract"

    def infinity_points(self):
        return list(self.tails)

    def sample_ball(self, point, delta):
        """Domain points inside the metric ball B(point, delta) of an
        infinity point, at radii up to RADIUS_CAP: each tail's radii in
        increasing order, _SAMPLES_PER_LEVEL of them at least over all
        tails."""
        signs = self.tails[point]
        r = _tail_radii(delta, _SAMPLES_PER_LEVEL // len(signs))
        return np.concatenate([s * r for s in signs])

    def ball_radius(self, point, x):
        """The tail radius r of each domain point x about an infinity
        point: x lies in the metric ball B(point, delta) iff
        r > 1/delta - 1.  A point that holds both tails (the circle's
        glued point) has radius |x|."""
        signs = self.tails[point]
        x = np.asarray(x, dtype=float)
        return np.abs(x) if len(signs) > 1 else x if signs[0] > 0 else -x


class HalfLineOnePoint(CompactMap):
    """[0, inf) with one infinity point "inf"."""

    name = "halfline-onepoint"
    tails = {"inf": (1,)}


class LineTwoPoint(CompactMap):
    """R with two infinity points "-inf" and "+inf", one per tail."""

    name = "line-twopoint"
    tails = {"-inf": (-1,), "+inf": (1,)}


class LineOnePoint(CompactMap):
    """R with both tails glued to a single infinity point "inf"; the
    metric is the circle's, the quotient metric of the gluing."""

    name = "line-onepoint"
    tails = {"inf": (-1, 1)}


class IntervalIdentity(CompactMap):
    """A compact interval; it is already compact and adds no point."""

    name = "interval"
    tails = {}


@dataclass
class ProductCompactification:
    """Componentwise product of 1-d compactifications, one per grid axis;
    its faces are those of the factors with an infinity point."""

    factors: tuple
    name = "product"

    def __post_init__(self):
        self.factors = tuple(self.factors)
