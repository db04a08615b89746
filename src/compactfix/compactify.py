"""Metric compactifications of unbounded domains and limits along them.

A compactification of a 1-d domain is its tails table: the label of each
infinity point ("inf", or "-inf" and "+inf") with the signs of the domain
tails that the point's balls hold.  One ball rule follows: a domain point of
tail radius r (CompactMap.ball_radius) about an infinity point lies in the
point's metric ball of radius delta iff r > 1/delta - 1, because the
embedding x/(1 + |x|) puts it at distance 1/(1 + r) from the point.  A
grid's domain is a product of such maps, one per axis.  A limit at an
infinity point is read off one set of samples by ball_ladders, which
watches the oscillation of the sampled values on the shrinking balls:
kappa_limit samples a callable once, and funcspace's face ladders take the
nodes of a grid axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# kappa_limit calls f once, on fixed geometric radii up to RADIUS_CAP, at
# least _SAMPLES_PER_LEVEL of them in each ball it reads, so that its
# results are reproducible
RADIUS_CAP = 1.0e8
_SAMPLES_PER_LEVEL = 8


def halfline_metric(a, b):
    """Elementwise |h(a) - h(b)| on [0, inf], h(x) = x/(1+x), h(inf) = 1."""
    return np.abs(_h_half(a) - _h_half(b))


def _h_half(x):
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("half-line points must be >= 0")
    return np.divide(x, 1.0 + x, out=np.ones_like(x), where=x != math.inf)


@dataclass(frozen=True)
class LimitResult:
    """Outcome of a sampled limit estimate at one infinity point.

    status is 'converged', 'no_limit' or 'inconclusive'.  oscillations[k]
    is the oscillation on the metric ball of radius 2^-(k+1), for every
    ball tested, and oscillation the last of them.  A converged result
    carries the value at the sample of largest tail radius.
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


class FaceLimitError(ValueError):
    """A required limit at an infinity face does not exist on the data;
    message, when given, replaces the default one that names the face."""

    def __init__(self, face, result=None, message=None):
        self.face = face
        self.result = result
        super().__init__(message or f"no limit at infinity face {face!r}")


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


def ball_ladders(radii, vals, tol, point, depth=60):
    """The oscillation ladders of the columns of vals at an infinity point,
    one row of vals per sample, of tail radius radii (CompactMap.ball_radius).

    Ball k (delta = 2^-(k+1)) holds the samples of radius above
    2^(k+1) - 1, a suffix of the samples ranked by radius.  The balls stop
    before the first with fewer than 2 samples, or after depth of them
    (delta = 2^-60 at most); FaceLimitError names a point without any.
    Returns (hi, lo, results): hi[k] and lo[k] hold each column's maximum
    and minimum on ball k (NaN where it holds a NaN), from running
    extremes of the segments between consecutive ball starts, run from the
    far end, in one pass; results holds one LimitResult per column, its
    k-th oscillation hi[k] - lo[k] (inf on a ball with an infinite value).
    A converged value is the column's entry at the sample of largest
    radius, the last one on ties in the stable ranking.
    """
    order = np.argsort(radii, kind="stable")
    starts = np.searchsorted(radii[order],
                             2.0 ** np.arange(1, depth + 1) - 1.0,
                             side="right")
    balls = int(np.count_nonzero(len(radii) - starts >= 2))
    if not balls:
        raise FaceLimitError(
            point, message=f"no nodes in any window of face {point!r}")
    starts = starts[:balls]
    # the extremes of each segment starts[k]..starts[k + 1], run from the
    # far end, are the balls' (a segment between equal starts reads one
    # sample of the next ball)
    ranked = vals[order]
    hi = np.maximum.accumulate(
        np.maximum.reduceat(ranked, starts, axis=0)[::-1], axis=0)[::-1]
    lo = np.minimum.accumulate(
        np.minimum.reduceat(ranked, starts, axis=0)[::-1], axis=0)[::-1]
    with np.errstate(invalid="ignore"):
        osc = hi - lo
    osc[np.isinf(hi) | np.isinf(lo)] = math.inf
    results = []
    for col_osc, value in zip(osc.T.tolist(), ranked[-1].tolist()):
        status = classify_ladder(col_osc, tol)
        results.append(LimitResult(status, value if status == "converged"
                                   else None, tuple(col_osc)))
    return hi, lo, results


def kappa_limit(f, point, cmap, tol=1e-6, extra_samples=None):
    """Estimate the limit of f at an infinity point of a compactification.

    f is called once, on the samples of every metric ball B(point, delta)
    for delta in default_levels(tol): each tail's radii (_tail_radii) and
    the points of extra_samples(delta), when given, that lie in the ball.
    ValueError for a label that is not one of cmap.infinity_points().  The
    ladder is ball_ladders' on these samples, at most one ball per level.
    A non-finite value counts as inf, so a ball that holds one has
    oscillation inf and never certifies.  Returns a LimitResult; the value
    of a converged result is f at the sample of largest tail radius.

    Generic probing cannot see features whose measure shrinks along the
    domain (the marching-bump derivative is the canonical case), so
    counterexample demonstrations pass the witness points explicitly.
    """
    if point not in cmap.infinity_points():
        raise ValueError(f"{point!r} is not an infinity point of "
                         f"{cmap.name!r}")
    levels = default_levels(tol)
    signs = cmap.tails[point]
    r = _tail_radii(levels, _SAMPLES_PER_LEVEL // len(signs))
    pts = [s * r for s in signs]
    if extra_samples is not None:
        for delta in levels:
            ex = np.atleast_1d(np.asarray(extra_samples(delta), dtype=float))
            pts.append(ex[cmap.ball_radius(point, ex) > 1.0 / delta - 1.0])
    pts = np.concatenate(pts)
    vals = np.asarray(f(pts), dtype=float)
    vals = np.where(np.isfinite(vals), vals, math.inf)
    return ball_ladders(cmap.ball_radius(point, pts), vals[:, None], tol,
                        point, len(levels))[2][0]


class ExtensionError(Exception):
    """Continuous extension failed; .failures maps point labels to results."""

    def __init__(self, failures):
        self.failures = failures
        names = ", ".join(sorted(failures))
        super().__init__(f"no limit at infinity point(s): {names}")


def extend(f, cmap, tol=1e-6):
    """f's limits at the infinity points of cmap, by label, or ExtensionError.

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
    return limits


def _tail_radii(levels, n):
    """The sample radii of kappa_limit's balls about infinity, one per
    delta in levels, merged and sorted: the powers of two from 2 up to
    RADIUS_CAP, which fill the first ball (delta = 1/2, radii above 1), and
    n geometric radii in (1/delta - 1, RADIUS_CAP] for each ball that holds
    fewer than n of the powers."""
    powers = 2.0 ** np.arange(1, int(math.log2(RADIUS_CAP)) + 1)
    radii = [powers]
    for delta in levels:
        lo = 1.0 / delta - 1.0
        if lo >= RADIUS_CAP:
            break
        if np.count_nonzero(powers > lo) < n:
            radii.append(np.geomspace(lo * (1 + 1e-9), RADIUS_CAP, n))
    return np.unique(np.concatenate(radii))


class CompactMap:
    """Base class: a compactification of a 1-d domain, by its tails table.

    tails maps the label of each infinity point to the signs of the domain
    tails that the point's metric balls hold; the points, kappa_limit's
    samples and the ball rule all derive from it."""

    name = "abstract"

    def infinity_points(self):
        return list(self.tails)

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

    def __post_init__(self):
        self.factors = tuple(self.factors)
