"""Metric compactifications of unbounded domains and limits along them.

A compactification is modelled as an embedding of the domain into a bounded
metric space (the "embedded" coordinates) together with a list of infinity
points sitting on the boundary of the image.  Limits of functions at infinity
points are estimated by sampling the domain inside shrinking metric balls and
watching the oscillation of the sampled values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# kappa_limit samples each ball at radii up to RADIUS_CAP, drawing
# _SAMPLES_PER_LEVEL points per ball from a generator seeded with 0, so
# that its results are reproducible
RADIUS_CAP = 1.0e8
_SAMPLES_PER_LEVEL = 8


def _radius(x):
    """The Euclidean norm over the last axis of x, kept as an axis of
    length 1; a scalar is a point of R^1."""
    return np.linalg.norm(np.atleast_1d(x), axis=-1, keepdims=True)


def ball_map(x):
    """Embed R^n into the open unit ball, x -> x / (1 + |x|); the last axis
    of x runs over the coordinates."""
    x = np.asarray(x, dtype=float)
    return x / (1.0 + _radius(x))


def ball_inverse(y):
    """Inverse of ball_map on the open unit ball, y -> y / (1 - |y|)."""
    y = np.asarray(y, dtype=float)
    r = _radius(y)
    if np.any(r >= 1.0):
        raise ValueError("ball_inverse needs |y| < 1")
    return y / (1.0 - r)


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
class XPoint:
    """A point of the compactified space, in embedded coordinates.

    ``embedded`` lives in the bounded image space.  ``infinite_axes`` names the
    factor axes sitting at infinity (empty tuple = ordinary finite point).
    """

    embedded: tuple
    infinite_axes: tuple = ()
    label: str = ""

    @property
    def at_infinity(self):
        return len(self.infinite_axes) > 0

    def __repr__(self):
        if self.label:
            return f"XPoint({self.label})"
        return f"XPoint({self.embedded})"


def _embedded(p):
    """The embedded coordinates of an XPoint, or of a coordinate sequence,
    as an array."""
    return np.asarray(p.embedded if isinstance(p, XPoint) else p, dtype=float)


@dataclass(frozen=True)
class LevelEvidence:
    delta: float
    oscillation: float
    n_samples: int
    closest_value: float


@dataclass(frozen=True)
class LimitResult:
    """Outcome of a sampled limit estimate at one infinity point.

    status is 'converged', 'no_limit' or 'inconclusive'.  A converged result
    carries the value of its last level (each LevelEvidence keeps its
    level's value as closest_value).  kappa_limit reads it at the level's
    sample metrically closest to the point; the grid face ladders of
    funcspace._face_ladders read it at the deepest window's last node in
    axis order, which is the farthest node of a "+inf" window but the
    innermost (largest x) of a "-inf" one.  The evidence tuple records
    (delta, oscillation) for every tested ball.
    """

    status: str
    value: float | None
    point: XPoint
    evidence: tuple

    @property
    def converged(self):
        return self.status == "converged"

    @property
    def oscillation(self):
        return self.evidence[-1].oscillation if self.evidence else math.inf


def default_levels(tol=1e-6):
    """Dyadic delta ladder 2^-1 ... 2^-K, deep enough to certify tol."""
    kmax = max(12, int(math.ceil(math.log2(1.0 / tol))) + 4)
    return [2.0 ** -k for k in range(1, kmax + 1)]


def classify_ladder(evidence, tol):
    """Shared converged / no_limit / inconclusive rule for oscillation ladders.

    converged:  oscillation below tol at the finest nonempty level.
    no_limit:   oscillation at least tol at every level and not substantially
                decreasing (finest > half of the coarsest), i.e. a genuine
                persistent oscillation rather than an unfinished descent.
    """
    usable = [e for e in evidence if e.n_samples > 0]
    if not usable:
        raise ValueError("no samples at any delta level")
    osc = [e.oscillation for e in usable]
    if osc[-1] < tol:
        return "converged"
    if min(osc) >= tol and len(usable) >= 2 and osc[-1] > 0.5 * osc[0]:
        return "no_limit"
    return "inconclusive"


def kappa_limit(f, point, cmap, tol=1e-6, levels=None, extra_samples=None):
    """Estimate the limit of f at an infinity point of a compactification.

    f is evaluated on finite domain points sampled inside metric balls
    B(point, delta) for a shrinking ladder of deltas.  Returns a LimitResult;
    the value of a converged result is f at the sample closest to the point.

    extra_samples, when given, is a callable delta -> domain points that are
    merged into each level after filtering to the metric ball.  Generic
    probing cannot see features whose measure shrinks along the domain (the
    marching-bump derivative is the canonical case), so counterexample
    demonstrations pass the witness points explicitly.
    """
    if not point.at_infinity:
        raise ValueError("kappa_limit expects an infinity point")
    if levels is None:
        levels = default_levels(tol)
    target = _embedded(point)
    rng = np.random.default_rng(0)
    evidence = []
    value = None
    for delta in levels:
        pts = np.asarray(cmap.sample_ball(point, delta, _SAMPLES_PER_LEVEL,
                                          rng, RADIUS_CAP), dtype=float)
        if extra_samples is not None:
            ex = np.atleast_1d(np.asarray(extra_samples(delta), dtype=float))
            pts = np.concatenate(
                [pts, ex[cmap.distance(cmap.embed(ex), target) < delta]])
        if len(pts) == 0:
            continue
        vals = np.asarray(f(pts), dtype=float)
        dist = cmap.distance(cmap.embed(pts), target)
        closest = float(vals[np.argmin(dist)])
        evidence.append(LevelEvidence(delta, float(vals.max() - vals.min()),
                                      len(pts), closest))
        value = closest
    status = classify_ladder(evidence, tol)
    return LimitResult(status, value if status == "converged" else None,
                       point, tuple(evidence))


class ExtensionError(Exception):
    """Continuous extension failed; .failures maps point labels to results."""

    def __init__(self, failures):
        self.failures = failures
        names = ", ".join(sorted(failures))
        super().__init__(f"no limit at infinity point(s): {names}")


@dataclass
class Extension:
    """A function extended to the whole compactified space."""

    f: object
    cmap: object
    limits: dict

    def value(self, p):
        if p.at_infinity:
            return self.limits[p.label]
        # same evaluation path as the original function
        x = self.cmap.inverse(np.asarray(p.embedded))
        return float(np.asarray(self.f(x)).ravel()[0])


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
            limits[p.label] = res.value
        else:
            failures[p.label] = res
    if failures:
        raise ExtensionError(failures)
    return Extension(f, cmap, limits)


def _geometric_radii(lo, n, cap):
    """Geometric sample radii inside (lo, cap]: powers of two, topped up."""
    if lo >= cap:
        return np.array([])
    lo = max(lo, 1e-12)
    j0 = int(math.floor(math.log2(lo))) + 1
    radii = [2.0 ** j for j in range(j0, int(math.log2(cap)) + 1) if 2.0 ** j > lo]
    if len(radii) < n:
        radii = list(np.geomspace(lo * (1 + 1e-9), cap, n))
    return np.asarray(sorted(set(radii)))


class CompactMap:
    """Base class: an embedding of a domain in R^d into a bounded metric space."""

    name = "abstract"
    dim = 1

    def forward(self, x):
        raise NotImplementedError

    def inverse(self, y):
        raise NotImplementedError

    def forward_point(self, x):
        """Domain point -> XPoint."""
        emb = np.atleast_1d(self.forward(x))
        return XPoint(tuple(float(v) for v in emb))

    def embed(self, x):
        """Embedded coordinates of domain points x, one row per point."""
        return self.forward(np.reshape(np.asarray(x, dtype=float),
                                       (-1, self.dim)))

    def distance(self, a, b):
        """The metric between embedded coordinates a and b, whose last axis
        runs over the coordinates; broadcast over the other axes.  This
        base map takes the max metric."""
        return np.max(np.abs(a - b), axis=-1)

    def metric(self, p, q):
        """The distance of two XPoints or coordinate sequences."""
        return float(self.distance(_embedded(p), _embedded(q)))

    def infinity_points(self):
        raise NotImplementedError

    def sample_ball(self, point, delta, n, rng, cap):
        raise NotImplementedError


class HalfLineOnePoint(CompactMap):
    """[0, inf) embedded in [0, 1] by x/(1+x); one infinity point at 1."""

    name = "halfline-onepoint"

    def forward(self, x):
        x = np.asarray(x, dtype=float)
        return x / (1.0 + x)

    def inverse(self, y):
        y = np.asarray(y, dtype=float)
        return y / (1.0 - y)

    def infinity_points(self):
        return [XPoint((1.0,), (0,), "inf")]

    def sample_ball(self, point, delta, n, rng, cap):
        if point.at_infinity:
            lo = 1.0 / delta - 1.0
            return _geometric_radii(lo, n, cap)
        x0 = float(self.inverse(point.embedded[0]))
        pts = x0 + (rng.random(n) - 0.5) * 2 * delta
        pts = pts[pts >= 0]
        keep = np.abs(self.forward(pts) - point.embedded[0]) < delta
        return pts[keep]


class LineTwoPoint(CompactMap):
    """R embedded in [-1, 1] by x/(1+|x|); two infinity points -inf, +inf."""

    name = "line-twopoint"

    def forward(self, x):
        x = np.asarray(x, dtype=float)
        return x / (1.0 + np.abs(x))

    def inverse(self, y):
        y = np.asarray(y, dtype=float)
        return y / (1.0 - np.abs(y))

    def infinity_points(self):
        return [XPoint((-1.0,), (0,), "-inf"), XPoint((1.0,), (0,), "+inf")]

    def sample_ball(self, point, delta, n, rng, cap):
        if point.at_infinity:
            lo = 1.0 / delta - 1.0
            r = _geometric_radii(lo, n, cap)
            return r if point.embedded[0] > 0 else -r
        x0 = float(self.inverse(point.embedded[0]))
        pts = x0 + (rng.random(n) - 0.5) * 2 * delta * (1 + abs(x0)) ** 2
        keep = np.abs(self.forward(pts) - point.embedded[0]) < delta
        return pts[keep]


class LineOnePoint(CompactMap):
    """R with both tails glued to a single infinity point (circle metric).

    Embedded coordinates live in [-1, 1] with the endpoints identified; the
    metric is min(|a-b|, 2-|a-b|), the quotient metric of the gluing.
    """

    name = "line-onepoint"

    def forward(self, x):
        x = np.asarray(x, dtype=float)
        return x / (1.0 + np.abs(x))

    def inverse(self, y):
        y = np.asarray(y, dtype=float)
        return y / (1.0 - np.abs(y))

    def distance(self, a, b):
        d = np.max(np.abs(a - b), axis=-1)
        return np.minimum(d, 2.0 - d)

    def infinity_points(self):
        return [XPoint((1.0,), (0,), "inf")]

    def sample_ball(self, point, delta, n, rng, cap):
        if point.at_infinity:
            lo = 1.0 / delta - 1.0
            r = _geometric_radii(lo, max(n // 2, 2), cap)
            return np.concatenate([-r[::-1], r])
        x0 = float(self.inverse(point.embedded[0]))
        pts = x0 + (rng.random(n) - 0.5) * 2 * delta * (1 + abs(x0)) ** 2
        keep = self.distance(self.embed(pts), _embedded(point)) < delta
        return pts[keep]


class BallCompactification(CompactMap):
    """R^n embedded in the closed unit ball; boundary = directions of infinity."""

    name = "ball"

    def __init__(self, n):
        self.dim = int(n)

    def forward(self, x):
        return ball_map(x)

    def inverse(self, y):
        return ball_inverse(y)

    def distance(self, a, b):
        return np.linalg.norm(a - b, axis=-1)

    def direction_point(self, u):
        u = np.asarray(u, dtype=float)
        u = u / np.linalg.norm(u)
        return XPoint(tuple(u), tuple(range(self.dim)), f"dir{tuple(np.round(u, 6))}")

    def infinity_points(self):
        if self.dim == 1:
            return [XPoint((-1.0,), (0,), "-inf"), XPoint((1.0,), (0,), "+inf")]
        raise ValueError("boundary sphere is a continuum for n >= 2; "
                         "use direction_point(u) for a specific direction")

    def sample_ball(self, point, delta, n, rng, cap):
        if not point.at_infinity:
            raise NotImplementedError("finite-point sampling not needed here")
        u = np.asarray(point.embedded, dtype=float)
        lo = 1.0 / delta - 1.0
        radii = _geometric_radii(lo, n, cap)
        if self.dim == 1:
            return radii * u[0]
        pts = radii[:, None] * u[None, :]
        # a few jittered directions still inside the delta-ball
        extra = u[None, :] + (rng.standard_normal((3, self.dim))) * (delta / 4)
        extra /= np.linalg.norm(extra, axis=1, keepdims=True)
        pts2 = radii[-1] * extra
        pts = np.vstack([pts, pts2])
        return pts[self.distance(self.forward(pts), u) < delta]


class IntervalIdentity(CompactMap):
    """A compact interval [a, b]; the identity is already a compactification."""

    name = "interval"

    def __init__(self, a, b):
        self.a, self.b = float(a), float(b)

    def forward(self, x):
        return np.asarray(x, dtype=float)

    def inverse(self, y):
        return np.asarray(y, dtype=float)

    def infinity_points(self):
        return []

    def sample_ball(self, point, delta, n, rng, cap):
        y0 = float(point.embedded[0])
        pts = y0 + (rng.random(n) - 0.5) * 2 * delta
        pts = np.clip(pts, self.a, self.b)
        pts = np.append(pts, y0)
        return pts[np.abs(pts - y0) < delta]


@dataclass
class ProductCompactification(CompactMap):
    """Componentwise product of compactifications with the max metric."""

    factors: tuple
    name: str = field(default="product")

    def __post_init__(self):
        self.factors = tuple(self.factors)
        self.dim = len(self.factors)
        for f in self.factors:
            if f.dim != 1:
                raise ValueError("product factors must be one-dimensional")

    def forward(self, x):
        x = np.asarray(x, dtype=float)
        return np.stack([f.forward(x[..., i])
                         for i, f in enumerate(self.factors)], axis=-1)

    def inverse(self, y):
        y = np.asarray(y, dtype=float)
        return np.array([float(f.inverse(y[i])) for i, f in enumerate(self.factors)])

    def distance(self, a, b):
        return np.max([f.distance(a[..., i:i + 1], b[..., i:i + 1])
                       for i, f in enumerate(self.factors)], axis=0)

    def face_point(self, axis, finite_coords):
        """Infinity point on the face where ``axis`` is at its infinity.

        finite_coords gives the domain coordinates of the remaining axes in
        order.  Only single-axis faces are supported, which covers products of
        a half-line with compact intervals.
        """
        pts = self.factors[axis].infinity_points()
        if len(pts) != 1:
            raise ValueError("face_point needs a factor with one infinity point")
        emb = []
        it = iter(finite_coords)
        for i, f in enumerate(self.factors):
            if i == axis:
                emb.append(pts[0].embedded[0])
            else:
                emb.append(float(f.forward(next(it))))
        label = f"axis{axis}:inf@" + ",".join(f"{c:.6g}" for c in finite_coords)
        return XPoint(tuple(emb), (axis,), label)

    def infinity_points(self):
        if any(f.infinity_points() for f in self.factors):
            raise ValueError("product faces form a continuum; use face_point")
        return []

    def sample_ball(self, point, delta, n, rng, cap):
        cols = []
        for i, f in enumerate(self.factors):
            sub = XPoint((point.embedded[i],),
                         (0,) if i in point.infinite_axes else ())
            c = f.sample_ball(sub, delta, n, rng, cap)
            if len(c) == 0:
                return np.empty((0, self.dim))
            cols.append(np.asarray(c, dtype=float))
        k = min(len(c) for c in cols)
        out = np.empty((k, self.dim))
        for i, c in enumerate(cols):
            # pair longest-to-shortest so the extreme radii survive
            out[:, i] = c[-k:]
        return out
