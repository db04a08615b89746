"""Weighted grid functions on compactified domains.

A function f of class m is stored by its samples on a rectangular grid
together with the values of the weighted quotients d_p(f/phi) on the infinity
faces of the compactification.  The norm is the sup of all quotient
derivatives up to order m, over the grid and over the stored face values.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .compactify import (HalfLineOnePoint, IntervalIdentity, LevelEvidence,
                         LimitResult, LineTwoPoint, ProductCompactification,
                         XPoint, classify_ladder)


def _unit_weight(*mesh):
    return np.ones(np.shape(mesh[0]))


def _gaussian_weight(*mesh):
    return np.exp(-np.asarray(mesh[0]) ** 2 / 2.0)


#: the weights phi, by the name that grid files and problem files give them.
#: Each depends on x alone: w(x) is the 1-d profile, w(*mesh) the grid values.
WEIGHT_REGISTRY = {"1": _unit_weight, "exp(-x^2/2)": _gaussian_weight}


def multi_indices(order, ndim):
    """All derivative multi-indices p with |p| <= order, low order first."""
    out = [p for p in itertools.product(range(order + 1), repeat=ndim)
           if sum(p) <= order]
    return sorted(out, key=lambda p: (sum(p), p))


class WeightUnderflowError(ValueError):
    """The weight is 0 in float64 at a grid node (a positive weight such as
    exp(-x^2/2) underflows far out), so u/phi is undefined there."""


class FaceLimitError(Exception):
    """A required limit at an infinity face does not exist on the grid data."""

    def __init__(self, face, result=None):
        self.face = face
        self.result = result
        super().__init__(f"no limit at infinity face {face!r}")


class WeightedGridFunction:
    """Samples of a function on a grid, with weight and infinity-face data.

    Parameters
    ----------
    axes : tuple of 1d arrays, strictly increasing node coordinates.
    samples : array of shape tuple(len(a) for a in axes).
    weight : vectorized callable on meshgrid arrays, or None for weight 1.
    order : highest derivative order the weighted norm ranges over.
    cmap : the compactification the infinity faces refer to.
    infinity : {face_label: {multi_index: value}}; for a product face the
        value is an array over the nodes of the remaining axis.
    weight_desc : optional check, the WEIGHT_REGISTRY name of weight.

    The weight's name is looked up in WEIGHT_REGISTRY; a weight from
    outside the registry has the name None and computes but cannot be saved.
    """

    def __init__(self, axes, samples, weight=None, order=0, cmap=None,
                 infinity=None, weight_desc=None):
        self.axes = tuple(np.asarray(a, dtype=float) for a in axes)
        self.samples = np.asarray(samples, dtype=float)
        if self.samples.shape != tuple(len(a) for a in self.axes):
            raise ValueError("samples shape does not match axes")
        for a in self.axes:
            if len(a) >= 2 and not np.all(np.diff(a) > 0):
                raise ValueError("axis nodes must be strictly increasing")
        self.weight = _unit_weight if weight is None else weight
        self.weight_desc = next((name for name, w in WEIGHT_REGISTRY.items()
                                 if w is self.weight), None)
        if weight_desc is not None and weight_desc != self.weight_desc:
            if weight_desc not in WEIGHT_REGISTRY:
                raise ValueError(f"unknown weight description {weight_desc!r}")
            raise ValueError(f"weight description {weight_desc!r} does not "
                             "name the given weight")
        self.order = int(order)
        self.cmap = cmap if cmap is not None else _default_cmap(len(self.axes))
        self.infinity = infinity or {}
        self._wvals = None

    @property
    def ndim(self):
        return len(self.axes)

    def mesh(self):
        return np.meshgrid(*self.axes, indexing="ij")

    def weight_values(self):
        """phi on the grid; ValueError where it is negative, and
        WeightUnderflowError naming the first x where it is 0."""
        if self._wvals is None:
            wvals = np.asarray(self.weight(*self.mesh()), dtype=float)
            if np.any(wvals < 0):
                raise ValueError("weight must be positive on the grid")
            zero = np.argwhere(wvals == 0)
            if len(zero):
                x = self.axes[0][zero[0][0]]
                raise WeightUnderflowError(
                    f"weight {self.weight_desc or 'phi'} is not positive at "
                    f"x = {x:g}: it is 0 in float64 there, so u/phi is "
                    "undefined")
            self._wvals = wvals
        return self._wvals

    def quotient(self):
        """samples / weight on the grid."""
        return self.samples / self.weight_values()

    def with_samples(self, samples, infinity=None):
        out = WeightedGridFunction(self.axes, samples, self.weight,
                                   self.order, self.cmap,
                                   infinity if infinity is not None else {})
        out._wvals = self._wvals  # same axes and weight
        return out

    def face_labels(self):
        return face_labels(self.cmap)

    def face_limit(self, p, face, coord_index=None, tol=1e-6):
        """Windowed limit of d_p(f/phi) at an infinity face, from grid data."""
        vals = quotient_derivative(self, p)
        return _grid_face_limit(self, vals, face, coord_index, tol)


def _default_cmap(ndim):
    if ndim == 1:
        return HalfLineOnePoint()
    return ProductCompactification(
        (HalfLineOnePoint(),) + (IntervalIdentity(0.0, 1.0),) * (ndim - 1))


def face_labels(cmap):
    if isinstance(cmap, ProductCompactification):
        return [f"axis{i}:inf" for i, f in enumerate(cmap.factors)
                if f.infinity_points()]
    return [p.label for p in cmap.infinity_points()]


def _face_axis(face):
    if face.startswith("axis"):
        return int(face[4:].split(":")[0])
    return 0


def quotient_derivative(f, p):
    """Finite-difference d_p(f/phi) on the grid.

    Central second-order differences in the interior, one-sided at the edges;
    mixed partials by composing the per-axis stencils.  Exact for quotients
    that are polynomials of degree <= 1 per axis.
    """
    p = tuple(int(k) for k in p)
    if len(p) != f.ndim:
        raise ValueError("multi-index length must equal the grid dimension")
    for i, k in enumerate(p):
        if k > 0 and len(f.axes[i]) < k + 1:
            raise ValueError(f"grid too coarse for the order-{k} stencil "
                             f"along axis {i}")
    vals = f.quotient()
    for i, k in enumerate(p):
        for _ in range(k):
            vals = np.gradient(vals, f.axes[i], axis=i, edge_order=1)
    return vals


def weighted_norm(f):
    """max over |p| <= order of sup |d_p(f/phi)|, grid and infinity faces."""
    best = 0.0
    for p in multi_indices(f.order, f.ndim):
        vals = quotient_derivative(f, p)
        best = max(best, float(np.abs(vals).max()))
    for per_p in f.infinity.values():
        for p, v in per_p.items():
            if sum(p) <= f.order:
                best = max(best, float(np.max(np.abs(v))))
    return best


@dataclass
class GammaFunction:
    """Trace of a quotient derivative on the compactified space.

    values are d_p(f/phi) pushed to the embedded grid; infinity holds the
    face values.  gamma_p is linear in f and bounded by the weighted norm.
    """

    p: tuple
    embedded_axes: tuple
    values: np.ndarray
    infinity: dict

    def sup(self):
        m = float(np.abs(self.values).max())
        for v in self.infinity.values():
            m = max(m, float(np.max(np.abs(v))))
        return m


def gamma_p(f, p, tol=1e-6):
    """The map f -> continuous extension of d_p(f/phi) to the compactification.

    Face values are taken from storage when present and otherwise estimated
    from the grid; a face whose grid limit does not converge raises
    FaceLimitError naming the face.
    """
    p = tuple(int(k) for k in p)
    vals = quotient_derivative(f, p)
    emb = []
    for i, a in enumerate(f.axes):
        fac = (f.cmap.factors[i] if isinstance(f.cmap, ProductCompactification)
               else f.cmap)
        emb.append(np.asarray(fac.forward(a), dtype=float))
    inf_vals = {}
    for face in f.face_labels():
        stored = f.infinity.get(face, {})
        if p in stored:
            inf_vals[face] = np.asarray(stored[p], dtype=float)
            continue
        if f.ndim == 1:
            res = _grid_face_limit(f, vals, face, None, tol)
            if not res.converged:
                raise FaceLimitError(face, res)
            inf_vals[face] = np.float64(res.value)
        else:
            got = []
            for node, res in face_profile(f, vals, face, tol):
                if not res.converged:
                    raise FaceLimitError(f"{face}@{node:.6g}", res)
                got.append(res.value)
            inf_vals[face] = np.asarray(got)
    return GammaFunction(p, tuple(emb), vals, inf_vals)


def _axis_windows(nodes, face, delta):
    """Index mask of grid nodes inside the metric ball of an infinity tail."""
    lo = 1.0 / delta - 1.0
    if face.endswith("-inf"):
        return nodes < -lo
    return nodes > lo


def _grid_face_limit(f, vals, face, coord_index, tol):
    """Oscillation ladder for a face limit, windows drawn from the grid.

    On product grids the window is the coordinate slice at the coord_index
    node: face data is stored as one profile value per node of the finite
    axis, and the ladder certifies each slice limit separately.  (A full
    metric-ball window would add the profile's own variation across the
    finite axis, which shrinks only linearly in delta and is already visible
    in the stored profile.)
    """
    axis = _face_axis(face)
    nodes = f.axes[axis]
    evidence = []
    value = None
    k = 1
    while k <= 60:
        delta = 2.0 ** -k
        mask = _axis_windows(nodes, face, delta)
        if mask.sum() < 2:
            break
        if f.ndim == 1:
            window = vals[mask]
            value = float(vals[np.where(mask)[0][-1]])
        else:
            window = (vals[mask, coord_index] if axis == 0
                      else vals[coord_index, mask])
            value = float(window[-1])
        evidence.append(LevelEvidence(delta, float(window.max() - window.min()),
                                      int(window.size), value))
        k += 1
    if not evidence:
        raise ValueError(f"truncated grid has no nodes in any window of face "
                         f"{face!r}")
    status = classify_ladder(evidence, tol)
    pt = XPoint((math.nan,), (axis,), face)
    return LimitResult(status, value if status == "converged" else None,
                       pt, tuple(evidence))


def face_profile(f, vals, face, tol):
    """The limits of vals at an infinity face of a 2-d grid function, one
    oscillation ladder per node of the other axis: a list of
    (node, LimitResult) pairs in node order.  Each result names its face
    in point.label."""
    nodes = f.axes[1 - _face_axis(face)]
    return [(float(node), _grid_face_limit(f, vals, face, j, tol))
            for j, node in enumerate(nodes)]


# ---------------------------------------------------------------------------
# precompactness diagnostics


# the tolerances that the equicontinuity and equiconvergence checks of
# precompactness_report must each reach at some probed delta
_EPS_LADDER = (0.1, 0.03, 0.01)
# family members per block of equicontinuity_modulus's window passes
_MEMBER_BLOCK = 8


@dataclass
class PrecompactnessReport:
    """Numerical check of the three sufficient conditions for precompactness.

    bounded: sup of |d_p(f/phi)| over the family is finite.
    equicontinuous: for every eps in the ladder _EPS_LADDER some probed
        delta had axis-aligned modulus below eps.
    equiconvergent: for every eps some delta-window at infinity had every
        member within eps of its stored face value.
    """

    bounded: bool
    bound: float
    equicontinuous: bool
    modulus: tuple
    equiconvergent: bool
    deviations: tuple
    worst_deviation: float

    @property
    def all_conditions(self):
        return self.bounded and self.equicontinuous and self.equiconvergent


def _family_quotient_derivatives(family):
    f0 = family[0]
    for g in family[1:]:
        if g.ndim != f0.ndim or any(len(a) != len(b) or not np.allclose(a, b)
                                    for a, b in zip(g.axes, f0.axes)):
            raise ValueError("family members must share one grid")
        if g.order != f0.order:
            raise ValueError("family members must share the class order")
    ps = multi_indices(f0.order, f0.ndim)
    return f0, ps, {p: np.stack([quotient_derivative(g, p) for g in family])
                    for p in ps}


def equicontinuity_modulus(family, max_shift=64):
    """omega(delta) = worst |v(x) - v(y)| over axis-aligned |x-y| <= delta,
    for delta = h times each power of two up to max_shift (which must be
    below the node count of every axis).

    The worst difference over node distances up to w is the largest
    max - min over the windows of w + 1 consecutive nodes.  The windows are
    built by doubling, _MEMBER_BLOCK members at a time: the window maxima
    of span 2w are the pairwise maxima of the span-w maxima w nodes apart.
    A NaN anywhere in the family makes every omega NaN.
    """
    f0, ps, derivs = _family_quotient_derivatives(family)
    spans = [2 ** k for k in range(int(max_shift).bit_length())]
    out = []
    for axis in range(f0.ndim):
        h = float(np.min(np.diff(f0.axes[axis])))
        worst = np.zeros(len(spans))
        for p in ps:
            for b in range(0, len(family), _MEMBER_BLOCK):
                hi = lo = np.moveaxis(derivs[p][b:b + _MEMBER_BLOCK],
                                      axis + 1, -1)
                for k, span in enumerate(spans):
                    step = span - span // 2
                    hi = np.maximum(hi[..., :-step], hi[..., step:])
                    lo = np.minimum(lo[..., :-step], lo[..., step:])
                    worst[k] = np.maximum(worst[k], np.max(hi - lo))
        out.extend((span * h, float(w)) for span, w in zip(spans, worst))
    return sorted(out)


def equiconvergence_deviation(family):
    """Per delta-window, the worst gap between members and their face
    values; NaN when a window holds a NaN."""
    f0, ps, derivs = _family_quotient_derivatives(family)
    out = []
    for face in f0.face_labels():
        axis = _face_axis(face)
        nodes = f0.axes[axis]
        k = 1
        while k <= 60:
            delta = 2.0 ** -k
            mask = _axis_windows(nodes, face, delta)
            if mask.sum() < 2:
                break
            worst = 0.0
            for p in ps:
                v = derivs[p]
                for i, g in enumerate(family):
                    stored = g.infinity.get(face, {}).get(p)
                    if stored is None:
                        raise FaceLimitError(face)
                    if f0.ndim == 1:
                        gap = np.abs(v[i][mask] - float(stored)).max()
                    else:
                        other = 1 - axis
                        arr = np.asarray(stored, dtype=float)
                        onodes = f0.axes[other]
                        gap = 0.0
                        for j in range(len(onodes)):
                            omask = np.abs(onodes - onodes[j]) < delta
                            win = (v[i][np.ix_(mask, omask)] if axis == 0
                                   else v[i][np.ix_(omask, mask)])
                            gap = np.maximum(gap, np.abs(win - arr[j]).max())
                    worst = np.maximum(worst, gap)
            out.append((delta, float(worst)))
            k += 1
    return out


def precompactness_report(family):
    """Evaluate the three precompactness conditions for a family on one grid."""
    if not family:
        raise ValueError("empty family")
    f0, ps, derivs = _family_quotient_derivatives(family)
    bound = max(float(np.abs(derivs[p]).max()) for p in ps)
    bounded = math.isfinite(bound)
    modulus = equicontinuity_modulus(family)
    equicont = all(any(w < eps for _, w in modulus) for eps in _EPS_LADDER)
    deviations = equiconvergence_deviation(family)
    worst = min((d for _, d in deviations), default=math.inf)
    equiconv = all(any(d < eps for _, d in deviations)
                   for eps in _EPS_LADDER)
    return PrecompactnessReport(bounded, bound, equicont, tuple(modulus),
                                equiconv, tuple(deviations), worst)


# ---------------------------------------------------------------------------
# the two classical counterexample families


class BumpChain:
    """Shrinking bumps marching to infinity.

    f = sum over k >= 2 of g(k x - k^2)/k with g(s) = (1-s^2)^2 on [-1, 1],
    zero outside.  f tends to 0 at infinity while f' keeps oscillating: the
    derivative takes the value 8/(3 sqrt 3) at x = k - 1/(sqrt3 k) and 0 at
    x = k + 1/k, for every k.
    """

    peak_slope = 8.0 / (3.0 * math.sqrt(3.0))

    def value(self, x):
        x = np.asarray(x, dtype=float)
        k = np.round(x)
        xi = k * x - k * k
        inside = (np.abs(xi) <= 1.0) & (k >= 2)
        out = np.zeros_like(x)
        np.divide((1.0 - xi ** 2) ** 2, k, out=out, where=inside)
        return out

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        k = np.round(x)
        xi = k * x - k * k
        inside = (np.abs(xi) <= 1.0) & (k >= 2)
        return np.where(inside, -4.0 * xi * (1.0 - xi ** 2), 0.0)

    def __call__(self, x):
        return self.value(x)

    def rising_inflection(self, k):
        """x = k - 1/(sqrt3 k), where the derivative equals peak_slope."""
        return k - 1.0 / (math.sqrt(3.0) * k)

    def support_end(self, k):
        """x = k + 1/k, right edge of the k-th bump (derivative 0)."""
        return k + 1.0 / k

    def witness_points(self, delta):
        """Probe points past 1/delta - 1 that expose the derivative swing.

        For each of a few bump indices beyond the window edge: the bump
        centre (value peak, derivative 0), the rising inflection (derivative
        at its sup) and the right support edge (both zero).  Bump supports
        shrink like 1/k, so random sampling misses them; limit demos feed
        these to kappa_limit's extra_samples.
        """
        k0 = max(2, int(math.ceil(1.0 / delta)))
        ks = sorted({k0, k0 + 1, k0 + 2, 2 * k0, 4 * k0})
        pts = []
        for k in ks:
            pts.extend([self.rising_inflection(k), float(k),
                        self.support_end(k)])
        return np.asarray(pts)


def gaussian_family(n_max, truncation=48.0, step=0.005, order=0):
    """Unit Gaussians centred at 2..n_max as weight-1 grid functions."""
    xs = np.arange(0.0, truncation + step / 2, step)
    cmap = HalfLineOnePoint()
    fam = []
    for c in range(2, n_max + 1):
        samples = np.exp(-(xs - c) ** 2)
        faces = {"inf": {(0,): 0.0}}
        fam.append(WeightedGridFunction((xs,), samples, None, order, cmap,
                                        faces))
    return fam


def gaussian_family_separation(n_max, step=1e-3):
    """Minimum pairwise sup-distance of the translating Gaussian family."""
    xs = np.arange(0.0, n_max + 6.0, step)
    vals = [np.exp(-(xs - c) ** 2) for c in range(2, n_max + 1)]
    best = math.inf
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            best = min(best, float(np.abs(vals[i] - vals[j]).max()))
    return best


# ---------------------------------------------------------------------------
# serialization: samples to CSV, everything else to a JSON sidecar


def _p_key(p):
    return ",".join(str(k) for k in p)


def _p_unkey(s):
    return tuple(int(k) for k in s.split(","))


def save_grid_function(f, csv_path):
    """Write samples as CSV (one row per node) plus a JSON sidecar.

    Each node coordinate is formatted once; the nodes that share their
    leading coordinates (one line of the last axis) are written with one
    "%.17g" template, so the file matches a per-cell f"{v:.17g}" writer
    byte for byte.  Raises ValueError for a weight outside WEIGHT_REGISTRY,
    which the sidecar could not name.
    """
    if f.weight_desc is None:
        raise ValueError("only a WEIGHT_REGISTRY weight can be saved; this "
                         "grid function's weight has no name")
    names = ["x", "y", "z"][: f.ndim]
    *lead, last = [["%.17g" % v for v in a.tolist()] for a in f.axes]
    cells = [""] + [c + ",%.17g\r\n" for c in last]
    rows = f.samples.reshape(math.prod(len(a) for a in lead), len(last))
    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join(names + ["value"]) + "\r\n")
        for prefix, row in zip(itertools.product(*lead), rows):
            # the leading "" puts the prefix before every cell
            template = "".join(c + "," for c in prefix).join(cells)
            fh.write(template % tuple(row.tolist()))
    side = {
        "weight": f.weight_desc,
        "order": f.order,
        "cmap": getattr(f.cmap, "name", "custom"),
        "axes": [list(a) for a in f.axes],
        "infinity": {face: {_p_key(p): (v.tolist() if isinstance(v, np.ndarray)
                                        else float(v))
                            for p, v in per_p.items()}
                     for face, per_p in f.infinity.items()},
    }
    with open(str(csv_path) + ".json", "w") as fh:
        json.dump(side, fh, indent=1, sort_keys=True)


def load_grid_function(csv_path):
    with open(str(csv_path) + ".json") as fh:
        side = json.load(fh)
    axes = tuple(np.asarray(a, dtype=float) for a in side["axes"])
    shape = tuple(len(a) for a in axes)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    vals = np.array([float(r[-1]) for r in rows[1:]]).reshape(shape)
    infinity = {face: {_p_unkey(k): (np.asarray(v, dtype=float)
                                     if isinstance(v, list) else float(v))
                       for k, v in per_p.items()}
                for face, per_p in side["infinity"].items()}
    cmap = _default_cmap(len(axes)) if side["cmap"] != "line-twopoint" \
        else LineTwoPoint()
    name = side["weight"]
    return WeightedGridFunction(axes, vals, WEIGHT_REGISTRY.get(name),
                                side["order"], cmap, infinity, name)
