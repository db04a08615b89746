"""Weighted grid functions on compactified domains.

A function f of class m is stored by its samples, or by its quotient
f/phi, on a rectangular grid together with the values of the weighted
quotients d_p(f/phi) on the infinity faces of the compactification.  The
norm is the sup of all quotient derivatives up to order m, over the grid
and over the stored face values.  A grid function is saved as its
quotient u/phi, one value per line, with a JSON sidecar for the axes, the
weight's name, the names of its map's factors and the face values.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .compactify import (FaceLimitError, HalfLineOnePoint, IntervalIdentity,
                         LineOnePoint, LineTwoPoint, ProductCompactification,
                         ball_ladders)


#: each weight phi once, by the name that grid files and problem files give
#: it: (log phi, (log phi)'), callables of x alone.  phi itself and every
#: weighted form of a problem (greenop.Kernel's methods, q_eval) derive from
#: it.
LOG_WEIGHTS = {"1": (lambda x: np.zeros(np.shape(x)),) * 2,
               "exp(-x^2/2)": (lambda x: -np.asarray(x) ** 2 / 2.0,
                               lambda x: -np.asarray(x))}


def _weight(log_phi):
    return lambda x: np.exp(log_phi(x))


#: phi = exp(log phi) by name, a callable of x alone; a grid function names
#: its weight by this callable's identity
WEIGHT_REGISTRY = {name: _weight(log_phi)
                   for name, (log_phi, _) in LOG_WEIGHTS.items()}
_unit_weight = WEIGHT_REGISTRY["1"]
#: each 1-d map by the name that a grid file's sidecar gives it; a grid's
#: map is a product of these, one per axis
NAMED_MAPS = {cls.name: cls for cls in (HalfLineOnePoint, LineTwoPoint,
                                        LineOnePoint, IntervalIdentity)}
#: the face ladders' tolerance in apply_T's images and the solve's profile
FACE_TOL = 1e-4


def multi_indices(order, ndim):
    """All derivative multi-indices p with |p| <= order, low order first."""
    out = [p for p in itertools.product(range(order + 1), repeat=ndim)
           if sum(p) <= order]
    return sorted(out, key=lambda p: (sum(p), p))


class WeightUnderflowError(ValueError):
    """The weight is 0 in float64 at a grid node (a positive weight such as
    exp(-x^2/2) underflows far out), so u/phi is undefined there."""


class WeightedGridFunction:
    """Samples of a function on a grid, with weight and infinity-face data.

    Parameters
    ----------
    axes : tuple of 1d arrays, strictly increasing node coordinates.
    samples : array of shape tuple(len(a) for a in axes).
    weight : a WEIGHT_REGISTRY entry, or None for weight 1; it is
        evaluated once, on axes[0] (weight_values).
    order : highest derivative order the weighted norm ranges over, a
        non-negative integer.
    cmap : the compactification the infinity faces refer to, a
        ProductCompactification of one NAMED_MAPS map per axis; by default
        a half line times one interval per further axis.
    infinity : {face_label: {multi_index: value}}; a multi-index has one
        entry per axis, and the value is an array over the nodes of the
        other axes (a scalar on a 1-d grid).
    weight_desc : optional check, the WEIGHT_REGISTRY name of weight.

    ValueError for a weight or a map without a name, so that everything a
    grid function holds can be named in its file, for an order that is not
    a non-negative int (a bool included), and for infinity data under a
    label that is not one of face_labels() or of another shape.  A grid
    function stores only the array it was given: u here, q = u/phi through
    from_quotient and image(quotient=True).
    """

    def __init__(self, axes, samples, weight=None, order=0, cmap=None,
                 infinity=None, weight_desc=None):
        self.axes = tuple(np.asarray(a, dtype=float) for a in axes)
        self._values = np.asarray(samples, dtype=float)
        self._holds_q = False
        if self._values.shape != tuple(len(a) for a in self.axes):
            raise ValueError("samples shape does not match axes")
        for a in self.axes:
            if len(a) >= 2 and not np.all(np.diff(a) > 0):
                raise ValueError("axis nodes must be strictly increasing")
        self.weight = _unit_weight if weight is None else weight
        self.weight_desc = next((name for name, w in WEIGHT_REGISTRY.items()
                                 if w is self.weight), None)
        if self.weight_desc is None:
            raise ValueError(f"weight {self.weight!r} is not a "
                             "WEIGHT_REGISTRY entry")
        if weight_desc is not None and weight_desc != self.weight_desc:
            if weight_desc not in WEIGHT_REGISTRY:
                raise ValueError(f"unknown weight description {weight_desc!r}")
            raise ValueError(f"weight description {weight_desc!r} does not "
                             "name the given weight")
        if not (isinstance(order, numbers.Integral)
                and not isinstance(order, bool) and order >= 0):
            raise ValueError(f"order {order!r} is not a non-negative "
                             "integer")
        self.order = int(order)
        self.cmap = cmap if cmap is not None else ProductCompactification(
            (HalfLineOnePoint(),) + (IntervalIdentity(),) * (self.ndim - 1))
        if not (isinstance(self.cmap, ProductCompactification)
                and len(self.cmap.factors) == self.ndim
                and all(type(fac) in NAMED_MAPS.values()
                        for fac in self.cmap.factors)):
            raise ValueError(f"cmap {self.cmap!r} is not a product of one "
                             f"named map per axis ({', '.join(NAMED_MAPS)}) "
                             f"for {self.ndim} axes")
        self.infinity = infinity or {}
        faces = self.face_labels()
        for label, per_p in self.infinity.items():
            if label not in faces:
                raise ValueError(f"infinity face {label!r} is not a face of "
                                 f"the map, whose faces are {faces}")
            shape = tuple(len(a) for a in _other_axes(self, label))
            for p, v in per_p.items():
                if len(p) != self.ndim or np.shape(v) != shape:
                    raise ValueError(
                        f"infinity face {label!r} holds {p!r} with a value "
                        f"of shape {np.shape(v)}; it takes multi-indices of "
                        f"{self.ndim} orders and values of shape {shape}")
        # weight 1 is a view of one 1.0, not ones as long as a 1-d grid
        column = (len(self.axes[0]),) + (1,) * (self.ndim - 1)
        self._phi = (np.broadcast_to(1.0, column)
                     if self.weight is _unit_weight
                     else np.reshape(self.weight(self.axes[0]), column))

    @classmethod
    def from_quotient(cls, axes, q, weight=None, order=0, cmap=None,
                      infinity=None, weight_desc=None):
        """The grid function u = phi q that stores q itself: quotient()
        returns q, so nothing divides phi back out (q stays exact where phi
        underflows to 0 and u with it)."""
        out = cls(axes, q, weight, order, cmap, infinity, weight_desc)
        out._holds_q = True
        return out

    def image(self, values, quotient=False):
        """A grid function on this one's grid, weight, order and
        compactification, without face values: values are its samples, or
        with quotient=True its q, stored as from_quotient stores it.  It
        shares this grid's checked axes and its phi column, so a grid
        function and its images evaluate phi once between them."""
        out = copy.copy(self)
        out.infinity = {}
        out._values = np.asarray(values, dtype=float)
        out._holds_q = quotient
        return out

    @property
    def samples(self):
        """u on the grid: the stored u, or phi q formed at this read."""
        return self._phi * self._values if self._holds_q else self._values

    @property
    def ndim(self):
        return len(self.axes)

    def mesh(self):
        return np.meshgrid(*self.axes, indexing="ij")

    def weight_values(self):
        """phi on axes[0], the (n0, 1, ...) column that broadcasts over
        the grid; an exp, so never negative, and 0 where it underflows."""
        return self._phi

    def quotient(self):
        """q = u/phi on the grid: the stored q, the stored u itself for
        the unit weight (x / 1.0 == x bitwise, NaN, inf and -0.0 included,
        so nothing is divided), otherwise samples / phi, which raises
        WeightUnderflowError naming the first x where phi is 0.  The result
        may be the stored array: read it, do not write it."""
        if self._holds_q or self.weight is _unit_weight:
            return self._values
        phi = self.weight_values()
        zero = np.flatnonzero(phi == 0)
        if len(zero):
            raise WeightUnderflowError(
                f"weight {self.weight_desc} is not positive at "
                f"x = {self.axes[0][zero[0]]:g}: it is 0 in float64 there, "
                "so u/phi is undefined")
        return self._values / phi

    def face_labels(self):
        """The infinity faces: "axis{i}:{point}" per infinity point of
        factor i of the map (a half line's face is "axis0:inf", a two-point
        line's are "axis0:-inf" and "axis0:+inf")."""
        return [f"axis{i}:{p}" for i, fac in enumerate(self.cmap.factors)
                for p in fac.infinity_points()]

    def face_limit(self, p, face, tol=1e-6):
        """Windowed limits of d_p(f/phi) at an infinity face, from grid
        data (see _face_ladders): one LimitResult per slice of the face's
        axis, in C order of the other axes' nodes (one on a 1-d grid)."""
        return _face_ladders(self, quotient_derivative(self, p), face,
                             tol)[2]


def _face_axis(face):
    return int(face[4:].partition(":")[0])


def _face_radii(f, face):
    """The tail radius of each node of the face's axis about the face's
    infinity point, from the axis's map (CompactMap.ball_radius): a node
    lies in the face's metric ball of radius delta iff its radius exceeds
    1/delta - 1.  The face "axis{i}:{label}" is the point of that label of
    factor i; ValueError for a face that f's map lacks."""
    if face not in f.face_labels():
        raise ValueError(f"the compactification has no infinity face "
                         f"{face!r}")
    axis = _face_axis(face)
    return f.cmap.factors[axis].ball_radius(face.partition(":")[2],
                                            f.axes[axis])


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

    values are d_p(f/phi) on the grid; infinity holds the face values.
    gamma_p is linear in f and bounded by the weighted norm.
    """

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
    inf_vals = {}
    for face in f.face_labels():
        stored = f.infinity.get(face, {})
        if p in stored:
            inf_vals[face] = np.asarray(stored[p], dtype=float)
            continue
        results = _face_ladders(f, vals, face, tol)[2]
        for nodes, res in zip(itertools.product(*_other_axes(f, face)),
                              results):
            if not res.converged:
                raise FaceLimitError(
                    face + "".join(f"@{n:.6g}" for n in nodes), res)
        inf_vals[face] = _face_values(f, face, results)
    return GammaFunction(vals, inf_vals)


def _face_ladders(f, vals, face, tol):
    """The grid windows of a face of f and the limits of vals on them, as
    compactify.ball_ladders gives them: (hi, lo, results), with hi[k] and
    lo[k] the extremes of each column on window k and one LimitResult per
    column.  The columns of vals are its slices along the face's axis, one
    per node of the other axes (one on a 1-d grid).  Window k (delta =
    2^-(k+1)) is the nodes with _face_radii above 1/delta - 1: on an
    increasing axis a suffix for a "+inf" face, a prefix for a "-inf" one,
    and both tails for the glued point of LineOnePoint.
    On product grids each column is the coordinate slice at one node of
    the finite axis: face data is stored as one profile value per such
    node, and the ladder certifies each slice limit separately.  (A full
    metric-ball window would add the profile's own variation across the
    finite axis, which shrinks only linearly in delta and is already
    visible in the stored profile.)
    """
    radii = _face_radii(f, face)
    cols = np.moveaxis(vals, _face_axis(face), 0).reshape(len(radii), -1)
    return ball_ladders(radii, cols, tol, face)


def _other_axes(f, face):
    """The node arrays of f's axes but the face's (none on a 1-d grid)."""
    axis = _face_axis(face)
    return f.axes[:axis] + f.axes[axis + 1:]


def _face_values(f, face, results):
    """face_limit's values on face, shaped like the other axes' nodes."""
    return np.reshape([res.value for res in results],
                      [len(a) for a in _other_axes(f, face)])[()]


def attach_faces(f, tol=FACE_TOL):
    """Read every infinity face of f/phi by face_limit at p = 0 and store
    the values of each face whose slices all converged as f's values there
    (_face_values); a face with a slice that did not converge gets none.
    Returns {face: face_limit's results}."""
    p = (0,) * f.ndim
    out = {}
    for face in f.face_labels():
        results = out[face] = f.face_limit(p, face, tol)
        if all(res.converged for res in results):
            f.infinity[face] = {p: _face_values(f, face, results)}
    return out


# ---------------------------------------------------------------------------
# precompactness diagnostics


# the tolerances that the equicontinuity and equiconvergence checks of
# precompactness_report must each reach at some probed delta
_EPS_LADDER = (0.1, 0.03, 0.01)
# family members per block of equicontinuity_modulus's window passes
_MEMBER_BLOCK = 8


def _family_quotient_derivatives(family):
    """{p: the list of the members' quotient derivatives of order p}, after
    checking that the members share one grid and one class order.  Nothing
    is stacked: for order 0 and weight 1 the arrays are the members' own
    samples, so the family is read in place."""
    f0 = family[0]
    for g in family[1:]:
        if g.ndim != f0.ndim or any(len(a) != len(b) or not np.allclose(a, b)
                                    for a, b in zip(g.axes, f0.axes)):
            raise ValueError("family members must share one grid")
        if g.order != f0.order:
            raise ValueError("family members must share the class order")
    return {p: [quotient_derivative(g, p) for g in family]
            for p in multi_indices(f0.order, f0.ndim)}


def equicontinuity_modulus(family, derivs, max_shift=64):
    """{axis: rows}: omega(delta) = worst |v(x) - v(y)| over |x - y| <= delta
    along the axis, as (delta, omega) rows for delta = h times each power
    of two up to max_shift; ValueError, before any work, names an axis
    with no more nodes than max_shift.

    The worst difference over node distances up to w is the largest
    max - min over the windows of w + 1 consecutive nodes.  The windows are
    built by doubling on a stack of _MEMBER_BLOCK members at a time, so
    no more than one block is ever copied: the window maxima of span 2w
    are the pairwise maxima of the span-w maxima w nodes apart.  A NaN
    anywhere in the family makes every omega NaN.  derivs holds the
    members' quotient derivatives, one list per multi-index, as
    _family_quotient_derivatives builds them.
    """
    f0 = family[0]
    for axis, nodes in enumerate(f0.axes):
        if len(nodes) <= max_shift:
            raise ValueError(f"equicontinuity_modulus needs more than "
                             f"max_shift = {max_shift} nodes on every axis; "
                             f"axis {axis} has {len(nodes)}")
    spans = [2 ** k for k in range(int(max_shift).bit_length())]
    out = {}
    for axis in range(f0.ndim):
        h = float(np.min(np.diff(f0.axes[axis])))
        worst = np.zeros(len(spans))
        for members in derivs.values():
            for b in range(0, len(family), _MEMBER_BLOCK):
                hi = lo = np.moveaxis(np.stack(members[b:b + _MEMBER_BLOCK]),
                                      axis + 1, -1)
                for k, span in enumerate(spans):
                    step = span - span // 2
                    hi = np.maximum(hi[..., :-step], hi[..., step:])
                    lo = np.minimum(lo[..., :-step], lo[..., step:])
                    worst[k] = np.maximum(worst[k], np.max(hi - lo))
        out[axis] = [(span * h, float(w)) for span, w in zip(spans, worst)]
    return out


def equiconvergence_deviation(family, derivs):
    """{face: rows}: per window of the face's ladder (_face_ladders), the
    worst gap between the members and their stored face values, as
    (delta, gap) rows; NaN when a window holds a NaN.  Each slice of the
    face's axis is compared with its own stored node value, as the ladder
    reads it, so the gap on a window is the larger of hi - stored and
    stored - lo.
    derivs holds the members' quotient derivatives, one list per
    multi-index, as _family_quotient_derivatives builds them."""
    f0 = family[0]
    out = {}
    for face in f0.face_labels():
        worst = 0.0
        for p, members in derivs.items():
            for g, v in zip(family, members):
                stored = g.infinity.get(face, {}).get(p)
                if stored is None:
                    raise FaceLimitError(face)
                stored = np.ravel(stored)
                # the windows' extremes; the ladders' results go unread
                hi, lo, _ = _face_ladders(f0, v, face, 0.0)
                worst = np.maximum(worst, np.maximum(hi - stored,
                                                     stored - lo).max(axis=1))
        out[face] = [(2.0 ** -(k + 1), gap)
                     for k, gap in enumerate(worst.tolist())]
    return out


def precompactness_report(family):
    """Evaluate the three sufficient conditions for precompactness of a
    family on one grid, as the JSON-ready {"bounded", "bound",
    "equicontinuous", "equiconvergent", "worst_deviation"}:

    bound: sup of |d_p(f/phi)| over the family; bounded: bound is finite.
    equicontinuous: for every axis and every eps in the ladder
        _EPS_LADDER some probed delta had that axis's modulus below eps.
    equiconvergent: for every infinity face and every eps some window of
        that face had every member within eps of its stored face value.
    worst_deviation: the largest, over the faces, of each face's smallest
        window deviation (0 on a map without faces).

    The members' quotient derivatives are read where they lie (for weight 1
    and order 0, the samples themselves); only equicontinuity_modulus copies
    them, one block of _MEMBER_BLOCK members at a time.  bound is np.max of
    the per-member maxima, so a NaN member makes it NaN and the family
    unbounded."""
    if not family:
        raise ValueError("empty family")
    derivs = _family_quotient_derivatives(family)
    bound = float(np.max([np.max(np.abs(v)) for members in derivs.values()
                          for v in members]))
    bounded = math.isfinite(bound)
    # each axis and each face must reach every eps on its own rows
    modulus = equicontinuity_modulus(family, derivs).values()
    equicont = all(any(w < eps for _, w in rows)
                   for rows in modulus for eps in _EPS_LADDER)
    deviations = equiconvergence_deviation(family, derivs).values()
    equiconv = all(any(d < eps for _, d in rows)
                   for rows in deviations for eps in _EPS_LADDER)
    worst = max((min(d for _, d in rows) for rows in deviations),
                default=0.0)
    return {"bounded": bounded, "bound": bound, "equicontinuous": equicont,
            "equiconvergent": equiconv, "worst_deviation": worst}


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


def gaussian_family(n_max, truncation=48.0, step=0.005):
    """Unit Gaussians centred at 2..n_max as weight-1 grid functions."""
    xs = np.arange(0.0, truncation + step / 2, step)
    cmap = ProductCompactification((HalfLineOnePoint(),))
    fam = []
    for c in range(2, n_max + 1):
        samples = np.exp(-(xs - c) ** 2)
        faces = {"axis0:inf": {(0,): 0.0}}
        fam.append(WeightedGridFunction((xs,), samples, None, 0, cmap,
                                        faces))
    return fam


def gaussian_family_separation(n_max):
    """Minimum pairwise sup-distance of the translating Gaussian family,
    sampled at step 1e-3."""
    xs = np.arange(0.0, n_max + 6.0, 1e-3)
    vals = [np.exp(-(xs - c) ** 2) for c in range(2, n_max + 1)]
    best = math.inf
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            best = min(best, float(np.abs(vals[i] - vals[j]).max()))
    return best


# ---------------------------------------------------------------------------
# serialization: samples to CSV, everything else to a JSON sidecar


#: the header line of a grid-function CSV; the values below it are u/phi
_CSV_HEADER = "u/phi"
#: values formatted with one "%.17g" template per write; a bounded chunk
#: keeps the writer's memory small at any grid size.  A chunk's Python
#: floats, tuple and string are the last allocation of a solve, so a chunk
#: must stay small (about 0.3 MB at 4096 values) not to set its peak RSS
_CSV_CHUNK = 1 << 12


def _p_key(p):
    return ",".join(str(k) for k in p)


def _p_unkey(s):
    return tuple(int(k) for k in s.split(","))


def save_grid_function(f, csv_path):
    """Write the quotient q = u/phi as CSV plus a JSON sidecar.

    The CSV is the header line "u/phi" and then f.quotient(), one "%.17g"
    value per line, flattened in C order of the axes; the sidecar holds the
    axes, the weight's name, the order, the names of the map's factors,
    one per axis, and the infinity-face data, so u = phi q is recovered by
    load_grid_function.  Raises WeightUnderflowError, before it creates a
    file, for a grid function without a kept quotient whose weight is 0 on
    its grid.
    """
    flat = f.quotient().ravel()
    with open(csv_path, "w", newline="") as fh:
        fh.write(_CSV_HEADER + "\r\n")
        for start in range(0, flat.size, _CSV_CHUNK):
            chunk = flat[start:start + _CSV_CHUNK].tolist()
            fh.write(("%.17g\r\n" * len(chunk)) % tuple(chunk))
    side = {
        "weight": f.weight_desc,
        "order": f.order,
        "cmap": [fac.name for fac in f.cmap.factors],
        "axes": [list(a) for a in f.axes],
        "infinity": {face: {_p_key(p): (v.tolist() if isinstance(v, np.ndarray)
                                        else float(v))
                            for p, v in per_p.items()}
                     for face, per_p in f.infinity.items()},
    }
    with open(str(csv_path) + ".json", "w") as fh:
        json.dump(side, fh, indent=1, sort_keys=True)


def load_grid_function(csv_path):
    """Read a grid function written by save_grid_function.

    Returns WeightedGridFunction.from_quotient of the saved q, so the
    loaded quotient() is bitwise the saved one and the samples are phi q.
    Raises ValueError naming the file when the header is not "u/phi" (for
    example an older x,y,value file), the number of values does not match
    the sidecar's axes, the sidecar lacks a key, its "weight" is not a
    WEIGHT_REGISTRY name, its "cmap" is not a list of NAMED_MAPS names, one
    per axis (an older file's single name included), or the constructor
    refuses its order or its "infinity" data (a face that map does not
    have, a value of another shape).
    """
    with open(str(csv_path) + ".json") as fh:
        side = json.load(fh)
    missing = {"axes", "cmap", "infinity", "order", "weight"} - set(side)
    if missing:
        raise ValueError(f"{csv_path}: the sidecar has no "
                         f"{', '.join(sorted(missing))}")
    weight = side["weight"]
    if not isinstance(weight, str) or weight not in WEIGHT_REGISTRY:
        raise ValueError(f"{csv_path}: unknown weight {weight!r}; the "
                         f"sidecar names one of {list(WEIGHT_REGISTRY)}")
    axes = tuple(np.asarray(a, dtype=float) for a in side["axes"])
    shape = tuple(len(a) for a in axes)
    names = side["cmap"]
    if not isinstance(names, list) or len(names) != len(axes):
        raise ValueError(f"{csv_path}: sidecar cmap {names!r} is not a list "
                         f"of {len(axes)} map names, one per axis")
    for name in names:
        if not isinstance(name, str) or name not in NAMED_MAPS:
            raise ValueError(f"{csv_path}: unknown compactification "
                             f"{name!r}")
    cmap = ProductCompactification(NAMED_MAPS[name]() for name in names)
    with open(csv_path, newline="") as fh:
        lines = fh.read().splitlines()
    header = lines[0] if lines else ""
    if header != _CSV_HEADER:
        raise ValueError(f"{csv_path}: header {header!r} is not "
                         f"{_CSV_HEADER!r}")
    if len(lines) - 1 != math.prod(shape):
        raise ValueError(f"{csv_path}: {len(lines) - 1} values for the "
                         f"{math.prod(shape)} nodes of the sidecar's axes")
    q = np.array(lines[1:], dtype=float).reshape(shape)
    infinity = {face: {_p_unkey(k): (np.asarray(v, dtype=float)
                                     if isinstance(v, list) else float(v))
                       for k, v in per_p.items()}
                for face, per_p in side["infinity"].items()}
    try:
        return WeightedGridFunction.from_quotient(
            axes, q, WEIGHT_REGISTRY[weight], side["order"], cmap, infinity)
    except ValueError as err:
        raise ValueError(f"{csv_path}: {err}") from err
