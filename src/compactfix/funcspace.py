"""Weighted grid functions on compactified domains.

A function f is stored by its samples, or by its quotient f/phi, on a
rectangular grid together with the values of f/phi on the infinity faces
of the compactification.  The norm is the sup of |f/phi| over the grid and
over the stored face values.  A grid function is saved as its quotient
u/phi, one value per line, with a JSON sidecar for the axes, the weight's
name, the names of its map's factors and the face values.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
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
#: the tolerance of every grid face ladder: face_limit's, so gamma's too
FACE_TOL = 1e-4


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
    cmap : the compactification the infinity faces refer to, a
        ProductCompactification of one NAMED_MAPS map per axis; by default
        a half line times one interval per further axis.
    infinity : {face_label: {(0,) * ndim: value}}, the value of f/phi on
        the face: an array over the nodes of the other axes (a scalar on a
        1-d grid).
    weight_desc : optional check, the WEIGHT_REGISTRY name of weight.

    ValueError for a weight or a map without a name, so that everything a
    grid function holds can be named in its file, and for infinity data
    under a label that is not one of face_labels(), under another key or
    of another shape.  A grid function stores only the array it was given:
    u here, q = u/phi through from_quotient and image(quotient=True).
    Its faces are the ones it was given, or those that attach_faces
    stores, except on an operator image (greenop.apply_T marks it with
    faces_on_read): there the first read of infinity reads them off the
    grid, so a face ladder's error surfaces at that read.
    """

    def __init__(self, axes, samples, weight=None, cmap=None, infinity=None,
                 weight_desc=None):
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
        key = (0,) * self.ndim
        for label, stored in self.infinity.items():
            if label not in faces:
                raise ValueError(f"infinity face {label!r} is not a face of "
                                 f"the map, whose faces are {faces}")
            shape = tuple(len(a) for a in _other_axes(self, label))
            got = {k: np.shape(v) for k, v in stored.items()}
            if got != {key: shape}:
                raise ValueError(
                    f"infinity face {label!r} holds {got}, keys and their "
                    f"values' shapes; it takes {{{key}: {shape}}}")
        # weight 1 is a view of one 1.0, not ones as long as a 1-d grid
        column = (len(self.axes[0]),) + (1,) * (self.ndim - 1)
        self._phi = (np.broadcast_to(1.0, column)
                     if self.weight is _unit_weight
                     else np.reshape(self.weight(self.axes[0]), column))

    @classmethod
    def from_quotient(cls, axes, q, weight=None, cmap=None, infinity=None):
        """The grid function u = phi q that stores q itself: quotient()
        returns q, so nothing divides phi back out (q stays exact where phi
        underflows to 0 and u with it)."""
        out = cls(axes, q, weight, cmap, infinity)
        out._holds_q = True
        return out

    def image(self, values, quotient=False):
        """A grid function on this one's grid, weight and
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
    def infinity(self):
        """The stored face values, {face_label: {(0,) * ndim: value}}.
        While the faces are due (faces_on_read), a read first runs
        attach_faces(self) at FACE_TOL, so a ladder's FaceLimitError, or
        the WeightUnderflowError of a quotient that phi cannot divide,
        surfaces here; once it has run, reads return the stored dict."""
        if self._faces_due:
            attach_faces(self)
        return self._infinity

    @infinity.setter
    def infinity(self, faces):
        self._infinity = faces
        self._faces_due = False

    def faces_on_read(self):
        """Drop the stored faces and mark them due: the first read of
        infinity reads them off the stored array (see infinity), which
        must not change before then.  Returns self."""
        self._infinity = {}
        self._faces_due = True
        return self

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

    def face_limit(self, face):
        """Windowed limits of f/phi at an infinity face at FACE_TOL, from
        grid data (see _face_ladders): one LimitResult per slice of the
        face's axis, in C order of the other axes' nodes (one in 1-d)."""
        return _face_ladders(self, self.quotient(), face, FACE_TOL)[2]


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


def _stored_face(f, face):
    """The stored value of f/phi on face, or None."""
    return f.infinity.get(face, {}).get((0,) * f.ndim)


def _sup_abs(arrays):
    """The largest |value| over arrays; NaN when any value is NaN."""
    return float(np.max([np.max(np.abs(a)) for a in arrays]))


def weighted_norm(f):
    """sup |f/phi| over the grid and the stored face values; NaN when any
    of them is NaN."""
    return _sup_abs([f.quotient(), *(_stored_face(f, face)
                                     for face in f.infinity)])


@dataclass
class GammaFunction:
    """Trace of f/phi on the compactified space.

    values are f/phi on the grid; infinity holds the face values.
    gamma is linear in f and bounded by the weighted norm.
    """

    values: np.ndarray
    infinity: dict

    def sup(self):
        """The largest |value| on the grid and the faces; NaN when any
        value is NaN."""
        return _sup_abs([self.values, *self.infinity.values()])


def gamma(f):
    """The map f -> continuous extension of f/phi to the compactification.

    Face values are taken from storage when present and otherwise read
    from the grid by face_limit; a face whose grid limit does not converge
    raises FaceLimitError naming the face.
    """
    inf_vals = {}
    for face in f.face_labels():
        stored = _stored_face(f, face)
        if stored is not None:
            inf_vals[face] = np.asarray(stored, dtype=float)
            continue
        results = f.face_limit(face)
        for nodes, res in zip(itertools.product(*_other_axes(f, face)),
                              results):
            if not res.converged:
                raise FaceLimitError(
                    face + "".join(f"@{n:.6g}" for n in nodes), res)
        inf_vals[face] = _face_values(f, face, results)
    return GammaFunction(f.quotient(), inf_vals)


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


def attach_faces(f):
    """Read every infinity face of f/phi by face_limit and store the values
    of each face whose slices all converged as f's values there
    (_face_values); a face with a slice that did not converge gets none.
    The faces are no longer due (WeightedGridFunction.faces_on_read) once
    every ladder has run.  Returns {face: face_limit's results}."""
    out = {}
    for face in f.face_labels():
        results = out[face] = f.face_limit(face)
        if all(res.converged for res in results):
            f._infinity[face] = {(0,) * f.ndim:
                                 _face_values(f, face, results)}
    f._faces_due = False
    return out


# ---------------------------------------------------------------------------
# precompactness diagnostics


# the tolerances that the equicontinuity and equiconvergence checks of
# precompactness_report must each reach at some probed delta
_EPS_LADDER = (0.1, 0.03, 0.01)
# family members per block of equicontinuity_modulus's window passes
_MEMBER_BLOCK = 8
# equicontinuity_modulus's widest shift, in nodes
_MAX_SHIFT = 64


def _family_quotients(family):
    """The list of the members' quotients f/phi, after checking that the
    members share one grid.  Nothing is stacked: for weight 1 the arrays
    are the members' own samples, so the family is read in place."""
    f0 = family[0]
    for g in family[1:]:
        if g.ndim != f0.ndim or any(len(a) != len(b) or not np.allclose(a, b)
                                    for a, b in zip(g.axes, f0.axes)):
            raise ValueError("family members must share one grid")
    return [g.quotient() for g in family]


def equicontinuity_modulus(family, quotients):
    """{axis: rows}: omega(delta) = worst |v(x) - v(y)| over |x - y| <= delta
    along the axis, as (delta, omega) rows for delta = h times each power
    of two up to _MAX_SHIFT = 64; ValueError, before any work, names an
    axis with no more nodes than _MAX_SHIFT.

    The worst difference over node distances up to w is the largest
    max - min over the windows of w + 1 consecutive nodes.  The windows are
    built by doubling on a stack of _MEMBER_BLOCK members at a time, so
    no more than one block is ever copied: the window maxima of span 2w
    are the pairwise maxima of the span-w maxima w nodes apart.  A NaN
    anywhere in the family makes every omega NaN.  quotients holds the
    members' quotients, as _family_quotients builds them.
    """
    f0 = family[0]
    for axis, nodes in enumerate(f0.axes):
        if len(nodes) <= _MAX_SHIFT:
            raise ValueError(f"equicontinuity_modulus needs more than "
                             f"{_MAX_SHIFT} nodes on every axis, its widest "
                             f"shift; axis {axis} has {len(nodes)}")
    spans = [2 ** k for k in range(_MAX_SHIFT.bit_length())]
    out = {}
    for axis in range(f0.ndim):
        h = float(np.min(np.diff(f0.axes[axis])))
        worst = np.zeros(len(spans))
        for b in range(0, len(family), _MEMBER_BLOCK):
            hi = lo = np.moveaxis(np.stack(quotients[b:b + _MEMBER_BLOCK]),
                                  axis + 1, -1)
            for k, span in enumerate(spans):
                step = span - span // 2
                hi = np.maximum(hi[..., :-step], hi[..., step:])
                lo = np.minimum(lo[..., :-step], lo[..., step:])
                worst[k] = np.maximum(worst[k], np.max(hi - lo))
        out[axis] = [(span * h, float(w)) for span, w in zip(spans, worst)]
    return out


def equiconvergence_deviation(family, quotients):
    """{face: rows}: per window of the face's ladder (_face_ladders), the
    worst gap between the members and their stored face values, as
    (delta, gap) rows; NaN when a window holds a NaN.  Each slice of the
    face's axis is compared with its own stored node value, as the ladder
    reads it, so the gap on a window is the larger of hi - stored and
    stored - lo.
    quotients holds the members' quotients, as _family_quotients builds
    them."""
    f0 = family[0]
    out = {}
    for face in f0.face_labels():
        worst = 0.0
        for g, v in zip(family, quotients):
            stored = _stored_face(g, face)
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

    bound: sup of |f/phi| over the family; bounded: bound is finite.
    equicontinuous: for every axis and every eps in the ladder
        _EPS_LADDER some probed delta had that axis's modulus below eps.
    equiconvergent: for every infinity face and every eps some window of
        that face had every member within eps of its stored face value.
    worst_deviation: the largest, over the faces, of each face's smallest
        window deviation (0 on a map without faces).

    The members' quotients are read where they lie (for weight 1, the
    samples themselves); only equicontinuity_modulus copies them, one block
    of _MEMBER_BLOCK members at a time.  bound is np.max of the per-member
    maxima, so a NaN member makes it NaN and the family unbounded."""
    if not family:
        raise ValueError("empty family")
    quotients = _family_quotients(family)
    bound = _sup_abs(quotients)
    bounded = math.isfinite(bound)
    # each axis and each face must reach every eps on its own rows
    modulus = equicontinuity_modulus(family, quotients).values()
    equicont = all(any(w < eps for _, w in rows)
                   for rows in modulus for eps in _EPS_LADDER)
    deviations = equiconvergence_deviation(family, quotients).values()
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
        fam.append(WeightedGridFunction((xs,), samples, None, cmap, faces))
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
#: values formatted per write (_format_17g); a bounded chunk keeps the
#: writer's memory small at any grid size.  A chunk's arrays are the last
#: allocation of a solve, so they must stay small not to set its peak RSS:
#: they peak at about 125 bytes a value, 0.49 MB at 4096 values.  Halving
#: the chunk saves no measurable RSS and costs a fifth more writer time in
#: numpy's per-call overhead
_CSV_CHUNK = 1 << 12

#: 10^k for k = 0..22, each an exact double
_POW10 = 10.0 ** np.arange(23)
#: 2^27 + 1: splits a double into two halves of at most 26 bits
_SPLITTER = 134217729.0


def _split(a):
    """Veltkamp's split: (hi, lo) with hi + lo == a, each of 26 bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _times_pow10(a, k):
    """Dekker's error-free product: (p, err) with p + err == a * 10^k
    exactly, p the rounded product, for 0 <= k <= 22."""
    p = a * _POW10[k]
    ah, al = _split(a)
    bh, bl = _POW10_HI[k], _POW10_LO[k]
    err = ah * bh - p
    err += ah * bl
    err += al * bh
    err += al * bl
    return p, err


def _decimal17(x):
    """(D, E, slow) for the 1-D float array x: D the 17 significant digits
    of |x| rounded half to even and E its decimal exponent, so that
    10^16 <= D < 10^17 and |x| = D 10^(E-16) up to the rounding.  They are
    computed for |x| in (1e-6, 1e17), where -6 <= E <= 16, and 0 has D = 0
    and E = 0; slow indexes the other entries, whose D and E are those
    of 1."""
    a = np.abs(x)
    fast = (a > 1e-6) & (a < 1e17)
    zero = np.flatnonzero(a == 0)
    a[~fast] = 1.0
    e = np.log10(a)
    np.floor(e, out=e)
    k = 16 - np.clip(e, -6, 16).astype(np.intp)
    # log10 rounds, so E may be one off next to a power of ten; the exact
    # a 10^(16-E) then falls outside [10^16, 10^17) and corrects it
    p, err = _times_pow10(a, k)
    low = (p < 1e16) | ((p == 1e16) & (err < 0))
    off = np.flatnonzero(low | (p > 1e17) | ((p == 1e17) & (err >= 0)))
    if off.size:
        k[off] += np.where(low[off], 1, -1)
        p[off], err[off] = _times_pow10(a[off], k[off])
    # p >= 2^53 is an even integer, so rounding err half to even rounds
    # p + err half to even.  It never carries to 10^17: no double in
    # (1e-6, 1e17) lies within half a 17th digit below a power of ten
    d = p.astype(np.int64)
    d += np.rint(err).astype(np.int64)
    d[zero] = 0
    return d, 16 - k, np.flatnonzero(~fast & (x != 0))


def _write_digits(digits, d):
    """Write the 17 decimal digits of each d < 10^17 to the 17 rows of the
    uint8 array digits, most significant first, as the numbers 0-9.  Each
    half of d fits int32; row j first takes the half's leading j + 1
    digits mod 256, which keeps the digit lead_j - 10 lead_(j-1)."""
    top = d // 10 ** 9
    for rows, part in ((digits[:8], top), (digits[8:], d - top * 10 ** 9)):
        part = part.astype(np.int32)
        for j, row in enumerate(rows):
            row[:] = part // 10 ** (len(rows) - 1 - j)
        rows[1:] -= 10 * rows[:-1]


#: the bytes of one value in _byte_grid, one row per byte: its sign, the
#: "0." and -E-1 zeros of 1e-4 <= |v| < 1, 17 digit rows, each of the first
#: 16 followed by a point row, the "e-0d" of |v| < 1e-4 and "\r\n"; a row
#: left 0 is no byte
_PREFIX, _DIGITS, _SUFFIX, _WIDTH = 1, 6, 39, 45
#: the prefix and the suffix by E = -6..16, one column each
_PREFIXES = np.frombuffer(b"".join(
    b"0.000"[:1 - e].ljust(5, b"\0") if -4 <= e < 0 else bytes(5)
    for e in range(-6, 17)), np.uint8).reshape(23, 5).T
_SUFFIXES = np.frombuffer(b"".join(
    b"e-0%d" % -e if e < -4 else bytes(4)
    for e in range(-6, 17)), np.uint8).reshape(23, 4).T


def _byte_grid(x):
    """The bytes of b"%.17g\\r\\n" % v for each v of the 1-D float array x,
    as a (_WIDTH, x.size) uint8 grid whose 0 bytes are no bytes."""
    n = x.size
    d, e, slow = _decimal17(x)
    grid = np.zeros((_WIDTH, n), np.uint8)
    grid[0] = np.signbit(x) * ord("-")
    grid[_PREFIX:_PREFIX + 5] = _PREFIXES.take(e + 6, axis=1)
    grid[_SUFFIX:_SUFFIX + 4] = _SUFFIXES.take(e + 6, axis=1)
    grid[-2:] = np.frombuffer(b"\r\n", np.uint8)[:, None]
    digits = grid[_DIGITS:_DIGITS + 33:2]
    _write_digits(digits, d)
    # fixed notation prints its F = E + 1 integer digits, the others at
    # least one digit; a digit is printed when it is one of these, or when
    # it or a digit after it is nonzero
    first = np.maximum(e + 1, 1)
    cols = np.arange(n)
    kept = np.zeros((18, n), bool)
    np.not_equal(digits, 0, out=kept[:17])
    kept.reshape(-1)[(first - 1) * n + cols] = True
    for j in range(15, -1, -1):
        kept[j] |= kept[j + 1]
    digits += ord("0")
    digits *= kept[:17]
    # the point follows the first F digits when a digit follows it; at
    # 1e-4 <= |v| < 1 it is the prefix's.  (At E = 16 its row is the
    # suffix's first, and no digit follows.)
    point = kept.reshape(-1)[first * n + cols] & ((e >= 0) | (e < -4))
    grid.reshape(-1)[(_DIGITS + 2 * first - 1) * n + cols] = \
        point * ord(".")
    if slow.size:
        grid[:, slow] = np.array([b"%.17g\r\n" % v for v in x[slow].tolist()],
                                 dtype=f"S{_WIDTH}").view(np.uint8).reshape(
                                     -1, _WIDTH).T
    return grid


def _format_17g(values):
    """b"%.17g\\r\\n" % v for each v of the 1-D float array values, joined.

    0 and |v| in (1e-6, 1e17) are formatted in numpy from their exact 17
    digits (_decimal17); non-finite values and the others take Python's
    "%" one value at a time.
    """
    return _byte_grid(values).T.tobytes().translate(None, b"\0")


def save_grid_function(f, csv_path):
    """Write the quotient q = u/phi as CSV plus a JSON sidecar.

    The CSV is the header line "u/phi" and then f.quotient(), one "%.17g"
    value per line, flattened in C order of the axes; the sidecar holds the
    axes, the weight's name, the names of the map's factors, one per axis,
    and one value per stored infinity face (a number, or a list over the
    other axes' nodes), so u = phi q is recovered by load_grid_function.
    The values are formatted in numpy a chunk at a time (_format_17g),
    byte for byte what "%.17g" prints.  Raises, before it creates a file,
    WeightUnderflowError for a grid function without a kept quotient whose
    weight is 0 on its grid, and the ladder error of a face that is due
    (WeightedGridFunction.infinity).
    """
    flat = f.quotient().ravel()
    side = {
        "weight": f.weight_desc,
        "cmap": [fac.name for fac in f.cmap.factors],
        "axes": [list(a) for a in f.axes],
        "infinity": {face: np.asarray(_stored_face(f, face),
                                      dtype=float).tolist()
                     for face in f.infinity},
    }
    with open(csv_path, "wb") as fh:
        fh.write(_CSV_HEADER.encode() + b"\r\n")
        for start in range(0, flat.size, _CSV_CHUNK):
            fh.write(_format_17g(flat[start:start + _CSV_CHUNK]))
    with open(str(csv_path) + ".json", "w") as fh:
        json.dump(side, fh, indent=1, sort_keys=True)


def load_grid_function(csv_path):
    """Read a grid function written by save_grid_function.

    Returns WeightedGridFunction.from_quotient of the saved q, so the
    loaded quotient() is bitwise the saved one and the samples are phi q.
    Raises ValueError naming the file when the header is not "u/phi" (an
    older x,y,value file), a value is not a number or the number of values
    does not match the sidecar's axes, the sidecar's keys are not exactly
    "axes", "cmap", "infinity" and "weight" (an older file's "order"), its
    "axes" is not a list of lists of numbers, its "weight" is not a
    WEIGHT_REGISTRY name, its "cmap" is not a list of NAMED_MAPS names,
    one per axis (an older file's single name), its "infinity" is not an
    object whose face values are numbers or lists (an older file's
    {"0,0": ...}), or the constructor refuses that data (a face that map
    does not have, a value of another shape).
    """
    with open(str(csv_path) + ".json") as fh:
        side = json.load(fh)
    if sorted(side) != ["axes", "cmap", "infinity", "weight"]:
        raise ValueError(f"{csv_path}: the sidecar has keys {sorted(side)}; "
                         "it takes exactly axes, cmap, infinity and weight")
    weight = side["weight"]
    if not isinstance(weight, str) or weight not in WEIGHT_REGISTRY:
        raise ValueError(f"{csv_path}: unknown weight {weight!r}; the "
                         f"sidecar names one of {list(WEIGHT_REGISTRY)}")
    axes = side["axes"]
    if not (isinstance(axes, list) and axes and all(
            isinstance(a, list) and all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in a) for a in axes)):
        raise ValueError(f"{csv_path}: sidecar axes is not a list of lists "
                         "of numbers, one per axis")
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
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
    try:
        q = np.array(lines[1:], dtype=float).reshape(shape)
    except ValueError as err:
        raise ValueError(f"{csv_path}: {err}") from err
    faces = side["infinity"]
    if not isinstance(faces, dict):
        raise ValueError(f"{csv_path}: infinity {faces!r} is not an object")
    try:
        infinity = {}
        for face, v in faces.items():
            if isinstance(v, bool) or not isinstance(v, (int, float, list)):
                raise ValueError(f"infinity face {face!r} holds a "
                                 f"{type(v).__name__}, not a number or a list")
            infinity[face] = {(0,) * len(axes): np.asarray(v, dtype=float)
                              if isinstance(v, list) else float(v)}
        return WeightedGridFunction.from_quotient(
            axes, q, WEIGHT_REGISTRY[weight], cmap, infinity)
    except ValueError as err:
        raise ValueError(f"{csv_path}: {err}") from err
