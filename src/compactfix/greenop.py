"""Hammerstein-type integral operators on the compactified half-strip.

The operator is Tu(x, y) = integral over {t <= x, s <= y} of
kx(x, t) f(t, s, u(t, s)) dt ds, acting on weighted grid functions
over [0, inf) x [0, 1].  Two evaluation paths: a cumulative-quadrature grid
path (used by the solver) and an independent cross-check path that reads u
from its bicubic spline and integrates all nodes at once.

The grid path works in quotient coordinates when the problem carries its
quotient form: with f(t, s, phi(t) q) = phi(t)^2 q_eval(t, s, q), the
quotient q = u/phi satisfies q = int int qx(x, t) q_eval(t, s, q) ds dt
with qx(x, t) = kx(x, t) phi(t)^2 / phi(x).  For the case study qx is
exp(-(x - 2t)^2 / 2): no factor under- or overflows, and it is below 2^-53
of its row peak once |t - x/2| > 4.3.  The grid operator stores the x-rule
times qx in row blocks, each over its column band only: the causal range
[0, x_i], trimmed to the columns where qx reaches 2^-53 of its row peak;
a problem without a quotient form goes through the same blocks with kx
over the whole causal range.  The infinity-face values of Tu are read off
its grid samples by the windowed face ladders of funcspace.face_profile.

Every integral outside the grid path uses one rule: a composite 16-node
Gauss-Legendre rule whose panels are doubled until two levels agree to tol
(the two-rule estimate of Gander & Gautschi, "Adaptive quadrature -
revisited", BIT 2000).  panel_quadrature applies it to many 1-d intervals
at once; the cross-check path applies it in 2-d.  With it the module
estimates the kernel bounds that the contraction/index arguments need: the
absolute kernel integral, the weighted sup profile M_p, the face limits
z_p of the weighted kernel columns, the continuity modulus w_p, and their
L1 products against a dominating envelope Phi_r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .compactify import HalfLineOnePoint, kappa_limit
from .funcspace import face_profile, quotient_derivative

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# the panel rule: at most 2^_MAX_PANEL_LEVEL panels per interval; the 2-d
# route evaluates f _T_BLOCK t-nodes at a time to bound memory
_MAX_PANEL_LEVEL = 6
_T_BLOCK = 32
# rows per block of kernel_row_blocks (the grid operator, the residual)
_ROW_BLOCK = 64
# kernel columns per block of the hypothesis report's sup profiles
_T_COLUMNS = 64
# oscillation tolerance of the face ladders of apply_T and picard_solve
FACE_TOL = 1e-4


class QuadratureError(Exception):
    def __init__(self, msg, last_estimate=None):
        super().__init__(msg)
        self.last_estimate = last_estimate


def _gl_panels(lo, hi, level):
    """The 16-node Gauss-Legendre rule on 2^level equal panels of each
    interval [lo_i, hi_i]: nodes and weights, one row per interval.
    A reversed interval counts as empty: its weights are 0."""
    n = 2 ** level
    width = np.maximum(hi - lo, 0.0)[:, None]
    start = lo[:, None] + width * (np.arange(n) / n)
    half = 0.5 * width / n
    nodes = (start + half)[..., None] + half[..., None] * _GL_NODES
    weights = np.broadcast_to(half[..., None] * _GL_WEIGHTS, nodes.shape)
    return nodes.reshape(len(lo), -1), weights.reshape(len(lo), -1)


def _settle(level_integrals, tol):
    """level_integrals(L) for L = 0, 1, ...; returns level L + 1 once the
    max over all its entries of |I_L - I_{L+1}| is at most tol.

    QuadratureError if a level is not finite or the values have not
    settled by _MAX_PANEL_LEVEL.
    """
    prev = None
    for level in range(_MAX_PANEL_LEVEL + 1):
        total = level_integrals(level)
        if not np.all(np.isfinite(total)):
            raise QuadratureError(
                f"integrand not finite at panel level {level}",
                last_estimate=total)
        if prev is not None:
            gap = np.max(np.abs(total - prev), initial=0.0)
            if gap <= tol:
                return total
        prev = total
    raise QuadratureError(
        f"no convergence by panel level {_MAX_PANEL_LEVEL}: two-level "
        f"difference {gap:.3g} > {tol:g}", last_estimate=total)


def panel_quadrature(g, a, b, tol=1e-10):
    """I[i] = integral of g over [a_i, b_i], every interval at once.

    g maps an (m, k) array of nodes, row i in [a_i, b_i], to values of the
    same shape.  Every interval gets 2^L equal panels of the 16-node
    Gauss-Legendre rule, doubling L until two levels agree to tol (see
    _settle).  An empty or reversed interval gives 0.
    """
    a, b = np.atleast_1d(*np.broadcast_arrays(a, b))

    def level_integrals(level):
        nodes, weights = _gl_panels(a, b, level)
        return np.sum(weights * g(nodes), axis=1)

    return _settle(level_integrals, tol)


def _unit_interval_integrals(f, t, tol):
    """int_0^1 f(t_i, s) ds for every entry t_i of t, in one call, shaped
    like t; f is vectorised."""
    rows = np.reshape(t, (-1, 1))
    zeros = np.zeros(len(rows))
    return panel_quadrature(lambda s: f(rows, s), zeros, zeros + 1.0,
                            tol).reshape(np.shape(t))


def _unit_strip_integral(f, t_top, tol):
    """int_0^t_top int_0^1 f(t, s) ds dt for a vectorised f."""
    return float(panel_quadrature(
        lambda t: _unit_interval_integrals(f, t, tol), 0.0, t_top, tol)[0])


def gaussian_tail(c, scale=1.0):
    """Certified bound b -> scale * exp(-c b^2) / (2 c b) for the e^{-c t^2} tail."""
    def bound(b):
        if b <= 0:
            return math.inf
        return scale * math.exp(-c * b * b) / (2.0 * c * b)
    return bound


# ---------------------------------------------------------------------------
# problem ingredients


@dataclass
class Kernel:
    """Causal kernel kx(x, t) on {0 <= t <= x, 0 <= s <= y}; the y
    direction carries the constant factor 1.

    kx is a vectorized callable.  abs_integral, when given, is the closed
    form of the absolute integral over the causal box at an output point
    (x, y).  weighted_sup, when given, is the analytic value of
    sup_x |kx(x,t)/phi(x)| as a function of the integration point.
    weighted_quotient(x, t), when given, evaluates kx(x, t)/phi(x) in a
    float-safe way (combining exponents before exponentiating); without it
    the hypothesis checker divides the raw factors, which turns into 0/0
    once both underflow.  dkx(x, t), when given, is the vectorized partial
    derivative of kx in its first argument; the residual of the
    differentiated equation (solver.pde_residual) needs it.  The
    infinity-face values of Tu are always read off its grid samples
    (funcspace.face_profile); a kernel carries no closed form for them.

    qx is the kernel's half of the problem's quotient form (see
    Nonlinearity.q_eval): qx(x, t) = kx(x, t) phi(t)^2 / phi(x), evaluated
    from one combined exponent.
    """

    name: str
    kx: object
    abs_integral: object = None
    weighted_sup: object = None
    weighted_quotient: object = None
    dkx: object = None
    qx: object = None


@dataclass
class Dominator:
    """Phi_r(t, s), called like a function.  tail_scale, when given, is a
    c with int_0^1 Phi_r(t, s) ds <= c exp(-t^2) for every t >= 0, the
    certificate of Phi_r's Gaussian tail; None means Phi_r has none."""

    fn: object
    tail_scale: float = None

    def __call__(self, t, s):
        return self.fn(t, s)


@dataclass
class Nonlinearity:
    """Forcing term f(t, s, v), assumed nonnegative on the cone.

    dominator(r) must return a Dominator Phi_r with
    f(t, s, v) <= Phi_r(t, s) whenever |v| <= r * phi(t, s).  q_eval, when
    given, is the nonlinearity's half of the problem's quotient form:
    q_eval(t, s, q) = f(t, s, phi(t) q) / phi(t)^2, so that q = u/phi
    solves q = int int Kernel.qx(x, t) q_eval(t, s, q) ds dt.
    """

    name: str
    eval: object
    dominator: object = None
    params: dict = field(default_factory=dict)
    q_eval: object = None


def kernel_abs_integral(kernel, xs, ys, tol=1e-8):
    """Quadrature table of the absolute kernel integral: entry [i, j] is
    int_0^{x_i} |kx(x_i, t)| dt times y_j, and 0 where x_i <= 0 or
    y_j <= 0."""
    xs, ys = np.atleast_1d(xs, ys)
    ix = panel_quadrature(lambda t: np.abs(kernel.kx(xs[:, None], t)), 0.0,
                          xs, tol)
    return ix[:, None] * np.maximum(ys, 0.0)[None, :]


# ---------------------------------------------------------------------------
# grid path: cumulative quadrature weights and the banded operator


def _uniform_step(nodes):
    """The step of a uniform grid (0 for fewer than two nodes); ValueError
    when the spacing is not uniform."""
    if len(nodes) < 2:
        return 0.0
    steps = np.diff(nodes)
    h = steps[0]
    # np.allclose(steps, h, rtol=1e-10, atol=1e-14) spelled out: allclose
    # takes 26 us on 16 steps against 6 us for this, and a grid apply_T
    # on a 17x9 cone grid (0.13-0.2 ms) checks both axes
    if not np.all(np.abs(steps - h) <= 1e-14 + 1e-10 * abs(h)):
        raise ValueError("cumulative weights need a uniform grid")
    return h


def cumulative_weight_block(h, a, b, c0, c1):
    """Rows a..b-1, columns c0..c1-1 of cumulative_weights on a uniform
    grid of step h, without forming the rest of the matrix.

    Every row i other than 0, 1 and 3 is the Simpson interior (h/3 at
    column 0, then 4h/3 and 2h/3 by column parity) up to its last panel;
    that panel and the zeros beyond it depend only on the parity of i and
    on d = i - k: h/3 at d = 0 for even rows, the 3/8 rule on d = 3..0 for
    odd rows.  Below column a - 3 every row of the block is interior.
    """
    k = np.arange(c0, c1)
    W = np.empty((b - a, c1 - c0))
    W[:] = np.where(k % 2 == 1, 4.0 * h / 3.0, 2.0 * h / 3.0)
    if c0 == 0 < c1:
        W[:, 0] = h / 3.0
    near = min(max(a - 3, c0), c1) - c0
    rows = np.arange(a, b)[:, None]
    d = rows - k[near:]
    odd = rows % 2
    # last_panel[5 * odd + 1 + d] for d = -1 (any d < 0), 0, 1, 2, 3
    last_panel = np.array([0.0, h / 3.0, 0.0, 0.0, 0.0,
                           0.0, 3.0 * h / 8.0, 9.0 * h / 8.0, 9.0 * h / 8.0,
                           h / 3.0 + 3.0 * h / 8.0])
    W[:, near:] = np.where(d > 3 * odd, W[:, near:], last_panel.take(
        np.minimum(np.maximum(d, -1), 3) + (5 * odd + 1)))
    if a < 4:
        # row 0 is empty, row 1 the trapezoid rule, row 3 the 3/8 rule
        for row, vals in ((0, ()), (1, (h / 2.0,) * 2),
                          (3, (3.0 * h / 8.0, 9.0 * h / 8.0, 9.0 * h / 8.0,
                               3.0 * h / 8.0))):
            if a <= row < b:
                full = np.zeros(max(c1, 4))
                full[:len(vals)] = vals
                W[row - a] = full[c0:c1]
    return W


def cumulative_weights(nodes):
    """W[i, k] = weight of node k in a cumulative rule for int_{x0}^{xi}.

    Uniform spacing required.  Row 1 is the trapezoid rule, even rows are
    composite Simpson, row 3 is the 3/8 rule, odd rows >= 5 are composite
    Simpson up to i-3 plus the 3/8 rule on the last three intervals.  The
    Simpson and 3/8 panels are fourth order, but the trapezoid of row 1
    makes the scheme third order.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = len(nodes)
    return cumulative_weight_block(_uniform_step(nodes), 0, n, 0, n)


def kernel_row_blocks(k, nodes, start, stop, trim=False):
    """The cumulative rule times a kernel, rows start..stop-1 in blocks of
    _ROW_BLOCK rows: yields (a, c0, M) with M[i, j] = W[a+i, c0+j]
    k(x_{a+i}, x_{c0+j}), W = cumulative_weights(nodes).  A block's columns
    are its causal range 0..b-1 (b its end row); with trim they are
    narrowed to the span of the columns where |k| reaches 2^-53 of its
    peak in some row of the block."""
    xs = np.asarray(nodes, dtype=float)
    h = _uniform_step(xs)
    for a in range(start, stop, _ROW_BLOCK):
        b = min(a + _ROW_BLOCK, stop)
        kv = k(xs[a:b, None], xs[None, :b])
        c0, c1 = 0, b
        if trim:
            mag = np.abs(kv)
            keep = np.flatnonzero(np.any(
                mag >= 2.0 ** -53 * mag.max(axis=1, keepdims=True), axis=0))
            if keep.size:
                c0, c1 = int(keep[0]), int(keep[-1]) + 1
                kv = kv[:, c0:c1]
        block = cumulative_weight_block(h, a, b, c0, c1)
        block *= kv
        yield a, c0, block


class GridHammersteinOperator:
    """Fast application of T on a fixed uniform grid.

    apply acts in the operator's coordinate v: q = u/phi when the problem
    carries its quotient form (kernel.qx and nl.q_eval), mapping q to
    q+ = T(phi q)/phi, and u itself otherwise.  from_u, to_u and gap
    convert at that boundary, given phi on the grid, so callers never
    branch on the coordinate.  The x-rule times the x-kernel is stored in
    blocks of _ROW_BLOCK rows, each over its column band only: the causal
    range [0, x_i], trimmed where qx decays in quotient form.  Each
    application is one nonlinearity evaluation, one product with the
    y-matrix and one product per row block.
    """

    def __init__(self, kernel, nl, axes):
        xs, ys = (np.asarray(a, dtype=float) for a in axes)
        self.quotient = kernel.qx is not None and nl.q_eval is not None
        kx, self.f = ((kernel.qx, nl.q_eval) if self.quotient
                      else (kernel.kx, nl.eval))
        self.blocks = list(kernel_row_blocks(kx, xs, 0, len(xs),
                                             trim=self.quotient))
        self.B = cumulative_weights(ys)
        self.t, self.s = xs[:, None], ys[None, :]

    def apply(self, samples):
        inner = self.f(self.t, self.s, samples) @ self.B.T
        out = np.empty_like(inner)
        for a, c0, block in self.blocks:
            rows, cols = block.shape
            out[a:a + rows] = block @ inner[c0:c0 + cols]
        return out

    def from_u(self, u, phi):
        """The operator's coordinate of grid samples u; phi is the weight
        on the same grid."""
        return u / phi if self.quotient else u

    def to_u(self, v, phi):
        """Grid samples u of the operator's coordinate v."""
        return phi * v if self.quotient else v

    def gap(self, new, v, phi):
        """sup |u+ - u| / phi for two iterates given in the operator's
        coordinate: a plain sup of their difference in quotient form."""
        diff = np.abs(new - v)
        return float(np.max(diff if self.quotient else diff / phi))


def _panel_integrals(u, nl, kx, tol):
    """I[i, j] = int_0^{x_i} int_0^{y_j} kx(x_i, t) f(t, s, u(t, s)) ds dt
    at every node (x_i, y_j) of u's grid, in one pass.

    The panel breaks are 0 and the positive nodes of u's axes, so every
    spline knot and every output node is a break, and each integral runs
    over whole panels.  u is read from its bicubic spline, clamped to its
    grid, so below the first node it takes the first node's values.  Every
    break interval gets 2^L panels of the 16-node Gauss-Legendre rule,
    doubled by _settle until all outputs agree to tol.  f is evaluated on
    the tensor of t-nodes x s-nodes in blocks of _T_BLOCK t-nodes, one
    spline call each.
    """
    from scipy.interpolate import RectBivariateSpline

    xs, ys = u.axes
    spline = RectBivariateSpline(xs, ys, u.samples, kx=3, ky=3)
    bx = np.union1d([0.0], xs[xs > 0])
    by = np.union1d([0.0], ys[ys > 0])

    def level_integrals(level):
        t, wt = (v.ravel() for v in _gl_panels(bx[:-1], bx[1:], level))
        s, ws = (v.ravel() for v in _gl_panels(by[:-1], by[1:], level))
        # the causal rules: node weights below each output node, else 0
        ymat = ws * (s[None, :] < ys[:, None])
        s_read = np.clip(s, ys[0], ys[-1])
        total = np.zeros((len(xs), len(ys)))
        for b in range(0, len(t), _T_BLOCK):
            tb = t[b:b + _T_BLOCK]
            vals = nl.eval(tb[:, None], s[None, :],
                           spline(np.clip(tb, xs[0], xs[-1]), s_read,
                                  grid=True))
            xmat = wt[b:b + _T_BLOCK] * (tb[None, :] < xs[:, None]) \
                * kx(xs[:, None], tb[None, :])
            total += xmat @ (vals @ ymat.T)
        return total

    return _settle(level_integrals, tol)


def apply_T(u, kernel, nl, method="grid", tol=1e-10, faces=True):
    """Tu as a weighted grid function on u's grid.

    method "grid" uses the cumulative weights (uniform grids only), in the
    quotient coordinates q = u/phi when the problem has its quotient form;
    "adaptive" reads u from its bicubic spline and applies a composite
    16-node Gauss-Legendre rule with 2^L panels per grid interval to every
    node at once, doubling L until the max over all nodes of the difference
    between two consecutive levels is at most tol (QuadratureError if a
    level is not finite or the values have not settled by
    _MAX_PANEL_LEVEL).  Both integrals run from 0, reading u clamped to its
    grid.  With faces=True each infinity face of Tu gets its face profile
    (funcspace.face_profile at FACE_TOL), stored by attach_faces.
    """
    if u.ndim != 2:
        raise ValueError("apply_T expects a 2d grid function")
    if method == "grid":
        op = GridHammersteinOperator(kernel, nl, u.axes)
        phi = u.weight_values()
        samples = op.to_u(op.apply(op.from_u(u.samples, phi)), phi)
    elif method == "adaptive":
        samples = _panel_integrals(u, nl, kernel.kx, tol)
    else:
        raise ValueError(f"unknown method {method!r}")

    out = u.with_samples(samples)
    if faces:
        quot = quotient_derivative(out, (0, 0))
        for face in out.face_labels():
            attach_faces(out, face_profile(out, quot, face, FACE_TOL))
    return out


def attach_faces(out, profile):
    """Store a face profile of out/phi, the (node, LimitResult) pairs of
    funcspace.face_profile, as out's values on that face when every node
    converged; otherwise out gets no values on it.  Returns out."""
    if all(res.converged for _, res in profile):
        face = profile[0][1].point.label
        out.infinity[face] = {
            (0, 0): np.asarray([res.value for _, res in profile])}
    return out


# ---------------------------------------------------------------------------
# hypothesis checking


@dataclass
class ConditionResult:
    status: str  # verified | verified_on_truncation | diverges | unverified
    detail: str


@dataclass
class HypothesisReport:
    r: float
    conditions: dict
    integrals: dict
    profiles: dict

    def lines(self):
        out = [f"hypothesis report at r = {self.r:g}"]
        for key in sorted(self.conditions):
            c = self.conditions[key]
            out.append(f"  {key}: {c.status} ({c.detail})")
        for key, v in sorted(self.integrals.items()):
            out.append(f"  integral {key} = {v:g}")
        return out


def _quotient_fn(kernel, weight):
    if kernel.weighted_quotient is not None:
        return kernel.weighted_quotient

    def q(x, t):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.asarray(kernel.kx(x, t), dtype=float) / weight(x)
    return q


def _weighted_quotient_sups(quotient, t, x_hi, n=1200):
    """For each entry t_i of the 1-d array t, the max of |kx(x, t_i)| /
    phi(x) over n points x evenly spaced on [t_i, x_hi], NaN if one of
    them is NaN; _T_COLUMNS columns are evaluated at a time.

    An entry may be inf when the sup overflows the float range; the caller
    treats that as evidence of non-integrability, never as a finite bound.
    """
    sups = np.empty(len(t))
    for b in range(0, len(t), _T_COLUMNS):
        tb = t[b:b + _T_COLUMNS]
        xs = np.linspace(tb, x_hi, n, axis=1)
        with np.errstate(over="ignore"):
            sups[b:b + _T_COLUMNS] = np.max(
                np.abs(quotient(xs, tb[:, None])), axis=1)
    return sups


def _finite_count(vals):
    """(all finite?, "k" or "k of n" for the k finite values among n)."""
    k = int(np.count_nonzero(np.isfinite(vals)))
    return k == len(vals), str(k) if k == len(vals) else f"{k} of {len(vals)}"


def check_hypotheses(kernel, weight, nl, r, tol=1e-8):
    """Numeric status of the four operator hypotheses at cone radius r.

    weight is phi, called on x alone (the y direction is unweighted), as
    every WEIGHT_REGISTRY entry can be.  The kernel columns are sampled at
    41 points of the truncation [0, 8] and the y axis at 9 points.  Only
    p = 0 is examined; higher kernel derivatives are out of scope here.
    """
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"cone radius must be positive and finite, got {r!r}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    truncation = 8.0
    ts = np.linspace(0.0, truncation, 41)
    ss = np.linspace(0.0, 1.0, 9)
    phi_r = nl.dominator(r)
    conditions = {}
    integrals = {}
    profiles = {}

    # C1: each kernel column lies in the weighted class: finite weighted sup
    # and an existing limit at the infinity face.
    quotient = _quotient_fn(kernel, weight)
    m_profile = _weighted_quotient_sups(quotient, ts,
                                        max(2.0 * truncation, 10.0))
    profiles["M0"] = (ts, m_profile)
    sup_ok, sup_found = _finite_count(m_profile)
    if kernel.weighted_sup is not None:
        oracle = np.array([kernel.weighted_sup(t, 0.5) for t in ts])
        m_gap = float(np.max(np.abs(m_profile - oracle)
                             / np.maximum(oracle, 1.0)))
    else:
        m_gap = math.nan
    cmap = HalfLineOnePoint()
    z_vals = []
    for t in ts[::5]:
        res = kappa_limit(lambda x, t=t: quotient(np.asarray(x), t),
                          cmap.infinity_points()[0], cmap, tol=1e-6)
        z_vals.append(res.value if res.converged else math.nan)
    z_vals = np.asarray(z_vals)
    profiles["z0"] = z_vals
    z_ok, z_found = _finite_count(z_vals)
    conditions["C1"] = ConditionResult(
        "verified" if (sup_ok and z_ok) else "unverified",
        f"weighted sup finite at {sup_found} columns"
        + (f", relative gap to analytic sup {m_gap:.2e}"
           if math.isfinite(m_gap) else "")
        + f", face limit exists at {z_found} sampled columns")

    # C2: modulus of the weighted quotient in the compactified metric,
    # finite on the truncated domain only (it grows with the truncation).
    xs = np.linspace(0.0, truncation, 400)
    emb = xs / (1.0 + xs)
    tc = ts[:, None]
    w_vals = np.max(np.abs(np.diff(quotient(xs, tc) * (xs >= tc), axis=1))
                    / np.diff(emb), axis=1)
    profiles["w0"] = (ts, w_vals)
    conditions["C2"] = ConditionResult(
        "verified_on_truncation",
        f"modulus finite on [0, {truncation:g}], max {w_vals.max():.3g}; "
        "no uniform modulus is claimed beyond the truncation")

    # C3: domination f(t, s, v) <= Phi_r(t, s) for |v| <= r phi(t), and
    # integrability of Phi_r over the half-strip: integrated over
    # [0, B] x [0, 1], with B the first integer at which the Gaussian tail
    # bound that Phi_r certifies drops below tol.
    tm, sm = np.meshgrid(ts, ss, indexing="ij")
    dom_ok = True
    worst = -math.inf
    for frac in (0.0, 0.3, 0.7, 1.0):
        v = frac * r * weight(tm)
        gap = float(np.max(nl.eval(tm, sm, v) - phi_r(tm, sm)))
        worst = max(worst, gap)
        dom_ok &= gap <= 1e-12
    if phi_r.tail_scale is None:
        conditions["C3"] = ConditionResult(
            "unverified",
            f"domination margin {worst:.2e} on sampled cone points; Phi_r "
            "certifies no Gaussian tail, so its integral is not bounded")
    else:
        tail = gaussian_tail(1.0, scale=phi_r.tail_scale)
        t_top = 1
        while not tail(t_top) < tol:
            t_top += 1
        phi_int = _unit_strip_integral(phi_r, float(t_top), tol)
        integrals["Phi_r"] = phi_int
        conditions["C3"] = ConditionResult(
            "verified" if dom_ok and math.isfinite(phi_int)
            else "unverified",
            f"domination margin {worst:.2e} on sampled cone points, "
            f"integral {phi_int:.6g}")

    # C4: the three L1 products.  The M-branch is probed on doubling
    # truncations; if a partial integral is inf or the increments do not
    # decay the product is reported divergent.  Its integral is recorded
    # only when the increments decay, so a divergence records no number.
    def m_phi_partial(R):
        tt = np.linspace(0.0, R, max(101, int(20 * R) + 1))
        mprof = _weighted_quotient_sups(quotient, tt, max(2.0 * R, 10.0),
                                        800)
        if np.any(np.isinf(mprof)):
            # The weighted sup already overflows the float range somewhere
            # on [0, R]; the partial integral is unbounded a fortiori.
            # Multiplying inf by an underflowed s-integral would give nan,
            # so bail out before forming the product.
            return math.inf
        sint = _unit_interval_integrals(phi_r, tt, 1e-10)
        return float(np.trapezoid(mprof * sint, tt))

    radii = [truncation, 2 * truncation, 4 * truncation]
    partials = [m_phi_partial(R) for R in radii]
    # a nan partial (a 0/0 quotient) decides nothing; an inf one diverges
    settled = not any(math.isnan(p) for p in partials)
    diverging = settled and any(math.isinf(p) for p in partials)
    if settled and not diverging:
        incs = np.diff([0.0] + partials)
        diverging = incs[-1] > 0.5 * incs[-2] and incs[-1] > tol
        if not diverging:
            integrals["M0*Phi_r"] = partials[-1]
    if z_ok and "Phi_r" in integrals:
        integrals["|z0|*Phi_r"] = float(np.max(np.abs(z_vals))) \
            * integrals["Phi_r"]
    w_phi = float(np.trapezoid(
        w_vals * _unit_interval_integrals(phi_r, ts, 1e-10), ts))
    integrals["w0*Phi_r"] = w_phi
    trail = (f"partial M0*Phi_r integrals {partials[0]:.4g} -> "
             f"{partials[1]:.4g} -> {partials[2]:.4g}")
    if not settled:
        status = "unverified"
        detail = f"{trail}: not every partial is a number"
    elif diverging:
        status = "diverges"
        detail = f"{trail} keep growing with the truncation radius"
    else:
        status = "verified_on_truncation"
        detail = "all three products converged on doubling truncations"
    conditions["C4"] = ConditionResult(status, detail)

    return HypothesisReport(r, conditions, integrals, profiles)
