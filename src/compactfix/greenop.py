"""Hammerstein-type integral operators on the compactified half-strip.

The operator is Tu(x, y) = integral over {t <= x, s <= y} of
kx(x, t) f(t, s, u(t, s)) dt ds, acting on weighted grid functions
over [0, inf) x [0, 1].  Two evaluation paths: a cumulative-quadrature grid
path (used by the solver) and an independent cross-check path that reads u
from its bicubic interpolating spline and integrates all nodes at once.
The spline is built here in numpy in tensor-product form,
u(t, s) = B_x(t) C B_y(s)^T (de Boor, "A Practical Guide to Splines",
1978), on FITPACK's interpolation knots, so the module imports nothing
from scipy.  The cross-check path takes one B-spline pass per axis and
panel level, and at level 0 that pass also gives the collocation matrix
of the spline.  Both paths return their image on u's grid through
WeightedGridFunction.image, so a cross-check pair of the two shares u's
axes and its one phi column.

The grid path works in the quotient q = u/phi, the coordinate of the
weighted norm: with f(t, s, phi(t) q) = phi(t)^2 q_eval(t, s, q), q
satisfies q = int int qx(x, t) q_eval(t, s, q) ds dt with
qx(x, t) = kx(x, t) phi(t)^2 / phi(x), which Kernel.qx forms in log space
from log kx and log phi.  For the case study qx is
exp(-(x - 2t)^2 / 2), below 2^-53 of its row peak once |t - x/2| > 4.3.
The grid operator stores the x-rule times qx in row blocks, each over its
column band only: the causal range [0, x_i], trimmed to the columns where
qx reaches 2^-53 of its row peak, and evaluates qx on that band only
(kernel_row_blocks); they are a solve's only kernel band, which its
residual consumes (solver.pde_residual).  The infinity-face values of Tu
are read off its grid samples by the windowed face ladders of
funcspace.attach_faces, when they are first read: apply_T returns its
image with its faces due (WeightedGridFunction.faces_on_read), so an image
whose faces go unread runs no ladder, and a ladder's error surfaces at the
first read of the image's infinity (or, for a weight that underflows, of
its quotient), not inside apply_T.

Every integral outside the grid path uses one rule, but for the outer
t-integrals of check_hypotheses' M0*Phi_r and w0*Phi_r products, which are
np.trapezoid sums over sampled sup and modulus profiles: QUADPACK's
15-node Gauss-Kronrod rule on 2^L equal panels of each interval,
L = 0, 1, ...  A level is certified by the 7-node Gauss rule whose nodes
are among the 15, summed over the same values: it is taken once the two
rules agree to tol (Kronrod 1965; Piessens et al., QUADPACK, 1983; Gander
& Gautschi, "Adaptive quadrature - revisited", BIT 2000), so each level
evaluates the integrand once.  panel_quadrature applies it to many 1-d
intervals at once, the cross-check path in 2-d.  With the 1-d rule the
module estimates the kernel bounds that the contraction/index arguments
need: the absolute kernel integral, the weighted sup profile M_p, the face
limits z_p of the weighted kernel columns, the continuity modulus w_p, and
their L1 products against a dominating envelope Phi_r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .compactify import HalfLineOnePoint, halfline_metric, kappa_limit
from .funcspace import LOG_WEIGHTS, WEIGHT_REGISTRY

# QUADPACK's qk15 pair (Piessens et al., QUADPACK, 1983; Kronrod 1965) on
# [-1, 1]: the rows are xgk, the Kronrod nodes from 1 down to the centre,
# wgk, their weights, and wg, the weights of the 7-node Gauss rule at its
# nodes xgk[1::2] and 0 at the 8 Kronrod-only nodes
_QK15 = np.array([
    [0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
     0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
     0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
     0.207784955007898467600689403773245, 0.0],
    [0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
     0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
     0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
     0.204432940075298892414161999234649, 0.209482141084727828012999174891714],
    [0.0, 0.129484966168869693270611432679082,
     0.0, 0.279705391489276667901467771423780,
     0.0, 0.381830050505118944950369775488975,
     0.0, 0.417959183673469387755102040816327]])
# the panel rule as rows over its 15 nodes in increasing order: the nodes,
# the Kronrod weights of the value rule and the Gauss weights of its
# companion, so both rules of a level sum one set of integrand values
_GK15 = np.concatenate([_QK15[:, :7] * [[-1.0], [1.0], [1.0]],
                        _QK15[:, ::-1]], axis=1)
# the panel rule: at most 2^_MAX_PANEL_LEVEL panels per interval
_MAX_PANEL_LEVEL = 6
# the 2-d route evaluates f _T_BLOCK t-nodes at a time, so a block's
# temporaries hold _T_BLOCK x (s-nodes) entries of f and 2 _T_BLOCK x nx of
# the kernel times both rules' weights, whatever the number of t-nodes.
# Of 32, 48, 64 and 96 (medians, one BLAS thread), 64 was within 5% of
# the fastest on the 12 x 12 and 17 x 9 cross-check grids (582 and 562 us;
# 32 took 626 and 679 us: per-block numpy overhead dominates there), and
# 96 was at most 10% faster on the 1201 x 51 solution (0.50-0.53 s against
# 0.52-0.58 s).
_T_BLOCK = 64
# rows per block of kernel_row_blocks, of the grid operator's f(q) B^T and
# of the residual's g(q): a block's temporaries hold _ROW_BLOCK rows
_ROW_BLOCK = 64
# a block keeps the columns where |k| reaches this share of a row's peak
_BAND_FLOOR = 2.0 ** -53
# kernel columns per block of the hypothesis report's sup profiles
_T_COLUMNS = 64


class QuadratureError(Exception):
    def __init__(self, msg, last_estimate=None):
        super().__init__(msg)
        self.last_estimate = last_estimate


def _gl_panels(lo, hi, level):
    """The panel rule _GK15 on 2^level equal panels of each interval
    [lo_i, hi_i], from one affine map: the nodes, one row per interval, and
    the weights of both rules, shaped (2, intervals, nodes), the Kronrod
    value rule first.  A reversed interval is empty: its weights are 0."""
    n = 2 ** level
    width = np.maximum(hi - lo, 0.0)[:, None]
    start = lo[:, None] + width * (np.arange(n) / n)
    half = 0.5 * width / n
    nodes = (start + half)[..., None] + half[..., None] * _GK15[0]
    weights = np.broadcast_to(half[..., None] * _GK15[1:, None, None],
                              (2, *nodes.shape))
    return nodes.reshape(len(lo), -1), weights.reshape(2, len(lo), -1)


def _settle(level_pair, tol):
    """The two-rule test: level_pair(L) gives the 15-node Kronrod values
    and their 7-node Gauss companions on 2^L panels, L = 0, 1, ...; the
    Kronrod values are returned once their largest difference is at most
    tol.  ValueError, before level_pair is called, for a tol that is not
    positive and finite; QuadratureError if a level is not finite or none
    has settled by _MAX_PANEL_LEVEL."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    for level in range(_MAX_PANEL_LEVEL + 1):
        total, companion = level_pair(level)
        for vals in (total, companion):
            if not np.all(np.isfinite(vals)):
                raise QuadratureError(
                    f"integrand not finite at panel level {level}",
                    last_estimate=vals)
        gap = np.max(np.abs(total - companion), initial=0.0)
        if gap <= tol:
            return total
    raise QuadratureError(
        f"no convergence by panel level {_MAX_PANEL_LEVEL}: two-rule "
        f"difference {gap:.3g} > {tol:g}", last_estimate=total)


def panel_quadrature(g, a, b, tol=1e-10):
    """I[i] = integral of g over [a_i, b_i], every interval at once.

    g maps an (m, k) array of nodes, row i in [a_i, b_i], to values of the
    same shape.  Every interval gets 2^L equal panels of the 15-node
    Gauss-Kronrod rule, doubling L until the 7-node Gauss rule, whose nodes
    are among them, agrees with it to tol (see _settle); g is called once
    per level, on the 15 nodes per panel, and both sums read those values.
    An empty or reversed interval gives 0.
    """
    a, b = np.atleast_1d(*np.broadcast_arrays(a, b))

    def level_pair(level):
        nodes, weights = _gl_panels(a, b, level)
        return (weights * g(nodes)).sum(axis=2)

    return _settle(level_pair, tol)


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
    """Causal kernel kx(x, t) = exp(log_kx(x, t)) on {0 <= t <= x,
    0 <= s <= y}; the y direction carries the constant factor 1.

    log_kx and dlog_kx, its x-derivative, are vectorized callables, and
    weight_desc names the problem's weight phi in funcspace.LOG_WEIGHTS.
    abs_integral, when given, is the closed form of the absolute integral
    over the causal box at an output point (x, y).  weighted_sup, when
    given, is the analytic value of sup_x |kx(x,t)/phi(x)| as a function of
    the integration point.  The infinity-face values of Tu are always read
    off its grid samples (funcspace.attach_faces, at their first read); a
    kernel carries no closed form for them.

    The weighted forms are methods, sums of log kx and log phi:
    weighted_quotient = kx/phi(x) for check_hypotheses;
    qx(x, t) = kx(x, t) phi(t)^2 / phi(x), the kernel's half of the
    quotient form (see Nonlinearity.q_eval), for the grid operator; and
    dlog_qx = d log qx/dx, the factor that turns qx into d qx/dx for the
    residual of the differentiated q-equation (solver.pde_residual).
    Summing the exponents first keeps each form exact where kx and phi
    both underflow (kx/phi is 0/0 there); a form overflows only where its
    own value leaves the float range.
    """

    name: str
    log_kx: object
    dlog_kx: object
    weight_desc: str
    abs_integral: object = None
    weighted_sup: object = None

    def kx(self, x, t):
        return np.exp(self.log_kx(x, t))

    def weighted_quotient(self, x, t):
        log_phi = LOG_WEIGHTS[self.weight_desc][0]
        with np.errstate(over="ignore"):
            return np.exp(self.log_kx(x, t) - log_phi(x))

    def qx(self, x, t):
        log_phi = LOG_WEIGHTS[self.weight_desc][0]
        with np.errstate(over="ignore"):
            return np.exp(self.log_kx(x, t) + 2.0 * log_phi(t) - log_phi(x))

    def dlog_qx(self, x, t):
        return self.dlog_kx(x, t) - LOG_WEIGHTS[self.weight_desc][1](x)


@dataclass
class Nonlinearity:
    """Forcing term f(t, s, v), assumed nonnegative on the cone.

    dominator(r) must return a pair (Phi_r, tail_scale): a vectorised
    Phi_r(t, s) with f(t, s, v) <= Phi_r(t, s) whenever |v| <= r phi(t, s),
    and a c with int_0^1 Phi_r(t, s) ds <= c exp(-t^2) for every t >= 0,
    the certificate of Phi_r's Gaussian tail; a tail_scale of None means
    Phi_r has none, and an infinite c (r^2 overflows) certifies nothing
    either.  q_eval is the nonlinearity's half of the problem's quotient
    form: q_eval(t, s, q) = f(t, s, phi(t) q) / phi(t)^2, so that q = u/phi
    solves q = int int Kernel.qx(x, t) q_eval(t, s, q) ds dt (a forcing
    takes -2 log phi(t) into its exponent); the grid operator refuses a
    nonlinearity without it.
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


def _kept(kv):
    """Where |kv| reaches _BAND_FLOOR of its row's peak."""
    mag = np.abs(kv)
    return mag >= _BAND_FLOOR * mag.max(axis=1, keepdims=True)


def _probed_band(k, rows, xs, b):
    """(c0, c1, k(rows, xs[c0:c1])) for a row block whose causal range is
    0..b-1, with k evaluated on the band, two probe rows and two cut
    columns instead of the whole causal range.  c0 is the first kept
    column (see _kept) of the block's first row and c1 - 1 the last kept
    column of its last row, both read off one evaluation of those two
    rows; a span that ends before it starts (a ridge moving backward
    faster than its width) becomes the whole causal range.  The cut
    columns c0 - 1 and c1 are evaluated in every row with the band.  Where
    one reaches _BAND_FLOOR of a row's in-span peak, that side widens to
    the causal end: an exact zero such as dkx(x, x) = 0 can end a probed
    row's span early, and a ridge that moves backward in t makes the probe
    wrong.  Columns beyond a cut are not examined: the kernel's tails must
    fall off outside the span.  For a ridge that moves forward in t with
    such tails, the band is the span of the columns where |k| reaches
    _BAND_FLOOR of its peak in some row of the block."""
    probe = _kept(k(rows[[0, -1]], xs[None, :b]))
    first, last = np.flatnonzero(probe[0]), np.flatnonzero(probe[1])
    c0 = int(first[0]) if first.size else 0
    c1 = int(last[-1]) + 1 if last.size else b
    if c1 <= c0:
        c0, c1 = 0, b
    lo, hi = max(c0 - 1, 0), min(c1 + 1, b)
    kv = k(rows, xs[None, lo:hi])
    mag = np.abs(kv)
    floor = _BAND_FLOOR * mag[:, c0 - lo:c1 - lo].max(axis=1)
    widen0 = c0 > 0 and np.any(mag[:, 0] >= floor)
    widen1 = c1 < b and np.any(mag[:, -1] >= floor)
    if widen0 or widen1:
        c0, c1 = (0 if widen0 else c0), (b if widen1 else c1)
        return c0, c1, k(rows, xs[None, c0:c1])
    return c0, c1, kv[:, c0 - lo:c1 - lo]


def kernel_row_blocks(k, nodes):
    """The cumulative rule times a kernel in blocks of _ROW_BLOCK rows:
    yields (a, c0, M) with M[i, j] = W[a+i, c0+j] k(x_{a+i}, x_{c0+j}),
    W = cumulative_weights(nodes).  A block's columns are its causal range
    0..b-1 (b its end row), narrowed to the band that _probed_band reads
    off the block's first and last rows; k is evaluated on that band
    only."""
    xs = np.asarray(nodes, dtype=float)
    h = _uniform_step(xs)
    for a in range(0, len(xs), _ROW_BLOCK):
        b = min(a + _ROW_BLOCK, len(xs))
        c0, c1, kv = _probed_band(k, xs[a:b, None], xs, b)
        block = cumulative_weight_block(h, a, b, c0, c1)
        block *= kv
        yield a, c0, block


class GridHammersteinOperator:
    """Fast application of T on a fixed uniform grid, in the quotient.

    apply maps grid samples of q = u/phi to q+ = T(phi q)/phi through the
    problem's quotient form, kernel.qx and nl.q_eval; ValueError for a
    nonlinearity without q_eval.  The x-rule times qx is stored in blocks of
    _ROW_BLOCK rows, each over its column band only: the causal range
    [0, x_i], trimmed to the columns where qx reaches 2^-53 of its row
    peak; the blocks come from kernel_row_blocks, which evaluates qx on
    the band only.

    Each application works in its output array alone: it writes
    f(q) B^T there one row block at a time, one nonlinearity evaluation
    and one product with the y-matrix per block, and then replaces each
    row block by its band product, from the last block back.  A block
    reads rows below its own end only, and every block processed after it
    ends at or before its first row, so no row is overwritten before its
    last reader has read it.
    """

    def __init__(self, kernel, nl, axes):
        if nl.q_eval is None:
            raise ValueError(f"nonlinearity {nl.name!r} has no q_eval")
        xs, ys = (np.asarray(a, dtype=float) for a in axes)
        self.f = nl.q_eval
        self.blocks = list(kernel_row_blocks(kernel.qx, xs))
        self.B = cumulative_weights(ys)
        self.t, self.s = xs[:, None], ys[None, :]

    def apply(self, samples):
        out = np.empty(np.shape(samples))
        for a in range(0, len(out), _ROW_BLOCK):
            rows = slice(a, a + _ROW_BLOCK)
            np.matmul(self.f(self.t[rows], self.s, samples[rows]), self.B.T,
                      out=out[rows])
        for a, c0, block in reversed(self.blocks):
            rows, cols = block.shape
            out[a:a + rows] = block @ out[c0:c0 + cols]
        return out


def _interpolation_knots(nodes):
    """The knots of the not-a-knot cubic spline interpolating at nodes
    (FITPACK's s = 0 choice): each end four times and every interior node
    except the second and the second-to-last, so there are as many
    B-splines as nodes."""
    return np.concatenate([[nodes[0]] * 4, nodes[2:-2], [nodes[-1]] * 4])


def _bspline_rows(knots, points):
    """(span, vals): the cubic B-splines on knots that are nonzero at each
    point in [knots[3], knots[-4]], by the Cox-de Boor recursion: at
    points[i] they are B_j for j = span[i] - 3 .. span[i], with values
    vals[i, :]."""
    n = len(knots) - 4
    # the knot interval [knots[i], knots[i + 1]) of each point, the last
    # interval closed at the right end
    span = np.clip(np.searchsorted(knots, points, side="right") - 1, 3, n - 1)
    left = points[:, None] - knots[span[:, None] - np.arange(3)]
    right = knots[span[:, None] + np.arange(1, 4)] - points[:, None]
    vals = np.zeros((len(points), 4))
    vals[:, 0] = 1.0
    for j in range(1, 4):
        saved = 0.0
        for r in range(j):
            temp = vals[:, r] / (right[:, r] + left[:, j - r - 1])
            vals[:, r] = saved + right[:, r] * temp
            saved = left[:, j - r - 1] * temp
        vals[:, j] = saved
    return span, vals


def _basis_matrix(span, vals, n):
    """The full n-column matrix of _bspline_rows' (span, vals): row i holds
    vals[i] at columns span[i] - 3 .. span[i], zeros elsewhere."""
    out = np.zeros((len(span), n))
    out[np.arange(len(span))[:, None], span[:, None] - 3 + np.arange(4)] = vals
    return out


def _spline_coefficients(xs, ys, samples, t=(), s=()):
    """(knots on x, knots on y, C, t-rows, s-rows): the bicubic interpolant
    of samples on the grid xs x ys is u(t, s) = B_x(t) C B_y(s)^T, with
    B_x, B_y the B-spline basis matrices (_basis_matrix) on the knots;
    C = B_x^-1 U B_y^-T from the collocation matrices at the nodes.  Each
    axis takes one _bspline_rows pass, on its nodes followed by the points
    t (s), which must lie in [nodes[0], nodes[-1]]: the collocation matrix
    is that pass's first rows, and the t-rows (s-rows) are the rest, the
    pass's (span, vals) at t (s)."""
    knots, colloc, rows = [], [], []
    for nodes, points in ((xs, t), (ys, s)):
        knots.append(_interpolation_knots(nodes))
        span, vals = _bspline_rows(knots[-1], np.concatenate([nodes, points]))
        n = len(nodes)
        colloc.append(_basis_matrix(span[:n], vals[:n], n))
        rows.append((span[n:], vals[n:]))
    inner = np.linalg.solve(colloc[0], samples)
    return (*knots, np.linalg.solve(colloc[1], inner.T).T, *rows)


def _panel_integrals(u, nl, kx, tol):
    """I[i, j] = int_0^{x_i} int_0^{y_j} kx(x_i, t) f(t, s, u(t, s)) ds dt
    at every node (x_i, y_j) of u's grid, in one pass.

    The panel breaks are 0 and the positive nodes of u's axes, so every
    spline knot and every output node is a break, and each integral runs
    over whole panels.  u is read from its bicubic interpolant (the
    tensor-product B-spline form of _spline_coefficients, which needs 4
    nodes per axis; ValueError names a shorter axis), clamped to its grid,
    so below the first node it takes the first node's values.  Every break
    interval gets 2^L panels of the 15-node Gauss-Kronrod rule.  _settle
    returns level L once the 7-node Gauss rule, whose nodes are among the
    15, agrees with it to tol at every output, and doubles the panels
    otherwise.  Both axes' break intervals share one _gl_panels call per
    level, and each axis takes one B-spline pass per level; the level-0
    nodes are formed first, so that the level-0 pass also gives the
    spline's collocation matrix (_spline_coefficients).  f is evaluated
    once per level, on the tensor of t-nodes x s-nodes, in blocks of
    _T_BLOCK t-nodes.  Each block reads u as B_t[block] C B_s^T over the
    B-splines that its t-nodes reach, calls nl.eval and kx once, and sums
    its values for both rules: one product with the two rules' causal
    y-weights stacked, then one with each rule's x-weights times kx.  So
    the memory does not grow with nx times the nodes: a block's
    temporaries hold at most _T_BLOCK times the s-nodes or 2 nx entries.
    The block size changes only how the sums are grouped, not the nodes or
    weights.
    """
    xs, ys = u.axes
    for axis, nodes in enumerate(u.axes):
        if len(nodes) < 4:
            raise ValueError(f"the adaptive route's bicubic spline needs at "
                             f"least 4 nodes on axis {axis}, got "
                             f"{len(nodes)}")
    # the axes increase strictly (the grid function refuses others)
    bx = np.concatenate(([0.0], xs[xs > 0]))
    by = np.concatenate(([0.0], ys[ys > 0]))
    nt = len(bx) - 1
    nx, ny = len(xs), len(ys)

    def level_nodes(level):
        # the t-rows of _gl_panels are bx's intervals, the s-rows by's
        nodes, weights = _gl_panels(np.concatenate([bx[:-1], by[:-1]]),
                                    np.concatenate([bx[1:], by[1:]]), level)
        return (nodes[:nt].ravel(), weights[:, :nt].reshape(2, -1),
                nodes[nt:].ravel(), weights[:, nt:].reshape(2, -1))

    t0, wt0, s0, ws0 = level_nodes(0)
    tx, ty, coef, t0_rows, s0_rows = _spline_coefficients(
        xs, ys, u.samples, np.clip(t0, xs[0], xs[-1]),
        np.clip(s0, ys[0], ys[-1]))

    def level_pair(level):
        # B_t stays in the compact form of _bspline_rows: as a full matrix,
        # or with C B_s^T formed whole, it would take nx times the t- or
        # s-nodes of memory (the full B_t: 0.35 GB on a 1201 x 51 grid at
        # level 1)
        if level == 0:
            t, wt, s, ws = t0, wt0, s0, ws0
            (span, bt), s_rows = t0_rows, s0_rows
        else:
            t, wt, s, ws = level_nodes(level)
            span, bt = _bspline_rows(tx, np.clip(t, xs[0], xs[-1]))
            s_rows = _bspline_rows(ty, np.clip(s, ys[0], ys[-1]))
        bs = _basis_matrix(*s_rows, ny)
        # the causal y-rules of both rules, stacked: row k ny + j holds
        # rule k's weights of the s-nodes below y_j, else 0
        ymat = (ws[:, None, :] * (s[None, :] < ys[:, None])).reshape(
            2 * ny, -1)
        total = np.zeros((2, nx, ny))
        for b in range(0, len(t), _T_BLOCK):
            tb = t[b:b + _T_BLOCK]
            # the block's rows of B_t over the B-splines that its t-nodes
            # reach (t increases, so span does), then u = B_t C B_s^T
            sp = span[b:b + _T_BLOCK]
            rows = np.zeros((len(sp), sp[-1] - sp[0] + 4))
            rows[np.arange(len(sp))[:, None],
                 sp[:, None] - sp[0] + np.arange(4)] = bt[b:b + _T_BLOCK]
            vals = nl.eval(tb[:, None], s[None, :],
                           rows @ coef[sp[0] - 3:sp[-1] + 1] @ bs.T)
            # kx below each output node, else 0, times each rule's weights
            xmat = wt[:, None, b:b + _T_BLOCK] \
                * ((tb[None, :] < xs[:, None]) * kx(xs[:, None], tb[None, :]))
            by_rule = (vals @ ymat.T).reshape(len(tb), 2, ny)
            total += xmat @ by_rule.transpose(1, 0, 2)
        return total

    return _settle(level_pair, tol)


def apply_T(u, kernel, nl, method="grid", tol=1e-10):
    """Tu as a weighted grid function on u's grid.

    Both methods return the image through u.image
    (WeightedGridFunction.image), on u's axes and its phi column, so an
    adaptive and a grid image of one u evaluate phi once.  method
    "grid" uses the cumulative weights (uniform grids only), in the
    quotient coordinates q = u/phi, and returns a grid function that keeps
    the image's q, so its face ladders never divide by phi;
    "adaptive" reads u from its bicubic interpolating spline (numpy
    B-spline basis matrices, see _panel_integrals; each axis needs at least
    4 nodes, ValueError otherwise) and applies a composite 15-node
    Gauss-Kronrod rule with 2^L panels per grid interval to every node at
    once, doubling L until the max over all nodes of its difference from
    the 7-node Gauss rule on the same values is at most tol (ValueError
    for a tol that is not positive and finite; QuadratureError if a level
    is not finite or the values have not settled by _MAX_PANEL_LEVEL).  It
    integrates kx and nl.eval on u itself, independent of the grid route's
    quotient forms.  Both integrals run from 0, reading u clamped to its
    grid.  The image's faces are due (WeightedGridFunction.faces_on_read):
    the first read of its infinity runs funcspace.attach_faces at
    funcspace.FACE_TOL, every slice's ladder in one pass, and stores each
    face whose ladders all converged, so a ladder's FaceLimitError, or an
    adaptive image's WeightUnderflowError where phi is 0, is raised at that
    read.  The image's stored array is read-only, so the faces read later
    are those of the image returned here.
    """
    if u.ndim != 2:
        raise ValueError("apply_T expects a 2d grid function")
    if method == "grid":
        op = GridHammersteinOperator(kernel, nl, u.axes)
        values, quotient = op.apply(u.quotient()), True
    elif method == "adaptive":
        values, quotient = _panel_integrals(u, nl, kernel.kx, tol), False
    else:
        raise ValueError(f"unknown method {method!r}")
    values.setflags(write=False)
    return u.image(values, quotient=quotient).faces_on_read()


# ---------------------------------------------------------------------------
# hypothesis checking


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


def check_hypotheses(kernel, nl, r, tol=1e-8):
    """Numeric status of the four operator hypotheses at cone radius r, as
    the JSON-ready {"r": r, "hypotheses": {"C1".."C4": {"status",
    "detail"}}, "integrals": {name: value}}.  A status is verified,
    verified_on_truncation, diverges or unverified; integrals holds the
    Phi_r integral and the L1 products that converged.

    phi is the kernel's weight, WEIGHT_REGISTRY[kernel.weight_desc],
    called on x alone (the y direction is unweighted).  The kernel
    columns are sampled at 41 points of the truncation [0, 8] and the y
    axis at 9 points.  The conditions are those of the weighted space of
    every grid function, sup |u/phi| with the face values.
    QuadratureError when Phi_r is infinite at a sampled point (r^2
    overflows), since its integrals settle relative to its sampled peak.
    """
    quotient = kernel.weighted_quotient
    weight = WEIGHT_REGISTRY[kernel.weight_desc]
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"cone radius must be positive and finite, got {r!r}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    truncation = 8.0
    ts = np.linspace(0.0, truncation, 41)
    ss = np.linspace(0.0, 1.0, 9)
    phi_r, tail_scale = nl.dominator(r)
    conditions = {}
    integrals = {}

    # C1: each kernel column lies in the weighted class: finite weighted sup
    # and an existing limit at the infinity face.
    m_profile = _weighted_quotient_sups(quotient, ts,
                                        max(2.0 * truncation, 10.0))
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
                          "inf", cmap, tol=1e-6)
        z_vals.append(res.value if res.converged else math.nan)
    z_vals = np.asarray(z_vals)
    z_ok, z_found = _finite_count(z_vals)
    conditions["C1"] = {
        "status": "verified" if (sup_ok and z_ok) else "unverified",
        "detail": f"weighted sup finite at {sup_found} columns"
        + (f", relative gap to analytic sup {m_gap:.2e}"
           if math.isfinite(m_gap) else "")
        + f", face limit exists at {z_found} sampled columns"}

    # C2: modulus of the weighted quotient in the compactified metric,
    # finite on the truncated domain only (it grows with the truncation).
    xs = np.linspace(0.0, truncation, 400)
    tc = ts[:, None]
    w_vals = np.max(np.abs(np.diff(quotient(xs, tc) * (xs >= tc), axis=1))
                    / halfline_metric(xs[1:], xs[:-1]), axis=1)
    conditions["C2"] = {
        "status": "verified_on_truncation",
        "detail": f"modulus finite on [0, {truncation:g}], max "
        f"{w_vals.max():.3g}; no uniform modulus is claimed beyond the "
        "truncation"}

    # C3: domination f(t, s, v) <= Phi_r(t, s) for |v| <= r phi(t), and
    # integrability of Phi_r over the half-strip: integrated over
    # [0, B] x [0, 1], with B the first integer at which the Gaussian tail
    # bound that Phi_r certifies drops below tol.
    tm, sm = np.meshgrid(ts, ss, indexing="ij")
    phi_grid = phi_r(tm, sm)
    dom_ok = True
    worst = -math.inf
    for frac in (0.0, 0.3, 0.7, 1.0):
        v = frac * r * weight(tm)
        gap = float(np.max(nl.eval(tm, sm, v) - phi_grid))
        worst = max(worst, gap)
        dom_ok &= gap <= 1e-12
    # the Phi_r integrals of C3 and C4 settle to their tolerances times
    # Phi_r's sampled peak once it exceeds 1: relative, not absolute.  An
    # infinite peak (r^2 overflows) leaves no tolerance to settle to.
    quad_scale = max(1.0, float(np.max(phi_grid)))
    if math.isinf(quad_scale):
        raise QuadratureError("Phi_r is not finite on the sampled points")
    if tail_scale is None or not math.isfinite(tail_scale):
        conditions["C3"] = {
            "status": "unverified",
            "detail": f"domination margin {worst:.2e} on sampled cone "
            "points; Phi_r certifies no Gaussian tail, so its integral is "
            "not bounded"}
    else:
        tail = gaussian_tail(1.0, scale=tail_scale)
        t_top = 1
        while not tail(t_top) < tol:
            t_top += 1
        phi_int = _unit_strip_integral(phi_r, float(t_top),
                                       tol * quad_scale)
        integrals["Phi_r"] = phi_int
        conditions["C3"] = {
            "status": "verified" if dom_ok and math.isfinite(phi_int)
            else "unverified",
            "detail": f"domination margin {worst:.2e} on sampled cone "
            f"points, integral {phi_int:.6g}"}

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
        sint = _unit_interval_integrals(phi_r, tt, 1e-10 * quad_scale)
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
        w_vals * _unit_interval_integrals(phi_r, ts, 1e-10 * quad_scale),
        ts))
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
    conditions["C4"] = {"status": status, "detail": detail}

    return {"r": r, "hypotheses": conditions, "integrals": integrals}
