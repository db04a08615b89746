"""Hammerstein-type integral operators on the compactified half-strip.

The operator is Tu(x, y) = integral over {t <= x, s <= y} of
kx(x, t) ky(y, s) f(t, s, u(t, s)) dt ds, acting on weighted grid functions
over [0, inf) x [0, 1].  Two evaluation paths: a cumulative-quadrature grid
path (fast, used by the solver) and per-node adaptive panels (slow, used for
cross-checks).  The module also estimates the kernel bounds that the
contraction/index arguments need: the weighted sup profile M_p, the infinity
trace z_p, the continuity modulus w_p, and their L1 products against a
dominating envelope Phi_r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .compactify import HalfLineOnePoint, kappa_limit
from .funcspace import quotient_derivative, _grid_face_limit

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


class QuadratureError(Exception):
    def __init__(self, msg, last_estimate=None):
        super().__init__(msg)
        self.last_estimate = last_estimate


def _panel(g, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * float(np.dot(_GL_WEIGHTS, g(mid + half * _GL_NODES)))


def adaptive_quadrature(g, a, b, tol=1e-10, max_depth=24):
    """Adaptive 16-node Gauss-Legendre on [a, b], dyadic refinement."""
    if b <= a:
        return 0.0

    def recurse(lo, hi, whole, depth):
        mid = 0.5 * (lo + hi)
        left, right = _panel(g, lo, mid), _panel(g, mid, hi)
        if not math.isfinite(left + right):
            # a nan never passes the tolerance test, so refining would only
            # end at max_depth after 2^max_depth panels
            raise QuadratureError(f"integrand not finite on [{lo:g}, {hi:g}]",
                                  last_estimate=left + right)
        if abs(left + right - whole) <= tol or depth >= max_depth:
            if depth >= max_depth and abs(left + right - whole) > tol:
                raise QuadratureError(
                    f"no convergence on [{lo:g}, {hi:g}]",
                    last_estimate=left + right)
            return left + right
        return (recurse(lo, mid, left, depth + 1)
                + recurse(mid, hi, right, depth + 1))

    return recurse(a, b, _panel(g, a, b), 0)


def unbounded_quadrature(g, tol=1e-8, a=0.0, panel_width=1.0,
                         max_panels=400, tail=None):
    """Integral of g over [a, inf).

    Panels of the given width, each integrated adaptively.  With a tail
    callable, integration stops once tail(b) < tol; the bound certifies that
    the dropped remainder is below tol (the bound itself is not added, so the
    result never carries the bound's sign bias).  Without one, stop after
    three consecutive panels contribute less than tol/100 each.
    """
    total = 0.0
    quiet = 0
    b = a
    for _ in range(max_panels):
        nxt = b + panel_width
        piece = adaptive_quadrature(g, b, nxt, tol=tol * 1e-2)
        total += piece
        b = nxt
        if tail is not None and tail(b) < tol:
            return total
        if abs(piece) < tol * 1e-2:
            quiet += 1
            if quiet >= 3 and tail is None:
                return total
        else:
            quiet = 0
    raise QuadratureError(f"tail not resolved after {max_panels} panels",
                          last_estimate=total)


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
    """Separable causal kernel kx(x,t) ky(y,s) on {0 <= t <= x, 0 <= s <= y}.

    kx and ky are vectorized factor callables; ky=None means the constant 1.
    abs_integral, when given, is the closed form of the absolute integral
    over the causal box at an output point (x, y).  weighted_sup, when given,
    is the analytic value of sup_x |kx(x,t)/phi(x)| as a function of the
    integration point.  weighted_quotient(x, t), when given, evaluates
    kx(x, t)/phi(x) in a float-safe way (combining exponents before
    exponentiating); without it the hypothesis checker divides the raw
    factors, which turns into 0/0 once both underflow.  z_form, when given,
    evaluates the infinity trace of the weighted kernel; the case-study
    kernel deliberately leaves it unset because its weighted quotient peaks
    at x = 2t and escapes every window, so the trace integral does not
    reproduce the face limit.  dkx(x, t), when given, is the vectorized
    partial derivative of kx in its first argument; the residual of the
    differentiated equation (solver.pde_residual) needs it.
    """

    name: str
    kx: object
    ky: object = None
    abs_integral: object = None
    weighted_sup: object = None
    z_form: object = None
    weighted_quotient: object = None
    dkx: object = None


@dataclass
class Nonlinearity:
    """Forcing term f(t, s, v), assumed nonnegative on the cone.

    dominator(r) must return a callable Phi_r(t, s) with
    f(t, s, v) <= Phi_r(t, s) whenever |v| <= r * phi(t, s).
    """

    name: str
    eval: object
    dominator: object = None
    params: dict = field(default_factory=dict)


def kernel_abs_integral(kernel, point, tol=1e-8):
    """Quadrature value of the absolute kernel integral at an output point."""
    x, y = float(point[0]), float(point[1])
    if x <= 0 or y <= 0:
        return 0.0
    ix = adaptive_quadrature(lambda t: np.abs(kernel.kx(x, t)), 0.0, x, tol)
    if kernel.ky is None:
        iy = y
    else:
        iy = adaptive_quadrature(lambda s: np.abs(kernel.ky(y, s)), 0.0, y,
                                 tol)
    return ix * iy


# ---------------------------------------------------------------------------
# grid path: cumulative quadrature weights


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
    if n < 2:
        return np.zeros((n, n))
    steps = np.diff(nodes)
    h = steps[0]
    if not np.allclose(steps, h, rtol=1e-10, atol=1e-14):
        raise ValueError("cumulative weights need a uniform grid")
    W = np.zeros((n, n))
    W[1, :2] = h / 2.0
    if n > 3:
        W[3, [0, 3]] = 3.0 * h / 8.0
        W[3, [1, 2]] = 9.0 * h / 8.0
    # Simpson interiors: even rows i = 2r + 2 run up to column i - 1, odd
    # rows i = 2r + 5 up to column i - 4; in both, row r of the view takes
    # the odd columns 1..2r+1 and the even columns 2..2r.
    for rows in (W[2::2], W[5::2]):
        odd_cols, even_cols = rows[:, 1::2], rows[:, 2::2]
        np.copyto(odd_cols, 4.0 * h / 3.0,
                  where=np.tri(*odd_cols.shape, 0, dtype=bool))
        np.copyto(even_cols, 2.0 * h / 3.0,
                  where=np.tri(*even_cols.shape, -1, dtype=bool))
        rows[:, 0] = h / 3.0
    even = np.arange(2, n, 2)
    W[even, even] = h / 3.0
    odd = np.arange(5, n, 2)
    W[odd, odd - 3] = h / 3.0 + 3.0 * h / 8.0
    W[odd, odd - 2] = W[odd, odd - 1] = 9.0 * h / 8.0
    W[odd, odd] = 3.0 * h / 8.0
    return W


class GridHammersteinOperator:
    """Fast application of T on a fixed uniform grid.

    Precomputes A[i, k] = Wx[i, k] * kx(x_i, t_k) and the y-axis weight
    matrix once; each application is then one nonlinearity evaluation and
    two matrix products.
    """

    def __init__(self, kernel, nl, axes):
        self.kernel = kernel
        self.nl = nl
        self.axes = tuple(np.asarray(a, dtype=float) for a in axes)
        xs, ys = self.axes
        Wx = cumulative_weights(xs)
        Wy = cumulative_weights(ys)
        self.A = Wx * kernel.kx(xs[:, None], xs[None, :])
        if kernel.ky is None:
            self.B = Wy
        else:
            self.B = Wy * kernel.ky(ys[:, None], ys[None, :])
        self.tmesh, self.smesh = np.meshgrid(xs, ys, indexing="ij")

    def apply(self, u_samples):
        fvals = self.nl.eval(self.tmesh, self.smesh, u_samples)
        return self.A @ (fvals @ self.B.T)


def _adaptive_node_value(kernel, nl, u_eval, x, y, tol):
    if x <= 0 or y <= 0:
        return 0.0

    def inner(t):
        t = float(t)

        def g(s):
            s = np.asarray(s, dtype=float)
            vals = nl.eval(t, s, u_eval(np.full_like(s, t), s))
            if kernel.ky is not None:
                vals = vals * kernel.ky(y, s)
            return vals

        return adaptive_quadrature(g, 0.0, y, tol)

    def outer(tarr):
        return np.array([kernel.kx(x, t) * inner(t) for t in
                         np.atleast_1d(tarr)])

    return adaptive_quadrature(outer, 0.0, x, tol)


def apply_T(u, kernel, nl, method="grid", tol=1e-10, faces=True,
            face_tol=1e-4):
    """Tu as a weighted grid function on u's grid.

    method "grid" uses the cumulative weights (uniform grids only);
    "adaptive" uses nested adaptive panels per node with a spline read of u.
    With faces=True the infinity-face data of Tu is attached by
    attach_faces.
    """
    if u.ndim != 2:
        raise ValueError("apply_T expects a 2d grid function")
    xs, ys = u.axes
    if method == "grid":
        samples = GridHammersteinOperator(kernel, nl, u.axes).apply(u.samples)
    elif method == "adaptive":
        from scipy.interpolate import RectBivariateSpline

        spline = RectBivariateSpline(xs, ys, u.samples, kx=3, ky=3)

        def u_eval(t, s):
            t = np.clip(np.asarray(t, dtype=float), xs[0], xs[-1])
            s = np.clip(np.asarray(s, dtype=float), ys[0], ys[-1])
            return spline(t, s, grid=False)

        samples = np.array([[_adaptive_node_value(kernel, nl, u_eval, x, y,
                                                  tol)
                             for y in ys] for x in xs])
    else:
        raise ValueError(f"unknown method {method!r}")

    out = u.with_samples(samples)
    if not faces:
        return out
    return attach_faces(out, u, kernel, nl, tol, face_tol)


def attach_faces(out, u, kernel, nl, tol=1e-10, face_tol=1e-4):
    """Store the infinity-face values of out = Tu/phi, one per y-node.

    Values come from the kernel's closed-form trace applied to the input u
    when one is attached, and otherwise from the windowed grid limit of out;
    when both routes exist they are cross-checked.  Sets out.infinity and
    out.face_status and returns out.
    """
    ys = out.axes[1]
    inf_vals = {}
    statuses = {}
    for face in out.face_labels():
        quot = quotient_derivative(out, (0, 0))
        vals = []
        for j in range(len(ys)):
            if kernel.z_form is not None:
                v = _trace_face_value(kernel, nl, u, ys[j], tol)
                res = _grid_face_limit(out, quot, face, j, face_tol)
                if res.converged and abs(res.value - v) > 10 * face_tol:
                    raise ValueError(
                        f"trace route and window route disagree at y={ys[j]}:"
                        f" {v:.6g} vs {res.value:.6g}")
                vals.append(v)
                statuses[(face, j)] = "trace"
            else:
                res = _grid_face_limit(out, quot, face, j, face_tol)
                statuses[(face, j)] = res.status
                vals.append(res.value if res.converged else math.nan)
        if np.all(np.isfinite(vals)):
            inf_vals[face] = {(0, 0): np.asarray(vals)}
    out.infinity = inf_vals
    out.face_status = statuses
    return out


def _trace_face_value(kernel, nl, u, y0, tol):
    """Face value via the trace integral int z((t,s)) f(t,s,u) dt ds."""
    from scipy.interpolate import RectBivariateSpline

    spline = RectBivariateSpline(u.axes[0], u.axes[1], u.samples, kx=3, ky=3)
    xs = u.axes[0]

    def integrand_t(t):
        t = np.atleast_1d(t)
        out = np.empty_like(t)
        for i, tv in enumerate(t):
            tv = float(min(max(tv, xs[0]), xs[-1]))

            def g(s, tv=tv):
                s = np.asarray(s, dtype=float)
                uv = spline(np.full_like(s, tv), s, grid=False)
                return kernel.z_form(tv, s) * nl.eval(tv, s, uv)

            out[i] = adaptive_quadrature(g, 0.0, y0, tol)
        return out

    return adaptive_quadrature(integrand_t, 0.0, float(xs[-1]), tol)


# ---------------------------------------------------------------------------
# hypothesis checking


@dataclass
class ConditionResult:
    status: str  # verified | verified_on_truncation | diverges | unverified
    detail: str
    data: dict = field(default_factory=dict)


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


def _weighted_quotient_profile(quotient, t, x_hi, n=1200):
    """sup over x >= t of |kx(x, t)| / phi(x), plus its argmax.

    May return inf when the sup overflows the float range; the caller
    treats that as evidence of non-integrability, never as a finite bound.
    """
    xs = np.linspace(t, x_hi, n)
    with np.errstate(over="ignore"):
        q = np.abs(quotient(xs, t))
    i = int(np.argmax(q))
    return float(q[i]), float(xs[i])


def check_hypotheses(kernel, weight, nl, r, p_set=((0, 0),), truncation=8.0,
                     n_t=41, n_s=9, tol=1e-8):
    """Numeric status of the four operator hypotheses at cone radius r.

    weight is phi, called on x alone (the y direction is unweighted), as
    every WEIGHT_REGISTRY entry can be.  Only p = 0 is examined; higher
    kernel derivatives are out of scope here.
    """
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"cone radius must be positive and finite, got {r!r}")
    ts = np.linspace(0.0, truncation, n_t)
    ss = np.linspace(0.0, 1.0, n_s)
    phi_r = nl.dominator(r)
    conditions = {}
    integrals = {}
    profiles = {}

    # C1: each kernel column lies in the weighted class: finite weighted sup
    # and an existing limit at the infinity face.
    quotient = _quotient_fn(kernel, weight)
    x_hi = max(2.0 * truncation, 10.0)
    m_profile = np.array([_weighted_quotient_profile(quotient, t, x_hi)
                          for t in ts])
    profiles["M0"] = (ts, m_profile[:, 0])
    sup_ok = np.all(np.isfinite(m_profile[:, 0]))
    if kernel.weighted_sup is not None:
        oracle = np.array([kernel.weighted_sup(t, 0.5) for t in ts])
        m_gap = float(np.max(np.abs(m_profile[:, 0] - oracle)
                             / np.maximum(oracle, 1.0)))
    else:
        m_gap = math.nan
    cmap = HalfLineOnePoint()
    z_vals = []
    for t in ts[:: max(1, n_t // 8)]:
        res = kappa_limit(lambda x, t=t: quotient(np.asarray(x), t),
                          cmap.infinity_points()[0], cmap, tol=1e-6)
        z_vals.append(res.value if res.converged else math.nan)
    z_vals = np.asarray(z_vals)
    profiles["z0"] = z_vals
    z_ok = np.all(np.isfinite(z_vals))
    conditions["C1"] = ConditionResult(
        "verified" if (sup_ok and z_ok) else "unverified",
        f"weighted sup finite at {n_t} columns"
        + (f", relative gap to analytic sup {m_gap:.2e}"
           if math.isfinite(m_gap) else "")
        + f", face limit exists at {len(z_vals)} sampled columns",
        {"max_weighted_sup": float(m_profile[:, 0].max()),
         "max_abs_z": float(np.nanmax(np.abs(z_vals)))})

    # C2: modulus of the weighted quotient in the compactified metric,
    # finite on the truncated domain only (it grows with the truncation).
    xs = np.linspace(0.0, truncation, 400)
    emb = xs / (1.0 + xs)
    w_vals = []
    for t in ts:
        q = quotient(xs, t) * (xs >= t)
        ratios = np.abs(np.diff(q)) / np.diff(emb)
        w_vals.append(float(ratios.max()))
    w_vals = np.asarray(w_vals)
    profiles["w0"] = (ts, w_vals)
    conditions["C2"] = ConditionResult(
        "verified_on_truncation",
        f"modulus finite on [0, {truncation:g}], max {w_vals.max():.3g}; "
        "no uniform modulus is claimed beyond the truncation",
        {"max_modulus": float(w_vals.max())})

    # C3: domination f(t, s, v) <= Phi_r(t, s) for |v| <= r phi(t), and
    # integrability of Phi_r over the half-strip.
    tm, sm = np.meshgrid(ts, ss, indexing="ij")
    dom_ok = True
    worst = -math.inf
    for frac in (0.0, 0.3, 0.7, 1.0):
        v = frac * r * weight(tm)
        gap = float(np.max(nl.eval(tm, sm, v) - phi_r(tm, sm)))
        worst = max(worst, gap)
        dom_ok &= gap <= 1e-12
    phi_int = unbounded_quadrature(
        lambda t: np.array([adaptive_quadrature(
            lambda s, tv=tv: phi_r(tv, s), 0.0, 1.0, tol)
            for tv in np.atleast_1d(t)]),
        tol=tol, tail=gaussian_tail(1.0, scale=0.2 + r * r))
    integrals["Phi_r"] = phi_int
    conditions["C3"] = ConditionResult(
        "verified" if dom_ok and math.isfinite(phi_int) else "unverified",
        f"domination margin {worst:.2e} on sampled cone points, "
        f"integral {phi_int:.6g}",
        {"worst_gap": worst})

    # C4: the three L1 products.  The M-branch is probed on doubling
    # truncations; if the increments do not decay the product is reported
    # divergent and the integral as inf.
    def m_phi_partial(R):
        tt = np.linspace(0.0, R, max(101, int(20 * R) + 1))
        x_top = max(2.0 * R, 10.0)
        mprof = np.array([_weighted_quotient_profile(quotient, t, x_top,
                                                     800)[0]
                          for t in tt])
        if np.any(np.isinf(mprof)):
            # The weighted sup already overflows the float range somewhere
            # on [0, R]; the partial integral is unbounded a fortiori.
            # Multiplying inf by an underflowed s-integral would give nan,
            # so bail out before forming the product.
            return math.inf
        sint = np.array([adaptive_quadrature(
            lambda s, tv=tv: phi_r(tv, s), 0.0, 1.0, 1e-10)
            for tv in tt])
        return float(np.trapezoid(mprof * sint, tt))

    radii = [truncation, 2 * truncation, 4 * truncation]
    partials = [m_phi_partial(R) for R in radii]
    if any(not math.isfinite(p) for p in partials):
        diverging = True
    else:
        incs = np.diff([0.0] + partials)
        diverging = incs[-1] > 0.5 * incs[-2] and incs[-1] > tol
    integrals["M0*Phi_r"] = math.inf if diverging else partials[-1]
    z_phi = float(np.nanmax(np.abs(z_vals))) * integrals["Phi_r"]
    integrals["|z0|*Phi_r"] = z_phi
    w_phi = float(np.trapezoid(w_vals * np.array(
        [adaptive_quadrature(lambda s, tv=tv: phi_r(tv, s), 0.0, 1.0, 1e-10)
         for tv in ts]), ts))
    integrals["w0*Phi_r"] = w_phi
    if diverging:
        status = "diverges"
        detail = (f"partial M0*Phi_r integrals {partials[0]:.4g} -> "
                  f"{partials[1]:.4g} -> {partials[2]:.4g} keep growing "
                  "with the truncation radius")
    else:
        status = "verified_on_truncation"
        detail = "all three products converged on doubling truncations"
    conditions["C4"] = ConditionResult(status, detail,
                                       {"partials": partials})

    return HypothesisReport(r, conditions, integrals, profiles)
