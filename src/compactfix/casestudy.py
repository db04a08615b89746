"""The problems, closed-form validation and the demos.

A problem is a problem-file document; PROBLEMS holds the built-in ones.
"hyperbolic-erf" is the Gaussian-shifted causal kernel on [0, inf) x [0, 1]
with weight exp(-x^2/2) and forcing (1/8) exp(-(x^2+y^2)) + u^2, whose
closed forms all reduce to erf.  The demos are not problems: each DEMOS
entry runs one classical counterexample (arctan under two
compactifications, the translating Gaussians, the marching bump chain) and
returns its JSON-ready summary.
"""

from __future__ import annotations

import inspect
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .compactify import (ExtensionError, HalfLineOnePoint, IntervalIdentity,
                         LineOnePoint, LineTwoPoint, ProductCompactification,
                         extend, kappa_limit)
from .funcspace import (LOG_WEIGHTS, WEIGHT_REGISTRY, BumpChain,
                        gaussian_family, gaussian_family_separation,
                        precompactness_report)
from .greenop import (Kernel, Nonlinearity, kernel_abs_integral,
                      panel_quadrature, quotient_forms)

_SQRT_PI = math.sqrt(math.pi)


@dataclass
class NamedProblem:
    id: str
    weight_desc: str             # a WEIGHT_REGISTRY name
    kernel: Kernel
    nl: Nonlinearity
    closed_forms: dict           # {form name: callable}
    truncation: float            # the x-truncation a solve uses by default
    #: the half strip [0, inf] x [0, 1], the map of a solve's solution,
    #: which its sidecar names ["halfline-onepoint", "interval"]
    cmap = ProductCompactification((HalfLineOnePoint(), IntervalIdentity()))

    @property
    def weight(self):
        """phi, a callable of x alone."""
        return WEIGHT_REGISTRY[self.weight_desc]


def _real_param(name, value, positive):
    """value as a float if it is a finite real number that is > 0
    (positive) or >= 0; ValueError otherwise."""
    ok = (isinstance(value, numbers.Real) and not isinstance(value, bool)
          and math.isfinite(value)
          and (value > 0 if positive else value >= 0))
    if not ok:
        raise ValueError(f"{name} must be a finite real number "
                         f"{'> 0' if positive else '>= 0'}, got {value!r}")
    return float(value)


def _gauss_shift_kernel(weight_desc, rate=1.0):
    """exp(-rate (x-t)^2), given by its logarithm and the logarithm's
    x-derivative; greenop.quotient_forms derives the weighted forms for the
    problem's weight from them."""
    rate = _real_param("gauss-shift rate", rate, positive=True)

    def log_kx(x, t):
        return -rate * (x - t) ** 2

    def dlog_kx(x, t):
        return -2.0 * rate * (x - t)

    def kx(x, t):
        return np.exp(log_kx(x, t))

    def abs_integral(x, y):
        return 0.5 * _SQRT_PI / math.sqrt(rate) * y * erf(math.sqrt(rate)
                                                          * np.asarray(x))

    weighted_sup = None
    if rate == 1.0 and weight_desc == "exp(-x^2/2)":
        # sup over x >= t of exp(x^2/2 - (x-t)^2), attained at x = 2t
        def weighted_sup(t, s):
            return math.exp(t * t)

    return Kernel("gauss-shift", kx, abs_integral=abs_integral,
                  weighted_sup=weighted_sup,
                  **quotient_forms(log_kx, dlog_kx, weight_desc))


def _gauss_square_nonlinearity(weight_desc, amplitude=0.125):
    """amp exp(-(x^2 + y^2)) + v^2, with the quotient form
    amp exp(-t^2 - 2 log phi(t)) exp(-s^2) + q^2 and the dominator
    amp exp(-(t^2 + s^2)) + r^2 phi(t)^2 for every weight phi.  All three
    compute the forcing alike, one exponential per axis node for
    arguments broadcast from two axes, so they round the same way."""
    amplitude = _real_param("gauss-plus-square amplitude", amplitude,
                            positive=False)
    weight = WEIGHT_REGISTRY[weight_desc]
    log_phi = LOG_WEIGHTS[weight_desc][0]

    def forcing(t, s, log_scale=0.0):
        return amplitude * np.exp(-np.asarray(t) ** 2 - log_scale) \
            * np.exp(-np.asarray(s) ** 2)

    def fn(x, y, v):
        return forcing(x, y) + v ** 2

    def q_eval(t, s, q):
        return forcing(t, s, 2.0 * log_phi(t)) + q ** 2

    def dominator(r):
        def phi_r(t, s):
            return forcing(t, s) + r * r * weight(t) ** 2
        # int_0^1 Phi_r ds = (amp int_0^1 exp(-s^2) ds + r^2) exp(-t^2)
        # when phi(t)^2 = exp(-t^2)
        scale = amplitude * _SQRT_PI / 2.0 * erf(1.0) + r * r
        return phi_r, (scale if weight_desc == "exp(-x^2/2)" else None)

    return Nonlinearity("gauss-plus-square", fn, dominator,
                        params={"amplitude": amplitude}, q_eval=q_eval)


def _zero_nonlinearity(weight_desc):
    def fn(x, y, v):
        return np.zeros(np.broadcast(np.asarray(x), np.asarray(y),
                                     np.asarray(v)).shape)

    def dominator(r):
        return lambda t, s: 0.0 * np.asarray(t) * np.asarray(s), 0.0

    # f(t, s, phi q) / phi^2 is 0 for every weight
    return Nonlinearity("zero", fn, dominator, q_eval=fn)


_KERNELS = {"gauss-shift": _gauss_shift_kernel}
_NONLINEARITIES = {"gauss-plus-square": _gauss_square_nonlinearity,
                   "zero": _zero_nonlinearity}


#: each built-in problem by id, as the document a problem file holds
#: (load_problem_file), built by the same function
PROBLEMS = {"hyperbolic-erf": {"kernel": {"id": "gauss-shift"},
                               "nonlinearity": {"id": "gauss-plus-square"}}}
PROBLEM_IDS = tuple(PROBLEMS)


def _problem_piece(cfgdoc, key, factories, weight_desc):
    """Build the kernel or nonlinearity named by cfgdoc[key]; ValueError
    naming the key for a missing entry, an id that is not a known string or
    an unknown parameter."""
    piece = cfgdoc.get(key)
    if not isinstance(piece, dict) or "id" not in piece:
        raise ValueError(f"problem file needs a {key!r} entry with an 'id'")
    pid = piece["id"]
    if not isinstance(pid, str) or pid not in factories:
        raise ValueError(f"unknown {key} id {pid!r}")
    params = piece.get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f"{key} params must be an object, got {params!r}")
    factory = factories[pid]
    known = list(inspect.signature(factory).parameters)[1:]
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise ValueError(f"unknown {key} parameter {unknown[0]!r} for "
                         f"{pid!r}; known: {', '.join(known) or 'none'}")
    return factory(weight_desc, **params)


def _build_problem(cfgdoc):
    """The problem a problem-file document describes.  Its closed forms
    follow its pieces: abs_integral for every kernel, and T(0) and its face
    values for the gauss-plus-square forcing with a gauss-shift kernel that
    has a weighted_sup (rate 1 under exp(-x^2/2), _gauss_shift_kernel)."""
    if not isinstance(cfgdoc, dict):
        raise ValueError("a problem file holds one JSON object")
    problem_id = cfgdoc.get("id", "custom")
    if not isinstance(problem_id, str):
        raise ValueError(f"problem id must be a string, got {problem_id!r}")
    weight_desc = cfgdoc.get("weight", "exp(-x^2/2)")
    if not isinstance(weight_desc, str) or weight_desc not in WEIGHT_REGISTRY:
        raise ValueError(f"unknown weight {weight_desc!r}")
    kernel = _problem_piece(cfgdoc, "kernel", _KERNELS, weight_desc)
    nl = _problem_piece(cfgdoc, "nonlinearity", _NONLINEARITIES, weight_desc)
    truncation = _real_param("truncation", cfgdoc.get("truncation", 24.0),
                             positive=True)
    closed_forms = {"abs_integral": kernel.abs_integral}
    if (kernel.name == "gauss-shift" and kernel.weighted_sup is not None
            and nl.name == "gauss-plus-square"):
        # T0 = amp (pi / (2 sqrt 2)) exp(-x^2/2) erf(x/sqrt 2) erf(y)
        coeff = nl.params["amplitude"] * (math.pi / (2.0 * math.sqrt(2.0)))

        def tu0(x, y):
            x = np.asarray(x, dtype=float)
            return coeff * np.exp(-x ** 2 / 2.0) \
                * erf(x / math.sqrt(2.0)) * erf(np.asarray(y))

        def tu0_face(y0):
            return coeff * erf(np.asarray(y0))

        closed_forms.update(Tu0=tu0, Tu0_face=tu0_face)
    return NamedProblem(id=problem_id, weight_desc=weight_desc,
                        kernel=kernel, nl=nl, closed_forms=closed_forms,
                        truncation=truncation)


def load_problem(problem_id):
    """Build the built-in problem PROBLEMS[problem_id]; ValueError naming
    the known ids for any other id."""
    if problem_id not in PROBLEMS:
        raise ValueError(f"unknown problem id {problem_id!r}; "
                         f"available: {', '.join(PROBLEM_IDS)}")
    return _build_problem(dict(PROBLEMS[problem_id], id=problem_id))


def load_problem_file(path):
    """Build a problem from a JSON file.

    Schema: {"id": str (default "custom"), "truncation": float (default
    24, the x-truncation of solve and check-conditions),
    "weight": a WEIGHT_REGISTRY name (default "exp(-x^2/2)"),
    "kernel": {"id": ..., "params": {...}},
    "nonlinearity": {"id": ..., "params": {...}}}.
    """
    with open(path) as fh:
        return _build_problem(json.load(fh))


# ---------------------------------------------------------------------------
# demos


def _arctan_demo():
    """arctan has the limits -pi/2 and pi/2 at the two points of the
    two-point compactification of the line and none at the one point of
    the one-point compactification."""
    demo = {"two_point": extend(np.arctan, LineTwoPoint(), tol=1e-6),
            "one_point": None}
    try:
        extend(np.arctan, LineOnePoint(), tol=1e-6)
    except ExtensionError as err:
        demo["one_point"] = {lbl: res.status
                             for lbl, res in err.failures.items()}
    return demo


def _gaussian_family_demo():
    """The translating Gaussians: bounded and equicontinuous but not
    equiconvergent, so not precompact."""
    return dict(precompactness_report(gaussian_family(40, 48.0, 0.005)),
                separation=gaussian_family_separation(10))


def _bump_chain_demo():
    """The marching bump chain: the value has a limit at infinity, the
    derivative none."""
    chain = BumpChain()
    cmap = HalfLineOnePoint()
    value_limit = kappa_limit(chain.value, "inf", cmap, tol=1e-3,
                              extra_samples=chain.witness_points)
    deriv_limit = kappa_limit(chain.derivative, "inf", cmap, tol=1e-3,
                              extra_samples=chain.witness_points)
    return {
        "value": {"status": value_limit.status,
                  "value": value_limit.value,
                  "oscillation": value_limit.oscillation},
        "derivative": {"status": deriv_limit.status,
                       "oscillation": deriv_limit.oscillation},
    }


# demo id -> the function that runs it
DEMOS = {"arctan-demo": _arctan_demo,
         "gaussian-family": _gaussian_family_demo,
         "bump-chain": _bump_chain_demo}


def run_full_pipeline(demo_id):
    """Run one of the DEMOS and return its JSON-ready summary; ValueError
    naming the known ids for any other id."""
    if demo_id not in DEMOS:
        raise ValueError(f"unknown demo id {demo_id!r}; "
                         f"available: {', '.join(DEMOS)}")
    return DEMOS[demo_id]()


def validate_closed_forms(problem, n=20):
    """Max gap between each attached closed form and direct quadrature.

    Returns {form name: max abs gap over an n x n grid}.
    """
    gaps = {}
    xs = np.linspace(0.05, 4.0, n)
    ys = np.linspace(0.05, 1.0, n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    forms = problem.closed_forms
    kx = problem.kernel.kx

    def gauss_integrals(hi, tol):
        """int_0^{hi_i} exp(-s^2) ds for every entry of hi."""
        return panel_quadrature(lambda s: np.exp(-s ** 2), 0.0, hi, tol)

    if "abs_integral" in forms:
        q = kernel_abs_integral(problem.kernel, xs, ys, tol=1e-10)
        cf = forms["abs_integral"](X, Y)
        gaps["abs_integral"] = float(np.max(np.abs(q - cf)))
    if "Tu0" in forms:
        it = panel_quadrature(lambda t: kx(xs[:, None], t) * np.exp(-t ** 2),
                              0.0, xs, 1e-13)
        q = problem.nl.params["amplitude"] * it[:, None] \
            * gauss_integrals(ys, 1e-13)[None, :]
        gaps["Tu0"] = float(np.max(np.abs(q - forms["Tu0"](X, Y))))
    if "Tu0_face" in forms:
        x_eval = 6.0
        it = panel_quadrature(lambda t: kx(x_eval, t) * np.exp(-t ** 2),
                              0.0, x_eval, 1e-15)[0]
        phi = float(problem.weight(x_eval))
        y0 = np.linspace(0.0, 1.0, n)
        q = problem.nl.params["amplitude"] * it \
            * gauss_integrals(y0, 1e-15) / phi
        gaps["Tu0_face"] = float(np.max(np.abs(q - forms["Tu0_face"](y0))))
    return gaps
