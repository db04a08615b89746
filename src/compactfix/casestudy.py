"""Ready-to-run named problems and the end-to-end pipeline.

"hyperbolic-erf" is the solving problem: the Gaussian-shifted causal kernel
on [0, inf) x [0, 1] with weight exp(-x^2/2) and forcing
(1/8) exp(-(x^2+y^2)) + u^2, whose closed forms all reduce to erf.  The three
demo ids package the classical counterexamples (arctan under two
compactifications, the translating Gaussians, the marching bump chain) so
they can be driven by name from the CLI and the tests.
"""

from __future__ import annotations

import inspect
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .compactify import (ExtensionError, HalfLineOnePoint, IntervalIdentity,
                         LineOnePoint, LineTwoPoint, ProductCompactification,
                         extend, kappa_limit)
from .cones import ConeSpec, default_eval_grid, index_one_sweep
from .funcspace import (WEIGHT_REGISTRY, BumpChain, gaussian_family,
                        gaussian_family_separation, precompactness_report)
from .greenop import (Dominator, Kernel, Nonlinearity, check_hypotheses,
                      kernel_abs_integral, panel_quadrature)
from .solver import SolveConfig, picard_solve

PROBLEM_IDS = ("hyperbolic-erf", "arctan-demo", "gaussian-family",
               "bump-chain")

_SQRT_PI = math.sqrt(math.pi)
_T0_COEFF = math.pi / (16.0 * math.sqrt(2.0))


@dataclass
class NamedProblem:
    id: str
    weight_desc: str = "1"       # a WEIGHT_REGISTRY name
    kernel: Kernel = None
    nl: Nonlinearity = None
    cmap: object = None
    spec: ConeSpec = None
    closed_forms: dict = field(default_factory=dict)
    default_config: SolveConfig = None
    payload: dict = field(default_factory=dict)

    @property
    def weight(self):
        """phi, called on x alone or on a meshgrid."""
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
    """exp(-rate (x-t)^2); the closed forms of kx/phi and the quotient form
    are attached only for the weight they were derived for."""
    rate = _real_param("gauss-shift rate", rate, positive=True)

    def kx(x, t):
        return np.exp(-rate * (x - t) ** 2)

    def dkx(x, t):
        return -2.0 * rate * (x - t) * np.exp(-rate * (x - t) ** 2)

    def abs_integral(x, y):
        return 0.5 * _SQRT_PI / math.sqrt(rate) * y * erf(math.sqrt(rate)
                                                          * np.asarray(x))

    forms = {}
    if weight_desc == "exp(-x^2/2)":
        # Combine the exponents before exponentiating: the raw ratio
        # kx(x,t)/phi(x) is 0/0 in float64 once both factors underflow
        # (x beyond ~38 at rate 1), while the combined exponent is exact
        # there.
        def weighted_quotient(x, t):
            x = np.asarray(x, dtype=float)
            with np.errstate(over="ignore"):
                return np.exp(x ** 2 / 2.0 - rate * (x - t) ** 2)

        # kx(x, t) phi(t)^2 / phi(x) = exp(x^2/2 - rate (x-t)^2 - t^2), as
        # a square in t: a Gaussian ridge of width 1/sqrt(rate + 1) about
        # t = rate x / (rate + 1); at rate 1 it is exp(-(x - 2t)^2 / 2).
        centre = rate / (rate + 1.0)
        growth = (1.0 - rate) / (2.0 * (rate + 1.0))

        def qx(x, t):
            with np.errstate(over="ignore"):
                return np.exp(growth * x ** 2
                              - (rate + 1.0) * (t - centre * x) ** 2)

        forms.update(weighted_quotient=weighted_quotient, qx=qx)
        if rate == 1.0:
            # sup over x >= t of exp(x^2/2 - (x-t)^2), attained at x = 2t
            def weighted_sup(t, s):
                return math.exp(t * t)
            forms["weighted_sup"] = weighted_sup

    return Kernel("gauss-shift", kx, abs_integral=abs_integral, dkx=dkx,
                  **forms)


def _gauss_square_nonlinearity(weight_desc, amplitude=0.125):
    """amp exp(-(x^2 + y^2)) + v^2.  Its dominator amp exp(-(t^2 + s^2)) +
    r^2 phi(t)^2 holds for the problem's weight phi; the quotient form
    amp exp(-s^2) + q^2 is attached for phi(t)^2 = exp(-t^2) only."""
    amplitude = _real_param("gauss-plus-square amplitude", amplitude,
                            positive=False)
    weight = WEIGHT_REGISTRY[weight_desc]
    gaussian = weight_desc == "exp(-x^2/2)"

    def fn(x, y, v):
        return amplitude * np.exp(-(np.asarray(x) ** 2
                                    + np.asarray(y) ** 2)) + v ** 2

    def q_eval(t, s, q):
        return amplitude * np.exp(-np.asarray(s) ** 2) + q ** 2

    def dominator(r):
        def phi_r(t, s):
            return amplitude * np.exp(-(np.asarray(t) ** 2
                                        + np.asarray(s) ** 2)) \
                + r * r * weight(t) ** 2
        # int_0^1 Phi_r ds = (amp int_0^1 exp(-s^2) ds + r^2) exp(-t^2)
        # when phi(t)^2 = exp(-t^2)
        scale = amplitude * _SQRT_PI / 2.0 * erf(1.0) + r * r
        return Dominator(phi_r, scale if gaussian else None)

    return Nonlinearity("gauss-plus-square", fn, dominator,
                        params={"amplitude": amplitude},
                        q_eval=q_eval if gaussian else None)


def _zero_nonlinearity(weight_desc):
    def fn(x, y, v):
        return np.zeros(np.broadcast(np.asarray(x), np.asarray(y),
                                     np.asarray(v)).shape)

    def dominator(r):
        return Dominator(lambda t, s: 0.0 * np.asarray(t) * np.asarray(s),
                         0.0)

    # f(t, s, phi q) / phi^2 is 0 for every weight
    return Nonlinearity("zero", fn, dominator, q_eval=fn)


_KERNELS = {"gauss-shift": _gauss_shift_kernel}
_NONLINEARITIES = {"gauss-plus-square": _gauss_square_nonlinearity,
                   "zero": _zero_nonlinearity}


def _halfstrip_cmap():
    return ProductCompactification((HalfLineOnePoint(),
                                    IntervalIdentity(0.0, 1.0)),
                                   name="halfstrip")


def _hyperbolic_erf():
    kernel = _gauss_shift_kernel("exp(-x^2/2)")
    nl = _gauss_square_nonlinearity("exp(-x^2/2)")

    def tu0(x, y):
        x = np.asarray(x, dtype=float)
        return _T0_COEFF * np.exp(-x ** 2 / 2.0) \
            * erf(x / math.sqrt(2.0)) * erf(np.asarray(y))

    def tu0_face(y0):
        return _T0_COEFF * erf(np.asarray(y0))

    return NamedProblem(
        id="hyperbolic-erf",
        weight_desc="exp(-x^2/2)",
        kernel=kernel,
        nl=nl,
        cmap=_halfstrip_cmap(),
        spec=ConeSpec(),
        closed_forms={"abs_integral": kernel.abs_integral, "Tu0": tu0,
                      "Tu0_face": tu0_face},
        default_config=SolveConfig(rho_ball=0.5),
    )


def load_problem(problem_id):
    """Construct one of the named problems; raises on unknown ids."""
    if problem_id == "hyperbolic-erf":
        return _hyperbolic_erf()
    if problem_id == "arctan-demo":
        return NamedProblem(
            id="arctan-demo",
            payload={"f": np.arctan, "two_point": LineTwoPoint(),
                     "one_point": LineOnePoint(), "tol": 1e-6})
    if problem_id == "gaussian-family":
        return NamedProblem(
            id="gaussian-family",
            cmap=HalfLineOnePoint(),
            payload={"n_max": 40, "truncation": 48.0, "step": 0.005,
                     "separation_n": 10})
    if problem_id == "bump-chain":
        return NamedProblem(
            id="bump-chain",
            cmap=HalfLineOnePoint(),
            payload={"chain": BumpChain(), "tol": 1e-3})
    raise ValueError(f"unknown problem id {problem_id!r}; "
                     f"available: {', '.join(PROBLEM_IDS)}")


def _problem_piece(cfgdoc, key, factories, weight_desc):
    """Build the kernel or nonlinearity named by cfgdoc[key]; ValueError
    naming the key for a missing entry, an unknown id or an unknown
    parameter."""
    piece = cfgdoc.get(key)
    if not isinstance(piece, dict) or "id" not in piece:
        raise ValueError(f"problem file needs a {key!r} entry with an 'id'")
    pid = piece["id"]
    if pid not in factories:
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


def load_problem_file(path):
    """Build a problem from a JSON file.

    Schema: {"id": str, "truncation": float,
    "weight": a WEIGHT_REGISTRY name (default "exp(-x^2/2)"),
    "kernel": {"id": ..., "params": {...}},
    "nonlinearity": {"id": ..., "params": {...}}}.
    """
    with open(path) as fh:
        cfgdoc = json.load(fh)
    if not isinstance(cfgdoc, dict):
        raise ValueError("a problem file holds one JSON object")
    weight_desc = cfgdoc.get("weight", "exp(-x^2/2)")
    if weight_desc not in WEIGHT_REGISTRY:
        raise ValueError(f"unknown weight {weight_desc!r}")
    kernel = _problem_piece(cfgdoc, "kernel", _KERNELS, weight_desc)
    nl = _problem_piece(cfgdoc, "nonlinearity", _NONLINEARITIES, weight_desc)
    cfg = SolveConfig(truncation=float(cfgdoc.get("truncation", 24.0)))
    return NamedProblem(
        id=cfgdoc.get("id", "custom"), weight_desc=weight_desc,
        kernel=kernel, nl=nl, cmap=_halfstrip_cmap(), spec=ConeSpec(),
        closed_forms={"abs_integral": kernel.abs_integral}
        if kernel.abs_integral else {},
        default_config=cfg)


# ---------------------------------------------------------------------------
# pipeline


@dataclass
class PipelineBundle:
    problem: NamedProblem
    hypotheses: object = None
    cone: object = None
    solve: object = None
    demo: dict = None           # JSON-ready demo summary
    objects: dict = field(default_factory=dict)  # rich results for callers

    def summary(self):
        out = {"problem": self.problem.id}
        if self.solve is not None:
            c = self.solve.config
            out["config"] = {"grid_step": [c.hx, c.hy],
                             "truncation": c.truncation, "tol": c.tol,
                             "max_iter": c.max_iter, "rho_ball": c.rho_ball}
        if self.hypotheses is not None:
            out["hypotheses"] = {
                "conditions": {k: v.status
                               for k, v in self.hypotheses.conditions.items()},
                "integrals": {k: v for k, v in
                              self.hypotheses.integrals.items()},
            }
        if self.cone is not None:
            out["cone"] = list(self.cone.rows)
        if self.solve is not None:
            s = self.solve
            out["solve"] = {
                "iterations": s.iterations,
                "final_gap": s.gap_history[-1],
                "beta": s.beta_history[-1],
                "residual_sup": s.residual_sup,
                "in_ball": s.in_ball,
                "profile": [{"y0": y0, "value": r.value, "status": r.status}
                            for y0, r in s.profile],
            }
        if self.demo is not None:
            out["demo"] = self.demo
        return out


def run_full_pipeline(problem_id, cfg=None):
    """Hypothesis report + cone sweep + solve for the main problem; the demo
    ids run their diagnostic branch instead."""
    problem = problem_id if isinstance(problem_id, NamedProblem) \
        else load_problem(problem_id)

    if problem.kernel is not None:
        cfg = cfg or problem.default_config or SolveConfig(rho_ball=0.5)
        rho = cfg.rho_ball if cfg.rho_ball else 0.5
        hyp = check_hypotheses(problem.kernel, problem.weight, problem.nl,
                               rho, truncation=8.0)
        rhos = np.round(np.arange(0.05, 1.0 + 1e-9, 0.05), 4)
        cone = index_one_sweep(problem.kernel, problem.nl, problem.spec,
                               rhos, grid=default_eval_grid(cfg.truncation))
        result = picard_solve(problem, cfg)
        return PipelineBundle(problem, hyp, cone, result)

    if problem.id == "arctan-demo":
        f = problem.payload["f"]
        tol = problem.payload["tol"]
        ext = extend(f, problem.payload["two_point"], tol=tol)
        demo = {"two_point": dict(ext.limits), "one_point": None}
        objects = {"extension": ext}
        try:
            extend(f, problem.payload["one_point"], tol=tol)
        except ExtensionError as err:
            demo["one_point"] = {lbl: res.status
                                 for lbl, res in err.failures.items()}
            objects["one_point_error"] = err
        return PipelineBundle(problem, demo=demo, objects=objects)

    if problem.id == "gaussian-family":
        pl = problem.payload
        fam = gaussian_family(pl["n_max"], pl["truncation"], pl["step"])
        report = precompactness_report(fam)
        sep = gaussian_family_separation(pl["separation_n"])
        return PipelineBundle(problem, demo={
            "separation": sep,
            "bounded": report.bounded,
            "equicontinuous": report.equicontinuous,
            "equiconvergent": report.equiconvergent,
            "bound": report.bound,
            "worst_deviation": report.worst_deviation,
        }, objects={"report": report, "family": fam})

    if problem.id == "bump-chain":
        chain = problem.payload["chain"]
        tol = problem.payload["tol"]
        cmap = problem.cmap
        inf_pt = cmap.infinity_points()[0]
        value_limit = kappa_limit(chain.value, inf_pt, cmap, tol=tol,
                                  extra_samples=chain.witness_points)
        deriv_limit = kappa_limit(chain.derivative, inf_pt, cmap, tol=tol,
                                  extra_samples=chain.witness_points)
        return PipelineBundle(problem, demo={
            "value": {"status": value_limit.status,
                      "value": value_limit.value,
                      "oscillation": value_limit.oscillation},
            "derivative": {"status": deriv_limit.status,
                           "oscillation": deriv_limit.oscillation},
        }, objects={"value_limit": value_limit,
                    "derivative_limit": deriv_limit})

    raise ValueError(f"no pipeline branch for {problem.id!r}")


def validate_closed_forms(problem, n=20, tol=1e-6):
    """Max gap between each attached closed form and direct quadrature.

    Returns {form name: max abs gap over an n x n grid}; every entry is
    expected below tol for the shipped problems.
    """
    gaps = {}
    if problem.kernel is None or not problem.closed_forms:
        return gaps
    xs = np.linspace(0.05, 4.0, n)
    ys = np.linspace(0.05, 1.0, n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    forms = problem.closed_forms
    kx = problem.kernel.kx
    amp = problem.nl.params.get("amplitude", 0.125)

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
        q = amp * it[:, None] * gauss_integrals(ys, 1e-13)[None, :]
        gaps["Tu0"] = float(np.max(np.abs(q - forms["Tu0"](X, Y))))
    if "Tu0_face" in forms:
        x_eval = 6.0
        it = panel_quadrature(lambda t: kx(x_eval, t) * np.exp(-t ** 2),
                              0.0, x_eval, 1e-15)[0]
        phi = float(problem.weight(x_eval))
        y0 = np.linspace(0.0, 1.0, n)
        q = amp * it * gauss_integrals(y0, 1e-15) / phi
        gaps["Tu0_face"] = float(np.max(np.abs(q - forms["Tu0_face"](y0))))
    return gaps
