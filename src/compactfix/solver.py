"""Picard iteration for the integral fixed point, residuals, profiles.

The solver iterates u <- Tu from u = 0 on a uniform truncated grid and
measures progress in the order-0 weighted norm.  When the problem carries
its quotient form (Kernel.qx and Nonlinearity.q_eval, see greenop) the
iterate is q = u/phi itself, so the gap is a plain sup of q+ - q and no
iteration divides by phi; u = phi q is formed once for the profile, the
residual and the files.  The profile is one windowed face ladder per y-node
on the converged iterate, and its converged values are the solution's
infinity-face data.  For the shipped problem the operator is monotone, so
the iterates increase pointwise and the stopping gap also bounds the
distance to the supremum of the iteration.  The reported residual is that
of the solved equation differentiated once in x and once in y, so it
measures the discretization error of the converged iterate; its x-rule is
built in the operator's row blocks, never as a dense matrix.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cones import beta_sup, index_one_check
from .funcspace import (WeightedGridFunction, face_profile,
                        quotient_derivative, save_grid_function)
from .greenop import GridHammersteinOperator, attach_faces, kernel_row_blocks


class IterationError(Exception):
    def __init__(self, msg, gap_history):
        super().__init__(msg)
        self.gap_history = tuple(gap_history)


@dataclass
class SolveConfig:
    hx: float = 0.02
    hy: float = 0.02
    truncation: float = 24.0
    tol: float = 1e-8
    max_iter: int = 50
    face_tol: float = 1e-4
    rho_ball: float = None

    def __post_init__(self):
        for name in ("hx", "hy", "tol", "truncation"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value!r}")
        # axes() rounds the node counts, so a step that does not divide its
        # interval would be silently replaced by another one
        for name, length in (("hx", self.truncation), ("hy", 1.0)):
            steps = length / getattr(self, name)
            if abs(steps - round(steps)) > 1e-9 * steps:
                raise ValueError(f"{name} = {getattr(self, name)!r} does not "
                                 f"divide the interval [0, {length:g}]")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")

    def axes(self):
        nx = int(round(self.truncation / self.hx))
        ny = int(round(1.0 / self.hy))
        return (np.linspace(0.0, self.truncation, nx + 1),
                np.linspace(0.0, 1.0, ny + 1))


@dataclass
class SolveResult:
    solution: WeightedGridFunction
    iterations: int
    gap_history: tuple
    beta_history: tuple
    residual_sup: float
    profile: tuple  # ((y0, LimitResult), ...)
    in_ball: object  # bool, or None when no ball was monitored
    ball_check: object
    config: SolveConfig


def picard_solve(problem, cfg=None):
    """Iterate u <- Tu from u = 0 until the weighted gap drops below tol.

    problem must carry kernel, nl, weight (a WEIGHT_REGISTRY entry, so
    that the solution can be saved) and spec attributes.  Raises
    WeightUnderflowError before any work when phi is 0 at a grid node, and
    IterationError with the gap history when max_iter is exhausted.
    """
    cfg = cfg or SolveConfig()
    axes = cfg.axes()
    u = WeightedGridFunction(axes, np.zeros(tuple(len(a) for a in axes)),
                             problem.weight)
    phi = u.weight_values()  # WeightUnderflowError before any work
    ball_check = None
    if cfg.rho_ball is not None:
        ball_check = index_one_check(
            problem.kernel, problem.nl, problem.spec, cfg.rho_ball,
            grid=(np.linspace(0.0, cfg.truncation, 33),
                  np.linspace(0.0, 1.0, 9)))
        if not ball_check.holds:
            warnings.warn(
                f"index-one condition fails at rho = {cfg.rho_ball:g} "
                f"(lhs = {ball_check.lhs:.4g}); the monitored ball is not "
                "certified", stacklevel=2)

    op = GridHammersteinOperator(problem.kernel, problem.nl, axes)
    # v is the operator's coordinate: q = u/phi in quotient form, else u
    v = op.from_u(u.samples, phi)
    gaps, betas = [], []
    for _ in range(cfg.max_iter):
        new = op.apply(v)
        gaps.append(op.gap(new, v, phi))
        betas.append(beta_sup(op.to_u(new, phi)))
        v = new
        if gaps[-1] < cfg.tol:
            break
    else:
        raise IterationError(
            f"no convergence after {cfg.max_iter} iterations "
            f"(last gap {gaps[-1]:.3g})", gaps)
    u = u.with_samples(op.to_u(v, phi))
    # release the operator's blocks before the residual builds its own
    del op

    # one face ladder per y-node: the profile, whose converged values are
    # also the solution's face data
    profile = tuple(asymptotic_profile(u, tol=cfg.face_tol))
    attach_faces(u, profile)
    residual = pde_residual(u, problem.nl, problem.kernel)
    in_ball = None
    if cfg.rho_ball is not None:
        in_ball = all(b <= cfg.rho_ball + 1e-12 for b in betas)
    return SolveResult(u, len(gaps), tuple(gaps), tuple(betas), residual,
                       profile, in_ball, ball_check, cfg)


def pde_residual(u, nl, kernel=None):
    """sup over interior nodes of the residual of the differentiated equation.

    Differentiating u = int_0^x int_0^y kx(x, t) f(t, s, u(t, s)) ds dt once
    in y and once in x (Leibniz rule) gives

        u_xy = kx(x, x) f(x, y, u) + int_0^x dkx(x, t) f(t, y, u(t, y)) dt,

    and the result is sup |D2_xy u - rhs|.  D2_xy is the centered 4-point
    cross stencil for the mixed second partial, so the residual of a grid
    solution decays at second order; the x-integral uses the cumulative
    weights in the operator's row blocks (greenop.kernel_row_blocks), so
    no n x n array is formed.  kernel=None is the case kx = 1, the Goursat
    form u_xy = f.  Edge nodes are excluded.

    Raises ValueError for a kernel with a y-factor or without dkx: the
    differentiated form would need terms this function does not evaluate.
    """
    if kernel is not None:
        if kernel.ky is not None:
            raise ValueError(
                f"kernel {kernel.name!r} has a y-factor ky; its "
                "differentiated form needs ky(y, y) and d ky/dy terms")
        if kernel.dkx is None:
            raise ValueError(
                f"kernel {kernel.name!r} has no dkx; the differentiated "
                "form needs the convolution term of d kx/dx")
    xs, ys = u.axes
    if len(xs) < 3 or len(ys) < 3:
        raise ValueError("grid too coarse for the mixed-derivative stencil")
    v = u.samples
    dx = xs[2:] - xs[:-2]
    dy = ys[2:] - ys[:-2]
    mixed = (v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2]) \
        / (dx[:, None] * dy[None, :])
    tm, sm = np.meshgrid(xs, ys[1:-1], indexing="ij")
    fvals = nl.eval(tm, sm, v[:, 1:-1])
    rhs = fvals[1:-1]
    if kernel is not None:
        inner = xs[1:-1]
        rhs = kernel.kx(inner, inner)[:, None] * rhs
        for a, _, block in kernel_row_blocks(kernel.dkx, xs, 1, len(xs) - 1):
            b = a + len(block)
            rhs[a - 1:b - 1] += block @ fvals[:b]
    return float(np.max(np.abs(mixed - rhs)))


def asymptotic_profile(u, tol=1e-4):
    """Windowed limits of u/phi at the infinity face, one per y-node.

    Raises ValueError naming the y-node when the ladder reports that no
    limit exists.  Inconclusive ladders are passed through in the results
    for the caller to inspect.
    """
    faces = u.face_labels()
    if not faces:
        raise ValueError("the grid function has no infinity face")
    out = face_profile(u, quotient_derivative(u, (0, 0)), faces[0], tol)
    for y0, res in out:
        if res.status == "no_limit":
            raise ValueError(f"no limit of u/phi at y0 = {y0:g}")
    return out


# ---------------------------------------------------------------------------
# file outputs


def write_outputs(result, out_dir, timestamp=True):
    """solution.csv (+sidecar), convergence.csv, profile.csv, summary.json."""
    import os
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    sol = os.path.join(out_dir, "solution.csv")
    save_grid_function(result.solution, sol)
    paths["solution"] = sol

    conv = os.path.join(out_dir, "convergence.csv")
    with open(conv, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iter", "gap", "beta", "residual"])
        last = len(result.gap_history)
        for k, (g, b) in enumerate(zip(result.gap_history,
                                       result.beta_history), start=1):
            res = f"{result.residual_sup:.17g}" if k == last else ""
            w.writerow([k, f"{g:.17g}", f"{b:.17g}", res])
    paths["convergence"] = conv

    prof = os.path.join(out_dir, "profile.csv")
    with open(prof, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y0", "limit", "status", "oscillation"])
        for y0, res in result.profile:
            w.writerow([f"{y0:.17g}",
                        "" if res.value is None else f"{res.value:.17g}",
                        res.status,
                        f"{res.oscillation:.17g}"])
    paths["profile"] = prof

    summary = {
        "iterations": result.iterations,
        "final_gap": result.gap_history[-1],
        "residual_sup": result.residual_sup,
        "beta_final": result.beta_history[-1],
        "in_ball": result.in_ball,
        "rho_ball": result.config.rho_ball,
        "truncation": result.config.truncation,
        "grid_step": [result.config.hx, result.config.hy],
        "tol": result.config.tol,
        "profile_at_1": (result.profile[-1][1].value
                         if result.profile else None),
    }
    if timestamp:
        summary["written_at"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
    sj = os.path.join(out_dir, "summary.json")
    with open(sj, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    paths["summary"] = sj
    return paths
