"""Picard iteration for the integral fixed point, residuals, profiles.

The solver iterates q <- Tq from q = 0 on a uniform truncated grid, where
q = u/phi is the quotient of the weighted norm and T the problem's quotient
form (Kernel.qx and Nonlinearity.q_eval, see greenop).  The whole solve
stays in q and never divides by phi: the gap is a plain sup of q+ - q, and
the profile is one windowed face ladder per y-node on the converged q,
whose converged values funcspace.attach_faces stores as the solution's
infinity-face data.  u = phi q is formed
only for the beta monitor and as the solution's samples (0 where phi
underflows, its correctly rounded value); the solution keeps q itself, and
solution.csv holds that q, so no value is lost where u underflows.  For the
shipped problem the operator is monotone, so the iterates increase
pointwise and the stopping gap also bounds the distance to the supremum of
the iteration.  The reported residual is that of the q-equation
differentiated once in x and once in y, so it measures the discretization
error of the converged iterate.  Its x-rule is the grid operator's own
trimmed row blocks, turned into the rule times d qx/dx one block at a
time and dropped, so a solve evaluates its kernel's band once and never
forms a dense matrix.  The solve's working set is that band plus two
grids, the iterate and its image: an application works in its output,
and the loop takes the gap and beta in the dead iterate's buffer.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cones import default_eval_grid, index_one_check
from .funcspace import (FaceLimitError, WeightedGridFunction, attach_faces,
                        save_grid_function, weighted_norm)
from .greenop import GridHammersteinOperator


#: the most grid nodes a solve may take, refused before anything is allocated
MAX_NODES = 10 ** 7


class IterationError(Exception):
    def __init__(self, msg, gap_history):
        super().__init__(msg)
        self.gap_history = tuple(gap_history)


@dataclass
class SolveConfig:
    truncation: float  # the x-range [0, truncation]
    h: float = 0.02  # the grid step of both axes
    tol: float = 1e-8
    max_iter: int = 50
    rho_ball: float = None

    def __post_init__(self):
        for name in ("h", "tol", "truncation"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value!r}")
        nx, ny = self.truncation / self.h + 1.0, 1.0 / self.h + 1.0
        if not nx * ny <= MAX_NODES:
            raise ValueError(f"the grid has {nx:.0f} x {ny:.0f} = "
                             f"{nx * ny:.0f} nodes, more than MAX_NODES = "
                             f"{MAX_NODES}")
        # axes() rounds the node counts, so a step that does not divide an
        # interval would be silently replaced by another one
        for length in (self.truncation, 1.0):
            steps = length / self.h
            if abs(steps - round(steps)) > 1e-9 * steps:
                raise ValueError(f"h = {self.h!r} does not divide the "
                                 f"interval [0, {length:g}]")
        if round(min(nx, ny)) < 3:
            raise ValueError(f"the grid has {nx:.0f} x {ny:.0f} nodes; "
                             "every axis needs at least 3")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")

    def axes(self):
        return tuple(np.linspace(0.0, length, int(round(length / self.h)) + 1)
                     for length in (self.truncation, 1.0))

    def as_dict(self):
        """The settings a run directory records, JSON-ready."""
        return {"grid_step": self.h,
                "truncation": self.truncation, "tol": self.tol,
                "max_iter": self.max_iter, "rho_ball": self.rho_ball}


@dataclass
class SolveResult:
    solution: WeightedGridFunction
    gap_history: tuple
    beta_history: tuple
    residual_sup: float
    profile: tuple  # ((y0, LimitResult), ...)
    ball_check: object
    config: SolveConfig
    problem: str  # the solved problem's id

    @property
    def iterations(self):
        return len(self.gap_history)

    @property
    def in_ball(self):
        """None without rho_ball, else whether every beta is within it."""
        if self.config.rho_ball is None:
            return None
        return all(b <= self.config.rho_ball + 1e-12
                   for b in self.beta_history)

    @property
    def profile_converged(self):
        """How many y-nodes of the profile have a converged face ladder."""
        return sum(res.converged for _, res in self.profile)


def picard_solve(problem, cfg=None):
    """Iterate q <- Tq from q = 0 until the gap sup |q+ - q| drops below tol.

    problem must carry id, kernel, nl, weight (the kernel's
    WEIGHT_REGISTRY entry) and cmap, which the solution carries,
    truncation, and the nonlinearity its q_eval for that weight.  Without
    cfg the solve takes SolveConfig's defaults on [0, problem.truncation].
    Raises IterationError with the gap history at the first gap that is not
    finite, naming its iteration, and when max_iter is exhausted.
    """
    cfg = cfg or SolveConfig(truncation=problem.truncation)
    axes = cfg.axes()
    phi = problem.weight(axes[0])[:, None]
    ball_check = None
    if cfg.rho_ball is not None:
        ball_check = index_one_check(
            problem.kernel, problem.nl, cfg.rho_ball,
            grid=default_eval_grid(cfg.truncation))
        if not ball_check["holds"]:
            warnings.warn(
                f"index-one condition fails at rho = {cfg.rho_ball:g} "
                f"(lhs = {ball_check['lhs']:.4g}); the monitored ball is not "
                "certified", stacklevel=2)

    op = GridHammersteinOperator(problem.kernel, problem.nl, axes)
    q = np.zeros(tuple(len(a) for a in axes))
    gaps, betas = [], []
    for _ in range(cfg.max_iter):
        new = op.apply(q)
        # the old iterate is dead once the gap is taken, so its buffer
        # holds |q+ - q| and then |u| = |phi q+|, whose sup is the beta
        # monitor (cones.beta_sup, taken in place)
        np.subtract(new, q, out=q)
        gaps.append(float(np.max(np.abs(q, out=q))))
        if not math.isfinite(gaps[-1]):
            raise IterationError(f"gap {gaps[-1]} at iteration "
                                 f"{len(gaps)} is not finite", gaps)
        np.multiply(phi, new, out=q)
        betas.append(float(np.max(np.abs(q, out=q))))
        q = new
        if gaps[-1] < cfg.tol:
            break
    else:
        raise IterationError(
            f"no convergence after {cfg.max_iter} iterations "
            f"(last gap {gaps[-1]:.3g})", gaps)
    # the residual consumes the operator's blocks, so the solve holds one
    # kernel band; the operator goes before the profile's grids are formed
    residual = pde_residual(axes, q, problem.kernel, problem.nl, op.blocks)
    del op

    u = WeightedGridFunction.from_quotient(axes, q, problem.weight,
                                           cmap=problem.cmap)
    profile = tuple(asymptotic_profile(u))
    return SolveResult(u, tuple(gaps), tuple(betas), residual, profile,
                       ball_check, cfg, problem.id)


def pde_residual(axes, q, kernel, nl, blocks):
    """sup over interior nodes of the residual of the differentiated
    q-equation.

    Differentiating q = int_0^x int_0^y qx(x, t) g(t, s, q(t, s)) ds dt,
    g = nl.q_eval, once in y and once in x (Leibniz rule) gives

        q_xy = qx(x, x) g(x, y, q) + int_0^x dqx(x, t) g(t, y, q(t, y)) dt,

    with dqx = d qx/dx = kernel.dlog_qx qx, and the result is
    sup |D2_xy q - rhs|.  D2_xy is the centered 4-point cross stencil for
    the mixed second partial, so the residual of a grid solution decays
    at second order.  The x-integral reads the grid operator's row blocks
    of the cumulative weights times qx (GridHammersteinOperator.blocks,
    from greenop.kernel_row_blocks), and consumes them: each block is
    popped from the list blocks, multiplied in place by dlog_qx on its
    band, so that it holds the weights times dqx, applied to g and
    dropped; the list is empty afterwards.  g is formed on the blocks'
    rows one block at a time, and the stencil, the right side and their
    sup one block at a time, so no n x n array and no second band is
    formed.  Edge nodes are excluded; a NaN anywhere in the compared
    values gives a NaN sup.
    """
    xs, ys = axes
    n = len(xs)
    if n < 3 or len(ys) < 3:
        raise ValueError("grid too coarse for the mixed-derivative stencil")
    gvals = np.empty((n, len(ys) - 2))
    for a, _, block in blocks:
        rows = slice(a, a + len(block))
        gvals[rows] = nl.q_eval(xs[rows, None], ys[None, 1:-1],
                                q[rows, 1:-1])
    dy = ys[2:] - ys[:-2]
    sups = []
    while blocks:
        # first block first: the small blocks of the first rows go while
        # the band is whole, and each later block's temporary comes after
        # the blocks before it have been freed
        a, c0, block = blocks.pop(0)
        rows, cols = block.shape
        block *= kernel.dlog_qx(xs[a:a + rows, None], xs[None, c0:c0 + cols])
        # the block's rows among the interior rows 1..n-2
        lo, hi = max(a, 1), min(a + rows, n - 1)
        if lo >= hi:
            continue
        rhs = block[lo - a:hi - a] @ gvals[c0:c0 + cols]
        rhs += kernel.qx(xs[lo:hi], xs[lo:hi])[:, None] * gvals[lo:hi]
        up, down = q[lo + 1:hi + 1], q[lo - 1:hi - 1]
        mixed = (up[:, 2:] - up[:, :-2] - down[:, 2:] + down[:, :-2]) \
            / ((xs[lo + 1:hi + 1] - xs[lo - 1:hi - 1])[:, None]
               * dy[None, :])
        sups.append(np.max(np.abs(mixed - rhs)))
    return float(np.max(sups))


def asymptotic_profile(u):
    """Windowed limits of u/phi at u's first infinity face, x = inf, as
    (y-node, LimitResult) pairs, read by funcspace.attach_faces, which
    stores every face of u whose ladders all converged.

    Raises FaceLimitError (a ValueError) naming the y-node when the ladder
    reports that no limit exists.  Inconclusive ladders are passed through
    in the results for the caller to inspect.
    """
    faces = u.face_labels()
    if not faces:
        raise ValueError("the grid function has no infinity face")
    out = list(zip(u.axes[1].tolist(), attach_faces(u)[faces[0]]))
    for y0, res in out:
        if res.status == "no_limit":
            raise FaceLimitError(f"{faces[0]}@{y0:.6g}", res,
                                 f"no limit of u/phi at y0 = {y0:g}")
    return out


# ---------------------------------------------------------------------------
# file outputs


def write_json(path, doc, stamp):
    """Write doc to path as a JSON report (indent 1, sorted keys, a final
    newline), with a written_at UTC time when stamp is set; returns path."""
    if stamp:
        doc = dict(doc)
        doc["written_at"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def write_outputs(result, out_dir, timestamp=True):
    """solution.csv (+sidecar), convergence.csv, profile.csv, summary.json.

    solution.csv holds the solution's q = u/phi (funcspace.save_grid_function).
    summary.json records, besides the run's results and the weighted norm
    ||u||_phi of the solution, the problem id, the run's settings and how
    many profile nodes converged."""
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
        "weighted_norm": weighted_norm(result.solution),
        "in_ball": result.in_ball,
        "profile_at_1": (result.profile[-1][1].value
                         if result.profile else None),
        "profile_converged": result.profile_converged,
        "problem": result.problem,
        "config": result.config.as_dict(),
    }
    paths["summary"] = write_json(os.path.join(out_dir, "summary.json"),
                                  summary, timestamp)
    return paths
