"""The `crosscheck` workload: library calls in one long-lived process.

Run by `run.py` as a child process:

    python3 perfbench/crosscheck.py --seed N --seconds S --trace 0|1 \
        --result RESULT_JSON --spans SPANS_JSON

Each pass makes four operations: the cross-check of both routes at u = 0
against the Tu0 closed forms, the adaptive-vs-grid cross-check on two seeded
nonnegative cone elements on a 17 x 9 grid, and `validate_closed_forms` at a
seeded grid size.  A cross-check operation is the `apply_T(method=
"adaptive")` call followed by the `apply_T(method="grid")` call; pairing them,
and making two cone cross-checks per pass, keeps the median operation a
cross-check rather than a millisecond grid call.

At u = 0 the grid route runs on the 50 x 50 acceptance grid of [0, 8] x
[0, 1] and the adaptive route on a 12 x 12 grid of the same rectangle.  The
adaptive route's closed-form gaps do not depend on the grid, and on the
50 x 50 grid one adaptive call takes 9-14 s, so a run would hold only two or
three of them, too few to be steady from run to run.

The host's speed is sampled throughout (hostspeed.py), and each operation
carries the slowness sampled during it and within PROBE_MARGIN_S of it, by
which run.py rescales it to the reference host speed.

The cone element is a low-degree polynomial, which the adaptive route's
bicubic spline reproduces exactly; a spline with knot kinks would make the
adaptive refinement depth, and so the cost, depend on the seed.
"""

import argparse
import json
import random
import resource
import sys
import time

import hostspeed
import tracer
import workloads

# numpy and compactfix are imported only after the timed import of
# compactfix.cli in run(), so that cli.import_s includes them

REF = workloads.REFERENCE["crosscheck"]
TEST02_GRID = (8.0, 50)         # [0, 8] x [0, 1], 50 x 50 nodes
TEST02_ADAPTIVE_N = 12          # 12 x 12 nodes on the same rectangle
CONE_GRID = (6.0, 17, 9)        # [0, 6] x [0, 1], 17 x 9 nodes
CONE_AMPLITUDE = (0.05, 0.4)
PROBE_MARGIN_S = 0.25


def draw_cone(rng):
    """u(x, y) = a (1 - x/12)^2 (1 + b x/6) (1 + c y), nonnegative."""
    return {"a": rng.uniform(*CONE_AMPLITUDE), "b": rng.uniform(0.0, 1.0),
            "c": rng.uniform(0.0, 1.0)}


def check_test02(adaptive, grid, tu0, grid_tu0, tu0_face_idx):
    """Errors of the u = 0 cross-check against the closed forms.

    adaptive and grid are the two routes' sample arrays, tu0 and grid_tu0
    the closed form on their grids; tu0_face_idx is a pair of (face values
    at the 11 sampled y-nodes, closed-form values there).
    """
    import numpy as np

    errors = []
    gap = float(np.abs(adaptive - tu0).max())
    if not gap < REF["tu0_grid_gap"]:
        errors.append(f"adaptive Tu0 grid gap {gap:.3e}")
    face, want = tu0_face_idx
    fgap = float(np.abs(np.asarray(face) - want).max())
    if not fgap < REF["tu0_face_gap"]:
        errors.append(f"adaptive Tu0 face gap {fgap:.3e}")
    ggap = float(np.abs(grid - grid_tu0).max())
    if not ggap < REF["grid_route_tu0_gap"]:
        errors.append(f"grid-route Tu0 gap {ggap:.3e}")
    return errors


def check_cone(adaptive, grid):
    """Errors of the cone-element cross-check: both images stay in the
    cone and the two routes agree to the reference bound."""
    import numpy as np

    errors = []
    if adaptive.min() < 0 or grid.min() < 0:
        errors.append("image left the nonnegative cone")
    gap = float(np.abs(adaptive - grid).max())
    if not gap < REF["cone_agreement"]:
        errors.append(f"adaptive and grid routes differ by {gap:.3e}")
    return errors


def check_validate(gaps):
    ref = workloads.REFERENCE["validate"]
    errors = [f"{k} gap {v}" for k, v in gaps.items() if not v < ref["tol"]]
    if sorted(gaps) != sorted(ref["forms"]):
        errors.append(f"closed forms checked: {sorted(gaps)}")
    return errors


class Runner:
    """Builds each operation's inputs and runs it."""

    def __init__(self):
        import numpy as np
        from compactfix import casestudy, funcspace, greenop

        self.np, self.casestudy = np, casestudy
        self.funcspace, self.greenop = funcspace, greenop

    def _grid_function(self, problem, xs, ys, samples):
        return self.funcspace.WeightedGridFunction(
            (xs, ys), samples, problem.weight, cmap=problem.cmap,
            weight_desc=problem.weight_desc)

    def _pair(self, problem, u, u_grid=None):
        """The adaptive route on u, then the grid route on u_grid (u by
        default)."""
        apply_T = self.greenop.apply_T
        adaptive = apply_T(u, problem.kernel, problem.nl, method="adaptive")
        grid = apply_T(u if u_grid is None else u_grid, problem.kernel,
                       problem.nl, method="grid")
        return adaptive, grid

    def _zero(self, problem, n):
        np = self.np
        xs = np.linspace(0.0, TEST02_GRID[0], n)
        ys = np.linspace(0.0, 1.0, n)
        return self._grid_function(problem, xs, ys, np.zeros((n, n)))

    def test02(self, problem):
        np = self.np
        tu0 = problem.closed_forms["Tu0"]
        adaptive, grid = self._pair(
            problem, self._zero(problem, TEST02_ADAPTIVE_N),
            self._zero(problem, TEST02_GRID[1]))
        ys = adaptive.axes[1]
        idx = np.linspace(0, len(ys) - 1, 11).astype(int)
        face = adaptive.infinity.get("axis0:inf", {}).get((0, 0))
        face = [np.nan] * len(idx) if face is None else face[idx]
        return check_test02(
            adaptive.samples, grid.samples, tu0(*adaptive.mesh()),
            tu0(*grid.mesh()),
            (face, problem.closed_forms["Tu0_face"](ys[idx])))

    def cone(self, problem, coeffs):
        np = self.np
        x_hi, nx, ny = CONE_GRID
        xs, ys = np.linspace(0.0, x_hi, nx), np.linspace(0.0, 1.0, ny)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        samples = (coeffs["a"] * (1.0 - X / 12.0) ** 2
                   * (1.0 + coeffs["b"] * X / 6.0) * (1.0 + coeffs["c"] * Y))
        adaptive, grid = self._pair(
            problem, self._grid_function(problem, xs, ys, samples))
        return check_cone(adaptive.samples, grid.samples)

    def validate(self, problem, n):
        return check_validate(self.casestudy.validate_closed_forms(problem,
                                                                   n=n))


def _timed(fn, *args):
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        errors = fn(*args)
    except Exception as err:  # a failing operation is counted, not fatal
        errors = [f"{type(err).__name__}: {err}"]
    t1 = time.perf_counter()
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return {"wall_s": t1 - t0, "cpu_s": cpu, "rss_kb": r1.ru_maxrss,
            "errors": errors, "t0": t0, "t1": t1}


def run(seed, seconds, trace):
    t0 = time.perf_counter()
    import compactfix.cli  # noqa: F401  the same import every CLI call pays
    import_s = time.perf_counter() - t0
    runner = Runner()
    with hostspeed.numpy_sampler(runner.np) as sampler:
        records, traces, tr = _passes(runner, seed, seconds, trace)
    # a validate_closed_forms call lasts about 30 ms, much less than the
    # probe period, so every operation also takes the probes just around it
    for rec in records:
        rec["slowness"] = sampler.slowness(rec.pop("t0") - PROBE_MARGIN_S,
                                           rec.pop("t1") + PROBE_MARGIN_S)
    return records, traces, import_s, tr


def _passes(runner, seed, seconds, trace):
    rng = random.Random(seed)
    tr = None
    records, traces = [], []
    start = time.perf_counter()

    def time_is_up():
        return time.perf_counter() - start >= seconds

    pass_index = 0
    while True:
        if trace and pass_index == 1:
            tr = tracer.Tracer()
            tr.install()
        before = tr.summary() if tr else None
        problem = runner.casestudy.load_problem("hyperbolic-erf")
        ops = [("cross-check test02", runner.test02, (problem,)),
               ("cross-check cone", runner.cone, (problem, draw_cone(rng))),
               ("cross-check cone", runner.cone, (problem, draw_cone(rng))),
               ("validate_closed_forms", runner.validate,
                (problem, rng.randint(*workloads.GRID_N_RANGE)))]
        for slot, (name, fn, args) in enumerate(ops):
            rec = _timed(fn, *args)
            rec.update(name=name, pass_index=pass_index, slot=slot,
                       traced=tr is not None)
            records.append(rec)
            # as in run.py: an untraced run may stop after any operation
            # once every slot has a sample
            if pass_index and not trace and time_is_up():
                return records, traces, tr
        if tr is not None:
            traces.append({"pass_index": pass_index,
                           "before": before, "after": tr.summary()})
        pass_index += 1
        if time_is_up() and (not trace or pass_index >= 2):
            return records, traces, tr


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args(argv)
    records, traces, import_s, tr = run(args.seed, args.seconds, args.trace)
    if tr is not None:
        tr.dump(args.spans, import_s=import_s)
    with open(args.result, "w") as fh:
        json.dump({"import_s": import_s, "records": records,
                   "traces": traces}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
