"""Command-line front end.

Subcommands: solve, check-conditions and validate-closed-forms, which take
a problem (casestudy.PROBLEM_IDS or --problem-file), and ascoli-demo and
compactify-demo, which take a demo id (casestudy.DEMOS).  Exit codes: 0
success, 1 usage error, 2 numerical or validation failure (a Picard solve
or a quadrature did not converge, the solution's profile has no limit at
infinity or its face no window, or the run completed but a checked value
fell outside tolerance).  main freezes the heap it finds (gc.freeze), so
objects alive at a main() call are never collected, and an in-process caller
such as the test suite keeps them.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import warnings

import numpy as np

from .casestudy import (PROBLEM_IDS, load_problem, load_problem_file,
                        run_full_pipeline, validate_closed_forms)
from .cones import default_eval_grid, holding_interval, index_one_sweep
from .greenop import QuadratureError, check_hypotheses
from .solver import (FaceLimitError, IterationError, SolveConfig,
                     picard_solve, write_json, write_outputs)


# the most rungs a --rho-range ladder may have
MAX_RHO_RUNGS = 10000
# the most nodes per axis of validate-closed-forms' comparison grid, whose
# arrays grow as n^2: at n = 1000 the run peaks near 110 MB
MAX_GRID_N = 1000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_rho_range(text):
    try:
        a, b, step = (float(v) for v in text.split(":"))
    except ValueError:
        raise _UsageError(f"bad --rho-range {text!r}, expected a:b:step")
    if not all(math.isfinite(v) for v in (a, b, step)):
        raise _UsageError(f"--rho-range {text!r} needs a finite a, b and step")
    if step <= 0 or b < a:
        raise _UsageError("rho range needs a <= b and step > 0")
    # np.arange's own rung count, taken before it allocates
    rungs = (b + step / 2.0 - a) / step
    if not rungs <= MAX_RHO_RUNGS:
        raise _UsageError(f"--rho-range {text!r} has more than "
                          f"{MAX_RHO_RUNGS} rungs")
    rhos = np.round(np.arange(a, b + step / 2.0, step), 10)
    if not len(rhos):
        # a step below the spacing of floats at a leaves b + step / 2 == a
        raise _UsageError(f"--rho-range {text!r} has no rungs")
    return rhos


def _check_positive(option, value):
    """A usage error naming option unless value is positive and finite."""
    if not (math.isfinite(value) and value > 0):
        raise _UsageError(f"{option} must be positive and finite, "
                          f"got {value!r}")


def build_parser():
    p = _Parser(prog="compactfix",
                description="weighted-space integral equation toolkit")
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=_Parser)

    def add_common(sp, ids, kind):
        sp.add_argument("--problem", default=ids[0], choices=ids,
                        help=f"{kind} id")
        if kind == "problem":
            sp.add_argument("--problem-file", default=None,
                            help="JSON problem file (overrides --problem)")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--no-timestamp", action="store_true",
                        help="omit timestamps for byte-identical reruns")

    sp = sub.add_parser("solve", help="Picard-solve a named problem")
    add_common(sp, PROBLEM_IDS, "problem")
    sp.add_argument("--rho", type=float, default=0.5,
                    help="ball radius to certify and monitor")
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--grid-step", type=float, default=0.02)
    sp.add_argument("--truncation", type=float, default=None,
                    help="x-truncation (default: the problem's)")
    sp.add_argument("--max-iter", type=int, default=50)

    sp = sub.add_parser("check-conditions",
                        help="hypothesis report and index-condition sweep")
    add_common(sp, PROBLEM_IDS, "problem")
    sp.add_argument("--rho", type=float, default=None,
                    help="single rho to check")
    sp.add_argument("--rho-range", default="0.05:1.0:0.01",
                    help="a:b:step ladder of rho values, at most "
                    f"{MAX_RHO_RUNGS} rungs")
    sp.add_argument("--truncation", type=float, default=None,
                    help="x-truncation of the index-sweep grid only "
                    "(default: the problem's); the hypothesis report always "
                    "samples [0, 8]")

    sp = sub.add_parser("ascoli-demo",
                        help="precompactness diagnostics on a family")
    add_common(sp, ("gaussian-family",), "demo")

    sp = sub.add_parser("compactify-demo",
                        help="limits under different compactifications")
    add_common(sp, ("arctan-demo", "bump-chain"), "demo")

    sp = sub.add_parser("validate-closed-forms",
                        help="closed forms vs quadrature")
    add_common(sp, PROBLEM_IDS, "problem")
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--grid-n", type=int, default=20,
                    help="nodes per axis of the comparison grid, 2 to "
                    f"{MAX_GRID_N}")
    return p


def _load(args):
    if args.problem_file:
        return load_problem_file(args.problem_file)
    return load_problem(args.problem)


def _truncation(args, problem):
    """--truncation, else the problem's own."""
    return problem.truncation if args.truncation is None else args.truncation


def _cmd_solve(args):
    problem = _load(args)
    cfg = SolveConfig(h=args.grid_step,
                      truncation=_truncation(args, problem), tol=args.tol,
                      max_iter=args.max_iter, rho_ball=args.rho)
    result = picard_solve(problem, cfg)
    write_outputs(result, args.out, timestamp=not args.no_timestamp)
    print(f"converged in {result.iterations} iterations, "
          f"gap {result.gap_history[-1]:.3g}, "
          f"beta {result.beta_history[-1]:.6g}; profile converged at "
          f"{result.profile_converged} of {len(result.profile)} y-nodes; "
          f"outputs in {args.out}")
    return 0


def _cmd_check_conditions(args):
    problem = _load(args)
    truncation = _truncation(args, problem)
    _check_positive("--truncation", truncation)
    rhos = ([args.rho] if args.rho is not None
            else _parse_rho_range(args.rho_range))
    hyp = check_hypotheses(problem.kernel, problem.nl,
                           float(rhos[len(rhos) // 2]))
    rows = index_one_sweep(problem.kernel, problem.nl, rhos,
                           grid=default_eval_grid(truncation))
    held = holding_interval(rows)
    os.makedirs(args.out, exist_ok=True)
    path = write_json(os.path.join(args.out, "cone_report.json"),
                      dict(hyp, problem=problem.id, rows=rows,
                           holding_interval=held,
                           sweep_truncation=truncation),
                      stamp=not args.no_timestamp)
    print(f"hypotheses at r = {hyp['r']:g}: "
          + ", ".join(f"{key} {c['status']}"
                      for key, c in hyp["hypotheses"].items()))
    print(f"index-one holds on {held}" if held
          else "index-one holds nowhere on the sampled ladder")
    print(f"report written to {path}")
    return 0


def _cmd_ascoli_demo(args):
    demo = run_full_pipeline(args.problem)
    os.makedirs(args.out, exist_ok=True)
    path = write_json(os.path.join(args.out, "ascoli_report.json"),
                      demo, stamp=not args.no_timestamp)
    print(f"bounded: {demo['bounded']}  "
          f"equicontinuous: {demo['equicontinuous']}  "
          f"equiconvergent: {demo['equiconvergent']}")
    print(f"minimum pairwise separation {demo['separation']:.6f}")
    print(f"report written to {path}")
    return 0


def _cmd_compactify_demo(args):
    demo = run_full_pipeline(args.problem)
    os.makedirs(args.out, exist_ok=True)
    path = write_json(os.path.join(args.out, "compactify_demo.json"),
                      demo, stamp=not args.no_timestamp)
    for key, val in demo.items():
        print(f"{key}: {val}")
    print(f"report written to {path}")
    return 0


def _cmd_validate(args):
    if not 2 <= args.grid_n <= MAX_GRID_N:
        raise _UsageError(f"--grid-n must be between 2 and {MAX_GRID_N}, "
                          f"got {args.grid_n}")
    _check_positive("--tol", args.tol)
    problem = _load(args)
    gaps = validate_closed_forms(problem, n=args.grid_n)
    ok = all(g < args.tol for g in gaps.values())
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "validation.json"),
               {"problem": problem.id, "tol": args.tol, "gaps": gaps,
                "pass": ok}, stamp=not args.no_timestamp)
    for name, gap in sorted(gaps.items()):
        print(f"{name}: max gap {gap:.3e} "
              f"({'ok' if gap < args.tol else 'OUTSIDE TOLERANCE'})")
    return 0 if ok else 2


_COMMANDS = {
    "solve": _cmd_solve,
    "check-conditions": _cmd_check_conditions,
    "ascoli-demo": _cmd_ascoli_demo,
    "compactify-demo": _cmd_compactify_demo,
    "validate-closed-forms": _cmd_validate,
}


def main(argv=None):
    # the imported modules live until exit: freezing them spares every later
    # collection, and the interpreter's teardown, a walk over their objects
    gc.freeze()
    parser = build_parser()
    try:
        with warnings.catch_warnings():
            # each warning is one line, printed as it is raised
            warnings.showwarning = lambda message, *_: print(
                f"warning: {message}", file=sys.stderr)
            args = parser.parse_args(argv)
            return _COMMANDS[args.command](args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (QuadratureError, FaceLimitError, IterationError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        # unknown problem ids, unreadable problem files and the like
        print(f"usage error: {err}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
