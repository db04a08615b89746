"""Command-line front end.

Subcommands: solve, check-conditions, ascoli-demo, compactify-demo,
validate-closed-forms.  Exit codes: 0 success, 1 usage error, 2 numerical
or validation failure (a Picard solve or a quadrature did not converge, the
weight underflows to 0 on the grid, or the run completed but a checked
value fell outside tolerance).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys

import numpy as np

from .casestudy import (PROBLEM_IDS, load_problem, load_problem_file,
                        run_full_pipeline, validate_closed_forms)
from .cones import default_eval_grid, index_one_sweep
from .funcspace import WeightUnderflowError
from .greenop import QuadratureError, check_hypotheses
from .solver import IterationError, SolveConfig, picard_solve, write_outputs


# the most rungs a --rho-range ladder may have
MAX_RHO_RUNGS = 10000


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
    return np.round(np.arange(a, b + step / 2.0, step), 10)


def _check_positive(option, value):
    """A usage error naming option unless value is positive and finite."""
    if not (math.isfinite(value) and value > 0):
        raise _UsageError(f"{option} must be positive and finite, "
                          f"got {value!r}")


def _write_json(path, doc, stamp):
    if stamp:
        doc = dict(doc)
        doc["written_at"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def build_parser():
    p = _Parser(prog="compactfix",
                description="weighted-space integral equation toolkit")
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=_Parser)

    def add_common(sp, default_problem):
        sp.add_argument("--problem", default=default_problem,
                        help=f"problem id ({', '.join(PROBLEM_IDS)})")
        sp.add_argument("--problem-file", default=None,
                        help="JSON problem file (overrides --problem)")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--no-timestamp", action="store_true",
                        help="omit timestamps for byte-identical reruns")

    sp = sub.add_parser("solve", help="Picard-solve a named problem")
    add_common(sp, "hyperbolic-erf")
    sp.add_argument("--rho", type=float, default=0.5,
                    help="ball radius to certify and monitor")
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--grid-step", type=float, default=0.02)
    sp.add_argument("--truncation", type=float, default=None,
                    help="x-truncation (default: the problem's, else 24)")
    sp.add_argument("--max-iter", type=int, default=50)

    sp = sub.add_parser("check-conditions",
                        help="hypothesis report and index-condition sweep")
    add_common(sp, "hyperbolic-erf")
    sp.add_argument("--rho", type=float, default=None,
                    help="single rho to check")
    sp.add_argument("--rho-range", default="0.05:1.0:0.01",
                    help="a:b:step ladder of rho values, at most "
                    f"{MAX_RHO_RUNGS} rungs")
    sp.add_argument("--truncation", type=float, default=24.0,
                    help="x-truncation of the index-sweep grid only; the "
                    "hypothesis report always samples [0, 8]")

    sp = sub.add_parser("ascoli-demo",
                        help="precompactness diagnostics on a family")
    add_common(sp, "gaussian-family")

    sp = sub.add_parser("compactify-demo",
                        help="limits under different compactifications")
    add_common(sp, "arctan-demo")

    sp = sub.add_parser("validate-closed-forms",
                        help="closed forms vs quadrature")
    add_common(sp, "hyperbolic-erf")
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--grid-n", type=int, default=20,
                    help="nodes per axis of the comparison grid, at least 2")
    return p


def _load(args):
    if args.problem_file:
        return load_problem_file(args.problem_file)
    return load_problem(args.problem)


def _cmd_solve(args):
    problem = _load(args)
    if problem.kernel is None:
        raise _UsageError(f"problem {problem.id!r} has no solve branch; "
                          "use the demo subcommands")
    truncation = args.truncation
    if truncation is None:
        truncation = problem.truncation
    cfg = SolveConfig(hx=args.grid_step, hy=args.grid_step,
                      truncation=truncation, tol=args.tol,
                      max_iter=args.max_iter, rho_ball=args.rho)
    try:
        result = picard_solve(problem, cfg)
    except IterationError as err:
        print(f"solve failed: {err}", file=sys.stderr)
        return 2
    write_outputs(result, args.out, timestamp=not args.no_timestamp)
    print(f"converged in {result.iterations} iterations, "
          f"gap {result.gap_history[-1]:.3g}, "
          f"beta {result.beta_history[-1]:.6g}; profile converged at "
          f"{result.profile_converged} of {len(result.profile)} y-nodes; "
          f"outputs in {args.out}")
    return 0


def _cmd_check_conditions(args):
    _check_positive("--truncation", args.truncation)
    problem = _load(args)
    if problem.kernel is None:
        raise _UsageError(f"problem {problem.id!r} has no kernel to check")
    rhos = ([args.rho] if args.rho is not None
            else _parse_rho_range(args.rho_range))
    hyp = check_hypotheses(problem.kernel, problem.weight, problem.nl,
                           float(rhos[len(rhos) // 2]))
    report = index_one_sweep(problem.kernel, problem.nl, problem.spec, rhos,
                             grid=default_eval_grid(args.truncation))
    os.makedirs(args.out, exist_ok=True)
    doc = {
        "problem": problem.id,
        "hypotheses": {k: {"status": v.status, "detail": v.detail}
                       for k, v in hyp.conditions.items()},
        "integrals": hyp.integrals,
        "rows": list(report.rows),
        "holding_interval": report.holding_interval(),
    }
    path = _write_json(os.path.join(args.out, "cone_report.json"), doc,
                       stamp=not args.no_timestamp)
    held = report.holding_interval()
    print(f"index-one holds on {held}" if held
          else "index-one holds nowhere on the sampled ladder")
    print(f"report written to {path}")
    return 0


def _cmd_ascoli_demo(args):
    problem = _load(args)
    if problem.id != "gaussian-family":
        raise _UsageError("ascoli-demo expects --problem gaussian-family")
    bundle = run_full_pipeline(problem)
    os.makedirs(args.out, exist_ok=True)
    path = _write_json(os.path.join(args.out, "ascoli_report.json"),
                       bundle.demo, stamp=not args.no_timestamp)
    rep = bundle.objects["report"]
    print(f"bounded: {rep.bounded}  equicontinuous: {rep.equicontinuous}  "
          f"equiconvergent: {rep.equiconvergent}")
    print(f"minimum pairwise separation {bundle.demo['separation']:.6f}")
    print(f"report written to {path}")
    return 0


def _cmd_compactify_demo(args):
    problem = _load(args)
    if problem.id not in ("arctan-demo", "bump-chain"):
        raise _UsageError(
            "compactify-demo expects arctan-demo or bump-chain")
    bundle = run_full_pipeline(problem)
    os.makedirs(args.out, exist_ok=True)
    path = _write_json(os.path.join(args.out, "compactify_demo.json"),
                       bundle.demo, stamp=not args.no_timestamp)
    for key, val in bundle.demo.items():
        print(f"{key}: {val}")
    print(f"report written to {path}")
    return 0


def _cmd_validate(args):
    if args.grid_n < 2:
        raise _UsageError(f"--grid-n must be at least 2, got {args.grid_n}")
    _check_positive("--tol", args.tol)
    problem = _load(args)
    gaps = validate_closed_forms(problem, n=args.grid_n)
    if not gaps:
        print(f"problem {problem.id!r} carries no closed forms")
        return 0
    ok = all(g < args.tol for g in gaps.values())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "validation.json"),
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (QuadratureError, WeightUnderflowError) as err:
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
