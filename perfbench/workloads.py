"""Workload inputs, operation lists and reference checks.

Every input is drawn from `random.Random(seed)`, so one seed always gives
the same arguments and files.  Each operation carries a check against the
references in `reference.json` (measured at the commit that introduced the
benchmark); a check returns a list of error strings, empty when the output
is correct.  The CLI workloads are `solve-fine` and `conditions`; the
library calls of `crosscheck` live in `crosscheck.py` because they import
the program.

This module imports only the standard library, so run.py never
loads the program it measures.
"""

import csv
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text())

WORKLOADS = ("solve-fine", "conditions", "crosscheck")

TRUNCATION = 24.0
FINE_STEPS = (0.01,)
COARSE_STEP = 0.02
RHO_RANGE = (0.2, 0.8)          # inside the index-one window
LOG10_TOL_RANGE = (-10.0, -8.0)
LADDER_START = (5, 12)          # rungs are multiples of 0.01
LADDER_STOP = (100, 120)
GRID_N_RANGE = (10, 40)


@dataclass
class Op:
    """One CLI invocation and the check of what it wrote."""

    name: str
    args: list
    check: object                       # (out_dir, stdout) -> [errors]
    files: dict = field(default_factory=dict)   # generated input files
    solver_output: bool = False


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _close(got, want, tol):
    return got is not None and abs(got - want) <= tol


# ---------------------------------------------------------------------------
# solve


def expected_iterations(tol):
    """First Picard iteration whose reference gap is below tol."""
    for k, gap in enumerate(REFERENCE["solve"]["gap_history"], start=1):
        if gap < tol:
            return k
    raise ValueError(f"tol {tol:g} is below the reference gap history")


def check_solve(out_dir, stdout, h, tol):
    ref = REFERENCE["solve"]
    errors = []
    try:
        summary = _load_json(os.path.join(out_dir, "summary.json"))
    except (OSError, ValueError) as err:
        return [f"summary.json unreadable: {err}"]
    iters = expected_iterations(tol)
    if summary.get("iterations") != iters:
        errors.append(f"iterations {summary.get('iterations')} != {iters}")
    want = ref["profile_at_1"][str(h)]
    if not _close(summary.get("profile_at_1"), want, ref["profile_tol"]):
        errors.append(f"profile_at_1 {summary.get('profile_at_1')} != {want}")
    if not summary.get("final_gap", math.inf) < tol:
        errors.append(f"final_gap {summary.get('final_gap')} not below {tol}")
    if summary.get("in_ball") is not True:
        errors.append("iterates left the monitored ball")
    if f"converged in {iters} iterations" not in stdout:
        errors.append("CLI line does not report convergence")
    nx, ny = round(TRUNCATION / h), round(1.0 / h)
    try:
        with open(os.path.join(out_dir, "convergence.csv"), newline="") as fh:
            conv = list(csv.reader(fh))
        with open(os.path.join(out_dir, "profile.csv"), newline="") as fh:
            prof = list(csv.reader(fh))
        with open(os.path.join(out_dir, "solution.csv"), "rb") as fh:
            lines = sum(chunk.count(b"\n") for chunk in
                        iter(lambda: fh.read(1 << 22), b""))
    except OSError as err:
        return errors + [f"output file missing: {err}"]
    if len(conv) != iters + 1:
        errors.append(f"convergence.csv has {len(conv) - 1} rows")
    if len(prof) != ny + 2 or any(r[2] != "converged" for r in prof[1:]):
        errors.append("profile.csv is not a converged row per y-node")
    if lines != (nx + 1) * (ny + 1) + 1:
        errors.append(f"solution.csv has {lines} lines")
    return errors


def _solve_op(rng, h, problem_file=None):
    rho = round(rng.uniform(*RHO_RANGE), 6)
    tol = float(f"{10 ** rng.uniform(*LOG10_TOL_RANGE):.6e}")
    args = ["solve", "--grid-step", str(h), "--truncation", str(TRUNCATION),
            "--rho", str(rho), "--tol", repr(tol), "--no-timestamp"]
    files = {}
    if problem_file is not None:
        files["problem.json"] = problem_file
        args += ["--problem-file", "problem.json"]
    return Op(f"solve h={h}", args,
              lambda out, stdout: check_solve(out, stdout, h, tol), files,
              solver_output=True)


# ---------------------------------------------------------------------------
# conditions


def check_conditions(out_dir, stdout, rhos):
    ref = REFERENCE["index_one"]
    try:
        doc = _load_json(os.path.join(out_dir, "cone_report.json"))
    except (OSError, ValueError) as err:
        return [f"cone_report.json unreadable: {err}"]
    errors = []
    rows = doc.get("rows", [])
    if [round(r["rho"], 10) for r in rows] != [round(r, 10) for r in rhos]:
        return ["rho ladder in the report differs from the one requested"]
    lo, hi = ref["window"]
    for r in rows:
        # f_sup is attained at t = s = 0 and v = rho
        lhs = ((ref["amplitude"] + r["rho"] ** 2) / r["rho"]
               * ref["beta_factor"])
        if not math.isclose(r["lhs"], lhs, rel_tol=1e-9):
            errors.append(f"lhs at rho={r['rho']} is {r['lhs']}, want {lhs}")
        if r["holds"] != (lo < r["rho"] < hi):
            errors.append(f"holds at rho={r['rho']} is {r['holds']}")
    held = [r["rho"] for r in rows if r["holds"]]
    want = [min(held), max(held)] if held else None
    if doc.get("holding_interval") != want:
        errors.append(f"holding interval {doc.get('holding_interval')}")
    # every seeded ladder contains the default ladder's window
    if want != ref["default_ladder_interval"]:
        errors.append(f"holding interval {want} differs from the default "
                      f"ladder's {ref['default_ladder_interval']}")
    hyp = doc.get("hypotheses", {})
    for key, status in ref["hypotheses"].items():
        if hyp.get(key, {}).get("status") != status:
            errors.append(f"hypothesis {key} status {hyp.get(key)}")
    return errors


def _conditions_op(rng):
    start = rng.randint(*LADDER_START)
    stop = rng.randint(*LADDER_STOP)
    rhos = [round(k / 100, 10) for k in range(start, stop + 1)]
    ladder = f"{start / 100}:{stop / 100}:0.01"
    return Op("check-conditions", ["check-conditions", "--rho-range", ladder,
                                   "--no-timestamp"],
              lambda out, stdout: check_conditions(out, stdout, rhos))


def check_validate(out_dir, stdout):
    try:
        doc = _load_json(os.path.join(out_dir, "validation.json"))
    except (OSError, ValueError) as err:
        return [f"validation.json unreadable: {err}"]
    errors = []
    gaps = doc.get("gaps", {})
    if sorted(gaps) != sorted(REFERENCE["validate"]["forms"]):
        errors.append(f"closed forms checked: {sorted(gaps)}")
    tol = REFERENCE["validate"]["tol"]
    errors += [f"{k} gap {v}" for k, v in gaps.items() if not v < tol]
    if doc.get("pass") is not True:
        errors.append("validation did not pass")
    return errors


def check_ascoli(out_dir, stdout):
    ref = REFERENCE["ascoli"]
    try:
        doc = _load_json(os.path.join(out_dir, "ascoli_report.json"))
    except (OSError, ValueError) as err:
        return [f"ascoli_report.json unreadable: {err}"]
    errors = [f"{k} is {doc.get(k)}" for k in ("bounded", "equicontinuous",
                                               "equiconvergent")
              if doc.get(k) != ref[k]]
    if not _close(doc.get("separation"), ref["separation"], 1e-9):
        errors.append(f"separation {doc.get('separation')}")
    return errors


def check_arctan(out_dir, stdout):
    ref = REFERENCE["arctan_demo"]
    try:
        doc = _load_json(os.path.join(out_dir, "compactify_demo.json"))
    except (OSError, ValueError) as err:
        return [f"compactify_demo.json unreadable: {err}"]
    errors = []
    limits = doc.get("two_point") or {}
    for label, want in ref["two_point"].items():
        if not _close(limits.get(label), want, 1e-9):
            errors.append(f"two-point limit at {label} is {limits.get(label)}")
    if doc.get("one_point") != ref["one_point"]:
        errors.append(f"one-point statuses {doc.get('one_point')}")
    return errors


def check_bump_chain(out_dir, stdout):
    ref = REFERENCE["bump_chain"]
    try:
        doc = _load_json(os.path.join(out_dir, "compactify_demo.json"))
    except (OSError, ValueError) as err:
        return [f"compactify_demo.json unreadable: {err}"]
    errors = []
    for part in ("value", "derivative"):
        got = (doc.get(part) or {}).get("status")
        if got != ref[part]["status"]:
            errors.append(f"{part} status {got}")
    if not _close((doc.get("value") or {}).get("value"), 0.0,
                  ref["value"]["abs_tol"]):
        errors.append(f"value limit {doc.get('value')}")
    return errors


# the case study, spelled out as a --problem-file document
PROBLEM_FILE = {"id": "hyperbolic-erf-file", "truncation": TRUNCATION,
                "weight": "exp(-x^2/2)",
                "kernel": {"id": "gauss-shift", "params": {"rate": 1.0}},
                "nonlinearity": {"id": "gauss-plus-square",
                                 "params": {"amplitude": 0.125}}}


# ---------------------------------------------------------------------------
# passes


def cli_pass(workload, rng):
    """The operations of one pass, in order, with inputs drawn from rng."""
    if workload == "solve-fine":
        return [_solve_op(rng, h) for h in FINE_STEPS]
    if workload == "conditions":
        grid_n = rng.randint(*GRID_N_RANGE)
        return [
            _conditions_op(rng),
            Op("validate-closed-forms",
               ["validate-closed-forms", "--grid-n", str(grid_n),
                "--no-timestamp"], check_validate),
            Op("ascoli-demo", ["ascoli-demo", "--no-timestamp"],
               check_ascoli),
            Op("compactify-demo arctan",
               ["compactify-demo", "--problem", "arctan-demo",
                "--no-timestamp"], check_arctan),
            Op("compactify-demo bump-chain",
               ["compactify-demo", "--problem", "bump-chain",
                "--no-timestamp"], check_bump_chain),
            _solve_op(rng, COARSE_STEP, PROBLEM_FILE),
        ]
    raise ValueError(f"{workload!r} is not a CLI workload")
