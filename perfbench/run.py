"""compactfix benchmark: closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/` and nothing needs to be built or installed.  One client runs one
operation at a time.  An operation is one CLI invocation in a fresh
interpreter (`solve-fine`, `conditions`) or one library cross-check in a
long-lived worker (`crosscheck`, see crosscheck.py).  A pass is one round of
the workload's operations, with inputs drawn from the seed; passes repeat
until S seconds have gone by, and once the first pass is complete an
untraced run stops after the operation that crosses S.  How each slot's
samples become one time is told in `slot_times`.  Every operation's output
is checked against reference.json, and a nonzero exit, an exception or a
failed check counts as a failed operation.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 the first pass runs untraced and the
following ones under the layer tracer (tracer.py), and the object carries
the per-layer metrics.  Metric names and units come from BENCHMARK.json.
Everything the run writes goes to .perfbench_work/ in the checkout.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import hostspeed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"

SETUP_SPAWNS = 5
RUN_DEADLINE_S = 170.0
TRACE_KEYS = ("calls", "busy_s", "self_s", "points", "nested_calls")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot produce a result (not an operation failure)."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one BLAS thread: the host has few cores and is shared, and a second
    # thread only adds scheduler noise; a program change that starts its
    # own threads shows in cpu_s
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def spawn(argv, cwd, log_path, env, deadline):
    """Run argv to completion; wall time, CPU time and peak RSS of the child.

    The child is killed if it outlives the run's deadline.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss, "exit": proc.returncode}


def _tail(path, lines=5):
    text = Path(path).read_text(errors="replace").strip().splitlines()
    return " | ".join(text[-lines:])


def measure_setup(env, work, deadline):
    """Fresh-interpreter import of the CLI plus building the case study."""
    spawns = []
    for i in range(SETUP_SPAWNS):
        log, result = work / f"setup{i}.log", work / f"setup{i}.json"
        res = spawn([sys.executable, str(BENCH / "cli_op.py"), str(result),
                     "setup"], work, log, env, deadline)
        if res["exit"] != 0 or not result.is_file():
            raise BenchError(f"the program does not import: {_tail(log)}")
        res["slowness"] = json.loads(result.read_text())["slowness"]
        if not res["slowness"]:
            raise BenchError("the host-speed probe did not run in set-up")
        spawns.append(res)
    return spawns


# ---------------------------------------------------------------------------
# CLI workloads


def run_cli_op(op, index, traced, env, work, deadline):
    op_dir = work / "op"
    shutil.rmtree(op_dir, ignore_errors=True)
    op_dir.mkdir()
    for name, doc in op.files.items():
        (op_dir / name).write_text(json.dumps(doc))
    result = work / "ops" / f"op{index:04d}.json"
    argv = [sys.executable, str(BENCH / "cli_op.py"), str(result),
            "traced-cli" if traced else "cli", *op.args, "--out", "out"]
    log = work / "logs" / f"op{index:04d}.log"
    rec = spawn(argv, op_dir, log, env, deadline)
    rec.update(name=op.name, traced=traced, errors=[], slowness=[])
    stdout = log.read_text(errors="replace")
    out = op_dir / "out"
    if rec["exit"] != 0:
        rec["errors"].append(f"exit code {rec['exit']}: {_tail(log)}")
    else:
        try:
            rec["errors"] += op.check(str(out), stdout)
        except Exception as err:  # a malformed output fails the operation
            rec["errors"].append(f"check raised {type(err).__name__}: {err}")
    if op.solver_output and out.is_dir():
        rec["output_bytes"] = sum(p.stat().st_size for p in out.iterdir())
        try:
            rec["iterations"] = json.loads(
                (out / "summary.json").read_text())["iterations"]
        except (OSError, ValueError, KeyError):
            pass
    if result.is_file():
        doc = json.loads(result.read_text())
        rec.update(slowness=doc["slowness"], import_s=doc["import_s"])
        if traced:
            rec["trace"] = {k: doc[k] for k in TRACE_KEYS}
    if not rec["slowness"]:
        rec["errors"].append("the host-speed probe did not run in the call")
    shutil.rmtree(op_dir, ignore_errors=True)
    return rec


def run_cli(workload, seed, seconds, trace, env, work, deadline):
    (work / "ops").mkdir()
    (work / "logs").mkdir()
    rng = random.Random(seed)
    records = []
    start = time.perf_counter()
    pass_index = 0
    while True:
        traced = bool(trace) and pass_index >= 1
        for slot, op in enumerate(workloads.cli_pass(workload, rng)):
            rec = run_cli_op(op, len(records), traced, env, work, deadline)
            rec.update(pass_index=pass_index, slot=slot)
            records.append(rec)
            # after the first pass every slot has a sample, so an untraced
            # run may stop after any operation; a traced run stops between
            # passes because its layer totals are per pass
            if (pass_index and not trace
                    and time.perf_counter() - start >= seconds):
                return records
        pass_index += 1
        done = time.perf_counter() - start >= seconds and (
            not trace or pass_index >= 2)
        if done or time.monotonic() >= deadline:
            return records


def run_crosscheck(seed, seconds, trace, env, work, deadline):
    result = work / "crosscheck.json"
    log = work / "crosscheck.log"
    argv = [sys.executable, str(BENCH / "crosscheck.py"), "--seed",
            str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--result", str(result), "--spans", str(work / "spans.json")]
    res = spawn(argv, work, log, env, deadline)
    if res["exit"] != 0 or not result.is_file():
        raise BenchError(f"crosscheck worker failed: {_tail(log)}")
    doc = json.loads(result.read_text())
    records = doc["records"]
    for rec in records:
        # one process: its peak RSS is the peak over all operations
        rec["rss_kb"] = max(rec["rss_kb"], res["rss_kb"])
        if rec["traced"]:
            rec["import_s"] = doc["import_s"]
    # per-pass trace totals are differences of cumulative summaries
    for tr in doc["traces"]:
        first = next(r for r in records if r["pass_index"] == tr["pass_index"])
        first["trace"] = _diff(tr["after"], tr["before"])
    return records


# ---------------------------------------------------------------------------
# metrics


def _diff(after, before):
    if before is None:
        return {k: after[k] for k in TRACE_KEYS}
    return {k: {n: v - before[k].get(n, 0) for n, v in after[k].items()}
            for k in TRACE_KEYS}


def _passes(records, traced):
    by_pass = defaultdict(list)
    for rec in records:
        if rec["traced"] == traced:
            by_pass[rec["pass_index"]].append(rec)
    return [by_pass[k] for k in sorted(by_pass)]


def slot_times(records, key):
    """Each operation slot's time in the run: the median, over the slot's
    correct operations, of `key` rescaled to the reference host speed by the
    slowness sampled during the operation (hostspeed.py).

    The rescaling removes most of the host's drift; the median drops what
    is left of it in single operations.
    """
    per_slot = defaultdict(list)
    for r in records:
        if not r["errors"]:
            per_slot[r["slot"]].append(
                hostspeed.normalise(r[key], r["slowness"]))
    if not per_slot:
        raise BenchError("no operation produced a correct output")
    return [statistics.median(v) for v in per_slot.values()]


def pass_time(records, key):
    return sum(slot_times(records, key))


def setup_time(spawns):
    return statistics.median(hostspeed.normalise(s["wall_s"], s["slowness"])
                             for s in spawns)


def end_to_end(records, setup_spawns):
    return {
        "run_s": pass_time(records, "wall_s"),
        "op_p50_s": statistics.median(slot_times(records, "wall_s")),
        "cpu_s": pass_time(records, "cpu_s"),
        "peak_rss_mb": max(r["rss_kb"] for r in records) / 1024.0,
        "setup_s": setup_time(setup_spawns),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(ops):
    """Per-layer metrics of one traced pass."""
    t = {k: defaultdict(float) for k in TRACE_KEYS}
    for rec in ops:
        for k in TRACE_KEYS:
            for name, v in rec.get("trace", {}).get(k, {}).items():
                t[k][name] += v
    calls, busy, self_s = t["calls"], t["busy_s"], t["self_s"]
    iterations = sum(r.get("iterations", 0) for r in ops)
    solves = sum(1 for r in ops if "iterations" in r)
    op_apply = "greenop.GridHammersteinOperator.apply"
    return {
        "cli.import_s": statistics.median(
            [r["import_s"] for r in ops if "import_s" in r] or [0.0]),
        "casestudy.load_problem_s": (busy["casestudy.load_problem"]
                                     + busy["casestudy.load_problem_file"]),
        "casestudy.run_full_pipeline_s": busy["casestudy.run_full_pipeline"],
        "casestudy.validate_closed_forms_s":
            busy["casestudy.validate_closed_forms"],
        "solver.picard_solve_s": busy["solver.picard_solve"],
        "solver.picard_self_s": self_s["solver.picard_solve"],
        "solver.iterations": _ratio(iterations, solves),
        "greenop.operator_build_s":
            busy["greenop.GridHammersteinOperator.__init__"],
        "greenop.operator_apply_s": busy[op_apply],
        "greenop.operator_apply_calls": calls[op_apply],
        "greenop.applies_per_iteration": _ratio(calls[op_apply],
                                                iterations),
        "solver.asymptotic_profile_s": busy["solver.asymptotic_profile"],
        "funcspace.face_limit_calls":
            calls["funcspace.WeightedGridFunction.face_limit"],
        "funcspace.quotient_derivative_calls":
            calls["funcspace.quotient_derivative"],
        "funcspace.quotient_derivative_calls_per_profile": _ratio(
            t["nested_calls"]["funcspace.quotient_derivative"
                              "<solver.asymptotic_profile"],
            calls["solver.asymptotic_profile"]),
        "solver.write_outputs_s": busy["solver.write_outputs"],
        "funcspace.save_grid_function_s":
            busy["funcspace.save_grid_function"],
        "solver.output_bytes": sum(r.get("output_bytes", 0) for r in ops),
        "solver.pde_residual_s": busy["solver.pde_residual"],
        "greenop.apply_T_adaptive_s": busy["greenop.apply_T[adaptive]"],
        "greenop.adaptive_quadrature_calls":
            calls["greenop.adaptive_quadrature"],
        "greenop.adaptive_quadrature_s": busy["greenop.adaptive_quadrature"],
        "greenop.nl_eval_calls": calls["greenop.nl_eval"],
        "greenop.nl_eval_points_per_call": _ratio(
            t["points"]["greenop.nl_eval"], calls["greenop.nl_eval"]),
        "greenop.check_hypotheses_s": busy["greenop.check_hypotheses"],
        "greenop.kernel_abs_integral_calls":
            calls["greenop.kernel_abs_integral"],
        "cones.index_one_sweep_s": busy["cones.index_one_sweep"],
        "cones.index_one_check_s": busy["cones.index_one_check"],
        "cones.index_one_check_calls": calls["cones.index_one_check"],
        "compactify.kappa_limit_s": busy["compactify.kappa_limit"],
        "compactify.kappa_limit_calls": calls["compactify.kappa_limit"],
        "compactify.extend_s": busy["compactify.extend"],
        "funcspace.precompactness_report_s":
            busy["funcspace.precompactness_report"],
    }


def per_layer(records):
    traced = [layer_values(p) for p in _passes(records, traced=True)]
    out = {name: statistics.median(v[name] for v in traced)
           for name in traced[0]}
    # traced run_s minus untraced run_s of the same run
    out["trace.overhead_s"] = (
        pass_time([r for r in records if r["traced"]], "wall_s")
        - pass_time([r for r in records if not r["traced"]], "wall_s"))
    return out


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ---------------------------------------------------------------------------


def run(workload, seed, seconds, trace):
    if not (ROOT / "src" / "compactfix" / "cli.py").is_file():
        raise BenchError(f"no compactfix sources under {ROOT / 'src'}")
    e2e_units, layer_units = load_spec()
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    setup_spawns = measure_setup(env, work, deadline)
    if workload == "crosscheck":
        records = run_crosscheck(seed, seconds, trace, env, work, deadline)
    else:
        records = run_cli(workload, seed, seconds, trace, env, work,
                          deadline)
    if trace:
        values, units = per_layer(records), layer_units
    else:
        values, units = end_to_end(records, setup_spawns), e2e_units
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} do "
                         "not match BENCHMARK.json")
    (work / "records.json").write_text(json.dumps(
        {"setup": setup_spawns, "records": records}))
    failed = [r for r in records if r["errors"]]
    _report(workload, records, setup_spawns, failed)
    return {"correct": not failed, "attempted": len(records),
            "failed": len(failed),
            "metrics": {k: {"value": values[k], "unit": units[k]}
                        for k in units}}


def _report(workload, records, setup_spawns, failed):
    """Human-readable per-operation summary on standard error."""
    by_name = defaultdict(list)
    for r in records:
        by_name[(r["name"], r["traced"])].append(r["wall_s"])
    print(f"{workload}: {len(records)} operations, setup median "
          f"{setup_time(setup_spawns):.3f}s of {len(setup_spawns)} spawns",
          file=sys.stderr)
    for (name, traced), walls in by_name.items():
        print(f"  {name}{' (traced)' if traced else ''}: n={len(walls)} "
              f"median wall {statistics.median(walls):.3f}s", file=sys.stderr)
    for r in failed:
        print(f"  FAILED {r['name']}: {'; '.join(r['errors'])}",
              file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
