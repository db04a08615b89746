"""Self-test of the benchmark: corrupted outputs must count as failures.

    python3 -m pytest perfbench -q
"""

import json
import random
import time

import numpy as np
import pytest

import crosscheck
import hostspeed
import run
import tracer
import workloads


def _cli(tmp_path, args):
    log = tmp_path / "cli.log"
    res = run.spawn([run.sys.executable, "-m", "compactfix.cli", *args,
                     "--out", "out"], tmp_path, log, run.child_env(),
                    time.monotonic() + 120)
    assert res["exit"] == 0, log.read_text()
    return str(tmp_path / "out"), log.read_text()


def _edit_json(path, key, fn):
    doc = json.loads(open(path).read())
    doc[key] = fn(doc[key])
    open(path, "w").write(json.dumps(doc))


def test_solve_check_rejects_corrupted_outputs(tmp_path):
    op = workloads._solve_op(random.Random(7), workloads.COARSE_STEP)
    out, stdout = _cli(tmp_path, op.args)
    assert op.check(out, stdout) == []
    summary = f"{out}/summary.json"
    _edit_json(summary, "profile_at_1", lambda v: v + 1e-6)
    assert any("profile_at_1" in e for e in op.check(out, stdout))
    _edit_json(summary, "profile_at_1", lambda v: v - 1e-6)
    _edit_json(summary, "iterations", lambda v: v + 1)
    assert any("iterations" in e for e in op.check(out, stdout))
    _edit_json(summary, "iterations", lambda v: v - 1)
    assert op.check(out, stdout) == []
    with open(f"{out}/solution.csv", "rb+") as fh:
        fh.truncate(fh.seek(0, 2) // 2)
    assert any("solution.csv" in e for e in op.check(out, stdout))


def test_conditions_check_rejects_corrupted_report(tmp_path):
    op = workloads._conditions_op(random.Random(3))
    out, stdout = _cli(tmp_path, op.args)
    assert op.check(out, stdout) == []
    report = f"{out}/cone_report.json"
    doc = json.loads(open(report).read())
    doc["rows"][-1]["holds"] = not doc["rows"][-1]["holds"]
    open(report, "w").write(json.dumps(doc))
    assert op.check(out, stdout)


def test_corrupted_output_counts_as_failed_operation(tmp_path):
    def corrupt_then_check(out, stdout):
        _edit_json(f"{out}/validation.json", "gaps",
                   lambda g: dict(g, Tu0=1e-3))
        return workloads.check_validate(out, stdout)

    good = workloads.Op("validate", ["validate-closed-forms"],
                        workloads.check_validate)
    bad = workloads.Op("validate", ["validate-closed-forms"],
                       corrupt_then_check)
    for sub in ("logs", "ops"):
        (tmp_path / sub).mkdir()
    deadline = time.monotonic() + 120
    env = run.child_env()
    recs = [run.run_cli_op(op, i, False, env, tmp_path, deadline)
            for i, op in enumerate((good, bad))]
    assert recs[0]["errors"] == []
    assert any("Tu0" in e for e in recs[1]["errors"])


def test_failing_cli_call_counts_as_failed_operation(tmp_path):
    for sub in ("logs", "ops"):
        (tmp_path / sub).mkdir()
    op = workloads.Op("bad", ["solve", "--grid-step", "oops"],
                      lambda out, stdout: [])
    rec = run.run_cli_op(op, 0, False, run.child_env(), tmp_path,
                         time.monotonic() + 60)
    assert rec["exit"] != 0 and rec["errors"]


def test_crosscheck_checks_reject_corruption():
    tu0 = np.linspace(0.0, 0.1, 12).reshape(3, 4)
    face = (np.full(3, 0.2), np.full(3, 0.2))
    assert crosscheck.check_test02(tu0, tu0 + 1e-5, tu0, tu0, face) == []
    assert crosscheck.check_test02(tu0 + 1e-5, tu0, tu0, tu0, face)
    assert crosscheck.check_test02(tu0, tu0, tu0, tu0,
                                   (face[0] + 1e-3, face[1]))
    assert crosscheck.check_test02(tu0, tu0 + 1e-3, tu0, tu0, face)
    assert crosscheck.check_cone(tu0, tu0 + 1e-3) == []
    assert crosscheck.check_cone(tu0, tu0 + 1e-2)
    assert crosscheck.check_cone(tu0 - 1.0, tu0 - 1.0)
    gaps = {"Tu0": 1e-12, "Tu0_face": 1e-12, "abs_integral": 1e-12}
    assert crosscheck.check_validate(gaps) == []
    assert crosscheck.check_validate(dict(gaps, Tu0=1e-3))
    assert crosscheck.check_validate({"Tu0": 1e-12})


def test_slot_times_rescale_to_reference_speed_and_skip_failures():
    recs = [{"slot": 0, "wall_s": w, "slowness": v, "errors": e}
            for w, v, e in ((1.0, [1.0], []), (4.0, [1.0, 3.0], []),
                            (9.0, [1.0], []), (0.1, [1.0], ["bad output"]))]
    recs.append({"slot": 1, "wall_s": 3.0, "slowness": [2.0], "errors": []})
    # rescaled: slot 0 reads 1, 2 and 9 (median 2), slot 1 reads 1.5
    assert run.slot_times(recs, "wall_s") == [2.0, 1.5]
    with pytest.raises(ValueError):
        hostspeed.normalise(1.0, [])


def test_samplers_probe_during_work():
    for sampler in (hostspeed.python_sampler(), hostspeed.numpy_sampler(np)):
        with sampler:
            end = time.perf_counter() + 0.6
            while time.perf_counter() < end:
                pass
        assert len(sampler.slowness()) >= 2
        assert all(v > 0 for v in sampler.slowness())


def test_expected_iterations_follow_the_reference_gaps():
    assert workloads.expected_iterations(1e-8) == 6
    assert workloads.expected_iterations(1e-10) == 7
    with pytest.raises(ValueError):
        workloads.expected_iterations(1e-20)


def test_tracer_busy_and_self_time_with_recursion():
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return None

    def node(depth):
        if depth:
            traced_node(depth - 1)
        traced_leaf()

    traced_leaf = tr.wrap("leaf", leaf)
    traced_node = tr.wrap("node", node)
    traced_node(1)
    # clock: node0 in 0, node1 in 1, leaf 2-3, node1 out 4, leaf 5-6, out 7
    assert tr.calls == {"node": 2, "leaf": 2}
    assert tr.busy["node"] == 7.0
    assert tr.busy["leaf"] == 2.0
    assert tr.self_time["node"] == 7.0 - 2.0
    assert len(tr.span_start) == 4 and list(tr.span_parent) == [-1, 0, 1, 0]
