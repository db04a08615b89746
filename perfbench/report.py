"""Print every benchmark metric by name and unit, with the reference checks.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME]

Runs run.py on each workload twice, untraced (end-to-end metrics) and traced
(per-layer metrics), and prints one line per metric.  Each run's reference
checks are summarised as `error_rate` (failed over attempted operations);
the command exits nonzero if any operation failed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workload", choices=names, action="append")
    args = ap.parse_args(argv)
    all_ok = True
    for workload in args.workload or names:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload",
                 workload, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            kind = "per-layer" if trace else "end-to-end"
            print(f"== {workload} ({kind}) correct={res['correct']} "
                  f"error_rate={res['failed'] / res['attempted']:.3g} "
                  f"({res['failed']}/{res['attempted']} operations failed)")
            for name, m in res["metrics"].items():
                print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
            if not res["correct"]:
                print(proc.stderr, file=sys.stderr)
            all_ok &= res["correct"]
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
