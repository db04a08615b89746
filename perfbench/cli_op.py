"""Run one compactfix CLI call, or the benchmark's set-up, while sampling
the host's speed (hostspeed.py).

    python3 perfbench/cli_op.py RESULT_JSON setup
    python3 perfbench/cli_op.py RESULT_JSON cli ARGS...
    python3 perfbench/cli_op.py RESULT_JSON traced-cli ARGS...

`setup` imports compactfix.cli and builds the case study, which every CLI
call pays before it does any work.  `cli` runs compactfix.cli.main with the
compactfix arguments ARGS; `traced-cli` does the same with the layer tracer
(tracer.py) installed and adds its spans to RESULT_JSON.  RESULT_JSON also
receives the host's slowness sampled during the call and the import time of
compactfix.cli.  The exit code is the CLI's own.
"""

import json
import sys
import time

import hostspeed
import tracer


def main():
    result_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tr = tracer.Tracer() if mode == "traced-cli" else None
    code = 0
    with hostspeed.python_sampler() as sampler:
        t0 = time.perf_counter()
        import compactfix.cli
        import_s = time.perf_counter() - t0
        if mode == "setup":
            from compactfix.casestudy import load_problem
            load_problem("hyperbolic-erf")
        else:
            if tr is not None:
                tr.install()
            code = compactfix.cli.main(argv)
    extra = {"slowness": sampler.slowness(), "import_s": import_s}
    if tr is not None:
        tr.dump(result_path, exit_code=code, **extra)
    else:
        with open(result_path, "w") as fh:
            json.dump(extra, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
