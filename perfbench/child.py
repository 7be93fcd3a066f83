"""One measured pipeline run, in a fresh interpreter.

The benchmark starts this script once per run, with the checkout's `src`
on PYTHONPATH and the run directory as working directory. It imports
memetopics, loads the run configuration and makes one call to
run_pipeline or sweep. It writes to --result how long the set-up took
(from --spawned, the parent's monotonic clock just before it started this
process, to the call), how long the call took in wall and CPU time, and
the error if the call raised. With --trace the call runs under the
wrappers of layertrace.py and the spans are written to --trace-file.

    python3 child.py --config run.json --call run --result result.json \
        --spawned <monotonic seconds>
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="one measured memetopics run")
    parser.add_argument("--config", required=True)
    parser.add_argument("--call", choices=("run", "sweep"), required=True)
    parser.add_argument("--k-values", default="")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--src", required=True, help="the src directory memetopics must load from")
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)

    import memetopics
    from memetopics import RunConfig, run_pipeline, sweep

    loaded_from = os.path.dirname(os.path.dirname(os.path.abspath(memetopics.__file__)))
    if loaded_from != os.path.abspath(args.src):
        print(f"memetopics loaded from {loaded_from}, expected {args.src}", file=sys.stderr)
        return 2
    cfg = RunConfig.from_file(args.config)
    if args.call == "run":
        call, call_args = run_pipeline, (cfg,)
    else:
        call, call_args = sweep, (cfg, [int(k) for k in args.k_values.split(",")])

    tracer = None
    if args.trace_file:
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)
        call = tracer.wrap(call, "run")

    called = time.monotonic()
    cpu_before = time.process_time()
    error = None
    try:
        call(*call_args)
    except Exception as exc:  # the benchmark counts the run as failed
        error = f"{type(exc).__name__}: {exc}"
    run_s = time.monotonic() - called
    cpu_s = time.process_time() - cpu_before

    if tracer is not None:
        tracer.dump(args.trace_file)
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(
            {"setup_s": called - args.spawned, "run_s": run_s, "cpu_s": cpu_s, "error": error}, f
        )
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
