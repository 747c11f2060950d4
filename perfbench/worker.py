"""In-process worker of the array workload.

    python perfbench/worker.py WORKLOAD SEED [--setup-only] [--trace PATH]

Imports bandqed (first, as a user would), builds the workload's inputs from
SEED, makes one warm-up call of each operation type and prints `ready`.
With --setup-only it exits there.  Otherwise it answers each `round` line on
stdin by running every operation once (timed, then checked) and printing
one JSON line of results, and exits at the end of stdin.  With --trace it wraps every
call in a span, runs the first round under tracemalloc, and writes the
spans to PATH before it exits.
"""

from __future__ import annotations

import sys

import bandqed  # before numpy, as in a user's program

import json
import time
import tracemalloc
import warnings

import checks
import workloads
from tracing import Tracer


def run_op(op, fn, cache) -> dict:
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        result = fn(*op.args, **op.kwargs)
    except Exception as exc:           # an operation that raises counts as failed
        return {"wall": time.perf_counter() - t0, "cpu": time.process_time() - c0,
                "error": f"{type(exc).__name__}: {exc}"}
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    try:
        op.check(result, cache)
    except checks.CheckError as exc:
        return {"wall": wall, "cpu": cpu, "error": str(exc)}
    return {"wall": wall, "cpu": cpu, "error": None}


def main(argv) -> int:
    workload, seed = argv[0], int(argv[1])
    setup_only = "--setup-only" in argv
    trace_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    warnings.simplefilter("ignore")

    for op in workloads.in_process_ops(workload, seed, bandqed, warmup=True):
        run_op(op, getattr(bandqed, op.func), {})
    ops = workloads.in_process_ops(workload, seed, bandqed)
    print("ready", flush=True)
    if setup_only:
        return 0

    tracer = Tracer() if trace_path else None
    funcs = [getattr(bandqed, op.func) for op in ops]
    if tracer:
        funcs = [tracer.wrap(op.layer, op.func, fn) for op, fn in zip(ops, funcs)]
    caches = [{} for _ in ops]
    for rnd, _ in enumerate(sys.stdin):
        if tracer:
            tracer.round = rnd
            if rnd == 0:            # the memory round; see tracing.py
                tracemalloc.start()
        results = [dict(run_op(op, fn, cache), name=op.name)
                   for op, fn, cache in zip(ops, funcs, caches)]
        if tracer and rnd == 0:
            tracemalloc.stop()
        print(json.dumps(results), flush=True)
    if tracer:
        with open(trace_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
