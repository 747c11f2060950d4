"""Traced `bandqed.cli` entry of the cli-cold workload.

    python perfbench/cli_trace.py SPANS_PATH ROUND COMMAND [ARGS...]

Wraps the bandqed functions the CLI module calls (every function it
imported from a layer module, plus `config.load_config`) and `cli.main`
itself, runs the command, and writes the spans to SPANS_PATH.  Round 0
runs under tracemalloc (see tracing.py).
"""

from __future__ import annotations

import inspect
import json
import sys
import tracemalloc

import bandqed.cli as cli
import bandqed.config

from tracing import LAYERS, Tracer


def main(argv) -> int:
    spans_path, rnd, cli_argv = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer()
    tracer.round = rnd
    for name, obj in list(vars(cli).items()):
        layer = getattr(obj, "__module__", "").rpartition(".")[2]
        if inspect.isfunction(obj) and layer in LAYERS and layer != "cli":
            setattr(cli, name, tracer.wrap(layer, name, obj))
    bandqed.config.load_config = tracer.wrap("config", "load_config",
                                             bandqed.config.load_config)
    if rnd == 0:
        tracemalloc.start()
    code = tracer.wrap("cli", "main", cli.main)(cli_argv)
    tracemalloc.stop()
    with open(spans_path, "w") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
