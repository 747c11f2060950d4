"""Spans around bandqed calls, and the per-layer metrics made from them.

A Tracer wraps public bandqed functions at the benchmark's call sites.  Each
call records one span: layer, function, round, start, end, parent span and
the work done.  Spans stay in memory until the run ends.

tracemalloc slows allocation-heavy code several times over (the DOP853
stepper, the per-cell Monte Carlo loop), so a traced run takes memory and
time in separate rounds: the first round runs under tracemalloc and its
spans carry the allocation peak above their starting allocation; times and
rates come from the later rounds only.

Layers are the bandqed modules plus package import.  `layer_metrics` turns
the spans into per-round figures and rates.
"""

from __future__ import annotations

import re
import time
import tracemalloc

LAYERS = ("cli", "config", "bound_state", "interactions", "dynamics", "design",
          "disorder")
MEMORY_LAYERS = ("interactions", "dynamics", "disorder")


def work_of(func: str, result) -> dict:
    """Work a call did, read off its result."""
    if func == "bound_state_depth":
        return {"roots": int(result.size)}
    values = getattr(result, "values", None)
    if values is not None and hasattr(values, "nbytes"):
        return {"elements": int(values.size), "bytes": int(values.nbytes)}
    if func == "evolve_single_excitation":
        return {"amp_samples": int(result.amplitudes.size)}
    if func == "power_law_designer":
        return {"fits": 1}
    if func == "lyapunov_mc":
        return {"cell_trials": int(result.n_cells) * int(result.n_trials)}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.round = 0
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, layer: str, func: str, fn):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            memory = tracemalloc.is_tracing()
            if memory:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            span = {"id": span_id, "parent": parent, "layer": layer, "func": func,
                    "round": self.round, "start": start, "end": end,
                    "work": work_of(func, result), "memory": memory}
            if memory:
                span["peak_alloc"] = tracemalloc.get_traced_memory()[1] - base
            self.spans.append(span)
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans: list[dict]) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def parse_importtime(text: str) -> dict:
    """Cumulative seconds of `bandqed` (with its submodules) and `scipy.optimize`.

    Input is the stderr of `python -X importtime`.  Top-level entries whose
    name starts with bandqed are summed, so `import bandqed.cli` counts the
    package and the cli module.
    """
    out = {"bandqed_s": 0.0, "bandqed_self_s": 0.0, "scipy_optimize_s": 0.0}
    pattern = re.compile(r"import time:\s+(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)")
    for line in text.splitlines():
        m = pattern.match(line)
        if not m:
            continue
        self_us, cum_us, indent, name = int(m[1]), int(m[2]), len(m[3]), m[4]
        if name == "bandqed" or name.startswith("bandqed."):
            out["bandqed_self_s"] += self_us * 1e-6
            if indent == 1:
                out["bandqed_s"] += cum_us * 1e-6
        elif name == "scipy.optimize":
            out["scipy_optimize_s"] += cum_us * 1e-6
    return out


def layer_metrics(spans: list[dict], rounds: int, imports: dict) -> dict:
    """Per-layer metrics: calls and times per timed round, rates over all of them.

    rounds counts every round of the run, the tracemalloc one included.
    """
    own = self_times(spans)
    calls = {name: 0 for name in LAYERS}
    self_s = {name: 0.0 for name in LAYERS}
    busy = {}       # (layer, func) -> seconds inside the call
    work = {}       # counter -> total over all spans
    peak = {name: 0 for name in MEMORY_LAYERS}
    for s in spans:
        layer = s["layer"]
        if s["memory"] and layer in peak:
            peak[layer] = max(peak[layer], s["peak_alloc"])
        if layer not in calls or s["memory"]:
            continue
        calls[layer] += 1
        self_s[layer] += own[s["id"]]
        key = (layer, s["func"])
        busy[key] = busy.get(key, 0.0) + s["end"] - s["start"]
        for counter, amount in s["work"].items():
            work[(layer, counter)] = work.get((layer, counter), 0) + amount
    rounds -= 1

    def layer_busy(layer, func=None):
        return sum(v for (lay, f), v in busy.items()
                   if lay == layer and (func is None or f == func))

    def rate(layer, counter, seconds):
        return work.get((layer, counter), 0) / seconds if seconds > 0 else 0.0

    m = {
        "import.calls": 1,
        "import.self_s": imports["bandqed_self_s"],
        "import.bandqed_s": imports["bandqed_s"],
        "import.scipy_optimize_s": imports["scipy_optimize_s"],
    }
    for layer in LAYERS:
        m[f"{layer}.calls"] = calls[layer] / rounds
        m[f"{layer}.self_s"] = self_s[layer] / rounds
    m["config.load_s"] = layer_busy("config", "load_config") / rounds
    m["bound_state.roots_per_s"] = rate("bound_state", "roots",
                                        layer_busy("bound_state", "bound_state_depth"))
    interactions_s = layer_busy("interactions")
    m["interactions.elements_per_s"] = rate("interactions", "elements", interactions_s)
    m["interactions.bytes_mb"] = work.get(("interactions", "bytes"), 0) / rounds / 1e6
    evolve_s = layer_busy("dynamics", "evolve_single_excitation")
    m["dynamics.evolve_s"] = evolve_s / rounds
    m["dynamics.amp_samples_per_s"] = rate("dynamics", "amp_samples", evolve_s)
    m["dynamics.optimize_s"] = layer_busy("dynamics", "optimize_exchange") / rounds
    fit_s = layer_busy("design", "power_law_designer")
    m["design.fit_s"] = fit_s / rounds
    m["design.fits_per_s"] = rate("design", "fits", fit_s)
    m["disorder.cell_trials_per_s"] = rate("disorder", "cell_trials",
                                           layer_busy("disorder", "lyapunov_mc"))
    for layer in MEMORY_LAYERS:
        m[f"{layer}.peak_alloc_mb"] = peak[layer] / 1e6
    return {name: {"value": value, "unit": unit_of(name)} for name, value in m.items()}


def unit_of(metric: str) -> str:
    for suffix, unit in (("calls", "count"), ("_per_s", "1/s"), ("_mb", "MB"),
                         ("_s", "s")):
        if metric.endswith(suffix):
            return unit
    raise ValueError(f"no unit for {metric}")
