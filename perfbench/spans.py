"""Counting and span recording around the library's layer boundaries.

The distqc modules import names directly (``from .purify import
pump_double``), so a call is intercepted by replacing the name in the module
that makes the call: ``distqc.threshold.pump_double``,
``distqc.resources.pump_double``, ``distqc.cli.pump_double`` and so on.
:func:`instrumented` patches every site for the duration of a ``with``
block and restores the originals afterwards, so untraced operations run the
unmodified program.

Spans are recorded from these wrappers only: calls that purify and telegate
make into pauli's label primitives stay inside their caller's span.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import Counter

#: calling module -> names it calls across a layer boundary on the
#: benchmark's paths (a module's own functions are listed where other
#: functions of that module call them)
SITES = {
    "cli": (
        "depolarizing_noise", "effective_pg", "pump_single", "pump_double",
        "aggregates", "gate_error_table", "gate_error_table_from_circuit",
        "q_values", "check_ft", "threshold_curve", "expected_cost",
        "contour_infidelity", "contour_expected_cost",
    ),
    "threshold": (
        "depolarizing_noise", "as_fidelity_vector", "pump_single", "pump_double",
        "q_values", "check_ft", "pipeline_passes", "threshold_pg", "pumped_infidelity",
    ),
    "resources": ("depolarizing_noise", "pump_single", "pump_double", "expected_cost"),
}

ROOT = "cli.main"


def _layer(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


class Recorder:
    """Counts calls per span name and, when ``keep_spans`` is set, records
    each call as a span (name, start, end, parent span index, operation id)."""

    def __init__(self, keep_spans: bool):
        self.keep_spans = keep_spans
        self.calls = Counter()
        self.spans = []   # (name, start, end, parent, op)
        self._stack = []
        self.op_id = -1

    def call(self, name, fn, args, kwargs):
        self.calls[name] += 1
        if not self.keep_spans:
            result = fn(*args, **kwargs)
        else:
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op_id)
        return result

    def run_op(self, op_id: int, main, argv):
        """Run one CLI call as the root span of operation ``op_id``."""
        self.op_id = op_id
        return self.call(ROOT, main, (argv,), {})


def _modules() -> dict:
    from distqc import cli, resources, threshold
    return {"cli": cli, "resources": resources, "threshold": threshold}


def _wrapper(rec, name, fn):
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, args, kwargs)
    return wrapper


@contextlib.contextmanager
def instrumented(rec: Recorder):
    """Route every call at SITES through ``rec`` inside the block.  A name
    the program no longer has is skipped, and its counts read 0."""
    modules = _modules()
    saved = []
    try:
        for site, names in SITES.items():
            module = modules[site]
            for attr in names:
                fn = getattr(module, attr, None)
                if fn is None:  # gone from this version of the program
                    continue
                saved.append((module, attr, fn))
                name = f"{_layer(fn)}.{fn.__name__}"
                setattr(module, attr, _wrapper(rec, name, fn))
        yield rec
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def map_cache_info():
    """(hits, misses) of the pumping map cache, or None if it is absent."""
    from distqc import purify
    cached = getattr(purify, "_cached_maps", None)
    if cached is None or not hasattr(cached, "cache_info"):
        return None
    info = cached.cache_info()
    return info.hits, info.misses


def span_stats(spans) -> dict:
    """name -> [calls, total seconds, self seconds], where self time is a
    span's duration minus the part of it its child spans cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {}
    for (name, start, end, parent, op), covered in zip(spans, child):
        s = stats.setdefault(name, [0, 0.0, 0.0])
        s[0] += 1
        s[1] += end - start
        s[2] += end - start - covered
    return stats


LAYERS = ("cli", "pauli", "purify", "telegate", "threshold", "resources")


def counters(rec: Recorder, cache_before, cache_after) -> dict:
    """Machine-independent work counts of the calls ``rec`` saw."""
    c = rec.calls
    hits = misses = 0
    if cache_before is not None and cache_after is not None:
        hits = cache_after[0] - cache_before[0]
        misses = cache_after[1] - cache_before[1]
    return {
        "pauli.noise_builds": c["pauli.depolarizing_noise"],
        "purify.pump_calls": c["purify.pump_single"] + c["purify.pump_double"],
        "purify.map_builds": misses,
        "purify.map_hits": hits,
        "telegate.table_calls": c["telegate.gate_error_table"],
        "telegate.circuit_calls": c["telegate.gate_error_table_from_circuit"],
        "threshold.pipeline_evals": c["threshold.pipeline_passes"],
        "threshold.points": c["threshold.threshold_pg"],
        "threshold.infidelity_evals": c["threshold.pumped_infidelity"],
        "resources.cost_evals": c["resources.expected_cost"],
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(rec: Recorder, counts: dict, traced_times, untraced_times) -> dict:
    """Per-layer metrics: counts and ratios from ``counts`` (a fixed prefix
    of the stream, so they repeat exactly), times in seconds per traced
    operation from the spans ``rec`` recorded, and the tracing overhead
    from the wall times of the same operations run traced and untraced."""
    stats = span_stats(rec.spans)
    n_ops = stats.get(ROOT, [0])[0]

    def per_op(*names, column=1):
        return _ratio(sum(stats[n][column] for n in names if n in stats), n_ops)

    m = {
        "pauli.noise_builds": counts["pauli.noise_builds"],
        "pauli.noise_s": per_op("pauli.depolarizing_noise"),
        "purify.pump_calls": counts["purify.pump_calls"],
        "purify.pump_s": per_op("purify.pump_single", "purify.pump_double"),
        "purify.map_builds": counts["purify.map_builds"],
        "purify.map_hit_ratio": _ratio(
            counts["purify.map_hits"], counts["purify.map_hits"] + counts["purify.map_builds"]),
        "telegate.table_calls": counts["telegate.table_calls"],
        "telegate.table_s": per_op("telegate.gate_error_table"),
        "telegate.circuit_calls": counts["telegate.circuit_calls"],
        "telegate.circuit_s": per_op("telegate.gate_error_table_from_circuit"),
        "threshold.pipeline_evals": counts["threshold.pipeline_evals"],
        "threshold.evals_per_point": _ratio(counts["threshold.pipeline_evals"],
                                            counts["threshold.points"]),
        "threshold.qvalues_s": per_op("threshold.q_values", "threshold.check_ft"),
        "threshold.search_self_s": per_op("threshold.threshold_curve", "threshold.threshold_pg",
                                          "threshold.contour_infidelity", column=2),
        "threshold.infidelity_evals": counts["threshold.infidelity_evals"],
        "resources.cost_evals": counts["resources.cost_evals"],
        "resources.evals_per_point": _ratio(counts["resources.cost_evals"],
                                            counts["resources.points"]),
        "resources.search_self_s": per_op("resources.contour_expected_cost", column=2),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per_op(*(n for n in stats if n.startswith(layer + ".")), column=2)
    traced_p50 = statistics.median(traced_times)
    m["trace.op_s.p50"] = traced_p50
    m["trace.overhead_s"] = traced_p50 - statistics.median(untraced_times)
    m["trace.accounted_frac"] = (sum(m[f"{layer}.self_s"] for layer in LAYERS)
                                 / statistics.mean(traced_times))
    return m
