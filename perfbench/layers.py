"""Per-layer spans recorded from the benchmark's own wrappers.

``install`` replaces each layer's public entry point at the module
attribute its caller looks it up by (callers bind with ``from ... import``,
so ``repro.gpu.batch.cost_of`` is patched, not only
``repro.codegen.cost.cost_of``) with a wrapper that records a span.
Spans live in memory; ``Recorder.totals`` folds them into per-layer
totals, where a span's self time is its duration minus the time of the
spans it caused.
Nothing inside ``repro`` changes, so the untraced runs measure the program
exactly as users run it.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: (span name, module path, attribute) for every patched entry point.
#: A dotted attribute patches a method on a class.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("dsl.build", "repro.dsl.shapes", "StencilCase.build"),
    ("codegen.generate", "repro.gpu.batch", "generate"),
    ("codegen.generate", "repro.gpu.simulator", "generate"),
    ("codegen.cost", "repro.gpu.batch", "cost_of"),
    ("codegen.cost", "repro.gpu.simulator", "cost_of"),
    ("gpu.batch", "repro.gpu.batch", "simulate_batch"),
    ("gpu.simulate", "repro.exec.workers", "simulate"),
    ("gpu.traffic", "repro.gpu.simulator", "estimate_traffic"),
    ("gpu.timing", "repro.gpu.simulator", "kernel_time"),
    ("exec.map", "repro.harness.experiments", "parallel_map"),
    ("exec.map", "repro.harness.experiments", "map_study_points"),
    ("exec.microbatch", "repro.serve.orchestrator", "microbatch_study_points"),
    ("harness.run_study", "repro.harness.experiments", "run_study"),
    ("harness.run_study", "repro.serve.orchestrator", "run_study"),
    ("harness.checkpoint", "repro.harness.serialization", "save_study_checkpoint"),
    ("results.ingest", "repro.results.store", "ResultsStore.ingest_study"),
    ("results.load", "repro.results.store", "ResultsStore.load_study"),
    ("results.render", "repro.results.report", "generate_report"),
)

class Recorder:
    """In-memory span sink shared by every wrapper ``install`` creates.

    A span is ``[name, start_s, end_s, child_s, info]``; ``child_s``
    accumulates the durations of spans opened inside it on the same
    thread, which is what self time subtracts.  ``info`` holds what a
    wrapper learned from the call (points in a batch, bytes written).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: List[list] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        stack = self._stack()
        record = [name, time.perf_counter(), 0.0, 0.0, None]
        stack.append(record)
        try:
            out = fn(*args, **kwargs)
            record[4] = _info(name, args, out)
            return out
        finally:
            record[2] = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1][3] += record[2] - record[1]
            with self._lock:
                self.spans.append(record)

    def clear(self) -> None:
        """Forget the spans recorded so far."""
        with self._lock:
            self.spans.clear()

    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{span name: {calls, total_ms, self_ms, info}}``."""
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "info": 0}
        )
        with self._lock:
            spans = list(self.spans)
        for name, start, end, child, info in spans:
            row = out[name]
            row["calls"] += 1
            row["total_ms"] += (end - start) * 1e3
            row["self_ms"] += (end - start - child) * 1e3
            row["info"] += info or 0
        return dict(out)


def _info(name: str, args: tuple, out) -> int:
    """What a span records beyond its timing: batch points, file bytes."""
    if name == "gpu.batch":
        return len(args[0])
    if name == "harness.checkpoint":
        return os.path.getsize(out)
    return 0


def _resolve(module_path: str, attr: str):
    owner = importlib.import_module(module_path)
    *outer, leaf = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, leaf


def install(recorder: Recorder) -> Callable[[], None]:
    """Patch every target with a recording wrapper; returns the undo."""
    undo = []
    for name, module_path, attr in TARGETS:
        owner, leaf = _resolve(module_path, attr)
        original = owner.__dict__[leaf]

        def wrapper(*args, __fn=original, __name=name, **kwargs):
            return recorder.call(__name, __fn, args, kwargs)

        functools.update_wrapper(wrapper, original)
        setattr(owner, leaf, wrapper)
        undo.append((owner, leaf, original))

    def uninstall() -> None:
        for owner, leaf, original in reversed(undo):
            setattr(owner, leaf, original)

    return uninstall


def span_metrics(totals: Dict[str, Dict[str, float]], ops: int) -> Dict[str, float]:
    """The span-derived per-layer metrics.

    Times and counts are means per timed op of the traced phase (per
    completed request on ``serve_mixed``), so runs of different lengths
    compare; a layer a workload never reaches reads 0.
    """

    def t(name: str, key: str = "total_ms") -> float:
        return totals.get(name, {}).get(key, 0.0) / ops

    batch = totals.get("gpu.batch", {})
    batch_points = batch.get("info", 0)
    checkpoint = totals.get("harness.checkpoint", {})
    return {
        "dsl.build_ms": t("dsl.build"),
        "codegen.generate_ms": t("codegen.generate"),
        "codegen.generate_calls": t("codegen.generate", "calls"),
        "codegen.cost_ms": t("codegen.cost"),
        "codegen.cost_calls": t("codegen.cost", "calls"),
        "gpu.batch.self_ms": t("gpu.batch", "self_ms"),
        "gpu.batch.us_per_point": (
            batch.get("total_ms", 0.0) * 1e3 / batch_points if batch_points else 0.0
        ),
        "gpu.batch.calls": t("gpu.batch", "calls"),
        "gpu.batch.points_per_call": (
            batch_points / batch["calls"] if batch_points else 0.0
        ),
        "gpu.simulate.self_ms": t("gpu.simulate", "self_ms"),
        "gpu.simulate.calls": t("gpu.simulate", "calls"),
        "gpu.traffic.ms": t("gpu.traffic"),
        "gpu.timing.ms": t("gpu.timing"),
        "exec.map.self_ms": t("exec.map", "self_ms") + t("exec.microbatch", "self_ms"),
        "harness.run_study.self_ms": t("harness.run_study", "self_ms"),
        "harness.checkpoint.writes": t("harness.checkpoint", "calls"),
        "harness.checkpoint.ms": t("harness.checkpoint"),
        "harness.checkpoint.bytes": checkpoint.get("info", 0) / ops,
        "results.ingest_ms": t("results.ingest"),
        "results.load_ms": t("results.load"),
        "results.render_ms": t("results.render", "self_ms"),
    }


def counter_metrics(before: Dict[str, float], after: Dict[str, float], ops: int) -> Dict[str, float]:
    """Per-layer metrics read from ``repro.obs`` counter deltas."""

    def delta(name: str) -> float:
        return float(after.get(name, 0)) - float(before.get(name, 0))

    hits, misses = delta("codegen.memo_hits"), delta("codegen.memo_misses")
    return {
        "codegen.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "exec.dispatch.serial": delta("exec.dispatch.serial") / ops,
        "exec.dispatch.vectorized": delta("exec.dispatch.vectorized") / ops,
        "results.points_ingested": delta("results.points_ingested") / ops,
    }


def counters() -> Dict[str, float]:
    """Current values of every ``repro.obs`` counter."""
    from repro.obs import get_registry

    return {
        name: value
        for name, value in get_registry().snapshot().items()
        if isinstance(value, (int, float))
    }
