"""Trace exporters: JSON-lines, Chrome trace-event JSON, text tree.

Three consumers, three formats:

* **jsonl** — one flat JSON object per finished span (ids link children
  to parents), the machine-diffable archival format;
* **chrome** — the Chrome/Perfetto trace-event format (``ph: "X"``
  complete events, microsecond timestamps), loadable in
  ``chrome://tracing`` or https://ui.perfetto.dev for flame-chart
  inspection of a sweep;
* **tree** — an indented, deterministic text rendering for terminals
  and golden tests.

All exporters consume the ``Span`` trees a :class:`~repro.obs.trace.Tracer`
collected; none mutate them.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import ObservabilityError
from repro.obs.metrics import Counter, MetricsRegistry, counter
from repro.obs.trace import Span, get_tracer

__all__ = [
    "TRACE_FORMATS",
    "capture_counters",
    "merge_observations",
    "span_to_dict",
    "spans_from_dicts",
    "to_jsonl",
    "to_chrome",
    "render_tree",
    "write_trace",
]

TRACE_FORMATS = ("jsonl", "chrome", "tree")


def span_to_dict(span: Span) -> Dict[str, Any]:
    """One span as a flat, JSON-serialisable record (no children)."""
    return {
        "name": span.name,
        "id": span.span_id,
        "parent_id": span.parent_id,
        "thread": span.thread_id,
        "pid": span.pid,
        "t_start": span.t_start,
        "t_end": span.t_end,
        "dur_ms": round(span.duration_ms, 6),
        "attrs": span.attrs,
    }


def spans_from_dicts(records: Iterable[Dict[str, Any]]) -> List[Span]:
    """Rebuild span trees from :func:`span_to_dict` records.

    The inverse of flattening: children are re-attached via their
    ``parent_id`` and the root spans are returned in record order.
    Records whose parent is absent from the batch become roots
    themselves (a worker ships only the subtree it recorded).  Used by
    :func:`merge_observations` to rehydrate a worker process's trace
    before :meth:`~repro.obs.trace.Tracer.adopt` grafts it into the
    parent.
    """
    spans: Dict[int, Span] = {}
    ordered: List[Span] = []
    for rec in records:
        span_id = rec["id"]
        if span_id in spans:
            raise ObservabilityError(
                f"duplicate span id {span_id} in serialised trace"
            )
        s = Span(
            name=rec["name"],
            attrs=dict(rec.get("attrs") or {}),
            span_id=span_id,
            parent_id=rec.get("parent_id"),
            thread_id=rec.get("thread", 0),
            t_start=rec["t_start"],
            t_end=rec["t_end"],
            pid=rec.get("pid", 0),
        )
        spans[span_id] = s
        ordered.append(s)
    roots: List[Span] = []
    for s in ordered:
        parent = spans.get(s.parent_id) if s.parent_id is not None else None
        if parent is not None:
            parent.children.append(s)
        else:
            roots.append(s)
    return roots


def capture_counters(registry: MetricsRegistry) -> Dict[str, int]:
    """Counter name -> value for every counter in ``registry``.

    What a worker process (the serving layer's supervised workers)
    ships back with its result, together with its flattened spans.
    """
    return {
        name: registry.get(name).value
        for name in registry.names()
        if isinstance(registry.get(name), Counter)
    }


def merge_observations(
    counters: Dict[str, int], span_dicts: List[Dict[str, Any]]
) -> None:
    """Fold one worker process's counters and spans into this process.

    Counterpart of :func:`capture_counters` plus :func:`span_to_dict`:
    counters add into the current registry, and the rebuilt span trees
    are adopted by the current tracer when it is enabled.
    """
    for name, value in counters.items():
        if value:
            counter(name).inc(value)
    tracer = get_tracer()
    if tracer.enabled and span_dicts:
        for root in spans_from_dicts(span_dicts):
            tracer.adopt(root)


def to_jsonl(roots: Iterable[Span]) -> str:
    """All spans, depth-first, one JSON object per line."""
    lines = [
        json.dumps(span_to_dict(s), sort_keys=True)
        for root in roots
        for s in root.walk()
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def _chrome_event(span: Span) -> Dict[str, Any]:
    # "X" (complete) events carry start + duration in microseconds.
    # ``pid``/``tid`` come from the process/thread that recorded the
    # span: spans adopted from worker processes (``Tracer.adopt``) keep
    # their worker pid, so a parallel sweep renders as one track per
    # worker in chrome://tracing instead of one interleaved thread.
    args = {k: str(v) for k, v in span.attrs.items()}
    args["span_id"] = str(span.span_id)
    return {
        "name": span.name,
        "ph": "X",
        "ts": round(span.t_start * 1e6, 3),
        "dur": round(span.duration_s * 1e6, 3),
        "pid": span.pid or 1,
        "tid": span.thread_id,
        "cat": "repro",
        "args": args,
    }


def to_chrome(roots: Iterable[Span]) -> str:
    """Chrome trace-event JSON (open in chrome://tracing or Perfetto)."""
    events = [_chrome_event(s) for root in roots for s in root.walk()]
    doc = {"traceEvents": events, "displayTimeUnit": "ms"}
    return json.dumps(doc, indent=1)


def _attr_text(attrs: Dict[str, Any]) -> str:
    if not attrs:
        return ""
    body = " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
    return f"  [{body}]"


def render_tree(
    roots: Iterable[Span], max_depth: Optional[int] = None
) -> str:
    """Deterministic indented tree: one line per span, durations in ms.

    ``max_depth`` limits how deep children are rendered (1 = roots
    only); pruned subtrees are summarised with a child count.
    """
    lines: List[str] = []

    def emit(span: Span, depth: int) -> None:
        indent = "  " * depth
        lines.append(
            f"{indent}{span.name:<{max(1, 30 - 2 * depth)}} "
            f"{span.duration_ms:10.3f} ms{_attr_text(span.attrs)}"
        )
        if max_depth is not None and depth + 1 >= max_depth:
            hidden = sum(1 for _ in span.walk()) - 1
            if hidden:
                lines.append(f"{indent}  ... {hidden} nested span(s) elided")
            return
        for child in span.children:
            emit(child, depth + 1)

    for root in roots:
        emit(root, 0)
    return "\n".join(lines) if lines else "(no spans recorded)"


def write_trace(roots: Iterable[Span], path: str, fmt: str = "jsonl") -> None:
    """Serialise span trees to ``path`` in one of :data:`TRACE_FORMATS`."""
    if fmt not in TRACE_FORMATS:
        raise ObservabilityError(
            f"unknown trace format '{fmt}'; known: {TRACE_FORMATS}"
        )
    roots = list(roots)
    if fmt == "jsonl":
        text = to_jsonl(roots)
    elif fmt == "chrome":
        text = to_chrome(roots)
    else:
        text = render_tree(roots) + "\n"
    with open(path, "w") as f:
        f.write(text)
