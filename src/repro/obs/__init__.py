"""``repro.obs`` — zero-dependency tracing + metrics for the pipeline.

The observability substrate the ROADMAP's perf PRs justify themselves
with: nested monotonic-clock spans (:mod:`repro.obs.trace`), a registry
of counters/gauges/histograms (:mod:`repro.obs.metrics`), and exporters
to JSON-lines, Chrome trace-event JSON, and a terminal tree
(:mod:`repro.obs.export`).

Typical use::

    from repro import obs

    tracer = obs.enable_tracing()
    study = harness.run_study()
    obs.write_trace(tracer.roots(), "trace.json", fmt="chrome")
    print(obs.get_registry().render_table())

Everything is a cheap no-op while tracing is disabled (the library
default), so instrumentation lives permanently in the hot paths.
"""

from repro.obs.export import (
    TRACE_FORMATS,
    capture_counters,
    merge_observations,
    render_tree,
    span_to_dict,
    spans_from_dicts,
    to_chrome,
    to_jsonl,
    write_trace,
)
from repro.obs.profile import (
    HotSpot,
    ProfileReport,
    folded_stacks,
    profile_runs,
    profile_spans,
    render_hotspots,
    span_self_time,
)
from repro.obs.regress import (
    DEFAULT_SPECS,
    DEFAULT_WINDOW,
    DiffEntry,
    DiffReport,
    MetricSpec,
    diff_run,
)
from repro.obs.store import (
    STORE_SCHEMA_VERSION,
    TELEMETRY_DB_ENV,
    GateResult,
    RunRecord,
    TelemetryStore,
    git_state,
    resolve_db_path,
)
from repro.obs.metrics import (
    TIME_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    get_registry,
    histogram,
    set_registry,
)
from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    set_tracer,
    span,
)

__all__ = [
    "DEFAULT_SPECS",
    "DEFAULT_WINDOW",
    "STORE_SCHEMA_VERSION",
    "TELEMETRY_DB_ENV",
    "TRACE_FORMATS",
    "TIME_BUCKETS_S",
    "NOOP_SPAN",
    "Counter",
    "DiffEntry",
    "DiffReport",
    "Gauge",
    "GateResult",
    "Histogram",
    "HotSpot",
    "MetricSpec",
    "MetricsRegistry",
    "ProfileReport",
    "RunRecord",
    "Span",
    "TelemetryStore",
    "Tracer",
    "capture_counters",
    "counter",
    "diff_run",
    "disable_tracing",
    "enable_tracing",
    "folded_stacks",
    "gauge",
    "get_registry",
    "get_tracer",
    "git_state",
    "histogram",
    "merge_observations",
    "profile_runs",
    "profile_spans",
    "render_hotspots",
    "render_tree",
    "resolve_db_path",
    "set_registry",
    "set_tracer",
    "span",
    "span_self_time",
    "span_to_dict",
    "spans_from_dicts",
    "to_chrome",
    "to_jsonl",
    "write_trace",
]
