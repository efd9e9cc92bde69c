"""Span profiling: self-time aggregation and folded-stack export.

A span's *total* time includes everything nested inside it, so totals
alone cannot say which layer a run's time went to.  The profiler
computes **self time** (a span's duration minus its children's
durations, clamped at zero) and aggregates it by span name over one run
or a whole history window, so "where did the time go" becomes a
queryable fact: the ``sweep.chunk`` row's self-time is the batch
engine's own work, with the ``codegen`` spans nested in it counted in
their own row.

Two outputs:

* a hotspot table (name, calls, total, self, self%) sorted by self
  time — the terminal instrument;
* folded stacks (``root;child;leaf <self_time_us>`` lines) — the
  flamegraph.pl / speedscope / inferno input format, one line per
  unique root-to-span path with microseconds of self time as the
  sample weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError
from repro.obs.store import TelemetryStore
from repro.obs.trace import Span

__all__ = [
    "HotSpot",
    "ProfileReport",
    "folded_stacks",
    "profile_runs",
    "profile_spans",
    "render_hotspots",
    "span_self_time",
]


def span_self_time(span: Span) -> float:
    """Duration not attributable to any child span, clamped at >= 0.

    The clamp matters for adopted worker trees: parent and child were
    timed by different process clocks, so a child can nominally overrun
    its parent by scheduling noise; negative self time is measurement
    error, not work.
    """
    children = sum(c.duration_s for c in span.children)
    return max(0.0, span.duration_s - children)


@dataclass(frozen=True)
class HotSpot:
    """Aggregated timing for every span sharing one name."""

    name: str
    count: int
    total_s: float
    self_s: float

    @property
    def self_per_call_s(self) -> float:
        return self.self_s / self.count if self.count else 0.0


@dataclass(frozen=True)
class ProfileReport:
    """Hotspots of one run (or window), ranked by self time."""

    hotspots: Tuple[HotSpot, ...]
    runs: int = 1

    @property
    def total_self_s(self) -> float:
        """Total accounted self time (== total traced wall time)."""
        return sum(h.self_s for h in self.hotspots)

    def get(self, name: str) -> HotSpot:
        for h in self.hotspots:
            if h.name == name:
                return h
        raise ObservabilityError(f"no span named '{name}' in this profile")

    def render(self, top: Optional[int] = None) -> str:
        return render_hotspots(self.hotspots, top=top, runs=self.runs)


def profile_spans(roots: Iterable[Span]) -> ProfileReport:
    """Aggregate self/total time by span name over the given trees."""
    stats: Dict[str, List[float]] = {}
    for root in roots:
        for span in root.walk():
            entry = stats.setdefault(span.name, [0.0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += span.duration_s
            entry[2] += span_self_time(span)
    hotspots = [
        HotSpot(name, int(e[0]), e[1], e[2]) for name, e in stats.items()
    ]
    hotspots.sort(key=lambda h: (-h.self_s, h.name))
    return ProfileReport(hotspots=tuple(hotspots))


def profile_runs(
    store: TelemetryStore, run_ids: Sequence[int]
) -> ProfileReport:
    """Aggregate hotspots across several stored runs (a history window)."""
    if not run_ids:
        raise ObservabilityError("no runs to profile")
    merged: Dict[str, List[float]] = {}
    for run_id in run_ids:
        report = profile_spans(store.span_roots(run_id))
        for h in report.hotspots:
            entry = merged.setdefault(h.name, [0.0, 0.0, 0.0])
            entry[0] += h.count
            entry[1] += h.total_s
            entry[2] += h.self_s
    hotspots = [
        HotSpot(name, int(e[0]), e[1], e[2]) for name, e in merged.items()
    ]
    hotspots.sort(key=lambda h: (-h.self_s, h.name))
    return ProfileReport(hotspots=tuple(hotspots), runs=len(run_ids))


def render_hotspots(
    hotspots: Sequence[HotSpot],
    top: Optional[int] = None,
    runs: int = 1,
) -> str:
    """Aligned hotspot table, self-time ranked, with a share column."""
    if not hotspots:
        return "profile: (no spans recorded)"
    total_self = sum(h.self_s for h in hotspots) or 1.0
    shown = list(hotspots[:top] if top else hotspots)
    wname = max(len("span"), max(len(h.name) for h in shown))
    header = (
        f"  {'span':<{wname}}  {'calls':>7}  {'total ms':>10}  "
        f"{'self ms':>10}  {'self/call us':>12}  {'self %':>6}"
    )
    window = f" over {runs} runs" if runs > 1 else ""
    lines = [f"profile{window}: self-time by span name", header]
    for h in shown:
        lines.append(
            f"  {h.name:<{wname}}  {h.count:>7}  {h.total_s * 1e3:>10.3f}  "
            f"{h.self_s * 1e3:>10.3f}  {h.self_per_call_s * 1e6:>12.1f}  "
            f"{100.0 * h.self_s / total_self:>6.1f}"
        )
    hidden = len(hotspots) - len(shown)
    if hidden > 0:
        rest = sum(h.self_s for h in hotspots[len(shown):])
        lines.append(
            f"  ... {hidden} more span name(s), {rest * 1e3:.3f} ms self"
        )
    return "\n".join(lines)


def folded_stacks(roots: Iterable[Span]) -> str:
    """Folded-stack lines: ``a;b;c <self_us>``, aggregated per path.

    The weight is integer microseconds of self time (flamegraph tools
    treat the trailing number as a sample count); paths whose rounded
    weight is zero are dropped.  Lines are sorted for determinism.
    """
    weights: Dict[str, int] = {}

    def walk(span: Span, prefix: str) -> None:
        path = f"{prefix};{span.name}" if prefix else span.name
        us = int(round(span_self_time(span) * 1e6))
        if us > 0:
            weights[path] = weights.get(path, 0) + us
        for child in span.children:
            walk(child, path)

    for root in roots:
        walk(root, "")
    lines = [f"{path} {us}" for path, us in sorted(weights.items())]
    return "\n".join(lines) + ("\n" if lines else "")
