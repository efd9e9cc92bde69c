"""Cross-run regression detection over the telemetry warehouse.

Compares one run's measurements (the flat namespace of
:meth:`~repro.obs.store.TelemetryStore.measurements`) against a rolling
baseline: the last *N* earlier runs with the same entrypoint, config
hash, and git-dirty status.  The baseline statistic is **median + MAD**
(median absolute deviation), not mean + stddev, because perf histories
are exactly the data that breaks the latter: one loaded-CI outlier in
the window inflates a stddev enough to mask a real regression (or a
slow-run outlier drags the mean up and *everything* looks fine).  The
median ignores the outlier; the MAD scales the noise band robustly.

Each watched metric declares its direction and tolerance in a
:class:`MetricSpec`; a run regresses on a metric when its value crosses

    threshold = max(tolerance * |median|, MAD_SIGMAS * 1.4826 * MAD, floor)

in the *bad* direction (1.4826 converts a MAD into a Gaussian-sigma
equivalent).  Defaults are deliberately generous — CI boxes are noisy,
and the regressions worth gating on (the pool running at 0.75x of
serial, say) are way outside a 50% band — so a ``obs diff`` failure
means something real moved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError
from repro.obs.store import RunRecord, TelemetryStore

__all__ = [
    "DEFAULT_SPECS",
    "DEFAULT_WINDOW",
    "MAD_SIGMAS",
    "DiffEntry",
    "DiffReport",
    "MetricSpec",
    "diff_run",
]

#: Rolling-baseline window: how many earlier same-config runs to compare
#: against.
DEFAULT_WINDOW = 10

#: How many (Gaussian-equivalent) MADs of history noise a value may move
#: before the relative tolerance alone decides.
MAD_SIGMAS = 3.0

#: MAD -> sigma-equivalent scale factor for normally distributed noise.
_MAD_TO_SIGMA = 1.4826


@dataclass(frozen=True)
class MetricSpec:
    """What to watch, which way is bad, and how much slack to allow.

    ``direction``:

    * ``"lower"`` — lower is better (durations, failure counts): a rise
      beyond the threshold is a regression;
    * ``"higher"`` — higher is better (speedups, throughput): a drop is;
    * ``"equal"`` — any drift beyond the threshold is (determinism
      checks, e.g. a point count that must not change).

    ``tolerance`` is relative to the baseline median; ``floor`` is the
    absolute change below which drift is never flagged (keeps
    microsecond jitter on tiny spans from tripping a relative bound);
    ``min_runs`` is the least baseline runs carrying the metric before
    a verdict is attempted (below it the metric reports ``skipped``).
    """

    name: str
    direction: str = "lower"
    tolerance: float = 0.5
    floor: float = 0.0
    min_runs: int = 1

    def __post_init__(self) -> None:
        if self.direction not in ("lower", "higher", "equal"):
            raise ObservabilityError(
                f"metric spec '{self.name}': direction must be "
                f"lower/higher/equal, got {self.direction!r}"
            )
        if self.tolerance < 0 or self.floor < 0 or self.min_runs < 1:
            raise ObservabilityError(
                f"metric spec '{self.name}': tolerance/floor must be >= 0 "
                f"and min_runs >= 1"
            )


#: What ``obs diff`` watches out of the box.  Span totals cover the
#: pipeline's wall time, counters cover correctness-adjacent events
#: (failures must not creep in), gates cover the bench_smoke numbers.
#: Tolerances are wide on purpose; see the module docstring.
DEFAULT_SPECS: Tuple[MetricSpec, ...] = (
    MetricSpec("span.run_study.total_s", "lower", 0.75, floor=0.05),
    MetricSpec("span.simulate.total_s", "lower", 0.75, floor=0.05),
    MetricSpec("span.exec.parallel_map.total_s", "lower", 0.75, floor=0.05),
    MetricSpec("span.tune.search.total_s", "lower", 0.75, floor=0.05),
    MetricSpec("run.duration_s", "lower", 0.75, floor=0.25),
    MetricSpec("counter.simulate.calls", "equal", 0.0),
    MetricSpec("counter.study.points", "equal", 0.0),
    MetricSpec("counter.exec.failed_points", "lower", 0.0),
    MetricSpec("counter.simulate.invariant_violations", "lower", 0.0),
    MetricSpec("run.failed_points", "lower", 0.0),
    MetricSpec("gate.cachesim.speedup", "higher", 0.5, floor=1.0),
    # Batch engine: throughput must stay >= 100x the scalar oracle at
    # the 100k-point scale.
    MetricSpec("gate.batch.speedup_vs_serial", "higher", 0.5, floor=100.0),
    MetricSpec("gate.batch.points_per_s_100k", "higher", 0.5, floor=1000.0),
    MetricSpec("gate.batch.points_per_s_90", "higher", 0.5, floor=50.0),
    # Serving layer: request RTT through the service must not balloon
    # (the cold path carries poll latency, hence the wide floor), dedup
    # answers must stay near-free and complete, and job errors must not
    # creep into a served session.
    MetricSpec("gate.serve.rtt_p95_ms", "lower", 0.75, floor=250.0),
    MetricSpec("gate.serve.dedup_rtt_p95_ms", "lower", 0.75, floor=50.0),
    MetricSpec("gate.serve.dedup_hits", "equal", 0.0),
    MetricSpec("span.serve.request.total_s", "lower", 0.75, floor=0.1),
    MetricSpec("counter.serve.job_errors", "lower", 0.0),
    # Crash-safe serving: the chaos drill's deterministic sessions must
    # replay/kill/quarantine exactly the same jobs every time, and a
    # recovered ``done`` job must never lose its result across restarts.
    MetricSpec("counter.serve.recovery.replayed_jobs", "equal", 0.0),
    MetricSpec("counter.serve.recovery.lost_results", "lower", 0.0),
    MetricSpec("counter.serve.recovery.unrecoverable", "lower", 0.0),
    MetricSpec("counter.serve.supervisor.deadline_kills", "equal", 0.0),
    MetricSpec("counter.serve.supervisor.quarantined", "equal", 0.0),
)


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def median_mad(values: Sequence[float]) -> Tuple[float, float]:
    """(median, median-absolute-deviation) of a non-empty series."""
    if not values:
        raise ObservabilityError("median of an empty series")
    med = _median(values)
    return med, _median([abs(v - med) for v in values])


@dataclass(frozen=True)
class DiffEntry:
    """Verdict for one watched metric."""

    metric: str
    status: str  # "ok" | "improved" | "regression" | "skipped"
    current: Optional[float]
    baseline_median: Optional[float]
    baseline_mad: Optional[float]
    threshold: Optional[float]
    window: int  # baseline runs that carried this metric
    note: str = ""

    @property
    def delta(self) -> Optional[float]:
        if self.current is None or self.baseline_median is None:
            return None
        return self.current - self.baseline_median


@dataclass(frozen=True)
class DiffReport:
    """The full ``obs diff`` verdict for one run."""

    run: RunRecord
    baseline: Tuple[RunRecord, ...]
    entries: Tuple[DiffEntry, ...]

    @property
    def regressions(self) -> List[DiffEntry]:
        return [e for e in self.entries if e.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    @property
    def checked(self) -> List[DiffEntry]:
        return [e for e in self.entries if e.status != "skipped"]

    def render(self) -> str:
        lines = [
            f"obs diff: {self.run.describe()}",
            f"baseline: {len(self.baseline)} run(s) "
            f"(same entrypoint/config/dirty state)",
        ]
        rows = []
        for e in self.entries:
            cur = "n/a" if e.current is None else f"{e.current:.6g}"
            base = (
                "n/a" if e.baseline_median is None
                else f"{e.baseline_median:.6g}"
            )
            mad = "" if not e.baseline_mad else f" ±{e.baseline_mad:.3g}"
            note = f"  ({e.note})" if e.note else ""
            rows.append(
                (e.metric, e.status.upper(), cur, f"{base}{mad}", note)
            )
        if rows:
            wm = max(len(r[0]) for r in rows)
            ws = max(len(r[1]) for r in rows)
            wc = max(len(r[2]) for r in rows)
            for metric, status, cur, base, note in rows:
                lines.append(
                    f"  {metric:<{wm}}  {status:<{ws}}  "
                    f"{cur:>{wc}}  vs {base}{note}"
                )
        n_reg = len(self.regressions)
        n_checked = len(self.checked)
        n_skipped = len(self.entries) - n_checked
        if n_reg:
            lines.append(
                f"verdict: REGRESSION — {n_reg} of {n_checked} checked "
                f"metric(s) regressed ({n_skipped} skipped)"
            )
        else:
            lines.append(
                f"verdict: OK — {n_checked} metric(s) within tolerance "
                f"({n_skipped} skipped)"
            )
        return "\n".join(lines)


def _judge(
    spec: MetricSpec,
    current: float,
    history: Sequence[float],
) -> DiffEntry:
    med, mad = median_mad(history)
    threshold = max(
        spec.tolerance * abs(med),
        MAD_SIGMAS * _MAD_TO_SIGMA * mad,
        spec.floor,
    )
    delta = current - med
    status = "ok"
    note = ""
    if spec.direction == "lower":
        if delta > threshold:
            status, note = "regression", f"+{delta:.3g} > {threshold:.3g}"
        elif delta < -threshold:
            status, note = "improved", f"{delta:.3g}"
    elif spec.direction == "higher":
        if delta < -threshold:
            status, note = "regression", f"{delta:.3g} < -{threshold:.3g}"
        elif delta > threshold:
            status, note = "improved", f"+{delta:.3g}"
    else:  # equal
        if abs(delta) > threshold:
            status, note = (
                "regression", f"|{delta:.3g}| > {threshold:.3g}"
            )
    return DiffEntry(
        metric=spec.name,
        status=status,
        current=current,
        baseline_median=med,
        baseline_mad=mad,
        threshold=threshold,
        window=len(history),
        note=note,
    )


def diff_run(
    store: TelemetryStore,
    run_id: Optional[int] = None,
    specs: Sequence[MetricSpec] = DEFAULT_SPECS,
    window: int = DEFAULT_WINDOW,
) -> DiffReport:
    """Judge one run (default: the latest) against its rolling baseline.

    Metrics a run does not carry, and metrics with fewer than
    ``spec.min_runs`` baseline observations, report ``skipped`` — a
    fresh database or a new instrumentation point must never fail the
    gate just for being new.
    """
    run = store.run(run_id) if run_id is not None else store.latest_run()
    if run is None:
        raise ObservabilityError(
            f"telemetry database {store.path} has no runs to diff"
        )
    baseline = store.baseline_runs(run, window)
    current = store.measurements(run.run_id)
    baseline_values: Dict[int, Dict[str, float]] = {
        b.run_id: store.measurements(b.run_id) for b in baseline
    }
    entries: List[DiffEntry] = []
    for spec in specs:
        value = current.get(spec.name)
        history = [
            m[spec.name] for m in baseline_values.values() if spec.name in m
        ]
        if value is None:
            entries.append(
                DiffEntry(
                    metric=spec.name, status="skipped", current=None,
                    baseline_median=None, baseline_mad=None, threshold=None,
                    window=len(history), note="not measured in this run",
                )
            )
            continue
        if len(history) < spec.min_runs:
            entries.append(
                DiffEntry(
                    metric=spec.name, status="skipped", current=value,
                    baseline_median=None, baseline_mad=None, threshold=None,
                    window=len(history),
                    note=f"insufficient history ({len(history)} < "
                    f"{spec.min_runs} baseline runs)",
                )
            )
            continue
        entries.append(_judge(spec, value, history))
    return DiffReport(run=run, baseline=tuple(baseline), entries=tuple(entries))
