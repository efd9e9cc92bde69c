"""Persistent telemetry warehouse: every instrumented run, queryable.

The tracer and registry are amnesiac — a process exits and its spans,
counters, and bench numbers evaporate.  The :class:`TelemetryStore`
gives the pipeline longitudinal memory, and it is the repo's only
perf-history database: a schema-versioned SQLite database
(stdlib ``sqlite3``, zero new dependencies) that every instrumented
entrypoint appends one *run record* to:

* **runs** — run id, entrypoint, git revision + dirty flag, config
  hash, UTC timestamp, wall duration, failed-point count, free-form
  JSON extra;
* **spans** — the flattened span tree of the run (ids link children to
  parents, worker pids preserved), rebuildable via
  :func:`~repro.obs.export.spans_from_dicts`;
* **metrics** — the counter/gauge/histogram snapshot (histograms carry
  their p50/p95 summary);
* **gates** — named bench-gate results (value + pass/fail), e.g. the
  cachesim and batch gates ``scripts/bench_smoke.py`` records.

On top of this sit the regression detector (:mod:`repro.obs.regress`),
the span profiler (:mod:`repro.obs.profile`), and the CLI's
``obs diff`` / ``obs trend`` / ``obs profile`` subcommands.

Schema evolution is deliberate: the version lives in ``PRAGMA
user_version`` and a mismatch is *rejected loudly* — cross-run
comparisons against rows written by an incompatible schema generation
would be silently wrong, which is worse than asking for a fresh
database.
"""

from __future__ import annotations

import json
import os
import sqlite3
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import lru_cache
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.dbfile import open_versioned_db
from repro.errors import ObservabilityError
from repro.obs.export import span_to_dict, spans_from_dicts
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.trace import Span, Tracer, get_tracer

__all__ = [
    "STORE_SCHEMA_VERSION",
    "TELEMETRY_DB_ENV",
    "GateResult",
    "RunRecord",
    "TelemetryStore",
    "git_state",
    "package_git_state",
    "resolve_db_path",
]

#: Version of the warehouse schema.  Bump whenever a table or column
#: changes meaning; old databases are rejected, never silently migrated.
STORE_SCHEMA_VERSION = 1

#: Environment variable supplying a database path when no ``--telemetry-db``
#: argument is given (empty/unset = telemetry off).
TELEMETRY_DB_ENV = "REPRO_TELEMETRY_DB"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id        INTEGER PRIMARY KEY AUTOINCREMENT,
    entrypoint    TEXT NOT NULL,
    git_rev       TEXT NOT NULL,
    git_dirty     INTEGER NOT NULL,
    config_hash   TEXT NOT NULL,
    created_utc   TEXT NOT NULL,
    duration_s    REAL,
    failed_points INTEGER NOT NULL DEFAULT 0,
    extra         TEXT
);
CREATE TABLE IF NOT EXISTS spans (
    run_id    INTEGER NOT NULL REFERENCES runs(run_id),
    span_id   INTEGER NOT NULL,
    parent_id INTEGER,
    name      TEXT NOT NULL,
    t_start   REAL NOT NULL,
    t_end     REAL,
    dur_s     REAL NOT NULL,
    pid       INTEGER NOT NULL,
    thread    INTEGER NOT NULL,
    attrs     TEXT
);
CREATE TABLE IF NOT EXISTS metrics (
    run_id INTEGER NOT NULL REFERENCES runs(run_id),
    name   TEXT NOT NULL,
    kind   TEXT NOT NULL,
    value  REAL NOT NULL,
    detail TEXT
);
CREATE TABLE IF NOT EXISTS gates (
    run_id INTEGER NOT NULL REFERENCES runs(run_id),
    name   TEXT NOT NULL,
    value  REAL NOT NULL,
    passed INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_runs_identity
    ON runs (entrypoint, config_hash, git_dirty, run_id);
CREATE INDEX IF NOT EXISTS idx_spans_run ON spans (run_id, name);
CREATE INDEX IF NOT EXISTS idx_metrics_run ON metrics (run_id, name);
CREATE INDEX IF NOT EXISTS idx_gates_run ON gates (run_id, name);
"""


def resolve_db_path(path: Optional[str] = None) -> Optional[str]:
    """``None`` falls back to ``$REPRO_TELEMETRY_DB`` (empty = off)."""
    if path is not None:
        return path or None
    return os.environ.get(TELEMETRY_DB_ENV) or None


def git_state(cwd: Optional[str] = None) -> Tuple[str, bool]:
    """(revision, dirty) of the working tree, or ("unknown", False).

    Baselines are partitioned by dirty status: numbers measured on an
    uncommitted tree must never gate numbers measured on a clean one.
    """
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, cwd=cwd,
        )
        if rev.returncode != 0:
            return ("unknown", False)
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, timeout=10, cwd=cwd,
        )
        dirty = status.returncode == 0 and bool(status.stdout.strip())
        return (rev.stdout.strip(), dirty)
    except (OSError, subprocess.SubprocessError):
        return ("unknown", False)


@lru_cache(maxsize=1)
def package_git_state() -> Tuple[str, bool]:
    """:func:`git_state` of the checkout this package runs from.

    Probed once per process (two ``git`` subprocesses) from the
    package's own directory, so the process's working directory does
    not matter; ``("unknown", False)`` outside a checkout.  A
    long-running process keeps the state it first saw.
    """
    return git_state(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True)
class GateResult:
    """One named bench-gate outcome (e.g. ``cachesim.speedup`` = 8.0, pass)."""

    name: str
    value: float
    passed: bool


@dataclass(frozen=True)
class RunRecord:
    """One row of the ``runs`` table."""

    run_id: int
    entrypoint: str
    git_rev: str
    git_dirty: bool
    config_hash: str
    created_utc: str
    duration_s: Optional[float]
    failed_points: int
    extra: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        dirty = "+dirty" if self.git_dirty else ""
        return (
            f"run {self.run_id} [{self.entrypoint}] "
            f"{self.git_rev[:10]}{dirty} cfg={self.config_hash[:10]} "
            f"at {self.created_utc}"
        )


GateSpec = Union[GateResult, Tuple[float, bool]]


def _json(value: Any) -> str:
    return json.dumps(value, sort_keys=True, default=str)


class TelemetryStore:
    """Append-and-query interface over one telemetry database file.

    ``create=False`` refuses to materialise a missing file — the query
    subcommands (``obs diff``/``trend``/``profile``) use it so a typo'd
    path reads as "no such database", not as an empty history.
    """

    def __init__(self, path: str, create: bool = True) -> None:
        self.path = path
        self._conn = open_versioned_db(
            path, _SCHEMA, STORE_SCHEMA_VERSION, ObservabilityError,
            "telemetry database", create=create,
        )

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "TelemetryStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ---- recording ---------------------------------------------------------
    def record_run(
        self,
        entrypoint: str,
        *,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
        roots: Optional[Sequence[Span]] = None,
        config_hash: str = "",
        duration_s: Optional[float] = None,
        failed_points: Optional[int] = None,
        gates: Optional[Mapping[str, GateSpec]] = None,
        extra: Optional[Mapping[str, Any]] = None,
        git_rev: Optional[str] = None,
        git_dirty: Optional[bool] = None,
    ) -> int:
        """Append one run record; returns its ``run_id``.

        Spans come from ``roots`` when given, else the ``tracer``
        (default: the global one); metrics from ``registry`` (default:
        the global one).  ``git_rev``/``git_dirty`` default to
        :func:`package_git_state`, the checkout this package runs from,
        probed once per process — pass them explicitly in tests to skip
        the subprocess.  ``failed_points`` defaults to the registry's
        ``exec.failed_points`` counter.
        """
        if roots is None:
            roots = (tracer or get_tracer()).roots()
        registry = registry or get_registry()
        if git_rev is None or git_dirty is None:
            probed_rev, probed_dirty = package_git_state()
            git_rev = probed_rev if git_rev is None else git_rev
            git_dirty = probed_dirty if git_dirty is None else git_dirty
        if failed_points is None:
            failed_points = self._counter_or_zero(
                registry, "exec.failed_points"
            )
        created = datetime.now(timezone.utc).isoformat(timespec="seconds")
        with self._conn:
            cur = self._conn.execute(
                "INSERT INTO runs (entrypoint, git_rev, git_dirty, "
                "config_hash, created_utc, duration_s, failed_points, extra) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    entrypoint, git_rev, int(bool(git_dirty)), config_hash,
                    created, duration_s, failed_points,
                    _json(dict(extra)) if extra else None,
                ),
            )
            run_id = int(cur.lastrowid or 0)
            self._insert_spans(run_id, roots)
            self._insert_metrics(run_id, registry)
            if gates:
                self._insert_gates(run_id, gates)
        return run_id

    @staticmethod
    def _counter_or_zero(registry: MetricsRegistry, name: str) -> int:
        try:
            metric = registry.get(name)
        except ObservabilityError:
            return 0
        return metric.value if isinstance(metric, Counter) else 0

    def _insert_spans(self, run_id: int, roots: Iterable[Span]) -> None:
        rows = []
        for root in roots:
            for s in root.walk():
                rec = span_to_dict(s)
                rows.append(
                    (
                        run_id, rec["id"], rec["parent_id"], rec["name"],
                        rec["t_start"], rec["t_end"], s.duration_s,
                        rec["pid"], rec["thread"],
                        _json(rec["attrs"]) if rec["attrs"] else None,
                    )
                )
        if rows:
            self._conn.executemany(
                "INSERT INTO spans (run_id, span_id, parent_id, name, "
                "t_start, t_end, dur_s, pid, thread, attrs) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )

    def _insert_metrics(self, run_id: int, registry: MetricsRegistry) -> None:
        rows = []
        for name in registry.names():
            metric = registry.get(name)
            if isinstance(metric, Counter):
                rows.append((run_id, name, "counter", float(metric.value), None))
            elif isinstance(metric, Gauge):
                rows.append((run_id, name, "gauge", metric.value, None))
            elif isinstance(metric, Histogram):
                summary = metric.summary()
                rows.append(
                    (run_id, name, "histogram", summary["mean"],
                     _json(summary))
                )
        if rows:
            self._conn.executemany(
                "INSERT INTO metrics (run_id, name, kind, value, detail) "
                "VALUES (?, ?, ?, ?, ?)",
                rows,
            )

    def _insert_gates(
        self, run_id: int, gates: Mapping[str, GateSpec]
    ) -> None:
        rows = []
        for name, spec in gates.items():
            if isinstance(spec, GateResult):
                value, passed = spec.value, spec.passed
            else:
                value, passed = spec
            rows.append((run_id, name, float(value), int(bool(passed))))
        self._conn.executemany(
            "INSERT INTO gates (run_id, name, value, passed) "
            "VALUES (?, ?, ?, ?)",
            rows,
        )

    # ---- querying ----------------------------------------------------------
    @staticmethod
    def _run_from_row(row: sqlite3.Row) -> RunRecord:
        return RunRecord(
            run_id=row["run_id"],
            entrypoint=row["entrypoint"],
            git_rev=row["git_rev"],
            git_dirty=bool(row["git_dirty"]),
            config_hash=row["config_hash"],
            created_utc=row["created_utc"],
            duration_s=row["duration_s"],
            failed_points=row["failed_points"],
            extra=json.loads(row["extra"]) if row["extra"] else {},
        )

    def runs(
        self,
        entrypoint: Optional[str] = None,
        config_hash: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[RunRecord]:
        """Run records, oldest first, optionally filtered."""
        clauses: List[str] = []
        params: List[Any] = []
        if entrypoint is not None:
            clauses.append("entrypoint = ?")
            params.append(entrypoint)
        if config_hash is not None:
            clauses.append("config_hash = ?")
            params.append(config_hash)
        sql = "SELECT * FROM runs"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY run_id"
        rows = self._conn.execute(sql, params).fetchall()
        if limit is not None:
            rows = rows[-limit:]
        return [self._run_from_row(r) for r in rows]

    def run(self, run_id: int) -> RunRecord:
        row = self._conn.execute(
            "SELECT * FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        if row is None:
            raise ObservabilityError(
                f"no run {run_id} in telemetry database {self.path}"
            )
        return self._run_from_row(row)

    def latest_run(self) -> Optional[RunRecord]:
        row = self._conn.execute(
            "SELECT * FROM runs ORDER BY run_id DESC LIMIT 1"
        ).fetchone()
        return self._run_from_row(row) if row else None

    def baseline_runs(self, run: RunRecord, limit: int) -> List[RunRecord]:
        """The rolling baseline window for ``run``: the last ``limit``
        earlier runs with the same entrypoint, config hash, and
        git-dirty status (apples to apples, newest-but-one backwards)."""
        rows = self._conn.execute(
            "SELECT * FROM runs WHERE entrypoint = ? AND config_hash = ? "
            "AND git_dirty = ? AND run_id < ? ORDER BY run_id DESC LIMIT ?",
            (
                run.entrypoint, run.config_hash, int(run.git_dirty),
                run.run_id, limit,
            ),
        ).fetchall()
        return [self._run_from_row(r) for r in reversed(rows)]

    def span_records(self, run_id: int) -> List[Dict[str, Any]]:
        """Flat span dicts of one run (``spans_from_dicts`` shape)."""
        rows = self._conn.execute(
            "SELECT * FROM spans WHERE run_id = ? ORDER BY rowid", (run_id,)
        ).fetchall()
        return [
            {
                "name": r["name"],
                "id": r["span_id"],
                "parent_id": r["parent_id"],
                "thread": r["thread"],
                "pid": r["pid"],
                "t_start": r["t_start"],
                "t_end": r["t_end"],
                "attrs": json.loads(r["attrs"]) if r["attrs"] else {},
            }
            for r in rows
        ]

    def span_roots(self, run_id: int) -> List[Span]:
        """The run's span trees, rebuilt from the flat records."""
        return spans_from_dicts(self.span_records(run_id))

    def span_totals(self, run_id: int) -> Dict[str, Tuple[int, float]]:
        """Span name -> (count, total duration seconds) for one run."""
        rows = self._conn.execute(
            "SELECT name, COUNT(*) AS n, SUM(dur_s) AS total FROM spans "
            "WHERE run_id = ? GROUP BY name",
            (run_id,),
        ).fetchall()
        return {r["name"]: (r["n"], r["total"] or 0.0) for r in rows}

    def gate_results(self, run_id: int) -> List[GateResult]:
        rows = self._conn.execute(
            "SELECT name, value, passed FROM gates WHERE run_id = ? "
            "ORDER BY name",
            (run_id,),
        ).fetchall()
        return [
            GateResult(r["name"], r["value"], bool(r["passed"])) for r in rows
        ]

    def measurements(self, run_id: int) -> Dict[str, float]:
        """Every comparable scalar of one run, under one flat namespace.

        * ``span.<name>.total_s`` / ``span.<name>.count`` — per-name
          span duration totals and counts;
        * ``counter.<name>`` / ``gauge.<name>`` — instrument values;
        * ``hist.<name>.{mean,p50,p95,count}`` — histogram summaries;
        * ``gate.<name>`` — bench-gate values;
        * ``run.duration_s`` / ``run.failed_points`` — run-level facts.

        This namespace is the contract the regression detector's
        :class:`~repro.obs.regress.MetricSpec` names refer to.
        """
        out: Dict[str, float] = {}
        run = self.run(run_id)
        if run.duration_s is not None:
            out["run.duration_s"] = run.duration_s
        out["run.failed_points"] = float(run.failed_points)
        for name, (count, total) in self.span_totals(run_id).items():
            out[f"span.{name}.total_s"] = total
            out[f"span.{name}.count"] = float(count)
        rows = self._conn.execute(
            "SELECT name, kind, value, detail FROM metrics WHERE run_id = ?",
            (run_id,),
        ).fetchall()
        for r in rows:
            if r["kind"] == "counter":
                out[f"counter.{r['name']}"] = r["value"]
            elif r["kind"] == "gauge":
                out[f"gauge.{r['name']}"] = r["value"]
            else:
                summary = json.loads(r["detail"]) if r["detail"] else {}
                for key in ("mean", "p50", "p95", "count"):
                    if key in summary:
                        out[f"hist.{r['name']}.{key}"] = float(summary[key])
        for gate in self.gate_results(run_id):
            out[f"gate.{gate.name}"] = gate.value
        return out

    def measurement_history(
        self,
        name: str,
        entrypoint: Optional[str] = None,
        config_hash: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Tuple[RunRecord, float]]:
        """(run, value) series for one measurement, oldest first.

        Runs that never produced the measurement are skipped, so the
        series is exactly the runs a trend plot should show.
        """
        pairs: List[Tuple[RunRecord, float]] = []
        for run in self.runs(entrypoint=entrypoint, config_hash=config_hash):
            value = self.measurements(run.run_id).get(name)
            if value is not None:
                pairs.append((run, value))
        if limit is not None:
            pairs = pairs[-limit:]
        return pairs

    def measurement_names(self, run_id: int) -> List[str]:
        return sorted(self.measurements(run_id))
