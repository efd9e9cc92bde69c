"""Schema-versioned SQLite result store: every study, queryable.

The :class:`ResultsStore` is the only on-disk form of a study: a
schema-versioned SQLite database (stdlib ``sqlite3``, opened through
:func:`repro.dbfile.open_versioned_db`) holding one row per matrix
point, appendable across runs and deduplicated by
:func:`~repro.harness.serialization.study_cache_key`.  It serves two
roles with one schema:

* the longitudinal history ``--results-db`` appends finished studies
  to (:meth:`ResultsStore.ingest_study`) and ``report`` renders from;
* the ``--cache-dir`` study cache (see
  :mod:`repro.harness.serialization`), where a complete ``studies`` row
  is a cache hit and an incomplete one is a sweep's checkpoint, grown
  point by point by :meth:`ResultsStore.merge_points`.

JSON (``dump_study``) and CSV (``write_csv``) stay as export formats.

Tables:

* **studies** — one row per ingested sweep configuration: config hash +
  row-schema version (the dedup identity), the full configuration
  (stencils/variants/domain/platform filter, JSON), completeness,
  provenance (source + git revision + UTC stamp);
* **points** — one row per successful matrix point, wide enough to
  reconstruct the full :class:`~repro.gpu.simulator.SimulationResult`
  *without pickle*: identity columns plus every
  :class:`~repro.gpu.traffic.Traffic`,
  :class:`~repro.gpu.timing.TimingBreakdown`, and
  :class:`~repro.codegen.cost.ProgramCost` field (floats round-trip
  exactly through SQLite REAL, which is IEEE-754 double);
* **failures** — the study's :class:`~repro.harness.experiments.FailedPoint`
  entries, so a degraded sweep reconstructs degraded.

Study results only: perf history (bench gate values, spans, counters)
lives in the telemetry warehouse, :mod:`repro.obs.store`.  A file from
an older library that also holds the former bench-gate tables still
opens: the open checks only that the tables above exist, and the extra
ones are never read.

Schema evolution is deliberate: the version lives in ``PRAGMA
user_version`` and a mismatch is rejected loudly — silently reading
rows written by an incompatible generation would corrupt every
comparison built on top.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sqlite3
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from repro.codegen.cost import ProgramCost
from repro.dbfile import open_versioned_db
from repro.errors import ResultStoreError
from repro.gpu.progmodel import Platform, platform
from repro.gpu.simulator import SimulationResult
from repro.gpu.timing import TimingBreakdown
from repro.gpu.traffic import Traffic
from repro.harness.experiments import (
    ExperimentConfig,
    FailedPoint,
    Key,
    StudyResults,
)
from repro.harness.serialization import SCHEMA_VERSION, study_cache_key
from repro.obs import counter
from repro.obs.store import git_state

__all__ = [
    "RESULTS_DB_ENV",
    "RESULTS_SCHEMA_VERSION",
    "IngestOutcome",
    "ResultsStore",
    "StudyRecord",
    "resolve_results_db",
]

#: Version of the result-store schema.  Bump whenever a table or column
#: changes meaning; old databases are rejected, never silently migrated.
#: Dropping a table needs no bump: opening checks only that the tables
#: declared here exist, so a file that keeps a dropped one still reads.
RESULTS_SCHEMA_VERSION = 1

#: Environment variable supplying a database path when no explicit one
#: is given (empty/unset = the store is off).
RESULTS_DB_ENV = "REPRO_RESULTS_DB"

#: Component dataclass fields persisted per point, in column order.
#: Kept in lockstep with the dataclasses by the asserts below: a field
#: added to the model without a schema bump fails at import, not at
#: read time with silently-wrong reconstructions.
TRAFFIC_FIELDS: Tuple[str, ...] = (
    "hbm_read_bytes", "hbm_write_bytes", "l1_bytes",
    "load_sectors", "store_sectors", "reuse_miss_bytes",
)
TIMING_FIELDS: Tuple[str, ...] = (
    "t_hbm", "t_l1", "t_fp", "t_shuffle", "t_issue",
    "launch_overhead", "occupancy",
)
COST_FIELDS: Tuple[str, ...] = (
    "tile_points", "vl", "loads_aligned", "loads_halo", "loads_unaligned",
    "shuffles", "adds", "macs", "stores", "registers", "halo_lanes",
)

for _cls, _fields in (
    (Traffic, TRAFFIC_FIELDS),
    (TimingBreakdown, TIMING_FIELDS),
    (ProgramCost, COST_FIELDS),
):
    assert tuple(f.name for f in dataclasses.fields(_cls)) == _fields, (
        f"{_cls.__name__} fields drifted from the result-store schema; "
        f"bump RESULTS_SCHEMA_VERSION and update the column list"
    )


def _columns(fields: Tuple[str, ...], affinity: str) -> str:
    return ",\n    ".join(f"{name} {affinity} NOT NULL" for name in fields)


_SCHEMA = f"""
CREATE TABLE IF NOT EXISTS studies (
    study_id        INTEGER PRIMARY KEY AUTOINCREMENT,
    config_hash     TEXT NOT NULL,
    schema_version  INTEGER NOT NULL,
    stencils        TEXT NOT NULL,
    variants        TEXT NOT NULL,
    domain          TEXT NOT NULL,
    platform_filter TEXT NOT NULL,
    complete        INTEGER NOT NULL,
    source          TEXT NOT NULL,
    git_rev         TEXT NOT NULL,
    created_utc     TEXT NOT NULL,
    UNIQUE (config_hash, schema_version)
);
CREATE TABLE IF NOT EXISTS points (
    study_id INTEGER NOT NULL REFERENCES studies(study_id),
    stencil  TEXT NOT NULL,
    platform TEXT NOT NULL,
    variant  TEXT NOT NULL,
    strategy TEXT NOT NULL,
    flops    INTEGER NOT NULL,
    {_columns(TRAFFIC_FIELDS, "REAL")},
    {_columns(TIMING_FIELDS, "REAL")},
    {_columns(COST_FIELDS, "INTEGER")},
    PRIMARY KEY (study_id, stencil, platform, variant)
);
CREATE TABLE IF NOT EXISTS failures (
    study_id   INTEGER NOT NULL REFERENCES studies(study_id),
    stencil    TEXT NOT NULL,
    platform   TEXT NOT NULL,
    variant    TEXT NOT NULL,
    error_type TEXT NOT NULL,
    message    TEXT NOT NULL,
    attempts   INTEGER NOT NULL,
    timed_out  INTEGER NOT NULL,
    PRIMARY KEY (study_id, stencil, platform, variant)
);
CREATE INDEX IF NOT EXISTS idx_points_study ON points (study_id);
CREATE INDEX IF NOT EXISTS idx_failures_study ON failures (study_id);
"""


def resolve_results_db(path: Optional[str] = None) -> Optional[str]:
    """``None`` falls back to ``$REPRO_RESULTS_DB`` (empty = off)."""
    if path is not None:
        return path or None
    return os.environ.get(RESULTS_DB_ENV) or None


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _config_columns(config: ExperimentConfig) -> Tuple[str, str, str, str]:
    """The ``studies`` columns (stencils, variants, domain, filter), as JSON."""
    return (
        json.dumps(list(config.stencils)),
        json.dumps(list(config.variants)),
        json.dumps(list(config.domain)),
        json.dumps(list(config.platform_filter)),
    )


@dataclass(frozen=True)
class StudyRecord:
    """One row of the ``studies`` table."""

    study_id: int
    config_hash: str
    schema_version: int
    config: ExperimentConfig
    complete: bool
    source: str
    git_rev: str
    created_utc: str

    def describe(self) -> str:
        state = "complete" if self.complete else "degraded"
        return (
            f"study {self.study_id} cfg={self.config_hash[:10]} "
            f"({state}, via {self.source} at {self.created_utc})"
        )


@dataclass(frozen=True)
class IngestOutcome:
    """What one :meth:`ResultsStore.ingest_study` call did.

    ``dedup`` — an identical-or-better study was already stored, the
    call was a no-op; ``replaced`` — a previously degraded study was
    superseded by one with more completed points.
    """

    study_id: int
    points: int
    failures: int
    dedup: bool
    replaced: bool


class ResultsStore:
    """Append-and-query interface over one result database file.

    ``create=False`` refuses to materialise a missing file — read-side
    consumers (the report generator pointed at a typo'd path) must see
    "no such database", not an empty history.
    """

    def __init__(self, path: str, create: bool = True) -> None:
        self.path = path
        self._conn = open_versioned_db(
            path, _SCHEMA, RESULTS_SCHEMA_VERSION, ResultStoreError,
            "result database", create=create,
        )

    @contextmanager
    def _transaction(self) -> Iterator[None]:
        """One write transaction; SQLite failures surface typed."""
        try:
            with self._conn:
                yield
        except sqlite3.Error as exc:
            raise ResultStoreError(
                f"cannot write result database {self.path}: {exc}"
            ) from exc

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ---- ingestion ---------------------------------------------------------
    def ingest_study(
        self,
        study: StudyResults,
        source: str = "api",
        git_rev: Optional[str] = None,
    ) -> IngestOutcome:
        """Append one study; idempotent per sweep configuration.

        The dedup identity is (``study_cache_key(config)``, row-schema
        version) — a second ingest of the same config is a no-op.  The
        one exception is *improvement*: a stored degraded study is
        replaced when the new one completed strictly more points (the
        resumed run superseding the interrupted one).  Counted as
        ``results.ingests`` / ``results.dedup_hits`` /
        ``results.replaced``.
        """
        key = study_cache_key(study.config)
        with self._transaction():
            row = self._conn.execute(
                "SELECT study_id, "
                "(SELECT COUNT(*) FROM points WHERE study_id = s.study_id) "
                "AS npoints FROM studies s WHERE config_hash = ? AND "
                "schema_version = ?",
                (key, SCHEMA_VERSION),
            ).fetchone()
            if row is not None and len(study.results) <= row["npoints"]:
                counter("results.dedup_hits").inc()
                return IngestOutcome(
                    study_id=row["study_id"],
                    points=row["npoints"],
                    failures=0,
                    dedup=True,
                    replaced=False,
                )
            if git_rev is None:
                # Two ``git`` subprocesses: paid only when a row is written.
                git_rev = git_state()[0]
            replaced = row is not None
            if replaced:
                # The stored study is strictly worse (a degraded run
                # this one resumed past): supersede it.
                self._delete_rows(row["study_id"])
            cur = self._conn.execute(
                "INSERT INTO studies (config_hash, schema_version, stencils, "
                "variants, domain, platform_filter, complete, source, "
                "git_rev, created_utc) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    key, SCHEMA_VERSION, *_config_columns(study.config),
                    int(study.complete), source, git_rev, _utc_now(),
                ),
            )
            study_id = int(cur.lastrowid or 0)
            self._insert_points(study_id, study.results.values())
            self._insert_failures(study_id, study.failed.values())
        counter("results.ingests").inc()
        counter("results.points_ingested").inc(len(study.results))
        if replaced:
            counter("results.replaced").inc()
        return IngestOutcome(
            study_id=study_id,
            points=len(study.results),
            failures=len(study.failed),
            dedup=False,
            replaced=replaced,
        )

    def merge_points(
        self,
        config: ExperimentConfig,
        entries: Mapping[Key, Union[SimulationResult, FailedPoint]],
    ) -> bool:
        """Fold a slice of one sweep into its stored study, in one transaction.

        This is the checkpoint write of the ``--cache-dir`` study cache.
        The study's row is created, incomplete, by the first call.
        Points upsert on their ``(study_id, stencil, platform, variant)``
        key, so two writers of one config merge their slices instead of
        one regressing the other.  A stored success clears that point's
        failure, and a failure never shadows a success.  The row turns
        complete once every matrix point has a success; the return value
        says whether it has.  The row records source ``cache`` and git
        revision ``unknown``: :func:`~repro.obs.store.git_state` runs two
        ``git`` subprocesses, too slow for a per-flush write.
        """
        key = study_cache_key(config)
        with self._transaction():
            self._conn.execute(
                "INSERT OR IGNORE INTO studies (config_hash, schema_version, "
                "stencils, variants, domain, platform_filter, complete, "
                "source, git_rev, created_utc) "
                "VALUES (?, ?, ?, ?, ?, ?, 0, 'cache', 'unknown', ?)",
                (key, SCHEMA_VERSION, *_config_columns(config), _utc_now()),
            )
            study_id = self._conn.execute(
                "SELECT study_id FROM studies WHERE config_hash = ? AND "
                "schema_version = ?",
                (key, SCHEMA_VERSION),
            ).fetchone()[0]
            values = entries.values()
            self._insert_points(
                study_id, (v for v in values if isinstance(v, SimulationResult))
            )
            self._insert_failures(
                study_id, (v for v in values if isinstance(v, FailedPoint))
            )
            self._conn.execute(
                "DELETE FROM failures WHERE study_id = ? AND EXISTS ("
                "SELECT 1 FROM points p WHERE p.study_id = failures.study_id "
                "AND p.stencil = failures.stencil "
                "AND p.platform = failures.platform "
                "AND p.variant = failures.variant)",
                (study_id,),
            )
            npoints = self._conn.execute(
                "SELECT COUNT(*) FROM points WHERE study_id = ?", (study_id,)
            ).fetchone()[0]
            complete = npoints == len(config.keys())
            self._conn.execute(
                "UPDATE studies SET complete = ? WHERE study_id = ?",
                (int(complete), study_id),
            )
        return complete

    def delete_study(self, study_id: int) -> None:
        """Remove one study with its points and failures."""
        with self._transaction():
            self._delete_rows(study_id)

    def _delete_rows(self, study_id: int) -> None:
        for table in ("points", "failures", "studies"):
            self._conn.execute(
                f"DELETE FROM {table} WHERE study_id = ?", (study_id,)
            )

    def _insert_points(
        self, study_id: int, results: Iterable[SimulationResult]
    ) -> None:
        columns = (
            ("stencil", "platform", "variant", "strategy", "flops")
            + TRAFFIC_FIELDS + TIMING_FIELDS + COST_FIELDS
        )
        placeholders = ", ".join("?" for _ in range(len(columns) + 1))
        rows = []
        for r in results:
            values: List[Any] = [
                study_id, r.stencil_name, r.platform.name, r.variant,
                r.strategy, int(r.flops),
            ]
            values += [float(getattr(r.traffic, f)) for f in TRAFFIC_FIELDS]
            values += [float(getattr(r.timing, f)) for f in TIMING_FIELDS]
            values += [int(getattr(r.cost, f)) for f in COST_FIELDS]
            rows.append(tuple(values))
        if rows:
            self._conn.executemany(
                f"INSERT OR REPLACE INTO points (study_id, {', '.join(columns)}) "
                f"VALUES ({placeholders})",
                rows,
            )

    def _insert_failures(
        self, study_id: int, failures: Iterable[FailedPoint]
    ) -> None:
        rows = [
            (
                study_id, fp.stencil, fp.platform, fp.variant,
                fp.error_type, fp.message, fp.attempts, int(fp.timed_out),
            )
            for fp in failures
        ]
        if rows:
            self._conn.executemany(
                "INSERT OR REPLACE INTO failures (study_id, stencil, platform, "
                "variant, error_type, message, attempts, timed_out) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )

    # ---- querying ----------------------------------------------------------
    def _study_from_row(self, row: sqlite3.Row) -> StudyRecord:
        domain = json.loads(row["domain"])
        config = ExperimentConfig(
            stencils=tuple(json.loads(row["stencils"])),
            variants=tuple(json.loads(row["variants"])),
            domain=(domain[0], domain[1], domain[2]),
            platform_filter=tuple(json.loads(row["platform_filter"])),
        )
        return StudyRecord(
            study_id=row["study_id"],
            config_hash=row["config_hash"],
            schema_version=row["schema_version"],
            config=config,
            complete=bool(row["complete"]),
            source=row["source"],
            git_rev=row["git_rev"],
            created_utc=row["created_utc"],
        )

    def studies(self) -> List[StudyRecord]:
        """Every stored study, oldest first."""
        rows = self._conn.execute(
            "SELECT * FROM studies ORDER BY study_id"
        ).fetchall()
        return [self._study_from_row(r) for r in rows]

    def study_record(
        self, config: ExperimentConfig
    ) -> Optional[StudyRecord]:
        """The stored study for ``config``, or None."""
        row = self._conn.execute(
            "SELECT * FROM studies WHERE config_hash = ? AND "
            "schema_version = ?",
            (study_cache_key(config), SCHEMA_VERSION),
        ).fetchone()
        return self._study_from_row(row) if row else None

    def has_study(self, config: ExperimentConfig) -> bool:
        return self.study_record(config) is not None

    def load_study(
        self, config: ExperimentConfig
    ) -> Optional[StudyResults]:
        """Reconstruct the stored :class:`StudyResults` for ``config``.

        Returns ``None`` when no row matches (config hash + schema
        version).  The reconstruction is exact — every float passed
        through SQLite REAL (IEEE-754 double) unrounded, platforms
        rebuilt from the catalogue by name — so rendering from a
        reconstructed study is byte-identical to rendering from the
        in-memory original (the CI ``report`` gate enforces this).
        """
        record = self.study_record(config)
        if record is None:
            return None
        if record.config != config:
            raise ResultStoreError(
                f"study {record.study_id} hash-matches but stores a "
                f"different configuration ({record.config} != {config}); "
                f"the database is corrupt or hand-edited"
            )
        study = StudyResults(config=record.config)
        platforms = _platform_catalogue(record.config)
        for row in self._conn.execute(
            "SELECT * FROM points WHERE study_id = ? "
            "ORDER BY stencil, platform, variant",
            (record.study_id,),
        ).fetchall():
            result = self._result_from_row(row, record.config, platforms)
            key = (row["stencil"], row["platform"], row["variant"])
            study.results[key] = result
        for row in self._conn.execute(
            "SELECT * FROM failures WHERE study_id = ? "
            "ORDER BY stencil, platform, variant",
            (record.study_id,),
        ).fetchall():
            key = (row["stencil"], row["platform"], row["variant"])
            study.failed[key] = FailedPoint(
                stencil=row["stencil"],
                platform=row["platform"],
                variant=row["variant"],
                error_type=row["error_type"],
                message=row["message"],
                attempts=row["attempts"],
                timed_out=bool(row["timed_out"]),
            )
        # Canonical key order, exactly as run_study leaves it.
        study.results = {
            key: study.results[key]
            for key in config.keys()
            if key in study.results
        }
        counter("results.studies_loaded").inc()
        return study

    @staticmethod
    def _result_from_row(
        row: sqlite3.Row,
        config: ExperimentConfig,
        platforms: Dict[str, Platform],
    ) -> SimulationResult:
        plat = platforms.get(row["platform"])
        if plat is None:
            arch, _, model = row["platform"].partition("-")
            plat = platform(arch, model)
        return SimulationResult(
            platform=plat,
            variant=row["variant"],
            stencil_name=row["stencil"],
            domain=config.domain,
            flops=int(row["flops"]),
            traffic=Traffic(**{f: row[f] for f in TRAFFIC_FIELDS}),
            timing=TimingBreakdown(**{f: row[f] for f in TIMING_FIELDS}),
            cost=ProgramCost(**{f: int(row[f]) for f in COST_FIELDS}),
            strategy=row["strategy"],
        )


def _platform_catalogue(config: ExperimentConfig) -> Dict[str, Platform]:
    return {p.name: p for p in config.platforms()}
