"""JSON/CSV persistence for study results, with a schema round-trip guard.

Saves the flat result rows plus the sweep configuration, so analyses
(or regression comparisons against a previous run) can reload a study
without re-simulating.

Two version stamps guard the round-trip:

* ``format_version`` — the JSON container layout (top-level keys);
* ``schema_version`` — the *row* schema (the CSV field set).  Bump it
  whenever :data:`~repro.harness.reporting.CSV_FIELDS` changes meaning,
  so stale baselines are rejected loudly instead of mis-compared.

CSV files carry no header beyond the field row itself; :func:`load_csv_rows`
treats that header as the schema stamp and rejects mismatches.

JSON and CSV are export formats.  The ``--cache-dir`` study cache and
sweep checkpoints live in a SQLite result database
(:class:`~repro.results.store.ResultsStore`): the functions in the
second half of this module keep one ``studies.db`` per cache directory,
where a complete study row is a cache hit and an incomplete one is a
checkpoint.  Nothing here pickles.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sqlite3
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Union

from repro.errors import MetricError, ResultStoreError
from repro.gpu.simulator import SimulationResult
from repro.harness.experiments import (
    ExperimentConfig,
    FailedPoint,
    Key,
    StudyResults,
    iter_results,
)
from repro.harness.reporting import CSV_FIELDS, coerce_row, result_row

if TYPE_CHECKING:
    from repro.results.store import ResultsStore

FORMAT_VERSION = 1

#: Version of the per-row result schema (the CSV_FIELDS contract).
SCHEMA_VERSION = 1


def study_to_dict(study: StudyResults) -> Dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "schema_version": SCHEMA_VERSION,
        "domain": list(study.config.domain),
        "stencils": list(study.config.stencils),
        "variants": list(study.config.variants),
        "results": [result_row(r) for r in iter_results(study)],
    }
    if study.failed:
        doc["failed"] = [
            {
                "stencil": fp.stencil,
                "platform": fp.platform,
                "variant": fp.variant,
                "error_type": fp.error_type,
                "message": fp.message,
                "attempts": fp.attempts,
                "timed_out": fp.timed_out,
            }
            for _, fp in sorted(study.failed.items())
        ]
    return doc


def dump_study(study: StudyResults, path: str) -> None:
    """Atomically write a study document to ``path``.

    Temp file + ``os.replace`` (the checkpoint pattern): a crash
    mid-write leaves the previous file intact instead of a truncated
    JSON body that ``load_rows`` rejects with a confusing parse error.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as f:
            json.dump(study_to_dict(study), f, indent=1)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_rows(path: str) -> List[Dict]:
    """Load the flat result rows of a saved study.

    Rejects files whose container or row schema version does not match
    this library's, so regression comparisons never silently mix
    incompatible result generations.
    """
    with open(path) as f:
        doc = json.load(f)
    if doc.get("format_version") != FORMAT_VERSION:
        raise MetricError(
            f"unsupported study file version {doc.get('format_version')!r}"
        )
    schema = doc.get("schema_version")
    if schema != SCHEMA_VERSION:
        raise MetricError(
            f"study row schema version {schema!r} does not match this "
            f"library's {SCHEMA_VERSION}; re-run the study to regenerate"
        )
    rows = doc["results"]
    for row in rows:
        missing = set(CSV_FIELDS) - set(row)
        if missing:
            raise MetricError(f"saved row missing fields {sorted(missing)}")
    return rows


def load_csv_rows(path: str) -> List[Dict]:
    """Load rows from :func:`~repro.harness.reporting.write_csv` output.

    The header row doubles as the schema stamp: it must match
    ``CSV_FIELDS`` exactly (same names, same order), otherwise the file
    was written by a different schema generation and is rejected.

    Cells come back *typed* (via the shared
    :data:`~repro.harness.reporting.FIELD_TYPES` map): CSV text like
    ``"0.0"`` is coerced to ``0.0``, so reloaded rows behave like the
    rows :func:`~repro.harness.reporting.result_row` produced —
    arithmetic and truthiness in :func:`compare_rows` work instead of
    crashing on strings (or treating ``"0.0"`` as truthy).  A cell that
    cannot be coerced is a corrupt file and raises
    :class:`~repro.errors.MetricError` naming the row.
    """
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise MetricError(f"{path}: empty CSV (no header row)") from None
        if tuple(header) != CSV_FIELDS:
            raise MetricError(
                f"{path}: CSV header {header} does not match schema "
                f"version {SCHEMA_VERSION} fields {list(CSV_FIELDS)}"
            )
        rows = []
        for lineno, raw in enumerate(reader, start=2):
            try:
                rows.append(coerce_row(dict(zip(CSV_FIELDS, raw))))
            except ValueError as exc:
                raise MetricError(f"{path}:{lineno}: {exc}") from None
        return rows


# ---- the --cache-dir study store ------------------------------------------
#
# Repeated CLI invocations (``repro-stencil table 3`` then ``figure 4``)
# are separate processes, so the in-process memo of ``cached_study``
# cannot help them.  With a cache directory, studies persist in one
# result database, ``<cache_dir>/studies.db`` (a
# :class:`~repro.results.store.ResultsStore`, the same schema
# ``--results-db`` writes).  A complete ``studies`` row is the cache
# entry; an incomplete row — its points plus its failures — is the
# checkpoint an interrupted or degraded sweep resumes from.  Rows are
# keyed by :func:`study_cache_key`, whose payload includes
# ``SCHEMA_VERSION``, so bumping it orphans every stale row.  Reads
# treat a missing or unusable file as a miss (the sweep re-runs); writes
# raise :class:`~repro.errors.ResultStoreError`.  Concurrent writers
# (service replicas sharing a cache directory) are serialised by
# SQLite's own locking.  The cache is strictly opt-in — callers pass
# ``cache_dir`` (CLI ``--cache-dir`` / ``$REPRO_CACHE_DIR``).

#: Environment variable supplying a cache directory when no ``cache_dir``
#: argument is given.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: File name of the study store inside a cache directory.
CACHE_DB_NAME = "studies.db"


def default_cache_dir() -> str:
    """``~/.cache/repro-stencil`` (XDG_CACHE_HOME honoured)."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro-stencil")


def study_cache_key(config: ExperimentConfig) -> str:
    """Stable content hash of one sweep configuration (+ schema)."""
    payload = json.dumps(
        {
            "format_version": FORMAT_VERSION,
            "schema_version": SCHEMA_VERSION,
            "stencils": list(config.stencils),
            "variants": list(config.variants),
            "domain": list(config.domain),
            "platforms": [p.name for p in config.platforms()],
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def study_cache_path(cache_dir: str) -> str:
    """The study store of one cache directory."""
    return os.path.join(cache_dir, CACHE_DB_NAME)


def open_study_cache(cache_dir: str) -> "ResultsStore":
    """Open (creating if needed) the study store of one cache directory."""
    from repro.results.store import ResultsStore

    return ResultsStore(study_cache_path(cache_dir))


def _load_stored(
    config: ExperimentConfig, cache_dir: str
) -> Optional[StudyResults]:
    """The stored study for ``config``, complete or not; None on any miss.

    A missing file, a file that is not a result database of this
    schema version, and a row whose configuration does not match all
    load as None — the caller re-simulates.
    """
    from repro.results.store import ResultsStore

    try:
        with ResultsStore(study_cache_path(cache_dir), create=False) as store:
            return store.load_study(config)
    except (ResultStoreError, sqlite3.Error):
        return None


def load_study_cache(
    config: ExperimentConfig, cache_dir: str
) -> Optional[StudyResults]:
    """The cached *complete* study for ``config``, or None."""
    study = _load_stored(config, cache_dir)
    return study if study is not None and study.complete else None


def load_study_checkpoint(
    config: ExperimentConfig, cache_dir: str
) -> Optional[Dict[Key, Union[SimulationResult, FailedPoint]]]:
    """Stored points and failures of an unfinished sweep, or None.

    A complete study is the cache entry, not a checkpoint, so it loads
    as None here; so does a missing or unusable store.
    """
    study = _load_stored(config, cache_dir)
    if study is None or study.complete:
        return None
    return {**study.results, **study.failed}


def save_study_checkpoint(
    config: ExperimentConfig,
    results: Mapping[Key, Union[SimulationResult, FailedPoint]],
    cache_dir: str,
    store: Optional["ResultsStore"] = None,
) -> str:
    """Merge a slice of one sweep into the cache store; returns its path.

    One transaction per call (:meth:`ResultsStore.merge_points`):
    points already stored for ``config`` — by this sweep's earlier
    flushes or by a concurrent process — are kept, so a flush only
    needs the points completed since the last one, and no writer can
    regress another's progress.  The study becomes the cache entry once
    every point is stored.  ``store`` is the open store of
    ``cache_dir`` to write through (a sweep holds one across its
    flushes); without it the call opens and closes its own.
    """
    if store is not None:
        store.merge_points(config, results)
    else:
        with open_study_cache(cache_dir) as own:
            own.merge_points(config, results)
    return study_cache_path(cache_dir)


def save_study_cache(study: StudyResults, cache_dir: str) -> str:
    """Store a whole study under ``cache_dir``; returns the store path."""
    return save_study_checkpoint(
        study.config, {**study.results, **study.failed}, cache_dir
    )


def clear_study_checkpoint(config: ExperimentConfig, cache_dir: str) -> None:
    """Drop the unfinished sweep stored for ``config``, if any.

    A complete study is the cache entry and stays.
    """
    if not os.path.exists(study_cache_path(cache_dir)):
        return
    with open_study_cache(cache_dir) as store:
        record = store.study_record(config)
        if record is not None and not record.complete:
            store.delete_study(record.study_id)


def compare_rows(old: List[Dict], new: List[Dict], rtol: float = 0.02) -> List[str]:
    """Regression check: report rows whose time drifted beyond ``rtol``.

    Returns human-readable difference descriptions (empty = no drift).

    Rows are keyed by (stencil, platform, variant, **strategy**): a
    study that carries several codegen strategies per matrix point
    (tuning sweeps, ablations) compares every row rather than silently
    shadowing all but the last one under a too-coarse key.  Times are
    coerced to floats, so the comparison works on raw
    :func:`load_csv_rows` output and hand-built string rows alike.  A
    zero-time baseline row is *reported*, not skipped: relative drift
    is undefined there, and a baseline of 0 ms is itself a fact the
    regression check must surface.
    """
    def key(row):
        return (
            row["stencil"], row["platform"], row["variant"],
            row.get("strategy", ""),
        )

    old_map = {key(r): r for r in old}
    new_map = {key(r): r for r in new}
    diffs = []
    for k in sorted(set(old_map) | set(new_map)):
        if k not in old_map:
            diffs.append(f"{k}: new result (not in baseline)")
            continue
        if k not in new_map:
            diffs.append(f"{k}: missing from new run")
            continue
        t0 = float(old_map[k]["time_ms"])
        t1 = float(new_map[k]["time_ms"])
        if t0 == 0.0:
            if t1 != 0.0:
                diffs.append(
                    f"{k}: baseline time is 0 ms (relative drift "
                    f"undefined); new time {t1} ms"
                )
            continue
        if abs(t1 - t0) / t0 > rtol:
            diffs.append(f"{k}: time {t0} ms -> {t1} ms")
    return diffs
