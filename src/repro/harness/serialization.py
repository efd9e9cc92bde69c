"""JSON export of study results, and the ``--cache-dir`` study store.

:func:`dump_study` writes the flat result rows plus the sweep
configuration (CLI ``--json``; the serving layer sends the same
document).  Two version stamps head the document:

* ``format_version`` — the JSON container layout (top-level keys);
* ``schema_version`` — the *row* schema (the CSV field set).  Bump it
  whenever :data:`~repro.harness.reporting.CSV_FIELDS` changes meaning.

Both stamps are also hashed into :func:`study_cache_key`, so a bump
orphans every cached study.  The golden baseline that pins the model's
numbers is :mod:`repro.validate.golden`, not an export file.

JSON and CSV are export formats.  The ``--cache-dir`` study cache and
sweep checkpoints live in a SQLite result database
(:class:`~repro.results.store.ResultsStore`): the functions in the
second half of this module keep one ``studies.db`` per cache directory,
where a complete study row is a cache hit and an incomplete one is a
checkpoint.  Nothing here pickles.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Union

from repro.errors import ResultStoreError
from repro.gpu.simulator import SimulationResult
from repro.harness.experiments import (
    ExperimentConfig,
    FailedPoint,
    Key,
    StudyResults,
    iter_results,
)
from repro.harness.reporting import result_row

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
    JSON body.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as f:
            json.dump(study_to_dict(study), f, indent=1)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


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
