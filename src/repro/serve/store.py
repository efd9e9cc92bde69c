"""Shared result store: the ``--cache-dir`` study store, fronted in memory.

The on-disk study cache (:mod:`repro.harness.serialization`) keys
complete :class:`StudyResults` by a content hash of the sweep
configuration — exactly the dedup identity a multi-tenant service
needs.  This module fronts it with a thread-safe in-memory map, so

* a request for a config any earlier job completed is served with zero
  ``simulate`` calls (the acceptance contract of the serving PR);
* a service restart warm-starts from whatever the CLI or a previous
  server process left in the cache directory's result database (and
  vice versa — results computed by the service are visible to
  ``repro-stencil --cache-dir`` runs).

Only *complete* studies enter the store: a degraded result (failed
points) must never be dedup-served to a tenant who would have retried,
and chaos-job results never reach here at all (see
:attr:`~repro.serve.jobs.JobOptions.clean`).

Traffic is counted as ``serve.store.hits`` / ``serve.store.misses``
(memory) and ``serve.store.disk_hits`` (warm-start promotions).

With a ``results_db`` (or ``$REPRO_RESULTS_DB``), every study entering
the store — computed by a job or warm-started from disk — is also
appended to the SQLite result store (:mod:`repro.results`), so served
results land in the same queryable history as CLI sweeps.  Ingestion is
best-effort and deduplicated: a store failure counts
``results.ingest_errors`` but never fails the serving path.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.harness.experiments import ExperimentConfig, StudyResults
from repro.harness.serialization import (
    load_study_cache,
    save_study_cache,
    study_cache_key,
)
from repro.obs import counter

__all__ = ["ResultStore"]


class ResultStore:
    """Config-hash-keyed map of completed studies, optionally persistent.

    ``cache_dir=None`` keeps the store purely in-memory (tests, or a
    deliberately stateless server); otherwise it reads and writes the
    same result database as the CLI's ``--cache-dir``.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        results_db: Optional[str] = None,
    ) -> None:
        from repro.results import resolve_results_db

        self.cache_dir = cache_dir or None
        self.results_db = resolve_results_db(results_db)
        self._lock = threading.RLock()
        self._memory: Dict[str, StudyResults] = {}

    def _ingest(self, study: StudyResults, source: str) -> None:
        """Best-effort append to the SQLite result store (if configured)."""
        if not self.results_db:
            return
        from repro.errors import ResultStoreError
        from repro.results import ResultsStore

        try:
            with ResultsStore(self.results_db) as store:
                store.ingest_study(study, source=source)
        except (OSError, ResultStoreError):
            counter("results.ingest_errors").inc()

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def get(self, config: ExperimentConfig) -> Optional[StudyResults]:
        """The stored complete study for ``config``, or ``None``.

        Memory first; on a miss, the disk cache is consulted and a hit
        is promoted into memory (counted as ``serve.store.disk_hits``).
        The disk read happens *outside* the lock — rebuilding a study
        from its rows can take milliseconds and must not block every other tenant's lookup —
        so two threads missing on the same key may both load the file;
        :meth:`_promote` makes the insert idempotent (first one wins,
        the loser's copy is discarded and counted as
        ``serve.store.promote_races``).
        """
        key = study_cache_key(config)
        with self._lock:
            study = self._memory.get(key)
            if study is not None:
                counter("serve.store.hits").inc()
                return study
        if self.cache_dir:
            study = load_study_cache(config, self.cache_dir)
            if study is not None and study.complete:
                study = self._promote(key, study)
                counter("serve.store.hits").inc()
                counter("serve.store.disk_hits").inc()
                self._ingest(study, source="serve.promote")
                return study
        counter("serve.store.misses").inc()
        return None

    def _promote(self, key: str, study: StudyResults) -> StudyResults:
        """Idempotently insert a disk-loaded study; existing entry wins.

        Both racers return the *same* object (whichever promotion won),
        so identity-based dedup downstream sees one study, not two
        equal-but-distinct copies.
        """
        with self._lock:
            existing = self._memory.get(key)
            if existing is not None:
                counter("serve.store.promote_races").inc()
                return existing
            self._memory[key] = study
            return study

    def put(self, study: StudyResults) -> bool:
        """Store a *complete* study; incomplete ones are refused (False)."""
        if not study.complete:
            return False
        key = study_cache_key(study.config)
        with self._lock:
            self._memory[key] = study
        if self.cache_dir:
            save_study_cache(study, self.cache_dir)
        self._ingest(study, source="serve.put")
        return True
