"""Multi-tenant study-serving service: dedup, batching, backpressure.

A long-running HTTP front door over the repro harness, so many tenants
(CI jobs, notebooks, sweep scripts) share one process's caches and one
worker pool instead of each paying a cold sweep:

* **Dedup** — results are keyed by the study-cache config hash; a config
  anyone already ran is answered with zero ``simulate`` calls, and
  identical in-flight requests coalesce onto one job.
* **Micro-batching** — bursts of small clean requests fuse into a single
  batch-vectorized sweep (:func:`repro.exec.microbatch_study_points`).
* **Backpressure** — a bounded queue rejects overflow with HTTP 429 and
  an honest ``Retry-After`` estimate.
* **Per-job resilience** — retries, task timeouts, and seeded fault
  plans ride on each submission; chaos jobs degrade to ``FailedPoint``
  records without wedging the queue or poisoning the shared store.
* **Observability** — ``serve.*`` counters, per-request spans, and the
  standard telemetry-warehouse recording on shutdown.
* **Crash safety** — an optional write-ahead :class:`JobJournal`
  (SQLite) replayed on startup, supervised worker *processes*
  (``backend="process"``) with heartbeats/deadline kills/poison
  quarantine via :class:`Supervisor`, and a shared ``--cache-dir``
  result database whose checkpoint writes are SQLite transactions, so
  ``kill -9`` mid-sweep loses at most one checkpoint interval.

Embed it (tests, benches) with :func:`start_server`; run it from the
CLI with ``repro-stencil serve`` and talk to it with
``repro-stencil client`` or :class:`ServeClient`.
"""

from repro.serve.client import BackpressureError, ServeClient
from repro.serve.jobs import JOB_STATES, MAX_SLEEP_S, Job, JobOptions
from repro.serve.journal import JOURNAL_SCHEMA_VERSION, JobJournal, JournalRecord
from repro.serve.orchestrator import BACKENDS, Orchestrator
from repro.serve.queue import JobQueue
from repro.serve.server import StudyServer, start_server
from repro.serve.store import ResultStore
from repro.serve.supervisor import Supervisor

__all__ = [
    "BACKENDS",
    "JOB_STATES",
    "JOURNAL_SCHEMA_VERSION",
    "MAX_SLEEP_S",
    "BackpressureError",
    "Job",
    "JobJournal",
    "JobOptions",
    "JobQueue",
    "JournalRecord",
    "Orchestrator",
    "ResultStore",
    "ServeClient",
    "StudyServer",
    "Supervisor",
    "start_server",
]
