"""Job orchestrator: dedup, queueing, micro-batching, worker threads.

The long-lived core of the serving layer.  One orchestrator owns

* a :class:`~repro.serve.store.ResultStore` (the dedup side: a config
  any earlier job completed is answered with zero simulation),
* a bounded :class:`~repro.serve.queue.JobQueue` (the backpressure
  side: a full queue rejects with a ``Retry-After`` estimate), and
* a small pool of worker *threads* that multiplex every tenant's jobs
  over one process — per-job cost is analytic math measured in
  milliseconds, so the service is orchestration-bound and threads are
  the right grain; each job's sweep is one batch-engine call.

Request flow for a clean job: store hit → ``done`` immediately
(``serve.dedup_hits``); identical config already queued/running →
the *same* job is returned (``serve.coalesced``), so concurrent
identical tenants share one execution; otherwise a fresh job enters
the queue or is rejected with backpressure.

Workers micro-batch: after dequeuing a clean job, a worker drains up
to ``batch_window - 1`` more clean jobs and evaluates all their matrix
points as ONE batch sweep (:func:`repro.exec.microbatch_study_points`),
so a burst of small requests pays the batch engine's per-group setup
once.  Drill jobs (chaos seeds, synthetic service time, poison pills)
run solo through :func:`repro.harness.run_study`, which gives them the
full retry/timeout/degradation machinery — a fault-injected job
degrades into ``FailedPoint`` entries without wedging the queue.

Crash safety (PR 9) is layered on top:

* a :class:`~repro.serve.journal.JobJournal` (when configured) records
  every submission and transition write-ahead; :meth:`Orchestrator.start`
  replays it — ``running`` jobs are re-enqueued first (they held a
  worker when the process died) and resume from their study checkpoint,
  ``queued`` jobs re-enqueue FIFO-stable, ``done`` jobs re-serve from
  the store, and a job whose attempts exceed ``max_crashes`` is marked
  ``failed`` with a recovery note instead of crash-looping the server;
* ``backend="process"`` routes every job through a
  :class:`~repro.serve.supervisor.Supervisor` — real worker processes
  with heartbeats and a deadline the orchestrator enforces by SIGKILL;
  a crashed worker's job is re-enqueued (``serve.supervisor.requeued``)
  until it proves poisonous (``serve.supervisor.quarantined``);
* clean solo jobs run with ``cache_dir``/``resume`` wired through to
  :func:`run_study`, so the atomic per-``checkpoint_every`` study
  checkpoints that make replay cheap are written by the service itself.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.dsl.shapes import by_name
from repro.errors import ServeError, WorkerCrashError
from repro.exec import TaskFailure, microbatch_study_points, study_item_key
from repro.harness.experiments import (
    ExperimentConfig,
    FailedPoint,
    StudyResults,
    config_from_dict,
    run_study,
)
from repro.obs import counter, get_tracer, span
from repro.serve.jobs import Job, JobOptions, reserve_job_ids
from repro.serve.journal import JobJournal
from repro.serve.queue import JobQueue
from repro.serve.store import ResultStore
from repro.serve.supervisor import Supervisor

__all__ = ["BACKENDS", "Orchestrator"]

#: Execution backends the orchestrator can route jobs through.
BACKENDS = ("thread", "process")

#: EWMA smoothing for the measured per-job service time (Retry-After).
_EWMA_ALPHA = 0.3

#: Prior estimate of one job's service time before any measurement.
_DEFAULT_JOB_S = 2.0

#: Counters the recovery and supervisor paths may bump.  Pre-registered
#: at startup (at zero) so the ``obs diff`` equal-direction specs that
#: gate them always find the metric, even in sessions with no crash.
_CRASH_PATH_COUNTERS = (
    "serve.recovery.replayed_jobs",
    "serve.recovery.resumed_running",
    "serve.recovery.restored_done",
    "serve.recovery.lost_results",
    "serve.recovery.unrecoverable",
    "serve.supervisor.requeued",
    "serve.supervisor.quarantined",
    "serve.supervisor.deadline_kills",
    "serve.supervisor.heartbeat_kills",
    "serve.supervisor.crashes",
)


class Orchestrator:
    """Owns the queue, the store, and the worker pool of one service.

    ``workers`` threads drain the queue concurrently; ``batch_window``
    bounds how many clean jobs one worker may coalesce into a single
    batch sweep (1 disables micro-batching).

    ``run_study_fn`` is injectable for tests (a raising stub exercises
    the ``failed`` path deterministically).

    Durability knobs: ``journal`` (a path or an open
    :class:`JobJournal`) turns on write-ahead journaling + startup
    replay; ``backend="process"`` swaps thread execution for supervised
    worker processes with ``job_deadline_s`` enforcement;
    ``max_crashes`` bounds how many worker crashes (or server restarts
    mid-run) one job may cause before quarantine; ``checkpoint_every``
    overrides the study checkpoint interval for clean solo jobs.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        *,
        queue_limit: int = 32,
        workers: int = 2,
        batch_window: int = 8,
        run_study_fn: Optional[Callable[..., StudyResults]] = None,
        journal: "Optional[JobJournal | str]" = None,
        backend: str = "thread",
        job_deadline_s: Optional[float] = None,
        max_crashes: int = 2,
        checkpoint_every: Optional[int] = None,
    ) -> None:
        if workers < 1:
            raise ServeError(f"need at least one worker, got {workers}")
        if batch_window < 1:
            raise ServeError(f"batch window must be >= 1, got {batch_window}")
        if backend not in BACKENDS:
            raise ServeError(
                f"unknown backend {backend!r}; known: {BACKENDS}"
            )
        if max_crashes < 1:
            raise ServeError(f"max_crashes must be >= 1, got {max_crashes}")
        self.store = store if store is not None else ResultStore()
        self.queue = JobQueue(limit=queue_limit)
        self.workers = workers
        self.batch_window = batch_window
        self.backend = backend
        self.max_crashes = max_crashes
        self.checkpoint_every = checkpoint_every
        self.journal = (
            JobJournal(journal) if isinstance(journal, str) else journal
        )
        self.supervisor = (
            Supervisor(deadline_s=job_deadline_s)
            if backend == "process"
            else None
        )
        self._run_study = run_study_fn or run_study
        self._lock = threading.RLock()
        self._registry: Dict[str, Job] = {}
        self._inflight: Dict[str, Job] = {}  # config_hash -> queued/running
        self._threads: List[threading.Thread] = []
        self._stopping = threading.Event()
        self._job_ewma_s = _DEFAULT_JOB_S
        self._running_jobs = 0
        for name in _CRASH_PATH_COUNTERS:
            counter(name).inc(0)

    # ---- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Replay the journal (if any), then spawn workers (idempotent)."""
        with self._lock:
            if self._threads:
                return
            if self.journal is not None and not self._registry:
                self.recover()
            self._stopping.clear()
            for i in range(self.workers):
                t = threading.Thread(
                    target=self._worker_loop,
                    name=f"serve-worker-{i}",
                    daemon=True,
                )
                t.start()
                self._threads.append(t)

    def stop(self, timeout_s: float = 10.0) -> None:
        """Graceful drain: finish running jobs, journal the rest, exit.

        The queue closes to new work and the workers are joined for up
        to ``timeout_s`` (the CLI's ``--drain-timeout``): jobs already
        running get that long to finish and journal their outcome.
        Everything still queued — and any running job that outlives the
        drain window — simply keeps its journaled ``queued``/``running``
        state, so the next start on the same journal re-enqueues or
        resumes it; nothing is orphaned.
        """
        self._stopping.set()
        self.queue.close()
        for t in self._threads:
            t.join(timeout=timeout_s)
        abandoned = sum(1 for t in self._threads if t.is_alive())
        if abandoned:
            # Daemon threads past the drain window are left behind; their
            # jobs stay journaled ``running`` and resume on next boot.
            counter("serve.drain.abandoned").inc(abandoned)
        self._threads = []
        if self.supervisor is not None:
            self.supervisor.shutdown()

    def close(self) -> None:
        """Release durable resources (the journal's SQLite handle)."""
        if self.journal is not None:
            self.journal.close()

    # ---- crash recovery ----------------------------------------------------
    def recover(self) -> int:
        """Rebuild the registry from the journal; returns jobs re-enqueued.

        Replay order: ``running`` rows first (those jobs held a worker
        when the previous process died — their checkpoints are warmest
        and their tenants have waited longest), then ``queued`` rows,
        each group FIFO-stable by submission sequence.  Terminal rows
        are restored as queryable records: ``done`` re-serves from the
        shared store when the result still exists (``failed`` with a
        recovery note when it does not), ``failed``/``cancelled`` keep
        their outcome.  A ``running`` row whose attempt count exceeds
        ``max_crashes`` is quarantined instead of re-enqueued — a job
        that kills the server on every boot must not crash-loop it.
        """
        assert self.journal is not None
        records = self.journal.replay()
        if not records:
            return 0
        numeric = [
            int(r.job_id[1:]) for r in records
            if r.job_id.startswith("j") and r.job_id[1:].isdigit()
        ]
        if numeric:
            reserve_job_ids(max(numeric) + 1)
        replayed = 0
        ordered = [r for r in records if r.state == "running"] + [
            r for r in records if r.state != "running"
        ]
        for record in ordered:
            try:
                config = config_from_dict(record.config)
                options = JobOptions.from_dict(record.options or None)
            except Exception as exc:
                counter("serve.recovery.unrecoverable").inc()
                self.journal.record_state(
                    record.job_id, "failed",
                    error=f"unreplayable journal row: {exc}",
                    note="failed by crash recovery",
                )
                continue
            job = Job(
                config=config, options=options, job_id=record.job_id,
                config_hash=record.config_hash, attempts=record.attempts,
            )
            job.created_s = time.time()
            with self._lock:
                self._registry[job.job_id] = job
            if record.state in ("failed", "cancelled"):
                job.state = record.state
                job.error = record.error
                job.note = record.note
                job.finished_s = time.time()
            elif record.state == "done":
                study = self.store.get(config) if options.clean else None
                if study is not None:
                    job.state = "done"
                    job.study = study
                    job.note = "restored after restart"
                    job.finished_s = time.time()
                    counter("serve.recovery.restored_done").inc()
                else:
                    job.state = "failed"
                    job.error = (
                        "result lost across restart (cache entry missing "
                        "or server is store-less); resubmit to recompute"
                    )
                    job.note = "failed by crash recovery"
                    job.finished_s = time.time()
                    counter("serve.recovery.lost_results").inc()
                    self.journal.record_state(
                        job.job_id, "failed", error=job.error,
                        note=job.note,
                    )
            elif record.state == "running":
                attempts = self.journal.record_attempt(job.job_id)
                job.attempts = attempts
                if attempts > self.max_crashes:
                    job.state = "failed"
                    job.error = (
                        f"job was running through {attempts} server "
                        f"crashes/restarts (max_crashes={self.max_crashes}); "
                        f"quarantined as poison"
                    )
                    job.note = "quarantined by crash recovery"
                    job.finished_s = time.time()
                    counter("serve.recovery.unrecoverable").inc()
                    self.journal.record_state(
                        job.job_id, "failed", error=job.error, note=job.note,
                    )
                    continue
                job.note = (
                    f"re-enqueued by crash recovery (attempt {attempts}); "
                    f"resuming from study checkpoint if present"
                )
                self._requeue(job, note=job.note)
                counter("serve.recovery.resumed_running").inc()
                counter("serve.recovery.replayed_jobs").inc()
                replayed += 1
            else:  # queued
                self._requeue(job, note="re-enqueued by crash recovery")
                counter("serve.recovery.replayed_jobs").inc()
                replayed += 1
        return replayed

    def _requeue(self, job: Job, note: str) -> None:
        """Force-admit a replayed/crashed job back into the queue."""
        with self._lock:
            job.state = "queued"
            self.queue.put(job, force=True)
            if job.options.clean and job.config_hash not in self._inflight:
                self._inflight[job.config_hash] = job
        if self.journal is not None:
            self.journal.record_state(job.job_id, "queued", note=note)

    # ---- submission --------------------------------------------------------
    def submit(
        self, config: ExperimentConfig, options: Optional[JobOptions] = None
    ) -> Job:
        """Accept one study request; returns its (possibly shared) job.

        Raises :class:`QueueFullError` when the queue rejects the
        submission — the HTTP layer maps it to 429.
        """
        options = options or JobOptions()
        counter("serve.requests").inc()
        with self._lock:
            if options.clean:
                study = self.store.get(config)
                if study is not None:
                    job = Job(config=config, options=options)
                    job.state = "done"
                    job.dedup = True
                    job.started_s = job.finished_s = time.time()
                    job.study = study
                    self._registry[job.job_id] = job
                    counter("serve.dedup_hits").inc()
                    counter("serve.jobs.done").inc()
                    self._journal_submit(job, state="done")
                    return job
                shared = self._inflight.get(self._hash(config))
                if shared is not None and shared.options.clean:
                    counter("serve.coalesced").inc()
                    return shared
            job = Job(config=config, options=options)
            self.queue.put(job, retry_after_s=self.retry_after_s())
            self._registry[job.job_id] = job
            if options.clean:
                self._inflight[job.config_hash] = job
            counter("serve.jobs.queued").inc()
            self._journal_submit(job)
            return job

    def _journal_submit(self, job: Job, state: str = "queued") -> None:
        """Write-ahead record of one accepted job (no-op journal-less)."""
        if self.journal is None:
            return
        self.journal.record_submit(
            job.job_id,
            job.config.to_dict(),
            job.options.to_dict(),
            job.config_hash,
            state=state,
            result_key=job.config_hash if state == "done" else None,
        )

    def _journal_state(self, job: Job, **kwargs: "str | None") -> None:
        """Journal one live transition of ``job`` (no-op journal-less)."""
        if self.journal is None:
            return
        self.journal.record_state(job.job_id, job.state, **kwargs)

    @staticmethod
    def _hash(config: ExperimentConfig) -> str:
        from repro.harness.serialization import study_cache_key

        return study_cache_key(config)

    def cancel(self, job_id: str) -> Job:
        """Cancel a still-queued job; running/finished jobs refuse."""
        with self._lock:
            job = self.job(job_id)
            if not self.queue.remove(job):
                raise ServeError(
                    f"job {job_id} is {job.state}, not queued; "
                    f"only queued jobs can be cancelled"
                )
            job.transition("cancelled")
            self._inflight.pop(job.config_hash, None)
            self._journal_state(job)
            return job

    # ---- queries -----------------------------------------------------------
    def job(self, job_id: str) -> Job:
        with self._lock:
            job = self._registry.get(job_id)
        if job is None:
            raise ServeError(f"no such job: {job_id}")
        return job

    def jobs(self) -> List[Job]:
        with self._lock:
            return sorted(self._registry.values(), key=lambda j: j.job_id)

    def retry_after_s(self) -> float:
        """Honest backpressure estimate: work ahead / worker throughput."""
        with self._lock:
            ahead = len(self.queue) + self._running_jobs
            per_job = self._job_ewma_s
        estimate = (ahead + 1) * per_job / max(1, self.workers)
        return float(min(120.0, max(1.0, math.ceil(estimate))))

    def poll_hint_s(self, job: Job) -> float:
        """How long a polling client should wait before asking again.

        The ``Retry-After``-style hint the status endpoint embeds as
        ``poll_after_s``: finished jobs poll-free (0), running jobs poll
        at a fraction of the measured per-job service time, queued jobs
        scale with how much work is ahead of them — so a client neither
        hammers a busy server nor sleeps long past completion.
        """
        if job.finished:
            return 0.0
        with self._lock:
            per_job = self._job_ewma_s
            ahead = len(self.queue) + self._running_jobs
        if job.state == "running":
            hint = per_job * 0.25
        else:  # queued
            hint = (ahead + 1) * per_job / max(1, self.workers) * 0.5
        return float(min(30.0, max(0.05, hint)))

    # ---- execution ---------------------------------------------------------
    def _worker_loop(self) -> None:
        while not self._stopping.is_set():
            job = self.queue.get(timeout_s=0.1)
            if job is None:
                if self.queue.closed:
                    return
                continue
            batch = [job]
            if (
                self.backend == "thread"
                and job.options.clean
                and self.batch_window > 1
            ):
                # The process backend runs everything solo: a batch would
                # couple unrelated tenants' jobs to one killable process.
                batch += self.queue.drain(
                    self.batch_window - 1, lambda j: j.options.clean
                )
            try:
                if len(batch) > 1:
                    self._run_microbatch(batch)
                else:
                    self._run_solo(job)
            except Exception:  # pragma: no cover - defensive backstop
                # A worker must survive anything a job throws at it; the
                # job records below have already been marked failed by
                # the run helpers, so this is strictly belt-and-braces.
                continue

    def _finish(self, job: Job, study: Optional[StudyResults],
                error: Optional[str], t0: float) -> None:
        """Terminal bookkeeping for one executed job, under the lock."""
        with self._lock:
            if study is not None:
                job.study = study
                if job.options.clean:
                    self.store.put(study)  # refuses incomplete studies
                job.transition("done")
                self._journal_state(job, result_key=job.config_hash)
            else:
                job.error = error
                job.transition("failed")
                self._journal_state(job, error=error)
            self._inflight.pop(job.config_hash, None)
            elapsed = time.monotonic() - t0
            self._job_ewma_s = (
                _EWMA_ALPHA * elapsed + (1.0 - _EWMA_ALPHA) * self._job_ewma_s
            )

    def _solo_run_kwargs(self, job: Job) -> Dict[str, object]:
        """The ``run_study`` kwargs a solo execution of ``job`` needs.

        Clean jobs get the durable extras — the shared ``cache_dir``
        plus ``resume=True`` so a crash-recovered job re-simulates only
        points after its last checkpoint (``study.resumed_points``
        counts the skips).  Drill jobs never touch the shared cache.
        """
        kwargs: Dict[str, object] = {}
        if job.options.clean and self.store.cache_dir:
            kwargs["cache_dir"] = self.store.cache_dir
            kwargs["resume"] = True
            if self.checkpoint_every is not None:
                kwargs["checkpoint_every"] = self.checkpoint_every
        return kwargs

    def _run_solo(self, job: Job) -> None:
        """Run one job through the full-featured study harness."""
        with self._lock:
            job.transition("running")
            self._journal_state(job)
            self._running_jobs += 1
        t0 = time.monotonic()
        study: Optional[StudyResults] = None
        error: Optional[str] = None
        try:
            with span(
                "serve.job", job_id=job.job_id, mode=self.backend,
                points=len(job.config.keys()),
            ):
                if self.supervisor is not None:
                    run_kwargs = self._solo_run_kwargs(job)
                    run_kwargs["trace"] = get_tracer().enabled
                    study = self.supervisor.run_job(job, run_kwargs)
                elif job.options.drill_exit is not None:
                    raise ServeError(
                        f"drill_exit={job.options.drill_exit} needs the "
                        f"process backend (a thread worker cannot be "
                        f"sacrificed); job failed gracefully"
                    )
                else:
                    if job.options.sleep_s > 0:
                        time.sleep(job.options.sleep_s)
                    study = self._run_study(
                        job.config,
                        policy=job.options.policy(),
                        fault_plan=job.options.fault_plan(job.config),
                        **self._solo_run_kwargs(job),
                    )
        except WorkerCrashError as exc:
            with self._lock:
                self._running_jobs -= 1
            self._handle_crash(job, exc, t0)
            return
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            counter("serve.job_errors").inc()
        finally:
            if not job.finished and job.state == "running":
                with self._lock:
                    self._running_jobs -= 1
                self._finish(job, study, error, t0)

    def _handle_crash(self, job: Job, exc: WorkerCrashError, t0: float) -> None:
        """Re-enqueue a crash casualty, or quarantine a poison job."""
        if self.journal is not None:
            attempts = self.journal.record_attempt(job.job_id)
            job.attempts = attempts
        else:
            job.attempts += 1
            attempts = job.attempts
        if attempts > self.max_crashes:
            counter("serve.supervisor.quarantined").inc()
            counter("serve.job_errors").inc()
            with self._lock:
                job.error = (
                    f"poison job: crashed its worker {attempts} time(s) "
                    f"(max_crashes={self.max_crashes}); last crash: {exc}"
                )
                job.note = "quarantined after repeated worker crashes"
                job.transition("failed")
                self._journal_state(job, error=job.error, note=job.note)
                self._inflight.pop(job.config_hash, None)
                elapsed = time.monotonic() - t0
                self._job_ewma_s = (
                    _EWMA_ALPHA * elapsed
                    + (1.0 - _EWMA_ALPHA) * self._job_ewma_s
                )
            return
        counter("serve.supervisor.requeued").inc()
        with self._lock:
            job.transition("queued")
        self._requeue(
            job,
            note=(
                f"re-enqueued after worker crash "
                f"(attempt {attempts}/{self.max_crashes}): {exc}"
            ),
        )

    def _run_microbatch(self, batch: List[Job]) -> None:
        """Evaluate several clean jobs as one batch sweep."""
        with self._lock:
            for job in batch:
                job.transition("running")
                self._journal_state(job)
            self._running_jobs += len(batch)
        t0 = time.monotonic()
        counter("serve.microbatch.jobs").inc(len(batch))
        try:
            with span(
                "serve.microbatch", jobs=len(batch),
                job_ids=",".join(j.job_id for j in batch),
            ):
                groups = [self._study_items(job.config) for job in batch]
                outcome_groups = microbatch_study_points(groups)
            for job, items, outcomes in zip(batch, groups, outcome_groups):
                study = self._assemble(job.config, items, outcomes)
                self._finish(job, study, None, t0)
        except Exception as exc:
            # A batch-wide crash (not a per-point failure — those come
            # back as TaskFailure records) fails every member.
            error = f"{type(exc).__name__}: {exc}"
            counter("serve.job_errors").inc(len(batch))
            for job in batch:
                if not job.finished:
                    self._finish(job, None, error, t0)
        finally:
            with self._lock:
                self._running_jobs -= len(batch)

    @staticmethod
    def _study_items(config: ExperimentConfig) -> List[Tuple]:
        """The study-item list ``run_study`` would sweep for ``config``."""
        platforms = config.platforms()
        return [
            (name, by_name(name).build(), platform, variant, config.domain)
            for name in config.stencils
            for platform in platforms
            for variant in config.variants
        ]

    @staticmethod
    def _assemble(
        config: ExperimentConfig,
        items: Sequence[Tuple],
        outcomes: Sequence[object],
    ) -> StudyResults:
        """Fold batch outcomes into a :class:`StudyResults` (sweep order)."""
        study = StudyResults(config=config)
        for item, outcome in zip(items, outcomes):
            key = study_item_key(item)
            if isinstance(outcome, TaskFailure):
                study.failed[key] = FailedPoint(
                    stencil=key[0],
                    platform=key[1],
                    variant=key[2],
                    error_type=outcome.error_type,
                    message=outcome.message,
                    attempts=outcome.attempts,
                    timed_out=outcome.timed_out,
                )
            else:
                study.results[key] = outcome  # type: ignore[assignment]
        study.results = {
            key: study.results[key]
            for key in config.keys()
            if key in study.results
        }
        counter("study.points").inc(len(study.results))
        if study.failed:
            counter("exec.failed_points").inc(len(study.failed))
        return study
