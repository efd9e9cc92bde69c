"""Supervised worker processes: a backend the orchestrator can kill.

The thread backend multiplexes jobs over the server process, which is
the right grain for millisecond analytic sweeps — but a thread cannot
be killed.  A job that wedges (a pathological matrix, a bug, a chaos
drill) holds its worker thread hostage until process exit, and a job
that corrupts interpreter state takes every tenant down with it.  This
module is the containment layer the ``--backend process`` flag buys:

* each worker is a real OS **process** (``multiprocessing.Process``)
  running :func:`_worker_main` — a loop that receives one job at a
  time over a pipe, runs it through the same
  :func:`~repro.harness.experiments.run_study` path as the thread
  backend (checkpoints, retries and fault plans included), and ships
  the study back *with its counters and spans* (captured and merged by
  :func:`repro.obs.capture_counters` /
  :func:`repro.obs.merge_observations`, so telemetry is
  backend-agnostic);
* a **heartbeat** — a shared double the child refreshes from a daemon
  thread a few times a second — distinguishes "still simulating" from
  "wedged below Python" (stuck in C, deadlocked);
* **deadline enforcement** with teeth: a job past ``deadline_s`` (or a
  heartbeat stale past ``heartbeat_timeout_s``) gets its worker
  ``kill()``-ed — counted as ``serve.supervisor.deadline_kills`` /
  ``.heartbeat_kills`` — and fails with a timeout error while every
  other worker keeps serving;
* a worker that **dies mid-job** (segfault, ``os._exit``, OOM-kill)
  raises :class:`~repro.errors.WorkerCrashError` to the orchestrator,
  which re-enqueues the job — or quarantines it as *poison* once it has
  crashed workers ``max_crashes`` times (``serve.supervisor.quarantined``);
* **respawn with exponential backoff**: replacement workers spawn on
  demand, but each consecutive crash doubles a spawn delay (capped), so
  a crash-looping environment degrades to slow instead of forking
  itself to death.  A completed job resets the streak.

The poison pill for drills: a job whose options carry ``drill_exit``
makes the worker call ``os._exit(code)`` instead of simulating —
deterministic crash-requeue/quarantine coverage without corrupting
anything real.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ServeError, TaskTimeoutError, WorkerCrashError
from repro.obs import counter, merge_observations
from repro.serve.jobs import Job

__all__ = ["Supervisor", "WorkerHandle"]

#: How often the child refreshes its heartbeat stamp.
_HEARTBEAT_EVERY_S = 0.2

#: Parent-side poll interval while a job is in flight.
_POLL_S = 0.05

#: Counters this module owns, pre-registered so regression specs and
#: tests can read them as 0 even on crash-free runs.
_SUPERVISOR_COUNTERS = (
    "serve.supervisor.spawned",
    "serve.supervisor.crashes",
    "serve.supervisor.deadline_kills",
    "serve.supervisor.heartbeat_kills",
    "serve.supervisor.backoff_waits",
)


def _worker_main(conn: Any, heartbeat: Any) -> None:
    """Child process entry: serve jobs from the pipe until told to stop.

    Runs with a fresh observability registry per job (the forked copy of
    the parent's registry would double-count everything) and ships the
    captured counters/spans back alongside each result.
    """
    # The parent handles SIGINT/SIGTERM and drains us deliberately; a
    # terminal Ctrl-C must not look like a worker crash.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    def _beat() -> None:
        while True:
            heartbeat.value = time.time()
            time.sleep(_HEARTBEAT_EVERY_S)

    threading.Thread(target=_beat, daemon=True).start()

    # Imports deferred to keep the pre-fork footprint (and the window
    # for import-time state to leak across the fork) small.
    from repro import obs
    from repro.harness.experiments import run_study

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            return
        _, config, options, run_kwargs = message
        if options.drill_exit is not None:
            os._exit(options.drill_exit)  # the poison pill (chaos drills)
        registry = obs.set_registry(obs.MetricsRegistry())
        tracer = obs.set_tracer(obs.Tracer(enabled=run_kwargs.pop("trace", False)))
        try:
            if options.sleep_s > 0:
                time.sleep(options.sleep_s)
            study = run_study(
                config,
                policy=options.policy(),
                fault_plan=options.fault_plan(config),
                **run_kwargs,
            )
            reply: Tuple[Any, ...] = ("done", study)
        except Exception as exc:
            reply = ("error", f"{type(exc).__name__}: {exc}")
        counters = obs.capture_counters(registry)
        spans = [
            obs.span_to_dict(s) for root in tracer.roots() for s in root.walk()
        ] if tracer.enabled else []
        try:
            conn.send(reply + (counters, spans))
        except (BrokenPipeError, OSError):
            return


class WorkerHandle:
    """One supervised worker process and its control pipe."""

    def __init__(self, ctx: Any) -> None:
        self.heartbeat = ctx.Value("d", time.time())
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, self.heartbeat),
            daemon=True,
            name="serve-supervised-worker",
        )
        self.process.start()
        child_conn.close()
        counter("serve.supervisor.spawned").inc()

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """Hard-stop the worker (SIGKILL) and reap it."""
        try:
            self.process.kill()
        except (OSError, ValueError):
            pass
        self.process.join(timeout=5.0)
        self.conn.close()

    def _exit_code(self) -> Optional[int]:
        """Reap the dead worker first, so its exit code is visible."""
        self.process.join(timeout=5.0)
        return self.process.exitcode

    def stop(self, timeout_s: float = 2.0) -> None:
        """Polite stop: ask, wait briefly, then kill."""
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=timeout_s)
        if self.process.is_alive():
            self.kill()
        else:
            self.conn.close()

    def run(
        self,
        job: Job,
        run_kwargs: Dict[str, Any],
        *,
        deadline_s: Optional[float],
        heartbeat_timeout_s: float,
    ) -> Any:
        """Execute one job in the worker; block until outcome or kill.

        Returns the study on success; raises

        * :class:`ServeError` when the job itself failed in the worker
          (the worker survives and is reusable),
        * :class:`TaskTimeoutError` after a deadline/heartbeat kill,
        * :class:`WorkerCrashError` when the process died mid-job.
        """
        try:
            self.conn.send(("run", job.config, job.options, dict(run_kwargs)))
        except (BrokenPipeError, OSError):
            raise WorkerCrashError(
                "worker died before accepting the job",
                exit_code=self._exit_code(),
            ) from None
        t0 = time.monotonic()
        while True:
            try:
                if self.conn.poll(_POLL_S):
                    break
            except (BrokenPipeError, OSError):
                code = self._exit_code()
                raise WorkerCrashError(
                    f"worker pipe broke mid-job (exit code {code})",
                    exit_code=code,
                ) from None
            elapsed = time.monotonic() - t0
            if deadline_s is not None and elapsed > deadline_s:
                counter("serve.supervisor.deadline_kills").inc()
                self.kill()
                raise TaskTimeoutError(
                    f"job {job.job_id} exceeded its {deadline_s:g}s deadline; "
                    f"worker pid {self.process.pid} killed"
                )
            stale = time.time() - self.heartbeat.value
            if stale > heartbeat_timeout_s:
                counter("serve.supervisor.heartbeat_kills").inc()
                self.kill()
                raise TaskTimeoutError(
                    f"job {job.job_id}: worker heartbeat stale for "
                    f"{stale:.1f}s (> {heartbeat_timeout_s:g}s); worker "
                    f"pid {self.process.pid} killed as wedged"
                )
            if not self.alive:
                code = self._exit_code()
                raise WorkerCrashError(
                    f"worker process died mid-job (exit code {code})",
                    exit_code=code,
                )
        try:
            reply = self.conn.recv()
        except (EOFError, OSError):
            code = self._exit_code()
            raise WorkerCrashError(
                f"worker died while replying (exit code {code})",
                exit_code=code,
            ) from None
        kind, payload, counters, spans = reply
        merge_observations(counters, spans)
        if kind == "error":
            raise ServeError(payload)
        return payload


class Supervisor:
    """Spawns, lends out, and replaces worker processes.

    The orchestrator's worker threads check a handle out per job and
    check it back in afterwards; a handle lost to a kill or crash is
    simply not checked back in, and the next checkout spawns a
    replacement — after the current backoff delay if workers have been
    crashing consecutively.
    """

    def __init__(
        self,
        *,
        deadline_s: Optional[float] = None,
        heartbeat_timeout_s: float = 10.0,
        backoff_base_s: float = 0.25,
        backoff_max_s: float = 8.0,
    ) -> None:
        if deadline_s is not None and deadline_s <= 0:
            raise ServeError(f"deadline_s must be positive, got {deadline_s}")
        if heartbeat_timeout_s <= 0:
            raise ServeError(
                f"heartbeat_timeout_s must be positive, "
                f"got {heartbeat_timeout_s}"
            )
        self.deadline_s = deadline_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self._ctx = mp.get_context()
        self._lock = threading.Lock()
        self._idle: List[WorkerHandle] = []
        self._crash_streak = 0
        self._closed = False
        for name in _SUPERVISOR_COUNTERS:
            counter(name).inc(0)

    # ---- pool management ---------------------------------------------------
    def _spawn_delay_s(self) -> float:
        with self._lock:
            streak = self._crash_streak
        if streak == 0:
            return 0.0
        return min(
            self.backoff_max_s, self.backoff_base_s * (2.0 ** (streak - 1))
        )

    def _checkout(self) -> WorkerHandle:
        with self._lock:
            if self._closed:
                raise ServeError("supervisor is shut down")
            while self._idle:
                handle = self._idle.pop()
                if handle.alive:
                    return handle
                handle.kill()  # reap a worker that died while idle
        delay = self._spawn_delay_s()
        if delay > 0:
            counter("serve.supervisor.backoff_waits").inc()
            time.sleep(delay)
        return WorkerHandle(self._ctx)

    def _checkin(self, handle: WorkerHandle) -> None:
        with self._lock:
            if self._closed or not handle.alive:
                handle.kill()
                return
            self._idle.append(handle)

    # ---- the one public verb ----------------------------------------------
    def run_job(self, job: Job, run_kwargs: Dict[str, Any]) -> Any:
        """Run ``job`` in a supervised worker; see :meth:`WorkerHandle.run`.

        Worker lifecycle accounting happens here: a crash bumps
        ``serve.supervisor.crashes`` and the backoff streak; any
        successfully returned outcome (including a job-level error the
        worker survived) resets the streak.
        """
        handle = self._checkout()
        try:
            result = handle.run(
                job,
                run_kwargs,
                deadline_s=self.deadline_s,
                heartbeat_timeout_s=self.heartbeat_timeout_s,
            )
        except WorkerCrashError:
            counter("serve.supervisor.crashes").inc()
            with self._lock:
                self._crash_streak += 1
            handle.kill()
            raise
        except TaskTimeoutError:
            # The worker was killed deliberately; that is not a crash
            # streak — the environment is fine, the job was not.
            raise
        except ServeError:
            # The job failed but the worker caught it and survived; it
            # is healthy and reusable.
            with self._lock:
                self._crash_streak = 0
            self._checkin(handle)
            raise
        except BaseException:
            handle.kill()
            raise
        with self._lock:
            self._crash_streak = 0
        self._checkin(handle)
        return result

    def shutdown(self, timeout_s: float = 2.0) -> None:
        """Stop every idle worker; further checkouts refuse."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for handle in idle:
            handle.stop(timeout_s=timeout_s)
