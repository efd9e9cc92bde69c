"""Bounded FIFO job queue with backpressure and micro-batch draining.

``queue.Queue`` almost fits, but the service needs three things it does
not offer together: *rejection* instead of blocking when full (the 429
contract — a tenant-facing server must never block its accept loop on a
slow sweep), *predicated draining* (pull several compatible jobs in one
lock acquisition so the orchestrator can micro-batch them into a single
vectorized sweep), and *removal* (cancelling a queued job).  So this is
a small condition-variable deque built for exactly those.

Every rejection is counted (``serve.rejected``) and the live depth is
exported as the ``serve.queue.depth`` gauge.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Deque, List, Optional

from repro.errors import QueueFullError
from repro.obs import counter, gauge
from repro.serve.jobs import Job

__all__ = ["JobQueue"]


class JobQueue:
    """A bounded FIFO of :class:`Job` records.

    ``limit`` bounds the number of *queued* (not yet dequeued) jobs;
    a ``put`` beyond it raises :class:`QueueFullError` carrying the
    caller-supplied ``retry_after_s`` estimate.  ``close()`` wakes every
    blocked ``get`` so worker threads can exit promptly.
    """

    def __init__(self, limit: int = 32) -> None:
        if limit < 1:
            raise QueueFullError(f"queue limit must be >= 1, got {limit}")
        self.limit = limit
        self._items: Deque[Job] = deque()
        self._cond = threading.Condition()
        self._closed = False

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def _set_depth_gauge(self) -> None:
        gauge("serve.queue.depth").set(len(self._items))

    def put(
        self, job: Job, retry_after_s: float = 1.0, force: bool = False
    ) -> None:
        """Enqueue ``job`` or reject it with backpressure.

        Rejection (a full or closed queue) raises
        :class:`QueueFullError` — the HTTP layer turns it into
        ``429 Retry-After: <retry_after_s>``.  ``force`` bypasses the
        depth limit (a closed queue still rejects): journal replay must
        re-admit every job the previous process had already accepted,
        even when there are more of them than one queue's worth.
        """
        with self._cond:
            if self._closed:
                raise QueueFullError(
                    "queue is closed (server shutting down)",
                    retry_after_s=retry_after_s,
                )
            if not force and len(self._items) >= self.limit:
                counter("serve.rejected").inc()
                raise QueueFullError(
                    f"job queue is full ({self.limit} queued)",
                    retry_after_s=retry_after_s,
                )
            self._items.append(job)
            self._set_depth_gauge()
            self._cond.notify()

    def get(self, timeout_s: Optional[float] = None) -> Optional[Job]:
        """Dequeue the oldest job; ``None`` on timeout or a closed queue."""
        with self._cond:
            while not self._items:
                if self._closed:
                    return None
                if not self._cond.wait(timeout=timeout_s):
                    return None
            job = self._items.popleft()
            self._set_depth_gauge()
            return job

    def drain(
        self, max_n: int, accept: Callable[[Job], bool]
    ) -> List[Job]:
        """Non-blocking: pop up to ``max_n`` oldest jobs passing ``accept``.

        Used by the orchestrator to micro-batch — the scan stops at the
        first job ``accept`` rejects, preserving FIFO fairness (a drill
        job at the head must not be overtaken forever by clean ones
        behind it).
        """
        taken: List[Job] = []
        with self._cond:
            while self._items and len(taken) < max_n:
                if not accept(self._items[0]):
                    break
                taken.append(self._items.popleft())
            if taken:
                self._set_depth_gauge()
        return taken

    def remove(self, job: Job) -> bool:
        """Remove a specific queued job (cancellation); False if gone."""
        with self._cond:
            try:
                self._items.remove(job)
            except ValueError:
                return False
            self._set_depth_gauge()
            return True

    def close(self) -> None:
        """Refuse new work and wake every blocked ``get``."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
