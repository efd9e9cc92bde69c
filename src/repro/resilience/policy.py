"""Retry policy and the resilient task runner.

:class:`RetryPolicy` is the single knob bundle for fault-tolerant
execution: how many times to retry, how long to back off, the per-task
deadline, which exception types count as *transient* (retryable), and
an optional result validator that turns corrupted payloads into
retries.

:func:`run_with_policy` is the runner :func:`repro.exec.parallel_map`
applies to each of a sweep's fault-injected points, in-process; every
retry and timeout is recorded through the ``repro.obs`` counters
(``exec.retries``, ``exec.timeouts``, ``exec.invalid_results``).

Backoff is exponential and deliberately jitter-free — determinism is a
repo-wide invariant (the same study must produce the same trace twice).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional, Tuple, Type, TypeVar

from repro.errors import (
    CorruptResultError,
    ExecutionError,
    TaskTimeoutError,
    TransientError,
)
from repro.obs import counter, span
from repro.resilience.timeouts import call_with_timeout

__all__ = [
    "DEFAULT_POLICY",
    "RetryPolicy",
    "TaskFailure",
    "retry_policy",
    "run_with_policy",
]

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class RetryPolicy:
    """How one task may fail and recover.

    ``retries`` is the number of *additional* attempts after the first
    (so a task runs at most ``retries + 1`` times).  ``validate``, when
    given, is a predicate on the result; a result it rejects is treated
    as a :class:`CorruptResultError` and retried.
    """

    retries: int = 2
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 2.0
    timeout_s: Optional[float] = None
    retry_timeouts: bool = True
    retryable: Tuple[Type[BaseException], ...] = (TransientError, OSError)
    validate: Optional[Callable[[Any], bool]] = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ExecutionError(
                f"retry count cannot be negative, got {self.retries}"
            )
        if self.backoff_s < 0 or self.backoff_factor < 1.0:
            raise ExecutionError(
                "backoff must be non-negative with factor >= 1, got "
                f"{self.backoff_s}s x {self.backoff_factor}"
            )

    def delay_s(self, retry: int) -> float:
        """Backoff before the ``retry``-th retry (1-based), capped."""
        if retry < 1:
            raise ExecutionError(f"retry numbers are 1-based, got {retry}")
        raw = self.backoff_s * self.backoff_factor ** (retry - 1)
        return min(raw, self.max_backoff_s)

    def with_validate(self, validate: Callable[[Any], bool]) -> "RetryPolicy":
        """This policy with a validator (no-op if one is already set)."""
        if self.validate is not None:
            return self
        return replace(self, validate=validate)


#: Policy used when a caller asks for resilient execution without
#: specifying one: a couple of quick retries, no deadline.
DEFAULT_POLICY = RetryPolicy()


def retry_policy(
    retries: Optional[int] = None, timeout_s: Optional[float] = None
) -> Optional[RetryPolicy]:
    """The policy for a user's retry count and per-task deadline.

    ``None`` when neither is given, so the engine keeps its default;
    the CLI's ``--retries``/``--task-timeout`` and a served job's
    ``retries``/``task_timeout`` both come through here.
    """
    if retries is None and timeout_s is None:
        return None
    kwargs: Dict[str, Any] = {}
    if retries is not None:
        kwargs["retries"] = retries
    if timeout_s is not None:
        kwargs["timeout_s"] = timeout_s
    return RetryPolicy(**kwargs)


@dataclass(frozen=True)
class TaskFailure:
    """Structured record of one task's permanent failure.

    Returned (not raised) by the execution engine when the caller asked
    for graceful degradation, so one bad matrix point cannot discard a
    whole sweep.
    """

    error_type: str
    message: str
    attempts: int
    timed_out: bool

    @classmethod
    def from_exception(cls, exc: Exception) -> "TaskFailure":
        """The record for ``exc``, which may carry an ``attempts`` stamp
        from :func:`run_with_policy` (absent = one attempt)."""
        return cls(
            error_type=type(exc).__name__,
            message=str(exc),
            attempts=getattr(exc, "attempts", 1),
            timed_out=isinstance(exc, TaskTimeoutError),
        )

    def describe(self) -> str:
        note = " (timed out)" if self.timed_out else ""
        return (
            f"{self.error_type}: {self.message} "
            f"[{self.attempts} attempt{'s' if self.attempts != 1 else ''}{note}]"
        )


def run_with_policy(fn: Callable[[T], R], item: T, policy: RetryPolicy) -> R:
    """Run one task under a retry policy; raise only when it is exhausted.

    Transient errors (``policy.retryable``), timeouts (when
    ``policy.retry_timeouts``), and validation failures are retried
    with exponential backoff; anything else — a deterministic model
    error — propagates immediately.  The final exception carries an
    ``attempts`` attribute with the total attempt count.
    """
    attempt = 0
    while True:
        attempt += 1
        timed_out = False
        error: BaseException
        try:
            result = call_with_timeout(fn, item, policy.timeout_s)
        except TaskTimeoutError as exc:
            counter("exec.timeouts").inc()
            error, timed_out = exc, True
        except policy.retryable as exc:
            error = exc
        except Exception as exc:
            # Deterministic (non-retryable) error: propagate immediately,
            # still stamped with the attempt count for failure records.
            exc.attempts = attempt  # type: ignore[attr-defined]
            raise
        else:
            if policy.validate is None or policy.validate(result):
                return result
            counter("exec.invalid_results").inc()
            error = CorruptResultError(
                f"task returned an invalid payload: {result!r:.120}"
            )
        if attempt > policy.retries or (timed_out and not policy.retry_timeouts):
            error.attempts = attempt  # type: ignore[attr-defined]
            raise error
        counter("exec.retries").inc()
        with span(
            "exec.retry", attempt=attempt, error=type(error).__name__
        ):
            delay = policy.delay_s(attempt)
            if delay > 0:
                time.sleep(delay)
