"""Retry policy and the resilient task runner.

:class:`RetryPolicy` is the single knob bundle for fault-tolerant
execution: how many times to retry, the first backoff, the per-task
deadline, and an optional result validator that turns corrupted
payloads into retries.  The rest is fixed here: which exception types
count as *transient* (:data:`RETRYABLE`), that timeouts retry, and the
backoff's growth (:data:`BACKOFF_FACTOR`) and cap
(:data:`MAX_BACKOFF_S`).

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
    "BACKOFF_FACTOR",
    "DEFAULT_POLICY",
    "MAX_BACKOFF_S",
    "RETRYABLE",
    "RetryPolicy",
    "TaskFailure",
    "retry_policy",
    "run_with_policy",
]

T = TypeVar("T")
R = TypeVar("R")

#: Each retry's backoff is this multiple of the one before ...
BACKOFF_FACTOR = 2.0
#: ... up to this cap (seconds).
MAX_BACKOFF_S = 2.0
#: Exception types that count as transient, so retrying them can help.
#: Timeouts (:class:`TaskTimeoutError`) and invalid payloads retry too.
RETRYABLE: Tuple[Type[BaseException], ...] = (TransientError, OSError)


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
    timeout_s: Optional[float] = None
    validate: Optional[Callable[[Any], bool]] = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ExecutionError(
                f"retry count cannot be negative, got {self.retries}"
            )
        if self.backoff_s < 0:
            raise ExecutionError(
                f"backoff must be non-negative, got {self.backoff_s}s"
            )

    def delay_s(self, retry: int) -> float:
        """Backoff before the ``retry``-th retry (1-based), capped."""
        if retry < 1:
            raise ExecutionError(f"retry numbers are 1-based, got {retry}")
        raw = self.backoff_s * BACKOFF_FACTOR ** (retry - 1)
        return min(raw, MAX_BACKOFF_S)

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

    Transient errors (:data:`RETRYABLE`), timeouts, and validation
    failures are retried with exponential backoff; anything else — a
    deterministic model error — propagates immediately.  The final
    exception carries an ``attempts`` attribute with the total attempt
    count.
    """
    attempt = 0
    while True:
        attempt += 1
        error: BaseException
        try:
            result = call_with_timeout(fn, item, policy.timeout_s)
        except TaskTimeoutError as exc:
            counter("exec.timeouts").inc()
            error = exc
        except RETRYABLE as exc:
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
        if attempt > policy.retries:
            error.attempts = attempt  # type: ignore[attr-defined]
            raise error
        counter("exec.retries").inc()
        with span(
            "exec.retry", attempt=attempt, error=type(error).__name__
        ):
            delay = policy.delay_s(attempt)
            if delay > 0:
                time.sleep(delay)
