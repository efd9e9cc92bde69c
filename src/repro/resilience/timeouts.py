"""Per-task deadlines: run a callable under a wall-clock timeout.

Two strategies, picked automatically:

* **signal-based** (preferred) — ``SIGALRM`` + ``setitimer`` raises
  :class:`~repro.errors.TaskTimeoutError` *inside* the running task, so
  the exception unwinds through any open ``with span(...)`` blocks and
  the trace stays consistent.  Requires the POSIX itimer API and the
  main thread (both true for a CLI sweep and for the serving layer's
  supervised worker processes).
* **thread-based** (fallback) — the task runs on a daemon thread that
  is abandoned on timeout.  Portable, but the hung thread keeps running
  until the process exits and any span it opened is never closed; only
  used where signals are unavailable.
"""

from __future__ import annotations

import signal
import threading
from typing import Any, Callable, Optional, TypeVar

from repro.errors import TaskTimeoutError

__all__ = ["call_with_timeout"]

T = TypeVar("T")
R = TypeVar("R")

#: Whether the preferred signal strategy exists on this platform.
_HAS_ITIMER = hasattr(signal, "setitimer") and hasattr(signal, "SIGALRM")


def _call_with_alarm(fn: Callable[[T], R], item: T, timeout_s: float) -> R:
    """Signal path: the timeout interrupts the task where it runs."""

    def _on_alarm(signum: int, frame: Any) -> None:
        raise TaskTimeoutError(
            f"task exceeded its {timeout_s:g}s deadline"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return fn(item)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _call_in_thread(fn: Callable[[T], R], item: T, timeout_s: float) -> R:
    """Fallback path: run on a daemon thread, abandon it on timeout."""
    box: dict = {}

    def _run() -> None:
        try:
            box["result"] = fn(item)
        except BaseException as exc:  # re-raised on the caller's thread
            box["error"] = exc

    worker = threading.Thread(target=_run, daemon=True)
    worker.start()
    worker.join(timeout_s)
    if worker.is_alive():
        raise TaskTimeoutError(
            f"task exceeded its {timeout_s:g}s deadline (abandoned thread)"
        )
    if "error" in box:
        raise box["error"]
    return box["result"]


def call_with_timeout(
    fn: Callable[[T], R], item: T, timeout_s: Optional[float]
) -> R:
    """Run ``fn(item)``, raising :class:`TaskTimeoutError` past the deadline.

    ``timeout_s`` of ``None`` (or ``<= 0``) means no deadline — the call
    is direct with zero overhead.
    """
    if not timeout_s or timeout_s <= 0:
        return fn(item)
    if _HAS_ITIMER and threading.current_thread() is threading.main_thread():
        return _call_with_alarm(fn, item, timeout_s)
    return _call_in_thread(fn, item, timeout_s)
