"""Structured tracing: nested, monotonic-clock timed spans.

The tracer is the observability substrate every pipeline stage reports
into.  Design goals, in order:

1. **cheap when off** — a disabled tracer's ``span()`` returns one
   shared no-op context manager: no ``Span`` allocation, no clock read,
   no lock.  Instrumentation can therefore live permanently in hot
   paths (``simulate`` runs 90 times per study sweep);
2. **nested** — spans opened while another span is active on the same
   thread become its children, so one ``run_study`` trace is a tree:
   sweep -> matrix point -> simulate -> {codegen, cost, traffic,
   timing};
3. **thread-safe** — the active-span stack is thread-local, finished
   root spans are collected under a lock, and span ids are globally
   unique, so concurrent sweeps interleave without corruption.

Timing uses ``time.monotonic`` (never wall-clock) so durations are
immune to clock adjustments; the clock is injectable for deterministic
tests.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "enable_tracing",
    "disable_tracing",
    "span",
]


@dataclass
class Span:
    """One timed, attributed region of work (a node in the trace tree)."""

    name: str
    attrs: Dict[str, Any]
    span_id: int
    parent_id: Optional[int]
    thread_id: int
    t_start: float  # monotonic seconds
    t_end: Optional[float] = None
    children: List["Span"] = field(default_factory=list)
    #: Process that recorded the span.  Spans shipped back from worker
    #: processes keep their origin pid through serialisation and
    #: :meth:`Tracer.adopt`, so exporters can attribute parallel work to
    #: the worker that did it instead of flattening everything onto the
    #: parent process.
    pid: int = field(default_factory=os.getpid)

    @property
    def finished(self) -> bool:
        return self.t_end is not None

    @property
    def duration_s(self) -> float:
        """Span duration; 0.0 while the span is still open."""
        return (self.t_end - self.t_start) if self.t_end is not None else 0.0

    @property
    def duration_ms(self) -> float:
        return self.duration_s * 1e3

    def set_attr(self, key: str, value: Any) -> None:
        """Attach an attribute discovered mid-span (e.g. a result size)."""
        self.attrs[key] = value

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth-first, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> List["Span"]:
        """All descendants (including self) with the given name."""
        return [s for s in self.walk() if s.name == name]


class _NoopSpan:
    """Shared do-nothing context manager returned by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class _ActiveSpan:
    """Context manager that opens/closes one real span on a tracer."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name, self._attrs)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        s = self._span
        if s is None:  # __exit__ without __enter__; nothing to close
            return
        if exc_type is not None:
            s.attrs.setdefault("error", exc_type.__name__)
        self._tracer._close(s)


class Tracer:
    """Collects span trees; one instance per observed process (usually).

    ``enabled=False`` (the library default) makes :meth:`span` free of
    allocation and clock reads.  Finished *root* spans accumulate in the
    tracer and are read back with :meth:`roots` by the exporters.
    """

    def __init__(
        self,
        enabled: bool = True,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.enabled = enabled
        self._clock = clock
        self._lock = threading.Lock()
        self._roots: List[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._span_count = 0

    # ---- recording ---------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> "_ActiveSpan | _NoopSpan":
        """Context manager for one nested span; no-op when disabled."""
        if not self.enabled:
            return NOOP_SPAN
        return _ActiveSpan(self, name, attrs)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, attrs: Dict[str, Any]) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        s = Span(
            name=name,
            attrs=dict(attrs),
            span_id=next(self._ids),
            parent_id=parent.span_id if parent else None,
            thread_id=threading.get_ident(),
            t_start=self._clock(),
        )
        if parent is not None:
            parent.children.append(s)
        stack.append(s)
        return s

    def _close(self, s: Span) -> None:
        s.t_end = self._clock()
        stack = self._stack()
        # Close any abandoned inner spans too (defensive; the context
        # manager protocol normally unwinds in strict LIFO order).
        while stack and stack[-1] is not s:
            stack.pop()
        if stack:
            stack.pop()
        with self._lock:
            self._span_count += 1
            if s.parent_id is None:
                self._roots.append(s)

    def adopt(self, root: Span) -> Span:
        """Graft a finished span tree into this tracer's record.

        Used by :func:`repro.obs.merge_observations`: a worker process
        (the serving layer's supervised workers) traces into its own
        tracer, ships the finished trees back as flat dicts, and the
        parent adopts each rebuilt root here.  Span ids are reassigned
        from this tracer's sequence (worker ids would collide with
        locally recorded spans), and the tree is attached under the
        calling thread's innermost open span — so an adopted
        ``run_study`` tree lands inside the parent's ``serve.job`` span
        exactly as it would have in a thread worker.  With no open span
        the tree becomes a new root.  No-op when disabled.
        """
        if not self.enabled:
            return root
        parent = self.current_span()
        adopted = 0

        def relabel(s: Span, parent_id: Optional[int]) -> None:
            nonlocal adopted
            s.span_id = next(self._ids)
            s.parent_id = parent_id
            adopted += 1
            for child in s.children:
                relabel(child, s.span_id)

        relabel(root, parent.span_id if parent else None)
        if parent is not None:
            parent.children.append(root)
        with self._lock:
            self._span_count += adopted
            if parent is None:
                self._roots.append(root)
        return root

    # ---- reading back ------------------------------------------------------
    def roots(self) -> List[Span]:
        """Finished root spans, in completion order."""
        with self._lock:
            return list(self._roots)

    def spans(self) -> List[Span]:
        """Every finished span, depth-first from each root."""
        return [s for root in self.roots() for s in root.walk()]

    def find(self, name: str) -> List[Span]:
        return [s for s in self.spans() if s.name == name]

    def span_count(self) -> int:
        """Number of spans closed so far (roots and children)."""
        with self._lock:
            return self._span_count

    def current_span(self) -> Optional[Span]:
        """The innermost open span on the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def reset(self) -> None:
        """Drop all recorded spans (the calling thread's stack too)."""
        with self._lock:
            self._roots.clear()
            self._span_count = 0
        self._local = threading.local()


#: The library default: tracing off until a CLI flag or test enables it.
_default_tracer = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-global tracer all built-in instrumentation reports to."""
    return _default_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Replace the global tracer (returns it, for chaining)."""
    global _default_tracer
    _default_tracer = tracer
    return tracer


def enable_tracing() -> Tracer:
    """Install and return a fresh enabled global tracer."""
    return set_tracer(Tracer(enabled=True))


def disable_tracing() -> Tracer:
    """Install and return a fresh disabled global tracer."""
    return set_tracer(Tracer(enabled=False))


def span(name: str, **attrs: Any) -> "_ActiveSpan | _NoopSpan":
    """Open a span on the global tracer (the instrumentation entry point)."""
    return _default_tracer.span(name, **attrs)
