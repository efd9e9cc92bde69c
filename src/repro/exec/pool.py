"""Process-pool parallel map with observability re-aggregation.

The scalar engine behind ``run_study(..., parallel=N)``: it runs the
study's fault-injected points under the retry policy (clean points go
through the batch engine, :func:`repro.exec.map_study_points`).  Design
points:

* **chunked distribution** — the item list is split into contiguous
  chunks (several per worker, for load balancing) and each chunk is one
  pool task, amortising pickling and per-task observability capture;
* **deterministic merge** — results come back keyed by chunk index and
  are reassembled in input order, so a parallel sweep produces exactly
  the same result list (and the same downstream dict ordering) as a
  serial one;
* **worker-side observability** — each chunk runs under a fresh
  :class:`~repro.obs.metrics.MetricsRegistry` and (when the parent is
  tracing) a fresh enabled :class:`~repro.obs.trace.Tracer`; the
  counter snapshot and flattened span trees travel back with the
  results and are re-aggregated into the parent's registry/tracer, so
  ``simulate.calls`` and the ``study.point`` span tree look identical
  whether the sweep ran in-process or across four workers;
* **serial fallback** — ``jobs <= 1`` (the default) runs the plain list
  comprehension in-process: no pool, no capture, no behaviour change;
  a ``jobs > 1`` request below the measured break-even size does too
  (see :mod:`repro.exec.dispatch`).

``jobs=None`` consults the ``REPRO_JOBS`` environment variable (the CLI
``--jobs`` flag overrides it); ``jobs=0`` means one worker per CPU.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro import obs
from repro.errors import ExecutionError, TaskTimeoutError
from repro.exec.dispatch import (
    PROBE_ITEMS,
    break_even_points,
    observed_cost,
    record_cost,
)
from repro.obs.export import span_to_dict, spans_from_dicts
from repro.obs.metrics import Counter
from repro.resilience.policy import (
    DEFAULT_POLICY,
    RetryPolicy,
    TaskFailure,
    run_with_policy,
)

__all__ = [
    "JOBS_ENV",
    "capture_counters",
    "merge_observations",
    "parallel_map",
    "resolve_jobs",
]

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when ``jobs`` is not given explicitly.
JOBS_ENV = "REPRO_JOBS"

#: Target number of chunks per worker (finer chunks balance load,
#: coarser chunks amortise pickling; 4 is the usual compromise).
_CHUNKS_PER_WORKER = 4


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Normalise a job-count request to a concrete worker count.

    ``None`` falls back to ``$REPRO_JOBS`` (unset/empty -> 1, serial);
    ``0`` means one worker per available CPU; negative counts are
    rejected.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ExecutionError(
                f"${JOBS_ENV} must be an integer, got {raw!r}"
            ) from None
    if jobs < 0:
        raise ExecutionError(f"job count cannot be negative, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def _chunk_bounds(n: int, nchunks: int) -> List[Tuple[int, int]]:
    """Split ``range(n)`` into ``nchunks`` balanced contiguous slices."""
    nchunks = max(1, min(nchunks, n))
    base, extra = divmod(n, nchunks)
    bounds = []
    start = 0
    for i in range(nchunks):
        end = start + base + (1 if i < extra else 0)
        bounds.append((start, end))
        start = end
    return bounds


def capture_counters(registry: obs.MetricsRegistry) -> Dict[str, int]:
    """Counter name -> value for every counter in ``registry``.

    Public because every worker-side execution venue (this pool's
    chunks, the serving layer's supervised worker processes) captures
    its observations the same way before shipping them to the parent.
    """
    return {
        name: registry.get(name).value
        for name in registry.names()
        if isinstance(registry.get(name), Counter)
    }


def _run_one(
    fn: Callable[[T], R],
    item: T,
    policy: Optional[RetryPolicy],
    capture: bool,
) -> "R | TaskFailure":
    """Run one task, optionally under a retry policy.

    With neither a policy nor failure capture, this is a plain call —
    the zero-overhead legacy path.  Otherwise the task runs through
    :func:`run_with_policy`; when ``capture`` is set, a permanently
    failed task degrades into a :class:`TaskFailure` record instead of
    raising (``KeyboardInterrupt``/``SystemExit`` still propagate, so a
    user abort is never swallowed).
    """
    if policy is None and not capture:
        return fn(item)
    try:
        return run_with_policy(fn, item, policy or DEFAULT_POLICY)
    except Exception as exc:
        if not capture:
            raise
        return TaskFailure(
            error_type=type(exc).__name__,
            message=str(exc),
            attempts=getattr(exc, "attempts", 1),
            timed_out=isinstance(exc, TaskTimeoutError),
        )


def _run_chunk(
    fn: Callable[[T], R],
    items: Sequence[T],
    trace: bool,
    policy: Optional[RetryPolicy] = None,
    capture: bool = False,
) -> Tuple[List[Any], Dict[str, int], List[Dict[str, Any]]]:
    """Worker-side chunk runner: fresh obs state, capture, return.

    Installs a fresh registry (and, when the parent was tracing, a
    fresh enabled tracer) so this chunk's instrumentation is isolated
    from whatever the forked process inherited, then returns the
    results plus the counter snapshot and flattened finished spans.
    Retries run here, in the worker that owns the chunk, so their
    counters and spans travel back with everything else.
    """
    registry = obs.set_registry(obs.MetricsRegistry())
    tracer = obs.set_tracer(obs.Tracer(enabled=trace))
    results = [_run_one(fn, item, policy, capture) for item in items]
    counters = capture_counters(registry)
    spans = (
        [span_to_dict(s) for root in tracer.roots() for s in root.walk()]
        if trace
        else []
    )
    return results, counters, spans


def merge_observations(
    counters: Dict[str, int], span_dicts: List[Dict[str, Any]]
) -> None:
    """Fold one worker's counters and spans into the parent.

    Counterpart of :func:`capture_counters` (plus span dicts); shared by
    the pool's chunk merge and the serving supervisor's job replies.
    """
    for name, value in counters.items():
        if value:
            obs.counter(name).inc(value)
    tracer = obs.get_tracer()
    if tracer.enabled and span_dicts:
        for root in spans_from_dicts(span_dicts):
            tracer.adopt(root)


def _run_serial(
    fn: Callable[[T], R],
    items: Sequence[T],
    policy: Optional[RetryPolicy],
    capture: bool,
    on_result: Optional[Callable[[int, Any], None]],
    results: List[Any],
    start: int = 0,
) -> None:
    """Run ``items[start:]`` in-process, appending to ``results``."""
    for i in range(start, len(items)):
        result = _run_one(fn, items[i], policy, capture)
        results.append(result)
        if on_result is not None:
            on_result(i, result)


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: Optional[int] = None,
    chunks_per_worker: int = _CHUNKS_PER_WORKER,
    policy: Optional[RetryPolicy] = None,
    capture_failures: bool = False,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> List[Any]:
    """Map ``fn`` over ``items``, optionally across worker processes.

    Results are returned in input order regardless of completion order,
    and worker-side counters/spans are re-aggregated into the parent's
    observability state (chunks merge in input order too, so the
    adopted span sequence is deterministic).  ``fn`` and the items must
    be picklable when ``jobs > 1`` — module-level functions (or
    :func:`functools.partial` over them) qualify.

    Fault tolerance (see :mod:`repro.resilience`):

    * ``policy`` runs every task through retry/backoff/timeout handling
      — in the worker that owns the task when parallel, in-process when
      serial, so behaviour is identical at any job count;
    * ``capture_failures`` degrades a permanently failed task into a
      :class:`~repro.resilience.TaskFailure` list entry instead of
      raising, so one bad task cannot discard the rest of the map;
    * ``on_result`` is called in the parent as ``(index, result)`` in
      strict input order as results arrive (per item when serial, per
      merged chunk when parallel) — the checkpoint hook.

    Break-even fallback (see :mod:`repro.exec.dispatch`): a ``jobs > 1``
    request only actually pays the pool's startup cost when the
    measured per-item cost says the pool will win.  With a recorded
    cost estimate below the break-even size the whole map runs serially
    (counted as ``exec.dispatch.serial_fallback``); with no estimate yet
    the first few items run serially as a probe and the live
    measurement decides.  Serial runs (including probes) feed the cost
    model.  Results are identical either way — only the execution venue
    changes.

    Without those options, exceptions raised by ``fn`` propagate
    unchanged; observations from chunks that completed before the
    failure are still merged.
    """
    items = list(items)
    jobs = resolve_jobs(jobs)
    fallback = None
    probe = 0
    if jobs > 1 and len(items) > 1:
        estimate = observed_cost(fn)
        if estimate is None:
            probe = min(PROBE_ITEMS, len(items))
        else:
            break_even = break_even_points(estimate, jobs)
            if break_even != float("inf"):
                obs.gauge("exec.dispatch.break_even_n").set(break_even)
            if len(items) < break_even:
                fallback = "break_even"
    # The ``exec.parallel_map`` span wraps dispatch in *both* the serial
    # and the parallel path, so serial and parallel traces keep the same
    # shape (the PR-2 equivalence contract).  Task spans — run inline
    # when serial, adopted from workers when parallel — nest inside it,
    # which makes the span's *self*-time exactly the engine's dispatch
    # overhead (chunking, pickling, pool scheduling, merge): the number
    # the profiler compares against per-task cost when deciding whether
    # the pool pays for itself.
    if jobs <= 1 or len(items) <= 1 or fallback:
        with obs.span("exec.parallel_map", items=len(items), jobs=1) as sp:
            if fallback:
                obs.counter("exec.dispatch.serial_fallback").inc()
                if sp is not None:
                    sp.set_attr("fallback", fallback)
            results: List[Any] = []
            t0 = time.perf_counter()
            _run_serial(
                fn, items, policy, capture_failures, on_result, results
            )
            if items:
                record_cost(
                    fn, (time.perf_counter() - t0) / len(items)
                )
            return results
    jobs = min(jobs, len(items))
    trace = obs.get_tracer().enabled
    results = []
    with obs.span("exec.parallel_map", items=len(items), jobs=jobs) as sp:
        if probe:
            # No cost estimate yet: run the first items in-process, then
            # let the live measurement pick the venue for the rest.
            t0 = time.perf_counter()
            _run_serial(
                fn, items[:probe], policy, capture_failures, on_result,
                results,
            )
            per_item = (time.perf_counter() - t0) / probe
            record_cost(fn, per_item)
            break_even = break_even_points(per_item, jobs)
            if break_even != float("inf"):
                obs.gauge("exec.dispatch.break_even_n").set(break_even)
            if sp is not None:
                sp.set_attr("probed", probe)
            if len(items) - probe < break_even:
                obs.counter("exec.dispatch.serial_fallback").inc()
                if sp is not None:
                    sp.set_attr("fallback", "probe")
                    sp.set_attr("jobs", 1)
                _run_serial(
                    fn, items, policy, capture_failures, on_result,
                    results, start=probe,
                )
                return results
        remaining = items[probe:]
        pool_jobs = min(jobs, len(remaining))
        bounds = _chunk_bounds(len(remaining), pool_jobs * chunks_per_worker)
        if sp is not None:
            sp.set_attr("chunks", len(bounds))
        with ProcessPoolExecutor(max_workers=pool_jobs) as pool:
            futures = [
                pool.submit(
                    _run_chunk, fn, remaining[start:end], trace, policy,
                    capture_failures,
                )
                for start, end in bounds
            ]
            # Merge strictly in submission (= input) order: chunk results
            # concatenate back into the original sequence and worker spans
            # adopt in a deterministic order.
            for future in futures:
                chunk_results, counters, span_dicts = future.result()
                merge_observations(counters, span_dicts)
                if on_result is not None:
                    for offset, result in enumerate(chunk_results):
                        on_result(len(results) + offset, result)
                results.extend(chunk_results)
    return results
