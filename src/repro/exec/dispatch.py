"""Study-point evaluation: the batch engine and the retry-policy map.

Every analytic study point runs through one engine,
:func:`repro.gpu.simulate_batch`: one codegen/cost evaluation per
unique group plus NumPy array math, bit-identical to the scalar
:func:`~repro.gpu.simulator.simulate` oracle.  Two entry points wrap
it for study items:

* :func:`map_study_points` — one study's points, with failure capture
  and the checkpoint hook (what :func:`repro.harness.run_study` calls);
* :func:`microbatch_study_points` — several tenants' point lists fused
  into one batch call (the serving layer's micro-batching primitive).

Points carrying an injected fault go through :func:`parallel_map`
instead: an in-process loop that runs each item under the retry
policy, in input order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional, Sequence, TypeVar

from repro.errors import TaskTimeoutError
from repro.obs import counter, span
from repro.resilience.policy import (
    DEFAULT_POLICY,
    RetryPolicy,
    TaskFailure,
    run_with_policy,
)

if TYPE_CHECKING:
    from repro.gpu.batch import BatchResults, Outcome

__all__ = [
    "map_study_points",
    "microbatch_study_points",
    "parallel_map",
]

T = TypeVar("T")
R = TypeVar("R")


def _run_one(
    fn: Callable[[T], R],
    item: T,
    policy: Optional[RetryPolicy],
    capture: bool,
) -> "R | TaskFailure":
    """Run one task, optionally under a retry policy.

    With neither a policy nor failure capture, this is a plain call.
    Otherwise the task runs through :func:`run_with_policy`; when
    ``capture`` is set, a permanently failed task degrades into a
    :class:`TaskFailure` record instead of raising
    (``KeyboardInterrupt``/``SystemExit`` still propagate, so a user
    abort is never swallowed).
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


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    policy: Optional[RetryPolicy] = None,
    capture_failures: bool = False,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> List[Any]:
    """Map ``fn`` over ``items`` in-process, returning results in order.

    Fault tolerance (see :mod:`repro.resilience`):

    * ``policy`` runs every task through retry/backoff/timeout handling;
    * ``capture_failures`` degrades a permanently failed task into a
      :class:`~repro.resilience.TaskFailure` list entry instead of
      raising, so one bad task cannot discard the rest of the map;
    * ``on_result`` is called as ``(index, result)`` in input order as
      each task finishes — the checkpoint hook.

    Without those options, exceptions raised by ``fn`` propagate
    unchanged.
    """
    results: List[Any] = []
    for i, item in enumerate(items):
        result = _run_one(fn, item, policy, capture_failures)
        results.append(result)
        if on_result is not None:
            on_result(i, result)
    return results


def map_study_points(
    items: Sequence[Any],
    *,
    on_result: Optional[Callable[[int, Outcome], None]] = None,
    check_invariants: Optional[bool] = None,
) -> BatchResults:
    """Evaluate study items as one batch call, capturing failures.

    Returns the batch's :class:`~repro.gpu.batch.BatchResults`: one
    :class:`~repro.gpu.simulator.SimulationResult` or
    :class:`~repro.resilience.TaskFailure` per item, in item order,
    each built from the evaluated columns only when read.
    ``on_result`` fires as ``(index, result)`` in item order (the
    checkpoint hook contract), as each chunk completes.  No retry
    policy applies: the batch is deterministic pure math, and its
    failure records match what the policy would produce for the same
    deterministic error.  Callers
    route points carrying injected faults through
    :func:`parallel_map` instead.
    """
    from repro.gpu.batch import BatchPoint, simulate_batch

    points = [
        BatchPoint(
            stencil=stencil,
            variant=variant,
            platform=platform,
            domain=domain,
            stencil_name=name,
        )
        for name, stencil, platform, variant, domain in items
    ]
    return simulate_batch(
        points,
        capture_failures=True,
        on_result=on_result,
        check_invariants=check_invariants,
    )


def microbatch_study_points(
    groups: Sequence[Sequence[Any]],
    *,
    check_invariants: Optional[bool] = None,
) -> List[List[Outcome]]:
    """Evaluate several small item lists as ONE batch call.

    The serving layer's micro-batching primitive: ``groups`` holds one
    study-item list per concurrent request, and all of them are
    concatenated into a single :func:`map_study_points` sweep — so N
    tiny tenant studies pay the batch engine's per-group setup
    (codegen, cost model) once per *unique* configuration instead of
    once per request.  Results come back split per group, each a list
    of built results (a slice of the batch's
    :class:`~repro.gpu.batch.BatchResults`) equal to what each caller's
    own :func:`map_study_points` call would have produced, since the
    batch engine is bit-identical point-wise and per-point failure
    records do not depend on batch composition.

    Callers route only *clean* work here (no fault plans — injected
    faults need the scalar retry path, which micro-batching would
    serialize behind unrelated tenants).  ``exec.dispatch.microbatch.*``
    counters record coalescing effectiveness.
    """
    flat = [item for group in groups for item in group]
    with span(
        "exec.microbatch", groups=len(groups), points=len(flat)
    ):
        outcomes = map_study_points(flat, check_invariants=check_invariants)
    counter("exec.dispatch.microbatch.groups").inc(len(groups))
    counter("exec.dispatch.microbatch.points").inc(len(flat))
    split: List[List[Outcome]] = []
    start = 0
    for group in groups:
        split.append(outcomes[start:start + len(group)])
        start += len(group)
    return split
