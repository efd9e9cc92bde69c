"""Study-point evaluation and the process pool's break-even model.

Every analytic study point runs through one engine,
:func:`repro.gpu.simulate_batch`: one codegen/cost evaluation per
unique group plus NumPy array math, bit-identical to the scalar
:func:`~repro.gpu.simulator.simulate` oracle.  Two entry points wrap
it for study items:

* :func:`map_study_points` — one study's points, with failure capture
  and the checkpoint hook (what :func:`repro.harness.run_study` calls);
* :func:`microbatch_study_points` — several tenants' point lists fused
  into one batch call (the serving layer's micro-batching primitive).

Points carrying an injected fault go through the scalar
:func:`repro.exec.parallel_map` instead, under the retry policy — and
only there does the process pool come in.  Its break-even model:

    overhead(jobs)  =  POOL_STARTUP_S + POOL_PER_WORKER_S * jobs
    gain            =  1 - 1 / min(jobs, cpus)
    break_even_n    =  overhead(jobs) / (per_item_cost * gain)

A pool run only pays off past ``break_even_n`` items; below it (and
always on a single-CPU box, where ``gain = 0`` makes the break-even
infinite) ``parallel_map`` falls back to the serial loop.  Per-item
cost comes from an EWMA over *measured* serial runs (recorded by
``parallel_map`` itself, keyed by function identity) — when no
measurement exists yet, ``parallel_map`` probes the first few items
serially and decides with live numbers.

The model is observable: ``exec.dispatch.serial_fallback`` counts pool
demotions, and the ``exec.dispatch.break_even_n`` /
``exec.dispatch.item_cost_s`` gauges expose the live numbers.
"""

from __future__ import annotations

import functools
import math
import os
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.obs import counter, gauge, span

__all__ = [
    "POOL_PER_WORKER_S",
    "POOL_STARTUP_S",
    "PROBE_ITEMS",
    "break_even_points",
    "clear_cost_model",
    "map_study_points",
    "microbatch_study_points",
    "observed_cost",
    "record_cost",
]

#: Serial probe size when the cost model has no estimate for a function.
PROBE_ITEMS = 8

#: Pool overhead model: fixed startup plus per-worker spawn/teardown.
#: Calibrated from BENCH_sweep.json history (a 4-job pool over the
#: 90-point study pays ~0.2 s before the first task runs).
POOL_STARTUP_S = 0.08
POOL_PER_WORKER_S = 0.03

#: EWMA smoothing for the measured per-item cost model.
_EWMA_ALPHA = 0.5

_COST_MODEL: Dict[str, float] = {}


def _fn_key(fn: Callable[..., Any]) -> str:
    """Stable identity for the cost model: module-qualified name.

    ``functools.partial`` and wrapper objects resolve to the underlying
    function so a partial or a fault-plan wrapper shares history with
    direct calls.
    """
    while isinstance(fn, functools.partial):
        fn = fn.func
    inner = getattr(fn, "fn", None)
    if callable(inner):  # FaultyFunction-style wrappers
        fn = inner
    module = getattr(fn, "__module__", type(fn).__module__)
    qualname = getattr(fn, "__qualname__", type(fn).__qualname__)
    return f"{module}.{qualname}"


def observed_cost(fn: Callable[..., Any]) -> Optional[float]:
    """EWMA seconds-per-item for ``fn``, or ``None`` if never measured."""
    return _COST_MODEL.get(_fn_key(fn))


def record_cost(fn: Callable[..., Any], per_item_s: float) -> None:
    """Fold one measured serial run into the per-item cost model."""
    if per_item_s < 0:
        return
    key = _fn_key(fn)
    previous = _COST_MODEL.get(key)
    value = (
        per_item_s
        if previous is None
        else _EWMA_ALPHA * per_item_s + (1.0 - _EWMA_ALPHA) * previous
    )
    _COST_MODEL[key] = value
    gauge("exec.dispatch.item_cost_s").set(value)


def clear_cost_model() -> None:
    """Drop all measured costs (tests and long-lived processes)."""
    _COST_MODEL.clear()


def pool_overhead_s(jobs: int) -> float:
    """Modelled fixed cost of standing up a ``jobs``-worker pool."""
    return POOL_STARTUP_S + POOL_PER_WORKER_S * jobs


def break_even_points(
    per_item_s: float, jobs: int, cpus: Optional[int] = None
) -> float:
    """Items beyond which a pool beats the serial loop.

    ``inf`` when parallelism cannot pay for itself at all: one
    effective worker (``min(jobs, cpus) <= 1``) or free items.
    """
    cpus = cpus if cpus is not None else (os.cpu_count() or 1)
    effective = min(jobs, cpus)
    if effective <= 1 or per_item_s <= 0:
        return math.inf
    gain = 1.0 - 1.0 / effective
    return pool_overhead_s(jobs) / (per_item_s * gain)


def map_study_points(
    items: Sequence[Any],
    *,
    on_result: Optional[Callable[[int, Any], None]] = None,
    check_invariants: Optional[bool] = None,
) -> List[Any]:
    """Evaluate study items as one batch call, capturing failures.

    Returns one :class:`~repro.gpu.simulator.SimulationResult` or
    :class:`~repro.resilience.TaskFailure` per item, in item order;
    ``on_result`` fires as ``(index, result)`` in item order (the
    checkpoint hook contract).  No retry policy applies: the batch is
    deterministic pure math, and its failure records match what the
    policy would produce for the same deterministic error.  Callers
    route points carrying injected faults through the scalar
    :func:`repro.exec.parallel_map` instead.
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
) -> List[List[Any]]:
    """Evaluate several small item lists as ONE batch call.

    The serving layer's micro-batching primitive: ``groups`` holds one
    study-item list per concurrent request, and all of them are
    concatenated into a single :func:`map_study_points` sweep — so N
    tiny tenant studies pay the batch engine's per-group setup
    (codegen, cost model) once per *unique* configuration instead of
    once per request.  Results come back split per group, exactly what
    each caller's own :func:`map_study_points` call would have
    produced, since the batch engine is bit-identical point-wise and
    per-point failure records do not depend on batch composition.

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
    split: List[List[Any]] = []
    start = 0
    for group in groups:
        split.append(outcomes[start:start + len(group)])
        start += len(group)
    return split
