"""``repro.exec`` — study-point evaluation and the process pool.

Analytic study points run as one batch call through
:func:`map_study_points` (and, fused across serving tenants,
:func:`microbatch_study_points`).  Points carrying an injected fault run
through :func:`parallel_map`: a chunked process-pool map with
deterministic result merge, worker-side tracer/metric capture and a
measured break-even fallback to the serial loop.  ``jobs <= 1`` (the
default) bypasses the pool entirely.

Fault tolerance — retries, per-task timeouts, graceful degradation,
and fault injection — comes from :mod:`repro.resilience`; the policy
and failure types are re-exported here for convenience.
"""

from repro.exec.dispatch import (
    break_even_points,
    clear_cost_model,
    map_study_points,
    microbatch_study_points,
    observed_cost,
    record_cost,
)
from repro.exec.pool import (
    JOBS_ENV,
    capture_counters,
    merge_observations,
    parallel_map,
    resolve_jobs,
)
from repro.exec.workers import (
    StudyItem,
    simulate_point,
    study_item_key,
    validate_simulation,
)
from repro.resilience import FaultPlan, FaultSpec, RetryPolicy, TaskFailure

__all__ = [
    "JOBS_ENV",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "StudyItem",
    "TaskFailure",
    "break_even_points",
    "capture_counters",
    "clear_cost_model",
    "map_study_points",
    "merge_observations",
    "microbatch_study_points",
    "observed_cost",
    "parallel_map",
    "record_cost",
    "resolve_jobs",
    "simulate_point",
    "study_item_key",
    "validate_simulation",
]
