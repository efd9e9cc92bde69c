"""``repro.exec`` — study-point evaluation.

Analytic study points run as one batch call through
:func:`map_study_points` (and, fused across serving tenants,
:func:`microbatch_study_points`).  Points carrying an injected fault
run through :func:`parallel_map`: an in-process loop that applies the
retry policy to each point and returns results in input order.

Fault tolerance — retries, per-task timeouts, graceful degradation,
and fault injection — comes from :mod:`repro.resilience`; the policy
and failure types are re-exported here for convenience.
"""

from repro.exec.dispatch import (
    map_study_points,
    microbatch_study_points,
    parallel_map,
)
from repro.exec.workers import (
    StudyItem,
    simulate_point,
    study_item_key,
    validate_simulation,
)
from repro.resilience import FaultPlan, FaultSpec, RetryPolicy, TaskFailure

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "StudyItem",
    "TaskFailure",
    "map_study_points",
    "microbatch_study_points",
    "parallel_map",
    "simulate_point",
    "study_item_key",
    "validate_simulation",
]
