"""``repro.resilience`` — fault tolerance for the execution engine.

Three pieces, composed by :func:`repro.exec.parallel_map`, the sweep
harness, and the serving layer:

* :class:`RetryPolicy` + :func:`run_with_policy` — retry with
  exponential backoff, per-task deadlines, transient/deterministic
  error discrimination, and result validation;
* :class:`TaskFailure` — the structured record a permanently failed
  task degrades into instead of killing a whole sweep;
* :class:`FaultPlan` / :class:`FaultSpec` — a deterministic, seeded
  fault-injection harness for chaos tests and ``--inject-faults``.

:func:`retry_policy` and :func:`dev_fault_plan` turn a user's retry,
deadline and chaos-seed settings into a policy and a plan, the same way
for the CLI, the serving layer and the smoke gates.

Every retry, timeout, and injected fault is observable through the
``repro.obs`` counters (``exec.retries``, ``exec.timeouts``,
``exec.invalid_results``, ``faults.injected.*``).
"""

from repro.resilience.faults import (
    FAULT_KINDS,
    CorruptPayload,
    FaultPlan,
    FaultSpec,
    FaultyFunction,
    dev_fault_plan,
)
from repro.resilience.policy import (
    DEFAULT_POLICY,
    RetryPolicy,
    TaskFailure,
    retry_policy,
    run_with_policy,
)
from repro.resilience.timeouts import call_with_timeout

__all__ = [
    "DEFAULT_POLICY",
    "FAULT_KINDS",
    "CorruptPayload",
    "FaultPlan",
    "FaultSpec",
    "FaultyFunction",
    "RetryPolicy",
    "TaskFailure",
    "call_with_timeout",
    "dev_fault_plan",
    "retry_policy",
    "run_with_policy",
]
