"""Deterministic fault injection for the execution engine.

A :class:`FaultPlan` names which tasks misbehave and how — raise a
transient error, hang past a deadline, return a corrupted payload, or
deliver a keyboard interrupt — keyed by a stable per-task key (for the
study sweep, the ``(stencil, platform, variant)`` triple).  Plans are
plain frozen data: the same plan produces the same fault sequence on
every run and in every process, which is what makes the chaos tests
(and ``--inject-faults``) reproducible.

:meth:`FaultPlan.seeded` draws faults pseudo-randomly but
deterministically: each key's fate is a pure function of ``(seed,
key)`` via SHA-256, so it does not depend on Python's per-process hash
salt or on task order.

Faults trigger *before* the wrapped function runs, and only for the
first ``failures`` attempts of a task (``failures < 0`` = every
attempt, a permanent fault), so a retrying executor recovers exactly
the result a fault-free run would have produced — bit-identical, since
the underlying simulation is deterministic.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar

from repro.errors import ExecutionError, TransientError
from repro.obs import counter

__all__ = [
    "FAULT_KINDS",
    "CorruptPayload",
    "FaultSpec",
    "FaultPlan",
    "FaultyFunction",
    "dev_fault_plan",
]

T = TypeVar("T")
R = TypeVar("R")

#: Supported fault kinds.
FAULT_KINDS = ("raise", "hang", "corrupt", "interrupt")

#: Seeded dev-mode chaos rates: transient raises and corrupted payloads
#: only (no hangs — a hang needs a task timeout to recover, and a dev
#: flag should never wedge a terminal).
DEV_RAISE_RATE = 0.06
DEV_CORRUPT_RATE = 0.03


class CorruptPayload:
    """The poison value a ``corrupt`` fault returns instead of a result.

    Fails any type-based result validation (it is not a
    ``SimulationResult``).
    """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<corrupt payload>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CorruptPayload)

    def __hash__(self) -> int:
        return hash(CorruptPayload)


@dataclass(frozen=True)
class FaultSpec:
    """How one task misbehaves.

    ``failures`` bounds how many leading attempts are sabotaged
    (``< 0`` = all of them); ``hang_s`` is how long a ``hang`` sleeps —
    pick it well past the executor's per-task deadline.
    """

    kind: str
    failures: int = 1
    hang_s: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ExecutionError(
                f"unknown fault kind {self.kind!r}; supported: {FAULT_KINDS}"
            )


def _unit_draw(seed: int, key: Any) -> float:
    """Deterministic uniform draw in [0, 1) from (seed, key)."""
    digest = hashlib.sha256(f"{seed}|{key!r}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """An immutable map of task key -> :class:`FaultSpec`."""

    faults: Tuple[Tuple[Any, FaultSpec], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "_by_key", dict(self.faults))

    @staticmethod
    def seeded(
        seed: int,
        keys: Tuple[Any, ...],
        raise_rate: float = 0.0,
        hang_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        failures: int = 1,
        hang_s: float = 30.0,
    ) -> "FaultPlan":
        """Draw a plan over ``keys``; pure function of (seed, key).

        Keys must have a stable ``repr`` across processes (tuples of
        strings/numbers qualify); the rates partition [0, 1) so one key
        receives at most one fault.
        """
        if raise_rate + hang_rate + corrupt_rate > 1.0:
            raise ExecutionError("fault rates must sum to at most 1.0")
        chosen = []
        for key in keys:
            u = _unit_draw(seed, key)
            if u < raise_rate:
                spec = FaultSpec("raise", failures=failures)
            elif u < raise_rate + hang_rate:
                spec = FaultSpec("hang", failures=failures, hang_s=hang_s)
            elif u < raise_rate + hang_rate + corrupt_rate:
                spec = FaultSpec("corrupt", failures=failures)
            else:
                continue
            chosen.append((key, spec))
        return FaultPlan(faults=tuple(chosen))

    def spec_for(self, key: Any) -> Optional[FaultSpec]:
        return self._by_key.get(key)  # type: ignore[attr-defined]

    def count(self, kind: str) -> int:
        """Number of planned faults of one kind."""
        return sum(1 for _, spec in self.faults if spec.kind == kind)

    def __len__(self) -> int:
        return len(self.faults)

    def wrap(
        self,
        fn: Callable[[T], R],
        key_fn: Optional[Callable[[T], Any]] = None,
    ) -> "FaultyFunction":
        """A callable that injects this plan around ``fn``.

        ``key_fn`` maps a task item to its plan key (default: the item
        itself is the key).
        """
        return FaultyFunction(plan=self, fn=fn, key_fn=key_fn)


class FaultyFunction:
    """Callable wrapper that sabotages planned attempts of ``fn``.

    Attempt numbers are counted per task key within this instance; the
    retry policy re-calls the same instance, so all attempts of one task
    see the same counter and the injected failure sequence is the same
    on every run.
    """

    def __init__(
        self,
        plan: FaultPlan,
        fn: Callable[[Any], Any],
        key_fn: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        self.plan = plan
        self.fn = fn
        self.key_fn = key_fn
        self._attempts: Dict[Any, int] = {}

    def __call__(self, item: Any) -> Any:
        key = self.key_fn(item) if self.key_fn is not None else item
        spec = self.plan.spec_for(key)
        if spec is None:
            return self.fn(item)
        seen = self._attempts.get(key, 0)
        self._attempts[key] = seen + 1
        if 0 <= spec.failures <= seen:
            return self.fn(item)
        counter(f"faults.injected.{spec.kind}").inc()
        if spec.kind == "raise":
            raise TransientError(
                f"injected fault on {key} (attempt {seen + 1})"
            )
        if spec.kind == "interrupt":
            raise KeyboardInterrupt(f"injected interrupt on {key}")
        if spec.kind == "hang":
            time.sleep(spec.hang_s)
            return self.fn(item)
        return CorruptPayload()


def dev_fault_plan(seed: Optional[int], keys: Tuple[Any, ...]) -> Optional[FaultPlan]:
    """The seeded dev chaos plan over ``keys``, or ``None`` without a seed.

    One plan for every chaos entry point — the CLI's
    ``--inject-faults``, a served job's ``inject_faults`` option and
    ``scripts/bench_smoke.py``'s chaos gate — so they inject the same
    faults for the same seed.
    """
    if seed is None:
        return None
    return FaultPlan.seeded(
        seed, keys, raise_rate=DEV_RAISE_RATE, corrupt_rate=DEV_CORRUPT_RATE
    )
