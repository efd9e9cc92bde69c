"""Exhaustive (and pruned) autotuning search over the tuning space.

The objective is the simulator's predicted sweep time — the same role
real BrickLib autotuning plays with on-device timings.  Results are
memoised per (stencil, platform, domain) so repeated tuning calls are
free, mirroring a persisted autotuning database; a cache hit is
labelled with the caller's stencil name.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.dsl.stencil import Stencil
from repro.errors import SimulationError
from repro.exec import RetryPolicy, TaskFailure
from repro.gpu.batch import BatchPoint, BatchResults, simulate_batch
from repro.gpu.progmodel import Platform
from repro.gpu.simulator import SimulationResult
from repro.obs import counter, span
from repro.tuning.space import TuningPoint, TuningSpace


@dataclass(frozen=True)
class TuningOutcome:
    """Best configuration found plus the full ranking."""

    best: TuningPoint
    best_result: SimulationResult
    ranking: Tuple[Tuple[TuningPoint, float], ...]  # (point, time_s), sorted

    @property
    def best_time_s(self) -> float:
        return self.best_result.time_s

    def speedup_over(self, point: TuningPoint) -> float:
        """How much faster the winner is than a given configuration."""
        for p, t in self.ranking:
            if p == point:
                return t / self.best_time_s
        raise SimulationError(f"{point.label()} was not in the tuned set")


@dataclass
class Autotuner:
    """Grid-search tuner with a result cache."""

    space: TuningSpace = field(default_factory=TuningSpace)
    variant: str = "bricks_codegen"
    _cache: Dict[Tuple, TuningOutcome] = field(default_factory=dict)

    def tune(
        self,
        stencil: Stencil,
        platform: Platform,
        domain: Tuple[int, int, int] = (512, 512, 512),
        stencil_name: str | None = None,
        policy: Optional[RetryPolicy] = None,
    ) -> TuningOutcome:
        """Grid-search the space in one :func:`simulate_batch` call.

        Every candidate is ranked, so the search reads (and builds)
        every entry of the returned :class:`BatchResults` once.
        ``policy`` turns on resilient evaluation: candidates that fail
        are dropped from the ranking (counted as ``exec.failed_points``)
        instead of aborting the whole search — unless *every* candidate
        failed, which raises.  Without a policy the first failing
        candidate's error raises, as a scalar loop would.  The batch is
        deterministic pure math, so there is nothing to retry.
        """
        name = stencil_name or stencil.description()
        key = (stencil.signature, platform.name, domain, self.variant)
        cached = self._cache.get(key)
        if cached is not None:
            counter("tune_cache.hits").inc()
            if cached.best_result.stencil_name == name:
                return cached
            return replace(
                cached,
                best_result=replace(cached.best_result, stencil_name=name),
            )
        counter("tune_cache.misses").inc()
        with span(
            "tune.search",
            stencil=name,
            platform=platform.name,
            variant=self.variant,
        ) as sp:
            points = list(
                self.space.candidates(
                    platform.arch.simd_width, stencil.radius, domain
                )
            )
            results: BatchResults = simulate_batch(
                [
                    BatchPoint(
                        stencil=stencil,
                        variant=self.variant,
                        platform=platform,
                        domain=domain,
                        stencil_name=stencil_name,
                        dims=p.brick_dims(),
                        vector_length=p.vector_length,
                    )
                    for p in points
                ],
                capture_failures=policy is not None,
            )
            ranked: List[Tuple[TuningPoint, float, SimulationResult]] = []
            dropped: List[Tuple[TuningPoint, TaskFailure]] = []
            for point, res in zip(points, results):
                if isinstance(res, TaskFailure):
                    dropped.append((point, res))
                else:
                    ranked.append((point, res.time_s, res))
            counter("tune.candidates").inc(len(ranked))
            if sp is not None:
                sp.set_attr("candidates", len(ranked))
            if dropped:
                counter("exec.failed_points").inc(len(dropped))
                if sp is not None:
                    sp.set_attr("failed", len(dropped))
        if not ranked and dropped:
            raise SimulationError(
                f"every tuning candidate failed on {platform.name}; first: "
                f"{dropped[0][0].label()}: {dropped[0][1].describe()}"
            )
        if not ranked:
            raise SimulationError(
                f"tuning space is empty for radius {stencil.radius} on "
                f"{platform.name} with domain {domain}"
            )
        ranked.sort(key=lambda t: (t[1], t[0].label()))
        outcome = TuningOutcome(
            best=ranked[0][0],
            best_result=ranked[0][2],
            ranking=tuple((p, t) for p, t, _ in ranked),
        )
        self._cache[key] = outcome
        return outcome

    def cache_size(self) -> int:
        return len(self._cache)
