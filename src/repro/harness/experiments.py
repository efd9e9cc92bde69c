"""The full evaluation sweep (paper Section 5).

``run_study`` simulates every (stencil, platform, variant) point of the
paper's matrix — six stencils (Table 2), five platform columns
(A100-CUDA, A100-SYCL, MI250X-HIP, MI250X-SYCL, PVC-SYCL), three kernel
variants — on the 512^3 domain, and returns a :class:`StudyResults`
that every table and figure renderer consumes.

The sweep runs on one engine, the batch simulator
(:func:`repro.gpu.simulate_batch`); only fault-injected points take the
scalar path.  It is fault tolerant (see :mod:`repro.resilience`):
injected faults run under a retry policy, failed matrix points degrade
into structured :class:`FailedPoint` entries instead of killing the
study, and — when a cache directory is given — completed points are
periodically checkpointed so an interrupted or partially-failed run can
``resume`` with zero recomputation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.dsl.shapes import TABLE2, by_name
from repro.dsl.stencil import Stencil
from repro.errors import (
    ExecutionError,
    MetricError,
    ResultStoreError,
    SimulationError,
)
from repro.exec import (
    RetryPolicy,
    StudyItem,
    TaskFailure,
    map_study_points,
    parallel_map,
    simulate_point,
    study_item_key,
    validate_simulation,
)
from repro.gpu.progmodel import VARIANTS, Platform, study_platforms
from repro.gpu.simulator import SimulationResult, check_domain
from repro.obs import counter, span
from repro.resilience import FaultPlan

STENCIL_NAMES: Tuple[str, ...] = tuple(c.name for c in TABLE2)

Key = Tuple[str, str, str]  # (stencil, platform name, variant)

#: How many newly completed points accumulate between checkpoint flushes.
CHECKPOINT_EVERY = 8


@dataclass(frozen=True)
class ExperimentConfig:
    """What to sweep; defaults reproduce the paper exactly.

    ``platform_filter`` restricts the sweep to a subset of the paper's
    five platform columns (by name, in the given order); empty means
    all of them.
    """

    stencils: Tuple[str, ...] = STENCIL_NAMES
    variants: Tuple[str, ...] = VARIANTS
    domain: Tuple[int, int, int] = (512, 512, 512)
    platform_filter: Tuple[str, ...] = ()

    def platforms(self) -> Tuple[Platform, ...]:
        plats = study_platforms()
        if not self.platform_filter:
            return plats
        by_platform_name = {p.name: p for p in plats}
        missing = [n for n in self.platform_filter if n not in by_platform_name]
        if missing:
            raise MetricError(
                f"unknown platform(s) {missing}; available: "
                f"{sorted(by_platform_name)}"
            )
        return tuple(by_platform_name[n] for n in self.platform_filter)

    def keys(self) -> Tuple[Key, ...]:
        """Every (stencil, platform, variant) key, in sweep order."""
        return tuple(
            (name, platform.name, variant)
            for name in self.stencils
            for platform in self.platforms()
            for variant in self.variants
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form, round-trippable via :func:`config_from_dict`."""
        return {
            "stencils": list(self.stencils),
            "variants": list(self.variants),
            "domain": list(self.domain),
            "platforms": list(self.platform_filter),
        }


#: Keys a serialized sweep configuration may carry.
_CONFIG_KEYS = frozenset({"stencils", "variants", "domain", "platforms"})


def config_from_dict(doc: Optional[Dict]) -> ExperimentConfig:
    """Parse an :class:`ExperimentConfig` from a JSON-shaped dict.

    The wire format of the study-serving API (``POST /studies``): every
    key is optional (missing = the paper's default), unknown keys and
    malformed values raise :class:`~repro.errors.MetricError` so the
    HTTP layer can answer 400 instead of queueing a job that can only
    fail.  Stencil names, variants, and platform names are validated
    here, at the boundary — a queued job must never die on a typo — and
    each may appear only once.
    """
    from repro.gpu.progmodel import VARIANTS

    if doc is None:
        return ExperimentConfig()
    if not isinstance(doc, dict):
        raise MetricError(
            f"study config must be a JSON object, got {type(doc).__name__}"
        )
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise MetricError(
            f"unknown config key(s) {sorted(unknown)}; "
            f"known: {sorted(_CONFIG_KEYS)}"
        )
    stencils = doc.get("stencils", list(STENCIL_NAMES))
    variants = doc.get("variants", list(VARIANTS))
    domain = doc.get("domain", [512, 512, 512])
    platforms = doc.get("platforms", [])
    for name, value in (("stencils", stencils), ("variants", variants),
                        ("platforms", platforms)):
        if not isinstance(value, (list, tuple)) or not all(
            isinstance(v, str) for v in value
        ):
            raise MetricError(f"config {name!r} must be a list of strings")
        repeated = sorted({v for v in value if value.count(v) > 1})
        if repeated:
            # A repeated name makes fewer points than config.keys().
            raise MetricError(f"config {name!r} repeats {repeated}")
    if not stencils or not variants:
        raise MetricError("config needs at least one stencil and one variant")
    bad_stencils = [s for s in stencils if s not in STENCIL_NAMES]
    if bad_stencils:
        raise MetricError(
            f"unknown stencil(s) {bad_stencils}; known: {list(STENCIL_NAMES)}"
        )
    bad_variants = [v for v in variants if v not in VARIANTS]
    if bad_variants:
        raise MetricError(
            f"unknown variant(s) {bad_variants}; known: {list(VARIANTS)}"
        )
    if isinstance(domain, (list, tuple)) and any(
        isinstance(n, bool) for n in domain
    ):  # operator.index takes a JSON true as 1
        raise MetricError(f"config: domain {domain!r} has a boolean extent")
    try:
        domain = check_domain(domain, "config")
    except SimulationError as exc:
        raise MetricError(str(exc)) from None
    config = ExperimentConfig(
        stencils=tuple(stencils),
        variants=tuple(variants),
        domain=domain,
        platform_filter=tuple(platforms),
    )
    config.platforms()  # validates platform names (raises MetricError)
    return config


@dataclass(frozen=True)
class FailedPoint:
    """One matrix point that failed permanently (after retries).

    Recorded in :attr:`StudyResults.failed` so renderers can show the
    gap (with a footnote) instead of crashing, and ``--resume`` knows
    exactly what is left to finish.
    """

    stencil: str
    platform: str
    variant: str
    error_type: str
    message: str
    attempts: int
    timed_out: bool

    @property
    def key(self) -> Key:
        return (self.stencil, self.platform, self.variant)

    def describe(self) -> str:
        note = " after timeout" if self.timed_out else ""
        return (
            f"{self.stencil}/{self.platform}/{self.variant}: "
            f"{self.error_type}: {self.message} "
            f"({self.attempts} attempt{'s' if self.attempts != 1 else ''}{note})"
        )


@dataclass
class StudyResults:
    """All simulation results of one sweep, keyed for the renderers.

    ``failed`` holds the matrix points that could not be simulated
    (graceful degradation); a study with failures still renders — the
    missing cells show as gaps with a footnote.
    """

    config: ExperimentConfig
    results: Dict[Key, SimulationResult] = field(default_factory=dict)
    failed: Dict[Key, FailedPoint] = field(default_factory=dict)

    def get(self, stencil: str, platform: str, variant: str) -> SimulationResult:
        key = (stencil, platform, variant)
        if key not in self.results:
            if key in self.failed:
                raise MetricError(
                    f"point {key} failed: {self.failed[key].describe()}"
                )
            raise MetricError(f"no result for {key}; ran: {len(self.results)} points")
        return self.results[key]

    def has(self, stencil: str, platform: str, variant: str) -> bool:
        """Whether a successful result exists for this matrix point."""
        return (stencil, platform, variant) in self.results

    @property
    def complete(self) -> bool:
        """Every expected matrix point simulated successfully."""
        return all(key in self.results for key in self.config.keys())

    def platform_names(self) -> List[str]:
        return [p.name for p in self.config.platforms()]

    def for_platform(self, platform: str) -> List[SimulationResult]:
        return [
            r for (s, p, v), r in sorted(self.results.items()) if p == platform
        ]

    def for_variant(self, variant: str) -> List[SimulationResult]:
        return [
            r for (s, p, v), r in sorted(self.results.items()) if v == variant
        ]

    def stencil_of(self, name: str) -> Stencil:
        return by_name(name).build()

    def __len__(self) -> int:
        return len(self.results)


def resolve_cache_dir(cache_dir: Optional[str]) -> Optional[str]:
    """``None`` falls back to ``$REPRO_CACHE_DIR`` (empty = off)."""
    # Local import: serialization imports this module for StudyResults.
    from repro.harness import serialization

    if cache_dir is None:
        return os.environ.get(serialization.CACHE_DIR_ENV) or None
    return cache_dir


def study_items(config: ExperimentConfig) -> List[StudyItem]:
    """The study items ``config`` sweeps, in sweep order.

    One :class:`~repro.dsl.stencil.Stencil` is built per stencil name
    and shared by all of its items.
    """
    platforms = config.platforms()
    items = []
    for name in config.stencils:
        stencil = by_name(name).build()
        for platform in platforms:
            for variant in config.variants:
                items.append((name, stencil, platform, variant, config.domain))
    return items


def assemble_study(
    config: ExperimentConfig,
    items: Sequence[StudyItem],
    outcomes: Sequence[object],
    done: Optional[Dict[Key, SimulationResult]] = None,
) -> StudyResults:
    """Fold per-item outcomes (plus ``done`` results) into a study.

    A :class:`~repro.resilience.TaskFailure` outcome becomes a
    :class:`FailedPoint`; results are keyed in canonical
    :meth:`ExperimentConfig.keys` order whatever order they arrived in,
    so a resumed or micro-batched study iterates like a single-shot
    one.  Counts ``study.points`` and ``exec.failed_points``.
    """
    study = StudyResults(config=config)
    results: Dict[Key, SimulationResult] = dict(done or {})
    for item, outcome in zip(items, outcomes):
        key = study_item_key(item)
        if isinstance(outcome, TaskFailure):
            study.failed[key] = FailedPoint(
                stencil=key[0],
                platform=key[1],
                variant=key[2],
                error_type=outcome.error_type,
                message=outcome.message,
                attempts=outcome.attempts,
                timed_out=outcome.timed_out,
            )
        else:
            results[key] = outcome  # type: ignore[assignment]
    study.results = {
        key: results[key] for key in config.keys() if key in results
    }
    counter("study.points").inc(len(study.results))
    if study.failed:
        counter("exec.failed_points").inc(len(study.failed))
    return study


def _check_parallel(parallel: Optional[int]) -> None:
    """Reject a worker-process count: every point runs in-process."""
    if parallel not in (None, 1):
        raise ExecutionError(
            f"parallel={parallel!r}: worker processes were removed and "
            f"every point runs in-process; pass None or 1"
        )


def run_study(
    config: ExperimentConfig | None = None,
    parallel: Optional[int] = None,
    *,
    policy: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    checkpoint_every: int = CHECKPOINT_EVERY,
    results_db: Optional[str] = None,
) -> StudyResults:
    """Simulate the full matrix; deterministic, well under a second.

    Every clean pending point is evaluated by ONE batch call
    (:func:`repro.exec.map_study_points` over
    :func:`repro.gpu.simulate_batch`), which is bit-identical to the
    scalar :func:`~repro.gpu.simulator.simulate` path and traces a
    ``sweep.batch`` span with per-chunk children.  Points carrying a
    ``fault_plan`` entry run afterwards through the scalar engine,
    :func:`repro.exec.parallel_map`, in-process under the retry policy;
    they trace per-point ``study.point`` spans.  ``parallel`` accepts
    only ``None`` or ``1``: there are no worker processes.

    Fault tolerance:

    * ``policy`` governs retries/backoff/per-task timeouts (default: a
      couple of quick retries, no deadline); a result validator is
      installed automatically so corrupted payloads are retried;
    * points that still fail degrade into :attr:`StudyResults.failed`
      entries (counted as ``exec.failed_points``) instead of raising;
    * with ``cache_dir``, completed points are merged into the cache
      directory's result database every ``checkpoint_every``
      completions, through one connection per sweep (closed when the
      sweep ends or is interrupted), and ``resume=True`` preloads that
      checkpoint so
      only missing/failed points are re-simulated
      (``study.resumed_points`` counts the skips);
    * ``fault_plan`` injects deterministic faults (tests and the
      ``--inject-faults`` dev flag).

    ``results_db`` (default ``$REPRO_RESULTS_DB``; empty/unset = off)
    appends the finished study — including its failed points — to the
    queryable SQLite result store (:mod:`repro.results`).  Ingestion is
    deduplicated by config hash, so re-running the same sweep is a
    store no-op; an ingest failure counts ``results.ingest_errors``
    and never fails the sweep itself.
    """
    from repro.harness import serialization
    from repro.results.store import ResultsStore

    _check_parallel(parallel)
    config = config or ExperimentConfig()
    items = study_items(config)
    cache_dir = resolve_cache_dir(cache_dir)

    done: Dict[Key, SimulationResult] = {}
    if resume and cache_dir:
        # A checkpoint left by a degraded run records its permanent
        # failures as FailedPoint entries alongside the successes.  Only
        # the successes are preloaded; failed points fall through to
        # ``pending`` so they are *re-attempted under the current retry
        # policy* rather than replayed as permanent failures.
        loaded = serialization.load_study_checkpoint(config, cache_dir) or {}
        done = {
            key: value
            for key, value in loaded.items()
            if isinstance(value, SimulationResult)
        }
        if done:
            counter("study.resumed_points").inc(len(done))
        retried_failures = len(loaded) - len(done)
        if retried_failures:
            counter("study.reattempted_failures").inc(retried_failures)

    pending = [it for it in items if study_item_key(it) not in done]
    pending_keys = [study_item_key(it) for it in pending]
    policy = (policy or RetryPolicy()).with_validate(validate_simulation)
    # Fault-injected points need the scalar retry path; the rest batch.
    faulty = [
        i for i, key in enumerate(pending_keys)
        if fault_plan is not None and fault_plan.spec_for(key) is not None
    ]
    faulty_set = set(faulty)
    clean = [i for i in range(len(pending)) if i not in faulty_set]
    outcomes: List[object] = [None] * len(pending)

    unflushed: Dict[Key, Any] = {}
    store: Optional[ResultsStore] = None  # opened by the first flush

    def checkpoint() -> None:
        """Merge the unflushed points into the cache store.

        The first flush opens the store; later flushes of the sweep
        write through the same connection, one transaction each.
        Best-effort: a store that cannot be opened or written (a garbage
        file where it belongs, a full disk) counts
        ``study_cache.write_errors`` and turns checkpointing off for the
        rest of the sweep instead of failing it.
        """
        nonlocal cache_dir, store
        try:
            if store is None:
                store = serialization.open_study_cache(cache_dir)
            serialization.save_study_checkpoint(
                config, unflushed, cache_dir, store
            )
        except ResultStoreError:
            counter("study_cache.write_errors").inc()
            cache_dir = None
        unflushed.clear()

    def take(index: int, result: object) -> None:
        """Record ``pending[index]``'s outcome; flush every few points."""
        outcomes[index] = result
        if not cache_dir or isinstance(result, TaskFailure):
            return
        unflushed[pending_keys[index]] = result
        if len(unflushed) >= max(1, checkpoint_every):
            checkpoint()

    try:
        with span("run_study", points=len(items), resumed=len(done)) as sp:
            if clean:
                entries = map_study_points([pending[i] for i in clean])
                for index, result in zip(clean, entries):
                    take(index, result)
            if faulty:
                parallel_map(
                    fault_plan.wrap(simulate_point, key_fn=study_item_key),
                    [pending[i] for i in faulty],
                    policy=policy,
                    capture_failures=True,
                    on_result=lambda j, result: take(faulty[j], result),
                )
            study = assemble_study(config, pending, outcomes, done)
            if study.failed and sp is not None:
                sp.set_attr("failed", len(study.failed))
            # The last flush also records the failures, so a later
            # ``--resume`` knows which points failed (vs. never ran) —
            # they are always re-attempted, never trusted as results.
            unflushed.update(study.failed)
            if cache_dir and unflushed:
                checkpoint()
    finally:
        if store is not None:
            store.close()
    ingest_results(study, results_db, source="run_study")
    return study


def ingest_results(
    study: StudyResults, results_db: Optional[str], source: str
) -> None:
    """Append ``study`` to the SQLite result store, if one is configured.

    Best-effort by design: the store is longitudinal memory, not part
    of the sweep's correctness contract, so a bad path or locked
    database counts ``results.ingest_errors`` instead of failing a
    multi-second sweep after the work is done.
    """
    # Local import: repro.results imports this module for StudyResults.
    from repro.results import ResultsStore, resolve_results_db

    path = resolve_results_db(results_db)
    if not path:
        return
    try:
        with ResultsStore(path) as store:
            store.ingest_study(study, source=source)
    except (OSError, ResultStoreError):
        counter("results.ingest_errors").inc()


#: Memoised full-sweep results, keyed on the (hashable) sweep config.
_STUDY_CACHE: Dict[ExperimentConfig, StudyResults] = {}


def cached_study(
    config: ExperimentConfig | None = None,
    parallel: Optional[int] = None,
    cache_dir: Optional[str] = None,
    *,
    retry_policy: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    resume: bool = False,
    results_db: Optional[str] = None,
) -> StudyResults:
    """Memoised :func:`run_study`: one sweep per config per process.

    The CLI's table/figure/obs paths all render from the same sweep, so
    repeated invocations within a process (or one invocation rendering
    several artifacts) simulate the 90-point matrix exactly once.  Cache
    hits and misses are recorded as ``study_cache.*`` counters and as a
    ``cache`` attribute on the ``cached_study`` span.

    ``cache_dir`` additionally consults/populates the persistent
    on-disk cache (see :mod:`repro.harness.serialization`), so repeated
    *CLI invocations* skip the sweep too; ``None`` falls back to
    ``$REPRO_CACHE_DIR``, and with neither set the disk is never
    touched.  Disk traffic is recorded as ``study_disk_cache.*``
    counters and a ``disk`` span attribute.  Only *complete* studies
    enter the full-study cache — a degraded sweep leaves its checkpoint
    behind for ``resume`` instead.  ``parallel`` accepts only ``None``
    or ``1``, as for :func:`run_study`.
    """
    # Local import: serialization imports this module for StudyResults.
    from repro.harness import serialization

    _check_parallel(parallel)
    config = config or ExperimentConfig()
    cache_dir = resolve_cache_dir(cache_dir)
    hit = config in _STUDY_CACHE
    if hit and resume and not _STUDY_CACHE[config].complete:
        # A degraded sweep is memoised so repeated renders don't
        # re-simulate its failures, but an explicit ``resume`` request
        # means "re-attempt them under the current retry policy" — a
        # stale degraded memo must not replay its FailedPoints as
        # permanent.
        hit = False
        counter("study_cache.resume_retries").inc()
    counter("study_cache.hits" if hit else "study_cache.misses").inc()
    with span("cached_study", cache="hit" if hit else "miss") as sp:
        if not hit:
            study = None
            if cache_dir:
                study = serialization.load_study_cache(config, cache_dir)
                disk = "hit" if study is not None else "miss"
                counter(
                    "study_disk_cache.hits" if disk == "hit"
                    else "study_disk_cache.misses"
                ).inc()
                if sp is not None:
                    sp.set_attr("disk", disk)
            if study is None:
                study = run_study(
                    config,
                    policy=retry_policy,
                    fault_plan=fault_plan,
                    cache_dir=cache_dir,
                    resume=resume,
                    results_db=results_db,
                )
            _STUDY_CACHE[config] = study
    return _STUDY_CACHE[config]


def clear_study_cache() -> None:
    """Drop all memoised sweeps (tests and long-lived processes)."""
    _STUDY_CACHE.clear()


def iter_results(study: StudyResults) -> Iterable[SimulationResult]:
    for key in sorted(study.results):
        yield study.results[key]
