"""Fault injection, retry policy, and graceful sweep degradation.

The contract under test: a seeded :class:`FaultPlan` produces the same
fault sequence everywhere, transient faults are retried away (so a
faulted sweep is bit-identical to a fault-free one), deterministic
errors are *not* retried, and points that fail permanently degrade into
structured :class:`FailedPoint` entries that the renderers footnote
instead of crashing on.  Faulted points run in-process through
:func:`repro.exec.parallel_map`; worker-process counts are rejected.
"""

import time

import pytest

from repro import cli, harness, obs
from repro.dsl.shapes import by_name
from repro.errors import (
    ExecutionError,
    MetricError,
    SimulationError,
    TaskTimeoutError,
    TransientError,
)
from repro.exec import parallel_map
from repro.gpu import platform, simulate
from repro.harness.tables import table3
from repro.resilience import (
    CorruptPayload,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    TaskFailure,
    run_with_policy,
)
from repro.tuning import Autotuner


@pytest.fixture
def registry():
    prev = obs.get_registry()
    reg = obs.set_registry(obs.MetricsRegistry())
    yield reg
    obs.set_registry(prev)


def _count(registry, name):
    try:
        return registry.get(name).value
    except Exception:
        return 0


# --- task callables -------------------------------------------------------


def _double(x):
    return 2 * x


def _sleepy(x):
    time.sleep(5.0)
    return x


def _model_error(x):
    raise SimulationError("deterministic model error")


def _fail_on_seven(x):
    if x == 7:
        raise ValueError("seven is right out")
    return x


def _transient_on_three(x):
    if x == 3:
        raise TransientError("three is cursed")
    return 2 * x


class _Flaky:
    """Fails the first ``failures`` attempts of every item, then works."""

    def __init__(self, failures):
        self.failures = failures
        self._seen = {}

    def __call__(self, x):
        n = self._seen.get(x, 0)
        self._seen[x] = n + 1
        if n < self.failures:
            raise TransientError(f"flaky {x} attempt {n + 1}")
        return 10 * x


class _CorruptOnce:
    """Returns a poison payload on the first attempt per item."""

    def __init__(self):
        self._seen = set()

    def __call__(self, x):
        if x not in self._seen:
            self._seen.add(x)
            return CorruptPayload()
        return 10 * x


def _is_int(value):
    return isinstance(value, int)


# --- FaultPlan -----------------------------------------------------------

KEYS = tuple((s, p) for s in "abcdef" for p in ("x", "y"))


class TestFaultPlan:
    def test_seeded_is_deterministic(self):
        a = FaultPlan.seeded(7, KEYS, raise_rate=0.3, corrupt_rate=0.2)
        b = FaultPlan.seeded(7, KEYS, raise_rate=0.3, corrupt_rate=0.2)
        assert a == b
        for key in KEYS:
            assert a.spec_for(key) == b.spec_for(key)

    def test_different_seeds_differ(self):
        plans = {
            FaultPlan.seeded(s, KEYS, raise_rate=0.5).faults
            for s in range(8)
        }
        assert len(plans) > 1

    def test_rate_one_faults_everything(self):
        plan = FaultPlan.seeded(0, KEYS, raise_rate=1.0)
        assert len(plan) == len(KEYS)
        assert plan.count("raise") == len(KEYS)

    def test_rates_must_partition(self):
        with pytest.raises(ExecutionError, match="at most 1.0"):
            FaultPlan.seeded(0, KEYS, raise_rate=0.8, corrupt_rate=0.3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ExecutionError, match="unknown fault kind"):
            FaultSpec("explode")

    def test_wrap_raises_then_recovers(self, registry):
        plan = FaultPlan(faults=((3, FaultSpec("raise", failures=1)),))
        fn = plan.wrap(_double)
        assert fn(1) == 2
        with pytest.raises(TransientError, match="injected fault"):
            fn(3)
        assert fn(3) == 6  # second attempt sails through
        assert _count(registry, "faults.injected.raise") == 1

    def test_wrap_corrupts(self, registry):
        plan = FaultPlan(faults=((5, FaultSpec("corrupt", failures=1)),))
        fn = plan.wrap(_double)
        assert fn(5) == CorruptPayload()
        assert fn(5) == 10
        assert _count(registry, "faults.injected.corrupt") == 1

    def test_permanent_fault_never_recovers(self):
        plan = FaultPlan(faults=((1, FaultSpec("raise", failures=-1)),))
        fn = plan.wrap(_double)
        for _ in range(4):
            with pytest.raises(TransientError):
                fn(1)


# --- RetryPolicy ---------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(backoff_s=0.1, backoff_factor=2.0, max_backoff_s=0.3)
        assert policy.delay_s(1) == pytest.approx(0.1)
        assert policy.delay_s(2) == pytest.approx(0.2)
        assert policy.delay_s(3) == pytest.approx(0.3)
        assert policy.delay_s(4) == pytest.approx(0.3)  # capped

    def test_retry_numbers_are_one_based(self):
        with pytest.raises(ExecutionError, match="1-based"):
            RetryPolicy().delay_s(0)

    def test_negative_retries_rejected(self):
        with pytest.raises(ExecutionError, match="negative"):
            RetryPolicy(retries=-1)

    def test_with_validate_keeps_existing(self):
        policy = RetryPolicy(validate=_is_int)
        assert policy.with_validate(_double).validate is _is_int


# --- run_with_policy -----------------------------------------------------


class TestRunWithPolicy:
    def test_transient_failure_is_retried_away(self, registry):
        fn = _Flaky(failures=2)
        policy = RetryPolicy(retries=2, backoff_s=0.0)
        assert run_with_policy(fn, 4, policy) == 40
        assert _count(registry, "exec.retries") == 2

    def test_deterministic_error_not_retried(self, registry):
        policy = RetryPolicy(retries=3, backoff_s=0.0)
        with pytest.raises(SimulationError) as err:
            run_with_policy(_model_error, 1, policy)
        assert err.value.attempts == 1
        assert _count(registry, "exec.retries") == 0

    def test_exhausted_retries_raise_with_attempt_count(self, registry):
        fn = _Flaky(failures=99)
        policy = RetryPolicy(retries=2, backoff_s=0.0)
        with pytest.raises(TransientError) as err:
            run_with_policy(fn, 1, policy)
        assert err.value.attempts == 3
        assert _count(registry, "exec.retries") == 2

    def test_timeout_kills_hung_task(self, registry):
        policy = RetryPolicy(retries=1, backoff_s=0.0, timeout_s=0.2)
        t0 = time.perf_counter()
        with pytest.raises(TaskTimeoutError) as err:
            run_with_policy(_sleepy, 1, policy)
        assert time.perf_counter() - t0 < 2.0  # never waits the full 5 s
        assert err.value.attempts == 2
        assert _count(registry, "exec.timeouts") == 2

    def test_timeout_without_retry(self, registry):
        policy = RetryPolicy(
            retries=3, backoff_s=0.0, timeout_s=0.2, retry_timeouts=False
        )
        with pytest.raises(TaskTimeoutError) as err:
            run_with_policy(_sleepy, 1, policy)
        assert err.value.attempts == 1
        assert _count(registry, "exec.retries") == 0

    def test_corrupt_result_is_retried(self, registry):
        fn = _CorruptOnce()
        policy = RetryPolicy(retries=1, backoff_s=0.0, validate=_is_int)
        assert run_with_policy(fn, 3, policy) == 30
        assert _count(registry, "exec.invalid_results") == 1
        assert _count(registry, "exec.retries") == 1


# --- parallel_map ---------------------------------------------------------


class TestParallelMap:
    def test_results_in_input_order(self):
        items = list(range(53))
        assert parallel_map(_double, items) == [2 * x for x in items]

    def test_empty(self):
        assert parallel_map(_double, []) == []

    def test_exceptions_propagate(self):
        with pytest.raises(ValueError, match="seven"):
            parallel_map(_fail_on_seven, list(range(20)))

    def test_on_result_fires_in_input_order(self):
        seen = []
        out = parallel_map(
            _transient_on_three, [1, 2, 3, 4],
            policy=RetryPolicy(retries=0, backoff_s=0.0),
            capture_failures=True,
            on_result=lambda i, r: seen.append((i, r)),
        )
        assert [i for i, _ in seen] == [0, 1, 2, 3]
        assert [r for _, r in seen] == out


class TestParallelMapResilience:
    def test_capture_failures_degrades_to_record(self, registry):
        policy = RetryPolicy(retries=0, backoff_s=0.0)
        results = parallel_map(
            _transient_on_three, [1, 2, 3, 4],
            policy=policy, capture_failures=True,
        )
        assert results[0] == 2 and results[1] == 4 and results[3] == 8
        failure = results[2]
        assert isinstance(failure, TaskFailure)
        assert failure.error_type == "TransientError"
        assert failure.attempts == 1 and not failure.timed_out
        assert "three is cursed" in failure.describe()

    def test_capture_timeout_marks_timed_out(self):
        policy = RetryPolicy(retries=0, backoff_s=0.0, timeout_s=0.1)
        [failure] = parallel_map(
            _sleepy, [1], policy=policy, capture_failures=True
        )
        assert isinstance(failure, TaskFailure) and failure.timed_out


# --- the acceptance sweep: faults into a 2-platform study ----------------

SMALL2 = harness.ExperimentConfig(
    stencils=("7pt", "13pt"),
    domain=(64, 64, 64),
    platform_filter=("A100-CUDA", "MI250X-HIP"),
)

HUNG_KEY = ("13pt", "MI250X-HIP", "bricks_codegen")

#: 3 transient raises (1 + 2 + 1 sabotaged attempts) and one permanent
#: hang, aimed at specific points of the 12-point SMALL2 matrix.
PLAN = FaultPlan(faults=(
    (("7pt", "A100-CUDA", "array"), FaultSpec("raise", failures=1)),
    (("7pt", "MI250X-HIP", "bricks_codegen"), FaultSpec("raise", failures=2)),
    (("13pt", "A100-CUDA", "array_codegen"), FaultSpec("raise", failures=1)),
    (HUNG_KEY, FaultSpec("hang", failures=-1, hang_s=30.0)),
))

POLICY = RetryPolicy(retries=2, backoff_s=0.0, timeout_s=0.5)


class TestStudyDegradation:
    @pytest.fixture
    def clean(self):
        return harness.run_study(SMALL2, parallel=1)

    def test_faulted_sweep_degrades_gracefully(self, registry, clean):
        study = harness.run_study(SMALL2, policy=POLICY, fault_plan=PLAN)
        # Retried points recover bit-identically; only the hang is lost.
        assert len(study) == 11 and not study.complete
        assert set(clean.results) - set(study.results) == {HUNG_KEY}
        for key, result in study.results.items():
            assert result == clean.results[key]
        # The hang degraded into a structured FailedPoint.
        assert set(study.failed) == {HUNG_KEY}
        failed = study.failed[HUNG_KEY]
        assert failed.timed_out and failed.attempts == 3
        assert failed.error_type == "TaskTimeoutError"
        with pytest.raises(MetricError, match="failed"):
            study.get(*HUNG_KEY)
        # Counters account for every injection: one retry after each of
        # the 4 sabotaged raise attempts and the first 2 timeouts.
        assert _count(registry, "exec.retries") == 6
        assert _count(registry, "exec.timeouts") == 3
        assert _count(registry, "exec.failed_points") == 1
        assert _count(registry, "faults.injected.raise") == 4
        assert _count(registry, "faults.injected.hang") == 3

    def test_rerun_fails_identically(self, registry):
        first = harness.run_study(SMALL2, policy=POLICY, fault_plan=PLAN)
        mid = {
            name: _count(registry, name)
            for name in ("exec.retries", "exec.timeouts", "exec.failed_points")
        }
        second = harness.run_study(SMALL2, policy=POLICY, fault_plan=PLAN)
        assert second.results == first.results
        assert second.failed == first.failed
        for name, value in mid.items():
            assert _count(registry, name) == 2 * value, name

    def test_worker_process_count_rejected(self):
        with pytest.raises(ExecutionError, match="in-process"):
            harness.run_study(SMALL2, parallel=4)
        with pytest.raises(ExecutionError, match="in-process"):
            harness.cached_study(SMALL2, parallel=0)

    def test_renderers_footnote_the_gap(self, registry, clean):
        study = harness.run_study(
            SMALL2, parallel=1, policy=POLICY, fault_plan=PLAN
        )
        rendered = table3(study).render()
        assert "n/a *" in rendered
        assert "failed to simulate" in rendered
        assert "13pt/MI250X-HIP/bricks_codegen" in rendered
        text = harness.summary(study)
        assert "FAILED points: 1" in text and "--resume" in text
        # Figures skip the gap instead of crashing.
        harness.fig3(study)
        harness.fig4(study)
        harness.fig7(study)


class TestCliFaultInjection:
    def test_study_with_injected_faults_recovers(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        harness.clear_study_cache()
        try:
            rc = cli.main(["study", "--inject-faults", "7", "--retries", "3"])
        finally:
            harness.clear_study_cache()
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAILED" not in out  # transient faults fully recovered

    def test_jobs_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["study", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


class TestTuningEquivalence:
    def test_tune_with_policy_equals_scalar_loop(self):
        stencil = by_name("13pt").build()
        plat = platform("A100", "CUDA")
        domain = (64, 64, 64)
        # A policy switches the batch to failure capture; nothing fails
        # here, so the ranking is the scalar loop's.
        outcome = Autotuner().tune(
            stencil, plat, domain=domain, stencil_name="13pt",
            policy=RetryPolicy(retries=1, backoff_s=0.0),
        )
        points = Autotuner().space.candidates(
            plat.arch.simd_width, stencil.radius, domain
        )
        scalar = sorted(
            (
                simulate(
                    stencil, "bricks_codegen", plat, domain=domain,
                    stencil_name="13pt", dims=p.brick_dims(),
                    vector_length=p.vector_length,
                ).time_s,
                p.label(),
                p,
            )
            for p in points
        )
        assert outcome.ranking == tuple((p, t) for t, _, p in scalar)
        assert outcome.best == scalar[0][2]
