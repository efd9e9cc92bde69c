"""Checkpoint/resume: an interrupted sweep finishes with zero rework.

With a cache directory, ``run_study`` merges completed points into the
cache directory's result database as it goes, one transaction per
flush; the incomplete study row is the checkpoint.  ``resume=True``
preloads it so only the missing points are re-simulated.  Once every
point is stored the row is complete: it is the cache entry from then
on, and no longer a checkpoint.
"""

import pytest

from repro import harness, obs
from repro.harness import serialization
from repro.resilience import FaultPlan, FaultSpec, RetryPolicy

#: 6-point sweep: 2 stencils x 1 platform x 3 variants, sweep order
#: 7pt/array, 7pt/array_codegen, 7pt/bricks_codegen, then 13pt likewise.
#: Points without a fault-plan entry run first, as one batch; points
#: with one follow on the scalar path, in sweep order.
CONFIG = harness.ExperimentConfig(
    stencils=("7pt", "13pt"),
    domain=(64, 64, 64),
    platform_filter=("A100-CUDA",),
)

INTERRUPT_KEY = ("13pt", "A100-CUDA", "array_codegen")  # 5th of 6
FAIL_KEY = ("13pt", "A100-CUDA", "bricks_codegen")


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


class TestInterruptAndResume:
    def test_interrupt_leaves_checkpoint_resume_finishes(
        self, registry, tmp_path
    ):
        cache_dir = str(tmp_path)
        plan = FaultPlan(faults=(
            (INTERRUPT_KEY, FaultSpec("interrupt", failures=-1)),
        ))
        with pytest.raises(KeyboardInterrupt):
            harness.run_study(
                CONFIG, parallel=1, fault_plan=plan,
                cache_dir=cache_dir, checkpoint_every=1,
            )
        # Every point completed before the interrupt was flushed: the
        # 5 batched points ran ahead of the scalar-routed interrupt.
        done = serialization.load_study_checkpoint(CONFIG, cache_dir)
        assert done is not None and len(done) == 5
        assert INTERRUPT_KEY not in done

        calls_before = _count(registry, "simulate.calls")
        study = harness.run_study(
            CONFIG, parallel=1, cache_dir=cache_dir, resume=True
        )
        # Only the missing point was simulated; 5 came for free.
        assert study.complete and len(study) == 6
        assert _count(registry, "simulate.calls") - calls_before == 1
        assert _count(registry, "study.resumed_points") == 5
        # A complete sweep needs no checkpoint any more.
        assert serialization.load_study_checkpoint(CONFIG, cache_dir) is None

    def test_resumed_study_matches_single_shot(self, registry, tmp_path):
        cache_dir = str(tmp_path)
        plan = FaultPlan(faults=(
            (INTERRUPT_KEY, FaultSpec("interrupt", failures=-1)),
        ))
        with pytest.raises(KeyboardInterrupt):
            harness.run_study(
                CONFIG, parallel=1, fault_plan=plan,
                cache_dir=cache_dir, checkpoint_every=1,
            )
        resumed = harness.run_study(
            CONFIG, parallel=1, cache_dir=cache_dir, resume=True
        )
        single = harness.run_study(CONFIG, parallel=1)
        assert resumed.results == single.results
        # Same canonical iteration order, not just the same mapping.
        assert list(resumed.results) == list(single.results)

    def test_failed_point_finishes_on_resume(self, registry, tmp_path):
        cache_dir = str(tmp_path)
        plan = FaultPlan(faults=(
            (FAIL_KEY, FaultSpec("raise", failures=-1)),
        ))
        policy = RetryPolicy(retries=1, backoff_s=0.0)
        study = harness.run_study(
            CONFIG, parallel=1, policy=policy, fault_plan=plan,
            cache_dir=cache_dir,
        )
        assert not study.complete and set(study.failed) == {FAIL_KEY}
        # The degraded run checkpoints its 5 good points plus the
        # FailedPoint record (so --resume knows failed vs. never-ran).
        done = serialization.load_study_checkpoint(CONFIG, cache_dir)
        assert done is not None
        assert set(done) == set(study.results) | {FAIL_KEY}
        assert isinstance(done[FAIL_KEY], harness.FailedPoint)

        calls_before = _count(registry, "simulate.calls")
        retry = harness.run_study(
            CONFIG, parallel=1, cache_dir=cache_dir, resume=True
        )
        assert retry.complete and not retry.failed
        assert _count(registry, "simulate.calls") - calls_before == 1
        assert serialization.load_study_checkpoint(CONFIG, cache_dir) is None

    def test_interrupt_then_fail_then_resume_with_higher_retries(
        self, registry, tmp_path
    ):
        """The full degradation story: an interrupted sweep leaves a
        checkpoint, the first resume still fails one point permanently
        (too few retries for its transient fault), and a second resume
        under a higher retry budget re-attempts that FailedPoint and
        completes — it is never replayed as a permanent failure."""
        cache_dir = str(tmp_path)
        # FAIL_KEY rides the scalar path behind the interrupt (its spec
        # sabotages no attempt), so it is still pending at resume #1.
        interrupt = FaultPlan(faults=(
            (INTERRUPT_KEY, FaultSpec("interrupt", failures=-1)),
            (FAIL_KEY, FaultSpec("raise", failures=0)),
        ))
        with pytest.raises(KeyboardInterrupt):
            harness.run_study(
                CONFIG, parallel=1, fault_plan=interrupt,
                cache_dir=cache_dir, checkpoint_every=1,
            )

        # Resume #1: FAIL_KEY needs 3 attempts but the policy allows 2.
        flaky = FaultPlan(faults=(
            (FAIL_KEY, FaultSpec("raise", failures=3)),
        ))
        degraded = harness.run_study(
            CONFIG, parallel=1, fault_plan=flaky,
            policy=RetryPolicy(retries=1, backoff_s=0.0),
            cache_dir=cache_dir, resume=True,
        )
        assert not degraded.complete
        assert set(degraded.failed) == {FAIL_KEY}
        done = serialization.load_study_checkpoint(CONFIG, cache_dir)
        assert done is not None and FAIL_KEY in done

        # Resume #2: a higher retry budget re-attempts the failed point
        # (fresh fault plan: the fault is transient across runs too).
        calls_before = _count(registry, "simulate.calls")
        final = harness.run_study(
            CONFIG, parallel=1,
            policy=RetryPolicy(retries=3, backoff_s=0.0),
            cache_dir=cache_dir, resume=True,
        )
        assert final.complete and not final.failed
        # Only the failed point was re-simulated; the 5 good points
        # (4 pre-interrupt + 1 from resume #1) came from the checkpoint.
        assert _count(registry, "simulate.calls") - calls_before == 1
        assert _count(registry, "study.reattempted_failures") == 1
        assert serialization.load_study_checkpoint(CONFIG, cache_dir) is None

    def test_cached_study_resume_bypasses_degraded_memo(
        self, registry, tmp_path
    ):
        """cached_study memoises a degraded sweep (renders shouldn't
        re-simulate), but an explicit resume=True must bypass both the
        in-process memo and any stale on-disk entry and re-attempt the
        failures — this was the --resume bug."""
        cache_dir = str(tmp_path)
        plan = FaultPlan(faults=(
            (FAIL_KEY, FaultSpec("raise", failures=-1)),
        ))
        harness.clear_study_cache()
        try:
            degraded = harness.cached_study(
                CONFIG, parallel=1, cache_dir=cache_dir,
                retry_policy=RetryPolicy(retries=1, backoff_s=0.0),
                fault_plan=plan,
            )
            assert not degraded.complete and FAIL_KEY in degraded.failed
            # Without resume, the memo serves the degraded study as-is.
            assert harness.cached_study(
                CONFIG, parallel=1, cache_dir=cache_dir
            ) is degraded

            resumed = harness.cached_study(
                CONFIG, parallel=1, cache_dir=cache_dir, resume=True
            )
            assert resumed is not degraded
            assert resumed.complete and not resumed.failed
            assert resumed.has(*FAIL_KEY)
            assert _count(registry, "study_cache.resume_retries") == 1
        finally:
            harness.clear_study_cache()

    def test_resume_with_no_checkpoint_runs_everything(
        self, registry, tmp_path
    ):
        study = harness.run_study(
            CONFIG, parallel=1, cache_dir=str(tmp_path), resume=True
        )
        assert study.complete
        assert _count(registry, "study.resumed_points") == 0
        assert _count(registry, "simulate.calls") == 6

    def test_complete_run_leaves_no_checkpoint(self, registry, tmp_path):
        cache_dir = str(tmp_path)
        harness.run_study(CONFIG, parallel=1, cache_dir=cache_dir)
        assert serialization.load_study_checkpoint(CONFIG, cache_dir) is None


def _write_half(cache_dir, parity, barrier):
    """One writer of the two-process merge test: every other point."""
    study = harness.run_study(CONFIG)
    barrier.wait()
    for n, (key, result) in enumerate(study.results.items()):
        if n % 2 == parity:
            serialization.save_study_checkpoint(
                CONFIG, {key: result}, cache_dir
            )


class TestCheckpointStore:
    def _slice(self, start, stop):
        study = harness.run_study(CONFIG)
        return dict(list(study.results.items())[start:stop])

    def test_roundtrip(self, tmp_path):
        cache_dir = str(tmp_path)
        results = self._slice(0, 2)
        path = serialization.save_study_checkpoint(CONFIG, results, cache_dir)
        assert path == serialization.study_cache_path(cache_dir)
        assert serialization.load_study_checkpoint(CONFIG, cache_dir) == results

    def test_flushes_merge_instead_of_overwriting(self, tmp_path):
        cache_dir = str(tmp_path)
        first, second = self._slice(0, 2), self._slice(2, 5)
        serialization.save_study_checkpoint(CONFIG, first, cache_dir)
        serialization.save_study_checkpoint(CONFIG, second, cache_dir)
        loaded = serialization.load_study_checkpoint(CONFIG, cache_dir)
        assert loaded == {**first, **second}

    def test_failure_never_shadows_a_stored_success(self, tmp_path):
        cache_dir = str(tmp_path)
        stored = self._slice(0, 1)
        (key,) = stored
        failure = harness.FailedPoint(*key, "SimulationError", "boom", 1, False)
        serialization.save_study_checkpoint(CONFIG, stored, cache_dir)
        serialization.save_study_checkpoint(CONFIG, {key: failure}, cache_dir)
        assert serialization.load_study_checkpoint(CONFIG, cache_dir) == stored

    def test_two_processes_merge_their_points(self, tmp_path):
        """Writers interleaving flushes for one config keep the union."""
        import multiprocessing

        cache_dir = str(tmp_path)
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        writers = [
            ctx.Process(target=_write_half, args=(cache_dir, parity, barrier))
            for parity in (0, 1)
        ]
        for w in writers:
            w.start()
        for w in writers:
            w.join(60)
        assert [w.exitcode for w in writers] == [0, 0]
        cached = serialization.load_study_cache(CONFIG, cache_dir)
        assert cached is not None and cached.complete
        assert cached.results == harness.run_study(CONFIG).results

    def test_config_mismatch_loads_none(self, tmp_path):
        cache_dir = str(tmp_path)
        serialization.save_study_checkpoint(CONFIG, self._slice(0, 2), cache_dir)
        other = harness.ExperimentConfig(
            stencils=("7pt",), domain=(64, 64, 64),
            platform_filter=("A100-CUDA",),
        )
        assert serialization.load_study_checkpoint(other, cache_dir) is None

    def test_corrupt_file_loads_none(self, tmp_path):
        cache_dir = str(tmp_path)
        with open(serialization.study_cache_path(cache_dir), "wb") as f:
            f.write(b"not a database")
        assert serialization.load_study_checkpoint(CONFIG, cache_dir) is None

    def test_missing_file_loads_none(self, tmp_path):
        assert (
            serialization.load_study_checkpoint(CONFIG, str(tmp_path)) is None
        )
        assert list(tmp_path.iterdir()) == []  # a read creates nothing

    def test_clear_is_idempotent(self, tmp_path):
        cache_dir = str(tmp_path)
        serialization.save_study_checkpoint(CONFIG, self._slice(0, 2), cache_dir)
        serialization.clear_study_checkpoint(CONFIG, cache_dir)
        serialization.clear_study_checkpoint(CONFIG, cache_dir)  # no error
        assert serialization.load_study_checkpoint(CONFIG, cache_dir) is None

    def test_clear_keeps_a_complete_study(self, tmp_path):
        cache_dir = str(tmp_path)
        serialization.save_study_cache(harness.run_study(CONFIG), cache_dir)
        serialization.clear_study_checkpoint(CONFIG, cache_dir)
        assert serialization.load_study_cache(CONFIG, cache_dir) is not None
