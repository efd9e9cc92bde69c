"""Serving core: job lifecycle, queue backpressure, store, orchestrator."""

import time

import pytest

from repro import harness, obs
from repro.errors import MetricError, QueueFullError, ServeError
from repro.harness.experiments import ExperimentConfig, config_from_dict
from repro.serve import (
    JOB_STATES,
    MAX_SLEEP_S,
    Job,
    JobOptions,
    JobQueue,
    Orchestrator,
    ResultStore,
)

SMALL = ExperimentConfig(stencils=("7pt",), variants=("array",), domain=(64, 64, 64))
OTHER = ExperimentConfig(stencils=("13pt",), variants=("array",), domain=(64, 64, 64))

#: Chaos seed verified to degrade exactly >= 1 of SMALL's 5 points with
#: retries=0 under JobOptions' seeded rates (determinism contract of
#: FaultPlan.seeded: same seed + same key set => same injections).
DEGRADING_SEED = 0


@pytest.fixture
def registry():
    prev = obs.get_registry()
    reg = obs.set_registry(obs.MetricsRegistry())
    yield reg
    obs.set_registry(prev)


def wait_for(predicate, timeout_s=30.0, interval_s=0.01):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


class TestJobOptions:
    def test_defaults_are_clean(self):
        o = JobOptions()
        assert o.clean
        assert o.policy() is None
        assert o.fault_plan(SMALL) is None
        assert o.to_dict() == {}

    def test_round_trip(self):
        o = JobOptions(retries=3, task_timeout=5.0, inject_faults=2)
        assert JobOptions.from_dict(o.to_dict()) == o

    def test_retries_zero_survives_round_trip(self):
        # A 0 must not be dropped like a None (0 == 0.0 pitfall).
        o = JobOptions(retries=0)
        assert o.to_dict() == {"retries": 0}
        assert JobOptions.from_dict(o.to_dict()).retries == 0

    def test_chaos_job_is_not_clean(self):
        assert not JobOptions(inject_faults=7).clean

    def test_sleepy_job_is_not_clean(self):
        assert not JobOptions(sleep_s=0.5).clean

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sleep_s": -1.0},
            {"sleep_s": MAX_SLEEP_S + 1},
            {"retries": -1},
            {"task_timeout": 0.0},
            {"task_timeout": float("inf")},
            {"task_timeout": float("nan")},
            {"retries": 2.5},
            {"retries": True},
            {"inject_faults": 1.5},
            {"drill_exit": True},
        ],
    )
    def test_invalid_options_raise(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ServeError, match=name):
            JobOptions(**kwargs)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ServeError, match="unknown option"):
            JobOptions.from_dict({"retries": 1, "priority": "high"})

    def test_dispatch_is_an_unknown_option(self):
        # Every clean job runs through the batched engine: there is no
        # engine choice left for a client to pin.
        with pytest.raises(ServeError, match=r"unknown option\(s\) \['dispatch'\]"):
            JobOptions.from_dict({"dispatch": "serial"})

    def test_from_dict_rejects_non_dict(self):
        with pytest.raises(ServeError, match="JSON object"):
            JobOptions.from_dict([1, 2])


class TestJobLifecycle:
    def test_happy_path_done(self, registry):
        job = Job(config=SMALL, options=JobOptions())
        assert job.state == "queued" and not job.finished
        job.transition("running")
        assert job.started_s is not None
        job.transition("done")
        assert job.finished and job.finished_s is not None
        assert registry.counter("serve.jobs.done").value == 1

    def test_failure_path(self):
        job = Job(config=SMALL, options=JobOptions())
        job.transition("running")
        job.transition("failed")
        assert job.finished

    def test_cancel_from_queued_only(self):
        job = Job(config=SMALL, options=JobOptions())
        job.transition("cancelled")
        assert job.state == "cancelled"

    @pytest.mark.parametrize(
        "path",
        [
            ("done",),  # queued -> done skips running
            ("failed",),  # queued -> failed skips running
            ("running", "cancelled"),  # running jobs cannot cancel
            ("queued", ),  # re-queueing a queued job is meaningless
            ("running", "done", "running"),  # terminal states are final
            ("running", "done", "failed"),
        ],
    )
    def test_illegal_transitions_raise(self, path):
        job = Job(config=SMALL, options=JobOptions())
        with pytest.raises(ServeError, match="illegal transition"):
            for state in path:
                job.transition(state)

    def test_crash_requeue_edge_resets_the_clock(self):
        # running -> queued is the crash-recovery edge: a job whose
        # worker died goes back to the queue with its start time wiped.
        job = Job(config=SMALL, options=JobOptions())
        job.transition("running")
        assert job.started_s is not None
        job.transition("queued")
        assert job.state == "queued"
        assert job.started_s is None
        job.transition("running")
        job.transition("done")
        assert job.finished

    def test_unknown_state_raises(self):
        job = Job(config=SMALL, options=JobOptions())
        with pytest.raises(ServeError, match="unknown job state"):
            job.transition("paused")

    def test_config_hash_is_the_study_cache_key(self):
        job = Job(config=SMALL, options=JobOptions())
        assert job.config_hash == harness.study_cache_key(SMALL)

    def test_status_dict_is_json_safe(self):
        import json

        job = Job(config=SMALL, options=JobOptions(retries=2))
        doc = json.loads(json.dumps(job.status_dict()))
        assert doc["state"] == "queued"
        assert doc["options"] == {"retries": 2}
        assert doc["config"]["stencils"] == ["7pt"]

    def test_states_catalogue(self):
        assert set(JOB_STATES) == {
            "queued", "running", "done", "failed", "cancelled"
        }


class TestJobQueue:
    def _job(self, config=SMALL):
        return Job(config=config, options=JobOptions())

    def test_fifo(self):
        q = JobQueue(limit=4)
        a, b = self._job(), self._job()
        q.put(a), q.put(b)
        assert q.get(0.1) is a and q.get(0.1) is b

    def test_full_queue_rejects_with_retry_after(self, registry):
        q = JobQueue(limit=2)
        q.put(self._job()), q.put(self._job())
        with pytest.raises(QueueFullError) as err:
            q.put(self._job(), retry_after_s=7.0)
        assert err.value.retry_after_s == 7.0
        assert registry.counter("serve.rejected").value == 1

    def test_get_timeout_returns_none(self):
        assert JobQueue().get(timeout_s=0.05) is None

    def test_drain_stops_at_first_rejected_head(self):
        q = JobQueue(limit=8)
        clean = [self._job() for _ in range(2)]
        solo = Job(config=SMALL, options=JobOptions(sleep_s=0.5))
        tail = self._job()
        for job in [*clean, solo, tail]:
            q.put(job)
        taken = q.drain(10, lambda j: j.options.clean)
        assert taken == clean  # stops at the drill job: FIFO fairness
        assert q.get(0.1) is solo

    def test_remove_supports_cancellation(self):
        q = JobQueue()
        job = self._job()
        q.put(job)
        assert q.remove(job) and len(q) == 0
        assert not q.remove(job)

    def test_closed_queue_rejects_and_wakes_getters(self):
        q = JobQueue()
        q.close()
        assert q.get(timeout_s=10.0) is None  # returns at once, no wait
        with pytest.raises(QueueFullError, match="closed"):
            q.put(self._job())


class TestResultStore:
    def test_miss_then_hit(self, registry):
        store = ResultStore()
        assert store.get(SMALL) is None
        study = harness.run_study(SMALL)
        assert store.put(study)
        assert store.get(SMALL) is study
        assert registry.counter("serve.store.misses").value == 1
        assert registry.counter("serve.store.hits").value == 1

    def test_incomplete_study_is_refused(self):
        options = JobOptions(inject_faults=DEGRADING_SEED, retries=0)
        degraded = harness.run_study(
            SMALL, policy=options.policy(),
            fault_plan=options.fault_plan(SMALL),
        )
        assert degraded.failed  # the seed contract
        store = ResultStore()
        assert not store.put(degraded)
        assert store.get(SMALL) is None

    def test_disk_promotion_shares_with_cli_cache(self, tmp_path, registry):
        study = harness.run_study(SMALL)
        # A CLI run left this on disk...
        harness.save_study_cache(study, str(tmp_path))
        # ...and a fresh server warm-starts from it.
        store = ResultStore(cache_dir=str(tmp_path))
        loaded = store.get(SMALL)
        assert loaded is not None and loaded.results == study.results
        assert registry.counter("serve.store.disk_hits").value == 1
        # Promotion: second get is a pure memory hit.
        assert store.get(SMALL) is loaded

    def test_put_persists_for_other_instances(self, tmp_path):
        study = harness.run_study(SMALL)
        ResultStore(cache_dir=str(tmp_path)).put(study)
        again = ResultStore(cache_dir=str(tmp_path)).get(SMALL)
        assert again is not None and again.results == study.results

    def test_promote_race_is_idempotent(self, tmp_path, registry, monkeypatch):
        """Two threads disk-missing the same key promote exactly once."""
        import threading

        from repro.serve import store as store_mod

        harness.save_study_cache(harness.run_study(SMALL), str(tmp_path))
        store = ResultStore(cache_dir=str(tmp_path))

        barrier = threading.Barrier(2, timeout=10.0)
        real_load = store_mod.load_study_cache

        def synchronized_load(config, cache_dir):
            study = real_load(config, cache_dir)
            barrier.wait()  # both threads hold a loaded copy before promoting
            return study

        monkeypatch.setattr(store_mod, "load_study_cache", synchronized_load)
        results = [None, None]

        def get(n):
            results[n] = store.get(SMALL)

        threads = [
            threading.Thread(target=get, args=(n,)) for n in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Both racers got the same object — the winning promotion — and
        # the loser's copy was discarded and counted.
        assert results[0] is not None
        assert results[0] is results[1]
        assert registry.counter("serve.store.promote_races").value == 1
        assert registry.counter("serve.store.disk_hits").value == 2


class TestOrchestrator:
    def test_dedup_short_circuits_simulation(self, registry):
        orch = Orchestrator(ResultStore())
        orch.store.put(harness.run_study(SMALL))
        calls = []
        orch._run_study = lambda *a, **k: calls.append(1)  # must not run
        job = orch.submit(SMALL)
        assert job.state == "done" and job.dedup
        assert job.study is not None and job.study.complete
        assert not calls
        assert registry.counter("serve.dedup_hits").value == 1

    def test_inflight_coalescing_returns_same_job(self, registry):
        orch = Orchestrator(ResultStore())  # never started: job stays queued
        a = orch.submit(SMALL)
        b = orch.submit(SMALL)
        assert a is b
        assert registry.counter("serve.coalesced").value == 1
        # A different config is its own job.
        assert orch.submit(OTHER) is not a

    def test_chaos_jobs_never_coalesce(self, registry):
        orch = Orchestrator(ResultStore())
        a = orch.submit(SMALL, JobOptions(inject_faults=1))
        b = orch.submit(SMALL, JobOptions(inject_faults=1))
        assert a is not b

    def test_backpressure_raises_queue_full(self, registry):
        orch = Orchestrator(ResultStore(), queue_limit=2)  # not started
        orch.submit(SMALL)
        orch.submit(OTHER)
        third = ExperimentConfig(
            stencils=("19pt",), variants=("array",), domain=(64, 64, 64)
        )
        with pytest.raises(QueueFullError) as err:
            orch.submit(third)
        assert err.value.retry_after_s >= 1.0

    def test_end_to_end_single_job(self, registry):
        orch = Orchestrator(ResultStore(), workers=1)
        orch.start()
        try:
            job = orch.submit(SMALL)
            assert wait_for(lambda: job.finished)
            assert job.state == "done"
            assert job.study is not None and job.study.complete
            # Result entered the shared store: next submit dedups.
            assert orch.submit(SMALL).dedup
        finally:
            orch.stop()

    def test_microbatch_fuses_queued_jobs(self, registry):
        orch = Orchestrator(ResultStore(), workers=1, batch_window=8)
        configs = [
            ExperimentConfig(stencils=(s,), variants=("array",),
                             domain=(64, 64, 64))
            for s in ("7pt", "13pt", "19pt")
        ]
        jobs = [orch.submit(c) for c in configs]  # queued before start()
        orch.start()
        try:
            assert wait_for(lambda: all(j.finished for j in jobs))
        finally:
            orch.stop()
        assert [j.state for j in jobs] == ["done"] * 3
        assert all(j.study.complete for j in jobs)
        # One fused sweep, not three: 3 groups, 15 points, one batch.
        assert registry.counter("serve.microbatch.jobs").value == 3
        assert registry.counter("exec.dispatch.microbatch.groups").value == 3
        assert registry.counter("exec.dispatch.microbatch.points").value == 15

    def test_microbatched_results_match_direct_run(self, registry):
        orch = Orchestrator(ResultStore(), workers=1, batch_window=4)
        jobs = [orch.submit(c) for c in (SMALL, OTHER)]
        orch.start()
        try:
            assert wait_for(lambda: all(j.finished for j in jobs))
        finally:
            orch.stop()
        for config, job in zip((SMALL, OTHER), jobs):
            assert job.study.results == harness.run_study(config).results

    def test_fault_job_degrades_without_wedging_the_queue(self, registry):
        orch = Orchestrator(ResultStore(), workers=1)
        chaos = orch.submit(
            SMALL, JobOptions(inject_faults=DEGRADING_SEED, retries=0)
        )
        clean = orch.submit(SMALL)  # distinct job: chaos never coalesces
        assert chaos is not clean
        orch.start()
        try:
            assert wait_for(lambda: chaos.finished and clean.finished)
        finally:
            orch.stop()
        # The chaos job finished degraded (FailedPoints, not a crash)...
        assert chaos.state == "done"
        assert chaos.study.failed and not chaos.study.complete
        # ...its degraded result never entered the shared store...
        assert clean.state == "done" and clean.study.complete
        # ...and the clean result is what later tenants are served.
        assert orch.submit(SMALL).study.complete

    def test_crashing_job_fails_cleanly(self, registry):
        def explode(*args, **kwargs):
            raise RuntimeError("boom")

        orch = Orchestrator(ResultStore(), workers=1, run_study_fn=explode)
        job = orch.submit(SMALL, JobOptions())
        orch.start()
        try:
            assert wait_for(lambda: job.finished)
            assert job.state == "failed"
            assert "RuntimeError: boom" in job.error
            assert registry.counter("serve.job_errors").value == 1
            # The worker survived; a fresh submission is NOT dedup'd to
            # the failure and the queue still serves.
            retry = orch.submit(SMALL, JobOptions())
            assert wait_for(lambda: retry.finished)
            assert retry.state == "failed"  # stub still explodes
        finally:
            orch.stop()

    def test_cancel_queued_job(self, registry):
        orch = Orchestrator(ResultStore())  # not started
        job = orch.submit(SMALL)
        cancelled = orch.cancel(job.job_id)
        assert cancelled is job and job.state == "cancelled"
        # Cancellation released the in-flight slot: resubmit is fresh.
        assert orch.submit(SMALL) is not job

    def test_cancel_finished_job_refuses(self, registry):
        orch = Orchestrator(ResultStore(), workers=1)
        orch.start()
        try:
            job = orch.submit(SMALL)
            assert wait_for(lambda: job.finished)
            with pytest.raises(ServeError, match="not queued"):
                orch.cancel(job.job_id)
        finally:
            orch.stop()

    def test_unknown_job_raises(self):
        with pytest.raises(ServeError, match="no such job"):
            Orchestrator(ResultStore()).job("j99999")

    def test_invalid_sizing_raises(self):
        with pytest.raises(ServeError):
            Orchestrator(ResultStore(), workers=0)
        with pytest.raises(ServeError):
            Orchestrator(ResultStore(), batch_window=0)


class TestConfigFromDict:
    @pytest.mark.parametrize("domain", [[True, 4, 4], [4, False, 4], (4, 4, True)])
    def test_boolean_extent_is_rejected(self, domain):
        with pytest.raises(MetricError, match="domain"):
            config_from_dict({"domain": domain})
