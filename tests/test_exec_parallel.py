"""The process-pool engine: equivalence with serial runs.

The pool runs a study's fault-injected points when ``parallel > 1``.
That must be a pure implementation detail: same results, same
counters, same span tree as the serial path, just spread over worker
processes.  These tests pin that contract.
"""

import os

import pytest

from repro import harness, obs
from repro.errors import ExecutionError
from repro.exec import (
    clear_cost_model,
    parallel_map,
    pool,
    record_cost,
    resolve_jobs,
    simulate_point,
)
from repro.exec.pool import _chunk_bounds
from repro.gpu.progmodel import platform
from repro.gpu.simulator import simulate
from repro.resilience import FaultPlan, FaultSpec, RetryPolicy
from repro.tuning import Autotuner

SMALL = harness.ExperimentConfig(stencils=("7pt",), domain=(64, 64, 64))


@pytest.fixture
def registry():
    prev = obs.get_registry()
    reg = obs.set_registry(obs.MetricsRegistry())
    yield reg
    obs.set_registry(prev)


@pytest.fixture
def tracer():
    prev_t, prev_r = obs.get_tracer(), obs.get_registry()
    t = obs.set_tracer(obs.Tracer(enabled=True))
    obs.set_registry(obs.MetricsRegistry())
    yield t
    obs.set_tracer(prev_t)
    obs.set_registry(prev_r)


# Module-level so the pool can pickle them by reference.
def _square(x):
    return x * x


def _fail_on_seven(x):
    if x == 7:
        raise ValueError("seven is right out")
    return x


def _count_call(x):
    obs.counter("pool_test.calls").inc()
    return x + 1


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2

    def test_zero_means_cpu_count(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        with pytest.raises(ExecutionError):
            resolve_jobs(None)

    def test_negative_rejected(self):
        with pytest.raises(ExecutionError):
            resolve_jobs(-2)


class TestChunking:
    def test_bounds_cover_range_exactly(self):
        for n in (1, 5, 16, 17, 100):
            for nchunks in (1, 3, 8, 200):
                bounds = _chunk_bounds(n, nchunks)
                flat = [i for s, e in bounds for i in range(s, e)]
                assert flat == list(range(n))
                sizes = [e - s for s, e in bounds]
                assert max(sizes) - min(sizes) <= 1  # balanced
                assert min(sizes) >= 1  # never an empty chunk


class TestParallelMap:
    def test_results_in_input_order(self):
        items = list(range(53))
        assert parallel_map(_square, items, jobs=4) == [x * x for x in items]

    def test_serial_fallback_runs_in_process(self):
        # jobs=1 never pickles: a closure (unpicklable) works fine.
        assert parallel_map(lambda x: x + 1, [1, 2, 3], jobs=1) == [2, 3, 4]

    def test_single_item_runs_in_process(self):
        assert parallel_map(lambda x: -x, [5], jobs=8) == [-5]

    def test_empty(self):
        assert parallel_map(_square, [], jobs=4) == []

    def test_exceptions_propagate(self):
        with pytest.raises(ValueError, match="seven"):
            parallel_map(_fail_on_seven, list(range(20)), jobs=2)

    def test_worker_counters_aggregate(self, registry):
        parallel_map(_count_call, list(range(40)), jobs=3)
        assert registry.counter("pool_test.calls").value == 40


#: Routes every SMALL point through the scalar engine without injecting
#: anything: a ``raise`` spec that sabotages zero attempts.
SCALAR_ROUTED = FaultPlan(faults=tuple(
    (key, FaultSpec("raise", failures=0)) for key in SMALL.keys()
))


@pytest.fixture
def force_pool(monkeypatch):
    """Make ``parallel_map`` pool whenever ``jobs > 1``.

    The measured break-even model keeps cheap analytic points in-process
    on small machines; these tests are about the pool itself.
    """
    monkeypatch.setattr(pool, "break_even_points", lambda *a, **k: 0.0)
    clear_cost_model()
    record_cost(simulate_point, 1.0)
    yield
    clear_cost_model()


class TestStudyEquivalence:
    """A study's fault-injected points spread over the pool; results,
    counters and the per-point span tree must not show it."""

    def test_parallel_study_equals_serial(self, force_pool):
        serial = harness.run_study(SMALL)
        parallel = harness.run_study(
            SMALL, parallel=3, fault_plan=SCALAR_ROUTED
        )
        assert list(parallel.results) == list(serial.results)  # same order
        assert parallel.results == serial.results  # same values

    def test_parallel_counters_match_serial(self, registry, force_pool):
        harness.run_study(SMALL, parallel=3, fault_plan=SCALAR_ROUTED)
        # 1 stencil x 5 platforms x 3 variants, re-aggregated from workers.
        assert registry.counter("simulate.calls").value == 15
        assert registry.counter("study.points").value == 15
        assert registry.counter("codegen.vector_ops").value > 0
        assert registry.counter("exec.dispatch.serial_fallback").value == 0

    def test_parallel_span_tree_matches_serial_contract(
        self, tracer, force_pool
    ):
        harness.run_study(SMALL, parallel=2, fault_plan=SCALAR_ROUTED)
        (root,) = tracer.roots()
        assert root.name == "run_study"
        assert root.attrs["jobs"] == 2
        (mapped,) = root.find("exec.parallel_map")
        assert mapped.attrs["jobs"] == 2
        points = root.find("study.point")
        assert len(points) == 15
        keys = {
            (p.attrs["stencil"], p.attrs["platform"], p.attrs["variant"])
            for p in points
        }
        assert len(keys) == 15
        for p in points:
            (sim,) = p.children
            assert sim.name == "simulate"
            assert [c.name for c in sim.children] == [
                "codegen", "cost", "traffic", "timing"
            ]

    def test_adopted_span_ids_are_unique(self, tracer, force_pool):
        harness.run_study(SMALL, parallel=2, fault_plan=SCALAR_ROUTED)
        (root,) = tracer.roots()
        ids = [s.span_id for s in root.walk()]
        assert len(ids) == len(set(ids))


class TestTuningEquivalence:
    def test_tune_with_policy_equals_scalar_loop(self):
        from repro.dsl.shapes import by_name

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
