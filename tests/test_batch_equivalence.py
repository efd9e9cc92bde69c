"""The batch-vectorized engine: bit-exact equivalence with the oracle.

``simulate_batch`` replaces the scalar ``simulate()`` loop for every
analytic sweep, so the scalar path is its oracle: every result field —
floats *bitwise*, ints by value, types by identity — must match, for
single points, whole studies, failure degradation under injected
faults, and the autotuner.  These tests pin that contract.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import harness, obs
from repro.dsl.shapes import by_name
from repro.errors import SimulationError, TaskTimeoutError
from repro.exec import (
    simulate_point,
    study_item_key,
    validate_simulation,
)
from repro.gpu import BatchPoint, platform, simulate, simulate_batch, study_platforms
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    TaskFailure,
    run_with_policy,
)
from repro.tuning.space import TuningSpace

SMALL = harness.ExperimentConfig(stencils=("7pt",), domain=(64, 64, 64))
STENCILS = ("7pt", "13pt", "27pt", "125pt")
VARIANTS = ("array", "array_codegen", "bricks_codegen")
PLATFORMS = study_platforms()


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


def _bits(result) -> bytes:
    """Every float field of a result, packed — equality here is bitwise."""
    tr, tm = result.traffic, result.timing
    return struct.pack(
        "<12d",
        tr.hbm_read_bytes,
        tr.hbm_write_bytes,
        tr.l1_bytes,
        tr.reuse_miss_bytes,
        tm.t_hbm,
        tm.t_l1,
        tm.t_fp,
        tm.t_shuffle,
        tm.t_issue,
        tm.launch_overhead,
        tm.occupancy,
        result.time_s,
    )


def assert_bit_identical(batch_result, scalar_result):
    assert batch_result == scalar_result
    assert _bits(batch_result) == _bits(scalar_result)
    # Same *types* too: the scalar path hands back native ints for
    # sector counts; ndarray.tolist() must not leak numpy scalars.
    for field in ("load_sectors", "store_sectors"):
        assert type(getattr(batch_result.traffic, field)) is type(
            getattr(scalar_result.traffic, field)
        )
    assert type(batch_result.traffic.hbm_read_bytes) is float


class TestBitExactness:
    @given(
        name=st.sampled_from(STENCILS),
        plat_idx=st.integers(0, len(PLATFORMS) - 1),
        variant=st.sampled_from(VARIANTS),
        ni=st.integers(1, 4).map(lambda m: 64 * m),
        nj=st.integers(1, 8).map(lambda m: 4 * m),
        nk=st.integers(1, 8).map(lambda m: 4 * m),
    )
    @settings(max_examples=30, deadline=None)
    def test_single_point_matches_oracle(
        self, name, plat_idx, variant, ni, nj, nk
    ):
        stencil = by_name(name).build()
        plat = PLATFORMS[plat_idx]
        domain = (ni, nj, nk)
        scalar = simulate(
            stencil, variant, plat, domain=domain, stencil_name=name,
            check_invariants=False,
        )
        (batch,) = simulate_batch(
            [
                BatchPoint(
                    stencil=stencil, variant=variant, platform=plat,
                    domain=domain, stencil_name=name,
                )
            ],
            check_invariants=False,
        )
        assert_bit_identical(batch, scalar)

    def test_tuning_overrides_match_oracle(self):
        # dims/vector_length overrides (the tuner's use of the engine).
        stencil = by_name("13pt").build()
        plat = platform("A100", "CUDA")
        domain = (128, 64, 64)
        points = list(
            TuningSpace().candidates(
                plat.arch.simd_width, stencil.radius, domain
            )
        )[:12]
        bpoints = [
            BatchPoint(
                stencil=stencil, variant="bricks_codegen", platform=plat,
                domain=domain, dims=p.brick_dims(),
                vector_length=p.vector_length,
            )
            for p in points
        ]
        batch = simulate_batch(bpoints, check_invariants=False)
        for p, b in zip(points, batch):
            scalar = simulate(
                stencil, "bricks_codegen", plat, domain=domain,
                dims=p.brick_dims(), vector_length=p.vector_length,
                check_invariants=False,
            )
            assert_bit_identical(b, scalar)

    def test_mixed_matrix_matches_oracle(self):
        points = [
            BatchPoint(
                stencil=by_name(name).build(), variant=variant,
                platform=plat, domain=(128, 32, 32), stencil_name=name,
            )
            for name in ("7pt", "25pt")
            for plat in PLATFORMS
            for variant in VARIANTS
        ]
        batch = simulate_batch(points, check_invariants=False)
        for p, b in zip(points, batch):
            scalar = simulate(
                p.stencil, p.variant, p.platform, domain=p.domain,
                stencil_name=p.stencil_name, check_invariants=False,
            )
            assert_bit_identical(b, scalar)


def _study_items(config):
    """The items ``run_study`` sweeps for ``config``, in sweep order."""
    platforms = config.platforms()
    return [
        (name, by_name(name).build(), plat, variant, config.domain)
        for name in config.stencils
        for plat in platforms
        for variant in config.variants
    ]


def scalar_study(config, policy=None, fault_plan=None):
    """The oracle: a scalar ``simulate()`` loop over the study's items.

    Returns ``(results, failed, counters)`` — results and FailedPoint
    records keyed like a :class:`StudyResults`, plus the ``simulate.*``
    counter deltas the loop produced.  Under a fault plan every point
    runs through the plan's wrapper and the retry policy, one at a time.
    """
    items = _study_items(config)
    fn = simulate_point
    if fault_plan is not None:
        fn = fault_plan.wrap(simulate_point, key_fn=study_item_key)
    policy = (policy or RetryPolicy()).with_validate(validate_simulation)
    before = _counters()
    results, failed = {}, {}
    for item in items:
        key = study_item_key(item)
        try:
            results[key] = run_with_policy(fn, item, policy)
        except Exception as exc:
            failed[key] = harness.FailedPoint(
                stencil=key[0], platform=key[1], variant=key[2],
                error_type=type(exc).__name__, message=str(exc),
                attempts=getattr(exc, "attempts", 1),
                timed_out=isinstance(exc, TaskTimeoutError),
            )
    return results, failed, _delta(before)


def measured_study(config, **kw):
    """``run_study`` plus the ``simulate.*`` counter deltas it produced."""
    before = _counters()
    study = harness.run_study(config, **kw)
    return study, _delta(before)


COUNTERS = ("simulate.calls", "simulate.tiles", "codegen.vector_ops")


def _counters():
    registry = obs.get_registry()
    return {name: registry.counter(name).value for name in COUNTERS}


def _delta(before):
    after = _counters()
    return {name: after[name] - before[name] for name in COUNTERS}


def _seeded_plan(config):
    return FaultPlan.seeded(
        3, config.keys(), raise_rate=0.3, corrupt_rate=0.15
    )


#: Routes every SMALL point through the scalar retry path without
#: injecting anything: a ``raise`` spec that sabotages zero attempts.
SCALAR_ROUTED = FaultPlan(faults=tuple(
    (key, FaultSpec("raise", failures=0)) for key in SMALL.keys()
))


class TestStudyEquivalence:
    """``run_study`` against the scalar oracle loop, three ways: the
    oracle, the batch-engine study, and the study with every point
    routed through the in-process scalar retry path."""

    def test_three_way_results_identical(self, registry):
        oracle, _, _ = scalar_study(SMALL)
        for plan in (None, SCALAR_ROUTED):
            study = harness.run_study(SMALL, fault_plan=plan)
            assert list(study.results) == list(oracle), plan
            assert study.results == oracle, plan
            assert not study.failed
            for key in oracle:
                assert _bits(study.results[key]) == _bits(oracle[key])

    def test_vectorized_counters_match_serial(self, registry):
        _, _, oracle = scalar_study(SMALL)
        assert oracle["simulate.calls"] == 15
        for plan in (None, SCALAR_ROUTED):
            _, counters = measured_study(SMALL, fault_plan=plan)
            assert counters == oracle, plan

    def test_three_way_identical_under_faults(self, registry):
        assert len(_seeded_plan(SMALL)) > 0
        policy = RetryPolicy(retries=3, backoff_s=0.0)
        clean, _, _ = scalar_study(SMALL)
        oracle, failed, oracle_counters = scalar_study(
            SMALL, policy=policy, fault_plan=_seeded_plan(SMALL)
        )
        assert not failed and oracle == clean
        study, counters = measured_study(
            SMALL, policy=policy, fault_plan=_seeded_plan(SMALL),
        )
        assert study.complete
        assert study.results == oracle
        assert counters == oracle_counters

    def test_failed_points_identical_across_modes(self, registry):
        # Zero retries: every injected fault becomes a degraded FAILED
        # entry; the records must agree field for field.
        policy = RetryPolicy(retries=0, backoff_s=0.0)
        plan = _seeded_plan(SMALL)
        assert plan.count("raise") > 0
        oracle, failed, oracle_counters = scalar_study(
            SMALL, policy=policy, fault_plan=_seeded_plan(SMALL)
        )
        assert set(failed) == {key for key, _ in plan.faults}
        study, counters = measured_study(
            SMALL, policy=policy, fault_plan=_seeded_plan(SMALL),
        )
        assert study.failed == failed
        assert study.results == oracle
        assert list(study.results) == list(oracle)
        assert counters == oracle_counters

    def test_scalar_routed_span_tree(self, tracer):
        harness.run_study(SMALL, fault_plan=SCALAR_ROUTED)
        (root,) = tracer.roots()
        assert root.name == "run_study"
        assert not root.find("sweep.batch")
        points = root.find("study.point")
        assert [p.parent_id for p in points] == [root.span_id] * 15
        keys = {
            (p.attrs["stencil"], p.attrs["platform"], p.attrs["variant"])
            for p in points
        }
        assert keys == set(SMALL.keys())
        for p in points:
            (sim,) = p.children
            assert sim.name == "simulate"
            assert [c.name for c in sim.children] == [
                "codegen", "cost", "traffic", "timing"
            ]
        ids = [s.span_id for s in root.walk()]
        assert len(ids) == len(set(ids))

    def test_vectorized_span_tree(self, tracer):
        harness.run_study(SMALL)
        (root,) = tracer.roots()
        assert root.name == "run_study"
        (batch,) = root.find("sweep.batch")
        assert batch.attrs["points"] == 15
        assert batch.attrs["groups"] == 15  # one group per combo here
        assert [c.name for c in batch.children] == ["sweep.chunk"]
        assert not root.find("study.point")

    def test_checkpoint_and_resume(self, tmp_path):
        first = harness.run_study(
            SMALL, cache_dir=str(tmp_path), checkpoint_every=4,
        )
        resumed = harness.run_study(
            SMALL, cache_dir=str(tmp_path), resume=True,
        )
        assert resumed.results == first.results


class TestBatchFailureSemantics:
    def test_bad_domain_raises_like_scalar(self):
        stencil = by_name("7pt").build()
        plat = platform("A100", "CUDA")
        bad = BatchPoint(
            stencil=stencil, variant="array", platform=plat,
            domain=(65, 64, 64),
        )
        with pytest.raises(SimulationError) as batch_err:
            simulate_batch([bad], check_invariants=False)
        with pytest.raises(SimulationError) as scalar_err:
            simulate(
                stencil, "array", plat, domain=(65, 64, 64),
                check_invariants=False,
            )
        assert str(batch_err.value) == str(scalar_err.value)

    def test_unknown_variant_raises_like_scalar(self):
        stencil = by_name("7pt").build()
        plat = platform("A100", "CUDA")
        bad = BatchPoint(stencil=stencil, variant="nope", platform=plat)
        with pytest.raises(SimulationError) as batch_err:
            simulate_batch([bad])
        with pytest.raises(SimulationError) as scalar_err:
            simulate(stencil, "nope", plat)
        assert str(batch_err.value) == str(scalar_err.value)

    def test_capture_degrades_to_task_failure(self):
        stencil = by_name("7pt").build()
        plat = platform("A100", "CUDA")
        good = BatchPoint(
            stencil=stencil, variant="array", platform=plat,
            domain=(64, 64, 64),
        )
        bad = BatchPoint(
            stencil=stencil, variant="array", platform=plat,
            domain=(65, 64, 64),
        )
        out = simulate_batch(
            [good, bad, good], capture_failures=True, check_invariants=False
        )
        assert isinstance(out[1], TaskFailure)
        assert out[1].error_type == "SimulationError"
        assert out[1].attempts == 1 and not out[1].timed_out
        assert out[0] == out[2]
        assert not isinstance(out[0], TaskFailure)

    def test_failure_does_not_bump_counters(self, registry):
        stencil = by_name("7pt").build()
        plat = platform("A100", "CUDA")
        bad = BatchPoint(
            stencil=stencil, variant="array", platform=plat,
            domain=(65, 64, 64),
        )
        simulate_batch([bad], capture_failures=True, check_invariants=False)
        assert registry.counter("simulate.calls").value == 0

    def test_on_result_fires_in_order(self):
        stencil = by_name("7pt").build()
        plat = platform("A100", "CUDA")
        points = [
            BatchPoint(
                stencil=stencil, variant=v, platform=plat,
                domain=(64, 64, 64),
            )
            for v in VARIANTS
        ]
        seen = []
        out = simulate_batch(
            points, check_invariants=False, chunk_size=2,
            on_result=lambda i, r: seen.append((i, r)),
        )
        assert [i for i, _ in seen] == [0, 1, 2]
        assert [r for _, r in seen] == out


class TestTuningDispatch:
    def test_tune_equals_scalar_loop(self, registry):
        from repro.tuning import Autotuner

        stencil = by_name("13pt").build()
        plat = platform("A100", "CUDA")
        domain = (64, 64, 64)
        outcome = Autotuner().tune(
            stencil, plat, domain=domain, stencil_name="13pt"
        )
        assert registry.counter("sweep.batch.points").value == len(
            outcome.ranking
        )
        candidates = list(
            TuningSpace().candidates(
                plat.arch.simd_width, stencil.radius, domain
            )
        )
        scalar = sorted(
            (
                (
                    p,
                    simulate(
                        stencil, "bricks_codegen", plat, domain=domain,
                        stencil_name="13pt", dims=p.brick_dims(),
                        vector_length=p.vector_length,
                    ),
                )
                for p in candidates
            ),
            key=lambda pr: (pr[1].time_s, pr[0].label()),
        )
        assert outcome.ranking == tuple((p, r.time_s) for p, r in scalar)
        assert outcome.best == scalar[0][0]
        assert_bit_identical(outcome.best_result, scalar[0][1])
