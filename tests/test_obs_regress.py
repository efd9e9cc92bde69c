"""Tests for the cross-run regression detector (repro.obs.regress)."""

import pytest

from repro import obs
from repro.errors import ObservabilityError
from repro.obs.regress import median_mad


def record_run(store, *, duration=1.0, gates=None, counters=None):
    """One synthetic run: fixed git identity, chosen measurements only."""
    registry = obs.MetricsRegistry()
    for name, value in (counters or {}).items():
        registry.counter(name).inc(value)
    return store.record_run(
        "study",
        roots=[],
        registry=registry,
        config_hash="cfg",
        duration_s=duration,
        gates=gates,
        git_rev="deadbeef",
        git_dirty=False,
    )


@pytest.fixture
def store(tmp_path):
    with obs.TelemetryStore(str(tmp_path / "t.db")) as s:
        yield s


class TestMedianMad:
    def test_odd_and_even(self):
        assert median_mad([3.0, 1.0, 2.0]) == (2.0, 1.0)
        med, mad = median_mad([1.0, 2.0, 3.0, 4.0])
        assert med == 2.5 and mad == 1.0

    def test_outlier_robustness(self):
        # One loaded-CI outlier must not move the baseline: mean would
        # be 3.25 here, the median stays at the typical value.
        med, mad = median_mad([1.0, 1.0, 1.0, 10.0])
        assert med == 1.0
        assert mad == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ObservabilityError):
            median_mad([])


class TestMetricSpec:
    def test_bad_direction_rejected(self):
        with pytest.raises(ObservabilityError, match="direction"):
            obs.MetricSpec("x", direction="sideways")

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ObservabilityError):
            obs.MetricSpec("x", tolerance=-0.1)


class TestDiffRun:
    def test_true_negative_on_stable_history(self, store):
        for _ in range(4):
            record_run(store, duration=1.0)
        record_run(store, duration=1.05)
        report = obs.diff_run(
            store, specs=[obs.MetricSpec("run.duration_s", "lower", 0.5)]
        )
        assert report.ok
        (entry,) = report.entries
        assert entry.status == "ok"
        assert entry.window == 4

    def test_true_positive_on_inflated_duration(self, store):
        for _ in range(4):
            record_run(store, duration=1.0)
        record_run(store, duration=3.0)  # 3x: way past the 50% tolerance
        report = obs.diff_run(
            store, specs=[obs.MetricSpec("run.duration_s", "lower", 0.5)]
        )
        assert not report.ok
        (entry,) = report.regressions
        assert entry.metric == "run.duration_s"
        assert entry.current == pytest.approx(3.0)
        assert entry.baseline_median == pytest.approx(1.0)
        assert "REGRESSION" in report.render()

    def test_improvement_is_not_a_regression(self, store):
        for _ in range(4):
            record_run(store, duration=1.0)
        record_run(store, duration=0.2)
        report = obs.diff_run(
            store, specs=[obs.MetricSpec("run.duration_s", "lower", 0.5)]
        )
        assert report.ok
        assert report.entries[0].status == "improved"

    def test_higher_direction_flags_throughput_drop(self, store):
        spec = obs.MetricSpec("gate.sweep.speedup", "higher", 0.5)
        for _ in range(3):
            record_run(store, gates={"sweep.speedup": (2.0, True)})
        record_run(store, gates={"sweep.speedup": (0.7, False)})
        assert not obs.diff_run(store, specs=[spec]).ok
        # A rise is an improvement, never a failure.
        record_run(store, gates={"sweep.speedup": (4.0, True)})
        assert obs.diff_run(store, specs=[spec]).ok

    def test_equal_direction_flags_any_drift(self, store):
        spec = obs.MetricSpec("counter.study.points", "equal", 0.0)
        for _ in range(3):
            record_run(store, counters={"study.points": 90})
        record_run(store, counters={"study.points": 89})
        report = obs.diff_run(store, specs=[spec])
        assert not report.ok

    def test_mad_band_absorbs_historical_noise(self, store):
        # Noisy history (MAD > 0): a value inside the 3-sigma MAD band
        # passes even with a zero relative tolerance.
        for d in (1.0, 1.2, 0.8, 1.1, 0.9):
            record_run(store, duration=d)
        record_run(store, duration=1.3)
        report = obs.diff_run(
            store, specs=[obs.MetricSpec("run.duration_s", "lower", 0.0)]
        )
        assert report.ok

    def test_floor_suppresses_tiny_absolute_jitter(self, store):
        for _ in range(3):
            record_run(store, duration=0.001)
        record_run(store, duration=0.004)  # 4x, but only +3 ms
        spec = obs.MetricSpec("run.duration_s", "lower", 0.5, floor=0.25)
        assert obs.diff_run(store, specs=[spec]).ok

    def test_insufficient_history_skips(self, store):
        record_run(store, duration=1.0)
        record_run(store, duration=99.0)
        spec = obs.MetricSpec("run.duration_s", "lower", 0.5, min_runs=3)
        report = obs.diff_run(store, specs=[spec])
        assert report.ok
        assert report.entries[0].status == "skipped"
        assert "insufficient history" in report.entries[0].note

    def test_unmeasured_metric_skips(self, store):
        record_run(store)
        record_run(store)
        report = obs.diff_run(
            store, specs=[obs.MetricSpec("gate.no.such.gate", "higher")]
        )
        assert report.ok
        assert report.entries[0].status == "skipped"

    def test_first_run_has_no_baseline(self, store):
        record_run(store, duration=1.0)
        report = obs.diff_run(store)
        assert report.ok
        assert report.baseline == ()
        assert all(e.status == "skipped" for e in report.entries)

    def test_empty_database_rejected(self, store):
        with pytest.raises(ObservabilityError, match="no runs"):
            obs.diff_run(store)

    def test_window_limits_baseline(self, store):
        # Old slow runs outside the window must not pad the baseline.
        for _ in range(5):
            record_run(store, duration=10.0)
        for _ in range(5):
            record_run(store, duration=1.0)
        record_run(store, duration=3.0)
        spec = obs.MetricSpec("run.duration_s", "lower", 0.5)
        report = obs.diff_run(store, specs=[spec], window=5)
        assert not report.ok
        assert report.entries[0].baseline_median == pytest.approx(1.0)

    def test_default_specs_cover_the_bench_gates(self):
        names = {s.name for s in obs.DEFAULT_SPECS}
        assert {"run.duration_s", "gate.batch.speedup_vs_serial",
                "gate.cachesim.speedup", "span.simulate.total_s"} <= names
