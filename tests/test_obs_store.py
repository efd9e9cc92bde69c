"""Tests for the telemetry warehouse (repro.obs.store)."""

import os
import sqlite3

import pytest

from repro import obs
from repro.errors import ObservabilityError
from repro.obs import store as obs_store


def fake_clock():
    """A monotonic fake clock ticking 1 ms per read."""
    t = [0.0]

    def clock():
        t[0] += 0.001
        return t[0]

    return clock


def sample_tracer():
    tracer = obs.Tracer(clock=fake_clock())
    with tracer.span("run_study", points=2):
        with tracer.span("study.point", stencil="7pt"):
            with tracer.span("simulate"):
                pass
        with tracer.span("study.point", stencil="13pt"):
            with tracer.span("simulate"):
                pass
    return tracer


def sample_registry():
    registry = obs.MetricsRegistry()
    registry.counter("simulate.calls").inc(2)
    registry.gauge("sweep.jobs").set(4.0)
    hist = registry.histogram("stage.cost", bounds=(1.0, 2.0, 4.0))
    for v in (0.5, 1.5, 3.0):
        hist.observe(v)
    return registry


def record_sample(store, **kw):
    """One fully explicit run record (no git subprocess, no globals)."""
    defaults = dict(
        tracer=sample_tracer(),
        registry=sample_registry(),
        config_hash="cfg-a",
        duration_s=1.25,
        gates={"sweep.speedup": (2.1, True), "cachesim.speedup": (8.0, True)},
        git_rev="deadbeef",
        git_dirty=False,
    )
    entrypoint = kw.pop("entrypoint", "study")
    defaults.update(kw)
    return store.record_run(entrypoint, **defaults)


class TestSchema:
    def test_fresh_database_gets_current_version(self, tmp_path):
        path = str(tmp_path / "t.db")
        with obs.TelemetryStore(path):
            pass
        version = sqlite3.connect(path).execute(
            "PRAGMA user_version"
        ).fetchone()[0]
        assert version == obs.STORE_SCHEMA_VERSION

    def test_version_mismatch_rejected_loudly(self, tmp_path):
        path = str(tmp_path / "t.db")
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA user_version = 99")
        conn.commit()
        conn.close()
        with pytest.raises(ObservabilityError, match="schema version"):
            obs.TelemetryStore(path)

    def test_missing_database_rejected_when_not_creating(self, tmp_path):
        with pytest.raises(ObservabilityError, match="no telemetry database"):
            obs.TelemetryStore(str(tmp_path / "absent.db"), create=False)

    def test_resolve_db_path_env_fallback(self, monkeypatch):
        monkeypatch.delenv(obs.TELEMETRY_DB_ENV, raising=False)
        assert obs.resolve_db_path(None) is None
        assert obs.resolve_db_path("x.db") == "x.db"
        monkeypatch.setenv(obs.TELEMETRY_DB_ENV, "env.db")
        assert obs.resolve_db_path(None) == "env.db"
        assert obs.resolve_db_path("x.db") == "x.db"


class TestRoundtrip:
    def test_run_record_fields(self, tmp_path):
        with obs.TelemetryStore(str(tmp_path / "t.db")) as store:
            run_id = record_sample(store, extra={"note": "hello"})
            run = store.run(run_id)
        assert run.entrypoint == "study"
        assert run.git_rev == "deadbeef"
        assert run.git_dirty is False
        assert run.config_hash == "cfg-a"
        assert run.duration_s == pytest.approx(1.25)
        assert run.extra == {"note": "hello"}
        assert "T" in run.created_utc  # ISO-8601 timestamp

    def test_default_revision_is_the_packages_probed_once(
        self, tmp_path, monkeypatch
    ):
        # Recorded from a directory outside any checkout, the run still
        # carries the revision and dirty flag of the checkout the
        # package runs from, and two runs share one probe.
        package_dir = os.path.dirname(os.path.abspath(obs_store.__file__))
        expected = obs_store.git_state(package_dir)
        calls = []
        probe = obs_store.git_state
        monkeypatch.setattr(
            obs_store, "git_state", lambda cwd=None: calls.append(cwd) or probe(cwd)
        )
        monkeypatch.chdir(tmp_path)
        obs_store.package_git_state.cache_clear()
        try:
            with obs.TelemetryStore(str(tmp_path / "t.db")) as store:
                runs = [
                    store.run(record_sample(store, git_rev=None, git_dirty=None))
                    for _ in range(2)
                ]
        finally:
            obs_store.package_git_state.cache_clear()
        assert calls == [package_dir]
        for run in runs:
            assert (run.git_rev, run.git_dirty) == expected

    def test_span_tree_roundtrips(self, tmp_path):
        with obs.TelemetryStore(str(tmp_path / "t.db")) as store:
            run_id = record_sample(store)
            roots = store.span_roots(run_id)
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "run_study"
        assert root.attrs == {"points": 2}
        assert [c.name for c in root.children] == ["study.point"] * 2
        assert {c.attrs["stencil"] for c in root.children} == {"7pt", "13pt"}
        (sim,) = root.children[0].children
        assert sim.name == "simulate"
        assert sim.duration_s > 0
        assert root.pid > 0  # worker attribution survives the roundtrip

    def test_span_totals_aggregate_by_name(self, tmp_path):
        with obs.TelemetryStore(str(tmp_path / "t.db")) as store:
            run_id = record_sample(store)
            totals = store.span_totals(run_id)
        count, total = totals["simulate"]
        assert count == 2
        assert total > 0
        assert totals["run_study"][0] == 1

    def test_gates_roundtrip(self, tmp_path):
        with obs.TelemetryStore(str(tmp_path / "t.db")) as store:
            run_id = record_sample(
                store, gates={"sweep.speedup": obs.GateResult(
                    "sweep.speedup", 0.7, False)},
            )
            gates = store.gate_results(run_id)
        assert gates == [obs.GateResult("sweep.speedup", 0.7, False)]

    def test_failed_points_defaults_to_exec_counter(self, tmp_path):
        registry = sample_registry()
        registry.counter("exec.failed_points").inc(3)
        with obs.TelemetryStore(str(tmp_path / "t.db")) as store:
            run_id = record_sample(store, registry=registry)
            assert store.run(run_id).failed_points == 3


class TestMeasurements:
    def test_flat_namespace(self, tmp_path):
        with obs.TelemetryStore(str(tmp_path / "t.db")) as store:
            run_id = record_sample(store)
            m = store.measurements(run_id)
        assert m["run.duration_s"] == pytest.approx(1.25)
        assert m["run.failed_points"] == 0.0
        assert m["span.simulate.count"] == 2.0
        assert m["span.simulate.total_s"] > 0
        assert m["counter.simulate.calls"] == 2.0
        assert m["gauge.sweep.jobs"] == 4.0
        assert m["gate.sweep.speedup"] == pytest.approx(2.1)
        assert m["hist.stage.cost.count"] == 3.0
        assert m["hist.stage.cost.mean"] == pytest.approx(5.0 / 3.0)
        assert "hist.stage.cost.p50" in m and "hist.stage.cost.p95" in m

    def test_measurement_history_skips_runs_without_the_metric(
        self, tmp_path
    ):
        with obs.TelemetryStore(str(tmp_path / "t.db")) as store:
            record_sample(store, gates={"sweep.speedup": (2.0, True)})
            record_sample(store, gates=None)  # no gate rows at all
            record_sample(store, gates={"sweep.speedup": (2.4, True)})
            history = store.measurement_history("gate.sweep.speedup")
        assert [v for _, v in history] == pytest.approx([2.0, 2.4])

    def test_measurement_history_filters_and_limits(self, tmp_path):
        with obs.TelemetryStore(str(tmp_path / "t.db")) as store:
            for d in (1.0, 2.0, 3.0):
                record_sample(store, duration_s=d)
            record_sample(store, entrypoint="tune", duration_s=99.0)
            assert [
                v for _, v in store.measurement_history(
                    "run.duration_s", entrypoint="study")
            ] == pytest.approx([1.0, 2.0, 3.0])
            assert [
                v for _, v in store.measurement_history(
                    "run.duration_s", entrypoint="study", limit=2)
            ] == pytest.approx([2.0, 3.0])


class TestQueries:
    def test_run_lookup_missing_raises(self, tmp_path):
        with obs.TelemetryStore(str(tmp_path / "t.db")) as store:
            with pytest.raises(ObservabilityError, match="no run 42"):
                store.run(42)

    def test_latest_run(self, tmp_path):
        with obs.TelemetryStore(str(tmp_path / "t.db")) as store:
            assert store.latest_run() is None
            first = record_sample(store)
            second = record_sample(store)
            latest = store.latest_run()
        assert latest is not None
        assert latest.run_id == second > first

    def test_baseline_partitioned_by_config_and_dirty(self, tmp_path):
        with obs.TelemetryStore(str(tmp_path / "t.db")) as store:
            a1 = record_sample(store)
            record_sample(store, config_hash="cfg-b")  # other config
            record_sample(store, git_dirty=True)       # dirty tree
            record_sample(store, entrypoint="tune")    # other entrypoint
            a2 = record_sample(store)
            current = store.run(a2)
            baseline = store.baseline_runs(current, limit=10)
        assert [r.run_id for r in baseline] == [a1]

    def test_baseline_window_keeps_most_recent(self, tmp_path):
        with obs.TelemetryStore(str(tmp_path / "t.db")) as store:
            ids = [record_sample(store) for _ in range(5)]
            current = store.run(ids[-1])
            baseline = store.baseline_runs(current, limit=2)
        assert [r.run_id for r in baseline] == ids[2:4]  # oldest first
