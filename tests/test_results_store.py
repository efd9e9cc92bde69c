"""Tests for the SQLite result store, providers, and report generation."""

import json
import os
import sqlite3

import pytest

from repro import harness
from repro.errors import ResultStoreError
from repro.harness.experiments import (
    ExperimentConfig,
    FailedPoint,
    StudyResults,
    resolve_study,
)
from repro.harness.serialization import study_to_dict
from repro.results import (
    RESULTS_DB_ENV,
    RESULTS_SCHEMA_VERSION,
    DirectProvider,
    ResultsStore,
    StoreProvider,
    generate_report,
    resolve_results_db,
    write_report,
)

SMALL = ExperimentConfig(stencils=("7pt",), variants=("array",), domain=(64, 64, 64))
TWO = ExperimentConfig(
    stencils=("7pt", "27pt"), variants=("array", "bricks_codegen"),
    domain=(64, 64, 64),
)


@pytest.fixture(scope="module")
def small_study():
    return harness.run_study(SMALL)


@pytest.fixture(scope="module")
def two_study():
    return harness.run_study(TWO)


def degraded_copy(study, drop=1):
    """A copy of ``study`` with the last ``drop`` points failed."""
    out = StudyResults(config=study.config)
    keys = list(study.results)
    for key in keys[:-drop]:
        out.results[key] = study.results[key]
    for key in keys[-drop:]:
        out.failed[key] = FailedPoint(
            stencil=key[0], platform=key[1], variant=key[2],
            error_type="SimulationError", message="synthetic failure",
            attempts=3, timed_out=False,
        )
    return out


class TestStoreBasics:
    def test_ingest_and_reconstruct_exactly(self, small_study, tmp_path):
        db = str(tmp_path / "r.db")
        with ResultsStore(db) as store:
            outcome = store.ingest_study(small_study, source="test")
            assert not outcome.dedup and outcome.points == len(small_study)
            back = store.load_study(SMALL)
        # Byte-level equivalence via the JSON row schema: every float
        # survived SQLite unchanged, in the canonical key order.
        assert study_to_dict(back) == study_to_dict(small_study)
        assert list(back.results) == list(small_study.results)

    def test_second_ingest_is_noop(self, small_study, tmp_path):
        db = str(tmp_path / "r.db")
        with ResultsStore(db) as store:
            first = store.ingest_study(small_study)
            second = store.ingest_study(small_study)
        assert not first.dedup and second.dedup
        assert second.study_id == first.study_id
        conn = sqlite3.connect(db)
        assert conn.execute("SELECT COUNT(*) FROM studies").fetchone()[0] == 1
        assert (
            conn.execute("SELECT COUNT(*) FROM points").fetchone()[0]
            == len(small_study)
        )

    def test_degraded_then_complete_replaces(self, small_study, tmp_path):
        db = str(tmp_path / "r.db")
        degraded = degraded_copy(small_study)
        with ResultsStore(db) as store:
            store.ingest_study(degraded)
            back = store.load_study(SMALL)
            assert not back.complete and len(back.failed) == 1
            outcome = store.ingest_study(small_study)
            assert outcome.replaced and not outcome.dedup
            back = store.load_study(SMALL)
        assert back.complete
        assert study_to_dict(back) == study_to_dict(small_study)
        conn = sqlite3.connect(db)
        assert conn.execute("SELECT COUNT(*) FROM studies").fetchone()[0] == 1
        assert conn.execute("SELECT COUNT(*) FROM failures").fetchone()[0] == 0

    def test_complete_then_degraded_is_noop(self, small_study, tmp_path):
        db = str(tmp_path / "r.db")
        with ResultsStore(db) as store:
            store.ingest_study(small_study)
            outcome = store.ingest_study(degraded_copy(small_study))
            assert outcome.dedup and not outcome.replaced
            assert store.load_study(SMALL).complete

    def test_failed_points_roundtrip(self, small_study, tmp_path):
        db = str(tmp_path / "r.db")
        degraded = degraded_copy(small_study)
        with ResultsStore(db) as store:
            store.ingest_study(degraded)
            back = store.load_study(SMALL)
        assert back.failed == degraded.failed
        assert study_to_dict(back) == study_to_dict(degraded)

    def test_missing_study_is_none(self, small_study, tmp_path):
        db = str(tmp_path / "r.db")
        with ResultsStore(db) as store:
            store.ingest_study(small_study)
            assert store.load_study(TWO) is None
            assert store.has_study(SMALL)
            assert not store.has_study(TWO)

    def test_studies_listing(self, small_study, two_study, tmp_path):
        db = str(tmp_path / "r.db")
        with ResultsStore(db) as store:
            store.ingest_study(small_study)
            store.ingest_study(two_study)
            records = store.studies()
        assert [r.config for r in records] == [SMALL, TWO]
        assert all(r.complete for r in records)
        assert "complete" in records[0].describe()

    def test_schema_version_mismatch_rejected(self, tmp_path):
        db = str(tmp_path / "r.db")
        ResultsStore(db).close()
        conn = sqlite3.connect(db)
        conn.execute(f"PRAGMA user_version = {RESULTS_SCHEMA_VERSION + 7}")
        conn.commit()
        conn.close()
        with pytest.raises(ResultStoreError, match="schema version"):
            ResultsStore(db)

    def test_read_intent_refuses_missing_file(self, tmp_path):
        with pytest.raises(ResultStoreError, match="no result database"):
            ResultsStore(str(tmp_path / "absent.db"), create=False)

    def test_resolve_results_db_env(self, monkeypatch):
        monkeypatch.delenv(RESULTS_DB_ENV, raising=False)
        assert resolve_results_db(None) is None
        assert resolve_results_db("x.db") == "x.db"
        monkeypatch.setenv(RESULTS_DB_ENV, "env.db")
        assert resolve_results_db(None) == "env.db"
        assert resolve_results_db("x.db") == "x.db"


class TestBenchGates:
    def test_gate_ingest_and_history(self, tmp_path):
        db = str(tmp_path / "r.db")
        with ResultsStore(db) as store:
            b1 = store.ingest_gates(
                {"sweep.speedup": (2.0, True), "sweep.points_per_s": 150.0},
                doc={"schema_version": 1},
            )
            b2 = store.ingest_gates({"sweep.speedup": (1.5, False)})
            assert b2 > b1
            assert store.gate_names() == ["sweep.points_per_s", "sweep.speedup"]
            history = store.gate_history("sweep.speedup")
        assert [(v, p) for _, _, v, p in history] == [(2.0, True), (1.5, False)]

    def test_gate_history_limit(self, tmp_path):
        db = str(tmp_path / "r.db")
        with ResultsStore(db) as store:
            for i in range(4):
                store.ingest_gates({"g": (float(i), True)})
            assert [v for _, _, v, _ in store.gate_history("g", limit=2)] == [
                2.0, 3.0,
            ]


class TestProviders:
    def test_direct_provider(self, small_study):
        provider = DirectProvider(small_study)
        assert provider.study() is small_study
        rows = provider.rows()
        assert len(rows) == len(small_study)
        assert resolve_study(provider) is small_study

    def test_direct_provider_rejects_other_config(self, small_study):
        with pytest.raises(ResultStoreError):
            DirectProvider(small_study).study(TWO)

    def test_store_provider_round_trip(self, small_study, tmp_path):
        db = str(tmp_path / "r.db")
        with ResultsStore(db) as store:
            store.ingest_study(small_study)
        provider = StoreProvider(db, config=SMALL)
        back = provider.study()
        assert study_to_dict(back) == study_to_dict(small_study)
        assert provider.study() is back  # memoised
        assert provider.rows() == DirectProvider(small_study).rows()

    def test_store_provider_missing_study(self, small_study, tmp_path):
        db = str(tmp_path / "r.db")
        with ResultsStore(db) as store:
            store.ingest_study(small_study)
        with pytest.raises(ResultStoreError, match="no study"):
            StoreProvider(db, config=TWO).study()

    def test_renderers_accept_providers(self, two_study, tmp_path):
        db = str(tmp_path / "r.db")
        with ResultsStore(db) as store:
            store.ingest_study(two_study)
        provider = StoreProvider(db, config=TWO)
        assert harness.table3(provider).render() == harness.table3(two_study).render()
        assert harness.render_fig4(provider) == harness.render_fig4(two_study)
        assert harness.render_fig7(provider) == harness.render_fig7(two_study)


class TestReport:
    def test_store_report_byte_identical_to_direct(self, two_study, tmp_path):
        db = str(tmp_path / "r.db")
        with ResultsStore(db) as store:
            store.ingest_study(two_study)
        direct = generate_report(DirectProvider(two_study))
        from_store = generate_report(StoreProvider(db, config=TWO))
        assert set(direct) == {
            "TABLES.txt", "FIGURES.txt", "EXPERIMENTS.md", "DRIFT.md",
        }
        for name in direct:
            assert direct[name] == from_store[name], name

    def test_report_is_deterministic(self, two_study):
        a = generate_report(DirectProvider(two_study))
        b = generate_report(DirectProvider(two_study))
        assert a == b

    def test_subset_experiments_md_says_so(self, two_study):
        direct = generate_report(DirectProvider(two_study))
        assert "does not cover the paper's full matrix" in direct["EXPERIMENTS.md"]
        assert "Table 3" in direct["TABLES.txt"]
        assert "Figure 5: skipped" in direct["FIGURES.txt"]

    def test_drift_artifact_notes_config_mismatch(self, two_study):
        # The golden baseline pins the full 512^3 matrix, not this subset.
        direct = generate_report(DirectProvider(two_study))
        assert "different matrix" in direct["DRIFT.md"]

    def test_no_golden_skips_drift(self, two_study):
        artifacts = generate_report(DirectProvider(two_study), golden_path=None)
        assert "DRIFT.md" not in artifacts

    def test_write_report_files(self, two_study, tmp_path):
        artifacts = generate_report(DirectProvider(two_study))
        paths = write_report(artifacts, str(tmp_path / "out"))
        for name, path in paths.items():
            with open(path) as f:
                assert f.read() == artifacts[name]

    def test_degraded_study_reports(self, small_study, tmp_path):
        db = str(tmp_path / "r.db")
        degraded = degraded_copy(small_study)
        with ResultsStore(db) as store:
            store.ingest_study(degraded)
        direct = generate_report(DirectProvider(degraded))
        from_store = generate_report(StoreProvider(db, config=SMALL))
        assert direct == from_store
        assert "failed to simulate" in direct["DRIFT.md"]


class TestWiring:
    def test_run_study_ingests(self, tmp_path):
        db = str(tmp_path / "r.db")
        study = harness.run_study(SMALL, results_db=db)
        with ResultsStore(db, create=False) as store:
            back = store.load_study(SMALL)
        assert study_to_dict(back) == study_to_dict(study)

    def test_run_study_env_fallback(self, tmp_path, monkeypatch):
        db = str(tmp_path / "env.db")
        monkeypatch.setenv(RESULTS_DB_ENV, db)
        harness.run_study(SMALL)
        assert os.path.exists(db)
        with ResultsStore(db, create=False) as store:
            assert store.has_study(SMALL)

    def test_run_study_ingest_failure_is_best_effort(self, tmp_path):
        # A directory where the db file should be: ingestion fails, the
        # sweep must still return its study.
        db = str(tmp_path / "r.db")
        os.mkdir(db)
        study = harness.run_study(SMALL, results_db=db)
        assert study.complete

    def test_ingest_into_another_kind_of_database_is_best_effort(
        self, tmp_path
    ):
        from repro import obs

        db = str(tmp_path / "telemetry.db")
        obs.TelemetryStore(db).close()
        prev = obs.get_registry()
        registry = obs.set_registry(obs.MetricsRegistry())
        try:
            study = harness.run_study(SMALL, results_db=db)
        finally:
            obs.set_registry(prev)
        assert study.complete and len(study) == len(SMALL.keys())
        assert registry.counter("results.ingest_errors").value == 1

    def test_serve_store_put_ingests(self, small_study, tmp_path):
        from repro.serve import ResultStore as ServeStore

        db = str(tmp_path / "r.db")
        serve_store = ServeStore(results_db=db)
        assert serve_store.put(small_study)
        with ResultsStore(db, create=False) as store:
            assert store.has_study(SMALL)

    def test_serve_store_refuses_incomplete_without_ingest(
        self, small_study, tmp_path
    ):
        from repro.serve import ResultStore as ServeStore

        db = str(tmp_path / "r.db")
        serve_store = ServeStore(results_db=db)
        assert not serve_store.put(degraded_copy(small_study))
        assert not os.path.exists(db)


class TestCli:
    def test_report_subcommand_store_vs_direct(self, tmp_path, monkeypatch):
        # The CLI always sweeps the full paper matrix; keep this test on
        # the cheap path by pre-seeding the study cache.
        pytest.importorskip("repro.cli")
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        cache = str(tmp_path / "cache")
        db = str(tmp_path / "r.db")
        rc = main([
            "report", "--cache-dir", cache, "--results-db", db,
            "--out-dir", "store-out",
        ])
        assert rc == 0
        rc = main(["report", "--cache-dir", cache, "--out-dir", "direct-out"])
        assert rc == 0
        for name in ("TABLES.txt", "FIGURES.txt", "EXPERIMENTS.md", "DRIFT.md"):
            with open(tmp_path / "store-out" / name) as f:
                store_text = f.read()
            with open(tmp_path / "direct-out" / name) as f:
                assert f.read() == store_text, name
        conn = sqlite3.connect(db)
        assert conn.execute("SELECT COUNT(*) FROM studies").fetchone()[0] == 1

    def test_study_subcommand_ingests_and_dedups(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        cache = str(tmp_path / "cache")
        db = str(tmp_path / "r.db")
        assert main(["study", "--cache-dir", cache, "--results-db", db]) == 0
        assert main(["study", "--cache-dir", cache, "--results-db", db]) == 0
        capsys.readouterr()
        conn = sqlite3.connect(db)
        assert conn.execute("SELECT COUNT(*) FROM studies").fetchone()[0] == 1

    def test_bench_smoke_gate_ingest(self, tmp_path):
        # Exercise record_results directly (the full gate run is the CI
        # perf job's business, not a unit test's).
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "bench_smoke",
            os.path.join(
                os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                "scripts", "bench_smoke.py",
            ),
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        db = str(tmp_path / "r.db")
        failures = []
        doc = {
            "schema_version": 1,
            "sweep": {"jobs": 2, "serial_points_per_s": 50.0},
            "cachesim": {"speedup": 12.5, "vectorized_accesses_per_s": 3e7},
        }
        mod.record_results(db, doc, failures)
        assert failures == []
        with ResultsStore(db, create=False) as store:
            history = store.gate_history("cachesim.speedup")
            assert len(history) == 1 and history[0][2] == 12.5
            names = store.gate_names()
        assert "sweep.serial_points_per_s" in names
        # The full benchmark record is archived alongside the gates.
        conn = sqlite3.connect(db)
        (doc_json,) = conn.execute("SELECT doc FROM bench_runs").fetchone()
        assert json.loads(doc_json)["schema_version"] == 1
