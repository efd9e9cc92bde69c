"""Tests for the SQLite result store, report sources, and report generation."""

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
)
from repro.harness.serialization import study_to_dict
from repro.obs import store as obs_store
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
from repro.results.report import drift_md
from repro.validate.golden import write_golden

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


@pytest.fixture
def fresh_revision():
    """Clear the per-process revision memo before and after the test."""
    obs_store.package_git_state.cache_clear()
    yield
    obs_store.package_git_state.cache_clear()


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

    def test_dedup_ingest_runs_no_git(self, small_study, tmp_path, monkeypatch,
                                      fresh_revision):
        calls = []

        def counting_git_state(cwd=None):
            calls.append(cwd)
            return ("abc123", False)

        monkeypatch.setattr("repro.obs.store.git_state", counting_git_state)
        with ResultsStore(str(tmp_path / "r.db")) as store:
            store.ingest_study(small_study)
            assert len(calls) == 1
            assert store.ingest_study(small_study).dedup
        assert len(calls) == 1

    def test_revision_is_read_once_per_process(self, small_study, tmp_path,
                                               monkeypatch, fresh_revision):
        calls = []

        def counting_git_state(cwd=None):
            calls.append(cwd)
            return ("abc123", False)

        monkeypatch.setattr("repro.obs.store.git_state", counting_git_state)
        monkeypatch.chdir(tmp_path)
        for name in ("a.db", "b.db"):
            with ResultsStore(str(tmp_path / name)) as store:
                store.ingest_study(small_study)
        # Probed once, from the package's directory, not the cwd.
        assert calls == [os.path.dirname(os.path.abspath(obs_store.__file__))]
        conn = sqlite3.connect(str(tmp_path / "b.db"))
        assert conn.execute("SELECT git_rev FROM studies").fetchone()[0] == "abc123"

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


#: The bench-gate tables result stores carried before perf history moved
#: to the telemetry warehouse, verbatim as those stores declared them.
LEGACY_BENCH_TABLES = """
CREATE TABLE IF NOT EXISTS bench_runs (
    bench_id    INTEGER PRIMARY KEY AUTOINCREMENT,
    source      TEXT NOT NULL,
    git_rev     TEXT NOT NULL,
    created_utc TEXT NOT NULL,
    doc         TEXT
);
CREATE TABLE IF NOT EXISTS bench_gates (
    bench_id INTEGER NOT NULL REFERENCES bench_runs(bench_id),
    name     TEXT NOT NULL,
    value    REAL NOT NULL,
    passed   INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_bench_gates_name ON bench_gates (name, bench_id);
"""


def tables(db):
    conn = sqlite3.connect(db)
    try:
        return {
            row[0] for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
    finally:
        conn.close()


class TestLegacyBenchTables:
    @pytest.fixture
    def legacy_db(self, tmp_path):
        """A version-1 store that still holds the bench tables and a row."""
        db = str(tmp_path / "legacy.db")
        ResultsStore(db).close()
        conn = sqlite3.connect(db)
        conn.executescript(LEGACY_BENCH_TABLES)
        assert conn.execute("PRAGMA user_version").fetchone() == (
            RESULTS_SCHEMA_VERSION,
        )
        conn.execute(
            "INSERT INTO bench_runs (source, git_rev, created_utc, doc) "
            "VALUES ('bench_smoke', 'abc', '2026-01-01T00:00:00+00:00', '{}')"
        )
        conn.execute(
            "INSERT INTO bench_gates VALUES (1, 'cachesim.speedup', 12.5, 1)"
        )
        conn.commit()
        conn.close()
        return db

    def test_fresh_store_has_no_bench_tables(self, tmp_path):
        db = str(tmp_path / "fresh.db")
        ResultsStore(db).close()
        assert tables(db) == {"studies", "points", "failures", "sqlite_sequence"}

    def test_legacy_file_opens_dedups_and_renders_like_fresh(
        self, legacy_db, two_study, tmp_path
    ):
        fresh_db = str(tmp_path / "fresh.db")
        for db in (legacy_db, fresh_db):
            with ResultsStore(db) as store:
                first = store.ingest_study(two_study)
                second = store.ingest_study(two_study)
            assert not first.dedup and second.dedup
            assert second.study_id == first.study_id
        with ResultsStore(legacy_db, create=False) as store:
            legacy = store.load_study(TWO)
        with ResultsStore(fresh_db, create=False) as store:
            fresh = store.load_study(TWO)
        assert study_to_dict(legacy) == study_to_dict(fresh)
        assert generate_report(StoreProvider(legacy_db), TWO) == (
            generate_report(StoreProvider(fresh_db), TWO)
        )
        # The old rows are neither read nor touched.
        conn = sqlite3.connect(legacy_db)
        assert conn.execute("SELECT COUNT(*) FROM bench_gates").fetchone() == (1,)
        conn.close()


class TestProviders:
    def test_direct_provider(self, small_study):
        provider = DirectProvider(small_study)
        assert provider.study() is small_study
        assert provider.study(SMALL) is small_study

    def test_direct_provider_rejects_other_config(self, small_study):
        with pytest.raises(ResultStoreError):
            DirectProvider(small_study).study(TWO)

    def test_store_provider_round_trip(self, small_study, tmp_path):
        db = str(tmp_path / "r.db")
        with ResultsStore(db) as store:
            store.ingest_study(small_study)
        back = StoreProvider(db).study(SMALL)
        assert study_to_dict(back) == study_to_dict(small_study)

    def test_store_provider_missing_study(self, small_study, tmp_path):
        db = str(tmp_path / "r.db")
        with ResultsStore(db) as store:
            store.ingest_study(small_study)
        with pytest.raises(ResultStoreError, match="no study"):
            StoreProvider(db).study(TWO)


class TestReport:
    def test_store_report_byte_identical_to_direct(self, two_study, tmp_path):
        db = str(tmp_path / "r.db")
        with ResultsStore(db) as store:
            store.ingest_study(two_study)
        direct = generate_report(DirectProvider(two_study))
        from_store = generate_report(StoreProvider(db), TWO)
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

    def test_drift_against_own_golden_is_clean(self, two_study, tmp_path):
        path = str(tmp_path / "golden.json")
        write_golden(two_study, path)
        text = drift_md(two_study, golden_path=path)
        assert f"No drift across {len(two_study)} matrix points." in text

    @pytest.mark.parametrize("field,value", [("gflops", 1.0), ("bottleneck", "fp")])
    def test_drift_names_a_perturbed_row_and_field(
        self, two_study, tmp_path, field, value
    ):
        # Only a non-time field moves: the drift check must still see it.
        path = tmp_path / "golden.json"
        write_golden(two_study, str(path))
        doc = json.loads(path.read_text())
        key = "27pt/A100-CUDA/bricks_codegen"
        assert doc["rows"][key][field] != value
        doc["rows"][key][field] = value
        path.write_text(json.dumps(doc))
        text = drift_md(two_study, golden_path=str(path))
        assert "1 drifted row(s):" in text
        drifted = [line for line in text.splitlines() if line.startswith("- ")]
        assert len(drifted) == 1
        assert drifted[0].startswith(f"- {key}: {field}: golden {value!r}")

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
        from_store = generate_report(StoreProvider(db), SMALL)
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

    def test_report_subcommand_closes_every_store(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        opened, closed = [], []
        real_init, real_close = ResultsStore.__init__, ResultsStore.close

        def tracked_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            opened.append(self)

        def tracked_close(self):
            closed.append(self)
            real_close(self)

        monkeypatch.setattr(ResultsStore, "__init__", tracked_init)
        monkeypatch.setattr(ResultsStore, "close", tracked_close)
        rc = main([
            "report", "--cache-dir", str(tmp_path / "cache"),
            "--results-db", str(tmp_path / "r.db"), "--out-dir", "out",
        ])
        assert rc == 0
        assert opened
        assert [id(s) for s in opened] == [id(s) for s in closed]

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
