"""Persistent result caches: the on-disk study cache and the codegen memo."""

import os
import sqlite3

import pytest

from repro import cli, harness, obs
from repro.bricks.layout import BrickDims
from repro.codegen import CodegenOptions, clear_codegen_memo, generate
from repro.dsl.shapes import by_name
from repro.harness import serialization
from repro.resilience import FaultPlan, FaultSpec
from repro.results import RESULTS_SCHEMA_VERSION, ResultsStore

SMALL = harness.ExperimentConfig(stencils=("7pt",), domain=(64, 64, 64))


@pytest.fixture
def registry():
    prev = obs.get_registry()
    reg = obs.set_registry(obs.MetricsRegistry())
    yield reg
    obs.set_registry(prev)


class TestDiskCache:
    def test_round_trip(self, tmp_path):
        study = harness.run_study(SMALL)
        path = serialization.save_study_cache(study, str(tmp_path))
        assert path == serialization.study_cache_path(str(tmp_path))
        loaded = serialization.load_study_cache(SMALL, str(tmp_path))
        assert loaded is not None
        assert loaded.config == SMALL
        assert loaded.results == study.results

    def test_key_depends_on_config(self):
        other = harness.ExperimentConfig(stencils=("13pt",), domain=(64, 64, 64))
        assert serialization.study_cache_key(SMALL) != serialization.study_cache_key(other)

    def test_missing_entry_is_a_miss(self, tmp_path):
        assert serialization.load_study_cache(SMALL, str(tmp_path)) is None

    def test_schema_version_mismatch_is_a_miss(self, tmp_path):
        study = harness.run_study(SMALL)
        path = serialization.save_study_cache(study, str(tmp_path))
        with sqlite3.connect(path) as conn:
            conn.execute(
                f"PRAGMA user_version = {RESULTS_SCHEMA_VERSION + 1}"
            )
        assert serialization.load_study_cache(SMALL, str(tmp_path)) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path, registry):
        """A garbage file where the store belongs: a miss, and the sweep runs."""
        path = serialization.study_cache_path(str(tmp_path))
        with open(path, "wb") as f:
            f.write(b"not a database at all")
        assert serialization.load_study_cache(SMALL, str(tmp_path)) is None
        harness.clear_study_cache()
        try:
            study = harness.cached_study(SMALL, cache_dir=str(tmp_path))
        finally:
            harness.clear_study_cache()
        assert study.complete and len(study) == 15
        assert registry.counter("study_disk_cache.misses").value == 1
        assert registry.counter("simulate.calls").value == 15
        # The checkpoint write fails once and is switched off, not fatal.
        assert registry.counter("study_cache.write_errors").value == 1
        with open(path, "rb") as f:
            assert f.read() == b"not a database at all"

    def test_cached_study_warm_disk_skips_simulation(self, tmp_path, registry):
        harness.clear_study_cache()
        try:
            harness.cached_study(SMALL, cache_dir=str(tmp_path))
            assert registry.counter("simulate.calls").value == 15
            assert registry.counter("study_disk_cache.misses").value == 1
            # A fresh process has no memo; only the disk entry remains.
            harness.clear_study_cache()
            reg = obs.set_registry(obs.MetricsRegistry())
            warm = harness.cached_study(SMALL, cache_dir=str(tmp_path))
            assert reg.counter("simulate.calls").value == 0
            assert reg.counter("study_disk_cache.hits").value == 1
            assert len(warm) == 15
        finally:
            harness.clear_study_cache()

    def test_disk_hit_dumps_byte_identical(self, tmp_path, registry):
        cache_dir = str(tmp_path / "cache")
        harness.clear_study_cache()
        try:
            harness.cached_study(SMALL, cache_dir=cache_dir)
            harness.clear_study_cache()
            reg = obs.set_registry(obs.MetricsRegistry())
            warm = harness.cached_study(SMALL, cache_dir=cache_dir)
            assert reg.counter("study_disk_cache.hits").value == 1
            assert reg.counter("simulate.calls").value == 0
        finally:
            harness.clear_study_cache()
        harness.dump_study(warm, str(tmp_path / "warm.json"))
        harness.dump_study(harness.run_study(SMALL), str(tmp_path / "fresh.json"))
        assert (tmp_path / "warm.json").read_bytes() == (
            tmp_path / "fresh.json"
        ).read_bytes()

    def test_no_cache_dir_never_touches_disk(self, tmp_path, monkeypatch):
        monkeypatch.delenv(serialization.CACHE_DIR_ENV, raising=False)
        harness.clear_study_cache()
        try:
            harness.cached_study(SMALL)
        finally:
            harness.clear_study_cache()
        assert list(tmp_path.iterdir()) == []

    def test_env_var_supplies_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(serialization.CACHE_DIR_ENV, str(tmp_path))
        harness.clear_study_cache()
        try:
            harness.cached_study(SMALL)
        finally:
            harness.clear_study_cache()
        assert os.path.exists(serialization.study_cache_path(str(tmp_path)))
        assert not list(tmp_path.glob("*.pkl"))


class TestOneStorePerSweep:
    """A sweep's checkpoint flushes share one cache-store connection."""

    @pytest.fixture
    def connections(self, monkeypatch):
        opened, closed = [], []
        init, close = ResultsStore.__init__, ResultsStore.close

        def counting_init(store, *args, **kwargs):
            init(store, *args, **kwargs)
            opened.append(store)

        def counting_close(store):
            closed.append(store)
            close(store)

        monkeypatch.setattr(ResultsStore, "__init__", counting_init)
        monkeypatch.setattr(ResultsStore, "close", counting_close)
        return opened, closed

    def test_flushes_share_one_connection(self, tmp_path, connections, registry):
        opened, closed = connections
        study = harness.run_study(
            SMALL, cache_dir=str(tmp_path), checkpoint_every=1
        )
        assert study.complete
        assert registry.counter("study_cache.write_errors").value == 0
        assert len(opened) == 1 and closed == opened
        loaded = serialization.load_study_cache(SMALL, str(tmp_path))
        assert loaded is not None and loaded.results == study.results

    def test_interrupted_sweep_closes_its_connection(
        self, tmp_path, connections
    ):
        opened, closed = connections
        key = ("7pt", "A100-CUDA", "bricks_codegen")
        plan = FaultPlan(faults=((key, FaultSpec("interrupt", failures=-1)),))
        with pytest.raises(KeyboardInterrupt):
            harness.run_study(
                SMALL, fault_plan=plan, cache_dir=str(tmp_path),
                checkpoint_every=1,
            )
        assert len(opened) == 1 and closed == opened
        done = serialization.load_study_checkpoint(SMALL, str(tmp_path))
        assert done is not None and len(done) == len(SMALL.keys()) - 1


class TestCliWarmCache:
    def test_second_table_invocation_simulates_nothing(self, tmp_path, capsys):
        """Acceptance: warm --cache-dir rerun performs zero simulate calls."""
        prev = obs.get_registry()
        harness.clear_study_cache()
        try:
            obs.set_registry(obs.MetricsRegistry())
            assert cli.main(["table", "3", "--cache-dir", str(tmp_path)]) == 0
            first = capsys.readouterr().out
            harness.clear_study_cache()  # second CLI run = fresh process
            reg = obs.set_registry(obs.MetricsRegistry())
            assert cli.main(["table", "3", "--cache-dir", str(tmp_path)]) == 0
            second = capsys.readouterr().out
            assert reg.counter("simulate.calls").value == 0
            assert reg.counter("study_disk_cache.hits").value == 1
            assert second == first  # identical render from the cached sweep
        finally:
            obs.set_registry(prev)
            harness.clear_study_cache()


class TestCodegenMemo:
    def setup_method(self):
        clear_codegen_memo()

    def teardown_method(self):
        clear_codegen_memo()

    def test_hit_returns_same_program(self, registry):
        stencil = by_name("13pt").build()
        dims = BrickDims((32, 4, 4))
        opts = CodegenOptions(32, "auto")
        first = generate(stencil, dims, opts)
        second = generate(stencil, dims, opts)
        assert second is first
        assert registry.counter("codegen.memo_misses").value == 1
        assert registry.counter("codegen.memo_hits").value == 1

    def test_distinct_keys_do_not_collide(self):
        stencil = by_name("13pt").build()
        opts = CodegenOptions(32, "auto")
        a = generate(stencil, BrickDims((32, 4, 4)), opts)
        b = generate(stencil, BrickDims((32, 8, 4)), opts)
        c = generate(by_name("7pt").build(), BrickDims((32, 4, 4)), opts)
        assert a is not b and a is not c

    def test_clear_resets(self, registry):
        stencil = by_name("7pt").build()
        dims = BrickDims((32, 4, 4))
        opts = CodegenOptions(32, "auto")
        generate(stencil, dims, opts)
        clear_codegen_memo()
        generate(stencil, dims, opts)
        assert registry.counter("codegen.memo_misses").value == 2
        assert registry.counter("codegen.memo_hits").value == 0

    def test_memo_attribute_on_span(self):
        prev = obs.get_tracer()
        tracer = obs.set_tracer(obs.Tracer(enabled=True))
        try:
            stencil = by_name("7pt").build()
            dims = BrickDims((32, 4, 4))
            opts = CodegenOptions(32, "auto")
            generate(stencil, dims, opts)
            generate(stencil, dims, opts)
        finally:
            obs.set_tracer(prev)
        spans = tracer.find("codegen.generate")
        assert [s.attrs["memo"] for s in spans] == ["miss", "hit"]
