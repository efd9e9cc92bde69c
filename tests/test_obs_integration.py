"""Integration tests: instrumentation through simulate / study / CLI."""

import json

import pytest

from repro import cli, harness, obs
from repro.dsl.shapes import by_name
from repro.gpu.progmodel import platform
from repro.gpu.simulator import simulate

SMALL = harness.ExperimentConfig(
    stencils=("7pt", "13pt"), domain=(128, 128, 128)
)


@pytest.fixture
def tracer():
    """Fresh enabled global tracer + registry, restored afterwards."""
    prev_t, prev_r = obs.get_tracer(), obs.get_registry()
    t = obs.set_tracer(obs.Tracer(enabled=True))
    obs.set_registry(obs.MetricsRegistry())
    yield t
    obs.set_tracer(prev_t)
    obs.set_registry(prev_r)


class TestSimulateSpans:
    def test_pipeline_stage_spans(self, tracer):
        simulate(by_name("13pt").build(), "bricks_codegen",
                 platform("A100", "CUDA"), domain=(128, 128, 128),
                 stencil_name="13pt")
        (root,) = tracer.roots()
        assert root.name == "simulate"
        assert root.attrs["stencil"] == "13pt"
        assert root.attrs["platform"] == "A100-CUDA"
        assert root.attrs["variant"] == "bricks_codegen"
        stages = [c.name for c in root.children]
        assert stages == ["codegen", "cost", "traffic", "timing"]
        # The deeper library spans nest inside their stage spans.
        assert root.find("codegen.generate")
        assert root.find("traffic.estimate")

    def test_simulate_metrics(self, tracer):
        simulate(by_name("7pt").build(), "array",
                 platform("MI250X", "HIP"), domain=(128, 128, 128))
        reg = obs.get_registry()
        assert reg.counter("simulate.calls").value == 1
        assert reg.counter("simulate.tiles").value > 0
        assert reg.counter("codegen.vector_ops").value > 0

    def test_untraced_simulate_records_no_spans(self):
        prev = obs.get_tracer()
        t = obs.disable_tracing()
        try:
            simulate(by_name("7pt").build(), "array",
                     platform("A100", "CUDA"), domain=(128, 128, 128))
            assert t.span_count() == 0
        finally:
            obs.set_tracer(prev)


class TestStudySpans:
    def test_run_study_span_tree(self, tracer):
        harness.run_study(SMALL)
        (root,) = tracer.roots()
        assert root.name == "run_study"
        # One batch call: 2 stencils x 5 platforms x 3 variants.
        (batch,) = root.children
        assert batch.name == "sweep.batch"
        assert batch.attrs["points"] == 30
        assert {c.name for c in batch.children} == {"sweep.chunk"}
        assert sum(c.attrs["n"] for c in batch.children) == 30
        assert obs.get_registry().counter("simulate.calls").value == 30
        assert not root.find("study.point")

    def test_cached_study_hit_and_miss(self, tracer):
        harness.clear_study_cache()
        try:
            harness.cached_study(SMALL)
            harness.cached_study(SMALL)
        finally:
            harness.clear_study_cache()
        reg = obs.get_registry()
        assert reg.counter("study_cache.misses").value == 1
        assert reg.counter("study_cache.hits").value == 1
        spans = tracer.find("cached_study")
        assert [s.attrs["cache"] for s in spans] == ["miss", "hit"]
        # The hit renders from memo: no second sweep was simulated.
        assert len(tracer.find("run_study")) == 1


class TestCacheSimMetrics:
    def test_access_trace_publishes_counters(self, tracer):
        from repro.gpu.cache import CacheSim

        sim = CacheSim(capacity_bytes=1024, line_bytes=128, associativity=2)
        sim.access_trace([0, 1, 0, 2, 1])
        reg = obs.get_registry()
        assert reg.counter("cache.accesses").value == 5
        assert reg.counter("cache.hits").value == 2
        assert reg.counter("cache.misses").value == 3


class TestCli:
    def test_study_trace_jsonl(self, capsys, tmp_path):
        harness.clear_study_cache()
        out_path = tmp_path / "out.jsonl"
        prev_r = obs.get_registry()
        reg = obs.set_registry(obs.MetricsRegistry())
        try:
            rc = cli.main(["study", "--trace", str(out_path)])
        finally:
            obs.set_registry(prev_r)
            harness.clear_study_cache()
        out = capsys.readouterr().out
        assert rc == 0
        assert "trace (jsonl) written" in out
        records = [
            json.loads(line)
            for line in out_path.read_text().strip().split("\n")
        ]
        names = [r["name"] for r in records]
        assert "study.point" not in names and "simulate" not in names
        (study,) = [r for r in records if r["name"] == "run_study"]
        (batch,) = [r for r in records if r["name"] == "sweep.batch"]
        chunks = [r for r in records if r["name"] == "sweep.chunk"]
        assert batch["parent_id"] == study["id"]
        assert batch["attrs"]["points"] == 90
        assert {c["parent_id"] for c in chunks} == {batch["id"]}
        assert sum(c["attrs"]["n"] for c in chunks) == 90
        assert reg.counter("simulate.calls").value == 90

    def test_study_trace_chrome_loadable(self, capsys, tmp_path):
        harness.clear_study_cache()
        out_path = tmp_path / "trace.json"
        try:
            rc = cli.main(
                ["study", "--trace", str(out_path), "--trace-format", "chrome"]
            )
        finally:
            harness.clear_study_cache()
        assert rc == 0
        doc = json.loads(out_path.read_text())
        events = doc["traceEvents"]
        assert all(e["ph"] == "X" for e in events)
        # Chrome args are strings.
        (study,) = [e for e in events if e["name"] == "run_study"]
        assert study["args"]["points"] == "90"
        (batch,) = [e for e in events if e["name"] == "sweep.batch"]
        assert batch["args"]["points"] == "90"
        chunks = [e for e in events if e["name"] == "sweep.chunk"]
        assert sum(int(e["args"]["n"]) for e in chunks) == 90

    def test_obs_subcommand(self, capsys):
        harness.clear_study_cache()  # a cold sweep puts run_study in the tree
        try:
            rc = cli.main(["obs"])
        finally:
            harness.clear_study_cache()
        out = capsys.readouterr().out
        assert rc == 0
        assert "observability report: 90 kernel runs" in out
        assert "cached_study" in out and "run_study" in out
        assert "metrics:" in out
        assert "study_cache.hits" in out and "study_cache.misses" in out
        assert "simulate.calls" in out

    def test_table_and_figure_share_cached_study(self, capsys):
        # Same process: the second render must hit the study memo.
        prev_r = obs.get_registry()
        reg = obs.set_registry(obs.MetricsRegistry())
        harness.clear_study_cache()
        try:
            assert cli.main(["table", "3"]) == 0
            assert cli.main(["figure", "4"]) == 0
        finally:
            obs.set_registry(prev_r)
            harness.clear_study_cache()
        capsys.readouterr()
        assert reg.counter("study_cache.misses").value == 1
        assert reg.counter("study_cache.hits").value == 1


class TestOverhead:
    def test_disabled_tracing_overhead_is_small(self):
        """Span call sites must be near-free when tracing is off."""
        import time

        from repro.obs.trace import Tracer

        prev = obs.get_tracer()
        obs.set_tracer(Tracer(enabled=False))
        try:
            t0 = time.perf_counter()
            for _ in range(100_000):
                with obs.span("hot", a=1):
                    pass
            elapsed = time.perf_counter() - t0
        finally:
            obs.set_tracer(prev)
        # 100k disabled spans in well under a second (typically ~50 ms);
        # a run_study issues ~700, so the <5% budget is comfortable.
        assert elapsed < 2.0
