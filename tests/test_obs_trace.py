"""Tests for the tracing + metrics core (repro.obs.trace / .metrics)."""

import threading
import time

import pytest

from repro import obs
from repro.errors import ObservabilityError
from repro.obs.trace import NOOP_SPAN


class FakeClock:
    """Deterministic monotonic clock: each read advances by ``step``."""

    def __init__(self, step=1.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


class TestSpans:
    def test_nesting_builds_a_tree(self):
        tracer = obs.Tracer()
        with tracer.span("root", kind="outer"):
            with tracer.span("child_a"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child_b"):
                pass
        roots = tracer.roots()
        assert [r.name for r in roots] == ["root"]
        root = roots[0]
        assert [c.name for c in root.children] == ["child_a", "child_b"]
        assert [c.name for c in root.children[0].children] == ["grandchild"]
        assert root.attrs == {"kind": "outer"}
        assert root.parent_id is None
        assert root.children[0].parent_id == root.span_id

    def test_walk_and_find(self):
        tracer = obs.Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("b"):
                pass
        names = [s.name for s in tracer.spans()]
        assert names == ["a", "b", "b"]
        assert len(tracer.find("b")) == 2
        assert tracer.span_count() == 3

    def test_timing_uses_monotonic_clock(self):
        clock = FakeClock(step=1.0)
        tracer = obs.Tracer(clock=clock)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.roots()[0]
        inner = outer.children[0]
        # Clock reads: outer open (1), inner open (2), inner close (3),
        # outer close (4).
        assert outer.t_start == 1.0 and outer.t_end == 4.0
        assert inner.t_start == 2.0 and inner.t_end == 3.0
        assert outer.duration_s == pytest.approx(3.0)
        assert inner.duration_s == pytest.approx(1.0)

    def test_timing_monotonicity(self):
        tracer = obs.Tracer()
        with tracer.span("outer"):
            for _ in range(3):
                with tracer.span("inner"):
                    pass
        outer = tracer.roots()[0]
        assert outer.t_end >= outer.t_start
        total_children = 0.0
        for child in outer.children:
            assert child.t_start >= outer.t_start
            assert child.t_end <= outer.t_end
            assert child.duration_s >= 0.0
            total_children += child.duration_s
        assert total_children <= outer.duration_s

    def test_exception_closes_span_and_propagates(self):
        tracer = obs.Tracer()
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
        (root,) = tracer.roots()
        assert root.finished
        assert root.attrs["error"] == "ValueError"

    def test_set_attr_mid_span(self):
        tracer = obs.Tracer()
        with tracer.span("work") as sp:
            sp.set_attr("items", 42)
        assert tracer.roots()[0].attrs["items"] == 42

    def test_reset(self):
        tracer = obs.Tracer()
        with tracer.span("x"):
            pass
        tracer.reset()
        assert tracer.roots() == [] and tracer.span_count() == 0


class TestDisabledTracer:
    def test_disabled_span_is_shared_noop(self):
        tracer = obs.Tracer(enabled=False)
        cm = tracer.span("anything", big_attr=list(range(100)))
        assert cm is NOOP_SPAN
        with cm as sp:
            assert sp is None
        assert tracer.roots() == []
        assert tracer.span_count() == 0

    def test_disabled_records_nothing_across_many_spans(self):
        tracer = obs.Tracer(enabled=False)
        for _ in range(10_000):
            with tracer.span("hot"):
                pass
        assert tracer.span_count() == 0

    def test_disabled_tracer_overhead_guard(self):
        # Span call sites must stay near-free when tracing is off.
        prev = obs.get_tracer()
        obs.set_tracer(obs.Tracer(enabled=False))
        try:
            t0 = time.perf_counter()
            for _ in range(100_000):
                with obs.span("hot", a=1):
                    pass
            elapsed = time.perf_counter() - t0
        finally:
            obs.set_tracer(prev)
        assert elapsed <= 2.0, f"{elapsed:.2f}s per 100k disabled spans"

    def test_global_default_is_disabled(self):
        # The library must not trace unless something opts in.
        prev = obs.get_tracer()
        tracer = obs.disable_tracing()
        try:
            assert obs.span("x") is NOOP_SPAN
            assert not tracer.enabled
        finally:
            obs.set_tracer(prev)

    def test_enable_and_set_tracer_roundtrip(self):
        prev = obs.get_tracer()
        try:
            t = obs.enable_tracing()
            assert obs.get_tracer() is t
            with obs.span("global"):
                pass
            assert [s.name for s in t.roots()] == ["global"]
        finally:
            obs.set_tracer(prev)


class TestThreadSafety:
    def test_each_thread_gets_its_own_stack(self):
        tracer = obs.Tracer()
        errors = []

        def work(i):
            try:
                with tracer.span(f"thread-{i}"):
                    for j in range(20):
                        with tracer.span("step", j=j):
                            pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        roots = tracer.roots()
        assert len(roots) == 8
        assert sorted(r.name for r in roots) == sorted(
            f"thread-{i}" for i in range(8)
        )
        for r in roots:
            assert len(r.children) == 20
            # children recorded on the same thread as their root
            assert {c.thread_id for c in r.children} == {r.thread_id}
        ids = [s.span_id for s in tracer.spans()]
        assert len(ids) == len(set(ids)) == 8 * 21


class TestMetrics:
    def test_counter(self):
        reg = obs.MetricsRegistry()
        c = reg.counter("hits")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert reg.counter("hits") is c  # get-or-create
        with pytest.raises(ObservabilityError):
            c.inc(-1)

    def test_gauge(self):
        reg = obs.MetricsRegistry()
        g = reg.gauge("occupancy")
        g.set(0.75)
        g.add(0.25)
        assert g.value == pytest.approx(1.0)

    def test_histogram_buckets(self):
        reg = obs.MetricsRegistry()
        h = reg.histogram("t", bounds=(1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 100.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(106.5)
        assert h.mean == pytest.approx(106.5 / 4)
        buckets = dict(h.bucket_counts())
        assert buckets[1.0] == 2  # 0.5 and the inclusive 1.0
        assert buckets[10.0] == 1
        assert buckets[None] == 1  # overflow

    def test_histogram_quantiles_interpolate_within_bucket(self):
        reg = obs.MetricsRegistry()
        h = reg.histogram("t", bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.6, 3.0):
            h.observe(v)
        # p50 = 2 of 4 observations: the (1,2] bucket holds ranks 2-3,
        # linear interpolation lands halfway through it.
        assert h.quantile(0.5) == pytest.approx(1.5)
        assert h.quantile(0.0) == pytest.approx(0.0)
        assert h.quantile(1.0) == pytest.approx(4.0)

    def test_histogram_quantile_overflow_clamps_to_last_edge(self):
        reg = obs.MetricsRegistry()
        h = reg.histogram("t", bounds=(1.0, 2.0))
        h.observe(100.0)
        # The overflow bucket has no upper edge; the quantile clamps to
        # the last finite bound rather than inventing a value.
        assert h.quantile(0.99) == pytest.approx(2.0)

    def test_histogram_quantile_validation(self):
        reg = obs.MetricsRegistry()
        h = reg.histogram("t", bounds=(1.0,))
        assert h.quantile(0.5) == 0.0  # empty histogram
        with pytest.raises(ObservabilityError):
            h.quantile(1.5)

    def test_histogram_summary_and_snapshot_percentiles(self):
        reg = obs.MetricsRegistry()
        h = reg.histogram("t", bounds=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.6, 3.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 4
        assert s["sum"] == pytest.approx(6.6)
        assert s["mean"] == pytest.approx(1.65)
        assert s["p50"] == pytest.approx(h.quantile(0.5))
        assert s["p95"] == pytest.approx(h.quantile(0.95))
        snap = reg.snapshot()
        assert snap["t"]["p50"] == pytest.approx(h.quantile(0.5))
        assert "p50=" in reg.render_table()

    def test_histogram_rejects_bad_bounds(self):
        reg = obs.MetricsRegistry()
        with pytest.raises(ObservabilityError):
            reg.histogram("bad", bounds=(3.0, 1.0))
        with pytest.raises(ObservabilityError):
            reg.histogram("empty", bounds=())

    def test_type_clash_rejected(self):
        reg = obs.MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ObservabilityError):
            reg.gauge("x")
        with pytest.raises(ObservabilityError):
            reg.get("missing")

    def test_snapshot_and_table(self):
        reg = obs.MetricsRegistry()
        reg.counter("cache.hits").inc(3)
        reg.gauge("size").set(2.5)
        reg.histogram("lat", bounds=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["cache.hits"] == 3
        assert snap["size"] == 2.5
        assert snap["lat"]["count"] == 1
        table = reg.render_table()
        for needle in ("cache.hits", "counter", "gauge", "histogram"):
            assert needle in table
        reg.reset()
        assert reg.names() == []
        assert "none recorded" in reg.render_table()

    def test_counter_thread_safety(self):
        reg = obs.MetricsRegistry()
        c = reg.counter("n")

        def bump():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 40_000


class TestInstrumentHelpers:
    def test_traced_decorator(self):
        prev = obs.get_tracer()
        tracer = obs.set_tracer(obs.Tracer(enabled=True))
        try:
            @obs.traced("my.op", flavour="test")
            def add(a, b):
                return a + b

            assert add(2, 3) == 5
            (root,) = tracer.roots()
            assert root.name == "my.op"
            assert root.attrs == {"flavour": "test"}
        finally:
            obs.set_tracer(prev)

    def test_stage_records_histogram_even_untraced(self):
        prev_t, prev_r = obs.get_tracer(), obs.get_registry()
        obs.set_tracer(obs.Tracer(enabled=False))
        reg = obs.set_registry(obs.MetricsRegistry())
        try:
            with obs.stage("demo"):
                pass
            h = reg.get("stage.demo.seconds")
            assert h.count == 1
        finally:
            obs.set_tracer(prev_t)
            obs.set_registry(prev_r)
