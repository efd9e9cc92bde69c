"""Tests for ASCII plots and study serialization."""

import json

import pytest

from repro import harness
from repro.errors import MetricError
from repro.harness.ascii_plot import AsciiPlot


@pytest.fixture(scope="module")
def study():
    return harness.run_study(
        harness.ExperimentConfig(stencils=("7pt", "27pt"), domain=(128, 128, 128))
    )


class TestAsciiPlot:
    def test_basic_scatter(self):
        p = AsciiPlot(title="t", x_label="a", y_label="b")
        p.add_series("s1", [(1.0, 10.0), (10.0, 100.0)])
        text = p.render()
        assert "t" in text and "o=s1" in text
        # Canvas rows all share the width.
        rows = [line for line in text.splitlines() if line.startswith("|")]
        assert len(rows) == 20
        assert all(len(r) == 65 for r in rows)

    def test_diagonal_symmetric_bounds(self):
        p = AsciiPlot()
        p.add_diagonal()
        p.add_series("s", [(1.0, 100.0)])
        text = p.render()
        assert "." in text  # diagonal drawn

    def test_roofline_drawn(self):
        p = AsciiPlot()
        p.add_roofline(peak_bw=100.0, peak_flops=1000.0)
        p.add_series("k", [(0.5, 40.0), (100.0, 900.0)])
        text = p.render()
        assert "/" in text and "-" in text

    def test_validation(self):
        with pytest.raises(MetricError):
            AsciiPlot(width=4)
        p = AsciiPlot()
        with pytest.raises(MetricError):
            p.add_series("empty", [])
        with pytest.raises(MetricError):
            p.render()  # nothing to plot
        p.add_series("neg", [(-1.0, 1.0)])
        with pytest.raises(MetricError):
            p.render()  # log scale needs positive values

    def test_roofline_ascii_panel(self, study):
        panel = harness.fig3(study)[0]
        text = harness.roofline_ascii(panel)
        assert "Roofline: A100-CUDA" in text
        assert "bricks_codegen" in text

    def test_correlation_ascii(self, study):
        perf, _ = harness.fig5(study)
        text = harness.correlation_ascii(perf)
        assert "CUDA (y) vs SYCL (x)" in text


class TestSerialization:
    def test_roundtrip(self, study, tmp_path):
        path = tmp_path / "study.json"
        harness.dump_study(study, str(path))
        rows = json.loads(path.read_text())["results"]
        assert len(rows) == len(study)
        assert {r["stencil"] for r in rows} == {"7pt", "27pt"}
