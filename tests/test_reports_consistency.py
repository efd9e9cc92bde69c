"""Tests for the profiler report sections."""

import pytest

from repro import dsl, gpu
from repro.profiling.report import (
    full_report,
    memory_workload,
    roofline_section,
    speed_of_light,
)


@pytest.fixture(scope="module")
def result():
    return gpu.simulate(
        dsl.by_name("13pt").build(), "bricks_codegen",
        gpu.platform("A100", "CUDA"), stencil_name="13pt",
    )


class TestReport:
    def test_speed_of_light(self, result):
        text = speed_of_light(result)
        assert "Speed Of Light" in text
        assert "DRAM throughput" in text
        assert "hbm" in text  # bottleneck name

    def test_memory_workload(self, result):
        text = memory_workload(result)
        assert "HBM read" in text and "L1 traffic" in text
        assert "peak live registers" in text

    def test_roofline_section(self, result):
        text = roofline_section(result)
        assert "memory-bound" in text
        assert "Fraction of roofline" in text

    def test_full_report(self, result):
        text = full_report(result)
        assert text.startswith("==PROF== 13pt/bricks_codegen")
        assert text.count("Section:") == 3

    def test_bars_bounded(self, result):
        text = full_report(result)
        for line in text.splitlines():
            if "[" in line and "]" in line and "%" in line:
                pct = float(line.split("]")[1].replace("%", "").strip())
                assert 0.0 <= pct <= 100.0

    def test_compute_bound_kernel_reported(self):
        res = gpu.simulate(dsl.by_name("125pt").build(), "bricks_codegen",
                           gpu.platform("A100", "CUDA"))
        assert "compute-bound" in roofline_section(res)
