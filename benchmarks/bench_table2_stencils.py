"""Regenerates Table 2: the stencil catalog.

Workload: building all six benchmark stencils from the DSL factories and
analysing their geometry/coefficient structure.
"""

from conftest import emit

from repro import harness
from repro.dsl.shapes import by_name


def test_table2(benchmark):
    rows = benchmark(harness.table2)
    emit("Table 2 (stencil catalog)", harness.render_table2())
    for r in rows:
        # The declared catalog row (the paper's Table 2) vs the analysis.
        case = by_name(r["name"])
        assert r["shape"] == case.shape
        assert r["radius"] == case.radius
        assert r["points"] == case.points
        assert r["unique_coefficients"] == case.unique_coefficients
