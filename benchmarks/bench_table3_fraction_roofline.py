"""Regenerates Table 3: performance portability from fraction of Roofline.

Workload: the full 6 stencils x 5 platforms x 3 variants simulation
sweep at 512^3, then the Pennycook harmonic means over the bricks-
codegen column per stencil.

Paper values for comparison (bricks codegen):

    stencil  A100-CUDA A100-SYCL MI250X-HIP MI250X-SYCL PVC-SYCL   P
    7pt          95%      84%       66%        68%        77%     77%
    ...
    125pt        47%      39%       42%        63%        23%     38%
    overall                                                       61%
"""

from conftest import emit

from repro import harness
from repro.results.report import PAPER_OVERALL_P, PAPER_TABLE3

#: The paper's per-stencil P column and overall P, as fractions.
PAPER_P_COLUMN = {
    name: row[-1] / 100 for name, row in PAPER_TABLE3.items()
}
PAPER_OVERALL = PAPER_OVERALL_P[3] / 100


def test_table3(benchmark, study):
    t3 = benchmark(harness.table3, study)
    emit("Table 3 (fraction of Roofline, bricks codegen)", t3.render())
    # The shape must hold: per-stencil P within 8 points of the paper,
    # overall within 5.
    for name, paper_p in PAPER_P_COLUMN.items():
        _, p = t3.rows[name]
        assert abs(p - paper_p) < 0.08, (name, p, paper_p)
    assert abs(t3.overall - PAPER_OVERALL) < 0.05
    # Ordering: 7pt best, 125pt worst.
    ps = {name: p for name, (_, p) in t3.rows.items()}
    assert max(ps, key=ps.get) == "7pt"
    assert min(ps, key=ps.get) == "125pt"
