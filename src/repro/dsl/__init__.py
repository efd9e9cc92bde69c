"""BrickLib-style python stencil DSL (paper Figure 1).

Example — the paper's radius-2 star stencil::

    from repro.dsl import Index, Grid, ConstRef

    i, j, k = Index(0), Index(1), Index(2)
    inp, out = Grid("in", 3), Grid("out", 3)
    a0, a1, a2 = ConstRef("MPI_B0"), ConstRef("MPI_B1"), ConstRef("MPI_B2")

    calc = (a0 * inp(i, j, k)
            + a1 * (inp(i + 1, j, k) + inp(i - 1, j, k)
                    + inp(i, j + 1, k) + inp(i, j - 1, k)
                    + inp(i, j, k + 1) + inp(i, j, k - 1))
            + a2 * (inp(i + 2, j, k) + inp(i - 2, j, k)
                    + inp(i, j + 2, k) + inp(i, j - 2, k)
                    + inp(i, j, k + 2) + inp(i, j, k - 2)))
    stencil = out(i, j, k).assign(calc)
"""

from repro.dsl.analysis import (
    COMPULSORY_BYTES_PER_POINT,
    FP64_BYTES,
    StencilAnalysis,
    analyze,
    compulsory_bytes,
    theoretical_ai,
    total_flops,
)
from repro.dsl.coeffs import Coeff, CoeffTerm
from repro.dsl.derivatives import biharmonic, compose, gradient_component, laplacian
from repro.dsl.expr import Const, ConstRef, Expr, GridRef
from repro.dsl.grid import Grid, GridAccess
from repro.dsl.indices import Index, ShiftedIndex
from repro.dsl.shapes import TABLE2, StencilCase, by_name, catalog, cube, from_weights, star
from repro.dsl.stencil import Stencil, lower_assignment

__all__ = [
    "COMPULSORY_BYTES_PER_POINT",
    "FP64_BYTES",
    "TABLE2",
    "Coeff",
    "CoeffTerm",
    "Const",
    "ConstRef",
    "Expr",
    "Grid",
    "GridAccess",
    "GridRef",
    "Index",
    "ShiftedIndex",
    "Stencil",
    "StencilAnalysis",
    "StencilCase",
    "analyze",
    "biharmonic",
    "by_name",
    "catalog",
    "compose",
    "compulsory_bytes",
    "cube",
    "gradient_component",
    "from_weights",
    "laplacian",
    "lower_assignment",
    "star",
    "theoretical_ai",
    "total_flops",
]
