"""Finite-difference operator factories with exact coefficients.

The paper motivates its star stencils as high-order finite-difference
discretisations ("a fourth-order accurate Laplacian stencil", Figure 1).
These factories build the actual operators — central-difference
Laplacians of order 2/4/6/8, gradients, and the biharmonic — with the
textbook coefficients, so solvers get discretisations that are exact by
construction rather than symbolic placeholders.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict

from repro.dsl.shapes import from_weights
from repro.dsl.stencil import Offset, Stencil
from repro.errors import DSLError

#: Central second-derivative weights per accuracy order: distance -> w,
#: before the 1/h^2 scale.  (Fornberg's classical coefficients.)
SECOND_DERIVATIVE_WEIGHTS: Dict[int, Dict[int, Fraction]] = {
    2: {0: Fraction(-2), 1: Fraction(1)},
    4: {0: Fraction(-5, 2), 1: Fraction(4, 3), 2: Fraction(-1, 12)},
    6: {0: Fraction(-49, 18), 1: Fraction(3, 2), 2: Fraction(-3, 20),
        3: Fraction(1, 90)},
    8: {0: Fraction(-205, 72), 1: Fraction(8, 5), 2: Fraction(-1, 5),
        3: Fraction(8, 315), 4: Fraction(-1, 560)},
}

#: Central first-derivative weights per accuracy order (antisymmetric),
#: before the 1/h scale.
FIRST_DERIVATIVE_WEIGHTS: Dict[int, Dict[int, Fraction]] = {
    2: {1: Fraction(1, 2)},
    4: {1: Fraction(2, 3), 2: Fraction(-1, 12)},
    6: {1: Fraction(3, 4), 2: Fraction(-3, 20), 3: Fraction(1, 60)},
    8: {1: Fraction(4, 5), 2: Fraction(-1, 5), 3: Fraction(4, 105),
        4: Fraction(-1, 280)},
}


def _check_order(order: int, table: Dict[int, Dict[int, Fraction]]) -> None:
    if order not in table:
        raise DSLError(
            f"unsupported accuracy order {order}; available: {sorted(table)}"
        )


def laplacian(order: int = 2, ndim: int = 3, h: float = 1.0) -> Stencil:
    """The order-``order`` central-difference Laplacian (a star stencil).

    ``order=2`` is the classic 7-point stencil; ``order=8`` is the
    25-point radius-4 star of the paper's benchmark set.
    """
    _check_order(order, SECOND_DERIVATIVE_WEIGHTS)
    table = SECOND_DERIVATIVE_WEIGHTS[order]
    scale = 1.0 / (h * h)
    weights: Dict[Offset, float] = {}
    centre = tuple(0 for _ in range(ndim))
    weights[centre] = ndim * float(table[0]) * scale
    for d in range(ndim):
        for dist, w in table.items():
            if dist == 0:
                continue
            for sign in (-1, 1):
                off = [0] * ndim
                off[d] = sign * dist
                weights[tuple(off)] = float(w) * scale
    return from_weights(weights, ndim=ndim)


def gradient_component(
    dim: int, order: int = 2, ndim: int = 3, h: float = 1.0
) -> Stencil:
    """The central-difference first derivative along ``dim``."""
    if not 0 <= dim < ndim:
        raise DSLError(f"dim {dim} outside 0..{ndim - 1}")
    _check_order(order, FIRST_DERIVATIVE_WEIGHTS)
    weights: Dict[Offset, float] = {}
    for dist, w in FIRST_DERIVATIVE_WEIGHTS[order].items():
        for sign in (-1, 1):
            off = [0] * ndim
            off[dim] = sign * dist
            weights[tuple(off)] = sign * float(w) / h
    return from_weights(weights, ndim=ndim)


def biharmonic(ndim: int = 3, h: float = 1.0) -> Stencil:
    """The 2nd-order biharmonic (laplacian of laplacian), radius 2.

    A star-plus-planar-diagonals stencil; the classic plate-bending /
    thin-film operator.
    """
    from repro.temporal.compose import compose

    lap = laplacian(order=2, ndim=ndim, h=h)
    return compose(lap, lap)

