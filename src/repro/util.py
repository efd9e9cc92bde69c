"""Shared small helpers: axis-order conventions and integer math.

Convention used across the package
----------------------------------
DSL dimension 0 is ``i`` — the *contiguous* (unit-stride) spatial
dimension, as in the paper's kernels where ``bIn[b][k][j][i]`` has ``i``
fastest.  Dense NumPy fields are C-ordered and indexed ``[k, j, i]``
(slowest first), so DSL offset tuples ``(oi, oj, ok)`` map to NumPy axes
in *reverse*: axis ``ndim-1-d`` carries dimension ``d``.
"""

from __future__ import annotations

from typing import Iterable, Tuple


def offset_to_axis_shifts(offset: Tuple[int, ...]) -> Tuple[int, ...]:
    """Reorder a DSL offset (dim 0 first) into NumPy axis order (dim 0 last)."""
    return tuple(reversed(offset))


def dims_to_shape(dims: Tuple[int, ...]) -> Tuple[int, ...]:
    """Reorder per-dimension extents (dim 0 first) into a NumPy shape."""
    return tuple(reversed(dims))


def prod(xs: Iterable[int]) -> int:
    """Integer product (empty product is 1)."""
    out = 1
    for x in xs:
        out *= x
    return out


def ceil_div(a: int, b: int) -> int:
    """Ceiling integer division for non-negative ``a`` and positive ``b``."""
    return -(-a // b)
