"""Canonical stencil form and the DSL lowering pass.

A :class:`Stencil` is the normal form every DSL program reduces to: a map
from constant integer offsets (taps) to :class:`~repro.dsl.coeffs.Coeff`
weights, for a single input grid, written out-of-place to a single output
grid.  All downstream components — reference execution, vector code
generation, traffic models, Table 2/4 analysis — consume this form.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

from repro.dsl.coeffs import Coeff
from repro.dsl.expr import Add, Const, ConstRef, Expr, GridRef, Mul, Neg, _coerce
from repro.errors import DSLError

Offset = Tuple[int, ...]


@dataclass(frozen=True)
class Stencil:
    """A linear constant-coefficient stencil in canonical form.

    Attributes
    ----------
    output:
        Name of the grid being written (at the centre point).
    input:
        Name of the grid being read.
    taps:
        Mapping from offset vector to symbolic coefficient.  Offsets are
        ordered ``(i, j, k, ...)`` with dimension 0 contiguous.
    ndim:
        Number of spatial dimensions.

    A stencil is immutable: never change ``taps`` in place.  The
    catalog shares one instance per Table 2 case
    (:meth:`~repro.dsl.shapes.StencilCase.build`), and the values
    derived from the taps are cached on first use.
    """

    output: str
    input: str
    ndim: int
    taps: Mapping[Offset, Coeff] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.taps:
            raise DSLError("a stencil must have at least one tap")
        for off, coeff in self.taps.items():
            if len(off) != self.ndim:
                raise DSLError(
                    f"tap offset {off} has {len(off)} components, expected {self.ndim}"
                )
            if coeff.is_zero():
                raise DSLError(f"tap {off} has a zero coefficient; drop it instead")

    # ---- geometry ------------------------------------------------------
    @property
    def points(self) -> int:
        """Number of taps (the paper's 'Points' column of Table 2)."""
        return len(self.taps)

    @functools.cached_property
    def radius(self) -> int:
        """Chebyshev radius: max absolute offset component over all taps.

        Computed once per stencil (a stencil is immutable): codegen and
        the simulators read it for every program they build or look up.
        """
        return max(max(abs(c) for c in off) for off in self.taps)

    @functools.cached_property
    def signature(self) -> "StencilSignature":
        """This stencil's semantic identity, built and hashed once.

        The codegen memos key every lookup on it.
        """
        taps = tuple(sorted(self.taps.items()))
        return StencilSignature(self.output, self.input, self.ndim, taps)

    def offsets(self) -> Tuple[Offset, ...]:
        """All tap offsets in deterministic (lexicographic) order."""
        return tuple(sorted(self.taps))

    def shape_class(self) -> str:
        """Classify as ``'star'``, ``'cube'``, or ``'general'``.

        Star stencils place taps only along the axes (at most one non-zero
        offset component); cube stencils fill the whole
        ``(2r+1)**ndim`` bounding box.  Anything else is 'general'.
        """
        offs = set(self.taps)
        if all(sum(1 for c in off if c != 0) <= 1 for off in offs):
            r = self.radius
            expected = {tuple(0 for _ in range(self.ndim))}
            for d in range(self.ndim):
                for s in range(-r, r + 1):
                    if s == 0:
                        continue
                    off = [0] * self.ndim
                    off[d] = s
                    expected.add(tuple(off))
            if offs == expected:
                return "star"
        r = self.radius
        box = set(itertools.product(range(-r, r + 1), repeat=self.ndim))
        if offs == box:
            return "cube"
        return "general"

    # ---- coefficient analysis -------------------------------------------
    def unique_coefficients(self) -> int:
        """Number of distinct coefficient values (Table 2's last column)."""
        return self._unique_coefficients

    @functools.cached_property
    def _unique_coefficients(self) -> int:
        return len({c.key() for c in self.taps.values()})

    def coefficient_groups(self) -> Dict[Tuple, Tuple[Offset, ...]]:
        """Group tap offsets by shared coefficient (symmetry shells)."""
        groups: Dict[Tuple, list] = {}
        for off, coeff in sorted(self.taps.items()):
            groups.setdefault(coeff.key(), []).append(off)
        return {k: tuple(v) for k, v in groups.items()}

    def symbols(self) -> frozenset:
        """All coefficient symbol names used by this stencil."""
        out = frozenset()
        for c in self.taps.values():
            out |= c.symbols()
        return out

    def weights(self, bindings: Mapping[str, float] | None = None) -> Dict[Offset, float]:
        """Numeric tap weights given symbol bindings."""
        bindings = bindings or {}
        return {off: c.evaluate(bindings) for off, c in sorted(self.taps.items())}

    # ---- FLOP model -------------------------------------------------------
    def flops_per_point(self, minimal: bool = True) -> int:
        """FLOPs to compute one output point.

        ``minimal=True`` is the paper's normalised count (Section 4.4 /
        Table 4): taps sharing a coefficient are summed first
        (``points - groups`` adds), each group is scaled once (``groups``
        multiplies), and the groups are combined (``groups - 1`` adds),
        giving ``points + groups - 1``.  ``minimal=False`` is the naive
        one-multiply-per-tap count ``2 * points - 1``.
        """
        if minimal:
            groups = self.unique_coefficients()
            return self.points + groups - 1
        return 2 * self.points - 1

    def description(self) -> str:
        """Short human-readable identity, e.g. ``'star(r=2, 13pt)'``."""
        return f"{self.shape_class()}(r={self.radius}, {self.points}pt)"


@dataclass(frozen=True)
class StencilSignature:
    """What a generated program depends on: grids, rank and sorted taps.

    Equal stencils give equal signatures.  The hash is computed once, at
    construction: hashing ``taps`` walks every frozen ``Coeff`` (tens of
    µs for the 125-point stencil), and a batch looks each group up under
    it several times.
    """

    output: str
    input: str
    ndim: int
    taps: Tuple[Tuple[Offset, Coeff], ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        key = (self.output, self.input, self.ndim, self.taps)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # String hashes differ between processes: rehash on unpickling.
        return (StencilSignature, (self.output, self.input, self.ndim, self.taps))


# ---------------------------------------------------------------------------
# Lowering from the expression AST
# ---------------------------------------------------------------------------


def _lower(expr: Expr) -> Tuple[Dict[Tuple[str, Offset], Coeff], Coeff]:
    """Reduce an expression to (grid-tap coefficients, additive constant).

    Raises :class:`DSLError` on non-linear use (grid * grid).
    """
    if isinstance(expr, Const):
        return {}, Coeff.const(expr.value)
    if isinstance(expr, ConstRef):
        return {}, Coeff.symbol(expr.name)
    if isinstance(expr, GridRef):
        return {(expr.grid_name, expr.offsets): Coeff.const(1.0)}, Coeff.zero()
    if isinstance(expr, Neg):
        taps, const = _lower(expr.arg)
        return {k: -v for k, v in taps.items()}, -const
    if isinstance(expr, Add):
        lt, lc = _lower(expr.lhs)
        rt, rc = _lower(expr.rhs)
        merged = dict(lt)
        for k, v in rt.items():
            merged[k] = merged[k] + v if k in merged else v
        return {k: v for k, v in merged.items() if not v.is_zero()}, lc + rc
    if isinstance(expr, Mul):
        lt, lc = _lower(expr.lhs)
        rt, rc = _lower(expr.rhs)
        if lt and rt:
            raise DSLError(
                "non-linear stencil: a grid value is multiplied by another "
                "grid value; BrickLib stencils are linear in the input grid"
            )
        if lt:  # grid-bearing side is on the left
            return {k: v * rc for k, v in lt.items()}, lc * rc
        return {k: v * lc for k, v in rt.items()}, lc * rc
    raise DSLError(f"unsupported expression node {type(expr).__name__}")


def lower_assignment(target: GridRef, expr: "Expr | int | float") -> Stencil:
    """Lower ``target.assign(expr)`` into a canonical :class:`Stencil`.

    The target must be an un-shifted (centre) access, the expression must
    reference exactly one input grid, and that grid must differ from the
    output grid (BrickLib computes out-of-place).
    """
    if any(o != 0 for o in target.offsets):
        raise DSLError(
            f"assignment target '{target.grid_name}' must be accessed at the "
            f"centre point, got offsets {target.offsets}"
        )
    taps, const = _lower(_coerce(expr))
    if not const.is_zero():
        raise DSLError("stencil expressions may not contain additive constants")
    if not taps:
        raise DSLError("stencil expression reads no grid values")
    grids = {g for g, _ in taps}
    if len(grids) != 1:
        raise DSLError(f"stencil must read exactly one input grid, got {sorted(grids)}")
    (input_name,) = grids
    if input_name == target.grid_name:
        raise DSLError(
            f"stencil must be out-of-place: '{input_name}' is both read and written"
        )
    ndim = len(target.offsets)
    canon = {off: c for (_, off), c in taps.items()}
    return Stencil(output=target.grid_name, input=input_name, ndim=ndim, taps=canon)
