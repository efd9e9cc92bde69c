"""Factories for the paper's stencil families and the Table 2 catalog.

Both families use the minimal, symmetry-exploiting number of unique
coefficients (paper Section 4.3): a star stencil of radius *r* has one
centre coefficient plus one per shell distance (``r + 1`` total); a cube
stencil has one coefficient per orbit of the octahedral symmetry group,
i.e. per sorted absolute-offset triple.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.dsl.coeffs import Coeff
from repro.dsl.stencil import Offset, Stencil
from repro.errors import DSLError


def star(radius: int, ndim: int = 3, prefix: str = "B") -> Stencil:
    """Star-shaped stencil: taps along the axes up to ``radius``.

    Coefficient ``{prefix}0`` at the centre and ``{prefix}d`` for all taps
    at axis distance ``d``; e.g. ``star(2)`` is the paper's 13-point
    stencil with 3 unique coefficients (Figure 1).
    """
    if radius < 1:
        raise DSLError(f"star radius must be >= 1, got {radius}")
    if ndim < 1:
        raise DSLError(f"star ndim must be >= 1, got {ndim}")
    taps: Dict[Offset, Coeff] = {
        tuple(0 for _ in range(ndim)): Coeff.symbol(f"{prefix}0")
    }
    for dim in range(ndim):
        for dist in range(1, radius + 1):
            for sign in (-1, 1):
                off = [0] * ndim
                off[dim] = sign * dist
                taps[tuple(off)] = Coeff.symbol(f"{prefix}{dist}")
    return Stencil(output="out", input="in", ndim=ndim, taps=taps)


def cube(radius: int, ndim: int = 3, prefix: str = "C") -> Stencil:
    """Cube-shaped stencil: every tap in the ``(2r+1)**ndim`` box.

    Taps sharing a sorted absolute-offset tuple (a symmetry orbit) share a
    coefficient, so ``cube(1)`` is the 27-point stencil with 4 unique
    coefficients and ``cube(2)`` the 125-point stencil with 10.
    """
    if radius < 1:
        raise DSLError(f"cube radius must be >= 1, got {radius}")
    if ndim < 1:
        raise DSLError(f"cube ndim must be >= 1, got {ndim}")
    orbits = sorted(
        set(
            tuple(sorted(abs(c) for c in off))
            for off in itertools.product(range(-radius, radius + 1), repeat=ndim)
        )
    )
    orbit_name = {orbit: f"{prefix}{idx}" for idx, orbit in enumerate(orbits)}
    taps: Dict[Offset, Coeff] = {}
    for off in itertools.product(range(-radius, radius + 1), repeat=ndim):
        orbit = tuple(sorted(abs(c) for c in off))
        taps[tuple(off)] = Coeff.symbol(orbit_name[orbit])
    return Stencil(output="out", input="in", ndim=ndim, taps=taps)


def from_weights(weights: Dict[Offset, float], ndim: int | None = None) -> Stencil:
    """Build a stencil directly from numeric tap weights."""
    if not weights:
        raise DSLError("from_weights requires at least one tap")
    ndim = ndim if ndim is not None else len(next(iter(weights)))
    taps = {tuple(off): Coeff.const(w) for off, w in weights.items() if w != 0.0}
    if not taps:
        raise DSLError("all tap weights were zero")
    return Stencil(output="out", input="in", ndim=ndim, taps=taps)


#: Built catalog stencils, keyed by ``(shape, radius)``.
_BUILT: Dict[Tuple[str, int], Stencil] = {}


@dataclass(frozen=True)
class StencilCase:
    """One row of the paper's Table 2: a named benchmark stencil."""

    name: str  # e.g. "7pt"
    shape: str  # "star" or "cube"
    radius: int
    points: int
    unique_coefficients: int

    def build(self) -> Stencil:
        """This case's stencil: one shared value per ``(shape, radius)``.

        A :class:`Stencil` is immutable, so every caller (CLI, tables,
        figures, study items, invariants) shares the first build, along
        with the counts it caches.  The ``star`` / ``cube`` factories
        still return a new stencil per call.
        """
        key = (self.shape, self.radius)
        stencil = _BUILT.get(key)
        if stencil is None:
            factory = star if self.shape == "star" else cube
            stencil = _BUILT[key] = factory(self.radius)
        return stencil

    def default_bindings(self) -> Dict[str, float]:
        """Deterministic non-trivial coefficient values for execution.

        Values follow the classic Laplacian-like convention: the centre
        weight balances the shells so a constant field maps to ~0, which
        gives tests an easy invariant while keeping every shell distinct.
        """
        s = self.build()
        syms = sorted(s.symbols())
        bindings = {}
        for idx, name in enumerate(syms):
            bindings[name] = 1.0 / (idx + 1.0) if idx else -float(len(syms))
        return bindings


#: The paper's Table 2, in order.
TABLE2: Tuple[StencilCase, ...] = (
    StencilCase("7pt", "star", 1, 7, 2),
    StencilCase("13pt", "star", 2, 13, 3),
    StencilCase("19pt", "star", 3, 19, 4),
    StencilCase("25pt", "star", 4, 25, 5),
    StencilCase("27pt", "cube", 1, 27, 4),
    StencilCase("125pt", "cube", 2, 125, 10),
)


def catalog() -> Dict[str, StencilCase]:
    """Table 2 cases keyed by name ('7pt', ..., '125pt')."""
    return {c.name: c for c in TABLE2}


def by_name(name: str) -> StencilCase:
    """Look up a Table 2 case; raises :class:`DSLError` for unknown names."""
    cases = catalog()
    if name not in cases:
        raise DSLError(f"unknown stencil '{name}'; known: {sorted(cases)}")
    return cases[name]
