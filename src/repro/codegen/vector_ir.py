"""Vector IR: the target-independent form produced by the code generator.

BrickLib's generator emits "a sequence of code blocks that compute
portions of a brick's stencil grid" (paper Section 3).  We model that as
a linear program over virtual vector registers of ``vl`` lanes, where a
lane corresponds to one grid point along the contiguous dimension
(``i``).  The iteration tile is one brick (or one array tile of the same
shape); the input is the halo-padded block around it.

Ops
---
``Load``   — read ``vl`` lanes of one input row starting at brick-frame
             ``i = i0`` (lanes outside the padded block read as zero).
             ``kind`` records how the hardware would service it:
             ``aligned`` (a full vector inside the tile), ``halo`` (the
             partial vector crossing into a neighbour brick), or
             ``unaligned`` (an arbitrary-offset read — what naive
             kernels do for every tap).
``Shift``  — lane-shift combining two registers: the GPU warp-shuffle
             (``__shfl_up/down``) data exchange.
             ``dst[l] = lo[l + amount]`` for ``l < vl - amount`` else
             ``hi[l + amount - vl]``.
``Init``   — zero an accumulator register.
``Add``    — ``dst = a + b``: coefficient-group summation.  BrickLib
             groups taps sharing a coefficient and sums them *before*
             scaling (associative reordering — see the grouped
             expression in the paper's Figure 2 kernels), so the
             executed FLOPs per point are ``points + groups`` rather
             than ``2 * points``.
``Mac``    — ``dst += coeff * src`` (coefficient is symbolic).
``Store``  — write an accumulator to output row ``(k, j)``, vector ``v``.

Coordinates: rows are named ``(k, j)`` with ``k`` the slowest dimension;
loads may address ``k in [-r, bk + r)`` etc.; stores only interior rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.dsl.coeffs import Coeff
from repro.errors import CodegenError

LOAD_KINDS = ("aligned", "halo", "unaligned")


@dataclass(frozen=True)
class Load:
    dst: str
    k: int
    j: int
    i0: int
    kind: str


@dataclass(frozen=True)
class Shift:
    dst: str
    lo: str
    hi: str
    amount: int


@dataclass(frozen=True)
class Init:
    dst: str


@dataclass(frozen=True)
class Add:
    dst: str
    a: str
    b: str


@dataclass(frozen=True)
class Mac:
    dst: str
    src: str
    coeff: Coeff


@dataclass(frozen=True)
class Store:
    src: str
    k: int
    j: int
    v: int


Op = Union[Load, Shift, Init, Add, Mac, Store]


@dataclass
class VectorProgram:
    """A generated vector program for one brick/tile of the iteration space.

    Attributes
    ----------
    ops:
        Linear op sequence.
    tile:
        Tile extents in numpy order ``(bk, bj, bi)``.
    radius:
        Stencil radius the program assumes for its halo-padded input.
    vl:
        Vector length (lanes); must divide ``bi``.
    strategy:
        Which generator produced it (``naive`` / ``gather`` / ``scatter``).
    """

    ops: List[Op]
    tile: Tuple[int, int, int]
    radius: int
    vl: int
    strategy: str
    meta: Dict[str, object] = field(default_factory=dict)
    #: The liveness peak ``generate``'s profitability rule measured when
    #: it chose this program (``None`` for any other program).
    _peak: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def nvec(self) -> int:
        """Vectors per tile row."""
        return self.tile[2] // self.vl

    def validate(self) -> None:
        """Check structural invariants; raises :class:`CodegenError`."""
        bk, bj, bi = self.tile
        r, vl = self.radius, self.vl
        if bi % vl != 0:
            raise CodegenError(f"vl {vl} does not divide tile i-extent {bi}")
        defined: set = set()
        stored: set = set()
        for op in self.ops:
            if isinstance(op, Load):
                if op.kind not in LOAD_KINDS:
                    raise CodegenError(f"bad load kind {op.kind!r}")
                if not (-r <= op.k < bk + r and -r <= op.j < bj + r):
                    raise CodegenError(f"load row ({op.k},{op.j}) outside halo")
                if op.i0 + vl <= -r or op.i0 >= bi + r:
                    raise CodegenError(f"load at i0={op.i0} reads nothing")
                defined.add(op.dst)
            elif isinstance(op, Shift):
                if not 0 < op.amount < vl:
                    raise CodegenError(f"shift amount {op.amount} not in (0,{vl})")
                if op.lo not in defined or op.hi not in defined:
                    raise CodegenError(f"shift uses undefined register")
                defined.add(op.dst)
            elif isinstance(op, Init):
                defined.add(op.dst)
            elif isinstance(op, Add):
                if op.a not in defined or op.b not in defined:
                    raise CodegenError("add uses undefined register")
                defined.add(op.dst)
            elif isinstance(op, Mac):
                if op.dst not in defined:
                    raise CodegenError(f"mac into uninitialised register {op.dst}")
                if op.src not in defined:
                    raise CodegenError(f"mac from undefined register {op.src}")
            elif isinstance(op, Store):
                if op.src not in defined:
                    raise CodegenError(f"store of undefined register {op.src}")
                if not (0 <= op.k < bk and 0 <= op.j < bj and 0 <= op.v < self.nvec):
                    raise CodegenError(f"store outside tile: {op}")
                key = (op.k, op.j, op.v)
                if key in stored:
                    raise CodegenError(f"output vector {key} stored twice")
                stored.add(key)
            else:  # pragma: no cover - defensive
                raise CodegenError(f"unknown op {op!r}")
        expected = bk * bj * self.nvec
        if len(stored) != expected:
            raise CodegenError(
                f"program stores {len(stored)} output vectors, expected {expected}"
            )

    def max_live_registers(self) -> int:
        """Peak number of simultaneously-live virtual registers.

        Computed by a liveness scan in linear time; a proxy for the
        register pressure of the generated kernel.  A register dies after
        the op of its last use (an ``Init`` counts as a use of its
        accumulator), or after the op defining it if no later op uses it.

        A program ``generate`` chose by comparing peaks returns the peak
        measured then, so ``cost_of`` does not scan it again (generated
        programs are never mutated); any other program is scanned.
        """
        if self._peak is not None:
            return self._peak
        return _liveness_peak(self.ops)

    def pretty(self, limit: int | None = None) -> str:
        """Human-readable listing (used by tests and the emitters)."""
        lines = [
            f"; {self.strategy} program tile={self.tile} r={self.radius} vl={self.vl}"
        ]
        ops = self.ops if limit is None else self.ops[:limit]
        for op in ops:
            if isinstance(op, Load):
                lines.append(
                    f"  {op.dst:>10} = load[{op.kind}] row({op.k},{op.j}) i0={op.i0}"
                )
            elif isinstance(op, Shift):
                lines.append(
                    f"  {op.dst:>10} = shift({op.lo}, {op.hi}, {op.amount})"
                )
            elif isinstance(op, Init):
                lines.append(f"  {op.dst:>10} = 0")
            elif isinstance(op, Add):
                lines.append(f"  {op.dst:>10} = {op.a} + {op.b}")
            elif isinstance(op, Mac):
                lines.append(f"  {op.dst:>10} += ({op.coeff!r}) * {op.src}")
            elif isinstance(op, Store):
                lines.append(f"  out({op.k},{op.j})[{op.v}] = {op.src}")
        if limit is not None and len(self.ops) > limit:
            lines.append(f"  ... {len(self.ops) - limit} more ops")
        return "\n".join(lines)


def _liveness_peak(ops: List[Op]) -> int:
    """The linear liveness scan behind :meth:`VectorProgram.max_live_registers`."""
    last_use: Dict[str, int] = {}
    for idx, op in enumerate(ops):
        for reg in _uses(op):
            last_use[reg] = idx
        if isinstance(op, Init):
            last_use[op.dst] = idx
    live: set = set()
    deaths: Dict[int, List[str]] = {}
    peak = 0
    for idx, op in enumerate(ops):
        d = _defines(op)
        for reg in _uses(op) if d is None else (d, *_uses(op)):
            if reg not in live:
                live.add(reg)
                deaths.setdefault(max(idx, last_use.get(reg, -1)), []).append(reg)
        peak = max(peak, len(live))
        live.difference_update(deaths.pop(idx, ()))
    return peak


def _uses(op: Op) -> Tuple[str, ...]:
    if isinstance(op, Shift):
        return (op.lo, op.hi)
    if isinstance(op, Add):
        return (op.a, op.b)
    if isinstance(op, Mac):
        return (op.src, op.dst)
    if isinstance(op, Store):
        return (op.src,)
    return ()


def _defines(op: Op) -> str | None:
    if isinstance(op, (Load, Shift, Init, Add)):
        return op.dst
    return None
