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

Each op is an immutable, hashable ``NamedTuple`` whose register fields
come first (``dst`` before its sources, ``Store``'s ``src`` before its
coordinates).  Programs run to tens of thousands of ops, so a tuple is
what keeps building and scanning them cheap; code dispatches on the op
type with ``isinstance`` and reads fields by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from operator import itemgetter
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.dsl.coeffs import Coeff
from repro.errors import CodegenError

LOAD_KINDS = ("aligned", "halo", "unaligned")


class Load(NamedTuple):
    dst: str
    k: int
    j: int
    i0: int
    kind: str


class Shift(NamedTuple):
    dst: str
    lo: str
    hi: str
    amount: int


class Init(NamedTuple):
    dst: str


class Add(NamedTuple):
    dst: str
    a: str
    b: str


class Mac(NamedTuple):
    dst: str
    src: str
    coeff: Coeff


class Store(NamedTuple):
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
    #: The cost model's op tally that ``generate`` measured at the first
    #: build of this program's shape, and the liveness peak its auto
    #: rule measured then (``None`` for any other program).
    _peak: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )
    _tally: Optional[Tuple[int, ...]] = field(
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
            raise _indivisible(vl, bi)
        defined: set = set()
        stored: set = set()
        define = defined.add
        for op in self.ops:
            op_type = type(op)
            if op_type is Load:
                if op.kind not in LOAD_KINDS:
                    raise CodegenError(f"bad load kind {op.kind!r}")
                if not (-r <= op.k < bk + r and -r <= op.j < bj + r):
                    raise CodegenError(f"load row ({op.k},{op.j}) outside halo")
                if op.i0 + vl <= -r or op.i0 >= bi + r:
                    raise _reads_nothing(op)
                define(op.dst)
            elif op_type is Shift:
                if not 0 < op.amount < vl:
                    raise _bad_shift(op, vl)
                if op.lo not in defined or op.hi not in defined:
                    raise CodegenError(f"shift uses undefined register")
                define(op.dst)
            elif op_type is Init:
                define(op.dst)
            elif op_type is Add:
                if op.a not in defined or op.b not in defined:
                    raise CodegenError("add uses undefined register")
                define(op.dst)
            elif op_type is Mac:
                if op.dst not in defined:
                    raise CodegenError(f"mac into uninitialised register {op.dst}")
                if op.src not in defined:
                    raise CodegenError(f"mac from undefined register {op.src}")
            elif op_type is Store:
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

    def validate_vl(self, at: Iterable[int]) -> None:
        """The checks of :meth:`validate` that read ``vl``, on the ops at ``at``.

        These are ``vl | bi``, a load's reach and a shift's range.
        ``generate`` re-binds a validated program of the same shape to
        another ``vl`` by rewriting only some ``Load.i0`` and
        ``Shift.amount`` fields; it checks the ops it rewrote here.  The
        other ops equal the validated ones, and their checks hold at any
        ``vl`` above the radius.  Raises :class:`CodegenError` as
        :meth:`validate` would.
        """
        bi, r, vl = self.tile[2], self.radius, self.vl
        if bi % vl != 0:
            raise _indivisible(vl, bi)
        for op in map(self.ops.__getitem__, at):
            if type(op) is Load:
                if op.i0 + vl <= -r or op.i0 >= bi + r:
                    raise _reads_nothing(op)
            elif not 0 < op.amount < vl:
                raise _bad_shift(op, vl)

    def max_live_registers(self) -> int:
        """Peak number of simultaneously-live virtual registers.

        A proxy for the register pressure of the generated kernel.  A
        register is live from its first op to the op of its last use (an
        ``Init`` counts as a use of its accumulator), or at its first op
        only if no later op uses it; a name defined again after that is
        live at each such defining op.  The peak is the most of these
        intervals that cover one op, counted with NumPy over the whole
        program at once (see :func:`_liveness_peak`).

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


def _indivisible(vl: int, bi: int) -> CodegenError:
    return CodegenError(f"vl {vl} does not divide tile i-extent {bi}")


def _reads_nothing(op: Load) -> CodegenError:
    return CodegenError(f"load at i0={op.i0} reads nothing")


def _bad_shift(op: Shift, vl: int) -> CodegenError:
    return CodegenError(f"shift amount {op.amount} not in (0,{vl})")


#: The register fields of each op type: ``(registers, defines)``.  The
#: first ``registers`` fields of an op name registers, and the first
#: ``defines`` of those are written rather than read.  An ``Init`` counts
#: as a use of its accumulator, so a ``Mac`` into it keeps it live.
_REGISTERS = {
    Load: (1, 1),
    Shift: (3, 1),
    Init: (1, 0),
    Add: (3, 1),
    Mac: (2, 0),
    Store: (1, 0),
}
_CODE = {op_type: code for code, op_type in enumerate(_REGISTERS)}


def _liveness_peak(ops: List[Op]) -> int:
    """The interval count behind :meth:`VectorProgram.max_live_registers`.

    A register is live from its first appearance to its last use, or
    only at its first appearance if no later op uses it.  A name defined
    again after that interval is a fresh register, live at its defining
    op only.  The peak is the largest number of these intervals that
    cover one op: a prefix sum of interval starts minus interval ends.
    """
    n = len(ops)
    if not n:
        return 0
    codes = np.fromiter(map(_CODE.__getitem__, map(type, ops)), np.intp, n)
    # Every register field of every op: its name, op index, and whether
    # the op defines (rather than reads) it.  Grouped by type, then field.
    names: List[str] = []
    at: List[np.ndarray] = []
    defines: List[bool] = []
    for code, (nregs, ndefs) in enumerate(_REGISTERS.values()):
        where = np.flatnonzero(codes == code)
        if not where.size:
            continue
        of_type = list(map(ops.__getitem__, where.tolist()))
        for field_no in range(nregs):
            names.extend(map(itemgetter(field_no), of_type))
            at.append(where)
            defines.append(field_no < ndefs)
    # A name's id is the index of its first entry in ``names``; an index
    # no name took keeps ``first == n`` and is left out of the count.
    reg = np.fromiter(map({}.setdefault, names, count()), np.intp, len(names))
    pos = np.concatenate(at)
    define = np.repeat(defines, [len(where) for where in at])
    first = np.full(len(names), n)
    np.minimum.at(first, reg, pos)
    last = np.full(len(names), -1)
    np.maximum.at(last, reg[~define], pos[~define])
    end = np.maximum(first, last)
    again = pos[define & (pos > end[reg])]
    named = first < n
    starts = np.bincount(np.concatenate((first[named], again)), minlength=n + 1)
    ends = np.bincount(np.concatenate((end[named], again)) + 1, minlength=n + 1)
    return int(np.cumsum(starts - ends).max())
