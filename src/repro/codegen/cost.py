"""Static cost model over vector programs.

Counts, per tile, the quantities the GPU simulator and the L1 analysis
(paper Figure 4) consume: vector load instructions by kind, shuffle
count, FMA count, store count, instruction FLOPs, and register pressure.
The contrast the paper reports — naive kernels moving 10x or more L1
bytes than generated code — falls out of these counts, because naive
programs issue one load per tap per output while generated programs load
each input row once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Tuple

from repro.codegen.vector_ir import Add, Load, Mac, Op, Shift, Store, VectorProgram


@dataclass(frozen=True)
class ProgramCost:
    """Per-tile static op counts for one vector program."""

    tile_points: int
    vl: int
    loads_aligned: int
    loads_halo: int
    loads_unaligned: int
    shuffles: int
    adds: int
    macs: int
    stores: int
    registers: int
    #: Useful lanes read by halo loads (halo vectors are mostly padding).
    halo_lanes: int

    @property
    def loads_total(self) -> int:
        return self.loads_aligned + self.loads_halo + self.loads_unaligned

    @property
    def flops(self) -> int:
        """Executed FLOPs per tile: Adds are 1 FLOP/lane, Macs (FMA) are 2."""
        return (self.adds + 2 * self.macs) * self.vl

    def load_lanes(self) -> int:
        """Lanes of data requested from memory per tile."""
        return (
            (self.loads_aligned + self.loads_unaligned) * self.vl + self.halo_lanes
        )


def op_tally(ops: List[Op]) -> Tuple[int, ...]:
    """Counts of ``ops`` by load kind and op type, in :class:`ProgramCost`
    field order: aligned, halo and unaligned loads, shuffles, adds, macs
    and stores.  None of them depends on the vector length."""
    types = Counter(map(type, ops))
    loads = Counter(op.kind for op in ops if type(op) is Load)
    return (
        loads["aligned"], loads["halo"], loads["unaligned"],
        types[Shift], types[Add], types[Mac], types[Store],
    )


def cost_of(program: VectorProgram) -> ProgramCost:
    """Tally ``program``'s static costs by op type and load kind.

    A program ``generate`` returned carries its tally from its shape's
    first build, so this walks no ops for it; only a naive program's
    liveness peak is scanned again.
    """
    bk, bj, bi = program.tile
    tally = program._tally
    if tally is None:
        tally = op_tally(program.ops)
    aligned, halo, unaligned, shuffles, adds, macs, stores = tally
    return ProgramCost(
        tile_points=bk * bj * bi,
        vl=program.vl,
        loads_aligned=aligned,
        loads_halo=halo,
        loads_unaligned=unaligned,
        shuffles=shuffles,
        adds=adds,
        macs=macs,
        stores=stores,
        registers=program.max_live_registers(),
        # only the r lanes of a halo load next to the tile are real
        halo_lanes=halo * program.radius,
    )
