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

from repro.codegen.vector_ir import Add, Load, Mac, Shift, Store, VectorProgram


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

    @property
    def fp_ops(self) -> int:
        """Floating-point instructions per tile (adds + FMAs)."""
        return self.adds + self.macs

    def load_lanes(self) -> int:
        """Lanes of data requested from memory per tile."""
        return (
            (self.loads_aligned + self.loads_unaligned) * self.vl + self.halo_lanes
        )

    def per_point(self, field: str) -> float:
        """A count normalised per output grid point."""
        return getattr(self, field) / self.tile_points


def cost_of(program: VectorProgram) -> ProgramCost:
    """Tally ``program``'s static costs by op type and load kind."""
    bk, bj, bi = program.tile
    ops = program.ops
    tally = Counter(map(type, ops))
    loads = Counter(op.kind for op in ops if type(op) is Load)
    return ProgramCost(
        tile_points=bk * bj * bi,
        vl=program.vl,
        loads_aligned=loads["aligned"],
        loads_halo=loads["halo"],
        loads_unaligned=loads["unaligned"],
        shuffles=tally[Shift],
        adds=tally[Add],
        macs=tally[Mac],
        stores=tally[Store],
        registers=program.max_live_registers(),
        # only the r lanes of a halo load next to the tile are real
        halo_lanes=loads["halo"] * program.radius,
    )
