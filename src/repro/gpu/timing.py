"""Multi-resource bottleneck timing model.

A kernel's runtime is the slowest of three overlapping data streams —
HBM traffic, L1 traffic, FP64 work — plus two *non-overlapped*
serial components and a launch overhead:

* the **shuffle/exchange time**: lane-exchange sequences have exposed
  latency (a shift is two shuffles plus a select, in a dependency chain
  in front of the FMA that consumes it).  Each architecture has an
  effective cycles-per-shift cost; this term is what produces the
  paper's monotone decline of Roofline fraction with stencil radius
  (Table 3: A100 95% -> 69%, PVC 77% -> 47% across the star family,
  which grows the shift count linearly in radius while everything else
  stays near-constant per point);
* the **memory-issue time**: load/store instruction issue steals cycles
  from latency hiding; for *scalarised* variants (immature compilers on
  tiled-array kernels) every lane becomes its own address computation
  plus load, multiplying this term by ``2 * vl`` — the mechanism behind
  SYCL's 13x-26x tiled-array collapse on the A100.

FP adds/FMAs are *not* in the issue term: they live on the FP64 pipe,
modelled by ``t_fp``.  All inputs come from the traffic model and the
vector-IR cost model, scaled by the platform profile's efficiencies.
As in :mod:`repro.gpu.traffic`, both engines call the same array
formulas: :func:`timing_group`, then :func:`timing_columns`.

Register pressure enters as an occupancy factor: once the generated
kernel's peak live registers exceed the profile's budget, fewer threads
are resident, latency hiding degrades, and achieved bandwidth falls off
as ``sqrt(budget / registers)`` (a smooth proxy for the discrete
occupancy cliffs of real hardware).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from repro.codegen.cost import ProgramCost
from repro.errors import SimulationError
from repro.gpu.arch import GPUArchitecture
from repro.gpu.progmodel import ModelProfile, VariantProfile
from repro.gpu.traffic import Traffic

#: Fixed per-tile instruction overhead (index arithmetic, adjacency
#: lookup, loop bookkeeping) in warp instructions.
TILE_OVERHEAD_INSTRS = 24

#: Effective exposed cycles per lane-shift, per vendor.  NVIDIA executes
#: __shfl as one instruction but the two-shuffle+select chain in front of
#: each FMA exposes ~3 cycles; CDNA2 lowers shifts to single cheap DPP /
#: permute ops; PVC's sub-group shuffles lower to multi-instruction
#: cross-lane sequences (~2.5 effective cycles per shift at its lower
#: core count).  Calibrated against Table 3's radius sweeps.
SHUFFLE_CYCLES = {
    "NVIDIA": 3.0,
    "AMD": 1.0,
    "Intel": 2.5,
}


def shuffle_cycles_for(vendor: str) -> float:
    """Exposed cycles per lane-shift for ``vendor``.

    Unknown vendors are a configuration error, not a lookup accident:
    callers get a :class:`SimulationError` naming the supported vendors
    instead of a bare ``KeyError``.
    """
    try:
        return SHUFFLE_CYCLES[vendor]
    except KeyError:
        raise SimulationError(
            f"no shuffle-cost calibration for vendor '{vendor}'; "
            f"known vendors: {sorted(SHUFFLE_CYCLES)}"
        ) from None


def occupancy_factor(registers: int, reg_budget: int) -> float:
    """Bandwidth-scaling factor for register pressure (<= 1)."""
    if registers <= reg_budget:
        return 1.0
    return (reg_budget / registers) ** 0.5


@dataclass(frozen=True)
class TimingBreakdown:
    """Per-resource times for one kernel sweep (seconds)."""

    t_hbm: float
    t_l1: float
    t_fp: float
    t_shuffle: float
    t_issue: float
    launch_overhead: float
    occupancy: float

    @property
    def total(self) -> float:
        """Shuffles and memory-instruction issue serialise with the HBM
        chain (they sit in the load-align-consume dependency path), while
        an FP64- or L1-bound kernel hides them under its longer stream.
        """
        return (
            max(self.t_hbm + self.t_shuffle + self.t_issue, self.t_l1, self.t_fp)
            + self.launch_overhead
        )

    @property
    def bottleneck(self) -> str:
        """Name of the largest single component."""
        terms = {
            "hbm": self.t_hbm,
            "l1": self.t_l1,
            "fp64": self.t_fp,
            "shuffle": self.t_shuffle,
            "issue": self.t_issue,
        }
        return max(terms, key=terms.get)


class TimingGroup(NamedTuple):
    """The timing model's constants for one (program, platform, variant):
    scalars, or arrays with one entry per point when gathered by a batch."""

    hbm_bw: float
    l1_den: float
    flops_pt: int  # executed FLOPs per tile
    fp_den: float
    shuffles: int  # lane shifts per tile
    shuf_cyc: float
    shuf_den: float
    instr_pt: int  # memory + overhead instructions per tile
    issue_den: float
    occupancy: float
    launch: float


def timing_group(
    arch: GPUArchitecture, profile: ModelProfile, vp: VariantProfile, cost: ProgramCost
) -> TimingGroup:
    """The per-group constants of one program on one platform variant."""
    occ = occupancy_factor(cost.registers, profile.reg_budget)
    # Memory-instruction issue (loads + stores + per-tile overhead).
    mem_instr = cost.loads_total + cost.stores
    if vp.scalarized:
        mem_instr *= cost.vl * vp.scalarized_slots
    return TimingGroup(
        # HBM stream: empirical ceiling x variant efficiency x occupancy.
        hbm_bw=arch.hbm_bw * profile.mixbench_bw_frac * vp.bw_frac * occ,
        l1_den=arch.l1_bw * vp.l1_frac * occ,
        # FP64 stream: grouped codegen executes ~points+groups FLOPs per
        # point; scatter executes 2*points (per-tap FMAs).  Either way the
        # surplus over the paper's normalised minimum is what pulls
        # high-AI stencils below the Roofline (Table 3's 125pt row).
        flops_pt=cost.flops,
        fp_den=arch.peak_fp64 * profile.mixbench_fp_frac * vp.fp_eff,
        # Exposed shuffle/exchange latency (serial with the data streams).
        shuffles=cost.shuffles,
        shuf_cyc=shuffle_cycles_for(arch.vendor),
        shuf_den=arch.num_cus * arch.clock_ghz * 1e9,
        instr_pt=mem_instr + TILE_OVERHEAD_INSTRS,
        issue_den=arch.issue_rate * vp.issue_eff * occ,
        occupancy=occ,
        launch=profile.launch_overhead_s,
    )


def timing_columns(
    g: TimingGroup, read: np.ndarray, write: np.ndarray, l1_bytes: np.ndarray,
    ntiles: np.ndarray,
) -> Tuple[np.ndarray, ...]:
    """``(t_hbm, t_l1, t_fp, t_shuffle, t_issue)`` for arrays of sweeps."""
    t_hbm = (read + write) / g.hbm_bw
    t_l1 = l1_bytes / g.l1_den
    t_fp = (g.flops_pt * ntiles) / g.fp_den
    t_shuffle = (g.shuffles * ntiles * g.shuf_cyc) / g.shuf_den
    t_issue = (ntiles * g.instr_pt) / g.issue_den
    return t_hbm, t_l1, t_fp, t_shuffle, t_issue


def kernel_time(
    arch: GPUArchitecture,
    profile: ModelProfile,
    vp: VariantProfile,
    traffic: Traffic,
    cost: ProgramCost,
    ntiles: int,
) -> TimingBreakdown:
    """Estimate one sweep's runtime from traffic + static op counts."""
    g = timing_group(arch, profile, vp, cost)
    row = (traffic.hbm_read_bytes, traffic.hbm_write_bytes, traffic.l1_bytes, ntiles)
    times = timing_columns(g, *(np.array([v]) for v in row))
    return TimingBreakdown(*(t.tolist()[0] for t in times), g.launch, g.occupancy)
