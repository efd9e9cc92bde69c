"""Distributed stencil sweeps: exchange + local kernels + scaling model.

``DistributedStencil`` runs a multi-rank stencil iteration the way the
paper's testbeds do (one rank per GPU/GCD/stack): halo exchange over the
interconnect model, then the local kernel on every rank through the same
generated-code path as the single-device runs.  Results are bit-checked
against a single-domain periodic reference in the tests.

``weak_scaling`` combines the simulator's kernel time with the network
model into the classic efficiency curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.bricks.layout import BrickDims
from repro.codegen.generator import CodegenOptions, generate
from repro.comm.decomposition import RankLayout
from repro.comm.exchange import (
    Message,
    exchange_halos,
    gather_global,
    halo_bytes_per_rank,
    scatter_global,
)
from repro.comm.network import Interconnect, interconnect_for
from repro.dsl.stencil import Stencil
from repro.errors import LayoutError
from repro.gpu.progmodel import Platform
from repro.gpu.simulator import simulate, tile_and_vl
from repro.kernels.array_kernels import run_array_kernel


@dataclass
class StepReport:
    """Timing ledger for one distributed step (modelled, per rank)."""

    exchange_s: float
    kernel_s: float

    @property
    def total_s(self) -> float:
        return self.exchange_s + self.kernel_s


class DistributedStencil:
    """A stencil iteration distributed over a Cartesian rank grid."""

    def __init__(
        self,
        stencil: Stencil,
        layout: RankLayout,
        platform: Platform,
        bindings: Mapping[str, float] | None = None,
        dims: BrickDims | None = None,
        interconnect: Interconnect | None = None,
    ) -> None:
        self.stencil = stencil
        self.layout = layout
        self.platform = platform
        self.bindings = dict(bindings or {})
        self.radius = stencil.radius
        local = layout.local_extents
        self.dims = dims or _fitting_dims(local, platform.arch.simd_width,
                                          self.radius)
        for e, d in zip(local, self.dims.dims):
            if e % d != 0:
                raise LayoutError(
                    f"local extent {e} is not a multiple of tile extent {d}"
                )
        _, vl = tile_and_vl(platform, self.dims, None)
        self.program = generate(stencil, self.dims, CodegenOptions(vl, "auto"))
        self.interconnect = interconnect or interconnect_for(platform.arch.name)
        self.fields: List[np.ndarray] = []
        self.messages: List[Message] = []

    # ---- data management ---------------------------------------------------
    def load_global(self, global_field: np.ndarray) -> None:
        """Distribute a global (halo-free, numpy-order) field."""
        self.fields = scatter_global(global_field, self.layout, self.radius)

    def gather(self) -> np.ndarray:
        if not self.fields:
            raise LayoutError("no fields loaded; call load_global first")
        return gather_global(self.fields, self.layout, self.radius)

    # ---- one step -------------------------------------------------------------
    def step(self) -> StepReport:
        """Exchange halos, run the local kernel on every rank."""
        if not self.fields:
            raise LayoutError("no fields loaded; call load_global first")
        self.messages = exchange_halos(self.fields, self.layout, self.radius)
        new_fields = []
        for rank in self.layout.ranks():
            out = run_array_kernel(self.program, self.fields[rank], self.bindings)
            block = np.zeros_like(self.fields[rank])
            r = self.radius
            block[r:-r or None, r:-r or None, r:-r or None] = out
            new_fields.append(block)
        self.fields = new_fields
        return self.report()

    def report(self) -> StepReport:
        """Modelled per-rank time of the last (or a prospective) step."""
        exch = max(
            (
                self.interconnect.exchange_time(self.messages, rank)
                for rank in self.layout.ranks()
            ),
            default=self.interconnect.exchange_time(
                _prospective_messages(self.layout, self.radius), 0
            ),
        )
        sim = simulate(
            self.stencil,
            "bricks_codegen",
            self.platform,
            domain=self.layout.local_extents,
            dims=self.dims,
        )
        return StepReport(exchange_s=exch, kernel_s=sim.time_s)


def _fitting_dims(local: Tuple[int, int, int], simd: int, radius: int) -> BrickDims:
    """Default tile for a local subdomain: the paper's 4x4xSIMD when it
    fits, otherwise the largest dividing shape."""
    bi = simd if local[0] % simd == 0 else _largest_divisor(local[0], simd)
    bj = 4 if local[1] % 4 == 0 else _largest_divisor(local[1], 4)
    bk = 4 if local[2] % 4 == 0 else _largest_divisor(local[2], 4)
    dims = BrickDims((bi, bj, bk))
    dims.check_radius(radius)
    return dims


def _largest_divisor(n: int, cap: int) -> int:
    for d in range(min(n, cap), 0, -1):
        if n % d == 0:
            return d
    return 1


def _prospective_messages(layout: RankLayout, radius: int) -> List[Message]:
    per_rank = halo_bytes_per_rank(layout, radius)
    # 26 equal-ish messages is a fine stand-in for the report-only path.
    return [
        Message(src_rank=1, dst_rank=0, direction=(1, 0, 0), bytes=per_rank // 26)
        for _ in range(26)
    ]


def weak_scaling(
    stencil: Stencil,
    platform: Platform,
    local_extents: Tuple[int, int, int],
    rank_counts: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64),
) -> Dict[int, Dict[str, float]]:
    """Weak-scaling efficiency: fixed local domain, growing rank grid.

    Returns per rank-count: kernel time, exchange time, and parallel
    efficiency ``t(1) / t(n)`` (ideal = 1.0 for weak scaling).
    """
    out: Dict[int, Dict[str, float]] = {}
    base_time = None
    for n in rank_counts:
        dims_per = _cube_factors(n)
        layout = RankLayout(
            tuple(e * d for e, d in zip(local_extents, dims_per)), dims_per
        )
        sim = simulate(stencil, "bricks_codegen", platform, domain=local_extents)
        exch = (
            interconnect_for(platform.arch.name).exchange_time(
                _prospective_messages(layout, stencil.radius), 0
            )
            if n > 1
            else 0.0
        )
        total = sim.time_s + exch
        if base_time is None:
            base_time = total
        out[n] = {
            "kernel_s": sim.time_s,
            "exchange_s": exch,
            "efficiency": base_time / total,
        }
    return out


def _cube_factors(n: int) -> Tuple[int, int, int]:
    """Factor ``n`` into three near-equal factors (largest first on i)."""
    best = (n, 1, 1)
    for a in range(1, n + 1):
        if n % a:
            continue
        for b in range(1, n // a + 1):
            if (n // a) % b:
                continue
            c = n // (a * b)
            cand = tuple(sorted((a, b, c), reverse=True))
            if max(cand) / min(cand) < max(best) / min(best):
                best = cand
    return best
