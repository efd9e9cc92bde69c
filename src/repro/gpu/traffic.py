"""Analytic memory-traffic model.

Derives, for one kernel sweep over the full domain, the bytes moved at
the HBM and L1 levels.  The HBM model is first-principles where the
mechanism is known:

* compulsory traffic — every input point (plus the stencil halo) read
  once, every output written once;
* the *layer condition* — re-reads when the last-level cache cannot hold
  the planes shared between consecutive tile slabs in the slowest
  dimension (this is what penalises the 8 MB-L2 MI250X on array
  layouts);
* residual compiler/layout amplification from the platform's
  :class:`~repro.gpu.progmodel.VariantProfile` (documented calibration).

The L1 model prices each vector-IR load/store as coalescing sectors —
naive kernels issuing one load per tap per output produce the >=10x L1
traffic of the paper's Figure 4 mechanically.

Each formula is written once, as an array function both engines call:
:func:`traffic_group` builds a (program, platform, variant)'s constants
and :func:`traffic_columns` evaluates ``(n, 3)`` domains against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from repro.codegen.cost import ProgramCost
from repro.dsl.analysis import FP64_BYTES
from repro.dsl.stencil import Stencil
from repro.errors import SimulationError
from repro.gpu.arch import GPUArchitecture
from repro.gpu.progmodel import ModelProfile, VariantProfile
from repro.obs import get_tracer
from repro.util import ceil_div, prod

LAYOUTS = ("array", "brick")


@dataclass(frozen=True)
class Traffic:
    """Bytes moved by one kernel sweep, by level."""

    hbm_read_bytes: float
    hbm_write_bytes: float
    l1_bytes: float
    load_sectors: float
    store_sectors: float
    #: Bytes re-read because the layer condition failed (diagnostic).
    reuse_miss_bytes: float

    @property
    def hbm_total_bytes(self) -> float:
        return self.hbm_read_bytes + self.hbm_write_bytes


class TrafficGroup(NamedTuple):
    """The traffic model's constants for one (program, platform, variant):
    scalars, or arrays with one entry per point when gathered by a batch."""

    radius: int
    shared_planes: int
    tile_k: int
    tile_pts: int
    llc_eff: float
    read_amp: float
    write_amp: float
    sec_load: int  # sectors per tile, all loads
    sec_store: int  # sectors per tile, all stores
    sector: int


def shared_planes(radius: int, layout: str) -> int:
    """Input planes consecutive k-slabs share: ``2r`` (array), ``r`` (brick)."""
    return 2 * radius if layout == "array" else radius


def layer_reread(
    shared: np.ndarray, tile_k: np.ndarray, llc_effective_bytes: np.ndarray,
    ni: np.ndarray, nj: np.ndarray, n: np.ndarray,
) -> np.ndarray:
    """Bytes re-read when k-adjacent tile slabs cannot share the cache.

    Consecutive slabs of tiles along the slowest dimension share
    ``shared`` input planes (see :func:`shared_planes`; interior brick
    rows are never needed by a k-neighbour).  If that working set
    exceeds the effective LLC, the shared planes are re-fetched, adding
    ``miss_fraction * shared / tile_k`` of the domain per sweep — the
    re-read volume is proportional to the planes actually shared, so in
    the deep-miss limit a brick sweep re-reads exactly half the bytes of
    an array sweep at the same radius (the
    ``brick-reread-proportional-to-shared-planes`` invariant in
    :mod:`repro.validate`).  Arguments broadcast; the result is
    ``float64``.
    """
    working_set = ni * nj * shared * FP64_BYTES
    # A radius-0 stencil shares nothing: its 0/0 miss fraction is unused.
    with np.errstate(divide="ignore", invalid="ignore"):
        miss_fraction = (working_set - llc_effective_bytes) / working_set
    extra = miss_fraction * (shared / tile_k) * n * FP64_BYTES
    return np.where(working_set <= llc_effective_bytes, 0.0, extra)


def layer_condition_extra(
    stencil: Stencil, layout: str, tile_k: int, domain: Tuple[int, int, int],
    llc_effective_bytes: float,
) -> float:
    """:func:`layer_reread` for one ``(ni, nj, nk)`` domain."""
    ni, nj, nk = np.array(domain, dtype=np.int64).reshape(3, 1)
    return layer_reread(
        shared_planes(stencil.radius, layout), tile_k, llc_effective_bytes,
        ni, nj, ni * nj * nk,
    ).tolist()[0]


def sector_footprint(
    vp: VariantProfile, radius: int, vl: int, sector: int
) -> Tuple[int, int, int, int]:
    """Sectors touched per (aligned load, unaligned load, halo load, store).

    The coalescing kernel of the L1 model: scalarized variants pay one
    sector per lane per access; coalesced variants pay the ceil of the
    vector (or halo) footprint in sectors, plus one boundary-crossing
    extra sector on unaligned loads.
    """
    if vp.scalarized:
        # The compiler broke coalescing: one sector per lane per access.
        return vl, vl, radius, vl
    per_aligned = ceil_div(vl * FP64_BYTES, sector)
    per_halo = ceil_div(radius * FP64_BYTES, sector)
    return per_aligned, per_aligned + 1, per_halo, per_aligned


def traffic_group(
    radius: int, layout: str, cost: ProgramCost, arch: GPUArchitecture,
    profile: ModelProfile, vp: VariantProfile, tile_shape: Tuple[int, int, int],
) -> TrafficGroup:
    """The per-group constants of one program on one platform variant."""
    pa, pu, ph, ps = sector_footprint(vp, radius, cost.vl, arch.sector_bytes)
    return TrafficGroup(
        radius=radius,
        shared_planes=shared_planes(radius, layout),
        tile_k=tile_shape[0],
        tile_pts=prod(tile_shape),
        llc_eff=arch.llc_bytes * profile.llc_utilization,
        read_amp=float(vp.read_amp),
        write_amp=float(vp.write_amp),
        sec_load=(
            cost.loads_aligned * pa + cost.loads_unaligned * pu + cost.loads_halo * ph
        ),
        sec_store=cost.stores * ps,
        sector=arch.sector_bytes,
    )


def traffic_columns(
    g: TrafficGroup, dom: np.ndarray, extra: np.ndarray | None = None
) -> Tuple[np.ndarray, ...]:
    """Traffic of every ``(ni, nj, nk)`` row of the ``int64`` array ``dom``.

    Returns the six :class:`Traffic` fields as arrays, in field order,
    then the tile count.  Integers stay ``int64``, exact for domains
    within :data:`~repro.gpu.simulator.MAX_DOMAIN_POINTS`.  ``extra``
    replaces the :func:`layer_reread` term: one-point
    :func:`estimate_traffic` passes :func:`layer_condition_extra`'s, so
    a model patched at that attribute (the validation probes' entry
    point) still reaches scalar ``simulate()``.
    """
    ni, nj, nk = dom[:, 0], dom[:, 1], dom[:, 2]
    r = g.radius
    n = ni * nj * nk
    ntiles = n // g.tile_pts

    # ---- HBM ----------------------------------------------------------
    write = n * FP64_BYTES * g.write_amp
    compulsory = (ni + 2 * r) * (nj + 2 * r) * (nk + 2 * r) * FP64_BYTES
    if extra is None:
        extra = layer_reread(g.shared_planes, g.tile_k, g.llc_eff, ni, nj, n)
    read = (compulsory + extra) * g.read_amp

    # ---- L1 -------------------------------------------------------------
    load_sectors = ntiles * g.sec_load
    store_sectors = ntiles * g.sec_store
    l1_bytes = (load_sectors + store_sectors) * g.sector
    return read, write, l1_bytes, load_sectors, store_sectors, extra, ntiles


def estimate_traffic(
    stencil: Stencil,
    layout: str,
    cost: ProgramCost,
    domain: Tuple[int, int, int],
    arch: GPUArchitecture,
    profile: ModelProfile,
    vp: VariantProfile,
    tile_shape: Tuple[int, int, int],
) -> Traffic:
    """Traffic for one out-of-place sweep of ``stencil`` over ``domain``.

    ``domain`` and ``tile_shape`` are in numpy order ``(nk, nj, ni)`` /
    ``(bk, bj, bi)``; ``domain`` extents must be tile multiples (the
    simulator checks them).
    """
    if layout not in LAYOUTS:
        raise SimulationError(f"unknown layout '{layout}'; known: {LAYOUTS}")
    with get_tracer().span("traffic.estimate", layout=layout) as sp:
        dims = domain[::-1]
        g = traffic_group(stencil.radius, layout, cost, arch, profile, vp, tile_shape)
        extra = layer_condition_extra(stencil, layout, g.tile_k, dims, g.llc_eff)
        columns = traffic_columns(g, np.array([dims], np.int64), np.array([extra]))
        traffic = Traffic(*(col.tolist()[0] for col in columns[:6]))
        if sp is not None:
            sp.set_attr("hbm_gb", round(traffic.hbm_total_bytes / 1e9, 3))
            sp.set_attr("l1_gb", round(traffic.l1_bytes / 1e9, 3))
    return traffic
