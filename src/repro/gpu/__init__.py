"""GPU machine models, programming-model profiles, and the simulator.

The substitution for the paper's Perlmutter/Crusher/Florentia testbeds::

    from repro import dsl, gpu

    plat = gpu.platform("A100", "CUDA")
    result = gpu.simulate(dsl.star(2), "bricks_codegen", plat)
    print(result.describe())
"""

from repro.gpu.arch import ARCHITECTURES, A100, MI250X, PVC, GPUArchitecture, architecture
from repro.gpu.batch import DEFAULT_CHUNK, BatchPoint, BatchResults, simulate_batch
from repro.gpu.cache import CacheSim, CacheStats, dense_row_lines
from repro.gpu.coalesce import (
    LINE_BYTES,
    SECTOR_BYTES,
    contiguous_lines,
    contiguous_sectors,
    scalarized_sectors,
    spans,
    strided_sectors,
)
from repro.gpu.progmodel import (
    MODELS,
    PROFILES,
    STUDY_PLATFORMS,
    VARIANTS,
    ModelProfile,
    Platform,
    VariantProfile,
    platform,
    study_platforms,
)
from repro.gpu.simulator import SimulationResult, simulate, tile_for
from repro.gpu.timing import TimingBreakdown, kernel_time, occupancy_factor
from repro.gpu.traffic import Traffic, estimate_traffic, layer_condition_extra

__all__ = [
    "A100",
    "ARCHITECTURES",
    "BatchPoint",
    "BatchResults",
    "CacheSim",
    "CacheStats",
    "DEFAULT_CHUNK",
    "GPUArchitecture",
    "LINE_BYTES",
    "MI250X",
    "MODELS",
    "ModelProfile",
    "PROFILES",
    "PVC",
    "Platform",
    "SECTOR_BYTES",
    "STUDY_PLATFORMS",
    "SimulationResult",
    "TimingBreakdown",
    "Traffic",
    "VARIANTS",
    "VariantProfile",
    "architecture",
    "contiguous_lines",
    "contiguous_sectors",
    "dense_row_lines",
    "estimate_traffic",
    "kernel_time",
    "layer_condition_extra",
    "occupancy_factor",
    "platform",
    "scalarized_sectors",
    "simulate",
    "simulate_batch",
    "spans",
    "strided_sectors",
    "study_platforms",
    "tile_for",
]
