"""Executable kernel variants: compute + simulated profile in one call.

``run`` is the highest-level entry point of the library: it generates
the kernel (per the variant's layout and codegen strategy), *executes*
it on NumPy over a real field, and attaches the GPU simulator's profile
for the requested platform::

    from repro import dsl, gpu, kernels

    plat = gpu.platform("A100", "CUDA")
    kr = kernels.run("bricks_codegen", dsl.star(2), plat, domain=(64, 64, 64))
    print(kr.result.describe())     # simulated profile
    kr.output                       # the computed field (numpy, [k, j, i])
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

import numpy as np

from repro.bricks.bricked_array import BrickedField
from repro.bricks.layout import BrickDims
from repro.codegen.generator import CodegenOptions, generate
from repro.dsl.stencil import Stencil
from repro.errors import SimulationError
from repro.gpu.progmodel import VARIANTS, Platform
from repro.gpu.simulator import SimulationResult, simulate, tile_and_vl, variant_config
from repro.kernels.array_kernels import run_array_kernel, tile_blocks
from repro.kernels.brick_kernels import brick_input_from_dense, run_brick_kernel
from repro.reference.naive import random_field
from repro.util import dims_to_shape


@dataclass
class KernelRun:
    """A computed field plus its simulated platform profile."""

    variant: str
    output: np.ndarray  # dense interior result, numpy order [k, j, i]
    result: SimulationResult


def run(
    variant: str,
    stencil: Stencil,
    platform: Platform,
    domain: Tuple[int, int, int] = (64, 64, 64),
    bindings: Mapping[str, float] | None = None,
    input_dense: np.ndarray | None = None,
    stencil_name: str | None = None,
    dims: BrickDims | None = None,
    seed: int = 0,
) -> KernelRun:
    """Execute one kernel variant over ``domain`` and profile it.

    ``domain`` is in dimension order ``(ni, nj, nk)`` and must be a
    multiple of the platform's tile.  ``input_dense`` (numpy order, with
    an ``r``-deep halo) defaults to a seeded random field.
    """
    layout, strategy = variant_config(variant)
    dims, vl = tile_and_vl(platform, dims, None)
    program = generate(stencil, dims, CodegenOptions(vl, strategy))
    r = stencil.radius
    shape = tuple(n + 2 * r for n in dims_to_shape(domain))
    if input_dense is None:
        input_dense = random_field(shape, seed=seed)
    elif input_dense.shape != shape:
        raise SimulationError(
            f"input shape {input_dense.shape} != required ghosted shape {shape}"
        )

    if layout == "array":
        output = run_array_kernel(program, input_dense, bindings)
    else:
        from repro.bricks.brick_info import BrickInfo
        from repro.bricks.decomposition import BrickGrid

        grid = BrickGrid(domain, dims)
        proto = BrickedField.allocate(grid, BrickInfo(grid))
        inp = brick_input_from_dense(input_dense, proto)
        out_field = run_brick_kernel(program, inp, bindings=bindings)
        output = out_field.to_dense()

    result = simulate(
        stencil, variant, platform, domain, stencil_name=stencil_name, dims=dims
    )
    return KernelRun(variant=variant, output=output, result=result)


__all__ = [
    "KernelRun",
    "VARIANTS",
    "brick_input_from_dense",
    "run",
    "run_array_kernel",
    "run_brick_kernel",
    "tile_blocks",
]
