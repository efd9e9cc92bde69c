"""The GPU kernel simulator: one call = one profiled kernel sweep.

``simulate`` wires the whole stack together for a single (stencil,
variant, platform) point of the paper's evaluation matrix:

1. pick the architecture's brick/tile shape (``4 x 4 x SIMD_width``) and
   vector length (paper Section 4.4);
2. run the vector code generator (naive for the plain ``array`` variant,
   auto gather/scatter for the codegen variants);
3. cost the generated program and feed it to the traffic model;
4. evaluate the bottleneck timing model.

The result carries everything the paper's figures need: normalised
FLOPs, HBM and L1 bytes, runtime, and the diagnostic breakdowns.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.bricks.layout import BrickDims
from repro.codegen.cost import ProgramCost, cost_of
from repro.codegen.generator import CodegenOptions, generate
from repro.dsl.analysis import total_flops
from repro.dsl.stencil import Stencil
from repro.errors import SimulationError, ValidationError
from repro.gpu.progmodel import VARIANTS, Platform
from repro.obs import counter, span
from repro.gpu.timing import TimingBreakdown, kernel_time
from repro.gpu.traffic import Traffic, estimate_traffic
from repro.util import dims_to_shape, prod

#: Variant -> (data layout, codegen strategy).
VARIANT_CONFIG = {
    "array": ("array", "naive"),
    "array_codegen": ("array", "auto"),
    "bricks_codegen": ("brick", "auto"),
}

#: Environment switch for the opt-in per-result invariant check: any
#: non-empty value other than "0" turns it on (the chaos/bench gates
#: export it so every simulated point is asserted physically sane).
VALIDATE_ENV = "REPRO_VALIDATE"


def _validate_enabled(check_invariants: bool | None) -> bool:
    if check_invariants is not None:
        return check_invariants
    return os.environ.get(VALIDATE_ENV, "0") not in ("", "0")


@dataclass(frozen=True)
class SimulationResult:
    """Profile of one simulated kernel sweep."""

    platform: Platform
    variant: str
    stencil_name: str
    domain: Tuple[int, int, int]  # dim order (ni, nj, nk)
    flops: int  # normalised (minimum) FLOP count, paper Section 4.4
    traffic: Traffic
    timing: TimingBreakdown
    cost: ProgramCost
    strategy: str

    @property
    def time_s(self) -> float:
        return self.timing.total

    @property
    def gflops(self) -> float:
        """Normalised performance in GFLOP/s (the paper's y-axis)."""
        return self.flops / self.time_s / 1e9

    @property
    def arithmetic_intensity(self) -> float:
        """Empirical AI: normalised FLOPs over measured HBM bytes."""
        return self.flops / self.traffic.hbm_total_bytes

    @property
    def hbm_gbytes(self) -> float:
        return self.traffic.hbm_total_bytes / 1e9

    @property
    def l1_gbytes(self) -> float:
        return self.traffic.l1_bytes / 1e9

    def describe(self) -> str:
        return (
            f"{self.stencil_name:>6} {self.variant:>14} on {self.platform.name:>11}: "
            f"{self.gflops:8.1f} GF/s  AI={self.arithmetic_intensity:6.3f}  "
            f"HBM={self.hbm_gbytes:6.2f} GB  L1={self.l1_gbytes:7.2f} GB  "
            f"[{self.timing.bottleneck}-bound]"
        )


def tile_for(platform: Platform) -> BrickDims:
    """The paper's architecture-specific tile/brick: 4 x 4 x SIMD_width."""
    return BrickDims((platform.arch.simd_width, 4, 4))


#: Largest domain, in points (over 10,000**3), either engine evaluates.
#: Each integer the model computes is at most the point count times a per-point
#: factor (halo bytes, sectors, L1 bytes, FLOPs, instructions), so any
#: factor below 2**23 fits ``int64``; the study's worst is 8,064.
MAX_DOMAIN_POINTS = 2**40


def point_label(name: str, platform: Platform, variant: str) -> str:
    """How errors name a matrix point: ``stencil/platform/variant``."""
    return f"{name}/{platform.name}/{variant}"


def check_domain(domain: Sequence[int], point: str) -> Tuple[int, int, int]:
    """``domain`` as three positive ``int`` extents, or a typed error.

    Anything else — a wrong length, a non-integer extent (``'64'``,
    ``64.0``), one below 1, or more than :data:`MAX_DOMAIN_POINTS`
    points — raises :class:`SimulationError` naming ``point`` and the
    domain.  The batch engine reports bad domains with the same error.
    """
    try:
        ni, nj, nk = map(operator.index, domain)
    except (TypeError, ValueError):
        pass
    else:
        if ni > 0 and nj > 0 and nk > 0 and ni * nj * nk <= MAX_DOMAIN_POINTS:
            return ni, nj, nk
    raise SimulationError(
        f"{point}: domain {domain!r} must be three positive integers "
        f"with at most {MAX_DOMAIN_POINTS:,} points"
    )


def variant_config(variant: str) -> Tuple[str, str]:
    """``variant``'s (data layout, codegen strategy), or a typed error."""
    if variant not in VARIANTS:
        raise SimulationError(f"unknown variant '{variant}'; known: {VARIANTS}")
    return VARIANT_CONFIG[variant]


def tile_and_vl(
    platform: Platform, dims: BrickDims | None, vector_length: int | None
) -> Tuple[BrickDims, int]:
    """The tile and vector length a point runs with: the architecture's
    unless overridden.  Custom tiles narrower than the SIMD width fall
    back to one vector per row."""
    dims = dims or tile_for(platform)
    simd = platform.arch.simd_width
    return dims, vector_length or (
        simd if dims.dims[0] % simd == 0 else dims.dims[0]
    )


def tile_error(domain: Sequence[int], tile_shape: Tuple[int, ...]) -> SimulationError:
    """The error for a ``(ni, nj, nk)`` domain that is not a tile multiple."""
    return SimulationError(
        f"domain {dims_to_shape(domain)} is not a multiple of tile {tile_shape}"
    )


def invariant_error(result: SimulationResult, point: str) -> ValidationError | None:
    """The error for ``result``'s invariant violations, if any (counted
    in ``simulate.invariant_violations``)."""
    # Imported lazily: repro.validate reaches back into the harness for
    # its probes, so a module-level import cycles.
    from repro.validate import check_result, render_violations

    violations = check_result(result)
    if not violations:
        return None
    counter("simulate.invariant_violations").inc(len(violations))
    return ValidationError(
        f"{len(violations)} invariant violation(s) for {point}:\n"
        + render_violations(violations)
    )


def simulate(
    stencil: Stencil,
    variant: str,
    platform: Platform,
    domain: Tuple[int, int, int] = (512, 512, 512),
    stencil_name: str | None = None,
    dims: BrickDims | None = None,
    vector_length: int | None = None,
    check_invariants: bool | None = None,
) -> SimulationResult:
    """Simulate one kernel sweep and return its profile.

    ``domain`` is in dimension order ``(ni, nj, nk)``: three positive
    integers (else :func:`check_domain` raises, before anything else is
    checked) that are a multiple of the tile shape.  ``dims`` /
    ``vector_length`` override the architecture defaults (used by the
    brick-size ablation).

    ``check_invariants`` opts into asserting every physical-sanity
    invariant of :mod:`repro.validate` against the result before it is
    returned (violations raise
    :class:`~repro.errors.ValidationError`); ``None`` defers to the
    ``REPRO_VALIDATE`` environment variable, which the chaos and bench
    gates export.
    """
    name = stencil_name or stencil.description()
    point = point_label(name, platform, variant)
    check_domain(domain, point)
    layout, strategy = variant_config(variant)
    with span(
        "simulate",
        stencil=name,
        variant=variant,
        platform=platform.name,
        domain=f"{domain[0]}x{domain[1]}x{domain[2]}",
    ):
        dims, vl = tile_and_vl(platform, dims, vector_length)
        with span("codegen", strategy=strategy, vl=vl):
            program = generate(stencil, dims, CodegenOptions(vl, strategy))
        with span("cost"):
            cost = cost_of(program)
        vp = platform.profile.variant(variant)
        tile_shape = dims.shape
        domain_np = dims_to_shape(domain)
        if any(n % b for n, b in zip(domain_np, tile_shape)):
            raise tile_error(domain, tile_shape)
        with span("traffic", layout=layout):
            traffic = estimate_traffic(
                stencil, layout, cost, domain_np, platform.arch,
                platform.profile, vp, tile_shape,
            )
        ntiles = prod(domain_np) // prod(tile_shape)
        with span("timing", ntiles=ntiles):
            timing = kernel_time(
                platform.arch, platform.profile, vp, traffic, cost, ntiles
            )
        counter("simulate.calls").inc()
        counter("simulate.tiles").inc(ntiles)
        counter("codegen.vector_ops").inc(len(program.ops))
        result = SimulationResult(
            platform=platform,
            variant=variant,
            stencil_name=name,
            domain=domain,
            flops=total_flops(stencil, domain),
            traffic=traffic,
            timing=timing,
            cost=cost,
            strategy=program.strategy,
        )
        if _validate_enabled(check_invariants):
            error = invariant_error(result, point)
            if error is not None:
                raise error
        return result
