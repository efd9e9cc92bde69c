"""Empirical Roofline ceilings via a mixbench-style sweep.

The paper derives its Rooflines from the mixbench microbenchmark
(Konstantinidis & Cotronis 2017) on NVIDIA/AMD and from Intel Advisor on
PVC: a family of synthetic kernels with a controlled FLOP:byte ratio is
run, and the observed envelope gives the *achievable* (as opposed to
vendor-datasheet) bandwidth and compute ceilings.

We do the same against our simulator's timing model: a synthetic kernel
of arithmetic intensity ``ai`` streams ``bytes`` and executes
``ai * bytes`` FLOPs through the platform's mixbench efficiencies; the
asymptotes of the measured envelope are the empirical ceilings used by
every figure and portability metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.gpu.progmodel import Platform
from repro.roofline.model import Roofline

#: Bytes streamed per synthetic mixbench kernel.
_STREAM_BYTES = 1 << 30


@dataclass(frozen=True)
class MixbenchPoint:
    """One synthetic kernel of the sweep."""

    ai: float
    gflops: float


def _synthetic_time(platform: Platform, ai: float, nbytes: float) -> float:
    """Runtime of a synthetic streaming kernel at intensity ``ai``.

    Mirrors the simulator's bottleneck model with the platform's
    mixbench efficiencies (the microbenchmark is hand-tuned, so no
    variant penalties apply).
    """
    prof = platform.profile
    arch = platform.arch
    t_mem = nbytes / (arch.hbm_bw * prof.mixbench_bw_frac)
    t_fp = ai * nbytes / (arch.peak_fp64 * prof.mixbench_fp_frac)
    return max(t_mem, t_fp) + prof.launch_overhead_s


def sweep(platform: Platform, num_points: int = 33) -> List[MixbenchPoint]:
    """Run the AI sweep (2^-4 .. 2^12 FLOP/byte, log-spaced)."""
    points = []
    for ai in np.logspace(-4, 12, num_points, base=2.0):
        t = _synthetic_time(platform, float(ai), _STREAM_BYTES)
        flops = float(ai) * _STREAM_BYTES
        points.append(MixbenchPoint(ai=float(ai), gflops=flops / t / 1e9))
    return points


#: Derived Rooflines, keyed on every platform value the sweep reads.
_ROOFLINES: Dict[Tuple, Roofline] = {}


def empirical_roofline(platform: Platform) -> Roofline:
    """Derive the platform's Roofline from the mixbench sweep envelope.

    The bandwidth ceiling is the steepest observed GFLOP/s-per-AI slope
    (low-AI asymptote); the compute ceiling is the high-AI plateau.

    The sweep runs once per distinct input: the result is memoised on
    the name plus the five numbers :func:`_synthetic_time` reads, so a
    platform rebuilt with other knobs (``dataclasses.replace``) gets
    its own ceilings.
    """
    arch, prof = platform.arch, platform.profile
    key = (
        platform.name,
        arch.hbm_bw,
        arch.peak_fp64,
        prof.mixbench_bw_frac,
        prof.mixbench_fp_frac,
        prof.launch_overhead_s,
    )
    roof = _ROOFLINES.get(key)
    if roof is None:
        pts = sweep(platform)
        bw = max(p.gflops * 1e9 / p.ai for p in pts)
        peak = max(p.gflops * 1e9 for p in pts)
        roof = Roofline(name=platform.name, peak_flops=peak, peak_bw=bw)
        _ROOFLINES[key] = roof
    return roof
