"""The per-point function behind a study's fault-injected points.

:func:`simulate_point` wraps one scalar
:func:`~repro.gpu.simulator.simulate` call in a ``study.point`` span;
:func:`repro.exec.parallel_map` runs it under the retry policy.  Work
items carry the actual :class:`~repro.dsl.stencil.Stencil` and
:class:`~repro.gpu.progmodel.Platform` objects, so the scalar path
simulates exactly the inputs the batch engine would.
"""

from __future__ import annotations

import math
from typing import Any, Tuple

from repro.dsl.stencil import Stencil
from repro.gpu.progmodel import Platform
from repro.gpu.simulator import SimulationResult, simulate
from repro.obs import span

__all__ = [
    "StudyItem",
    "simulate_point",
    "study_item_key",
    "validate_simulation",
]

#: One point of the study matrix: (stencil name, stencil, platform,
#: variant, domain).
StudyItem = Tuple[str, Stencil, Platform, str, Tuple[int, int, int]]


def study_item_key(item: StudyItem) -> Tuple[str, str, str]:
    """The stable (stencil, platform, variant) identity of one item.

    Used as the checkpoint/result key and as the fault-plan key — a
    tuple of strings with a stable ``repr``, unlike the item itself
    (which carries full ``Stencil``/``Platform`` objects).
    """
    name, _, platform, variant, _ = item
    return (name, platform.name, variant)


def validate_simulation(result: Any) -> bool:
    """Reject corrupted results before they enter a study.

    A healthy result is a :class:`SimulationResult` with a finite,
    positive sweep time; anything else (an injected corrupt payload,
    NaN timing) is treated as a transient failure and retried.
    """
    return (
        isinstance(result, SimulationResult)
        and math.isfinite(result.time_s)
        and result.time_s > 0
    )


def simulate_point(item: StudyItem) -> SimulationResult:
    """Simulate one (stencil, platform, variant) point of the matrix."""
    name, stencil, platform, variant, domain = item
    with span(
        "study.point", stencil=name, platform=platform.name, variant=variant
    ):
        return simulate(
            stencil, variant, platform, domain=domain, stencil_name=name
        )
