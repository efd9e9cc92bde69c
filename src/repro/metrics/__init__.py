"""Performance-portability metrics and the paper's analysis tools.

* :func:`performance_portability` — Pennycook's harmonic-mean metric.
* :func:`fraction_of_roofline` / :func:`fraction_of_theoretical_ai` —
  the two efficiency definitions of Tables 3 and 5.
* :func:`correlate` — correlation models between programming models
  (Figures 5/6).
* :class:`SpeedupPoint` — the potential-speed-up plane (Figure 7).
"""

from repro.metrics.correlation import CorrelationModel, CorrelationPoint, correlate
from repro.metrics.efficiency import (
    fraction_of_roofline,
    fraction_of_theoretical_ai,
    roofline_for,
)
from repro.metrics.pennycook import (
    aggregate_portability,
    harmonic_mean,
    performance_portability,
)
from repro.metrics.speedup import SpeedupPoint, iso_curve, summarize

__all__ = [
    "CorrelationModel",
    "CorrelationPoint",
    "SpeedupPoint",
    "aggregate_portability",
    "correlate",
    "fraction_of_roofline",
    "fraction_of_theoretical_ai",
    "harmonic_mean",
    "iso_curve",
    "performance_portability",
    "roofline_for",
    "summarize",
]
