"""CSV/text export of study results.

:func:`result_row` is the one flat row of a result: CSV export, the
JSON study document and the golden baseline
(:mod:`repro.validate.golden`, compared field by field over
:data:`CSV_FIELDS`) all use it.
"""

from __future__ import annotations

import csv
import io
from typing import Iterable

from repro.gpu.simulator import SimulationResult
from repro.harness.experiments import StudyResults, iter_results

CSV_FIELDS = (
    "stencil",
    "platform",
    "variant",
    "strategy",
    "time_ms",
    "gflops",
    "arithmetic_intensity",
    "hbm_gbytes",
    "l1_gbytes",
    "bottleneck",
    "occupancy",
)


def result_row(r: SimulationResult) -> dict:
    return {
        "stencil": r.stencil_name,
        "platform": r.platform.name,
        "variant": r.variant,
        "strategy": r.strategy,
        "time_ms": round(r.time_s * 1e3, 4),
        "gflops": round(r.gflops, 1),
        "arithmetic_intensity": round(r.arithmetic_intensity, 4),
        "hbm_gbytes": round(r.hbm_gbytes, 3),
        "l1_gbytes": round(r.l1_gbytes, 3),
        "bottleneck": r.timing.bottleneck,
        "occupancy": round(r.timing.occupancy, 3),
    }


def to_csv(results: "StudyResults | Iterable[SimulationResult]") -> str:
    """Render results as CSV text (stable field order)."""
    if isinstance(results, StudyResults):
        results = iter_results(results)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS)
    writer.writeheader()
    for r in results:
        writer.writerow(result_row(r))
    return buf.getvalue()


def write_csv(results: "StudyResults | Iterable[SimulationResult]", path: str) -> None:
    with open(path, "w", newline="") as f:
        f.write(to_csv(results))


def summary(study: StudyResults) -> str:
    """One line per result, profiler-report style.

    Failed matrix points (graceful degradation) are listed at the end
    so a degraded sweep is impossible to mistake for a complete one.
    """
    lines = [f"study: {len(study)} kernel runs on {study.config.domain} domain"]
    for r in iter_results(study):
        lines.append("  " + r.describe())
    if study.failed:
        lines.append(f"  FAILED points: {len(study.failed)} (resume with --resume)")
        for _, fp in sorted(study.failed.items()):
            lines.append(f"    {fp.describe()}")
    return "\n".join(lines)
