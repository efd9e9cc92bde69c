"""Renderers for the paper's Tables 2-5.

Each ``table*`` function returns structured data (rows of plain
dataclasses / dicts) plus a ``render_*`` companion producing the exact
text layout, so benchmarks can both assert on values and print the
artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.dsl.analysis import analyze, theoretical_ai
from repro.dsl.shapes import TABLE2, by_name
from repro.harness.experiments import StudyResults
from repro.metrics.efficiency import fraction_of_roofline, fraction_of_theoretical_ai
from repro.metrics.pennycook import aggregate_portability, performance_portability
from repro.roofline.mixbench import empirical_roofline


# ---------------------------------------------------------------------------
# Table 2 — stencil catalog
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _table2_rows() -> Tuple[Dict, ...]:
    rows = []
    for case in TABLE2:
        a = analyze(case.build(), name=case.name)
        rows.append(
            {
                "name": case.name,
                "shape": a.shape,
                "radius": a.radius,
                "points": a.points,
                "unique_coefficients": a.unique_coefficients,
            }
        )
    return tuple(rows)


def table2() -> List[Dict]:
    """Rows of Table 2: shape, radius, points, unique coefficients.

    The catalog is static, so the rows are built once per process;
    each call returns fresh copies.
    """
    return [dict(r) for r in _table2_rows()]


def render_table2() -> str:
    lines = ["Table 2: stencils used for performance portability evaluation",
             f"{'Shape':>6} {'Radius':>7} {'Points':>7} {'Unique Coefficients':>21}"]
    for r in table2():
        lines.append(
            f"{r['shape']:>6} {r['radius']:>7} {r['points']:>7} "
            f"{r['unique_coefficients']:>21}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table 4 — theoretical arithmetic intensity
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _table4_rows() -> Tuple[Dict, ...]:
    return tuple(
        {
            "name": case.name,
            "shape": case.shape,
            "points": case.points,
            "theoretical_ai": theoretical_ai(case.build()),
        }
        for case in TABLE2
    )


def table4() -> List[Dict]:
    """Rows of Table 4, built once per process like :func:`table2`."""
    return [dict(r) for r in _table4_rows()]


def render_table4() -> str:
    lines = ["Table 4: theoretical arithmetic intensity (FLOP:Byte)",
             f"{'Shape':>6} {'Points':>7} {'Theoretical AI':>15}"]
    for r in table4():
        lines.append(f"{r['shape']:>6} {r['points']:>7} {r['theoretical_ai']:>15.4f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Tables 3 and 5 — portability matrices for bricks codegen
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PortabilityTable:
    """A Table-3/5-shaped matrix: per-stencil efficiencies + P column.

    A ``None`` efficiency marks a matrix point that failed to simulate;
    it renders as ``n/a`` (zeroing that stencil's P, per Pennycook's
    "unsupported platform" branch) and the failure is footnoted.
    """

    title: str
    platform_names: Tuple[str, ...]
    #: stencil -> (per-platform efficiency or None ..., P)
    rows: Dict[str, Tuple[Tuple[Optional[float], ...], float]]
    overall: float
    #: Human-readable descriptions of failed points, if any.
    failed: Tuple[str, ...] = ()

    def render(self) -> str:
        header = f"{'Stencil':>8}" + "".join(
            f"{p:>13}" for p in self.platform_names
        ) + f"{'P':>8}"
        lines = [self.title, header]
        for name, (effs, p) in self.rows.items():
            cells = "".join(
                f"{'n/a *':>13}" if e is None else f"{100 * e:>12.0f}%"
                for e in effs
            )
            lines.append(f"{name:>8}{cells}{100 * p:>7.0f}%")
        lines.append(f"{'overall':>8}{'':>{13 * len(self.platform_names)}}{100 * self.overall:>7.0f}%")
        if self.failed:
            lines.append(
                "* point failed to simulate; P treats it as unsupported "
                "(Pennycook's zero branch):"
            )
            for description in self.failed:
                lines.append(f"    {description}")
        return "\n".join(lines)


def _portability_table(
    study: StudyResults, efficiency, title: str
) -> PortabilityTable:
    variant = "bricks_codegen"
    platforms = study.platform_names()
    rooflines = {
        p.name: empirical_roofline(p) for p in study.config.platforms()
    }
    rows: Dict[str, Tuple[Tuple[Optional[float], ...], float]] = {}
    per_stencil_p = []
    failed: List[str] = []
    for name in study.config.stencils:
        stencil = by_name(name).build()
        effs: List[Optional[float]] = []
        for pname in platforms:
            if study.has(name, pname, variant):
                res = study.get(name, pname, variant)
                effs.append(efficiency(res, stencil, rooflines[pname]))
            else:
                effs.append(None)
                fp = study.failed.get((name, pname, variant))
                failed.append(
                    fp.describe() if fp is not None
                    else f"{name}/{pname}/{variant}: not simulated"
                )
        p = performance_portability(dict(zip(platforms, effs)))
        rows[name] = (tuple(effs), p)
        per_stencil_p.append(p)
    overall = aggregate_portability(per_stencil_p)
    return PortabilityTable(
        title=title,
        platform_names=tuple(platforms),
        rows=rows,
        overall=overall,
        failed=tuple(failed),
    )


def table3(study: StudyResults) -> PortabilityTable:
    """Table 3: P based on fraction of the (empirical) Roofline."""
    return _portability_table(
        study,
        lambda res, stencil, roof: fraction_of_roofline(res, roof),
        "Table 3: performance portability from fraction of Roofline "
        "(bricks codegen)",
    )


def table5(study: StudyResults) -> PortabilityTable:
    """Table 5: P based on fraction of theoretical arithmetic intensity."""
    return _portability_table(
        study,
        lambda res, stencil, roof: fraction_of_theoretical_ai(res, stencil),
        "Table 5: performance portability from fraction of theoretical AI "
        "(bricks codegen)",
    )
