"""Data series for the paper's Figures 3-7.

No plotting backend is assumed: each ``fig*`` function returns the exact
series a plot would draw (and the benchmarks print), so the figures can
be regenerated with any tool — or eyeballed as text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.dsl.analysis import compulsory_bytes
from repro.dsl.shapes import by_name
from repro.harness.experiments import StudyResults
from repro.metrics.correlation import CorrelationModel, correlate
from repro.metrics.efficiency import fraction_of_roofline, fraction_of_theoretical_ai
from repro.metrics.speedup import SpeedupPoint
from repro.roofline.mixbench import empirical_roofline
from repro.roofline.model import Roofline


# ---------------------------------------------------------------------------
# Figure 3 — Roofline panels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RooflinePanel:
    """One arch x model panel of Figure 3."""

    platform: str
    roofline: Roofline
    #: variant -> list of (stencil, AI, GFLOP/s), ordered by stencil size.
    series: Dict[str, List[Tuple[str, float, float]]]

    def render(self) -> str:
        lines = [
            f"Figure 3 panel: {self.platform}  "
            f"(BW {self.roofline.peak_bw / 1e12:.2f} TB/s, "
            f"peak {self.roofline.peak_flops / 1e12:.1f} TF/s, "
            f"ridge {self.roofline.ridge_point:.2f})"
        ]
        for variant, pts in self.series.items():
            lines.append(f"  {variant}:")
            for stencil, ai, gf in pts:
                frac = self.roofline.fraction(gf * 1e9, ai)
                lines.append(
                    f"    {stencil:>6}: AI {ai:7.3f}  {gf:9.1f} GF/s "
                    f"({100 * frac:5.1f}% of roof)"
                )
        return "\n".join(lines)


def fig3(study: StudyResults) -> List[RooflinePanel]:
    """All Roofline panels (one per platform column).

    Failed matrix points (``study.failed``) are skipped — the panel
    simply has a gap where the kernel could not be simulated.
    """
    panels = []
    for plat in study.config.platforms():
        roof = empirical_roofline(plat)
        series: Dict[str, List[Tuple[str, float, float]]] = {}
        for variant in study.config.variants:
            pts = []
            for name in study.config.stencils:
                if not study.has(name, plat.name, variant):
                    continue
                r = study.get(name, plat.name, variant)
                pts.append((name, r.arithmetic_intensity, r.gflops))
            series[variant] = pts
        panels.append(RooflinePanel(platform=plat.name, roofline=roof, series=series))
    return panels


# ---------------------------------------------------------------------------
# Figure 4 — L1 data movement
# ---------------------------------------------------------------------------


def fig4(study: StudyResults) -> Dict[str, Dict[str, List[Tuple[str, float]]]]:
    """platform -> variant -> [(stencil, L1 GB)], lower is better."""
    out: Dict[str, Dict[str, List[Tuple[str, float]]]] = {}
    for pname in study.platform_names():
        out[pname] = {}
        for variant in study.config.variants:
            out[pname][variant] = [
                (name, study.get(name, pname, variant).l1_gbytes)
                for name in study.config.stencils
                if study.has(name, pname, variant)
            ]
    return out


def render_fig4(study: StudyResults) -> str:
    data = fig4(study)
    lines = ["Figure 4: L1 data movement (GB, lower is better)"]
    for pname, variants in data.items():
        lines.append(f"  {pname}:")
        for variant, pts in variants.items():
            cells = "  ".join(f"{s}={gb:8.2f}" for s, gb in pts)
            lines.append(f"    {variant:>15}: {cells}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figures 5 and 6 — correlation plots
# ---------------------------------------------------------------------------


def _paired(study: StudyResults, y_platform: str, x_platform: str):
    """Results of two platforms, restricted to their common points.

    A failed point on either side drops that (stencil, variant) pair
    from the correlation instead of crashing the figure.
    """
    y_all = study.for_platform(y_platform)
    x_all = study.for_platform(x_platform)
    common = {(r.stencil_name, r.variant) for r in y_all} & {
        (r.stencil_name, r.variant) for r in x_all
    }
    return (
        [r for r in y_all if (r.stencil_name, r.variant) in common],
        [r for r in x_all if (r.stencil_name, r.variant) in common],
    )


def fig5(study: StudyResults) -> Tuple[CorrelationModel, CorrelationModel]:
    """A100: CUDA (y) vs SYCL (x) — performance and bytes accessed."""
    cuda, sycl = _paired(study, "A100-CUDA", "A100-SYCL")
    return (
        correlate(cuda, sycl, quantity="gflops"),
        correlate(cuda, sycl, quantity="hbm_gbytes"),
    )


def fig6(study: StudyResults) -> Tuple[CorrelationModel, CorrelationModel]:
    """MI250X: HIP (y) vs SYCL (x) — performance and bytes accessed."""
    hip, sycl = _paired(study, "MI250X-HIP", "MI250X-SYCL")
    return (
        correlate(hip, sycl, quantity="gflops"),
        correlate(hip, sycl, quantity="hbm_gbytes"),
    )


def render_correlation(model: CorrelationModel, domain=(512, 512, 512)) -> str:
    lines = [
        f"Correlation ({model.quantity}): {model.y_label} (y) vs {model.x_label} (x)"
    ]
    if model.quantity == "hbm_gbytes":
        lines.append(
            f"  theoretical lower bound: {compulsory_bytes(domain) / 1e9:.2f} GB"
        )
    for p in sorted(model.points, key=lambda p: (p.variant, p.stencil)):
        marker = "above diagonal" if p.y > p.x else "below diagonal"
        lines.append(
            f"  {p.stencil:>6} {p.variant:>15}: x={p.x:9.2f}  y={p.y:9.2f}  ({marker})"
        )
    for variant in ("array", "array_codegen", "bricks_codegen"):
        lines.append(
            f"  diagonal distance [{variant}]: {model.diagonal_distance(variant):.3f}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 7 — potential speed-up plane
# ---------------------------------------------------------------------------


def fig7(study: StudyResults) -> List[SpeedupPoint]:
    """All platforms' bricks-codegen kernels on the potential-speed-up plane."""
    rooflines = {p.name: empirical_roofline(p) for p in study.config.platforms()}
    pts = []
    for name in study.config.stencils:
        stencil = by_name(name).build()
        for pname in study.platform_names():
            if not study.has(name, pname, "bricks_codegen"):
                continue
            res = study.get(name, pname, "bricks_codegen")
            pts.append(
                SpeedupPoint(
                    label=f"{name}@{pname}",
                    ai_fraction=fraction_of_theoretical_ai(res, stencil),
                    roofline_fraction=fraction_of_roofline(res, rooflines[pname]),
                )
            )
    return pts


def render_fig7(study: StudyResults) -> str:
    pts = fig7(study)
    lines = ["Figure 7: potential speed-up plane (bricks codegen)",
             f"{'kernel':>22} {'AI frac':>8} {'roof frac':>10} {'potential':>10} {'band':>7}"]
    for p in sorted(pts, key=lambda p: p.label):
        lines.append(
            f"{p.label:>22} {p.ai_fraction:8.2f} {p.roofline_fraction:10.2f} "
            f"{p.potential_speedup:9.1f}x {p.band():>7}"
        )
    return "\n".join(lines)
