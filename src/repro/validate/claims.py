"""The paper's claims as one table of measured, banded checks.

The paper's conclusions (§5) rest on qualitative claims about Tables
2–5 and Figures 3–7: "bricks codegen attains the highest AI", "most
stencils favour CUDA", "𝒫 is nearly 70% overall".  Each is one
:class:`Claim` in :data:`CLAIMS`: an id, the paper artifact it comes
from, the published value as text, a band and a ``measure`` that reads
one number off a study.  A yes/no claim measures a number too — a count
("90 of 90 kernels under their roof", band ``= 90``) or a worst-case
ratio ("bricks AI over array-codegen AI", band ``> 1``) — so a verdict
always shows its margin.

:func:`evaluate` computes every table and figure series once and
returns one :class:`ClaimResult` per claim.  Three consumers read it:
``validate_study`` (an out-of-band claim is a violation named by its
id), ``EXPERIMENTS.md`` (every ✓/✗ under a table or figure) and the
tier-1 claim test.  Claims describe the paper's matrix only, so every
consumer first asks :func:`is_paper_matrix`.

The published numbers the report compares against live here too
(``PAPER_TABLE3`` … ``PAPER_CODEGEN_GAINS``), next to
:func:`speedups_over_array`, the one copy of the headline speed-ups.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Tuple

from repro.dsl.analysis import compulsory_bytes
from repro.dsl.shapes import by_name
from repro.harness.experiments import STENCIL_NAMES, ExperimentConfig, StudyResults
from repro.harness.figures import RooflinePanel, fig3, fig4, fig5, fig6, fig7
from repro.harness.tables import PortabilityTable, table2, table3, table4, table5
from repro.metrics.correlation import CorrelationModel
from repro.metrics.speedup import SpeedupPoint, summarize
from repro.validate.invariants import STAR_FAMILY

__all__ = [
    "CLAIMS",
    "LOWER_BOUND_GB",
    "PAPER_CODEGEN_GAINS",
    "PAPER_OVERALL_P",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "PAPER_TABLE5",
    "Claim",
    "ClaimResult",
    "Evidence",
    "evaluate",
    "is_paper_matrix",
    "speedups_over_array",
]

#: Paper values for Tables 3 and 5 (five platform cells + the P column).
PAPER_TABLE3 = {
    "7pt": (95, 84, 66, 68, 77, 77),
    "13pt": (92, 79, 66, 67, 67, 73),
    "19pt": (85, 87, 65, 66, 53, 69),
    "25pt": (69, 79, 66, 64, 47, 63),
    "27pt": (82, 60, 66, 67, 61, 66),
    "125pt": (47, 39, 42, 63, 23, 38),
}
PAPER_TABLE5 = {
    "7pt": (92, 49, 62, 59, 93, 67),
    "13pt": (92, 88, 66, 48, 92, 72),
    "19pt": (91, 87, 60, 43, 91, 68),
    "25pt": (88, 81, 56, 41, 91, 65),
    "27pt": (93, 59, 67, 59, 92, 71),
    "125pt": (92, 89, 64, 38, 92, 67),
}
#: Paper Table 4: theoretical arithmetic intensity (FLOP/byte) per stencil.
PAPER_TABLE4 = {
    "7pt": 0.5,
    "13pt": 0.9375,
    "19pt": 1.375,
    "25pt": 1.8125,
    "27pt": 1.875,
    "125pt": 8.375,
}
#: The paper's overall P (percent) of Tables 3 and 5, keyed by table.
PAPER_OVERALL_P = {3: 61, 5: 68}
#: The paper's headline codegen speed-ups (bricks codegen vs array), the
#: most over star and over cube stencils, per platform (Figure 3).
PAPER_CODEGEN_GAINS = {
    "A100-CUDA": ("1.3x", "2x"),
    "A100-SYCL": ("13x", "26x"),
    "MI250X-HIP": ("1.3x", "3x"),
    "MI250X-SYCL": ("3x", "9x"),
    "PVC-SYCL": ("3x", "5x"),
}

CUBE_STENCILS = tuple(n for n in STENCIL_NAMES if n not in STAR_FAMILY)

#: The paper domain's compulsory traffic, in GB: Figures 5 and 6's bound.
LOWER_BOUND_GB = compulsory_bytes(ExperimentConfig().domain) / 1e9


def is_paper_matrix(study: StudyResults) -> bool:
    """Whether the paper's claims apply: its full matrix, nothing failed."""
    return study.config == ExperimentConfig() and not study.failed


def speedups_over_array(
    study: StudyResults, variant: str = "bricks_codegen"
) -> Dict[str, Tuple[float, float]]:
    """platform -> (max star, max cube) speed-up of ``variant`` over array.

    The speed-up is the GFLOP/s ratio; FLOPs are normalised per stencil,
    so it is also the run-time ratio.  ``bricks_codegen`` gives the
    paper's headline gains (Figure 3), ``array_codegen`` isolates what
    code generation alone buys.  Needs the paper's full stencil and
    variant sweep.
    """
    out = {}
    for pname in study.platform_names():
        gain = {
            name: study.get(name, pname, variant).gflops
            / study.get(name, pname, "array").gflops
            for name in STENCIL_NAMES
        }
        out[pname] = (
            max(gain[name] for name in STAR_FAMILY),
            max(gain[name] for name in CUBE_STENCILS),
        )
    return out


@dataclass(frozen=True)
class Evidence:
    """One study's tables and figure series, each computed once."""

    study: StudyResults
    table3: PortabilityTable
    table5: PortabilityTable
    fig3: Dict[str, RooflinePanel]
    fig4: Dict[str, Dict[str, List[Tuple[str, float]]]]
    fig5: Tuple[CorrelationModel, CorrelationModel]
    fig6: Tuple[CorrelationModel, CorrelationModel]
    fig7: List[SpeedupPoint]
    gains: Dict[str, Tuple[float, float]]

    @classmethod
    def of(cls, study: StudyResults) -> "Evidence":
        return cls(
            study=study,
            table3=table3(study),
            table5=table5(study),
            fig3={panel.platform: panel for panel in fig3(study)},
            fig4=fig4(study),
            fig5=fig5(study),
            fig6=fig6(study),
            fig7=fig7(study),
            gains=speedups_over_array(study),
        )


@dataclass(frozen=True)
class Claim:
    """One paper claim: what it says, where, and the band it must hit."""

    id: str
    section: str  # the paper artifact: "Table 3", "Figure 5", ...
    text: str  # what is measured, in words
    paper: str  # the published value or statement
    band: Tuple[float, float]
    measure: Callable[[Evidence], float]
    #: Whether the low / high end of the band is exclusive.
    open_ends: Tuple[bool, bool] = (False, False)
    #: Format spec of the measured value.
    fmt: str = ".2f"

    def holds(self, measured: float) -> bool:
        (lo, hi), (lo_open, hi_open) = self.band, self.open_ends
        above = measured > lo if lo_open else measured >= lo
        below = measured < hi if hi_open else measured <= hi
        return above and below

    def band_text(self) -> str:
        (lo, hi), (lo_open, hi_open) = self.band, self.open_ends
        if lo == hi:
            return f"= {lo:g}"
        if hi == math.inf:
            return f"{'>' if lo_open else '≥'} {lo:g}"
        if lo == -math.inf:
            return f"{'<' if hi_open else '≤'} {hi:g}"
        return f"{'(' if lo_open else '['}{lo:g}, {hi:g}{')' if hi_open else ']'}"


class ClaimResult(NamedTuple):
    claim: Claim
    measured: float
    ok: bool


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------


def _table2_rows_matching(ev: Evidence) -> float:
    def declared(name: str) -> Tuple:
        case = by_name(name)
        return (case.shape, case.radius, case.points, case.unique_coefficients)

    return sum(
        (r["shape"], r["radius"], r["points"], r["unique_coefficients"])
        == declared(r["name"])
        for r in table2()
    )


def _table4_rows_matching(ev: Evidence) -> float:
    return sum(
        abs(r["theoretical_ai"] - PAPER_TABLE4[r["name"]]) < 1e-12
        for r in table4()
    )


def _worst_stencil_p_gap(table: PortabilityTable, paper: Dict) -> float:
    """Largest |measured − paper| per-stencil P, in points."""
    return max(abs(100 * p - paper[name][-1]) for name, (_, p) in table.rows.items())


def _t3_margin(ev: Evidence, name: str) -> float:
    """How far ``name``'s Table 3 P leads (7pt) or trails (125pt) the
    nearest other stencil, in points; negative when it does not."""
    ps = {s: 100 * p for s, (_, p) in ev.table3.rows.items()}
    p = ps.pop(name)
    return p - max(ps.values()) if name == "7pt" else min(ps.values()) - p


def _kernels_under_roof(ev: Evidence) -> float:
    return sum(
        gf * 1e9 <= panel.roofline.attainable(ai) * 1.02
        for panel in ev.fig3.values()
        for pts in panel.series.values()
        for _, ai, gf in pts
    )


def _ai(panel: RooflinePanel, variant: str) -> Dict[str, float]:
    return {s: ai for s, ai, _ in panel.series[variant]}


def _min_ai_ratio(ev: Evidence, platforms, others) -> float:
    """Smallest bricks-codegen AI over the best of ``others``' AI."""
    ratios = []
    for pname in platforms:
        panel = ev.fig3[pname]
        bricks = _ai(panel, "bricks_codegen")
        rivals = [_ai(panel, v) for v in others]
        ratios += [bricks[s] / max(r[s] for r in rivals) for s in bricks]
    return min(ratios)


def _min_gain(ev: Evidence, platforms) -> float:
    """Smallest per-stencil bricks-codegen speed-up over plain array."""
    study = ev.study
    return min(
        study.get(s, p, "bricks_codegen").gflops / study.get(s, p, "array").gflops
        for p in platforms
        for s in STENCIL_NAMES
    )


def _star_ai_steps(ev: Evidence) -> float:
    """Smallest step ratio of bricks-codegen AI along the star family."""
    steps = []
    for panel in ev.fig3.values():
        ais = _ai(panel, "bricks_codegen")
        series = [ais[s] for s in STAR_FAMILY]
        steps += [b / a for a, b in zip(series, series[1:])]
    return min(steps)


def _l1(ev: Evidence, pname: str, variant: str) -> Dict[str, float]:
    return dict(ev.fig4[pname][variant])


def _l1_ratio_125pt(ev: Evidence) -> float:
    return min(
        _l1(ev, p, "array")["125pt"] / _l1(ev, p, "bricks_codegen")["125pt"]
        for p in ("A100-CUDA", "MI250X-HIP", "PVC-SYCL")
    )


def _l1_ratio_everywhere(ev: Evidence) -> float:
    ratios = []
    for pname in ev.fig4:
        array, bricks = _l1(ev, pname, "array"), _l1(ev, pname, "bricks_codegen")
        ratios += [array[s] / bricks[s] for s in array]
    return min(ratios)


def _l1_variability_excess(ev: Evidence) -> float:
    """Worst platform's CV(bricks codegen L1) − CV(array L1)."""

    def cv(pts) -> float:
        gbs = [gb for _, gb in pts]
        return statistics.pstdev(gbs) / statistics.mean(gbs)

    return max(
        cv(variants["bricks_codegen"]) - cv(variants["array"])
        for variants in ev.fig4.values()
    )


def _points(model: CorrelationModel, variant: str):
    return [p for p in model.points if p.variant == variant]


def _dd_gap(model: CorrelationModel) -> float:
    """Diagonal distance of plain array minus that of bricks codegen."""
    return model.diagonal_distance("array") - model.diagonal_distance("bricks_codegen")


def _share(items, pred) -> float:
    items = list(items)
    return sum(1 for x in items if pred(x)) / len(items)


def _fig7_arch(p: SpeedupPoint) -> str:
    return p.label.split("@")[1].split("-")[0]


CLAIMS: Tuple[Claim, ...] = (
    # ----- Table 2 / Table 4: analytic, exact ---------------------------
    Claim(
        "table2-catalog", "Table 2",
        "catalog rows whose analysed shape, radius, points and unique "
        "coefficients match the paper",
        "6 stencils", (6, 6), _table2_rows_matching, fmt=".0f",
    ),
    Claim(
        "table4-theoretical-ai", "Table 4",
        "stencils whose theoretical AI equals the paper's (to 1e-12)",
        "6 stencils", (6, 6), _table4_rows_matching, fmt=".0f",
    ),
    # ----- Table 3 --------------------------------------------------------
    Claim(
        "table3-stencil-p", "Table 3",
        "largest |measured − paper| per-stencil 𝒫, in points",
        "per-stencil 𝒫 column", (0, 8),
        lambda ev: _worst_stencil_p_gap(ev.table3, PAPER_TABLE3),
        open_ends=(False, True), fmt=".1f",
    ),
    Claim(
        "table3-overall-p", "Table 3", "overall 𝒫, percent",
        f"{PAPER_OVERALL_P[3]}%", (56, 66), lambda ev: 100 * ev.table3.overall,
        open_ends=(True, True), fmt=".1f",
    ),
    Claim(
        "table3-7pt-best", "Table 3",
        "7pt 𝒫 minus the best other stencil's, in points",
        "7pt highest", (0, math.inf), lambda ev: _t3_margin(ev, "7pt"), fmt=".1f",
    ),
    Claim(
        "table3-125pt-worst", "Table 3",
        "worst other stencil's 𝒫 minus 125pt's, in points",
        "125pt lowest", (0, math.inf), lambda ev: _t3_margin(ev, "125pt"),
        open_ends=(True, False), fmt=".1f",
    ),
    # ----- Table 5 --------------------------------------------------------
    Claim(
        "table5-stencil-p", "Table 5",
        "largest |measured − paper| per-stencil 𝒫, in points",
        "per-stencil 𝒫 column", (0, 10),
        lambda ev: _worst_stencil_p_gap(ev.table5, PAPER_TABLE5),
        open_ends=(False, True), fmt=".1f",
    ),
    Claim(
        "table5-overall-p", "Table 5", "overall 𝒫, percent",
        f"{PAPER_OVERALL_P[5]}% ('nearly 70%')", (63, 73),
        lambda ev: 100 * ev.table5.overall, open_ends=(True, True), fmt=".1f",
    ),
    Claim(
        "table5-stencil-p-over-half", "Table 5",
        "lowest per-stencil 𝒫, percent",
        "every stencil well above 50%", (50, math.inf),
        lambda ev: min(100 * p for _, p in ev.table5.rows.values()),
        open_ends=(True, False), fmt=".1f",
    ),
    # ----- Figure 3 -------------------------------------------------------
    Claim(
        "fig3-under-roof", "Figure 3",
        "kernels on or below their empirical Roofline (2% slack)",
        "all kernels", (90, 90), _kernels_under_roof, fmt=".0f",
    ),
    Claim(
        "fig3-bricks-ai-over-array-codegen", "Figure 3",
        "smallest bricks-codegen AI / array-codegen AI, any platform",
        "bricks codegen right of array codegen everywhere", (1, math.inf),
        lambda ev: _min_ai_ratio(ev, ev.fig3, ("array_codegen",)),
        open_ends=(True, False),
    ),
    Claim(
        "fig3-bricks-highest-ai", "Figure 3",
        "smallest bricks-codegen AI / best other variant's AI, A100 and PVC",
        "bricks codegen attains the highest AI", (1, math.inf),
        lambda ev: _min_ai_ratio(
            ev, ("A100-CUDA", "A100-SYCL", "PVC-SYCL"), ("array", "array_codegen")
        ),
        open_ends=(True, False),
    ),
    Claim(
        "fig3-a100-codegen-gains", "Figure 3",
        "smallest bricks-codegen speed-up over array on A100, any stencil",
        "codegen improves every stencil", (1, math.inf),
        lambda ev: _min_gain(ev, ("A100-CUDA", "A100-SYCL")),
        open_ends=(True, False),
    ),
    Claim(
        "fig3-a100-cuda-gain", "Figure 3",
        "largest bricks-codegen speed-up over array, A100-CUDA",
        "up to 2x", (1.05, 3.0), lambda ev: max(ev.gains["A100-CUDA"]),
        open_ends=(True, True),
    ),
    Claim(
        "fig3-a100-sycl-gain", "Figure 3",
        "largest bricks-codegen speed-up over array, A100-SYCL",
        "13x-26x", (8.0, 40.0), lambda ev: max(ev.gains["A100-SYCL"]),
        open_ends=(True, True), fmt=".1f",
    ),
    Claim(
        "fig3-star-ai-ordering", "Figure 3",
        "smallest step in bricks-codegen AI from one star stencil to the "
        "next larger",
        "AI grows with radius", (1, math.inf), _star_ai_steps,
    ),
    # ----- Figure 4 -------------------------------------------------------
    Claim(
        "fig4-array-10x-l1", "Figure 4",
        "smallest array / bricks-codegen L1 bytes at 125pt, on A100-CUDA, "
        "MI250X-HIP and PVC-SYCL",
        "≥10x", (10, math.inf), _l1_ratio_125pt, fmt=".1f",
    ),
    Claim(
        "fig4-array-more-l1", "Figure 4",
        "smallest array / bricks-codegen L1 bytes, any stencil and platform",
        "array moves the most L1 data", (1, math.inf), _l1_ratio_everywhere,
        open_ends=(True, False),
    ),
    Claim(
        "fig4-bricks-least-variability", "Figure 4",
        "largest CV across stencils of bricks-codegen L1 bytes minus that "
        "of array, any platform",
        "bricks codegen varies least", (-math.inf, 1e-9),
        _l1_variability_excess, fmt=".3f",
    ),
    # ----- Figure 5 -------------------------------------------------------
    Claim(
        "fig5-cuda-above-diagonal", "Figure 5",
        "share of kernels faster under CUDA than SYCL",
        "most stencils favour CUDA", (0.8, math.inf),
        lambda ev: len(ev.fig5[0].above_diagonal()) / len(ev.fig5[0].points),
    ),
    Claim(
        "fig5-bricks-near-diagonal", "Figure 5",
        "diagonal distance of array minus that of bricks codegen",
        "bricks codegen closest to the diagonal", (0, math.inf),
        lambda ev: _dd_gap(ev.fig5[0]), open_ends=(True, False),
    ),
    Claim(
        "fig5-bytes-above-bound", "Figure 5",
        f"smallest bytes moved / the {LOWER_BOUND_GB:.2f} GB lower bound, "
        "either model",
        "no kernel below the bound", (0.999, math.inf),
        lambda ev: min(min(p.x, p.y) for p in ev.fig5[1].points) / LOWER_BOUND_GB,
        fmt=".3f",
    ),
    Claim(
        "fig5-array-codegen-cuda-4gb", "Figure 5",
        "stencils where array codegen under CUDA moves 3.5-4.6 GB",
        "close to 4 GB", (6, 6),
        lambda ev: sum(
            3.5 <= p.y <= 4.6 for p in _points(ev.fig5[1], "array_codegen")
        ),
        fmt=".0f",
    ),
    Claim(
        "fig5-bricks-cuda-near-bound", "Figure 5",
        "largest bricks-codegen CUDA bytes / the lower bound",
        "bricks significantly closer to the bound", (-math.inf, 1.25),
        lambda ev: max(p.y for p in _points(ev.fig5[1], "bricks_codegen"))
        / LOWER_BOUND_GB,
    ),
    Claim(
        "fig5-bricks-cuda-moves-less", "Figure 5",
        "largest bricks-codegen CUDA / SYCL bytes",
        "CUDA moves less data than SYCL", (-math.inf, 1),
        lambda ev: max(p.y / p.x for p in _points(ev.fig5[1], "bricks_codegen")),
        open_ends=(False, True),
    ),
    # ----- Figure 6 -------------------------------------------------------
    Claim(
        "fig6-array-favours-hip", "Figure 6",
        "smallest plain-array HIP / SYCL performance",
        "plain array performs better with HIP", (1, math.inf),
        lambda ev: min(p.y / p.x for p in _points(ev.fig6[0], "array")),
        open_ends=(True, False),
    ),
    Claim(
        "fig6-bricks-balanced", "Figure 6",
        "bricks-codegen geometric-mean HIP / SYCL performance",
        "'perform the same' with HIP or SYCL", (1 / 1.35, 1.35),
        lambda ev: ev.fig6[0].mean_log_ratio("bricks_codegen"),
        open_ends=(True, True),
    ),
    Claim(
        "fig6-bricks-near-diagonal", "Figure 6",
        "diagonal distance of array minus that of bricks codegen",
        "bricks codegen reduces the model gap", (0, math.inf),
        lambda ev: _dd_gap(ev.fig6[0]), open_ends=(True, False),
    ),
    Claim(
        "fig6-more-balanced-than-a100", "Figure 6",
        "A100 array diagonal distance minus MI250X bricks-codegen's",
        "a more balanced scenario than on A100", (0, math.inf),
        lambda ev: ev.fig5[0].diagonal_distance("array")
        - ev.fig6[0].diagonal_distance("bricks_codegen"),
        open_ends=(True, False),
    ),
    Claim(
        "fig6-hip-array-codegen-anomaly", "Figure 6",
        "smallest HIP array-codegen bytes moved, GB",
        ">10 GB", (10, math.inf),
        lambda ev: min(p.y for p in _points(ev.fig6[1], "array_codegen")),
        open_ends=(True, False), fmt=".1f",
    ),
    Claim(
        "fig6-hip-rest-near-bound", "Figure 6",
        "largest HIP bytes / the lower bound, other variants",
        "near the bound", (-math.inf, 1.9),
        lambda ev: max(
            p.y for p in ev.fig6[1].points if p.variant != "array_codegen"
        ) / LOWER_BOUND_GB,
        open_ends=(False, True),
    ),
    # ----- Figure 7 -------------------------------------------------------
    Claim(
        "fig7-over-half-both-axes", "Figure 7",
        "share of bricks-codegen kernels above 50% on both axes",
        "over 50% of Roofline and theoretical AI overall", (0.5, math.inf),
        lambda ev: _share(
            ev.fig7, lambda p: p.ai_fraction > 0.5 and p.roofline_fraction > 0.5
        ),
        open_ends=(True, False),
    ),
    Claim(
        "fig7-nvidia-intel-high-ai", "Figure 7",
        "smallest AI fraction on A100 and PVC, 125pt excluded",
        "NVIDIA and Intel near minimal data movement", (0.70, math.inf),
        lambda ev: min(
            p.ai_fraction for p in ev.fig7
            if _fig7_arch(p) in ("A100", "PVC") and "125pt" not in p.label
        ),
        open_ends=(True, False),
    ),
    Claim(
        "fig7-amd-mid-plane", "Figure 7",
        "share of MI250X kernels with 2x-5x potential speed-up",
        "AMD mid-plane, 2-4x headroom", (0.7, math.inf),
        lambda ev: _share(
            (p for p in ev.fig7 if _fig7_arch(p) == "MI250X"),
            lambda p: 2.0 <= p.potential_speedup <= 5.0,
        ),
    ),
    Claim(
        "fig7-within-4.5x", "Figure 7",
        "share of kernels with at most 4.5x potential speed-up",
        "most kernels within the 4x curve", (0.8, math.inf),
        lambda ev: _share(ev.fig7, lambda p: p.potential_speedup <= 4.5),
    ),
    Claim(
        "fig7-few-beyond-4x", "Figure 7",
        "share of kernels in the >4x band",
        "few kernels beyond 4x", (-math.inf, 0.35),
        lambda ev: summarize(ev.fig7)["bands"][">4x"] / len(ev.fig7),
    ),
    Claim(
        "fig7-best-potential", "Figure 7",
        "smallest potential speed-up",
        "best kernels near the 1x curve", (-math.inf, 1.6),
        lambda ev: summarize(ev.fig7)["best"].potential_speedup,
        open_ends=(False, True),
    ),
)

def evaluate(study: "StudyResults | Evidence") -> List[ClaimResult]:
    """Measure every claim on ``study``, in :data:`CLAIMS` order.

    Only meaningful on the paper's matrix (:func:`is_paper_matrix`).
    Pass an :class:`Evidence` to reuse tables and series already built.
    """
    ev = study if isinstance(study, Evidence) else Evidence.of(study)
    rows = []
    for c in CLAIMS:
        measured = float(c.measure(ev))
        rows.append(ClaimResult(c, measured, c.holds(measured)))
    return rows
