"""Programmatic report generation: the full reproduction artifact.

``repro-stencil report`` renders everything the paper reproduction
produces — Tables 2–5, the Figure 3–7 series, EXPERIMENTS.md, and a
drift commentary against the golden baseline.  Every renderer takes a
:class:`~repro.harness.experiments.StudyResults`; only
:func:`generate_report` takes a source (:class:`~repro.results.provider.
DirectProvider` for a freshly-run study, :class:`~repro.results.provider.
StoreProvider` for one reconstructed from the SQLite result store) and
resolves it once.  Every ✓/✗ under a paper table or figure is a verdict
of :func:`repro.validate.claims.evaluate`, which also holds the paper
values the comparison columns read.

Nothing here embeds timestamps, hostnames, or store row-ids: the
artifact is a pure function of the study's numbers, which is what makes
the CI byte-identity gate (store-rendered == direct-rendered) possible.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.dsl.shapes import by_name
from repro.harness.experiments import STENCIL_NAMES, ExperimentConfig, StudyResults
from repro.harness.figures import (
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    render_correlation,
    render_fig4_data,
    render_fig7_data,
)
from repro.harness.reporting import result_row
from repro.harness.serialization import compare_rows
from repro.harness.tables import (
    PortabilityTable,
    render_table2,
    render_table4,
    table2,
    table3,
    table4,
    table5,
)
from repro.validate.claims import (
    LOWER_BOUND_GB,
    PAPER_CODEGEN_GAINS,
    PAPER_OVERALL_P,
    PAPER_TABLE3,
    PAPER_TABLE4,
    PAPER_TABLE5,
    ClaimResult,
    Evidence,
    evaluate,
    is_paper_matrix,
)
from repro.validate.golden import DEFAULT_GOLDEN_PATH, config_doc, load_golden

if TYPE_CHECKING:
    from repro.results.provider import DirectProvider, StoreProvider

__all__ = [
    "drift_md",
    "experiments_md",
    "figures_txt",
    "generate_report",
    "tables_txt",
    "write_report",
]

def tables_txt(study: StudyResults, ev: Optional[Evidence] = None) -> str:
    """Tables 2–5 as one text artifact.

    ``ev`` is the study's :class:`Evidence`, when the caller built one:
    Tables 3 and 5 are then read from it instead of computed again.
    """
    t3, t5 = (ev.table3, ev.table5) if ev else (table3(study), table5(study))
    return "\n\n".join(
        [render_table2(), render_table4(), t3.render(), t5.render()]
    )


def figures_txt(study: StudyResults, ev: Optional[Evidence] = None) -> str:
    """Figure 3–7 series as one text artifact.

    Correlation figures (5 and 6) need both platforms of their pair in
    the study; a study swept over a subset simply omits them (with a
    one-line note, so the gap is visible rather than silent).  ``ev``
    is the study's :class:`Evidence`, when the caller built one: the
    series are then read from it instead of computed again.
    """
    names = set(study.platform_names())
    # render_correlation prints a diagonal distance per paper variant,
    # so the correlation figures need the full variant sweep too.
    variants_ok = {"array", "array_codegen", "bricks_codegen"} <= set(
        study.config.variants
    )
    panels = list(ev.fig3.values()) if ev else fig3(study)
    parts = [panel.render() for panel in panels]
    parts.append(render_fig4_data(ev.fig4 if ev else fig4(study)))
    if {"A100-CUDA", "A100-SYCL"} <= names and variants_ok:
        perf, nbytes = ev.fig5 if ev else fig5(study)
        parts.append(
            "Figure 5: A100 CUDA vs SYCL\n"
            + render_correlation(perf, domain=study.config.domain)
            + "\n"
            + render_correlation(nbytes, domain=study.config.domain)
        )
    else:
        parts.append(
            "Figure 5: skipped (study lacks the A100-CUDA/A100-SYCL "
            "columns or the full variant sweep)"
        )
    if {"MI250X-HIP", "MI250X-SYCL"} <= names and variants_ok:
        perf, nbytes = ev.fig6 if ev else fig6(study)
        parts.append(
            "Figure 6: MI250X HIP vs SYCL\n"
            + render_correlation(perf, domain=study.config.domain)
            + "\n"
            + render_correlation(nbytes, domain=study.config.domain)
        )
    else:
        parts.append(
            "Figure 6: skipped (study lacks the MI250X-HIP/MI250X-SYCL "
            "columns or the full variant sweep)"
        )
    parts.append(render_fig7_data(ev.fig7 if ev else fig7(study)))
    return "\n\n".join(parts)


def drift_md(study: StudyResults, golden_path: str = DEFAULT_GOLDEN_PATH) -> str:
    """Drift commentary: this study's rows vs the golden baseline.

    Rendered through :func:`~repro.harness.serialization.compare_rows`
    (time drift beyond 2%) plus a field-count summary, so the artifact
    both states "no drift" affirmatively and names every drifted row
    when the model moved.
    """
    lines = ["# Drift vs golden baseline", ""]
    golden = load_golden(golden_path)
    ours = config_doc(study.config)
    if golden is None:
        lines.append(
            f"No golden baseline at `{os.path.basename(golden_path)}`; run "
            "`repro-stencil validate --update-golden` and commit the result."
        )
    elif golden.get("config", {}) != ours:
        lines.append(
            "Golden baseline covers a different matrix than this study; "
            "drift not evaluated."
        )
        lines.append("")
        lines.append(f"- baseline config: `{golden.get('config', {})}`")
        lines.append(f"- study config: `{ours}`")
    else:
        golden_rows = list(golden.get("rows", {}).values())
        current_rows = [result_row(r) for r in study.results.values()]
        diffs = compare_rows(golden_rows, current_rows)
        if not diffs:
            lines.append(
                f"No time drift beyond 2% across {len(current_rows)} matrix "
                "points."
            )
        else:
            lines.append(f"{len(diffs)} drifted row(s):")
            lines.append("")
            for d in diffs:
                lines.append(f"- {d}")
    if study.failed:
        lines.append("")
        lines.append(f"{len(study.failed)} point(s) failed to simulate:")
        lines.append("")
        for _, fp in sorted(study.failed.items()):
            lines.append(f"- {fp.describe()}")
    return "\n".join(lines) + "\n"


def experiments_md(study: StudyResults, ev: Optional[Evidence] = None) -> str:
    """EXPERIMENTS.md: paper vs measured for every table and figure.

    The full paper-comparison document needs the paper's full matrix;
    a study over a subset renders a reduced document (generic tables
    only) with the omission stated up front.  Either way the text is a
    pure function of the study, so store-reconstructed and in-memory
    studies render identically.  ``ev`` is the full-matrix study's
    :class:`Evidence`, when the caller built one.
    """
    if not is_paper_matrix(study):
        return _experiments_md_reduced(study)
    return _experiments_md_full(study, ev or Evidence.of(study))


def _experiments_md_reduced(study: StudyResults) -> str:
    cfg = study.config
    out = []
    w = out.append
    w("# EXPERIMENTS — paper vs. measured (simulated)")
    w("")
    w("This study does not cover the paper's full matrix "
      f"(stencils={list(cfg.stencils)}, variants={list(cfg.variants)}, "
      f"domain={list(cfg.domain)}, platforms={list(cfg.platform_filter)}"
      f"{'; degraded' if study.failed else ''}), so the paper-comparison")
    w("sections are omitted.  Measured tables for the covered subset:")
    w("")
    w("```text")
    w(table3(study).render())
    w("")
    w(table5(study).render())
    w("```")
    return "\n".join(out)


#: Why a Table 3/5 column misses the paper, keyed by (table, platform).
#: ``{paper}`` and ``{ours}`` render the column, 7pt to 125pt, in percent.
COLUMN_NOTES = {
    (3, "A100-SYCL"): (
        "The paper's column is not monotone in stencil size ({paper}); the "
        "model's shuffle-latency term lowers it steadily across the star "
        "family ({ours}) and has no cube-specific SYCL penalty for the "
        "paper's 27pt dip."
    ),
    (5, "A100-SYCL"): (
        "The paper's column is strongly non-monotonic ({paper}); we model a "
        "single read-amplification per variant, giving a flat column "
        "({ours})."
    ),
    (5, "MI250X-SYCL"): (
        "The paper's column falls across the star family and again from "
        "27pt to 125pt ({paper}); ours drops only where layer-condition "
        "re-reads grow ({ours}).  The paper's "
        "125pt cell implies 125pt-specific traffic growth we chose not to "
        "add a dedicated parameter for."
    ),
}


def _verdict(row: ClaimResult) -> str:
    """One claim as an EXPERIMENTS.md line: measured, band, paper, ✓/✗."""
    c = row.claim
    return (
        f"- `{c.id}`: {c.text}: {format(row.measured, c.fmt)}, band "
        f"{c.band_text()} (paper: {c.paper}) {'✓' if row.ok else '✗'}"
    )


def _verdicts(rows: List[ClaimResult], section: str) -> List[str]:
    return [_verdict(r) for r in rows if r.claim.section == section] + [""]


def _deviations(
    study: StudyResults,
    rows: List[ClaimResult],
    tables: Dict[int, PortabilityTable],
) -> List[str]:
    """Known deviations: out-of-band claims and Table 3/5 cells, from data."""
    out = ["## Known deviations", ""]
    misses = [_verdict(r) for r in rows if not r.ok]
    out += (["Claims outside their band:", ""] + misses if misses
            else ["Every claim above is within its band."])
    out.append("")
    claims = {r.claim.id: r.claim for r in rows}
    bands = {n: claims[f"table{n}-stencil-p"].band[1] for n in (3, 5)}
    out.append(
        "Table 3 and 5 cells further from the paper than their table's "
        f"per-stencil 𝒫 band (`table3-stencil-p`: {bands[3]:g} points, "
        f"`table5-stencil-p`: {bands[5]:g}), as ours/paper in percent:"
    )
    out.append("")
    for n, paper in ((3, PAPER_TABLE3), (5, PAPER_TABLE5)):
        t = tables[n]
        for col, pname in enumerate(t.platform_names):
            ours = [100 * t.rows[name][0][col] for name in STENCIL_NAMES]
            theirs = [paper[name][col] for name in STENCIL_NAMES]
            cells = [
                f"{name} {o:.0f}/{p}"
                for name, o, p in zip(STENCIL_NAMES, ours, theirs)
                if abs(o - p) > bands[n]
            ]
            if not cells:
                continue
            line = f"- Table {n}, {pname}: {', '.join(cells)}."
            note = COLUMN_NOTES.get((n, pname))
            if note:
                line += " " + note.format(
                    paper=", ".join(f"{p}" for p in theirs) + "%",
                    ours=", ".join(f"{o:.0f}" for o in ours) + "%",
                )
            out.append(line)
    out.append(_mi250x_array_note(study, tables[5]))
    out.append("")
    return out


def _mi250x_array_note(study: StudyResults, t5: PortabilityTable) -> str:
    kernels = [(n, p) for p in ("MI250X-HIP", "MI250X-SYCL") for n in STENCIL_NAMES]
    higher = [
        (n, p) for n, p in kernels
        if study.get(n, p, "array").arithmetic_intensity
        > study.get(n, p, "bricks_codegen").arithmetic_intensity
    ]
    slower = sum(
        study.get(n, p, "array").gflops < study.get(n, p, "bricks_codegen").gflops
        for n, p in higher
    )
    col = t5.platform_names.index("MI250X-HIP")
    bricks = [100 * effs[col] for effs, _ in t5.rows.values()]
    return (
        "- MI250X plain-array traffic: the paper's Figure 6 (array near the "
        f"{LOWER_BOUND_GB:.2f} GB bound) and Table 5 (MI250X-HIP bricks "
        f"codegen at {min(bricks):.0f}-{max(bricks):.0f}%) are in tension; we "
        "follow the numeric table, so on MI250X the plain array shows a "
        f"higher AI than bricks codegen on {len(higher)} of {len(kernels)} "
        f"kernels while running slower on {slower} of them."
    )


def _experiments_md_full(study: StudyResults, ev: Evidence) -> str:
    rows = evaluate(ev)
    out = []
    w = out.append
    w("# EXPERIMENTS — paper vs. measured (simulated)")
    w("")
    w("All numbers regenerate deterministically from `harness.run_study()`")
    w("(512³ double-precision domain, out-of-place; the paper's setup).")
    w(f"`repro-stencil validate` re-checks all {len(rows)} claims below.")
    w("")
    w("The substrate is the deterministic GPU simulator described in")
    w("DESIGN.md, calibrated once against the paper's published numbers")
    w("(see `src/repro/gpu/progmodel.py` for the per-parameter provenance")
    w("and `scripts/calibrate.py` for the comparison harness).  Absolute")
    w("agreement is therefore partly by construction; the *reproduced*")
    w("content is (a) every mechanism that produces the shapes — codegen")
    w("load elimination, brick traffic, layer-condition misses, FLOP")
    w("normalisation, scalarisation — and (b) the full analysis pipeline.")
    w("")

    # ----- Table 2 -------------------------------------------------------
    w("## Table 2 — stencil catalog (exact reproduction)")
    w("")
    w("| Stencil | Shape | Radius | Points | Unique coeffs | Paper | Match |")
    w("|---|---|---|---|---|---|---|")
    for r in table2():
        case = by_name(r["name"])
        pr = (case.radius, case.points, case.unique_coefficients)
        got = (r["radius"], r["points"], r["unique_coefficients"])
        w(f"| {r['name']} | {r['shape']} | {r['radius']} | {r['points']} | "
          f"{r['unique_coefficients']} | {pr} | {'✓' if got == pr else '✗'} |")
    w("")
    out += _verdicts(rows, "Table 2")

    # ----- Table 4 -------------------------------------------------------
    w("## Table 4 — theoretical arithmetic intensity (exact reproduction)")
    w("")
    w("| Stencil | Measured AI | Paper AI | Match |")
    w("|---|---|---|---|")
    for r in table4():
        paper = PAPER_TABLE4[r["name"]]
        ok = abs(r["theoretical_ai"] - paper) < 1e-12
        w(f"| {r['name']} | {r['theoretical_ai']} | {paper} | "
          f"{'✓' if ok else '✗'} |")
    w("")
    out += _verdicts(rows, "Table 4")

    # ----- Tables 3 and 5 --------------------------------------------------
    tables = {3: ev.table3, 5: ev.table5}
    for tbl_no, paper in ((3, PAPER_TABLE3), (5, PAPER_TABLE5)):
        t = tables[tbl_no]
        metric = ("fraction of Roofline" if tbl_no == 3
                  else "fraction of theoretical AI")
        w(f"## Table {tbl_no} — performance portability from {metric}")
        w("")
        w("Cells are measured/paper (percent), bricks codegen.")
        w("")
        header = "| Stencil | " + " | ".join(t.platform_names) + " | P |"
        w(header)
        w("|" + "---|" * (len(t.platform_names) + 2))
        for name in STENCIL_NAMES:
            effs, p = t.rows[name]
            cells = [
                f"{100 * e:.0f}/{pv}"
                for e, pv in zip(effs, paper[name][:-1])
            ]
            w(f"| {name} | " + " | ".join(cells)
              + f" | {100 * p:.0f}/{paper[name][-1]} |")
        w(f"| **overall** | " + " | ".join([""] * len(t.platform_names))
          + f" | **{100 * t.overall:.0f}/{PAPER_OVERALL_P[tbl_no]}** |")
        w("")
        out += _verdicts(rows, f"Table {tbl_no}")

    # ----- Figure 3 --------------------------------------------------------
    w("## Figure 3 — Roofline panels")
    w("")
    w("Paper's qualitative claims, checked against the measured series")
    w("(full numeric series printed by `repro-stencil figure 3`):")
    w("")
    w("| Platform | bricks-vs-array star (max) | cube (max) | Paper |")
    w("|---|---|---|---|")
    for pname, (sm, cm) in ev.gains.items():
        star, cube = PAPER_CODEGEN_GAINS[pname]
        w(f"| {pname} | {sm:.1f}x | {cm:.1f}x | {star}/{cube} |")
    w("")
    out += _verdicts(rows, "Figure 3")

    # ----- Figure 4 --------------------------------------------------------
    w("## Figure 4 — L1 data movement")
    w("")
    data = ev.fig4
    w("| Platform | array (125pt) | bricks codegen (125pt) | ratio | Paper |")
    w("|---|---|---|---|---|")
    for pname in ("A100-CUDA", "MI250X-HIP", "PVC-SYCL"):
        naive = dict(data[pname]["array"])['125pt']
        bc = dict(data[pname]["bricks_codegen"])['125pt']
        w(f"| {pname} | {naive:.1f} GB | {bc:.1f} GB | {naive / bc:.0f}x | ≥10x |")
    w("")
    out += _verdicts(rows, "Figure 4")

    # ----- Figures 5, 6 and 7 --------------------------------------------------
    for section, title in (
        ("Figure 5", "CUDA vs SYCL correlation on A100"),
        ("Figure 6", "HIP vs SYCL correlation on MI250X"),
        ("Figure 7", "potential speed-up plane"),
    ):
        w(f"## {section} — {title}")
        w("")
        out += _verdicts(rows, section)

    # ----- throughput envelope ------------------------------------------------
    w("## Simulation throughput envelope")
    w("")
    w("Not a paper figure — the capacity of the reproduction machinery itself.")
    w("Throughput depends on the machine, so this deterministic report")
    w("carries no measured rate.  Measure it with")
    w("`python3 perfbench/run.py --workload sweep_100k --seed 1`: one")
    w("`simulate_batch` call over the 103 680-point matrix (6 stencils × 5")
    w("platforms × 3 variants × 1152 domains) per op, reported as")
    w("`throughput_per_s` together with the host it ran on and the spread")
    w("of its runs.")
    w("")
    w("The vectorized engine is gated at >= 100× the scalar baseline")
    w("(`scripts/bench_smoke.py`) and is bit-identical to it, so sweeps far")
    w("beyond the paper's 90-point matrix — full domain-size scans, dense")
    w("tuning grids — stay interactive.  The per-point marginal cost is pure")
    w("array math; only the ~90 distinct (stencil, tile, platform, variant)")
    w("groups pay codegen and cost-model time.")
    w("")

    out += _deviations(study, rows, tables)
    return "\n".join(out)


def generate_report(
    source: "DirectProvider | StoreProvider",
    config: Optional[ExperimentConfig] = None,
    golden_path: Optional[str] = DEFAULT_GOLDEN_PATH,
) -> Dict[str, str]:
    """The full reproduction artifact, as ``{filename: text}``.

    The study is ``source.study(config)`` (``config=None`` = the
    source's default); ``golden_path=None`` skips the drift artifact.
    Every artifact is deterministic in the study's numbers — the CI
    gate diffs a store-rendered report against a direct-rendered one
    byte for byte.  A full-matrix study's tables and figure series are
    computed once, as one :class:`Evidence` that all three documents
    read.
    """
    study = source.study(config)
    ev = Evidence.of(study) if is_paper_matrix(study) else None
    artifacts = {
        "TABLES.txt": tables_txt(study, ev) + "\n",
        "FIGURES.txt": figures_txt(study, ev) + "\n",
        "EXPERIMENTS.md": experiments_md(study, ev) + "\n",
    }
    if golden_path is not None:
        artifacts["DRIFT.md"] = drift_md(study, golden_path=golden_path)
    return artifacts


def write_report(artifacts: Dict[str, str], out_dir: str) -> Dict[str, str]:
    """Write each artifact under ``out_dir``; returns ``{name: path}``."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, text in artifacts.items():
        path = os.path.join(out_dir, name)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w") as f:
                f.write(text)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        paths[name] = path
    return paths
