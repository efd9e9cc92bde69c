"""Model-invariant validation pass (``repro-stencil validate``).

The simulator's credibility rests on its analytic models staying
physically sane; this package makes sanity *executable*:

* :mod:`repro.validate.invariants` — a registry of physical-sanity
  invariants over :class:`~repro.gpu.simulator.SimulationResult` values
  (compulsory traffic is a lower bound, timing terms are positive,
  occupancy is a fraction, Pennycook's P never beats the worst platform,
  HBM traffic and shuffle time grow with stencil radius) plus
  model-contract *probes* that exercise the models directly (error
  contracts, band partitions, the layer-condition shared-plane rule,
  checkpoint-resume semantics);
* :mod:`repro.validate.oracle` — cross-model consistency checks: the
  analytic layer-condition traffic against a trace-driven LRU
  :class:`~repro.gpu.cache.CacheSim` replay, and coalescing sector
  arithmetic against a brute-force access-pattern replay;
* :mod:`repro.validate.golden` — golden result baselines for the full
  study matrix under ``tests/golden/``, with an ``--update-golden``
  refresh path;
* :mod:`repro.validate.claims` — the paper's claims about Tables 2–5
  and Figures 3–7, each measured on the paper's matrix against a band.

``validate_study`` assembles all four into one report; the CLI renders
it and exits non-zero on any violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.validate import oracle as _oracle  # noqa: F401  (registers probes)
from repro.validate.claims import evaluate, is_paper_matrix
from repro.validate.golden import (
    DEFAULT_GOLDEN_PATH,
    check_golden,
    golden_doc,
    load_golden,
    write_golden,
)
from repro.validate.invariants import (
    Invariant,
    Violation,
    check_result,
    check_study,
    invariant,
    registered,
    run_probes,
)

__all__ = [
    "DEFAULT_GOLDEN_PATH",
    "Invariant",
    "ValidationReport",
    "Violation",
    "check_golden",
    "check_result",
    "check_study",
    "golden_doc",
    "invariant",
    "load_golden",
    "registered",
    "render_violations",
    "run_probes",
    "validate_study",
    "write_golden",
]


@dataclass
class ValidationReport:
    """Outcome of one full validation pass."""

    violations: List[Violation] = field(default_factory=list)
    checked_points: int = 0
    probes_run: int = 0
    #: Paper claims evaluated (0 off the paper's matrix).
    claims_checked: int = 0
    #: Golden-baseline outcome: ok / drift / missing / updated / skipped.
    golden: str = "skipped"

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        """Human-readable report: summary line + violation table."""
        head = (
            f"validate: {self.checked_points} matrix points, "
            f"{len(registered())} invariants, {self.probes_run} probes, "
            f"{self.claims_checked} paper claims, golden baseline: {self.golden}"
        )
        if self.ok:
            return head + "\nall invariants hold"
        lines = [head, f"{len(self.violations)} violation(s):", ""]
        lines.append(render_violations(self.violations))
        return "\n".join(lines)


def render_violations(violations: List[Violation]) -> str:
    """Fixed-width table of violations: invariant, point, detail."""
    if not violations:
        return "(no violations)"
    w_inv = max(len("invariant"), *(len(v.invariant) for v in violations))
    w_pt = max(len("point"), *(len(v.point) for v in violations))
    lines = [
        f"{'invariant':<{w_inv}}  {'point':<{w_pt}}  detail",
        f"{'-' * w_inv}  {'-' * w_pt}  {'-' * 6}",
    ]
    for v in violations:
        lines.append(f"{v.invariant:<{w_inv}}  {v.point:<{w_pt}}  {v.message}")
    return "\n".join(lines)


def validate_study(
    study,
    golden_path: Optional[str] = DEFAULT_GOLDEN_PATH,
    update_golden: bool = False,
    probes: bool = True,
) -> ValidationReport:
    """Run the full validation pass over a completed study.

    Checks every simulated matrix point against the per-result
    invariants, the study-level invariants (Pennycook bounds), the
    model-contract probes and oracle cross-checks, the paper's claims
    (on the paper's matrix only; an out-of-band claim is a violation
    named by its id) and — unless ``golden_path`` is ``None`` — the
    golden baseline (which ``update_golden`` rewrites instead of
    checking).
    """
    report = ValidationReport()
    report.violations.extend(check_study(study))
    report.checked_points = len(study.results)
    if is_paper_matrix(study):
        rows = evaluate(study)
        report.claims_checked = len(rows)
        report.violations.extend(
            Violation(
                c.id, f"<{c.section}>",
                f"{c.text}: {format(measured, c.fmt)} outside band "
                f"{c.band_text()} (paper: {c.paper})",
            )
            for c, measured, ok in rows
            if not ok
        )
    if probes:
        probe_violations, report.probes_run = run_probes()
        report.violations.extend(probe_violations)
    if golden_path is None:
        report.golden = "skipped"
    elif update_golden:
        write_golden(study, golden_path)
        report.golden = "updated"
    else:
        golden_violations, report.golden = check_golden(study, golden_path)
        report.violations.extend(golden_violations)
    return report
