"""Golden result baselines for the full study matrix.

The simulator is deterministic, so the canonical sweep has one right
answer: every ``(stencil, platform, variant)`` row of the study matrix,
as rendered by :func:`repro.harness.reporting.result_row` (the CSV
schema).  The checked-in baseline under ``tests/golden/`` pins that
answer; ``repro-stencil validate`` re-simulates the matrix and reports
any drift as ``golden-baseline`` violations naming the row and field.

Intentional model changes refresh the baseline with
``repro-stencil validate --update-golden`` — the diff of the golden
file then *documents* the numeric effect of the change in review.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

from repro.harness.experiments import ExperimentConfig, StudyResults
from repro.harness.reporting import CSV_FIELDS, result_row

#: Name under which golden drift is reported (not a registry invariant:
#: the baseline is data, the comparison below is the check).
GOLDEN_INVARIANT = "golden-baseline"

#: Bumped when the golden document layout changes incompatibly.
SCHEMA_VERSION = 1

_REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "..")
)

#: Default baseline location: ``tests/golden/study.json`` in the repo.
DEFAULT_GOLDEN_PATH = os.path.join(_REPO_ROOT, "tests", "golden", "study.json")


def _row_key(row: Dict[str, object]) -> str:
    return f"{row['stencil']}/{row['platform']}/{row['variant']}"


def config_doc(config: ExperimentConfig) -> Dict[str, list]:
    """The ``config`` block of a golden document: the matrix it pins."""
    return {
        "stencils": list(config.stencils),
        "variants": list(config.variants),
        "domain": list(config.domain),
        "platform_filter": list(config.platform_filter),
    }


def golden_doc(study: StudyResults) -> Dict[str, object]:
    """The JSON document pinning one study's results."""
    rows = {}
    for key in sorted(study.results):
        row = result_row(study.results[key])
        rows[_row_key(row)] = row
    return {
        "schema_version": SCHEMA_VERSION,
        "config": config_doc(study.config),
        "rows": rows,
    }


def write_golden(study: StudyResults, path: str = DEFAULT_GOLDEN_PATH) -> None:
    """Write (or refresh) the golden baseline for ``study``."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump(golden_doc(study), f, indent=2, sort_keys=True)
        f.write("\n")


def load_golden(path: str = DEFAULT_GOLDEN_PATH) -> Dict[str, object] | None:
    """The parsed golden document, or ``None`` if absent."""
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def check_golden(
    study: StudyResults, path: str = DEFAULT_GOLDEN_PATH
):
    """Compare ``study`` against the baseline at ``path``.

    Returns ``(violations, status)`` where status is ``"ok"``,
    ``"drift"``, or ``"missing"``.  Violations are imported lazily from
    :mod:`repro.validate.invariants` to keep this module's dependencies
    one-way.
    """
    from repro.validate.invariants import Violation

    violations: List[Violation] = []
    golden = load_golden(path)
    if golden is None:
        return (
            [
                Violation(
                    GOLDEN_INVARIANT,
                    "<golden>",
                    f"no baseline at {path}; run `repro-stencil validate "
                    f"--update-golden` and commit the result",
                )
            ],
            "missing",
        )
    if golden.get("schema_version") != SCHEMA_VERSION:
        return (
            [
                Violation(
                    GOLDEN_INVARIANT,
                    "<golden>",
                    f"baseline schema {golden.get('schema_version')!r} != "
                    f"expected {SCHEMA_VERSION}; refresh with --update-golden",
                )
            ],
            "drift",
        )
    current = golden_doc(study)
    if golden.get("config") != current["config"]:
        violations.append(
            Violation(
                GOLDEN_INVARIANT,
                "<golden>",
                f"baseline covers a different matrix: {golden.get('config')} "
                f"vs {current['config']}",
            )
        )
    golden_rows: Dict[str, Dict[str, object]] = golden.get("rows", {})
    current_rows: Dict[str, Dict[str, object]] = current["rows"]  # type: ignore[assignment]
    for key in sorted(set(golden_rows) - set(current_rows)):
        violations.append(
            Violation(GOLDEN_INVARIANT, key, "row in baseline but not in study")
        )
    for key in sorted(set(current_rows) - set(golden_rows)):
        violations.append(
            Violation(GOLDEN_INVARIANT, key, "row in study but not in baseline")
        )
    for key in sorted(set(current_rows) & set(golden_rows)):
        drifts = _diff_row(golden_rows[key], current_rows[key])
        if drifts:
            violations.append(
                Violation(GOLDEN_INVARIANT, key, "; ".join(drifts))
            )
    return violations, ("ok" if not violations else "drift")


def _diff_row(
    golden: Dict[str, object], current: Dict[str, object]
) -> Tuple[str, ...]:
    """Field-level drift between one golden and one current row."""
    drifts = []
    for field in CSV_FIELDS:
        g, c = golden.get(field), current.get(field)
        if g != c:
            drifts.append(f"{field}: golden {g!r} != current {c!r}")
    return tuple(drifts)
