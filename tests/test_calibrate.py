"""Smoke test: ``scripts/calibrate.py`` runs and prints the report's P."""

import os
import pathlib
import re
import subprocess
import sys

from repro import harness

REPO_ROOT = pathlib.Path(__file__).parent.parent


def test_calibrate_overall_p_matches_tables():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "calibrate.py")],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    printed = {
        int(table): int(pct)
        for table, pct in re.findall(
            r"^Overall P \(Table (\d)\): (\d+)%", result.stdout, re.M
        )
    }
    study = harness.run_study()
    assert printed == {
        3: round(100 * harness.table3(study).overall),
        5: round(100 * harness.table5(study).overall),
    }
