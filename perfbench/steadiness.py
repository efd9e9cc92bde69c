"""Steadiness check: one set of runs per workload, spread against bounds.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --seeds 10 --out set1.json
    python3 perfbench/steadiness.py --seeds 10 --out set2.json --against set1.json

Runs ``run.py`` once per seed (1 to ``--seeds``) and workload at
``BENCHMARK.json``'s ``run_seconds``, one run at a time, and prints
a markdown table: for every end-to-end metric, the median of its values
and their quartile distance as a share of the median
(``statistics.quantiles(values, n=4)``), set against the metric's bound
from ``BENCHMARK.json``.  A spread at or
below a third of the bound is ``steady``.  With ``--against``, each
median is also compared with the same metric's median in an earlier
set: a shift in the metric's worse direction beyond its bound is a
``DRIFT``.  ``--out`` keeps every run's result and audit lines.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    audit = next((line[6:] for line in lines if line.startswith("audit ")), "{}")
    return {"seed": seed, "result": json.loads(lines[-1]), "audit": json.loads(audit)}


def summarize(runs: list, spec: dict, earlier: dict | None) -> list:
    rows = []
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        row = {
            "metric": name,
            "median": statistics.median(values),
            "spread": spread,
            "bound": bound,
            "verdict": "steady" if spread <= bound / 3 else (
                "within" if spread <= bound else "NOISY"),
        }
        if earlier is not None:
            before = earlier[name]
            shift = (row["median"] - before) / before
            worse = shift if metric["better"] == "lower" else -shift
            row["shift"] = shift
            row["verdict"] += "" if worse <= bound else " DRIFT"
        rows.append(row)
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", required=True)
    parser.add_argument("--against", help="an earlier --out file to compare medians with")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    earlier = None
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)["summary"]
    doc = {"started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "seconds": seconds, "runs": {}, "summary": {}}
    for workload in workloads:
        runs = []
        for seed in range(1, args.seeds + 1):
            runs.append(one_run(workload, seed, seconds))
            print(f"{workload} seed {seed}: "
                  + json.dumps({k: round(v["value"], 4) for k, v in
                                runs[-1]["result"]["metrics"].items()}), flush=True)
        doc["runs"][workload] = runs
        rows = summarize(
            runs, spec, None if earlier is None else earlier.get(workload)
        )
        doc["summary"][workload] = {row["metric"]: row["median"] for row in rows}
        print(f"\n### {workload} ({len(runs)} runs of {seconds} s)\n")
        print("| metric | median | spread | bound | shift | verdict |")
        print("|---|---|---|---|---|---|")
        for row in rows:
            shift = f"{row['shift']:+.3f}" if "shift" in row else "-"
            print(f"| {row['metric']} | {row['median']:.4g} | {row['spread']:.3f} | "
                  f"{row['bound']:.2f} | {shift} | {row['verdict']} |")
        print(flush=True)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
