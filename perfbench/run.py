"""Benchmark entry point: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep_100k --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched;
``--trace 1`` splits the run into an untraced half and a traced half and
prints the per-layer metrics instead.  Before the result the run prints
an ``env`` line (machine, versions, probe readings, seed, revision) and
an ``audit`` line (raw timings and the probe reading of every op), so the
host-speed adjustment can be redone by hand.  The last line is the result::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("sweep_100k", "study_report", "serve_mixed")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(name: str, seconds: float, seed: int, trace: bool, workdir: str) -> dict:
    if name == "sweep_100k":
        import sweep

        return sweep.run(seconds, seed, trace)
    if name == "study_report":
        import study

        return study.run(seconds, seed, trace, workdir)
    import serve

    return serve.run(seconds, seed, trace, workdir)


def result_line(outcome: dict, spec: dict, trace: bool) -> dict:
    """The final JSON object: every metric the spec names, with its unit."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        value = float(outcome["metrics"].get(entry["name"], 0.0))
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    return {
        "correct": outcome["failed"] == 0 and finite,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import common

    common.scrub_environment()
    spec = load_spec()
    workdir = common.workdir(args.workload)
    try:
        outcome = run_workload(
            args.workload, args.seconds, args.seed, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))  # left only when it is empty
        except OSError:
            pass
    common.emit("env", common.environment(args.seed, outcome["probes"]))
    common.emit("audit", outcome["audit"])
    print(json.dumps(result_line(outcome, spec, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
