"""Self-tests of the benchmark itself (not part of the program's suite).

Run from the repository root::

    python3 -m pytest -q perfbench/tests

They take a few minutes: each one runs short benchmark runs.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run as bench_run  # noqa: E402

SPEC = bench_run.load_spec()
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

#: The planted slowdown in ``ResultsStore.load_study``.
PLANTED_S = 0.030

BUSY = "while True: pass"

#: Length of the sweep runs the planted slowdown must leave unmoved:
#: about four whole-matrix ops, so their medians are not single ops.
SWEEP_SECONDS = 16

#: Plain and planted-burner server runs set against each other.
BURNER_PAIRS = 3


def run_cli(workload: str, seconds: int, seed: int = 1, trace: int = 0) -> tuple:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    audit = json.loads(next(line[6:] for line in lines if line.startswith("audit ")))
    return json.loads(lines[-1]), audit


def raw_median_ms(audit: dict, kind: str) -> float:
    return statistics.median(raw for k, raw, _ in audit["ops"] if k == kind)


def shift(after: float, before: float) -> float:
    return abs(after - before) / before


def test_adjusted_timing_holds_beside_busy_loops():
    """Two competing busy loops slow the raw timing; the adjusted one holds."""
    base, base_audit = run_cli("study_report", 8)
    hogs = [subprocess.Popen([sys.executable, "-c", BUSY]) for _ in range(2)]
    try:
        time.sleep(0.5)
        loaded, loaded_audit = run_cli("study_report", 8)
    finally:
        for hog in hogs:
            hog.kill()
            hog.wait()
    assert base["correct"] and loaded["correct"]
    raw_shift = shift(raw_median_ms(loaded_audit, "cold"), raw_median_ms(base_audit, "cold"))
    adjusted_shift = shift(
        loaded["metrics"]["cold_p50_ms"]["value"], base["metrics"]["cold_p50_ms"]["value"]
    )
    bound = BOUND["cold_p50_ms"]
    assert raw_shift > bound, f"busy loops did not slow the raw timing ({raw_shift:.3f})"
    assert adjusted_shift <= bound, f"adjusted timing moved {adjusted_shift:.3f} > {bound}"


@pytest.fixture
def planted_slowdown(monkeypatch):
    from repro.results.store import ResultsStore

    original = ResultsStore.load_study

    def slow_load_study(self, *args, **kwargs):
        time.sleep(PLANTED_S)
        return original(self, *args, **kwargs)

    def plant():
        monkeypatch.setattr(ResultsStore, "load_study", slow_load_study)

    return plant


def test_planted_slowdown_is_charged_to_results_load(tmp_path, planted_slowdown):
    """A delay in ``load_study`` shows in ``results.load_ms`` and in the
    study_report warm latency, and nowhere in sweep_100k."""
    import study
    import sweep

    def study_run(name: str, trace: bool) -> dict:
        workdir = tmp_path / name
        workdir.mkdir()
        return study.run(6, 1, trace, str(workdir))["metrics"]

    clean_warm = study_run("clean", False)["warm_p50_ms"]
    clean_sweep = sweep.run(SWEEP_SECONDS, 1, False)["metrics"]
    clean_trace = study_run("clean-trace", True)

    planted_slowdown()
    slow_warm = study_run("slow", False)["warm_p50_ms"]
    slow_sweep = sweep.run(SWEEP_SECONDS, 1, False)["metrics"]
    slow_trace = study_run("slow-trace", True)
    sweep_trace = sweep.run(SWEEP_SECONDS, 1, True)["metrics"]

    # Traced: the delay lands in results.load_ms (a mean over all ops of the
    # traced phase, of which at least half are warm ops that load once).
    moved = slow_trace["results.load_ms"] - clean_trace["results.load_ms"]
    assert moved >= PLANTED_S * 1e3 / 2, moved
    render_moved = slow_trace["results.render_ms"] - clean_trace["results.render_ms"]
    assert abs(render_moved) < moved / 2, render_moved
    # End to end: study_report warm latency moves by about the delay ...
    assert slow_warm - clean_warm >= PLANTED_S * 1e3 * 0.5
    # ... and sweep_100k neither loads from the store nor moves.
    assert sweep_trace["results.load_ms"] == 0
    for name in ("throughput_per_s", "warm_p50_ms", "cold_p50_ms"):
        assert shift(slow_sweep[name], clean_sweep[name]) <= BOUND[name], name


def test_server_cpu_burner_raises_adjusted_serve_latency(tmp_path, monkeypatch):
    """A CPU burner planted in the server slows its requests.  The host
    probes are taken while no request runs, so they do not take the
    burner in, and the adjusted cold latency rises instead of hiding it.

    Runs alternate plain and planted servers; each planted run is set
    against the plain run just before it, so host drift over the test
    cancels, and the median of the pairs is read.
    """
    import serve

    plain, burner = serve.CHILD, os.path.join(HERE, "burner_child.py")
    cold_ratios, probe_ratios = [], []
    for i in range(BURNER_PAIRS):
        pair = []
        for name, child in (("base", plain), ("burn", burner)):
            monkeypatch.setattr(serve, "CHILD", child)
            workdir = tmp_path / f"{name}{i}"
            workdir.mkdir()
            out = serve.run(10, 1, False, str(workdir))
            assert out["failed"] == 0
            pair.append(out)
        base, burn = pair
        cold_ratios.append(burn["metrics"]["cold_p50_ms"] / base["metrics"]["cold_p50_ms"])
        probe_ratios.append(statistics.median(burn["probes"]) / statistics.median(base["probes"]))
    assert statistics.median(cold_ratios) > 1, f"cold_p50_ms did not rise: {cold_ratios}"
    assert statistics.median(probe_ratios) < 1.10, f"the probes took the burner in: {probe_ratios}"


def test_traced_run_emits_every_per_layer_metric():
    result, _ = run_cli("study_report", 6, trace=1)
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == names
    assert result["correct"]
    for name in ("gpu.simulate.calls", "harness.checkpoint.writes", "results.ingest_ms",
                 "results.load_ms", "results.render_ms", "exec.dispatch.serial"):
        assert result["metrics"][name]["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark present, exit non-zero."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_100k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
