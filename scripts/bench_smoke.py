#!/usr/bin/env python
"""Smoke gates for what no unit test or perfbench workload covers.

1. **cachesim** — the vectorized :meth:`CacheSim.access_array` must
   match the scalar oracle on a ~1M-access stencil trace and beat it
   by >= 5x (target 10x).
2. **batch** — ``run_study()`` must equal a scalar
   ``simulate()`` loop over the 90-point study, results and counters;
   a cold ~100k-point ``simulate_batch`` must beat a scalar probe by
   >= 100x and match it on every probed point.
3. **chaos** (``--inject-faults [SEED]``) — the sweep under seeded
   transient faults must recover bit-identically; its span tree lands
   in ``--trace-out`` (Chrome format).

Gate values print to stdout.  ``--telemetry-db PATH`` (default
``$REPRO_TELEMETRY_DB``) appends the run to the telemetry warehouse and
prints its ``obs diff`` verdict as a soft gate.  Exit status: 0 = all
gates passed, 1 = a gate failed or crashed (a crash prints the span
tree to stderr).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import traceback

import numpy as np

from repro import harness, obs
from repro.errors import ObservabilityError
from repro.codegen import clear_codegen_memo
from repro.dsl.shapes import by_name
from repro.gpu.batch import BatchPoint, simulate_batch
from repro.gpu.cache import CacheSim
from repro.gpu.simulator import simulate
from repro.resilience import RetryPolicy, dev_fault_plan

#: Vectorized CacheSim speedup: hard floor / soft target over the oracle.
VECTOR_SPEEDUP_FLOOR = 5.0
VECTOR_SPEEDUP_TARGET = 10.0

#: Batch-engine gate: vectorized throughput over the scalar baseline at
#: the ~100k-point scale (hard floor), and the number of scalar points
#: the baseline probe times.
BATCH_SPEEDUP_FLOOR = 100.0
BATCH_PROBE_POINTS = 200

#: Counters the study must move exactly as far as the scalar loop does.
WATCHED_COUNTERS = ("simulate.calls", "simulate.tiles", "codegen.vector_ops")

#: The hard condition behind each gate value.  The other values (rates,
#: retry counts) record as passed: they trend without ever gating.
GATE_PASSES = {
    "cachesim.speedup": lambda v: v >= VECTOR_SPEEDUP_FLOOR,
    "batch.speedup_vs_serial": lambda v: v >= BATCH_SPEEDUP_FLOOR,
    "chaos.failed_points": lambda v: v == 0,
}


def _counted(fn, *args, **kw) -> tuple:
    """``fn(*args, **kw)`` and how far it moved each watched counter."""
    counters = [obs.get_registry().counter(n) for n in WATCHED_COUNTERS]
    before = [c.value for c in counters]
    out = fn(*args, **kw)
    return out, {c.name: c.value - b for c, b in zip(counters, before)}


def element_trace(
    n=(55, 55, 55), elem_bytes=8, line_bytes=128
) -> np.ndarray:
    """~1M-access per-element read trace of a 7-point star sweep.

    One address per element *load* (every tap of every output element,
    taps consecutive per element), line-granular — the access pattern a
    scalar stencil kernel actually presents to a cache.
    """
    ni, nj, nk = n
    offs = ((0, 0, 0), (0, 0, -1), (0, 0, 1), (0, -1, 0), (0, 1, 0),
            (-1, 0, 0), (1, 0, 0))
    ii, jj, kk = np.meshgrid(
        np.arange(1, ni - 1), np.arange(1, nj - 1), np.arange(1, nk - 1),
        indexing="ij",
    )
    taps = [
        (((ii + di) * nj + (jj + dj)) * nk + (kk + dk)).reshape(-1)
        for di, dj, dk in offs
    ]
    elems = np.stack(taps, axis=-1).reshape(-1)  # element-major order
    return elems * elem_bytes // line_bytes


def cachesim_bench(failures: list, doc: dict) -> None:
    """Gate 1: vectorized path vs the scalar oracle, 1M-access trace."""
    trace = element_trace()
    kw = dict(capacity_bytes=1024 * 1024, line_bytes=128, associativity=0)

    scalar = CacheSim(vectorize=False, **kw)
    t0 = time.perf_counter()
    scalar_misses = scalar.access_array(trace)
    scalar_s = time.perf_counter() - t0

    vector = CacheSim(vectorize=True, **kw)
    t0 = time.perf_counter()
    vector_misses = vector.access_array(trace)
    vector_s = time.perf_counter() - t0

    speedup = scalar_s / vector_s if vector_s > 0 else float("inf")
    doc["cachesim"] = {
        "speedup": round(speedup, 1),
        "vectorized_accesses_per_s": round(trace.size / vector_s),
    }
    print(
        f"cachesim: {trace.size} accesses, scalar {scalar_s * 1e3:.0f} ms, "
        f"vectorized {vector_s * 1e3:.0f} ms ({speedup:.1f}x)"
    )

    if vector_misses != scalar_misses:
        failures.append(
            f"vectorized CacheSim diverged from the oracle: "
            f"{vector_misses} vs {scalar_misses} misses"
        )
    if vector.stats != scalar.stats:
        failures.append("vectorized CacheSim statistics differ from oracle")
    if speedup < VECTOR_SPEEDUP_FLOOR:
        failures.append(
            f"vectorized CacheSim speedup {speedup:.1f}x below the "
            f"{VECTOR_SPEEDUP_FLOOR}x floor"
        )
    elif speedup < VECTOR_SPEEDUP_TARGET:
        print(
            f"WARNING: cachesim speedup {speedup:.1f}x below the "
            f"{VECTOR_SPEEDUP_TARGET}x target (machine under load?)"
        )


def _cold_study(**kw) -> harness.StudyResults:
    """One cold full sweep (memo + codegen memo cleared)."""
    harness.clear_study_cache()
    clear_codegen_memo()
    return harness.run_study(**kw)


def _batch_matrix() -> list:
    """A ~100k-point matrix: the full study combos x a domain lattice.

    Domain extents respect every platform's default tile (``ni`` a
    multiple of 64 covers the widest SIMD tile; ``nj``/``nk`` multiples
    of 4), so every point is valid on every platform.  6 stencils x 5
    platforms x 3 variants x 1152 domains = 103 680 points.
    """
    config = harness.ExperimentConfig()
    stencils = [(name, by_name(name).build()) for name in config.stencils]
    platforms = config.platforms()
    ni_axis = [64 * m for m in range(1, 9)]          # 64 .. 512
    nj_axis = [4 * m for m in range(1, 13)]          # 4 .. 48
    nk_axis = [4 * m for m in range(1, 13)]          # 4 .. 48
    return [
        BatchPoint(
            stencil=stencil,
            variant=variant,
            platform=plat,
            domain=(ni, nj, nk),
            stencil_name=name,
        )
        for name, stencil in stencils
        for plat in platforms
        for variant in config.variants
        for ni in ni_axis
        for nj in nj_axis
        for nk in nk_axis
    ]


def batch_bench(failures: list, doc: dict) -> None:
    """Gate 2: the batch engine vs scalar simulate(), 90 and ~100k points."""
    # (a): scalar oracle loop vs the study, results + counters.
    config = harness.ExperimentConfig()
    platforms = {p.name: p for p in config.platforms()}

    def oracle_loop() -> dict:
        return {
            key: simulate(
                by_name(key[0]).build(), key[2], platforms[key[1]],
                domain=config.domain, stencil_name=key[0],
            )
            for key in config.keys()
        }

    clear_codegen_memo()
    oracle, oracle_deltas = _counted(oracle_loop)
    study, study_deltas = _counted(_cold_study)
    harness.clear_study_cache()

    if study.results != oracle or list(study.results) != list(oracle):
        failures.append("batch study differs from the scalar simulate() loop")
    if study_deltas != oracle_deltas:
        failures.append(
            f"batch study counters diverged from the scalar loop: "
            f"{study_deltas} vs {oracle_deltas}"
        )

    # (b): 100k-point batch vs a scalar baseline probe.  Best of two
    # reps, each with a cold codegen memo: the first also pays one-off
    # heap growth for the result columns, which is not engine throughput.
    matrix = _batch_matrix()
    batch_s = float("inf")
    for _ in range(2):
        clear_codegen_memo()
        batch_results = None
        t0 = time.perf_counter()
        batch_results = simulate_batch(matrix, check_invariants=False)
        batch_s = min(batch_s, time.perf_counter() - t0)
    batch_pts_per_s = len(matrix) / batch_s

    stride = max(1, len(matrix) // BATCH_PROBE_POINTS)
    sample_idx = list(range(0, len(matrix), stride))[:BATCH_PROBE_POINTS]
    t0 = time.perf_counter()
    scalar_sample = [
        simulate(p.stencil, p.variant, p.platform, domain=p.domain,
                 stencil_name=p.stencil_name, check_invariants=False)
        for p in (matrix[i] for i in sample_idx)
    ]
    probe_s = time.perf_counter() - t0
    probe_pts_per_s = len(sample_idx) / probe_s
    speedup = batch_pts_per_s / probe_pts_per_s

    mismatches = sum(
        1 for i, ref in zip(sample_idx, scalar_sample)
        if batch_results[i] != ref
    )
    if mismatches:
        failures.append(
            f"batch results diverged from scalar simulate() on "
            f"{mismatches}/{len(sample_idx)} sampled points"
        )
    if speedup < BATCH_SPEEDUP_FLOOR:
        failures.append(
            f"batch speedup {speedup:.0f}x below the "
            f"{BATCH_SPEEDUP_FLOOR:.0f}x floor "
            f"({batch_pts_per_s:.0f} vs {probe_pts_per_s:.0f} pts/s)"
        )

    doc["batch"] = {"points_per_s_100k": round(batch_pts_per_s),
                    "speedup_vs_serial": round(speedup, 1)}
    print(
        f"batch: {len(matrix)} points in {batch_s:.2f} s "
        f"({batch_pts_per_s:.0f} pts/s, {speedup:.0f}x scalar)"
    )


def chaos_bench(failures: list, doc: dict, seed: int, trace_out: str) -> None:
    """Gate 3: the sweep under injected transient faults must recover.

    The faults are the CLI's ``--inject-faults`` plan for ``seed``
    (:func:`repro.resilience.dev_fault_plan`).  The retry counters must
    account for every injected fault.
    """
    config = harness.ExperimentConfig()
    plan = dev_fault_plan(seed, config.keys())
    policy = RetryPolicy(retries=3, backoff_s=0.01)

    clean_study = _cold_study()

    retries_counter = obs.get_registry().counter("exec.retries")
    retries_before = retries_counter.value
    roots_before = len(obs.get_tracer().roots())
    chaotic_study = _cold_study(policy=policy, fault_plan=plan)
    harness.clear_study_cache()
    retries = retries_counter.value - retries_before

    failed = len(chaotic_study.failed)
    doc["chaos"] = {"retries": retries, "failed_points": failed}
    print(
        f"chaos: seed {seed}, {plan.count('raise')} raises + "
        f"{plan.count('corrupt')} corruptions injected, {retries} retries, "
        f"{failed} failed points"
    )

    if len(plan) == 0:
        failures.append(
            f"chaos seed {seed} injected no faults over {len(config.keys())} "
            f"keys — pick another seed"
        )
    if not chaotic_study.complete:
        failures.append(
            f"chaotic sweep did not recover: {failed} "
            f"point(s) still failed after retries"
        )
    if chaotic_study.results != clean_study.results:
        failures.append(
            "chaotic sweep results differ from the fault-free serial sweep"
        )
    if len(plan) and retries < len(plan):
        failures.append(
            f"only {retries} retries recorded for {len(plan)} injected "
            f"faults — injections were not exercised"
        )
    if trace_out:
        obs.write_trace(
            obs.get_tracer().roots()[roots_before:], trace_out, fmt="chrome"
        )
        print(f"chaos trace written to {trace_out}")


def _gate_results(doc: dict) -> dict:
    """Each leg's ``doc`` numbers as named ``(value, passed)`` gates."""
    gates = {}
    for leg, values in doc.items():
        for name, value in values.items():
            passes = GATE_PASSES.get(f"{leg}.{name}")
            gates[f"{leg}.{name}"] = (
                float(value), passes is None or passes(value)
            )
    return gates


def config_hash(args: argparse.Namespace) -> str:
    """Baseline identity of a run: the arguments that decide what runs,
    so a leg that crashes before recording keeps its baseline."""
    config = {"inject_faults": args.inject_faults}
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()[:16]


def record_telemetry(
    db_path: str, doc: dict, failures: list, duration_s: float,
    args: argparse.Namespace,
) -> None:
    """Append this bench run to the warehouse and print the soft verdict.

    Cross-run drift warns rather than fails (CI's telemetry job turns
    it into a hard check on a controlled history).
    """
    try:
        with obs.TelemetryStore(db_path) as store:
            run_id = store.record_run(
                "bench_smoke",
                gates=_gate_results(doc),
                config_hash=config_hash(args),
                duration_s=duration_s,
                extra={"gate_failures": list(failures)},
            )
            report = obs.diff_run(store, run_id=run_id)
        print(f"telemetry: run {run_id} appended to {db_path}")
        print(report.render())
        if not report.ok:
            print(
                "WARNING: telemetry drift vs rolling baseline (soft gate, "
                "not failing the build)"
            )
    except (OSError, ObservabilityError) as exc:
        failures.append(f"telemetry recording failed: {exc}")


def _run_gate(name: str, failures: list, fn, *args) -> None:
    """Run one gate; a crash prints the span tree and fails the run."""
    try:
        fn(failures, *args)
    except Exception as exc:
        traceback.print_exc()
        message = f"{name} gate crashed: {type(exc).__name__}: {exc}"
        print(f"\n{message}", file=sys.stderr)
        print("span tree at time of crash:", file=sys.stderr)
        print(obs.render_tree(obs.get_tracer().roots(), max_depth=3),
              file=sys.stderr)
        failures.append(message)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--inject-faults", nargs="?", const=0, type=int, default=None,
        metavar="SEED",
        help="also run the chaos gate: sweep under seeded transient "
             "faults, assert full recovery (default seed 0)",
    )
    parser.add_argument(
        "--trace-out", default="CHAOS_trace.json",
        help="Chrome trace of the chaos-gate sweep (default %(default)s; "
             "only written with --inject-faults)",
    )
    parser.add_argument(
        "--telemetry-db", default=None, metavar="PATH",
        help="append the run to this telemetry warehouse and print its "
        "obs diff verdict (default: $REPRO_TELEMETRY_DB or off)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)

    # Every simulate() in the gates asserts repro.validate's invariants.
    os.environ.setdefault("REPRO_VALIDATE", "1")

    # Trace the whole run so a crash anywhere can show its span tree.
    obs.set_tracer(obs.Tracer(enabled=True))
    obs.set_registry(obs.MetricsRegistry())

    failures: list = []
    doc: dict = {}
    t_start = time.perf_counter()

    _run_gate("cachesim", failures, cachesim_bench, doc)
    _run_gate("batch", failures, batch_bench, doc)
    if args.inject_faults is not None:
        _run_gate(
            "chaos", failures, chaos_bench, doc,
            args.inject_faults, args.trace_out,
        )

    telemetry_db = obs.resolve_db_path(args.telemetry_db)
    if telemetry_db:
        record_telemetry(
            telemetry_db, doc, failures, time.perf_counter() - t_start, args
        )

    if failures:
        print("\nPERFORMANCE GATE FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nperformance gate OK: cachesim parity, batch parity")
    return 0


if __name__ == "__main__":
    sys.exit(main())
