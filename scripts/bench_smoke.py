#!/usr/bin/env python
"""Performance smoke gates: observability, the parallel sweep engine,
the vectorized cache simulator, and (optionally) chaos testing.

CI runs this after the unit tests.  Gates:

1. **observability** — one traced ``simulate()`` must emit every
   pipeline-stage span and bump the expected counters, and the disabled
   tracer must stay near-free.  If an instrumentation point is ever
   dropped (a refactor removes a ``with span(...)``), the trace goes
   dark silently — this turns that into a hard failure.
2. **cache simulator** — the vectorized :meth:`CacheSim.access_array`
   path must produce *identical* miss counts to the scalar oracle on a
   ~1M-access per-element stencil trace, and must beat it by a healthy
   margin (hard floor 5x, target 10x).
3. **sweep** — one cold 90-point study, timed, so its points/s trends
   in the warehouse.
4. **batch engine** — ``run_study(parallel=jobs)`` must reproduce a
   scalar ``simulate()`` loop over the 90-point study bit-for-bit
   (results *and* counters), and a cold ~100k-point ``simulate_batch``
   must beat a scalar baseline probe by >= 100x with sampled
   spot-checks against the oracle.
5. **chaos** (``--inject-faults [SEED]``) — the same sweep under a
   seeded transient-fault plan (raised errors + corrupted payloads)
   must complete via retries and stay bit-identical to the fault-free
   run; the fault-injected points spread over ``--jobs`` pool workers,
   and the faulted run's span tree lands in ``--trace-out`` as a
   Chrome trace for inspection.
6. **serve** (``--serve``) — request RTT p50/p95 through the study
   service (submit → poll → fetch over real HTTP) vs direct
   ``run_study``: every served study must be byte-identical to the
   direct run, a duplicate pass must be answered entirely from the
   shared store (dedup RTT p95 under a hard ceiling, zero simulation),
   and the ``gate.serve.*`` numbers trend in the warehouse.

Timings land in ``BENCH_sweep.json`` (``--out``) so perf regressions
are visible in review diffs.  With ``--telemetry-db PATH`` (default
``$REPRO_TELEMETRY_DB``) the whole run — span tree, counters, and the
gate values above — is also appended to the persistent telemetry
warehouse and judged against its rolling baseline; the ``obs diff``
verdict prints at the end as a *soft* gate (cross-run drift warns, only
the hard in-run gates fail the build).

The whole run is traced: if any gate crashes (e.g. a worker dies), the
error and the span tree at the time of the crash are printed to stderr
and the exit status is 1 — a crash is never a silent pass.

Exit status: 0 = all gates passed, 1 = something regressed or crashed.
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
from repro.gpu.progmodel import platform
from repro.gpu.simulator import simulate
from repro.resilience import FaultPlan, RetryPolicy

#: Every span one simulate() call must produce, pipeline order.
EXPECTED_SPANS = (
    "simulate",
    "codegen",
    "codegen.generate",
    "cost",
    "traffic",
    "traffic.estimate",
    "timing",
)

#: Counters one simulate() call must bump.
EXPECTED_COUNTERS = ("simulate.calls", "simulate.tiles", "codegen.vector_ops")

#: Vectorized CacheSim speedup: hard floor / soft target over the oracle.
VECTOR_SPEEDUP_FLOOR = 5.0
VECTOR_SPEEDUP_TARGET = 10.0

#: Chaos-leg fault rates (transient kinds only: the sweep must recover).
CHAOS_RAISE_RATE = 0.06
CHAOS_CORRUPT_RATE = 0.03

#: Batch-engine gate: vectorized throughput over the scalar baseline at
#: the ~100k-point scale (hard floor), and the number of scalar points
#: the baseline probe times.
BATCH_SPEEDUP_FLOOR = 100.0
BATCH_PROBE_POINTS = 200

#: Serve gate: distinct tenant requests timed through the service, and
#: the hard ceiling on the p95 RTT of a dedup'd (store-answered)
#: duplicate — a pure HTTP + hash lookup that must never grow a sweep.
SERVE_REQUESTS = 6
SERVE_DEDUP_P95_CEILING_MS = 1000.0


def _counter_value(name: str) -> int:
    try:
        return obs.get_registry().get(name).value
    except Exception:
        return 0


def obs_gate(failures: list) -> None:
    """Gate 1: the instrumentation regression check."""
    tracer = obs.get_tracer()
    registry = obs.get_registry()

    result = simulate(
        by_name("13pt").build(),
        "bricks_codegen",
        platform("A100", "CUDA"),
        domain=(256, 256, 256),
        stencil_name="13pt",
    )
    print(result.describe())
    print()
    print(obs.render_tree(tracer.roots()))
    print()
    print(registry.render_table())
    print()

    recorded = {s.name for s in tracer.spans()}
    for name in EXPECTED_SPANS:
        if name not in recorded:
            failures.append(f"missing pipeline span: {name}")
    for name in EXPECTED_COUNTERS:
        try:
            if registry.get(name).value <= 0:
                failures.append(f"counter never incremented: {name}")
        except Exception:
            failures.append(f"missing counter: {name}")

    # Disabled-tracer overhead guard: span call sites must stay near-free.
    # Swap in a disabled tracer for the measurement, then restore the
    # run-wide one so later gates (and crash reports) keep their spans.
    obs.set_tracer(obs.Tracer(enabled=False))
    t0 = time.perf_counter()
    for _ in range(100_000):
        with obs.span("hot", a=1):
            pass
    elapsed = time.perf_counter() - t0
    obs.set_tracer(tracer)
    print(f"disabled-tracer overhead: {elapsed * 1e3:.1f} ms / 100k spans")
    if elapsed > 2.0:
        failures.append(
            f"disabled tracer too slow: {elapsed:.2f}s per 100k spans"
        )


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
    """Gate 2: vectorized path vs the scalar oracle, 1M-access trace."""
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
        "accesses": int(trace.size),
        "capacity_bytes": kw["capacity_bytes"],
        "associativity": "full",
        "misses": int(vector_misses),
        "scalar_s": round(scalar_s, 4),
        "vectorized_s": round(vector_s, 4),
        "scalar_accesses_per_s": round(trace.size / scalar_s),
        "vectorized_accesses_per_s": round(trace.size / vector_s),
        "speedup": round(speedup, 1),
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


def _timed_study(parallel: int, **kw) -> tuple:
    """One cold full sweep (memo + codegen memo cleared), timed."""
    harness.clear_study_cache()
    clear_codegen_memo()
    t0 = time.perf_counter()
    study = harness.run_study(parallel=parallel, **kw)
    return study, time.perf_counter() - t0


def sweep_bench(failures: list, doc: dict, jobs: int) -> None:
    """Gate 3: one cold 90-point sweep, timed (throughput record only)."""
    study, serial_s = _timed_study(parallel=1)
    harness.clear_study_cache()
    points = len(study)
    doc["sweep"] = {
        "points": points,
        "jobs": jobs,
        "serial_s": round(serial_s, 3),
        "serial_points_per_s": round(points / serial_s, 1),
    }
    print(f"sweep: {points} points in {serial_s:.3f} s")
    if not study.complete:
        failures.append(f"sweep left {len(study.failed)} failed points")


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


def batch_bench(failures: list, doc: dict, jobs: int) -> None:
    """Gate 4: the batch engine vs the scalar oracle.

    Three legs: (a) the 90-point ``run_study(parallel=jobs)`` must be
    identical to a scalar ``simulate()`` loop over the same points —
    results *and* the ``simulate.*`` counter deltas; (b) the study's own
    points/s; (c) a cold ~100k-point ``simulate_batch`` must beat a
    scalar baseline probe (same points, same ``check_invariants=False``)
    by >= 100x, with a sampled spot-check against scalar ``simulate()``.
    """
    watched = ("simulate.calls", "simulate.tiles", "codegen.vector_ops")

    def snap() -> dict:
        return {name: _counter_value(name) for name in watched}

    # (a) + (b): scalar oracle loop vs the study, results + counters.
    config = harness.ExperimentConfig()
    platforms = {p.name: p for p in config.platforms()}
    clear_codegen_memo()
    before = snap()
    oracle = {
        key: simulate(
            by_name(key[0]).build(), key[2], platforms[key[1]],
            domain=config.domain, stencil_name=key[0],
        )
        for key in config.keys()
    }
    after = snap()
    oracle_deltas = {k: after[k] - before[k] for k in watched}

    before = snap()
    study, study_s = _timed_study(parallel=jobs)
    after = snap()
    harness.clear_study_cache()
    study_deltas = {k: after[k] - before[k] for k in watched}

    points = len(study)
    if study.results != oracle or list(study.results) != list(oracle):
        failures.append("batch study differs from the scalar simulate() loop")
    if study_deltas != oracle_deltas:
        failures.append(
            f"batch study counters diverged from the scalar loop: "
            f"{study_deltas} vs {oracle_deltas}"
        )

    # (c): 100k-point batch vs a scalar baseline probe.  Two reps, best
    # taken (standard min-of-N timing): the first rep pays one-off heap
    # growth for the result columns on top of the cold codegen memo,
    # which is allocator warm-up, not engine throughput.  Both are
    # recorded; each rep clears the codegen memo so codegen stays cold.
    matrix = _batch_matrix()
    batch_s = float("inf")
    batch_cold_s = None
    for _ in range(2):
        clear_codegen_memo()
        batch_results = None
        t0 = time.perf_counter()
        batch_results = simulate_batch(matrix, check_invariants=False)
        rep_s = time.perf_counter() - t0
        if batch_cold_s is None:
            batch_cold_s = rep_s
        batch_s = min(batch_s, rep_s)
    batch_pts_per_s = len(matrix) / batch_s

    stride = max(1, len(matrix) // BATCH_PROBE_POINTS)
    sample_idx = list(range(0, len(matrix), stride))[:BATCH_PROBE_POINTS]
    t0 = time.perf_counter()
    scalar_sample = [
        simulate(
            matrix[i].stencil,
            matrix[i].variant,
            matrix[i].platform,
            domain=matrix[i].domain,
            stencil_name=matrix[i].stencil_name,
            check_invariants=False,
        )
        for i in sample_idx
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

    doc["batch"] = {
        "points_100k": len(matrix),
        "batch_s": round(batch_s, 3),
        "batch_cold_s": round(batch_cold_s, 3),
        "points_per_s_100k": round(batch_pts_per_s),
        "probe_points": len(sample_idx),
        "serial_probe_points_per_s": round(probe_pts_per_s, 1),
        "speedup_vs_serial": round(speedup, 1),
        "points_per_s_90": round(points / study_s, 1),
        "study_s_90": round(study_s, 3),
    }
    print(
        f"batch: {len(matrix)} points in {batch_s:.2f} s "
        f"({batch_pts_per_s:.0f} pts/s, {speedup:.0f}x scalar), "
        f"90-point study {study_s:.3f} s"
    )


def chaos_bench(
    failures: list, doc: dict, jobs: int, seed: int, trace_out: str
) -> None:
    """Gate 5: the sweep under injected transient faults must recover.

    A seeded :class:`FaultPlan` sprinkles transient raises and corrupt
    payloads over the 90-point matrix; the retrying executor must still
    deliver a complete study, bit-identical to the fault-free serial
    baseline, with the retry counters accounting for every injection.
    """
    config = harness.ExperimentConfig()
    plan = FaultPlan.seeded(
        seed,
        config.keys(),
        raise_rate=CHAOS_RAISE_RATE,
        corrupt_rate=CHAOS_CORRUPT_RATE,
    )
    policy = RetryPolicy(retries=3, backoff_s=0.01)

    clean_study, _ = _timed_study(parallel=1)

    retries_before = _counter_value("exec.retries")
    roots_before = len(obs.get_tracer().roots())
    chaotic_study, chaos_s = _timed_study(
        parallel=jobs, policy=policy, fault_plan=plan
    )
    harness.clear_study_cache()
    retries = _counter_value("exec.retries") - retries_before

    doc["chaos"] = {
        "seed": seed,
        "jobs": jobs,
        "injected_raise": plan.count("raise"),
        "injected_corrupt": plan.count("corrupt"),
        "retries": retries,
        "failed_points": len(chaotic_study.failed),
        "chaos_s": round(chaos_s, 3),
    }
    print(
        f"chaos: seed {seed}, {plan.count('raise')} raises + "
        f"{plan.count('corrupt')} corruptions injected, {retries} retries, "
        f"{len(chaotic_study.failed)} failed points ({chaos_s:.2f} s)"
    )

    if len(plan) == 0:
        failures.append(
            f"chaos seed {seed} injected no faults over {len(config.keys())} "
            f"keys — pick another seed"
        )
    if not chaotic_study.complete:
        failures.append(
            f"chaotic sweep did not recover: {len(chaotic_study.failed)} "
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


def _quantile_ms(samples_s: list, q: float) -> float:
    """The q-quantile of a list of second-timings, in milliseconds."""
    ordered = sorted(samples_s)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx] * 1e3


def serve_bench(failures: list, doc: dict) -> None:
    """Gate 6 (``--serve``): service RTT vs direct ``run_study``.

    Boots the study server in-process on a free port and times
    ``SERVE_REQUESTS`` distinct small studies three ways: direct
    ``run_study`` (the floor), cold through the service (submit → poll
    → fetch over real HTTP; carries one poll interval of latency by
    design), and duplicated through the service (answered from the
    shared result store with zero simulation).  Hard conditions: byte
    identity with ``dump_study`` of the direct run, every duplicate a
    dedup hit, and the dedup RTT p95 under
    ``SERVE_DEDUP_P95_CEILING_MS``.
    """
    from repro.serve import Orchestrator, ResultStore, ServeClient, start_server

    config_docs = [
        {"stencils": ["7pt"], "variants": ["array"],
         "domain": [64 * (i + 1), 64, 64]}
        for i in range(SERVE_REQUESTS)
    ]
    configs = [harness.config_from_dict(d) for d in config_docs]

    direct_rtts, direct_bytes = [], []
    for config in configs:
        harness.clear_study_cache()
        clear_codegen_memo()
        t0 = time.perf_counter()
        study = harness.run_study(config)
        direct_rtts.append(time.perf_counter() - t0)
        direct_bytes.append(
            json.dumps(harness.study_to_dict(study), indent=1).encode()
        )

    orchestrator = Orchestrator(
        ResultStore(), queue_limit=32, workers=2, batch_window=8
    )
    server, _thread = start_server(0, orchestrator)
    server.start()
    client = ServeClient(f"http://127.0.0.1:{server.port}")
    try:
        serve_rtts, job_ids = [], []
        for config_doc in config_docs:
            harness.clear_study_cache()
            clear_codegen_memo()
            t0 = time.perf_counter()
            job = client.submit(config_doc)
            final = client.wait(job["job_id"])
            body = client.result_bytes(job["job_id"])
            serve_rtts.append(time.perf_counter() - t0)
            job_ids.append(job["job_id"])
            if final["state"] != "done" or not final["complete"]:
                failures.append(
                    f"served study {job['job_id']} not complete: {final}"
                )
        for expected, job_id in zip(direct_bytes, job_ids):
            if client.result_bytes(job_id) != expected:
                failures.append(
                    f"served result {job_id} is not byte-identical to the "
                    f"direct run_study"
                )

        dedup_before = _counter_value("serve.dedup_hits")
        points_before = _counter_value("study.points")
        dedup_rtts = []
        for config_doc in config_docs:
            t0 = time.perf_counter()
            job = client.submit(config_doc)
            client.result_bytes(job["job_id"])
            dedup_rtts.append(time.perf_counter() - t0)
            if not job["dedup"]:
                failures.append(
                    f"duplicate submission {job['job_id']} missed the "
                    f"shared store"
                )
        dedup_hits = _counter_value("serve.dedup_hits") - dedup_before
        if _counter_value("study.points") != points_before:
            failures.append(
                "duplicate submissions re-simulated points instead of "
                "being served from the store"
            )
    finally:
        server.shutdown_all()

    serve_p50, serve_p95 = _quantile_ms(serve_rtts, 0.5), _quantile_ms(serve_rtts, 0.95)
    dedup_p95 = _quantile_ms(dedup_rtts, 0.95)
    direct_p50 = _quantile_ms(direct_rtts, 0.5)
    doc["serve"] = {
        "requests": len(config_docs),
        "rtt_p50_ms": round(serve_p50, 2),
        "rtt_p95_ms": round(serve_p95, 2),
        "dedup_rtt_p50_ms": round(_quantile_ms(dedup_rtts, 0.5), 2),
        "dedup_rtt_p95_ms": round(dedup_p95, 2),
        "direct_p50_ms": round(direct_p50, 2),
        "direct_p95_ms": round(_quantile_ms(direct_rtts, 0.95), 2),
        "overhead_x": round(serve_p50 / direct_p50, 2) if direct_p50 else None,
        "dedup_hits": dedup_hits,
    }
    print(
        f"serve: {len(config_docs)} requests, RTT p50 {serve_p50:.0f} ms / "
        f"p95 {serve_p95:.0f} ms (direct p50 {direct_p50:.0f} ms), "
        f"dedup p95 {dedup_p95:.1f} ms, {dedup_hits} dedup hits"
    )

    if dedup_hits != len(config_docs):
        failures.append(
            f"only {dedup_hits}/{len(config_docs)} duplicates were dedup "
            f"hits"
        )
    if dedup_p95 > SERVE_DEDUP_P95_CEILING_MS:
        failures.append(
            f"dedup RTT p95 {dedup_p95:.0f} ms above the "
            f"{SERVE_DEDUP_P95_CEILING_MS:.0f} ms ceiling"
        )


def _gate_results(doc: dict) -> dict:
    """The ``doc`` numbers worth trending, as named telemetry gates.

    The pass flags mirror the hard conditions the gates above enforce;
    purely informational rates (points/s, retry counts) record as
    passed so they trend without ever having gated.
    """
    gates: dict = {}
    if "cachesim" in doc:
        speedup = doc["cachesim"]["speedup"]
        gates["cachesim.speedup"] = (speedup, speedup >= VECTOR_SPEEDUP_FLOOR)
        gates["cachesim.vectorized_accesses_per_s"] = (
            float(doc["cachesim"]["vectorized_accesses_per_s"]), True,
        )
    if "sweep" in doc:
        gates["sweep.serial_points_per_s"] = (
            doc["sweep"]["serial_points_per_s"], True,
        )
    if "batch" in doc:
        batch = doc["batch"]
        gates["batch.speedup_vs_serial"] = (
            batch["speedup_vs_serial"],
            batch["speedup_vs_serial"] >= BATCH_SPEEDUP_FLOOR,
        )
        gates["batch.points_per_s_100k"] = (
            float(batch["points_per_s_100k"]), True,
        )
        gates["batch.points_per_s_90"] = (batch["points_per_s_90"], True)
    if "serve" in doc:
        serve = doc["serve"]
        gates["serve.rtt_p50_ms"] = (serve["rtt_p50_ms"], True)
        gates["serve.rtt_p95_ms"] = (serve["rtt_p95_ms"], True)
        gates["serve.dedup_rtt_p95_ms"] = (
            serve["dedup_rtt_p95_ms"],
            serve["dedup_rtt_p95_ms"] <= SERVE_DEDUP_P95_CEILING_MS,
        )
        gates["serve.dedup_hits"] = (
            float(serve["dedup_hits"]),
            serve["dedup_hits"] == serve["requests"],
        )
        if serve["overhead_x"] is not None:
            gates["serve.overhead_x"] = (serve["overhead_x"], True)
    if "chaos" in doc:
        gates["chaos.retries"] = (float(doc["chaos"]["retries"]), True)
        gates["chaos.failed_points"] = (
            float(doc["chaos"]["failed_points"]),
            doc["chaos"]["failed_points"] == 0,
        )
    return gates


def record_telemetry(
    db_path: str, doc: dict, failures: list, duration_s: float
) -> None:
    """Append this bench run to the warehouse and print the soft verdict.

    Cross-run drift warns rather than fails: the in-run gates are the
    hard floor, the warehouse diff is the trend alarm (CI's dedicated
    telemetry job turns it into a hard check on a controlled history).
    """
    config = {"jobs": doc.get("sweep", {}).get("jobs"),
              "chaos": "chaos" in doc, "serve": "serve" in doc}
    config_hash = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()[:16]
    try:
        with obs.TelemetryStore(db_path) as store:
            run_id = store.record_run(
                "bench_smoke",
                gates=_gate_results(doc),
                config_hash=config_hash,
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


def record_results(db_path: str, doc: dict, failures: list) -> None:
    """Append this run's gate values to the SQLite result store.

    Complements :func:`record_telemetry`: the result store keeps gate
    *values* as queryable rows (``bench_runs`` / ``bench_gates``), so
    perf history lives next to the study rows ``repro-stencil report``
    renders from.  A store failure is a recording failure, not a perf
    regression — reported, and it fails the run like any other gate.
    """
    from repro.errors import ResultStoreError
    from repro.results import ResultsStore

    try:
        with ResultsStore(db_path) as store:
            bench_id = store.ingest_gates(
                _gate_results(doc), source="bench_smoke", doc=doc
            )
        print(f"results: bench run {bench_id} appended to {db_path}")
    except (OSError, ResultStoreError) as exc:
        failures.append(f"result-store recording failed: {exc}")


def _run_gate(name: str, failures: list, fn, *args) -> None:
    """Run one gate; a crash prints the span tree and fails the run."""
    try:
        fn(failures, *args)
    except Exception as exc:
        traceback.print_exc()
        print(f"\n{name} gate crashed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        print("span tree at time of crash:", file=sys.stderr)
        print(obs.render_tree(obs.get_tracer().roots(), max_depth=3),
              file=sys.stderr)
        failures.append(f"{name} gate crashed: {type(exc).__name__}: {exc}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--jobs", type=int, default=4,
        help="worker processes for the study's fault-injected points in "
        "the batch and chaos gates (default 4)",
    )
    parser.add_argument(
        "--out", default="BENCH_sweep.json",
        help="where to write the benchmark record (default BENCH_sweep.json)",
    )
    parser.add_argument(
        "--inject-faults", nargs="?", const=0, type=int, default=None,
        metavar="SEED",
        help="also run the chaos gate: sweep under seeded transient "
             "faults, assert full recovery (default seed 0)",
    )
    parser.add_argument(
        "--trace-out", default="CHAOS_trace.json",
        help="Chrome trace of the chaos-gate sweep "
             "(default CHAOS_trace.json; only written with --inject-faults)",
    )
    parser.add_argument(
        "--serve", action="store_true",
        help="also run the serve gate: RTT p50/p95 through the study "
             "service vs direct run_study, dedup + byte-identity checks",
    )
    parser.add_argument(
        "--telemetry-db", default=None, metavar="PATH",
        help="append the run (spans, counters, gate values) to this "
        "telemetry warehouse and print the cross-run obs diff verdict "
        "(default: $REPRO_TELEMETRY_DB or off)",
    )
    parser.add_argument(
        "--results-db", default=None, metavar="PATH",
        help="append the run's gate values to this SQLite result store "
        "(default: $REPRO_RESULTS_DB or off)",
    )
    args = parser.parse_args(argv)

    # Every simulate() in the gates asserts the physical-sanity
    # invariants of repro.validate (exported, so worker processes
    # inherit it): a model regression fails the gate loudly instead of
    # shipping insane numbers into the benchmark record.
    os.environ.setdefault("REPRO_VALIDATE", "1")

    # Trace the whole run so a crash anywhere can show its span tree.
    obs.set_tracer(obs.Tracer(enabled=True))
    obs.set_registry(obs.MetricsRegistry())

    failures: list = []
    doc: dict = {"schema_version": 1, "cpu_count": os.cpu_count() or 1}
    t_start = time.perf_counter()

    _run_gate("observability", failures, obs_gate)
    _run_gate("cachesim", failures, cachesim_bench, doc)
    _run_gate("sweep", failures, sweep_bench, doc, args.jobs)
    _run_gate("batch", failures, batch_bench, doc, args.jobs)
    if args.inject_faults is not None:
        _run_gate(
            "chaos", failures, chaos_bench, doc, args.jobs,
            args.inject_faults, args.trace_out,
        )
    if args.serve:
        _run_gate("serve", failures, serve_bench, doc)

    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"benchmark record written to {args.out}")

    telemetry_db = obs.resolve_db_path(args.telemetry_db)
    if telemetry_db:
        record_telemetry(
            telemetry_db, doc, failures, time.perf_counter() - t_start
        )

    from repro.results import resolve_results_db

    results_db = resolve_results_db(args.results_db)
    if results_db:
        record_results(results_db, doc, failures)

    if failures:
        print("\nPERFORMANCE GATE FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(
        "\nperformance gate OK: obs spans, cachesim parity, batch parity"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
