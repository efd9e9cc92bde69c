"""``sweep_100k``: whole-matrix ``simulate_batch`` calls, cold and warm.

The matrix is the 103,680-point bench matrix (6 stencils x 5 platform
columns x 3 variants x 1152 tile-valid domains) in a seeded order.  Each
op is one whole call: a slice would measure the engine's per-call
overhead (codegen and cost-model lookups per group) instead of the sweep.
A cold op runs after ``clear_codegen_memo()``; a warm op runs with the
memo hot.  Cold and warm ops alternate so host drift hits both.
"""

from __future__ import annotations

import random
import statistics
from typing import Dict, List

import common

#: Points checked bit for bit against scalar ``simulate`` after every op.
CHECK_POINTS = 48

#: Probes per gap between ops; an op takes seconds, so seven cost little.
PROBE_REPS = 7


def build_matrix(seed: int) -> List:
    """The bench matrix, shuffled by ``seed``."""
    from repro import harness
    from repro.dsl.shapes import by_name
    from repro.gpu.batch import BatchPoint

    config = harness.ExperimentConfig()
    stencils = [(name, by_name(name).build()) for name in config.stencils]
    matrix = [
        BatchPoint(
            stencil=stencil,
            variant=variant,
            platform=plat,
            domain=(ni, nj, nk),
            stencil_name=name,
        )
        for name, stencil in stencils
        for plat in config.platforms()
        for variant in config.variants
        for ni in range(64, 513, 64)
        for nj in range(4, 49, 4)
        for nk in range(4, 49, 4)
    ]
    random.Random(seed).shuffle(matrix)
    return matrix


def run(seconds: float, seed: int, trace: bool) -> Dict[str, object]:
    from repro.codegen import clear_codegen_memo
    from repro.dsl.shapes import by_name
    from repro.gpu import batch
    from repro.gpu.simulator import simulate
    from repro.harness import STENCIL_NAMES

    setup = None if trace else common.measure_setups("sweep_100k", seed)
    matrix = build_matrix(seed)
    checked = random.Random(seed).sample(range(len(matrix)), CHECK_POINTS)
    reference = {
        i: simulate(
            matrix[i].stencil,
            matrix[i].variant,
            matrix[i].platform,
            domain=matrix[i].domain,
            stencil_name=matrix[i].stencil_name,
        )
        for i in checked
    }
    batch.simulate_batch(matrix[:2000])  # first-call costs stay out of op 1
    tally = {"attempted": 0, "failed": 0}

    def op(kind: str, log: common.OpLog) -> None:
        if kind == "cold":
            clear_codegen_memo()
        results = log.run(kind, lambda: batch.simulate_batch(matrix))
        tally["attempted"] += 1
        if len(results) != len(matrix) or any(
            results[i] != reference[i] for i in checked
        ):
            tally["failed"] += 1

    def phase(seconds: float) -> common.OpLog:
        log = common.OpLog(PROBE_REPS)
        enough = lambda: log.count("cold") >= 1 and log.count("warm") >= 1  # noqa: E731
        for i in common.deadline_loop(seconds, enough):
            op("cold" if i % 2 == 0 else "warm", log)
        return log

    if trace:
        plain, traced, per_layer = common.traced_halves(
            phase, seconds, "warm",
            # The stencil builds of one input generation: its dsl share.
            prelude=lambda: [by_name(name).build() for name in STENCIL_NAMES],
        )
        return {
            **tally,
            "metrics": per_layer,
            "probes": plain.probes + traced.probes,
            "audit": {"untraced": plain.audit(), "traced": traced.audit()},
        }

    log = phase(seconds)
    warm = log.adjusted_ms("warm")
    return {
        **tally,
        "metrics": {
            "setup_s": setup["value"],
            "throughput_per_s": len(matrix) / (statistics.median(warm) / 1e3),
            **common.latency_metrics(log.adjusted_ms("cold"), warm),
            "peak_rss_mb": common.peak_rss_mb(),
        },
        "probes": log.probes,
        "audit": {"setup": setup["audit"], **log.audit()},
    }
