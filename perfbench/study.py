"""``study_report``: the paper's 90-point study into the store, then reports.

A cold op sweeps the full 6 x 5 x 3 matrix through ``cached_study`` with a
pickle cache directory and a result database, at a seeded tile-valid
domain no earlier op in the run used, after clearing the study memo and
the codegen memo: nothing can be deduplicated, so the op pays the serial
engine (``choose_dispatch`` keeps 90 points serial), checkpoint writes
and the SQLite ingest.  A warm op renders the whole report for a stored
config from a fresh ``StoreProvider``: store reads plus rendering.
"""

from __future__ import annotations

import os
import random
import statistics
from typing import Dict, List

import common

#: Warm ops between two cold ops.  Gives warm_p90_ms its 100 samples in a
#: 30 s run while cold ops still set the pace of host drift sampling.
WARM_PER_COLD = 8

#: Probes per gap; warm ops take tens of ms, so one probe per gap.
PROBE_REPS = 1


def setup(seed: int) -> List:
    """Import the layers a run touches and draw the run's configs."""
    from repro import harness, results  # noqa: F401

    return configs(seed)


def configs(seed: int, count: int = 256) -> List:
    """``count`` distinct seeded study configs, each at its own domain.

    ``ni`` is a multiple of 64 (the widest SIMD tile) and ``nj``/``nk`` of
    4, so every point is valid on every platform.
    """
    from repro.harness import ExperimentConfig

    lattice = [
        (ni, nj, nk)
        for ni in range(64, 1025, 64)
        for nj in range(4, 129, 4)
        for nk in range(4, 129, 4)
    ]
    domains = random.Random(seed).sample(lattice, count)
    return [ExperimentConfig(domain=d) for d in domains]


def run(seconds: float, seed: int, trace: bool, workdir: str) -> Dict[str, object]:
    from repro.codegen import clear_codegen_memo
    from repro.harness import cached_study, clear_study_cache
    from repro.results import DirectProvider, StoreProvider, report

    setup_doc = None if trace else common.measure_setups("study_report", seed)
    direct_report = report.generate_report  # the expected side is never traced
    pending = setup(seed)
    rng = random.Random(seed + 1)
    cache_dir = os.path.join(workdir, "cache")
    db = os.path.join(workdir, "results.db")
    stored: List = []
    expected: Dict = {}
    tally = {"attempted": 0, "failed": 0}

    def cold(log: common.OpLog) -> None:
        config = pending.pop()
        clear_study_cache()
        clear_codegen_memo()
        study = log.run(
            "cold",
            lambda: cached_study(config, parallel=1, cache_dir=cache_dir, results_db=db),
        )
        tally["attempted"] += 1
        if not study.complete or len(study.results) != 90:
            tally["failed"] += 1
            return
        stored.append(config)
        expected[config] = direct_report(DirectProvider(study), config)

    def warm(log: common.OpLog) -> None:
        config = rng.choice(stored)

        def render():
            provider = StoreProvider(db)
            try:
                return report.generate_report(provider, config)
            finally:
                provider.store.close()

        artifacts = log.run("warm", render)
        tally["attempted"] += 1
        if artifacts != expected[config]:
            tally["failed"] += 1

    def phase(seconds: float, min_warm: int) -> common.OpLog:
        log = common.OpLog(PROBE_REPS)
        enough = lambda: log.count("warm") >= min_warm  # noqa: E731
        for i in common.deadline_loop(seconds, enough):
            if i % (WARM_PER_COLD + 1) == 0:
                cold(log)
            elif stored:
                warm(log)
        return log

    warm_up = common.OpLog(PROBE_REPS)  # first-use costs stay out of the run
    cold(warm_up)
    warm(warm_up)

    if trace:
        plain, traced, per_layer = common.traced_halves(
            lambda seconds: phase(seconds, 1), seconds, "cold"
        )
        per_layer["results.db_bytes"] = os.path.getsize(db)
        return {
            **tally,
            "metrics": per_layer,
            "probes": plain.probes + traced.probes,
            "audit": {"untraced": plain.audit(), "traced": traced.audit()},
        }

    log = phase(seconds, common.P90_MIN_SAMPLES)
    cold_ms = log.adjusted_ms("cold")
    return {
        **tally,
        "metrics": {
            "setup_s": setup_doc["value"],
            "throughput_per_s": 90 / (statistics.median(cold_ms) / 1e3),
            **common.latency_metrics(cold_ms, log.adjusted_ms("warm")),
            "peak_rss_mb": common.peak_rss_mb(),
        },
        "probes": log.probes,
        "audit": {"setup": setup_doc["audit"], **log.audit()},
    }
