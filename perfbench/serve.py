"""``serve_mixed``: a seeded request mix against ``repro-stencil serve``.

The server is a child process with one worker thread, a job journal and
a result database.  Two client threads run closed loops (each sends its
next request only after the previous one completed):

* the job thread sends seeded blocks of :data:`JOB_BLOCK`:

  - ``cold``: three distinct small studies submitted back to back, which
    the server must queue and simulate, micro-batched when they meet in
    the queue;
  - ``pair``: one new config submitted twice back to back, so the second
    submission should coalesce onto the first job;

* the warm thread resubmits configs that already completed, which the
  server must answer from its store (``dedup``).

The study shape is that of the small studies ``scripts/serve_smoke.py``
and ``scripts/bench_smoke.py`` send (one stencil x one variant x the five
platform columns); stencil, variant and domain are drawn by the seed.
The burst size and the shares of request kinds are assumptions chosen
for steadiness: the repository holds no record of served traffic to
take them from.

Requests run in blocks: one :data:`JOB_BLOCK` on the job thread while
the warm thread resubmits, which stops after its current request once
the block is done.  Between blocks no request is in flight, so the
server is idle (a job is ``done`` only after its result is stored and
journaled) and the client process probes the host.  Latency is submit
to result bytes received.  It is adjusted for host speed by the mean of
the probes on either side of its block, except for the time the client
spent between HTTP calls (its poll sleeps), which does not scale with
host speed.
"""

from __future__ import annotations

import os
import random
import re
import gc
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import common
import layers
from probe import adjust, probe_gap

#: Orchestrator worker threads.  Simulation holds the interpreter lock, so
#: a second worker thread adds no throughput.
WORKERS = 1

#: Distinct studies submitted back to back by one cold request, one more
#: than ``serve_smoke.py``'s concurrency leg so a study can find another
#: queued to fuse with.  An assumption, like the shares below.
BURST = 3

#: The job thread's requests per block, shuffled by the seed so every run
#: sends the same shares of kinds.  The shares are an assumption, not
#: taken from served traffic.  The warm thread has its own stream: kept
#: apart, a warm request contends only with simulation, never with
#: another warm request.  With the job thread never pausing within a
#: block, the server simulates most of the time, so both warm
#: percentiles sit inside the population of requests that waited for the
#: interpreter lock instead of on the boundary with the idle one.
JOB_BLOCK = ("cold", "cold", "pair")

#: Completed cold configs re-run directly and compared byte for byte.
CHECK_JOBS = 8

#: Host probes taken back to back at each quiet point between blocks.
PROBE_REPS = 3

#: The server child: the CLI, with a host probe after boot.
CHILD = os.path.join(common.HERE, "serve_child.py")

#: Cold studies completed before the timed loop: code paths get warm and
#: the first warm requests have configs to resubmit.
WARMUP_JOBS = 4


def request_configs(seed: int, count: int = 4096) -> List[Dict]:
    """``count`` distinct 5-point study configs (wire format).

    The shape of the small studies ``scripts/serve_smoke.py`` and
    ``scripts/bench_smoke.py`` send: one stencil and one variant over
    the default five platform columns.
    """
    from repro.gpu.progmodel import VARIANTS
    from repro.harness import STENCIL_NAMES

    rng = random.Random(seed)
    lattice = [
        (ni, nj, nk)
        for ni in range(64, 2049, 64)
        for nj in range(4, 257, 4)
        for nk in range(4, 257, 4)
    ]
    return [
        {
            "stencils": [rng.choice(STENCIL_NAMES)],
            "variants": [rng.choice(VARIANTS)],
            "domain": list(domain),
        }
        for domain in rng.sample(lattice, count)
    ]


class Server:
    """One ``repro-stencil serve`` child with its own journal and store."""

    def __init__(self, workdir: str, name: str, trace_out: Optional[str] = None):
        self.dir = os.path.join(workdir, name)
        os.makedirs(self.dir)
        argv = [sys.executable, CHILD]
        if trace_out:
            argv += ["--trace-out", trace_out]
        argv += [
            "serve", "--port", "0", "--workers", str(WORKERS),
            "--journal", os.path.join(self.dir, "journal.db"),
            "--results-db", os.path.join(self.dir, "results.db"),
        ]
        self.setup_s, self.boot_probe_ms, self.proc, line = common.time_child_setup(
            argv, "serving on"
        )
        port = re.search(r"http://[\d.]+:(\d+)", line).group(1)
        self.url = f"http://127.0.0.1:{port}"

    def reset_trace(self) -> None:
        """Drop the spans recorded so far (``serve_child.py`` on SIGUSR1)."""
        self.proc.send_signal(signal.SIGUSR1)
        common.read_until(self.proc, "RESET", 30.0)

    def peak_rss_mb(self) -> float:
        return common.pid_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (the CLI's graceful drain), then wait; kill if stuck."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with code {self.proc.returncode}")


class Mix:
    """The seeded request stream the client threads share."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed + 1)
        self._warm_rng = random.Random(seed + 3)
        self._fresh = request_configs(seed)
        self._lock = threading.Lock()
        self.completed: List[Dict] = []
        self.served: Dict[str, tuple] = {}

    def job_block(self) -> List[tuple]:
        """The job thread's next block: (kind, configs it submits) each."""
        with self._lock:
            kinds = list(JOB_BLOCK)
            self._rng.shuffle(kinds)
            return [
                (kind, [self._fresh.pop()] * 2 if kind == "pair"
                 else [self._fresh.pop() for _ in range(BURST)])
                for kind in kinds
            ]

    def next_warm(self) -> tuple:
        """The warm thread's next request: one completed config."""
        with self._lock:
            return "warm", [self._warm_rng.choice(self.completed)]

    def fresh(self) -> Dict:
        with self._lock:
            return self._fresh.pop()

    def done(self, config: Dict, body: bytes) -> None:
        """Record a completed config; warm requests resubmit these."""
        with self._lock:
            if repr(config) not in self.served:
                self.completed.append(config)
                self.served[repr(config)] = (config, body)


class Client:
    """One closed-loop client thread's requests and what they observed.

    Every HTTP call the request makes through ``ServeClient`` (submit,
    status polls, result fetch) is timed; the rest of a request's latency
    is the time the client waited between calls, however it waits.
    """

    def __init__(self, url: str, mix: Mix) -> None:
        from repro.serve import ServeClient

        self.client = ServeClient(url, timeout_s=60.0)
        self.mix = mix
        self.records: List[Dict] = []
        self.failed = 0
        self.rejected = 0
        self.polls = 0
        self.polling_s = 0.0
        status = self.client.status

        def timed_status(job_id):
            t0 = time.perf_counter()
            try:
                return status(job_id)
            finally:
                self.polls += 1
                self.polling_s += time.perf_counter() - t0

        self.client.status = timed_status

    def finish(self, doc: Dict, t0: float, submitted: float, kind: str) -> Dict:
        """Wait for a submitted job and fetch its result; returns a record."""
        from repro.errors import ServeError

        polls, polling_s = self.polls, self.polling_s
        waited = time.perf_counter()
        if doc["state"] != "done":
            doc = self.client.wait(doc["job_id"])
            if self.polls == polls:
                raise RuntimeError("ServeClient.wait no longer polls through status()")
        received = time.time()
        fetched = time.perf_counter()
        body = self.client.result_bytes(doc["job_id"])
        t1 = time.perf_counter()
        if doc["state"] != "done":
            raise ServeError(f"job {doc['job_id']} ended {doc['state']}")
        between_calls = (fetched - waited) - (self.polling_s - polling_s)
        return {
            "kind": kind,
            "latency_ms": (t1 - t0) * 1e3,
            "sleep_ms": between_calls * 1e3,
            "submit_ms": (submitted - t0) * 1e3,
            "fetch_ms": (t1 - fetched) * 1e3,
            "dedup": doc["dedup"],
            "polls": self.polls - polls,
            "queue_wait_ms": (doc["started_s"] - doc["created_s"]) * 1e3,
            "run_ms": (doc["finished_s"] - doc["started_s"]) * 1e3,
            "poll_lag_ms": (received - doc["finished_s"]) * 1e3,
            "body": body,
        }

    def request(self, kind: str, configs: List[Dict]) -> None:
        """Submit ``configs`` back to back, then collect each result.

        A pair submits one config twice; the two results must be equal
        bytes.  A warm resubmission must be answered from the store.
        """
        from repro.errors import ServeError
        from repro.serve import BackpressureError

        try:
            submitted = []
            for config in configs:
                t0 = time.perf_counter()
                doc = self.client.submit(config)
                submitted.append((doc, t0, time.perf_counter()))
            recs = [self.finish(doc, t0, t1, kind) for doc, t0, t1 in submitted]
        except BackpressureError:
            self.rejected += 1
            self.failed += len(configs)
            return
        except ServeError:
            self.failed += len(configs)
            return
        if kind == "warm":
            ok = recs[0]["dedup"]
        elif kind == "pair":
            ok = recs[0]["body"] == recs[1]["body"]
        else:
            ok = True
        if not ok:
            self.failed += len(configs)
            return
        for config, rec in zip(configs, recs):
            if kind != "warm":
                self.mix.done(config, rec["body"])
            rec.pop("body")
            self.records.append(rec)


def run_block(jobs: Client, warm: Client, mix: Mix) -> List[Dict]:
    """One job block beside the warm stream; returns the block's records.

    Returns once every request of the block has its result, so nothing
    is in flight afterwards.
    """
    marks = len(jobs.records), len(warm.records)
    stop = threading.Event()

    def warm_loop() -> None:
        while not stop.is_set():
            warm.request(*mix.next_warm())

    thread = threading.Thread(target=warm_loop)
    thread.start()
    try:
        for request in mix.job_block():
            jobs.request(*request)
    finally:
        stop.set()
        thread.join()
    return jobs.records[marks[0]:] + warm.records[marks[1]:]


def drive(url: str, mix: Mix, seconds: float, min_samples: int) -> Dict[str, object]:
    """Run blocks until the deadline; returns adjusted records and counts.

    The host is probed before the first block and after every block,
    when no request is in flight.  The requests of a block are adjusted
    by the mean of the probes on either side of it, as ``OpLog`` does for
    single ops; the wall time excludes the probes.
    """
    jobs, warm = Client(url, mix), Client(url, mix)
    probes = [probe_gap(PROBE_REPS)]
    records: List[Dict] = []
    wall = 0.0

    def enough() -> bool:
        return (len(latency(records, "cold")) >= min_samples
                and len(latency(records, "warm")) >= min_samples)

    for _ in common.deadline_loop(seconds, enough):
        gc.collect()
        t0 = time.perf_counter()
        block = run_block(jobs, warm, mix)
        wall += time.perf_counter() - t0
        probes.append(probe_gap(PROBE_REPS))
        for r in block:
            r["probe_ms"] = (probes[-2] + probes[-1]) / 2
            r["raw_ms"] = r["latency_ms"]
            r["latency_ms"] = r["sleep_ms"] + adjust(r["raw_ms"] - r["sleep_ms"], r["probe_ms"])
        records += block
    failed = jobs.failed + warm.failed
    return {
        "records": records,
        "wall_s": wall,
        "probes": probes,
        "failed": failed,
        "rejected": jobs.rejected + warm.rejected,
        "attempted": len(records) + failed,
    }


def warm_up(url: str, mix: Mix) -> None:
    client = Client(url, mix)
    for _ in range(WARMUP_JOBS):
        client.request("cold", [mix.fresh()])
    if client.failed:
        raise RuntimeError("warm-up requests failed")


def check_served(mix: Mix, seed: int, workdir: str) -> int:
    """Re-run a seeded sample of served configs directly; count mismatches."""
    from repro.harness import config_from_dict, dump_study, run_study

    keys = sorted(mix.served)
    sample = random.Random(seed + 2).sample(keys, min(CHECK_JOBS, len(keys)))
    path = os.path.join(workdir, "direct.json")
    mismatches = 0
    for key in sample:
        config, served = mix.served[key]
        dump_study(run_study(config_from_dict(config), parallel=1), path)
        with open(path, "rb") as f:
            mismatches += f.read() != served
    return mismatches


def latency(records: List[Dict], kind: str) -> List[float]:
    return [r["latency_ms"] for r in records if r["kind"] == kind]


def throughput(out: Dict[str, object]) -> float:
    """Completed requests per second, rescaled like the latencies."""
    records = out["records"]
    raw = sum(r["raw_ms"] for r in records)
    adjusted = sum(r["latency_ms"] for r in records)
    return len(records) / out["wall_s"] * raw / adjusted


def audit(out: Dict[str, object]) -> Dict[str, object]:
    """Per request: kind, raw ms, ms between HTTP calls (unscaled), probe ms."""
    return {
        "requests": [
            [r["kind"], round(r["raw_ms"], 2), round(r["sleep_ms"], 1), round(r["probe_ms"], 2)]
            for r in out["records"]
        ],
        "wall_s": out["wall_s"],
    }


def run(seconds: float, seed: int, trace: bool, workdir: str) -> Dict[str, object]:
    servers = []
    try:
        boots = []
        for i in range(common.SETUP_RUNS):
            if servers:
                servers.pop().stop()
            servers.append(Server(workdir, f"boot{i}"))
            boots.append((servers[-1].setup_s, servers[-1].boot_probe_ms))
        setup = common.setup_metric(boots)
        server = servers[0]
        mix = Mix(seed)
        warm_up(server.url, mix)
        if not trace:
            out = drive(server.url, mix, seconds, common.P90_MIN_SAMPLES)
            rss = server.peak_rss_mb()
            servers.pop().stop()
            records = out["records"]
            metrics = {
                "setup_s": setup["value"],
                "throughput_per_s": throughput(out),
                **common.latency_metrics(latency(records, "cold"), latency(records, "warm")),
                "peak_rss_mb": rss,
            }
            return {
                "attempted": out["attempted"],
                "failed": out["failed"] + check_served(mix, seed, workdir),
                "metrics": metrics,
                "probes": out["probes"],
                "audit": {"setup": setup["audit"], **audit(out)},
            }

        plain = drive(server.url, mix, seconds / 2, 1)
        servers.pop().stop()
        trace_out = os.path.join(workdir, "trace.json")
        servers.append(Server(workdir, "traced", trace_out))
        traced_server = servers[-1]
        mix.completed.clear()  # the new server's store starts empty
        warm_up(traced_server.url, mix)
        traced_server.reset_trace()  # spans and counters from here on
        before = traced_server_metrics(traced_server.url)
        traced = drive(traced_server.url, mix, seconds / 2, 1)
        after = traced_server_metrics(traced_server.url)
        servers.pop().stop()
        failed = plain["failed"] + traced["failed"] + check_served(mix, seed, workdir)
        per_layer = serve_layers(traced, before, after, trace_out)
        per_layer["results.db_bytes"] = os.path.getsize(
            os.path.join(traced_server.dir, "results.db")
        )
        per_layer["bench.trace_overhead_pct"] = common.overhead_pct(
            latency(plain["records"], "cold"), latency(traced["records"], "cold")
        )
        probes = plain["probes"] + traced["probes"]
        per_layer["bench.host_probe_ms"] = statistics.median(probes)
        return {
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": failed,
            "metrics": per_layer,
            "probes": probes,
            "audit": {"untraced": audit(plain), "traced": audit(traced)},
        }
    finally:
        for server in servers:
            server.proc.kill()
            server.proc.communicate()


def traced_server_metrics(url: str) -> Dict[str, float]:
    from repro.serve import ServeClient

    return {
        name: value
        for name, value in ServeClient(url).metrics().items()
        if isinstance(value, (int, float))
    }


def serve_layers(
    traced: Dict[str, object],
    before: Dict[str, float],
    after: Dict[str, float],
    trace_out: str,
) -> Dict[str, float]:
    """Per-layer metrics of the traced half: server spans plus client view."""
    import json

    with open(trace_out) as f:
        totals = json.load(f)
    records = traced["records"]
    n = len(records)
    jobs = [r for r in records if not r["dedup"]]
    median = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731

    def delta(name: str) -> float:
        return float(after.get(name, 0)) - float(before.get(name, 0))

    batches = totals.get("exec.microbatch", {}).get("calls", 0)
    return {
        **layers.span_metrics(totals, n),
        **layers.counter_metrics(before, after, n),
        "serve.submit_ms": median([r["submit_ms"] for r in records]),
        "serve.fetch_ms": median([r["fetch_ms"] for r in records]),
        "serve.dedup_ratio": delta("serve.dedup_hits") / delta("serve.requests"),
        "serve.queue_wait_ms": median([r["queue_wait_ms"] for r in jobs]),
        "serve.run_ms": median([r["run_ms"] for r in jobs]),
        "serve.poll_lag_ms": median([r["poll_lag_ms"] for r in jobs]),
        "serve.polls_per_job": sum(r["polls"] for r in jobs) / len(jobs) if jobs else 0.0,
        "serve.coalesced": delta("serve.coalesced") / n,
        "serve.microbatch_jobs_per_batch": (
            delta("serve.microbatch.jobs") / batches if batches else 0.0
        ),
        "serve.rejected_ratio": traced["rejected"] / (n + traced["rejected"]),
    }
