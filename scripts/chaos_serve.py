#!/usr/bin/env python
"""Chaos drill: prove the study service survives kill -9 and worse.

CI's ``chaos-serve`` job runs this after the unit tests.  Three legs:

1. **kill -9 recovery** — boot a journaled server with an on-disk
   cache and per-point checkpointing, submit a 15-point study, SIGKILL
   the server the instant the cache store holds its first checkpointed
   point (no drain, no journal flush, no telemetry), then cold-start a new
   server on the same journal + cache.  The job must replay, resume
   from the checkpoint (``study.resumed_points > 0`` — only the points
   after the last flush are re-simulated), finish, and serve a result
   byte-identical to a direct in-process run.  Retried up to three
   times in case the sweep outruns the SIGKILL.
2. **supervised workers** — a ``--backend process`` server with a 2 s
   job deadline: a wedged job (30 s sleep) must be deadline-killed
   without stalling the other worker, a poison job (``drill_exit``)
   must crash its worker, be requeued, and end quarantined after
   ``--max-crashes`` attempts, and a normal job must complete
   throughout.  This leg runs **twice** with identical server
   arguments against one telemetry warehouse, so CI's follow-up
   ``repro-stencil obs diff`` hard-gates the crash-path counters
   (``serve.supervisor.deadline_kills`` / ``.quarantined`` are
   equal-direction specs: any drift across sessions fails the job).
3. **two replicas, one cache** — two servers sharing ``--cache-dir``
   are given the same study concurrently; both must finish with
   byte-identical results.  Both write one SQLite cache store: each
   checkpoint flush is a transaction that SQLite's file locking
   serialises, and points upsert on their primary key, so neither
   replica can tear or regress the other's progress.

Legs 1 and 3 use per-run scratch directories, which are part of the
telemetry config hash — so those servers deliberately skip the
warehouse; their assertions live here.  Leg 2's argv is fully
deterministic, which is what makes its warehouse baseline gateable.

Exit status: 0 = every leg passed, 1 = anything failed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import sqlite3
import subprocess
import sys
import tempfile
import time

from repro import harness
from repro.serve import ServeClient

#: 15 matrix points: wide enough that a SIGKILL lands mid-sweep.
RECOVERY_DOC = {
    "stencils": ["7pt", "13pt", "27pt"],
    "variants": ["array"],
    "domain": [64, 64, 64],
}

#: 1-point study for the wedged / poison / normal supervised jobs.
POINT_DOC = {
    "stencils": ["7pt"], "variants": ["array"], "domain": [64, 64, 64],
    "platforms": ["A100-CUDA"],
}

JOB_DEADLINE_S = 2.0
MAX_CRASHES = 2


def _fail(failures: list, message: str) -> None:
    print(f"FAIL: {message}")
    failures.append(message)


def _ok(message: str) -> None:
    print(f"ok: {message}")


def boot_server(*extra: str) -> tuple:
    """Start ``repro-stencil serve`` on a free port; returns (proc, client)."""
    argv = [
        sys.executable, "-m", "repro.cli", "serve",
        "--port", "0", *extra,
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop("REPRO_CACHE_DIR", None)
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env,
    )
    ready = proc.stdout.readline()
    match = re.search(r"http://[\d.]+:(\d+)", ready)
    if not match:
        proc.kill()
        raise RuntimeError(f"server never became ready: {ready!r}")
    client = ServeClient(
        f"http://127.0.0.1:{match.group(1)}", timeout_s=60.0
    )
    return proc, client


def sigterm(proc: subprocess.Popen, timeout_s: float = 60.0):
    proc.send_signal(signal.SIGTERM)
    try:
        output, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        return None, "did not exit"
    return proc.returncode, output


# ---- leg 1: kill -9 recovery ----------------------------------------------
def store_has_points(cache: str) -> bool:
    """Whether the cache store holds at least one ``points`` row.

    A read-only query, so the probe never creates or locks the file
    for writing; a store not yet created (or mid-creation) reads False.
    """
    uri = f"file:{harness.study_cache_path(cache)}?mode=ro"
    try:
        conn = sqlite3.connect(uri, uri=True)
        try:
            return conn.execute(
                "SELECT EXISTS (SELECT 1 FROM points)"
            ).fetchone()[0] == 1
        finally:
            conn.close()
    except sqlite3.Error:
        return False


def kill9_attempt(base: str, expected: bytes) -> tuple:
    """One kill -9 drill on fresh scratch state; returns (ok, why)."""
    journal = os.path.join(base, "journal.db")
    cache = os.path.join(base, "cache")
    os.makedirs(base, exist_ok=True)
    proc, client = boot_server(
        "--workers", "1", "--journal", journal, "--cache-dir", cache,
        "--checkpoint-every", "1",
    )
    job_id = client.submit(RECOVERY_DOC)["job_id"]
    deadline = time.monotonic() + 60.0
    killed = False
    while time.monotonic() < deadline:
        if store_has_points(cache):
            proc.kill()  # SIGKILL: no drain, no flush, no mercy
            proc.wait(timeout=30)
            killed = True
            break
        time.sleep(0.002)
    if not killed:
        sigterm(proc)
        return False, "no checkpoint ever appeared"

    proc2, client2 = boot_server(
        "--workers", "1", "--journal", journal, "--cache-dir", cache,
    )
    try:
        final = client2.wait(job_id, timeout_s=120.0)
        body = client2.result_bytes(job_id)
        metrics = client2.metrics()
    finally:
        code, output = sigterm(proc2)
    if final["state"] != "done":
        return False, f"recovered job ended {final['state']}"
    if code != 0:
        return False, f"restarted server exited {code}"
    if body != expected:
        return False, "recovered result is not byte-identical"
    if metrics.get("serve.recovery.replayed_jobs", 0) < 1:
        return False, "journal replay re-enqueued nothing"
    resumed = metrics.get("study.resumed_points", 0)
    if resumed < 1:
        return False, "sweep finished before the SIGKILL landed"
    return True, (
        f"resumed {resumed} checkpointed points, re-simulated "
        f"{len(RECOVERY_DOC['stencils']) * 5 - resumed}"
    )


def kill9_leg(failures: list, expected: bytes, workdir: str) -> None:
    whys = []
    for attempt in range(3):
        ok, why = kill9_attempt(
            os.path.join(workdir, f"kill9-{attempt}"), expected
        )
        whys.append(why)
        if ok:
            _ok(f"kill -9 recovered byte-identically ({why})")
            return
        if "before the SIGKILL" not in why and "no checkpoint" not in why:
            break  # a real failure, not a racy miss
    _fail(failures, f"kill -9 drill never recovered: {whys}")


# ---- leg 2: supervised process workers ------------------------------------
def supervised_session(telemetry_db: str, failures: list) -> None:
    proc, client = boot_server(
        "--workers", "2", "--backend", "process",
        "--job-deadline", str(JOB_DEADLINE_S),
        "--max-crashes", str(MAX_CRASHES),
        "--telemetry-db", telemetry_db,
    )
    try:
        wedged = client.submit(POINT_DOC, {"sleep_s": 30.0})
        poison = client.submit(POINT_DOC, {"drill_exit": 7})
        final_poison = client.wait(poison["job_id"], timeout_s=120.0)
        final_wedged = client.wait(wedged["job_id"], timeout_s=120.0)
        # A normal job completes even after all of the above carnage.
        ok_job = client.submit(POINT_DOC)
        final_ok = client.wait(ok_job["job_id"], timeout_s=120.0)
        metrics = client.metrics()

        if final_wedged["state"] != "failed" or "deadline" not in (
            final_wedged.get("error") or ""
        ):
            _fail(failures, f"wedged job not deadline-killed: {final_wedged}")
        else:
            _ok(f"wedged worker killed at its {JOB_DEADLINE_S:g}s deadline")
        if final_poison["state"] != "failed" or "poison" not in (
            final_poison.get("error") or ""
        ):
            _fail(failures, f"poison job not quarantined: {final_poison}")
        elif final_poison.get("attempts") != MAX_CRASHES + 1:
            _fail(failures, f"poison attempts != {MAX_CRASHES + 1}: "
                  f"{final_poison}")
        else:
            _ok(f"poison job quarantined after {MAX_CRASHES + 1} crashes")
        if final_ok["state"] != "done":
            _fail(failures, f"normal job died with the chaos: {final_ok}")
        else:
            _ok("normal job completed amid the chaos")
        expected_counts = {
            "serve.supervisor.deadline_kills": 1,
            "serve.supervisor.quarantined": 1,
            "serve.supervisor.crashes": MAX_CRASHES + 1,
            "serve.supervisor.requeued": MAX_CRASHES,
        }
        for name, want in expected_counts.items():
            got = metrics.get(name, 0)
            if got != want:
                _fail(failures, f"{name} = {got}, wanted {want}")
    finally:
        code, output = sigterm(proc)
    if code != 0:
        _fail(failures, f"supervised server exited {code}; "
              f"tail: {(output or '')[-300:]}")
    elif "telemetry: run" not in (output or ""):
        _fail(failures, "supervised session not recorded to the warehouse")
    else:
        _ok("supervised session recorded to the warehouse")


# ---- leg 3: two replicas, one cache ---------------------------------------
def replica_leg(failures: list, expected: bytes, workdir: str) -> None:
    cache = os.path.join(workdir, "shared-cache")
    servers = [
        boot_server("--workers", "1", "--cache-dir", cache)
        for _ in range(2)
    ]
    try:
        jobs = [client.submit(RECOVERY_DOC) for _, client in servers]
        bodies = []
        for (_, client), job in zip(servers, jobs):
            final = client.wait(job["job_id"], timeout_s=120.0)
            if final["state"] != "done":
                _fail(failures, f"replica job ended {final['state']}")
                return
            bodies.append(client.result_bytes(job["job_id"]))
    finally:
        for proc, _ in servers:
            sigterm(proc)
    if bodies[0] != bodies[1]:
        _fail(failures, "replicas served different bytes for one study")
    elif bodies[0] != expected:
        _fail(failures, "replicas agree but differ from the direct run")
    else:
        _ok("two replicas over one cache served identical, correct bytes")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--telemetry-db", default="chaos-telemetry.db", metavar="PATH",
        help="warehouse the supervised sessions append to "
        "(default chaos-telemetry.db)",
    )
    parser.add_argument(
        "--workdir", default=None, metavar="DIR",
        help="scratch directory for journals/caches (default: a tempdir)",
    )
    parser.add_argument(
        "--sessions", type=int, default=2,
        help="supervised-leg sessions (default 2: the second gives "
        "'obs diff' a same-config baseline)",
    )
    args = parser.parse_args(argv)
    workdir = args.workdir or tempfile.mkdtemp(prefix="chaos-serve-")

    print("computing the direct-run reference bytes...")
    study = harness.run_study(harness.config_from_dict(RECOVERY_DOC))
    expected = json.dumps(harness.study_to_dict(study), indent=1).encode()

    failures: list = []
    print("\n--- leg 1: kill -9 recovery ---")
    kill9_leg(failures, expected, workdir)
    for session in range(1, args.sessions + 1):
        print(f"\n--- leg 2: supervised workers "
              f"(session {session}/{args.sessions}) ---")
        supervised_session(args.telemetry_db, failures)
    print("\n--- leg 3: two replicas, one cache ---")
    replica_leg(failures, expected, workdir)

    if failures:
        print(f"\nCHAOS SERVE FAILED ({len(failures)} problem(s)):")
        for message in failures:
            print(f"  - {message}")
        return 1
    print("\nchaos serve OK: kill -9 recovery, supervised workers, "
          "shared-cache replicas")
    return 0


if __name__ == "__main__":
    sys.exit(main())
