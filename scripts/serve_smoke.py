#!/usr/bin/env python
"""Service smoke: end-to-end drill of the study-serving HTTP service.

CI's ``service`` job runs this after the unit tests.  Each *session*
boots the real CLI server (``repro-stencil serve``) as a subprocess and
drives it over real HTTP:

1. **e2e study** — submit the paper's full 90-point study, poll to
   completion, fetch the result, and require it byte-identical to a
   direct in-process ``run_study`` + ``dump_study``.
2. **dedup** — immediately resubmit the same config: the job must be
   born ``done`` with ``dedup: true``, and the server's ``/metricz``
   counters must show zero additional simulated points.
3. **concurrency** — two distinct small studies submitted back-to-back
   share the worker pool and both complete.
4. **backpressure** — with both workers provably busy (status-polled to
   ``running``) and the queue filled to its limit, the next submission
   must bounce with HTTP 429 + ``Retry-After``; the queued drill jobs
   are then cancelled (so the drill never adds nondeterministic work).
5. **clean shutdown** — SIGTERM; the server must exit 0 and append its
   session (``serve.*`` counters, request spans) to the telemetry
   warehouse.

The drill runs **twice** against one warehouse with identical server
arguments, so the second session has a same-config rolling baseline —
CI follows up with ``repro-stencil obs diff`` as a *hard* gate (exit 2
on regression) over the ``serve.*`` specs in
:data:`repro.obs.regress.DEFAULT_SPECS`.  Every leg simulates a
deterministic number of points (drill jobs are cancelled, never run),
which is what makes the warehouse's ``counter.study.points``
equal-direction spec able to gate at zero tolerance.

Session 2 also exports the server's span tree as a Chrome trace
(``SERVE_trace.json``) for the artifact upload.

Exit status: 0 = every leg of both sessions passed, 1 = anything
failed or the server misbehaved.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time

from repro import harness
from repro.serve import BackpressureError, ServeClient

#: The two distinct small configs of the concurrency leg (5 points each).
CONCURRENT_DOCS = (
    {"stencils": ["7pt"], "variants": ["array"], "domain": [64, 64, 64]},
    {"stencils": ["13pt"], "variants": ["array"], "domain": [64, 64, 64]},
)

#: The 1-point config of the backpressure blockers (cancelled drill jobs
#: never run, so each session simulates exactly 90 + 5 + 5 + 2 points).
BLOCKER_DOC = {
    "stencils": ["7pt"], "variants": ["array"], "domain": [64, 64, 64],
    "platforms": ["A100-CUDA"],
}

QUEUE_LIMIT = 3
WORKERS = 2
BLOCKER_SLEEP_S = 3.0


def _fail(failures: list, message: str) -> None:
    print(f"FAIL: {message}")
    failures.append(message)


def _ok(message: str) -> None:
    print(f"ok: {message}")


def boot_server(telemetry_db: str, trace_out: str | None) -> tuple:
    """Start ``repro-stencil serve`` on a free port; returns (proc, client)."""
    argv = [
        sys.executable, "-m", "repro.cli", "serve",
        "--port", "0",
        "--workers", str(WORKERS),
        "--queue-limit", str(QUEUE_LIMIT),
        "--telemetry-db", telemetry_db,
    ]
    if trace_out:
        # --trace is observability plumbing: excluded from the config
        # hash, so both sessions still share one baseline group.
        argv += ["--trace", trace_out, "--trace-format", "chrome"]
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env,
    )
    ready = proc.stdout.readline()
    match = re.search(r"http://[\d.]+:(\d+)", ready)
    if not match:
        proc.kill()
        raise RuntimeError(f"server never became ready: {ready!r}")
    client = ServeClient(f"http://127.0.0.1:{match.group(1)}", timeout_s=60.0)
    return proc, client


def e2e_leg(client: ServeClient, failures: list, expected: bytes) -> None:
    """Leg 1: full paper study through the service, byte-identical."""
    t0 = time.perf_counter()
    job = client.submit()  # empty body = the paper's default config
    final = client.wait(job["job_id"], timeout_s=300.0)
    body = client.result_bytes(job["job_id"])
    elapsed = time.perf_counter() - t0
    if final["state"] != "done" or not final.get("complete"):
        _fail(failures, f"90-point study did not complete: {final}")
    elif final["points"] != 90:
        _fail(failures, f"expected 90 points, got {final['points']}")
    elif body != expected:
        _fail(failures, "served study is not byte-identical to dump_study")
    else:
        _ok(f"90-point study served byte-identical in {elapsed:.2f} s")


def dedup_leg(client: ServeClient, failures: list) -> None:
    """Leg 2: duplicate submission answered from the store, zero sims."""
    points_before = client.metrics().get("study.points", 0)
    job = client.submit()
    points_after = client.metrics().get("study.points", 0)
    if not job["dedup"] or job["state"] != "done":
        _fail(failures, f"duplicate submission was not a dedup hit: {job}")
    elif points_after != points_before:
        _fail(
            failures,
            f"dedup hit re-simulated points "
            f"({points_before} -> {points_after})",
        )
    else:
        hits = client.metrics().get("serve.dedup_hits", 0)
        _ok(f"duplicate served from the store with zero simulation "
            f"(serve.dedup_hits={hits})")


def concurrency_leg(client: ServeClient, failures: list) -> None:
    """Leg 3: two tenants' jobs in flight over one worker pool."""
    jobs = [client.submit(doc) for doc in CONCURRENT_DOCS]
    finals = [client.wait(j["job_id"]) for j in jobs]
    if any(f["state"] != "done" for f in finals):
        _fail(failures, f"concurrent jobs failed: "
              f"{[f['state'] for f in finals]}")
    elif jobs[0]["job_id"] == jobs[1]["job_id"]:
        _fail(failures, "distinct configs coalesced onto one job")
    else:
        _ok("two concurrent jobs completed over one pool")


def backpressure_leg(client: ServeClient, failures: list) -> None:
    """Leg 4: full queue bounces with 429; drill jobs are cancelled."""
    sleepy = {"sleep_s": BLOCKER_SLEEP_S}
    blockers = [client.submit(BLOCKER_DOC, sleepy) for _ in range(WORKERS)]
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        states = [client.status(j["job_id"])["state"] for j in blockers]
        if all(s == "running" for s in states):
            break
        time.sleep(0.05)
    else:
        _fail(failures, f"blockers never started running: {states}")
        return
    drills = [
        client.submit(BLOCKER_DOC, sleepy) for _ in range(QUEUE_LIMIT)
    ]
    try:
        client.submit(BLOCKER_DOC, sleepy)
    except BackpressureError as exc:
        if exc.retry_after_s < 1.0:
            _fail(failures, f"429 Retry-After too small: {exc.retry_after_s}")
        else:
            _ok(f"queue-full submission bounced with 429 "
                f"(Retry-After: {exc.retry_after_s:g}s)")
    else:
        _fail(failures, "submission beyond the queue limit was accepted")
    # Cancel the queued drills: they must never run (deterministic
    # session point count) and cancellation itself is part of the drill.
    for job in drills:
        doc = client.cancel(job["job_id"])
        if doc["state"] != "cancelled":
            _fail(failures, f"drill job would not cancel: {doc}")
    # Let the blockers finish so shutdown doesn't race a running sweep.
    for job in blockers:
        final = client.wait(job["job_id"], timeout_s=60.0)
        if final["state"] != "done":
            _fail(failures, f"blocker ended {final['state']}")


def shutdown_leg(proc: subprocess.Popen, failures: list) -> None:
    """Leg 5: SIGTERM -> exit 0 with the telemetry record appended."""
    proc.send_signal(signal.SIGTERM)
    try:
        output, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        _fail(failures, "server did not exit within 60s of SIGTERM")
        return
    if proc.returncode != 0:
        _fail(failures, f"server exited {proc.returncode}; tail: "
              f"{output[-400:]}")
    elif "telemetry: run" not in output:
        _fail(failures, f"server session was not recorded to the "
              f"warehouse; tail: {output[-400:]}")
    else:
        _ok("clean shutdown, session recorded to the warehouse")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--telemetry-db", default="serve-telemetry.db", metavar="PATH",
        help="warehouse both sessions append to (default serve-telemetry.db)",
    )
    parser.add_argument(
        "--trace-out", default="SERVE_trace.json", metavar="FILE",
        help="Chrome trace of session 2's server (default SERVE_trace.json)",
    )
    parser.add_argument(
        "--sessions", type=int, default=2,
        help="server sessions to drill (default 2: the second gives "
        "'obs diff' a same-config baseline)",
    )
    args = parser.parse_args(argv)

    print("computing the direct-run reference bytes...")
    study = harness.run_study()
    expected = json.dumps(
        harness.study_to_dict(study), indent=1
    ).encode()

    failures: list = []
    for session in range(1, args.sessions + 1):
        trace = args.trace_out if session == args.sessions else None
        print(f"\n--- session {session}/{args.sessions} ---")
        proc, client = boot_server(args.telemetry_db, trace)
        try:
            e2e_leg(client, failures, expected)
            dedup_leg(client, failures)
            concurrency_leg(client, failures)
            backpressure_leg(client, failures)
        finally:
            shutdown_leg(proc, failures)

    if failures:
        print(f"\nSERVICE SMOKE FAILED ({len(failures)} problem(s)):")
        for message in failures:
            print(f"  - {message}")
        return 1
    print("\nservice smoke OK: e2e, dedup, concurrency, backpressure, "
          "shutdown")
    return 0


if __name__ == "__main__":
    sys.exit(main())
