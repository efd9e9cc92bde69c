"""Crash-recovery drills against the real server: kill -9 and SIGTERM.

These boot ``repro-stencil serve`` as a subprocess (the same way CI's
service smoke does) so the recovery path is exercised end-to-end: real
journal file, a real cache store with checkpointed points, a real ``SIGKILL`` with no chance
to flush anything, and a cold restart on the same state.
"""

import json
import os
import re
import signal
import sqlite3
import subprocess
import sys
import time

import pytest

from repro import harness
from repro.serve import JobJournal, ServeClient

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The full 90-point matrix (6 stencils x 3 variants x 5 platforms) at a
#: small domain.  With ``--checkpoint-every 1`` the batch evaluates all
#: points first and then flushes them one commit at a time, so the sweep
#: stays open for 89 commits after the first flush becomes visible: the
#: SIGKILL window is set by the store's commit time, not by how fast the
#: engine evaluates (a 15-point matrix left it only 14 commits).
RECOVERY_DOC = {"domain": [64, 64, 64]}

#: 1-point blocker for the drain drill; ``sleep_s`` keeps it running
#: (and non-clean, so it never dedups) while more work queues behind it.
BLOCKER_DOC = {
    "stencils": ["7pt"], "variants": ["array"], "domain": [64, 64, 64],
    "platforms": ["A100-CUDA"],
}

QUEUED_DOCS = (
    {"stencils": ["13pt"], "variants": ["array"], "domain": [64, 64, 64]},
    {"stencils": ["27pt"], "variants": ["array"], "domain": [64, 64, 64]},
)


def boot(*extra):
    """Start the CLI server on a free port; returns (proc, client)."""
    argv = [
        sys.executable, "-m", "repro.cli", "serve",
        "--port", "0", "--workers", "1", *extra,
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop("REPRO_CACHE_DIR", None)
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=REPO_ROOT,
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


def store_has_points(cache):
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


def sigterm(proc, timeout_s=60):
    proc.send_signal(signal.SIGTERM)
    output, _ = proc.communicate(timeout=timeout_s)
    return proc.returncode, output


@pytest.fixture(scope="module")
def expected_bytes():
    """Direct in-process reference result for RECOVERY_DOC."""
    study = harness.run_study(harness.config_from_dict(RECOVERY_DOC))
    return json.dumps(harness.study_to_dict(study), indent=1).encode()


class TestKillDashNine:
    def attempt(self, base, expected):
        """One kill -9 drill; returns (ok, why)."""
        journal = os.path.join(base, "journal.db")
        cache = os.path.join(base, "cache")
        os.makedirs(base, exist_ok=True)
        proc, client = boot(
            "--journal", journal, "--cache-dir", cache,
            "--checkpoint-every", "1",
        )
        job = client.submit(RECOVERY_DOC)
        job_id = job["job_id"]
        # SIGKILL the instant the first checkpoint flush commits: the
        # sweep is provably mid-flight with completed points saved.
        deadline = time.monotonic() + 60.0
        killed = False
        while time.monotonic() < deadline:
            if store_has_points(cache):
                proc.kill()  # SIGKILL: no drain, no journal flush
                proc.wait(timeout=30)
                killed = True
                break
            time.sleep(0.002)
        if not killed:
            sigterm(proc)
            return False, "no checkpoint ever appeared"
        # The sweep may still outrun the kill: a job the journal already
        # records as done is restored, not replayed, on restart.
        j = JobJournal(journal)
        try:
            states = {r.job_id: r.state for r in j.replay()}
        finally:
            j.close()
        if states.get(job_id) == "done":
            return False, "the journal shows the job done before the SIGKILL"

        # Cold restart on the same journal + cache: the job must replay,
        # resume from the checkpoint, and finish byte-identical.
        proc2, client2 = boot("--journal", journal, "--cache-dir", cache)
        try:
            final = client2.wait(job_id, timeout_s=120.0)
            if final["state"] != "done":
                return False, f"recovered job ended {final}"
            body = client2.result_bytes(job_id)
            metrics = client2.metrics()
        finally:
            code, output = sigterm(proc2)
        if code != 0:
            return False, f"restarted server exited {code}: {output[-300:]}"
        if body != expected:
            return False, "recovered result is not byte-identical"
        if metrics.get("serve.recovery.replayed_jobs", 0) < 1:
            return False, f"no replayed jobs counted: {metrics}"
        resumed = metrics.get("study.resumed_points", 0)
        if resumed < 1:
            # The sweep outran the kill; nothing was left to resume.
            return False, "sweep finished before the SIGKILL landed"
        return True, f"resumed {resumed} checkpointed points"

    def test_kill9_recovers_byte_identical(self, tmp_path, expected_bytes):
        whys = []
        for attempt in range(3):
            ok, why = self.attempt(
                str(tmp_path / f"attempt{attempt}"), expected_bytes
            )
            whys.append(why)
            if ok:
                return
            # Only a racy miss (too-fast sweep) deserves another try.
            if "before the SIGKILL" not in why and "no checkpoint" not in why:
                break
        pytest.fail(f"kill -9 drill never recovered: {whys}")


class TestSigtermDrain:
    def test_drain_finishes_running_and_journals_queued(self, tmp_path):
        journal = str(tmp_path / "journal.db")
        proc, client = boot("--journal", journal, "--drain-timeout", "30")
        blocker = client.submit(BLOCKER_DOC, {"sleep_s": 2.0})
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if client.status(blocker["job_id"])["state"] == "running":
                break
            time.sleep(0.02)
        else:
            sigterm(proc)
            pytest.fail("blocker never started running")
        queued = [client.submit(doc) for doc in QUEUED_DOCS]
        assert all(j["state"] == "queued" for j in queued)

        code, output = sigterm(proc)
        assert code == 0, f"drain exit {code}: {output[-300:]}"

        j = JobJournal(journal)
        try:
            states = {r.job_id: r.state for r in j.replay()}
        finally:
            j.close()
        # The running blocker got its drain window and finished; the
        # queued jobs were left journaled for the next boot.
        assert states[blocker["job_id"]] == "done"
        for job in queued:
            assert states[job["job_id"]] == "queued"

        # Full circle: a restart on the same journal completes them.
        proc2, client2 = boot("--journal", journal)
        try:
            for job in queued:
                final = client2.wait(job["job_id"], timeout_s=120.0)
                assert final["state"] == "done"
        finally:
            code, _ = sigterm(proc2)
        assert code == 0
