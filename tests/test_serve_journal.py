"""Durable job journal: schema guard, write-ahead records, replay."""

import sqlite3
import threading

import pytest

from repro import obs
from repro.errors import JournalError
from repro.harness.experiments import ExperimentConfig
from repro.serve import (
    JOURNAL_SCHEMA_VERSION,
    JobJournal,
    JobOptions,
    Orchestrator,
    ResultStore,
)

SMALL = ExperimentConfig(stencils=("7pt",), variants=("array",), domain=(64, 64, 64))
OTHER = ExperimentConfig(stencils=("13pt",), variants=("array",), domain=(64, 64, 64))


@pytest.fixture
def registry():
    prev = obs.get_registry()
    reg = obs.set_registry(obs.MetricsRegistry())
    yield reg
    obs.set_registry(prev)


@pytest.fixture
def journal(tmp_path):
    j = JobJournal(str(tmp_path / "journal.db"))
    yield j
    j.close()


def submit(journal, job_id, config=SMALL, state="queued"):
    journal.record_submit(
        job_id, config.to_dict(), JobOptions().to_dict(),
        f"hash-{job_id}", state=state,
    )


class TestSchema:
    def test_fresh_journal_stamps_version(self, tmp_path, journal):
        conn = sqlite3.connect(str(tmp_path / "journal.db"))
        assert (
            conn.execute("PRAGMA user_version").fetchone()[0]
            == JOURNAL_SCHEMA_VERSION
        )
        conn.close()

    def test_version_mismatch_rejected_loudly(self, tmp_path):
        path = str(tmp_path / "old.db")
        JobJournal(path).close()
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA user_version = 999")
        conn.close()
        with pytest.raises(JournalError, match="schema version 999"):
            JobJournal(path)

    def test_reopen_same_version_is_fine(self, tmp_path):
        path = str(tmp_path / "journal.db")
        j = JobJournal(path)
        submit(j, "j00001")
        j.close()
        j2 = JobJournal(path)
        assert len(j2) == 1
        j2.close()

    def test_wal_mode(self, journal):
        mode = journal._conn.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"


class TestRecords:
    def test_submit_then_replay_round_trips(self, journal):
        submit(journal, "j00001")
        (rec,) = journal.replay()
        assert rec.job_id == "j00001"
        assert rec.state == "queued"
        assert rec.attempts == 0
        assert rec.config == SMALL.to_dict()
        assert rec.options == {}

    def test_replay_preserves_submission_order(self, journal):
        for n in (3, 1, 2):
            submit(journal, f"j0000{n}")
        assert [r.job_id for r in journal.replay()] == [
            "j00003", "j00001", "j00002",
        ]

    def test_state_transitions_update_and_log(self, journal):
        submit(journal, "j00001")
        journal.record_state("j00001", "running")
        journal.record_state(
            "j00001", "done", result_key="hash-j00001"
        )
        rec = journal.job("j00001")
        assert rec.state == "done"
        assert rec.result_key == "hash-j00001"
        assert [e["state"] for e in journal.events("j00001")] == [
            "queued", "running", "done",
        ]

    def test_error_and_note_stick_via_coalesce(self, journal):
        submit(journal, "j00001")
        journal.record_state("j00001", "failed", error="boom", note="why")
        journal.record_state("j00001", "failed")  # no error: keeps old one
        rec = journal.job("j00001")
        assert rec.error == "boom"
        assert rec.note == "why"

    def test_attempts_accumulate(self, journal):
        submit(journal, "j00001")
        assert journal.record_attempt("j00001") == 1
        assert journal.record_attempt("j00001") == 2
        assert journal.job("j00001").attempts == 2

    def test_unknown_job_raises(self, journal):
        with pytest.raises(JournalError, match="unknown job"):
            journal.record_state("nope", "done")
        with pytest.raises(JournalError, match="unknown job"):
            journal.record_attempt("nope")
        assert journal.job("nope") is None

    def test_thread_safe_appends(self, journal):
        def writer(base):
            for n in range(20):
                submit(journal, f"j{base + n:05d}")

        threads = [
            threading.Thread(target=writer, args=(1 + i * 100,))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(journal) == 80


class TestOrchestratorReplay:
    def run_all(self, orch, jobs):
        import time

        orch.start()
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if all(j.finished for j in jobs):
                break
            time.sleep(0.01)
        orch.stop()

    def test_queued_jobs_requeue_fifo(self, tmp_path, registry):
        path = str(tmp_path / "journal.db")
        o1 = Orchestrator(ResultStore(), workers=1, journal=path)
        j1 = o1.submit(SMALL)
        j2 = o1.submit(OTHER)
        o1.close()  # "kill -9": workers never started, jobs still queued

        o2 = Orchestrator(ResultStore(), workers=1, journal=path)
        replayed = o2.recover()
        assert replayed == 2
        ids = [j.job_id for j in o2.jobs()]
        assert sorted(ids) == [j1.job_id, j2.job_id]
        assert o2.queue.get().job_id == j1.job_id  # FIFO-stable
        assert o2.queue.get().job_id == j2.job_id
        assert registry.get("serve.recovery.replayed_jobs").value == 2
        o2.close()

    def test_running_jobs_resume_first_and_complete(self, tmp_path, registry):
        path = str(tmp_path / "journal.db")
        o1 = Orchestrator(ResultStore(), workers=1, journal=path)
        running = o1.submit(SMALL)
        o1.journal.record_state(running.job_id, "running")
        queued = o1.submit(OTHER)
        o1.close()

        o2 = Orchestrator(ResultStore(), workers=1, journal=path)
        o2.start()
        jobs = {j.job_id: j for j in o2.jobs()}
        self.run_all(o2, list(jobs.values()))
        assert jobs[running.job_id].state == "done"
        assert jobs[queued.job_id].state == "done"
        assert registry.get("serve.recovery.resumed_running").value == 1
        rec = o2.journal.job(running.job_id)
        assert rec.state == "done"
        assert rec.attempts == 1  # the crash counted as one attempt
        o2.close()

    def test_done_job_restored_from_store(self, tmp_path, registry):
        path = str(tmp_path / "journal.db")
        cache = str(tmp_path / "cache")
        o1 = Orchestrator(ResultStore(cache), workers=1, journal=path)
        o1.start()
        job = o1.submit(SMALL)
        self.run_all(o1, [job])
        assert job.state == "done"
        o1.close()

        o2 = Orchestrator(ResultStore(cache), workers=1, journal=path)
        o2.recover()
        restored = o2.job(job.job_id)
        assert restored.state == "done"
        assert restored.study is not None
        assert registry.get("serve.recovery.restored_done").value == 1
        o2.close()

    def test_done_job_with_lost_result_fails_with_note(self, tmp_path, registry):
        path = str(tmp_path / "journal.db")
        o1 = Orchestrator(ResultStore(), workers=1, journal=path)
        job = o1.submit(SMALL)
        o1.journal.record_state(job.job_id, "running")
        o1.journal.record_state(job.job_id, "done")
        o1.close()

        # Store-less restart: the in-memory result did not survive.
        o2 = Orchestrator(ResultStore(), workers=1, journal=path)
        o2.recover()
        lost = o2.job(job.job_id)
        assert lost.state == "failed"
        assert "lost across restart" in lost.error
        assert registry.get("serve.recovery.lost_results").value == 1
        o2.close()

    def test_crash_looping_job_is_quarantined(self, tmp_path, registry):
        path = str(tmp_path / "journal.db")
        o1 = Orchestrator(ResultStore(), workers=1, journal=path, max_crashes=2)
        job = o1.submit(SMALL)
        o1.journal.record_state(job.job_id, "running")
        o1.journal.record_attempt(job.job_id)
        o1.journal.record_attempt(job.job_id)  # two crashes already
        o1.close()

        o2 = Orchestrator(ResultStore(), workers=1, journal=path, max_crashes=2)
        o2.recover()
        poisoned = o2.job(job.job_id)
        assert poisoned.state == "failed"
        assert "quarantined" in poisoned.error
        assert registry.get("serve.recovery.unrecoverable").value == 1
        assert len(o2.queue) == 0
        o2.close()

    def test_row_with_removed_dispatch_option_is_failed(
        self, tmp_path, registry
    ):
        # A journal written before ``dispatch`` was dropped from
        # JobOptions: recovery fails the row instead of crashing.
        path = str(tmp_path / "journal.db")
        o1 = Orchestrator(ResultStore(), workers=1, journal=path)
        o1.journal.record_submit(
            "legacy-1", SMALL.to_dict(), {"dispatch": "serial"}, "hash-legacy",
        )
        good = o1.submit(OTHER)
        o1.close()

        o2 = Orchestrator(ResultStore(), workers=1, journal=path)
        assert o2.recover() == 1
        rec = o2.journal.job("legacy-1")
        assert rec.state == "failed"
        assert "unreplayable journal row" in rec.error
        assert "unknown option(s) ['dispatch']" in rec.error
        assert registry.get("serve.recovery.unrecoverable").value == 1
        assert o2.queue.get().job_id == good.job_id
        o2.close()

    def test_terminal_jobs_keep_their_outcome(self, tmp_path, registry):
        path = str(tmp_path / "journal.db")
        o1 = Orchestrator(ResultStore(), workers=1, journal=path)
        job = o1.submit(SMALL)
        o1.journal.record_state(job.job_id, "running")
        o1.journal.record_state(job.job_id, "failed", error="boom")
        o1.close()

        o2 = Orchestrator(ResultStore(), workers=1, journal=path)
        o2.recover()
        failed = o2.job(job.job_id)
        assert failed.state == "failed"
        assert failed.error == "boom"
        o2.close()

    def test_fresh_ids_do_not_collide_with_replayed(self, tmp_path, registry):
        path = str(tmp_path / "journal.db")
        o1 = Orchestrator(ResultStore(), workers=1, journal=path)
        replayed_ids = {o1.submit(SMALL).job_id, o1.submit(OTHER).job_id}
        o1.close()

        o2 = Orchestrator(ResultStore(), workers=1, journal=path)
        o2.recover()
        fresh = o2.submit(
            ExperimentConfig(
                stencils=("27pt",), variants=("array",), domain=(64, 64, 64)
            )
        )
        assert fresh.job_id not in replayed_ids
        o2.close()

    def test_journal_survives_more_jobs_than_queue_limit(self, tmp_path):
        path = str(tmp_path / "journal.db")
        o1 = Orchestrator(ResultStore(), workers=1, queue_limit=8, journal=path)
        for n in range(6):
            o1.submit(
                ExperimentConfig(
                    stencils=("7pt",), variants=("array",),
                    domain=(32 + 16 * n, 64, 64),
                )
            )
        o1.close()
        # Replay into a much smaller queue: force-put must admit all six.
        o2 = Orchestrator(ResultStore(), workers=1, queue_limit=2, journal=path)
        assert o2.recover() == 6
        assert len(o2.queue) == 6
        o2.close()
