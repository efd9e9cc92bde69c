"""Durable write-ahead job journal: the service survives ``kill -9``.

The orchestrator's in-memory registry is exactly the state a process
crash destroys: which jobs were accepted, which were running, which
finished and where their results live.  The :class:`JobJournal` writes
that state *ahead* of the work to a schema-versioned SQLite database
(stdlib ``sqlite3``, opened through :func:`repro.dbfile.open_versioned_db`
like every other store), so a restart can rebuild the registry instead
of orphaning every queued and running job:

* **jobs** — one row per accepted job: id, config + options documents
  (the same JSON the HTTP API speaks), config hash (the result pointer
  into the shared store / ``--cache-dir``), current state, submission
  sequence, attempt count, error, and a free-form recovery note;
* **events** — an append-only log of every state transition with a UTC
  stamp, for post-mortems (``sqlite3 journal.db 'select * from events'``
  reconstructs any job's life).

Durability posture: the database runs in WAL mode — every committed
transaction survives ``kill -9`` (WAL replay on the next open); only an
fsync-swallowing power loss could lose the tail, which is out of scope
for a service whose failure drill is process murder.  Writes are tiny
(one row per transition) and happen on the submission / completion
paths, never per matrix point — per-point durability is the study
checkpoint's job (the incomplete study rows of the ``--cache-dir``
result store), which is what replayed ``running`` jobs resume from.

Replay contract (:meth:`JobJournal.replay`): rows come back in
submission order, so the orchestrator re-enqueues ``queued`` jobs
FIFO-stable; ``running`` rows are re-enqueued ahead of them (they held
a worker before the crash) with their attempt count bumped — a row
whose attempts exceed the poison threshold is *not* re-run but marked
``failed`` with a recovery note, so a job that kills the server on
every boot cannot crash-loop it forever.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional

from repro.dbfile import open_versioned_db
from repro.errors import JournalError

__all__ = ["JOURNAL_SCHEMA_VERSION", "JobJournal", "JournalRecord"]

#: Version of the journal schema.  Bump whenever a table or column
#: changes meaning; old journals are rejected loudly, never migrated —
#: replaying a misread job row would corrupt tenant state.
JOURNAL_SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    seq          INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id       TEXT NOT NULL UNIQUE,
    config       TEXT NOT NULL,
    options      TEXT NOT NULL,
    config_hash  TEXT NOT NULL,
    state        TEXT NOT NULL,
    submitted_utc TEXT NOT NULL,
    attempts     INTEGER NOT NULL DEFAULT 0,
    error        TEXT,
    note         TEXT,
    result_key   TEXT
);
CREATE TABLE IF NOT EXISTS events (
    seq     INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id  TEXT NOT NULL,
    state   TEXT NOT NULL,
    at_utc  TEXT NOT NULL,
    detail  TEXT
);
CREATE INDEX IF NOT EXISTS idx_jobs_state ON jobs (state, seq);
CREATE INDEX IF NOT EXISTS idx_events_job ON events (job_id, seq);
"""


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="milliseconds")


@dataclass(frozen=True)
class JournalRecord:
    """One journaled job, as :meth:`JobJournal.replay` returns it."""

    seq: int
    job_id: str
    config: Dict[str, Any]
    options: Dict[str, Any]
    config_hash: str
    state: str
    submitted_utc: str
    attempts: int
    error: Optional[str]
    note: Optional[str]
    result_key: Optional[str]


class JobJournal:
    """Append-and-replay interface over one journal database file.

    Thread-safe: the HTTP threads journal submissions while worker
    threads journal transitions, all over one WAL-mode connection
    behind a lock (SQLite serialises writers anyway; the lock just
    keeps our transactions tidy).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._conn = open_versioned_db(
            path, _SCHEMA, JOURNAL_SCHEMA_VERSION, JournalError,
            "job journal", wal=True, check_same_thread=False,
        )

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ---- writes (the write-ahead side) ------------------------------------
    def record_submit(
        self,
        job_id: str,
        config: Dict[str, Any],
        options: Dict[str, Any],
        config_hash: str,
        state: str = "queued",
        result_key: Optional[str] = None,
    ) -> None:
        """Journal one accepted job before any work happens on it."""
        now = _utc_now()
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT INTO jobs (job_id, config, options, config_hash, "
                "state, submitted_utc, result_key) VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    job_id, json.dumps(config, sort_keys=True),
                    json.dumps(options, sort_keys=True), config_hash, state,
                    now, result_key,
                ),
            )
            self._conn.execute(
                "INSERT INTO events (job_id, state, at_utc) VALUES (?, ?, ?)",
                (job_id, state, now),
            )

    def record_state(
        self,
        job_id: str,
        state: str,
        *,
        error: Optional[str] = None,
        note: Optional[str] = None,
        result_key: Optional[str] = None,
        detail: Optional[str] = None,
    ) -> None:
        """Journal one state transition (and its outcome pointers)."""
        now = _utc_now()
        with self._lock, self._conn:
            cur = self._conn.execute(
                "UPDATE jobs SET state = ?, "
                "error = COALESCE(?, error), note = COALESCE(?, note), "
                "result_key = COALESCE(?, result_key) WHERE job_id = ?",
                (state, error, note, result_key, job_id),
            )
            if cur.rowcount == 0:
                raise JournalError(
                    f"cannot journal transition of unknown job {job_id!r}"
                )
            self._conn.execute(
                "INSERT INTO events (job_id, state, at_utc, detail) "
                "VALUES (?, ?, ?, ?)",
                (job_id, state, now, detail or error),
            )

    def record_attempt(self, job_id: str) -> int:
        """Bump and return the job's attempt count (crash accounting)."""
        with self._lock, self._conn:
            cur = self._conn.execute(
                "UPDATE jobs SET attempts = attempts + 1 WHERE job_id = ?",
                (job_id,),
            )
            if cur.rowcount == 0:
                raise JournalError(
                    f"cannot record attempt of unknown job {job_id!r}"
                )
            row = self._conn.execute(
                "SELECT attempts FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
        return int(row["attempts"])

    # ---- reads (the replay side) ------------------------------------------
    @staticmethod
    def _record(row: sqlite3.Row) -> JournalRecord:
        try:
            config = json.loads(row["config"])
            options = json.loads(row["options"])
        except (ValueError, TypeError) as exc:
            raise JournalError(
                f"journal row for job {row['job_id']!r} is corrupt: {exc}"
            ) from None
        return JournalRecord(
            seq=int(row["seq"]),
            job_id=row["job_id"],
            config=config,
            options=options,
            config_hash=row["config_hash"],
            state=row["state"],
            submitted_utc=row["submitted_utc"],
            attempts=int(row["attempts"]),
            error=row["error"],
            note=row["note"],
            result_key=row["result_key"],
        )

    def replay(self) -> List[JournalRecord]:
        """Every journaled job in submission order (FIFO-stable)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM jobs ORDER BY seq"
            ).fetchall()
        return [self._record(r) for r in rows]

    def job(self, job_id: str) -> Optional[JournalRecord]:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
        return self._record(row) if row else None

    def events(self, job_id: str) -> List[Dict[str, Any]]:
        """The transition log of one job, oldest first."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, at_utc, detail FROM events WHERE job_id = ? "
                "ORDER BY seq",
                (job_id,),
            ).fetchall()
        return [dict(r) for r in rows]

    def __len__(self) -> int:
        with self._lock:
            row = self._conn.execute("SELECT COUNT(*) FROM jobs").fetchone()
        return int(row[0])
