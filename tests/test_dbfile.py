"""One opener for every versioned SQLite database, with typed errors.

The telemetry warehouse, the job journal and the result store all stamp
``PRAGMA user_version = 1``; the table-set check is what keeps one kind
from opening another's file.
"""

import sqlite3

import pytest

from repro.dbfile import open_versioned_db
from repro.errors import JournalError, ObservabilityError, ResultStoreError
from repro.obs import TelemetryStore
from repro.results import ResultsStore
from repro.serve import JobJournal

#: (opener, its typed error) for the three database kinds.
KINDS = {
    "telemetry": (TelemetryStore, ObservabilityError),
    "journal": (JobJournal, JournalError),
    "results": (ResultsStore, ResultStoreError),
}


def _make(kind, path):
    KINDS[kind][0](path).close()


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_garbage_file_raises_typed_error_naming_path(kind, tmp_path):
    opener, error = KINDS[kind]
    path = str(tmp_path / "garbage.db")
    with open(path, "wb") as f:
        f.write(b"this is not an SQLite database, just some bytes" * 4)
    with pytest.raises(error, match="garbage.db"):
        opener(path)


@pytest.mark.parametrize(
    "kind,other",
    [(k, o) for k in sorted(KINDS) for o in sorted(KINDS) if k != o],
)
def test_other_kinds_database_is_rejected(kind, other, tmp_path):
    opener, error = KINDS[kind]
    path = str(tmp_path / f"{other}.db")
    _make(other, path)
    with pytest.raises(error, match=rf"{other}\.db is not a"):
        opener(path)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_same_kind_reopens(kind, tmp_path):
    path = str(tmp_path / "same.db")
    _make(kind, path)
    _make(kind, path)


def test_fresh_file_is_stamped_in_one_transaction(tmp_path):
    path = str(tmp_path / "x.db")
    schema = "CREATE TABLE IF NOT EXISTS things (id INTEGER);"
    conn = open_versioned_db(path, schema, 7, ResultStoreError, "thing store")
    conn.close()
    raw = sqlite3.connect(path)
    assert raw.execute("PRAGMA user_version").fetchone()[0] == 7
    assert raw.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table'"
    ).fetchall() == [("things",)]
    raw.close()
    with pytest.raises(ResultStoreError, match="schema version 7"):
        open_versioned_db(path, schema, 8, ResultStoreError, "thing store")

