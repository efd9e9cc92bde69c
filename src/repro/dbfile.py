"""One way to open a schema-versioned SQLite database.

The telemetry warehouse (:mod:`repro.obs.store`), the job journal
(:mod:`repro.serve.journal`) and the result store
(:mod:`repro.results.store`, which also backs the ``--cache-dir`` study
cache) are all stdlib ``sqlite3`` files with the same contract:

* a fresh file gets its schema and ``PRAGMA user_version`` stamp in one
  ``BEGIN IMMEDIATE`` transaction, so two processes creating the same
  file race harmlessly;
* a stamp other than the caller's version is rejected loudly — rows of
  another schema generation would be misread, never migrated;
* the file must hold every table the caller's schema declares, so one
  kind of database (all three stamp version 1) never opens as another;
* a garbage file, an unopenable path or a foreign database raises the
  caller's typed error naming the path, never a raw ``sqlite3`` error.

Every connection waits up to :data:`BUSY_TIMEOUT_S` for a peer's write
transaction instead of failing with "database is locked": SQLite's own
file locking is the cross-process mutex for concurrent writers.
"""

from __future__ import annotations

import os
import re
import sqlite3
from typing import Type

__all__ = ["BUSY_TIMEOUT_S", "open_versioned_db"]

#: Seconds a connection waits on a peer's lock before giving up.
BUSY_TIMEOUT_S = 30.0

_TABLE = re.compile(r"CREATE TABLE IF NOT EXISTS (\w+)")


def open_versioned_db(
    path: str,
    schema: str,
    version: int,
    error: Type[Exception],
    what: str,
    *,
    create: bool = True,
    wal: bool = False,
    check_same_thread: bool = True,
) -> sqlite3.Connection:
    """Connect to ``path`` and check it is a version-``version`` ``what``.

    ``schema`` is the ``CREATE TABLE IF NOT EXISTS`` script; its table
    names are the kind check.  ``create=False`` refuses a missing file
    (a typo'd read path is an error, not an empty history).  ``wal``
    switches the file to write-ahead logging.  Rows come back as
    :class:`sqlite3.Row`.  Any failure raises ``error`` naming ``path``.
    """
    if not create and not os.path.exists(path):
        raise error(f"no {what} at {path}")
    tables = set(_TABLE.findall(schema))
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        conn = sqlite3.connect(
            path, timeout=BUSY_TIMEOUT_S, check_same_thread=check_same_thread
        )
    except (OSError, sqlite3.Error) as exc:
        raise error(f"cannot open {what} {path}: {exc}") from exc
    try:
        conn.row_factory = sqlite3.Row
        if wal:
            conn.execute("PRAGMA journal_mode=WAL")
        found = conn.execute("PRAGMA user_version").fetchone()[0]
        if found == 0:
            conn.executescript(
                f"BEGIN IMMEDIATE;\n{schema}\n"
                f"PRAGMA user_version = {version};\nCOMMIT;"
            )
            found = version
        if found != version:
            raise error(
                f"{what} {path} has schema version {found}, this library "
                f"writes version {version}; start a fresh {what} (rows of "
                f"another schema generation would be misread)"
            )
        present = {
            row[0] for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        missing = sorted(tables - present)
        if missing:
            raise error(
                f"{path} is not a {what}: it has no {', '.join(missing)} "
                f"table{'s' if len(missing) > 1 else ''}"
            )
    except sqlite3.Error as exc:
        conn.close()
        raise error(f"cannot open {what} {path}: {exc}") from exc
    except BaseException:
        conn.close()
        raise
    return conn
