"""Queryable result store + programmatic report generation.

The source of truth for study results across runs: a schema-versioned
SQLite database (:mod:`repro.results.store`), the two report sources —
a live study or a store reconstruction (:mod:`repro.results.provider`)
— and the report generator that emits the full reproduction artifact
from either (:mod:`repro.results.report`).
"""

from repro.results.provider import DirectProvider, StoreProvider
from repro.results.report import (
    drift_md,
    experiments_md,
    figures_txt,
    generate_report,
    tables_txt,
    write_report,
)
from repro.results.store import (
    RESULTS_DB_ENV,
    RESULTS_SCHEMA_VERSION,
    IngestOutcome,
    ResultsStore,
    StudyRecord,
    resolve_results_db,
)

__all__ = [
    "RESULTS_DB_ENV",
    "RESULTS_SCHEMA_VERSION",
    "DirectProvider",
    "IngestOutcome",
    "ResultsStore",
    "StoreProvider",
    "StudyRecord",
    "drift_md",
    "experiments_md",
    "figures_txt",
    "generate_report",
    "resolve_results_db",
    "tables_txt",
    "write_report",
]
