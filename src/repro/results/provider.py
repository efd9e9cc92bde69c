"""Report sources: where :func:`~repro.results.report.generate_report`
gets its study.

Every table, figure and report renderer takes a
:class:`~repro.harness.experiments.StudyResults`.  Only
``generate_report`` takes a source, and it resolves it once with
``source.study(config)``:

* :class:`DirectProvider` — holds one in-memory study: the "just ran
  the sweep" path;
* :class:`StoreProvider` — answers from a :class:`~repro.results.store.
  ResultsStore` database, reconstructing studies without re-simulating.

The contract both must honour — and the CI ``report`` gate enforces —
is *render equivalence*: for the same configuration, every artifact
rendered through a ``StoreProvider`` is byte-identical to the one
rendered through a ``DirectProvider`` over the original study.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.errors import ResultStoreError
from repro.harness.experiments import ExperimentConfig, StudyResults
from repro.results.store import ResultsStore

__all__ = ["DirectProvider", "StoreProvider"]


class DirectProvider:
    """Serve the one study already in memory."""

    def __init__(self, study: StudyResults) -> None:
        self._study = study

    def study(self, config: Optional[ExperimentConfig] = None) -> StudyResults:
        """The held study; ``config``, when given, must be its config."""
        if config is not None and config != self._study.config:
            raise ResultStoreError(
                f"provider holds the study for {self._study.config}, "
                f"not {config}"
            )
        return self._study


class StoreProvider:
    """Serve studies reconstructed from a result database.

    ``source`` is a database path or an open :class:`ResultsStore`
    (paths are opened read-intent: a missing file raises instead of
    materialising an empty history).
    """

    def __init__(self, source: Union[str, ResultsStore]) -> None:
        if isinstance(source, str):
            source = ResultsStore(source, create=False)
        self._store = source

    @property
    def store(self) -> ResultsStore:
        return self._store

    def study(self, config: Optional[ExperimentConfig] = None) -> StudyResults:
        """The stored study for ``config`` (None = the paper's matrix)."""
        config = config or ExperimentConfig()
        study = self._store.load_study(config)
        if study is None:
            raise ResultStoreError(
                f"result database {self._store.path} holds no study "
                f"for {config}; ingest one first (run_study with a "
                f"results_db, or `repro-stencil study --results-db`)"
            )
        return study
