"""Regression tests for the JSON study export.

``dump_study`` once wrote its target in place, so a crash mid-write left
a truncated, unparseable file behind.
"""

import json
import os

import pytest

from repro import harness


@pytest.fixture(scope="module")
def study():
    return harness.run_study(
        harness.ExperimentConfig(stencils=("7pt",), domain=(64, 64, 64))
    )


class TestAtomicDump:
    def test_crash_mid_write_preserves_original(self, study, tmp_path, monkeypatch):
        path = tmp_path / "s.json"
        harness.dump_study(study, str(path))
        original = path.read_text()

        def exploding_dump(obj, fp, **kwargs):
            fp.write('{"partial": tru')
            raise RuntimeError("disk full")

        monkeypatch.setattr(json, "dump", exploding_dump)
        with pytest.raises(RuntimeError):
            harness.dump_study(study, str(path))
        # The original is intact and still parses; no tmp litter remains.
        assert path.read_text() == original
        assert json.loads(original)
        assert os.listdir(tmp_path) == ["s.json"]

    def test_dump_creates_fresh_file(self, study, tmp_path):
        path = tmp_path / "fresh.json"
        harness.dump_study(study, str(path))
        assert len(json.loads(path.read_text())["results"]) == len(study)
