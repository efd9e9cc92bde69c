"""The paper's claims: each one holds on the paper's matrix.

``test_paper_claim_holds`` is the only tier-1 copy of the paper's bands;
they live in :data:`repro.validate.claims.CLAIMS`, which
``repro-stencil validate`` and ``EXPERIMENTS.md`` read too.
"""

import math

import pytest

from repro import harness, validate
from repro.validate.claims import CLAIMS, Claim, evaluate, is_paper_matrix


@pytest.fixture(scope="module")
def paper_study():
    return harness.run_study()


@pytest.fixture(scope="module")
def verdicts(paper_study):
    return {row.claim.id: row for row in evaluate(paper_study)}


@pytest.mark.parametrize("claim_id", [c.id for c in CLAIMS])
def test_paper_claim_holds(verdicts, claim_id):
    c, measured, ok = verdicts[claim_id]
    assert ok, f"{claim_id}: {c.text} = {measured!r}, band {c.band_text()}"


def test_claim_ids_are_unique():
    assert len({c.id for c in CLAIMS}) == len(CLAIMS)


def test_band_ends():
    def band(lo, hi, open_ends=(False, False)):
        return Claim("c", "Table 3", "x", "y", (lo, hi), lambda ev: 0.0, open_ends)

    closed = band(1, 2)
    assert closed.holds(1) and closed.holds(2) and not closed.holds(2.01)
    half_open = band(0, 8, (False, True))
    assert half_open.holds(0) and not half_open.holds(8)
    assert half_open.band_text() == "[0, 8)"
    assert not band(1, math.inf, (True, False)).holds(1)
    assert band(1, math.inf, (True, False)).band_text() == "> 1"
    assert band(-math.inf, 1.25).band_text() == "≤ 1.25"
    assert band(90, 90).band_text() == "= 90"
    assert not closed.holds(math.nan)


def test_only_the_paper_matrix_is_judged(paper_study):
    assert is_paper_matrix(paper_study)
    small = harness.run_study(harness.ExperimentConfig(domain=(64, 64, 64)))
    assert not is_paper_matrix(small)
    report = validate.validate_study(small, golden_path=None, probes=False)
    assert report.claims_checked == 0


def test_validate_counts_the_claims(paper_study):
    report = validate.validate_study(paper_study, golden_path=None, probes=False)
    assert report.ok
    assert report.claims_checked == len(CLAIMS)
    assert f"{len(CLAIMS)} paper claims" in report.render()
