"""The report's fixed inputs are values built once per process.

The six Table 2 stencils, the counts a stencil caches and the empirical
Rooflines are shared, not rebuilt per table cell.  These checks pin
that down without timing anything: a shared stencil stays equal to a
fresh build (nobody mutates it), each Roofline is memoised on exactly
the inputs its sweep reads, a repeated report calls neither the
stencil factories, the mixbench sweep nor the Table 2 / Table 4
analysis, and one report computes each table and figure series once.
"""

import dataclasses
import pickle

import pytest

from repro import harness
from repro.dsl import shapes
from repro.gpu import platform
from repro.harness import STENCIL_NAMES, figures, tables
from repro.results import DirectProvider, report
from repro.results.report import generate_report
from repro.roofline import mixbench
from repro.validate import claims


def fresh(name):
    """A new stencil for catalog case ``name``, straight from its factory."""
    case = shapes.by_name(name)
    return (shapes.star if case.shape == "star" else shapes.cube)(case.radius)


@pytest.fixture(scope="module")
def paper_study():
    return harness.run_study()


@pytest.mark.parametrize("name", STENCIL_NAMES)
def test_build_returns_one_shared_stencil(name):
    built = shapes.by_name(name).build()
    assert built is shapes.by_name(name).build()
    assert built == fresh(name) and built is not fresh(name)
    assert built.signature is built.signature
    assert built.signature == fresh(name).signature
    assert hash(built.signature) == hash(fresh(name).signature)


def test_an_unpickled_signature_rehashes():
    signature = fresh("13pt").signature
    object.__setattr__(signature, "_hash", 0)  # as if hashed in another process
    loaded = pickle.loads(pickle.dumps(signature))
    assert loaded == signature and hash(loaded) == hash(fresh("13pt").signature)


@pytest.mark.parametrize("name", STENCIL_NAMES)
def test_cached_counts_match_a_fresh_build(name):
    built, case = shapes.by_name(name).build(), shapes.by_name(name)
    assert built.unique_coefficients() == case.unique_coefficients
    assert built.flops_per_point() == fresh(name).flops_per_point()


def test_a_study_and_report_leave_the_shared_stencils_unchanged(paper_study):
    generate_report(DirectProvider(paper_study), golden_path=None)
    for name in STENCIL_NAMES:
        built = shapes.by_name(name).build()
        assert dict(built.taps) == dict(fresh(name).taps)
        assert built.signature == fresh(name).signature


def test_empirical_roofline_is_memoised_on_its_inputs():
    plat = platform("A100", "CUDA")
    roof = mixbench.empirical_roofline(plat)
    assert mixbench.empirical_roofline(platform("A100", "CUDA")) is roof
    profile = dataclasses.replace(
        plat.profile, mixbench_bw_frac=plat.profile.mixbench_bw_frac * 0.5
    )
    slower = mixbench.empirical_roofline(dataclasses.replace(plat, profile=profile))
    assert slower.peak_bw < 0.6 * roof.peak_bw
    assert slower.peak_flops == roof.peak_flops
    assert mixbench.empirical_roofline(plat) is roof


def counting(fn, calls):
    """``fn``, recording its name in ``calls`` on every call."""

    def wrapper(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    return wrapper


def test_a_repeated_report_builds_nothing(monkeypatch, paper_study):
    provider = DirectProvider(paper_study)
    first = generate_report(provider, golden_path=None)
    calls = []
    for module, attr in ((shapes, "star"), (shapes, "cube"), (mixbench, "sweep"),
                         (tables, "analyze"), (tables, "theoretical_ai")):
        monkeypatch.setattr(module, attr, counting(getattr(module, attr), calls))
    assert generate_report(provider, golden_path=None) == first
    assert calls == []


def test_a_report_computes_each_table_and_series_once(monkeypatch, paper_study):
    # TABLES.txt, FIGURES.txt and EXPERIMENTS.md read one Evidence.
    provider = DirectProvider(paper_study)
    first = generate_report(provider)
    builders = ("table3", "table5", "fig3", "fig4", "fig5", "fig6", "fig7")
    calls = []
    for module in (report, claims, figures, tables):
        for attr in builders:
            if hasattr(module, attr):
                fn = getattr(module, attr)
                monkeypatch.setattr(module, attr, counting(fn, calls))
    assert generate_report(provider) == first
    assert sorted(calls) == sorted(builders)


def test_tables_2_and_4_hand_out_copies_of_one_build():
    first2, first4 = tables.table2(), tables.table4()
    first2[0]["points"] = first4[0]["theoretical_ai"] = -1
    assert tables.table2()[0]["points"] == shapes.TABLE2[0].points
    assert tables.table4()[0]["theoretical_ai"] > 0
