"""Tests for the Table 2 catalog and the Table 4 analysis quantities."""

import pytest

from repro.dsl import TABLE2, analyze, by_name, catalog, cube, star, theoretical_ai
from repro.dsl.analysis import compulsory_bytes, total_flops
from repro.errors import DSLError
from repro.results.report import PAPER_TABLE4


class TestTable2:
    def test_six_cases(self):
        assert len(TABLE2) == 6
        assert [c.name for c in TABLE2] == ["7pt", "13pt", "19pt", "25pt", "27pt", "125pt"]

    @pytest.mark.parametrize("case", TABLE2, ids=lambda c: c.name)
    def test_catalog_matches_built_stencil(self, case):
        s = case.build()
        assert s.points == case.points
        assert s.radius == case.radius
        assert s.shape_class() == case.shape
        assert s.unique_coefficients() == case.unique_coefficients

    def test_by_name(self):
        assert by_name("13pt").points == 13
        with pytest.raises(DSLError):
            by_name("9pt")

    def test_catalog_keys(self):
        assert set(catalog()) == set(PAPER_TABLE4)

    @pytest.mark.parametrize("case", TABLE2, ids=lambda c: c.name)
    def test_default_bindings_cover_all_symbols(self, case):
        s = case.build()
        bindings = case.default_bindings()
        assert set(bindings) == set(s.symbols())
        # Bindings must be pairwise distinct so shells stay distinguishable.
        assert len(set(bindings.values())) == len(bindings)


class TestTable4:
    @pytest.mark.parametrize("name,ai", sorted(PAPER_TABLE4.items()))
    def test_theoretical_ai_matches_paper(self, name, ai):
        s = by_name(name).build()
        assert theoretical_ai(s) == pytest.approx(ai)

    def test_analyze_bundle(self):
        a = analyze(star(2), name="13pt")
        assert a.points == 13
        assert a.unique_coefficients == 3
        assert a.flops_per_point == 15
        assert a.theoretical_ai == pytest.approx(0.9375)
        assert a.shape == "star"

    def test_total_flops_512_cubed(self):
        # 7pt on 512^3: 8 FLOPs per point.
        assert total_flops(star(1), (512, 512, 512)) == 8 * 512**3

    def test_compulsory_bytes_512_cubed(self):
        # Paper: 2.15 GB for 512^3 doubles, read + write.
        assert compulsory_bytes((512, 512, 512)) == 2 * 8 * 512**3
        assert compulsory_bytes((512, 512, 512)) / 1e9 == pytest.approx(2.147, abs=0.001)

    def test_star_coeff_count_formula(self):
        for r in range(1, 5):
            assert star(r).unique_coefficients() == r + 1

    def test_cube_coeff_count_is_orbit_count(self):
        assert cube(1).unique_coefficients() == 4
        assert cube(2).unique_coefficients() == 10
