"""Property-based invariants of the simulator as a whole.

These pin down the *model's* internal consistency (as opposed to its
calibration): scaling laws, orderings, and bounds that must hold for any
stencil/platform/domain combination.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import dsl, gpu

PLATFORMS = [("A100", "CUDA"), ("A100", "SYCL"), ("MI250X", "HIP"),
             ("MI250X", "SYCL"), ("PVC", "SYCL")]
NAMES = ("7pt", "13pt", "19pt", "25pt", "27pt", "125pt")


def sim(name, variant, plat, domain=(512, 512, 512)):
    return gpu.simulate(dsl.by_name(name).build(), variant,
                        gpu.platform(*plat), domain=domain, stencil_name=name)


class TestScalingLaws:
    @settings(max_examples=12, deadline=None)
    @given(
        name=st.sampled_from(NAMES),
        plat=st.sampled_from(PLATFORMS),
        factor=st.sampled_from([2, 4]),
    )
    def test_time_superlinear_free_in_volume(self, name, plat, factor):
        """Doubling the domain in one dimension scales time by ~the
        volume ratio (modulo halo surface terms and launch overhead)."""
        base = sim(name, "bricks_codegen", plat, domain=(256, 128, 128))
        big = sim(name, "bricks_codegen", plat,
                  domain=(256 * factor, 128, 128))
        ratio = big.time_s / base.time_s
        assert factor * 0.8 <= ratio <= factor * 1.25

    @settings(max_examples=10, deadline=None)
    @given(name=st.sampled_from(NAMES), plat=st.sampled_from(PLATFORMS))
    def test_flops_exact_in_volume(self, name, plat):
        a = sim(name, "bricks_codegen", plat, domain=(128, 128, 128))
        b = sim(name, "bricks_codegen", plat, domain=(256, 128, 128))
        assert b.flops == 2 * a.flops

    @settings(max_examples=10, deadline=None)
    @given(
        name=st.sampled_from(NAMES),
        # MI250X is excluded: its 8 MB L2's layer condition is genuinely
        # domain-dependent (the working set is ni * nj * r planes), so AI
        # *should* change with the domain there.
        plat=st.sampled_from([("A100", "CUDA"), ("A100", "SYCL"),
                              ("PVC", "SYCL")]),
    )
    def test_ai_roughly_domain_invariant(self, name, plat):
        small = sim(name, "bricks_codegen", plat, domain=(128, 128, 128))
        big = sim(name, "bricks_codegen", plat, domain=(512, 512, 512))
        # Halo fraction differs slightly; AI should agree within 10%.
        assert big.arithmetic_intensity == pytest.approx(
            small.arithmetic_intensity, rel=0.10
        )

    def test_mi250x_layer_condition_is_domain_dependent(self):
        # The flip side of the invariance above, asserted explicitly.
        small = sim("19pt", "bricks_codegen", ("MI250X", "SYCL"),
                    domain=(128, 128, 128))
        big = sim("19pt", "bricks_codegen", ("MI250X", "SYCL"),
                  domain=(512, 512, 512))
        assert big.arithmetic_intensity < small.arithmetic_intensity


class TestBounds:
    @settings(max_examples=18, deadline=None)
    @given(
        name=st.sampled_from(NAMES),
        plat=st.sampled_from(PLATFORMS),
        variant=st.sampled_from(("array", "array_codegen", "bricks_codegen")),
    )
    def test_ai_never_beats_theoretical(self, name, plat, variant):
        res = sim(name, variant, plat)
        theory = dsl.theoretical_ai(dsl.by_name(name).build())
        assert res.arithmetic_intensity <= theory * (1 + 1e-9)

    @settings(max_examples=18, deadline=None)
    @given(
        name=st.sampled_from(NAMES),
        plat=st.sampled_from(PLATFORMS),
        variant=st.sampled_from(("array", "array_codegen", "bricks_codegen")),
    )
    def test_perf_never_beats_vendor_roofline(self, name, plat, variant):
        res = sim(name, variant, plat)
        arch = res.platform.arch
        roof = min(arch.peak_fp64, res.arithmetic_intensity * arch.hbm_bw)
        assert res.gflops * 1e9 <= roof * (1 + 1e-9)

    @settings(max_examples=12, deadline=None)
    @given(name=st.sampled_from(NAMES), plat=st.sampled_from(PLATFORMS))
    def test_timing_components_nonnegative(self, name, plat):
        t = sim(name, "bricks_codegen", plat).timing
        for v in (t.t_hbm, t.t_l1, t.t_fp, t.t_shuffle, t.t_issue):
            assert v >= 0.0
        assert 0 < t.occupancy <= 1.0


class TestOrderings:
    @settings(max_examples=12, deadline=None)
    @given(name=st.sampled_from(NAMES), plat=st.sampled_from(PLATFORMS))
    def test_codegen_never_slower_than_naive(self, name, plat):
        naive = sim(name, "array", plat)
        codegen = sim(name, "array_codegen", plat)
        # On MI250X-HIP the array-codegen traffic anomaly makes it the
        # one documented exception (the paper's own data shows it too).
        if plat == ("MI250X", "HIP"):
            return
        assert codegen.time_s <= naive.time_s * 1.001

    @settings(max_examples=12, deadline=None)
    @given(name=st.sampled_from(NAMES), plat=st.sampled_from(PLATFORMS))
    def test_l1_ordering(self, name, plat):
        naive = sim(name, "array", plat)
        bricks = sim(name, "bricks_codegen", plat)
        assert naive.traffic.l1_bytes > bricks.traffic.l1_bytes


class TestNormalisedFlops:
    def test_normalized_flops_identical_across_variants(self):
        # Paper Section 4.4: the same FLOP count for all kernels of a
        # stencil, so AI differences reflect data movement only.
        for name in NAMES:
            for plat in PLATFORMS:
                flops = {sim(name, v, plat).flops for v in gpu.VARIANTS}
                assert len(flops) == 1, (name, plat, flops)
