"""The traffic and timing model is written once, and both engines run it.

Scalar :func:`~repro.gpu.simulate` and :func:`~repro.gpu.simulate_batch`
call the same array formulas of :mod:`repro.gpu.traffic` and
:mod:`repro.gpu.timing`.  Two consequences are checked here:

* a model mutation — patched on the module attribute the formulas are
  looked up through — reaches both engines, so ``check_invariants``
  flags the same named invariants in each;
* hand-derived closed forms hold in both engines.  They are the model's
  reference that does not depend on either engine's code.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro import obs
from repro.dsl.analysis import FP64_BYTES
from repro.dsl.shapes import by_name, from_weights
from repro.errors import ValidationError
from repro.gpu import BatchPoint, platform, simulate, simulate_batch, timing, traffic
from repro.resilience import TaskFailure


def _points(stencils, variants, plat, domain):
    return [
        BatchPoint(
            stencil=by_name(name).build(), variant=variant, platform=plat,
            domain=domain, stencil_name=name,
        )
        for name in stencils
        for variant in variants
    ]


def _scalar(points, **kw):
    return [
        simulate(
            p.stencil, p.variant, p.platform, domain=p.domain,
            stencil_name=p.stencil_name, **kw,
        )
        for p in points
    ]


def _batch(points, **kw):
    return list(simulate_batch(points, **kw))


ENGINES = {"scalar": _scalar, "batch": _batch}

A100 = platform("A100", "CUDA")


def _with_llc(plat, llc_bytes):
    """``plat`` with its last-level cache resized to ``llc_bytes``."""
    return dataclasses.replace(
        plat, arch=dataclasses.replace(plat.arch, llc_bytes=llc_bytes)
    )


#: The mutations of ``TestResultInvariantMutations`` in
#: ``test_validate_mutations.py``, each with the invariants it breaks.
#: Lost compulsory traffic patches the one re-read formula, which the
#: scalar path reaches through ``layer_condition_extra``.
MUTATIONS = {
    "occupancy-above-one": (
        timing, "occupancy_factor", lambda registers, budget: 1.5,
        {"occupancy-is-a-fraction"},
    ),
    "negative-shuffle-cost": (
        timing, "shuffle_cycles_for", lambda vendor: -1.0,
        {"timing-terms-physical"},
    ),
    "lost-compulsory-traffic": (
        traffic, "layer_reread",
        lambda shared, tile_k, llc, ni, nj, n: np.full(np.shape(n), -2.0e9),
        {"hbm-at-least-compulsory", "reuse-miss-bytes-sane"},
    ),
}


@pytest.mark.parametrize("mutation", MUTATIONS.values(), ids=MUTATIONS.keys())
class TestMutationsReachBothEngines:
    POINTS = _points(["13pt"], ["bricks_codegen"], A100, (512, 512, 512))

    def test_batch_raises_what_scalar_raises(self, mutation, monkeypatch):
        module, name, mutant, invariants = mutation
        monkeypatch.setattr(module, name, mutant)
        with pytest.raises(ValidationError) as scalar:
            _scalar(self.POINTS, check_invariants=True)
        with pytest.raises(ValidationError) as batched:
            _batch(self.POINTS, check_invariants=True)
        for invariant in invariants:
            assert invariant in str(scalar.value)
        assert str(batched.value) == str(scalar.value)

    def test_batch_captures_it_per_point(self, mutation, monkeypatch):
        module, name, mutant, _ = mutation
        monkeypatch.setattr(module, name, mutant)
        points = self.POINTS + _points(
            ["7pt", "125pt"], ["array", "array_codegen"], A100, (64, 4, 4)
        )
        out = _batch(points, check_invariants=True, capture_failures=True)
        assert isinstance(out[0], TaskFailure)
        for point, got in zip(points, out):
            try:
                (expected,) = _scalar([point], check_invariants=True)
            except ValidationError as exc:
                assert isinstance(got, TaskFailure)
                assert got.error_type == "ValidationError"
                assert got.message == str(exc)
            else:
                assert got == expected


@pytest.mark.parametrize("engine", ENGINES.values(), ids=ENGINES.keys())
class TestClosedForms:
    VARIANTS = ("array", "array_codegen", "bricks_codegen")

    def test_compulsory_reads_when_the_shared_planes_fit(self, engine):
        ni, nj, nk = domain = (64, 8, 12)
        points = _points(["7pt", "13pt", "125pt"], self.VARIANTS, A100, domain)
        for point, result in zip(points, engine(points)):
            r = point.stencil.radius
            vp = A100.profile.variant(point.variant)
            compulsory = (ni + 2 * r) * (nj + 2 * r) * (nk + 2 * r) * FP64_BYTES
            assert result.traffic.reuse_miss_bytes == 0.0
            assert result.traffic.hbm_read_bytes == compulsory * vp.read_amp

    def test_writes_are_one_store_per_point(self, engine):
        domain = (128, 8, 4)
        n = 128 * 8 * 4
        points = _points(["7pt", "27pt"], self.VARIANTS, A100, domain)
        for point, result in zip(points, engine(points)):
            vp = A100.profile.variant(point.variant)
            assert result.traffic.hbm_write_bytes == n * FP64_BYTES * vp.write_amp

    def test_reread_is_the_missed_share_of_the_shared_planes(self, engine):
        plat = _with_llc(A100, 2**16)
        ni, nj, nk = domain = (256, 64, 8)
        n = ni * nj * nk
        llc = 2**16 * plat.profile.llc_utilization
        points = _points(["7pt", "13pt"], self.VARIANTS, plat, domain)
        for point, result in zip(points, engine(points)):
            r = point.stencil.radius
            shared = 2 * r if point.variant != "bricks_codegen" else r
            ws = ni * nj * shared * FP64_BYTES
            tile_k = 4
            assert ws > llc
            expected = (ws - llc) / ws * (shared / tile_k) * n * FP64_BYTES
            assert result.traffic.reuse_miss_bytes == expected

    def test_deep_miss_brick_rereads_half_of_array(self, engine):
        plat = _with_llc(A100, 0)
        for name in ("7pt", "13pt", "25pt"):
            points = _points(
                [name], ["array_codegen", "bricks_codegen"], plat, (64, 4, 8)
            )
            array, brick = engine(points)
            assert brick.traffic.reuse_miss_bytes > 0.0
            assert 2 * brick.traffic.reuse_miss_bytes == (
                array.traffic.reuse_miss_bytes
            )

    def test_radius_zero_shares_no_planes(self, engine):
        # Its 0-byte working set fits even an empty LLC: no re-read, and
        # no 0/0 warning from the unused miss fraction.
        point = BatchPoint(
            stencil=from_weights({(0, 0, 0): 2.0}), variant="bricks_codegen",
            platform=_with_llc(A100, 0), domain=(64, 4, 4), stencil_name="c",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (result,) = engine([point])
        assert result.traffic.reuse_miss_bytes == 0.0
        assert result.traffic.hbm_read_bytes == 64 * 4 * 4 * FP64_BYTES * (
            A100.profile.variant("bricks_codegen").read_amp
        )

    def test_tiles_are_points_over_tile_points(self, engine):
        prev = obs.get_registry()
        registry = obs.set_registry(obs.MetricsRegistry())
        try:
            domains = [(64, 4, 4), (128, 8, 12), (512, 48, 16)]
            points = [
                p for d in domains
                for p in _points(["7pt"], self.VARIANTS, A100, d)
            ]
            engine(points)
        finally:
            obs.set_registry(prev)
        tile_pts = A100.arch.simd_width * 4 * 4
        expected = sum(3 * (ni * nj * nk) // tile_pts for ni, nj, nk in domains)
        assert registry.counter("simulate.tiles").value == expected

    def test_hbm_time_is_bytes_over_bandwidth(self, engine):
        for plat in (A100, platform("MI250X", "HIP"), platform("PVC", "SYCL")):
            domain = (plat.arch.simd_width * 4, 8, 8)
            points = _points(["7pt", "125pt"], self.VARIANTS, plat, domain)
            for point, result in zip(points, engine(points)):
                vp = plat.profile.variant(point.variant)
                bandwidth = (
                    plat.arch.hbm_bw * plat.profile.mixbench_bw_frac
                    * vp.bw_frac * result.timing.occupancy
                )
                t = result.traffic
                assert result.timing.t_hbm == (
                    (t.hbm_read_bytes + t.hbm_write_bytes) / bandwidth
                )
