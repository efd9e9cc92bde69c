"""What :func:`simulate_batch` accepts as input, checked against scalar ``simulate``.

Covers the input side of the batch engine: bad domains fail as the
same typed :class:`~repro.errors.SimulationError` in both engines, in
raise and in capture mode, without stopping the rest of the chunk;
equal but distinct stencil/platform/tile objects give the results of
shared ones (the group lookup keys on object identity); and
``BatchPoint`` is slotted yet still works with ``dataclasses.replace``.
"""

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.bricks.layout import BrickDims
from repro.dsl.shapes import by_name, star
from repro.errors import MetricError, SimulationError
from repro.exec import parallel_map
from repro.gpu import BatchPoint, simulate, simulate_batch, study_platforms
from repro.gpu.simulator import MAX_DOMAIN_POINTS
from repro.harness import config_from_dict
from repro.resilience import TaskFailure

#: The malformed domains, by what is wrong with them.
BAD_DOMAINS = {
    "string": ("64", 4, 4),
    "negative": (-64, 4, 4),
    "zero": (0, 4, 4),
    "short": (64, 4),
    "long": (64, 4, 4, 1),
    "float": (64.0, 4, 4),
    # Past MAX_DOMAIN_POINTS, where int64 columns could wrap.
    "past_bound": (MAX_DOMAIN_POINTS + 1, 1, 1),
    "wraps_int64": (2**26, 2**23, 2**23),
    "past_int64": (2**63, 4, 4),
}

COUNTERS = ("simulate.calls", "simulate.tiles", "codegen.vector_ops")


@pytest.fixture
def registry():
    prev = obs.get_registry()
    reg = obs.set_registry(obs.MetricsRegistry())
    yield reg
    obs.set_registry(prev)


def _point(domain=(64, 4, 4), **kw):
    fields = dict(
        stencil=by_name("7pt").build(),
        variant="array",
        platform=study_platforms()[0],
        domain=domain,
        stencil_name="7pt",
    )
    fields.update(kw)
    return BatchPoint(**fields)


def _scalar(point):
    return simulate(
        point.stencil, point.variant, point.platform, domain=point.domain,
        stencil_name=point.stencil_name, dims=point.dims,
        vector_length=point.vector_length,
    )


@pytest.mark.parametrize("domain", BAD_DOMAINS.values(), ids=BAD_DOMAINS.keys())
class TestBadDomain:
    def test_scalar_raises_a_typed_error_naming_the_point(self, domain):
        with pytest.raises(SimulationError) as err:
            _scalar(_point(domain))
        message = str(err.value)
        assert message.startswith(f"7pt/{study_platforms()[0].name}/array: ")
        assert f"domain {domain!r}" in message

    @pytest.mark.parametrize("chunk_size", [1, 2, 16])
    def test_batch_raises_the_scalar_error(self, domain, chunk_size):
        points = [_point(), _point(domain), _point()]
        with pytest.raises(SimulationError) as scalar:
            _scalar(points[1])
        with pytest.raises(SimulationError) as batched:
            simulate_batch(points, chunk_size=chunk_size)
        assert str(batched.value) == str(scalar.value)

    @pytest.mark.parametrize("chunk_size", [1, 2, 16])
    def test_capture_fails_only_that_point(
        self, domain, chunk_size, registry
    ):
        points = [_point(), _point(domain), _point((128, 8, 8))]
        out = simulate_batch(
            points, capture_failures=True, chunk_size=chunk_size
        )
        batch_counts = {c: registry.counter(c).value for c in COUNTERS}
        obs.set_registry(obs.MetricsRegistry())
        scalar = parallel_map(_scalar, points, capture_failures=True)
        scalar_counts = {
            c: obs.get_registry().counter(c).value for c in COUNTERS
        }
        assert isinstance(out[1], TaskFailure)
        assert out[1].error_type == "SimulationError"
        assert list(out) == scalar
        assert out[0] == _scalar(points[0]) and out[2] == _scalar(points[2])
        assert batch_counts == scalar_counts
        assert batch_counts["simulate.calls"] == 2

    def test_domain_is_checked_before_the_variant(self, domain):
        point = _point(domain, variant="nope")
        with pytest.raises(SimulationError, match="positive integers"):
            _scalar(point)
        out = simulate_batch([point], capture_failures=True)
        assert "positive integers" in out[0].message

    def test_study_config_rejects_it(self, domain):
        with pytest.raises(MetricError, match="three positive integers"):
            config_from_dict({"domain": list(domain)})


def test_tile_errors_still_follow_domain_errors():
    points = [_point((64, 6, 4)), _point((0, 4, 4)), _point((64, 4, 4))]
    out = simulate_batch(points, capture_failures=True)
    assert "is not a multiple of tile" in out[0].message
    assert "positive integers" in out[1].message
    assert out[2] == _scalar(points[2])


@pytest.mark.parametrize("capture", [False, True])
def test_domain_at_the_bound_is_exact_in_both_engines(capture, registry):
    domain = (2**16, 2**12, 2**12)
    assert domain[0] * domain[1] * domain[2] == MAX_DOMAIN_POINTS
    point = _point(domain, stencil=by_name("125pt").build(), stencil_name="125pt")
    (got,) = simulate_batch([point], capture_failures=capture)
    tiles = registry.counter("simulate.tiles").value
    assert got == _scalar(point)
    tile_pts = point.platform.arch.simd_width * 4 * 4
    assert tiles == MAX_DOMAIN_POINTS // tile_pts
    assert got.flops == MAX_DOMAIN_POINTS * point.stencil.flops_per_point()
    assert got.traffic.load_sectors % tiles == 0
    assert got.traffic.l1_bytes == (
        (got.traffic.load_sectors + got.traffic.store_sectors)
        * point.platform.arch.sector_bytes
    )
    assert got.traffic.hbm_write_bytes == MAX_DOMAIN_POINTS * 8.0


def test_integer_like_extents_are_accepted_like_scalar():
    point = _point((np.int64(64), 4, 4))
    assert simulate_batch([point])[0] == _scalar(point)
    listed = _point([64, 4, 4])
    assert simulate_batch([listed])[0] == _scalar(listed)


class TestDistinctEqualObjects:
    """The group lookup keys on ``id()``; equal copies must not matter."""

    @staticmethod
    def _matrix(fresh):
        """60 points; ``fresh`` builds a new stencil (and tile) per point.

        Every (stencil, platform, variant) comes back after 30 points, so
        a fresh copy misses the identity key and must resolve to the
        group its equal twin made earlier, not to the newest group.
        Fresh stencils come from the ``star`` factory: ``build()``
        returns one shared stencil per catalog case.
        """
        names = ("7pt", "13pt")
        shared = {name: by_name(name).build() for name in names}
        plats = study_platforms()
        points = []
        for n in range(60):
            name, plat = names[n % 2], plats[n % len(plats)]
            if fresh and n % 7 == 0:
                plat = dataclasses.replace(plat)
            points.append(BatchPoint(
                stencil=star(by_name(name).radius) if fresh else shared[name],
                variant=("array", "array_codegen", "bricks_codegen")[n % 3],
                platform=plat,
                domain=(128, 8, 8 + 4 * (n % 4)),
                stencil_name=name,
                dims=(
                    BrickDims((plat.arch.simd_width, 4, 4))
                    if fresh and n % 4 == 0 else None
                ),
            ))
        return points

    @pytest.mark.parametrize("chunk_size", [1, 7, 64])
    def test_equal_copies_give_the_shared_results(self, chunk_size):
        shared, fresh = self._matrix(False), self._matrix(True)
        assert fresh[0].stencil is not fresh[30].stencil
        assert fresh[0].stencil == fresh[30].stencil
        got = simulate_batch(fresh, chunk_size=chunk_size)
        assert got == simulate_batch(shared, chunk_size=chunk_size)
        assert list(got) == [_scalar(p) for p in fresh]


class TestBatchPoint:
    def test_is_slotted(self):
        point = _point()
        assert not hasattr(point, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            point.domain = (128, 4, 4)

    def test_replace_still_works(self):
        point = _point()
        moved = dataclasses.replace(point, domain=(128, 8, 8))
        assert moved.domain == (128, 8, 8) and moved.stencil is point.stencil
        assert dataclasses.replace(moved, domain=(64, 4, 4)) == point
