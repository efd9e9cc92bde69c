"""The ``BatchResults`` sequence :func:`simulate_batch` returns.

The batch keeps its evaluated columns as arrays and builds a
``SimulationResult`` only when an entry is read.  These tests pin the
sequence contract (length, indexing, slicing, iteration order, failure
records), that every built entry equals scalar ``simulate()`` field for
field and type for type, that a plain sweep builds no result objects at
all, and that the per-chunk counter sums equal a scalar loop's on every
path: success, captured failures and raise-on-earliest-failure.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro import obs, validate
from repro.dsl.shapes import by_name
from repro.errors import ValidationError
from repro.gpu import (
    BatchPoint,
    BatchResults,
    SimulationResult,
    batch,
    simulate,
    simulate_batch,
    study_platforms,
)
from repro.resilience import TaskFailure

COUNTERS = (
    "simulate.calls",
    "simulate.tiles",
    "codegen.vector_ops",
    "simulate.invariant_violations",
)

#: Domains of the mixed matrix.  With ``chunk_size=3`` the bad tiles sit
#: at a chunk end (2), a chunk start (3) and mid-chunk (7); point 9 has
#: an unknown variant.  ``FLAGGED`` is the domain the fake invariant
#: check rejects.
DOMAINS = [
    (64, 8, 8), (128, 4, 4), (64, 6, 8),
    (64, 8, 10), (128, 8, 8), (64, 4, 4),
    (128, 4, 8), (64, 6, 4), (64, 8, 8),
    (64, 4, 4), (128, 8, 8), (64, 8, 4),
]
BAD_TILES = (2, 3, 7)
UNKNOWN_VARIANT = 9
FLAGGED = (128, 8, 8)


@pytest.fixture
def registry():
    prev = obs.get_registry()
    reg = obs.set_registry(obs.MetricsRegistry())
    yield reg
    obs.set_registry(prev)


@pytest.fixture
def flag_domain(monkeypatch):
    """A fake invariant check that rejects every ``FLAGGED`` point."""
    bad = [
        validate.Violation("fake-invariant", "p", "synthetic"),
        validate.Violation("fake-invariant-2", "p", "synthetic"),
    ]
    monkeypatch.setattr(
        validate, "check_result",
        lambda result: bad if result.domain == FLAGGED else [],
    )


def _counts(registry):
    return {name: registry.counter(name).value for name in COUNTERS}


def _points():
    stencils = [(n, by_name(n).build()) for n in ("7pt", "13pt")]
    plats = study_platforms()
    variants = ("array", "array_codegen", "bricks_codegen")
    points = [
        BatchPoint(
            stencil=stencils[n % 2][1],
            variant=variants[n % 3],
            platform=plats[n % len(plats)],
            domain=domain,
            stencil_name=stencils[n % 2][0],
        )
        for n, domain in enumerate(DOMAINS)
    ]
    points[UNKNOWN_VARIANT] = dataclasses.replace(
        points[UNKNOWN_VARIANT], variant="nope"
    )
    return points


def _mended(points, upto):
    """``points`` with every failing point before ``upto`` made good."""
    return [
        dataclasses.replace(p, variant="array", domain=(64, 4, 4))
        if i < upto and (
            i in BAD_TILES or i == UNKNOWN_VARIANT or p.domain == FLAGGED
        ) else p
        for i, p in enumerate(points)
    ]


def _scalar(point, check):
    return simulate(
        point.stencil, point.variant, point.platform, domain=point.domain,
        stencil_name=point.stencil_name, check_invariants=check,
    )


def _scalar_captured(points, check):
    """A resilient scalar loop: one result or TaskFailure per point."""
    out = []
    for point in points:
        try:
            out.append(_scalar(point, check))
        except Exception as exc:
            out.append(TaskFailure(type(exc).__name__, str(exc), 1, False))
    return out


def _fields(obj, prefix=""):
    """Every leaf field of a result as ``(path, value)``."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, (batch.Traffic, batch.TimingBreakdown)):
            yield from _fields(value, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", value


class TestSequence:
    @pytest.fixture(params=[3, batch.DEFAULT_CHUNK], ids=["chunks", "one-chunk"])
    def pair(self, request):
        points = _points()
        out = simulate_batch(
            points, capture_failures=True, check_invariants=False,
            chunk_size=request.param,
        )
        return out, _scalar_captured(points, False)

    def test_len_and_indexing(self, pair):
        out, scalar = pair
        assert isinstance(out, BatchResults)
        assert len(out) == len(scalar) == len(DOMAINS)
        for i in range(len(out)):
            assert out[i] == scalar[i]
            assert out[i - len(out)] == scalar[i]
        assert out[np.int64(4)] == scalar[4]
        for bad in (len(out), -len(out) - 1):
            with pytest.raises(IndexError):
                out[bad]
        with pytest.raises(TypeError):
            out["1"]

    def test_slices_are_built_lists(self, pair):
        out, scalar = pair
        for sl in (slice(2, 7), slice(None, None, -2), slice(5, 1, -1),
                   slice(-4, None), slice(20, 30)):
            part = out[sl]
            assert type(part) is list
            assert part == scalar[sl]

    def test_iteration_order_and_equality(self, pair):
        out, scalar = pair
        assert list(out) == scalar
        assert out == scalar and scalar == out
        assert out == tuple(scalar)
        assert out != scalar[:-1]
        assert out != scalar[::-1]
        assert (out == 5) is False
        assert list(reversed(out)) == scalar[::-1]

    def test_failures_at_captured_indices(self, pair):
        out, scalar = pair
        failed = [i for i, r in enumerate(out) if isinstance(r, TaskFailure)]
        assert failed == sorted(BAD_TILES + (UNKNOWN_VARIANT,))
        for i in BAD_TILES:
            assert out[i].error_type == "SimulationError"
            assert "is not a multiple of tile" in out[i].message
        assert "unknown variant" in out[UNKNOWN_VARIANT].message
        assert [out[i] for i in failed] == [scalar[i] for i in failed]

    def test_fields_equal_scalar_with_native_types(self, pair):
        out, scalar = pair
        built = 0
        for got, want in zip(out, scalar):
            if isinstance(want, TaskFailure):
                continue
            built += 1
            for (path, a), (_, b) in zip(_fields(got), _fields(want)):
                assert type(a) is type(b), path
                if isinstance(a, float):
                    assert a.hex() == b.hex(), path
                else:
                    assert a == b, path
        assert built == len(DOMAINS) - len(BAD_TILES) - 1

    def test_empty_batch(self):
        out = simulate_batch([])
        assert len(out) == 0 and list(out) == [] and out == []
        with pytest.raises(IndexError):
            out[0]

    def test_all_points_failed(self):
        points = [dataclasses.replace(p, variant="nope") for p in _points()]
        out = simulate_batch(points, capture_failures=True, chunk_size=3)
        assert all(isinstance(r, TaskFailure) for r in out)
        assert out == _scalar_captured(points, None)

    def test_hook_sees_the_returned_entries_in_order(self):
        seen = []
        out = simulate_batch(
            _points(), capture_failures=True, check_invariants=False,
            chunk_size=3, on_result=lambda i, r: seen.append((i, r)),
        )
        assert [i for i, _ in seen] == list(range(len(DOMAINS)))
        assert [r for _, r in seen] == out


class TestLaziness:
    def test_plain_sweep_builds_no_results(self, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(1)
            return SimulationResult(*args, **kwargs)

        monkeypatch.setattr(batch, "SimulationResult", counting)
        stencil = by_name("7pt").build()
        points = [
            BatchPoint(
                stencil=stencil, variant=v, platform=p, domain=(ni, nj, nk),
                stencil_name="7pt",
            )
            for p, v, ni, nj, nk in itertools.product(
                study_platforms(),
                ("array", "array_codegen", "bricks_codegen"),
                range(64, 513, 64), range(4, 49, 4), range(4, 29, 4),
            )
        ]
        assert len(points) == 10080
        out = simulate_batch(points, check_invariants=False)
        assert len(out) == len(points)
        assert built == []
        # Reading an entry builds exactly that entry, through the patch.
        assert out[1234] == _scalar(points[1234], False)
        assert len(built) == 1


class TestCounters:
    """``simulate.*``/``codegen.vector_ops`` equal a scalar loop's."""

    @pytest.mark.parametrize("check", [False, True])
    def test_success(self, registry, flag_domain, check):
        points = _mended(_points(), len(DOMAINS))
        for point in points:
            _scalar(point, check)
        scalar_counts = _counts(registry)
        obs.set_registry(obs.MetricsRegistry())
        out = simulate_batch(points, check_invariants=check, chunk_size=3)
        assert not any(isinstance(r, TaskFailure) for r in out)
        assert _counts(obs.get_registry()) == scalar_counts
        assert scalar_counts["simulate.calls"] == len(points)

    @pytest.mark.parametrize("check", [False, True])
    def test_captured_failures(self, registry, flag_domain, check):
        points = _points()
        scalar = _scalar_captured(points, check)
        scalar_counts = _counts(registry)
        obs.set_registry(obs.MetricsRegistry())
        out = simulate_batch(
            points, capture_failures=True, check_invariants=check,
            chunk_size=3,
        )
        assert out == scalar
        assert _counts(obs.get_registry()) == scalar_counts
        flagged = sum(1 for d in DOMAINS if d == FLAGGED)
        assert scalar_counts["simulate.invariant_violations"] == (
            2 * flagged if check else 0
        )

    @pytest.mark.parametrize(
        "first, check",
        [(i, check) for i in BAD_TILES + (UNKNOWN_VARIANT,)
         for check in (False, True)]
        + [(4, True), (6, True)],
    )
    def test_raise_counts_only_points_before_the_failure(
        self, registry, flag_domain, first, check
    ):
        """The earliest failure raises; later points never count.

        Every bad point before ``first`` is mended; the bad points after
        it stay.  ``first`` keeps its bad tile or unknown variant, or (at
        4 and 6) gets the flagged domain, so the failure is an invariant
        violation — which, like a scalar ``simulate()`` that raised it,
        still counts its own call.
        """
        points = _mended(_points(), first)
        if first in (4, 6):
            points[first] = dataclasses.replace(points[first], domain=FLAGGED)
        with pytest.raises(Exception) as scalar_err:
            for point in points:
                _scalar(point, check)
        scalar_counts = _counts(registry)
        obs.set_registry(obs.MetricsRegistry())
        with pytest.raises(type(scalar_err.value)) as batch_err:
            simulate_batch(points, check_invariants=check, chunk_size=3)
        assert str(batch_err.value) == str(scalar_err.value)
        assert _counts(obs.get_registry()) == scalar_counts
        violation = isinstance(scalar_err.value, ValidationError)
        assert violation == (first in (4, 6))
        assert scalar_counts["simulate.calls"] == first + violation
        assert scalar_counts["simulate.invariant_violations"] == 2 * violation
