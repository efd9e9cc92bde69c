"""The batch engine's per-group memo and per-point tile check.

``simulate_batch`` pays codegen and the cost model once per program
(memoised beside the codegen memo, across calls) and checks every
point's domain against its tile as one array op.  These tests pin the
memo's lifecycle and that a vectorised check flags exactly the points,
messages and counters a scalar loop would.
"""

import dataclasses
import functools

import pytest

from repro import obs
from repro.codegen import clear_codegen_memo
from repro.codegen.generator import COST_MEMO
from repro.dsl.shapes import by_name
from repro.exec import parallel_map
from repro.gpu import BatchPoint, batch, platform, simulate, simulate_batch, study_platforms
from repro.resilience import TaskFailure

COUNTERS = ("simulate.calls", "simulate.tiles", "codegen.vector_ops")


@pytest.fixture
def registry():
    prev = obs.get_registry()
    reg = obs.set_registry(obs.MetricsRegistry())
    yield reg
    obs.set_registry(prev)


def _counts(registry):
    return {name: registry.counter(name).value for name in COUNTERS}


class TestCostMemo:
    @pytest.fixture
    def costed(self, monkeypatch):
        """Every program ``gpu.batch`` hands to ``cost_of``, in order."""
        seen = []
        real = batch.cost_of

        def counting(program):
            seen.append(program)
            return real(program)

        monkeypatch.setattr(batch, "cost_of", counting)
        clear_codegen_memo()
        yield seen
        clear_codegen_memo()

    @staticmethod
    def matrix():
        stencils = [(n, by_name(n).build()) for n in ("7pt", "27pt")]
        return [
            BatchPoint(
                stencil=s, variant=v, platform=p, domain=(256, 8, 8),
                stencil_name=n,
            )
            for n, s in stencils
            for p in study_platforms()
            for v in ("array", "array_codegen", "bricks_codegen")
        ]

    def test_once_per_program_across_calls(self, costed):
        points = self.matrix()
        first = simulate_batch(points, check_invariants=False)
        programs = len({id(p) for p in costed})
        assert len(costed) == programs == len(COST_MEMO)
        # Platforms sharing a SIMD width share programs, so the memo
        # costs fewer programs than there are groups.
        assert programs < len(points)
        second = simulate_batch(points, check_invariants=False)
        assert len(costed) == programs
        assert second == first

    def test_clear_makes_the_next_call_cold(self, costed):
        points = self.matrix()
        simulate_batch(points, check_invariants=False)
        warm_calls = len(costed)
        clear_codegen_memo()
        assert not COST_MEMO
        simulate_batch(points, check_invariants=False)
        assert len(costed) == 2 * warm_calls

    def test_memo_size_is_stable_across_clears(self, costed):
        points = self.matrix()
        sizes = []
        for _ in range(3):
            clear_codegen_memo()
            simulate_batch(points, check_invariants=False)
            sizes.append(len(COST_MEMO))
        assert sizes[0] > 0 and len(set(sizes)) == 1


def _scalar(point, check_invariants):
    return simulate(
        point.stencil, point.variant, point.platform, domain=point.domain,
        stencil_name=point.stencil_name, check_invariants=check_invariants,
    )


class TestTileCheck:
    """Bad domains mid-chunk and on chunk boundaries (``chunk_size=3``).

    Point 4 has an unknown variant, so the resolved points of its chunk
    are not the chunk's points.
    """

    BAD = (1, 4, 5, 6)

    @staticmethod
    def points():
        stencil = by_name("13pt").build()
        plat = platform("A100", "CUDA")
        domains = [
            (64, 8, 8), (64, 6, 8), (64, 8, 8),  # mid-chunk (j)
            (128, 4, 4), (64, 8, 4), (80, 8, 8),  # chunk end (i)
            (64, 8, 10), (64, 4, 4), (128, 8, 8),  # chunk start (k)
            (64, 4, 4),
        ]
        variants = ("array", "array_codegen", "bricks_codegen")
        points = [
            BatchPoint(
                stencil=stencil, variant=variants[n % 3], platform=plat,
                domain=d, stencil_name="13pt",
            )
            for n, d in enumerate(domains)
        ]
        points[4] = dataclasses.replace(points[4], variant="nope")
        return points

    @pytest.mark.parametrize("check", [False, True])
    def test_captured_failures_match_scalar(self, registry, check):
        points = self.points()
        scalar = parallel_map(
            functools.partial(_scalar, check_invariants=check), points,
            capture_failures=True,
        )
        scalar_counts = _counts(registry)
        obs.set_registry(obs.MetricsRegistry())
        out = simulate_batch(
            points, capture_failures=True, check_invariants=check,
            chunk_size=3,
        )
        assert _counts(obs.get_registry()) == scalar_counts
        failed = [i for i, r in enumerate(out) if isinstance(r, TaskFailure)]
        assert failed == list(self.BAD)
        assert out == scalar
        assert "is not a multiple of tile" in out[5].message

    @pytest.mark.parametrize("check", [False, True])
    @pytest.mark.parametrize("first_bad", BAD)
    def test_raise_matches_scalar(self, registry, check, first_bad):
        # Mend the other bad points, so ``first_bad`` is the one failure.
        points = [
            p if i == first_bad or i not in self.BAD
            else dataclasses.replace(p, variant="array", domain=(64, 4, 4))
            for i, p in enumerate(self.points())
        ]
        with pytest.raises(Exception) as scalar_err:
            for point in points:
                _scalar(point, check)
        scalar_counts = _counts(registry)
        obs.set_registry(obs.MetricsRegistry())
        with pytest.raises(type(scalar_err.value)) as batch_err:
            simulate_batch(points, check_invariants=check, chunk_size=3)
        assert str(batch_err.value) == str(scalar_err.value)
        assert _counts(obs.get_registry()) == scalar_counts
