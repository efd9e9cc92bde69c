"""Correctness of vector-program execution against the naive reference.

This is the reproduction's central correctness anchor: every generation
strategy, executed by the IR interpreter, must agree bit-for-bit-ish
(fp64 tolerance) with the straightforward NumPy stencil.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.bricks import BrickDims
from repro.codegen import CodegenOptions, clear_codegen_memo, execute, generate
from repro.codegen import generator
from repro.dsl import by_name, catalog, from_weights
from repro.harness import STENCIL_NAMES
from repro.reference import apply_interior, random_field


def run_program(stencil, bindings, strategy, dims=BrickDims((16, 4, 4)), vl=16,
                batch=5, seed=3, reuse=True):
    """Generate + execute on random padded blocks; return (result, expected)."""
    prog = generate(stencil, dims, CodegenOptions(vl, strategy, reuse))
    r = stencil.radius
    bk, bj, bi = dims.shape
    padded = random_field((batch, bk + 2 * r, bj + 2 * r, bi + 2 * r), seed=seed)
    got = execute(prog, padded, bindings)
    expected = np.stack(
        [apply_interior(stencil, padded[b], bindings) for b in range(batch)]
    )
    return got, expected


class TestAgainstReference:
    @pytest.mark.parametrize("strategy", ["naive", "gather", "scatter", "auto"])
    @pytest.mark.parametrize("name", sorted(catalog()))
    def test_all_stencils_all_strategies(self, strategy, name):
        case = by_name(name)
        stencil = case.build()
        got, expected = run_program(stencil, case.default_bindings(), strategy)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("strategy", ["gather", "scatter"])
    def test_multi_vector_rows(self, strategy):
        case = by_name("13pt")
        got, expected = run_program(
            case.build(),
            case.default_bindings(),
            strategy,
            dims=BrickDims((64, 4, 4)),
            vl=16,
        )
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("vl", [8, 16, 32])
    def test_vector_lengths(self, vl):
        case = by_name("25pt")
        got, expected = run_program(
            case.build(),
            case.default_bindings(),
            "scatter",
            dims=BrickDims((32, 8, 8)),
            vl=vl,
        )
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_no_reuse_still_correct(self):
        case = by_name("27pt")
        got, expected = run_program(
            case.build(), case.default_bindings(), "gather", reuse=False
        )
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_asymmetric_weights_catch_axis_mixups(self):
        # Distinct weight per tap: any i/j/k confusion in codegen shows up.
        weights = {
            (0, 0, 0): 1.0,
            (1, 0, 0): 2.0,
            (-1, 0, 0): 3.0,
            (0, 1, 0): 5.0,
            (0, -1, 0): 7.0,
            (0, 0, 1): 11.0,
            (0, 0, -1): 13.0,
            (2, 0, 0): 17.0,
            (0, 0, -2): 19.0,
        }
        s = from_weights(weights)
        for strategy in ("naive", "gather", "scatter"):
            got, expected = run_program(s, {}, strategy)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        taps=hst.dictionaries(
            keys=hst.tuples(
                hst.integers(-2, 2), hst.integers(-2, 2), hst.integers(-2, 2)
            ),
            values=hst.floats(-4, 4).filter(lambda v: abs(v) > 1e-6),
            min_size=1,
            max_size=12,
        ),
        strategy=hst.sampled_from(["naive", "gather", "scatter"]),
        seed=hst.integers(0, 50),
    )
    def test_random_stencils_property(self, taps, strategy, seed):
        s = from_weights(taps)
        got, expected = run_program(s, {}, strategy, batch=2, seed=seed)
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-10)


class TestReboundPrograms:
    """Programs re-bound from another width's build run bit for bit.

    Small integer inputs and coefficients keep every sum exact in fp64,
    so the grouped-sum order of the program cannot hide a wrong lane.
    """

    @pytest.mark.parametrize("strategy", ["naive", "gather", "scatter", "auto"])
    @pytest.mark.parametrize("name", STENCIL_NAMES)
    def test_each_width_matches_the_reference(self, monkeypatch, name, strategy):
        stencil = by_name(name).build()
        bindings = {
            sym: (-1) ** n * (n + 1) for n, sym in enumerate(sorted(stencil.symbols()))
        }
        r = stencil.radius
        rng = np.random.default_rng(7)

        def program(vl):
            dims = BrickDims((2 * vl, 4, 4))
            return generate(stencil, dims, CodegenOptions(vl, strategy))

        try:
            for vl in (8, 16, 32, 64):
                clear_codegen_memo()
                program(64 if vl != 64 else 8)
                with monkeypatch.context() as m:
                    m.setattr(generator, "_build", None)  # must re-bind
                    prog = program(vl)
                padded = rng.integers(
                    -8, 9, (2, 4 + 2 * r, 4 + 2 * r, 2 * vl + 2 * r)
                ).astype(np.float64)
                expected = np.stack(
                    [apply_interior(stencil, block, bindings) for block in padded]
                )
                np.testing.assert_array_equal(execute(prog, padded, bindings), expected)
        finally:
            clear_codegen_memo()


class TestInterpreterValidation:
    def test_bad_padded_shape(self):
        from repro.errors import CodegenError

        case = by_name("7pt")
        prog = generate(
            case.build(), BrickDims((16, 4, 4)), CodegenOptions(16, "gather")
        )
        with pytest.raises(CodegenError, match="padded"):
            execute(prog, np.zeros((1, 4, 4, 16)), case.default_bindings())

    def test_constant_field_with_balanced_weights_is_zero(self):
        # weights summing to zero annihilate constants.
        s = from_weights({(0, 0, 0): -6.0, (1, 0, 0): 1.0, (-1, 0, 0): 1.0,
                          (0, 1, 0): 1.0, (0, -1, 0): 1.0,
                          (0, 0, 1): 1.0, (0, 0, -1): 1.0})
        prog = generate(s, BrickDims((16, 4, 4)), CodegenOptions(16, "scatter"))
        padded = np.full((3, 6, 6, 18), 2.5)
        out = execute(prog, padded, {})
        np.testing.assert_allclose(out, 0.0, atol=1e-12)
