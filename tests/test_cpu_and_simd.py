"""Tests for the AVX512/AVX2/SVE emitters."""

import numpy as np
import pytest

from repro import dsl, kernels
from repro.bricks import BrickDims
from repro.codegen import CodegenOptions, execute, generate
from repro.codegen.emitters import CPU_ISAS, MODELS, emit
from repro.errors import CodegenError
from repro.gpu import platform
from repro.reference import apply_interior, random_field


def cpu_program(vl=8, name="13pt", strategy="auto", bi=None):
    s = dsl.by_name(name).build()
    dims = BrickDims((bi or vl, 4, 4))
    return generate(s, dims, CodegenOptions(vl, strategy))


class TestCpuPlatforms:
    def test_kernel_execution_on_cpu_platform(self):
        # The executable path works with the CPU tile shape (8x4x4) and
        # the 8-lane vectors the AVX-512 emitter targets.
        case = dsl.by_name("7pt")
        s, b = case.build(), case.default_bindings()
        dense = random_field((10, 10, 34), seed=8)
        run = kernels.run("bricks_codegen", s, platform("A100", "CUDA"),
                          domain=(32, 8, 8), bindings=b, input_dense=dense,
                          dims=BrickDims((8, 4, 4)))
        np.testing.assert_allclose(
            run.output, apply_interior(s, dense, b), rtol=1e-12, atol=1e-12
        )


class TestSimdEmitters:
    def test_isa_registry(self):
        assert CPU_ISAS == ("AVX2", "AVX512", "SVE")
        assert set(MODELS).isdisjoint(CPU_ISAS)

    def test_avx512_intrinsics(self):
        src = emit(cpu_program(vl=8), "AVX512")
        assert "_mm512_loadu_pd" in src
        assert "_mm512_fmadd_pd" in src
        assert "_mm512_alignr_epi64" in src
        assert "#pragma omp parallel for" in src
        assert "__m512d" in src

    def test_avx2_intrinsics(self):
        src = emit(cpu_program(vl=4), "AVX2")
        assert "_mm256_loadu_pd" in src
        assert "AVX2_ALIGN_PD" in src  # helper macro used for shifts
        assert "#define AVX2_ALIGN_PD" in src

    def test_sve_intrinsics(self):
        src = emit(cpu_program(vl=8), "SVE")
        assert "svld1_f64" in src
        assert "svext_f64" in src
        assert "svmla_f64_x" in src

    def test_vector_length_mismatch_rejected(self):
        with pytest.raises(CodegenError, match="4-lane"):
            emit(cpu_program(vl=8), "AVX2")  # AVX2 wants vl=4

    def test_array_layout(self):
        src = emit(cpu_program(vl=8), "AVX512", layout="array")
        assert "in_g + IDX(" in src
        assert "collapse(3)" in src

    def test_brick_layout_adjacency(self):
        src = emit(cpu_program(vl=8), "AVX512", layout="brick")
        assert "BRICK_ROW(bIn, b," in src

    def test_grouped_adds_emitted(self):
        src = emit(cpu_program(vl=8, strategy="gather"), "AVX512")
        assert "_mm512_add_pd" in src  # coefficient-group sums

    def test_multi_vector_rows(self):
        src = emit(cpu_program(vl=8, bi=16), "AVX512")
        assert "+ (8)" in src or "+ 8" in src  # second vector of a row

    def test_unknown_model_message_lists_isas(self):
        with pytest.raises(CodegenError, match="AVX512"):
            emit(cpu_program(vl=8), "NEON")


class TestSimdProgramsStillExecute:
    """The same vl=8 programs emitted as AVX-512 run on the interpreter."""

    @pytest.mark.parametrize("name", ["7pt", "27pt"])
    def test_vl8_programs_correct(self, name):
        case = dsl.by_name(name)
        s, b = case.build(), case.default_bindings()
        prog = cpu_program(vl=8, name=name)
        r = s.radius
        padded = random_field((3, 4 + 2 * r, 4 + 2 * r, 8 + 2 * r), seed=13)
        got = execute(prog, padded, b)
        expected = np.stack(
            [apply_interior(s, padded[i], b) for i in range(3)]
        )
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
