"""Structural tests for generated vector programs."""

import pytest

from repro import harness, obs
from repro.bricks import BrickDims
from repro.codegen import CodegenOptions, clear_codegen_memo, cost_of, generate
from repro.codegen import cost, generator, vector_ir
from repro.codegen.vector_ir import (
    Add,
    Init,
    Load,
    Mac,
    Shift,
    Store,
    VectorProgram,
)
from repro.dsl import by_name, cube, star
from repro.errors import CodegenError, LayoutError
from repro.harness import STENCIL_NAMES

DIMS = BrickDims((16, 4, 4))  # bi=16, bj=4, bk=4


def gen(stencil, strategy, vl=16, dims=DIMS, reuse=True):
    return generate(stencil, dims, CodegenOptions(vl, strategy, reuse))


class TestOptions:
    def test_bad_strategy(self):
        with pytest.raises(CodegenError):
            CodegenOptions(16, "magic")

    def test_bad_vl(self):
        with pytest.raises(CodegenError):
            CodegenOptions(1)

    def test_vl_must_divide_extent(self):
        with pytest.raises(CodegenError, match="divide"):
            generate(star(1), DIMS, CodegenOptions(12, "naive"))

    def test_radius_must_fit_brick(self):
        with pytest.raises(Exception):
            generate(star(3), BrickDims((16, 2, 2)), CodegenOptions(16, "naive"))

    def test_radius_must_be_below_vl(self):
        with pytest.raises(CodegenError, match="radius"):
            generate(star(3), BrickDims((4, 4, 4)), CodegenOptions(2, "naive"))


class TestNaive:
    def test_load_count_is_taps_times_outputs(self):
        s = star(2)
        prog = gen(s, "naive")
        loads = [op for op in prog.ops if isinstance(op, Load)]
        # 4*4 rows, 1 vector each, 13 taps.
        assert len(loads) == 16 * s.points

    def test_no_shuffles(self):
        prog = gen(star(2), "naive")
        assert not any(isinstance(op, Shift) for op in prog.ops)

    def test_unaligned_loads_present(self):
        c = cost_of(gen(star(2), "naive"))
        # Taps with oi != 0: 4 of 13 -> 4 unaligned loads per output vector.
        assert c.loads_unaligned == 16 * 4
        assert c.loads_aligned == 16 * 9

    def test_validates(self):
        for s in (star(1), star(4), cube(1), cube(2)):
            gen(s, "naive").validate()


class TestGather:
    def test_each_row_loaded_once_with_reuse(self):
        s = star(2)
        prog = gen(s, "gather")
        loads = [op for op in prog.ops if isinstance(op, Load) and op.kind == "aligned"]
        rows = {(op.k, op.j) for op in loads}
        assert len(loads) == len(rows)  # no duplicate row loads

    def test_reuse_reduces_loads(self):
        s = cube(2)
        with_reuse = cost_of(gen(s, "gather", reuse=True))
        without = cost_of(gen(s, "gather", reuse=False))
        assert with_reuse.loads_total < without.loads_total

    def test_shuffles_replace_unaligned(self):
        c = cost_of(gen(star(2), "gather"))
        assert c.loads_unaligned == 0
        assert c.shuffles > 0

    def test_star_loads_cross_region_only(self):
        # Star taps never need rows with both oj != 0 and ok != 0.
        prog = gen(star(2), "gather")
        for op in prog.ops:
            if isinstance(op, Load):
                out_k = any(0 <= op.k - ok < 4 for ok in range(-2, 3))
                assert out_k  # every loaded row is within k-halo


class TestScatter:
    def test_each_row_loaded_once(self):
        s = cube(2)
        prog = gen(s, "scatter")
        loads = [op for op in prog.ops if isinstance(op, Load) and op.kind == "aligned"]
        rows = {(op.k, op.j) for op in loads}
        assert len(loads) == len(rows)

    def test_cube_loads_full_halo_rows(self):
        prog = gen(cube(1), "scatter")
        loads = {(op.k, op.j) for op in prog.ops if isinstance(op, Load) and op.kind == "aligned"}
        assert loads == {(k, j) for k in range(-1, 5) for j in range(-1, 5)}

    def test_star_skips_corner_rows(self):
        prog = gen(star(2), "scatter")
        loads = {(op.k, op.j) for op in prog.ops if isinstance(op, Load) and op.kind == "aligned"}
        assert (-2, -2) not in loads  # corner row contributes to no star output
        assert (-2, 0) in loads

    def test_mac_count_equals_taps_times_outputs(self):
        s = cube(1)
        c = cost_of(gen(s, "scatter"))
        assert c.macs == s.points * 16  # 16 output vectors

    def test_no_unaligned(self):
        assert cost_of(gen(cube(2), "scatter")).loads_unaligned == 0


class TestAuto:
    @pytest.mark.parametrize("name", ["7pt", "13pt", "19pt", "25pt", "27pt", "125pt"])
    def test_auto_no_worse_than_either(self, name):
        s = by_name(name).build()
        a = len(gen(s, "auto").ops)
        g = len(gen(s, "gather").ops)
        sc = len(gen(s, "scatter").ops)
        assert a == min(g, sc)

    def test_codegen_beats_naive_on_loads(self):
        for name in ("7pt", "25pt", "125pt"):
            s = by_name(name).build()
            naive = cost_of(gen(s, "naive"))
            auto = cost_of(gen(s, "auto"))
            assert auto.loads_total < naive.loads_total

    def test_l1_ratio_grows_with_stencil_size(self):
        # The paper's Figure 4: naive L1 traffic is ~points/footprint x codegen's.
        small = by_name("7pt").build()
        big = by_name("125pt").build()
        ratio_small = (
            cost_of(gen(small, "naive")).load_lanes()
            / cost_of(gen(small, "auto")).load_lanes()
        )
        ratio_big = (
            cost_of(gen(big, "naive")).load_lanes()
            / cost_of(gen(big, "auto")).load_lanes()
        )
        assert ratio_big > ratio_small > 1.0


class TestProgramInvariants:
    @pytest.mark.parametrize("strategy", ["naive", "gather", "scatter"])
    @pytest.mark.parametrize("name", ["7pt", "13pt", "27pt", "125pt"])
    def test_validate_and_pressure(self, strategy, name):
        s = by_name(name).build()
        prog = gen(s, strategy)
        prog.validate()
        assert prog.max_live_registers() >= 1

    def test_multi_vector_rows(self):
        # bi=32 with vl=16 -> 2 vectors per row.
        prog = generate(star(2), BrickDims((32, 4, 4)), CodegenOptions(16, "scatter"))
        prog.validate()
        assert prog.nvec == 2

    def test_pretty_output(self):
        prog = gen(star(1), "gather")
        text = prog.pretty(limit=10)
        assert "gather" in text and "load" in text and "more ops" in text


def _uses(op):
    """Registers ``op`` reads (an ``Init`` is not a read here)."""
    if isinstance(op, Shift):
        return (op.lo, op.hi)
    if isinstance(op, Add):
        return (op.a, op.b)
    if isinstance(op, Mac):
        return (op.src, op.dst)
    if isinstance(op, Store):
        return (op.src,)
    return ()


def _defines(op):
    """The register ``op`` writes, if any."""
    if isinstance(op, (Load, Shift, Init, Add)):
        return op.dst
    return None


def quadratic_max_live(prog):
    """Reference liveness: rescan the whole live set after every op."""
    last_use = {}
    for idx, op in enumerate(prog.ops):
        for reg in _uses(op):
            last_use[reg] = idx
        if isinstance(op, (Mac, Init)):
            last_use[op.dst] = max(last_use.get(op.dst, idx), idx)
    live, peak = set(), 0
    for idx, op in enumerate(prog.ops):
        d = _defines(op)
        if d is not None:
            live.add(d)
        live.update(_uses(op))
        peak = max(peak, len(live))
        live -= {r for r in live if last_use.get(r, -1) <= idx}
    return peak


class TestLiveness:
    @pytest.mark.parametrize("simd", [8, 16, 32, 64])
    @pytest.mark.parametrize("name", STENCIL_NAMES)
    def test_linear_scan_matches_quadratic_reference(self, name, simd):
        stencil = by_name(name).build()
        dims = BrickDims((simd, 4, 4))
        checked = 0
        for strategy, reuse in (
            ("naive", True),
            ("gather", True),
            ("gather", False),  # rows reloaded after they died
            ("scatter", True),
            ("auto", True),
        ):
            for vl in (simd, simd // 2):
                try:
                    prog = generate(
                        stencil, dims, CodegenOptions(vl, strategy, reuse)
                    )
                except (CodegenError, LayoutError):
                    continue  # combinations generate() rejects have no program
                assert prog.max_live_registers() == quadratic_max_live(prog)
                checked += 1
        assert checked > 0

    def test_dead_definition_and_redefinition(self):
        # A never-read load dies at its own op, and so does a name
        # redefined after its last read: neither may linger and inflate
        # the peak of the three-register tail (c, d, e).
        ops = [
            Load("a", 0, 0, 0, "aligned"),
            Load("unused", 0, 0, 0, "aligned"),
            Init("acc"),
            Mac("acc", "a", None),
            Store("acc", 0, 0, 0),
            Load("a", 0, 0, 0, "aligned"),
            Load("c", 0, 0, 0, "aligned"),
            Load("d", 0, 0, 0, "aligned"),
            Add("e", "c", "d"),
            Store("e", 0, 0, 1),
        ]
        prog = VectorProgram(ops, (1, 1, 4), 0, 2, "gather")
        assert prog.max_live_registers() == quadratic_max_live(prog) == 3

    def test_empty_program_has_no_live_registers(self):
        prog = VectorProgram([], (1, 1, 4), 0, 2, "gather")
        assert prog.max_live_registers() == quadratic_max_live(prog) == 0

    def test_store_of_a_never_defined_register(self):
        # The unvalidated store's register is live at that op: with a
        # and b it makes the peak; without it the peak would be 2.
        ops = [
            Load("a", 0, 0, 0, "aligned"),
            Load("b", 0, 0, 0, "aligned"),
            Store("ghost", 0, 0, 0),
            Add("a", "a", "b"),
            Store("a", 0, 0, 1),
        ]
        prog = VectorProgram(ops, (1, 1, 4), 0, 2, "gather")
        assert prog.max_live_registers() == quadratic_max_live(prog) == 3

    @pytest.mark.parametrize(
        "ops, peak",
        [
            # The first reload makes the peak with c and d live; the
            # second finds nothing else live.
            (
                [
                    Load("a", 0, 0, 0, "aligned"),
                    Store("a", 0, 0, 0),
                    Load("c", 0, 0, 0, "aligned"),
                    Load("d", 0, 0, 0, "aligned"),
                    Load("a", 0, 0, 0, "aligned"),
                    Store("c", 0, 0, 1),
                    Store("d", 0, 0, 2),
                    Load("a", 0, 0, 0, "aligned"),
                ],
                3,
            ),
            # The peak (c, d, e, f) falls between the two reloads, which
            # must not keep "a" live across it.
            (
                [
                    Load("a", 0, 0, 0, "aligned"),
                    Store("a", 0, 0, 0),
                    Load("a", 0, 0, 0, "aligned"),
                    Load("c", 0, 0, 0, "aligned"),
                    Load("d", 0, 0, 0, "aligned"),
                    Load("e", 0, 0, 0, "aligned"),
                    Add("f", "c", "d"),
                    Add("g", "e", "f"),
                    Load("a", 0, 0, 0, "aligned"),
                    Store("g", 0, 0, 1),
                ],
                4,
            ),
        ],
        ids=["reload-at-peak", "peak-between-reloads"],
    )
    def test_name_redefined_twice_after_it_died(self, ops, peak):
        # "a" dies at its store; each later load of the name is a fresh
        # register, live at that op only.
        prog = VectorProgram(ops, (1, 1, 8), 0, 2, "gather")
        assert prog.max_live_registers() == quadratic_max_live(prog) == peak

    def test_init_counts_as_a_use(self):
        # Zeroing "acc" again keeps it live from its first Init through
        # the Add, where b, c and d are live too.
        ops = [
            Init("acc"),
            Store("acc", 0, 0, 0),
            Load("b", 0, 0, 0, "aligned"),
            Load("c", 0, 0, 0, "aligned"),
            Add("d", "b", "c"),
            Store("d", 0, 0, 1),
            Init("acc"),
        ]
        prog = VectorProgram(ops, (1, 1, 4), 0, 2, "gather")
        assert prog.max_live_registers() == quadratic_max_live(prog) == 4

    def test_cold_study_scans_each_candidate_once(self, monkeypatch):
        # The 18 auto programs come from 6 shapes (one per stencil; the
        # three SIMD widths re-bind the first build), and each shape
        # scans its gather and scatter candidates once: 12 scans.
        # cost_of reuses the chosen one's peak, but scans each of the 18
        # naive programs: 30 in all.  More scans mean a regression.
        scans = []
        scan = vector_ir._liveness_peak
        monkeypatch.setattr(
            vector_ir, "_liveness_peak", lambda ops: scans.append(1) or scan(ops)
        )
        prev = obs.get_registry()
        registry = obs.set_registry(obs.MetricsRegistry())
        clear_codegen_memo()
        try:
            study = harness.run_study()
        finally:
            obs.set_registry(prev)
            clear_codegen_memo()
        assert len(study) == 90 and study.complete
        assert len(scans) == 30
        assert registry.counter("codegen.memo_misses").value == 36

    def test_cost_of_reuses_the_scan_generate_chose_by(self, monkeypatch):
        # The auto rule scans both candidates; cost_of must not scan the
        # chosen one again (a cold sweep would pay for it once more).
        scanned = []
        scan = vector_ir._liveness_peak
        monkeypatch.setattr(
            vector_ir, "_liveness_peak",
            lambda ops: scanned.append(id(ops)) or scan(ops),
        )
        clear_codegen_memo()
        stencil = by_name("13pt").build()
        prog = gen(stencil, "auto")
        assert len(scanned) == 2 and id(prog.ops) in scanned
        cost = cost_of(prog)
        assert gen(stencil, "auto") is prog  # memoised, not regenerated
        assert len(scanned) == 2
        assert cost.registers == quadratic_max_live(prog)


class TestShapeMemo:
    """Programs re-bound from another vector length's build of a shape."""

    PRIME_VL = 8
    VLS = (16, 32, 64)

    @pytest.fixture(autouse=True)
    def cold(self):
        clear_codegen_memo()
        yield
        clear_codegen_memo()

    @pytest.mark.parametrize("nvec", [1, 2, 4])
    @pytest.mark.parametrize("reuse", [True, False])
    @pytest.mark.parametrize("strategy", ["naive", "gather", "scatter", "auto"])
    @pytest.mark.parametrize("name", STENCIL_NAMES)
    def test_rebound_equals_a_direct_build(
        self, monkeypatch, name, strategy, reuse, nvec
    ):
        stencil = by_name(name).build()
        build = generator._build

        def dims(vl):
            return BrickDims((nvec * vl, 4, 4))

        gen(stencil, strategy, self.PRIME_VL, dims(self.PRIME_VL), reuse)
        # Every other width must come from the shape memo, not a build.
        monkeypatch.setattr(generator, "_build", None)
        for vl in self.VLS:
            assert stencil.radius < vl
            prog = gen(stencil, strategy, vl, dims(vl), reuse)
            direct, _ = build(stencil, dims(vl), CodegenOptions(vl, strategy, reuse))
            assert prog.ops == direct.ops
            assert (prog.tile, prog.vl, prog.radius) == (direct.tile, vl, direct.radius)
            assert (prog.strategy, prog.meta) == (direct.strategy, direct.meta)
            assert prog.max_live_registers() == vector_ir._liveness_peak(direct.ops)
            assert cost_of(prog) == cost_of(direct)
        assert len(generator._SHAPES) == 1

    def test_naive_peaks_stay_uncached(self):
        stencil = by_name("13pt").build()
        for vl in (self.PRIME_VL, *self.VLS):
            assert gen(stencil, "naive", vl, BrickDims((vl, 4, 4)))._peak is None

    @pytest.mark.parametrize(
        "strategy, op_type, bad",
        [
            ("naive", Load, lambda vl: 4 * vl),  # past the right halo
            ("gather", Load, lambda vl: -2 * vl),  # past the left halo
            ("scatter", Shift, lambda vl: vl),  # a whole vector
        ],
    )
    def test_corrupt_rebound_field_fails_like_validate(
        self, strategy, op_type, bad
    ):
        def dims(vl):
            return BrickDims((2 * vl, 4, 4))  # naive re-binds only v > 0

        stencil = by_name("13pt").build()
        gen(stencil, strategy, self.PRIME_VL, dims(self.PRIME_VL))
        (shape_key, (built, fields)), = generator._SHAPES.items()
        at = next(at for at, _, _ in fields if type(built.ops[at]) is op_type)
        vl = self.VLS[0]
        value = bad(vl)
        corrupt = [f if f[0] != at else (at, 0, value) for f in fields]
        generator._SHAPES[shape_key] = (built, corrupt)
        with pytest.raises(CodegenError) as rebound:
            gen(stencil, strategy, vl, dims(vl))
        # The same ops with every check run.
        direct, _ = generator._build(
            stencil, dims(vl), CodegenOptions(vl, strategy)
        )
        field = "i0" if op_type is Load else "amount"
        direct.ops[at] = direct.ops[at]._replace(**{field: value})
        with pytest.raises(CodegenError) as full:
            direct.validate()
        assert str(rebound.value) == str(full.value)

    @pytest.mark.parametrize("name", STENCIL_NAMES)
    def test_memo_key_reads_the_cached_sorted_taps(self, name):
        case = by_name(name)
        stencil = case.build()
        options = CodegenOptions(16)
        key = generator.memo_key(stencil, DIMS, options)
        sorted_taps = tuple(sorted(stencil.taps.items()))
        assert key[0] is stencil.signature and key[0].taps == sorted_taps
        fresh = (star if case.shape == "star" else cube)(case.radius)
        assert fresh is not stencil
        rebuilt = generator.memo_key(fresh, DIMS, options)
        assert rebuilt == key and hash(rebuilt) == hash(key)

    def test_clear_empties_the_shape_memo(self):
        gen(star(1), "auto")
        assert generator._SHAPES
        clear_codegen_memo()
        assert not generator._SHAPES

    def test_cold_study_validates_once_per_miss(self, monkeypatch):
        # 36 misses: 12 shapes (6 stencils x naive/auto) validated and
        # tallied at their first build, and 24 re-binds that check the
        # fields they rewrote and keep the tally (cost_of counts none).
        validated, rebound, tallied = [], [], []
        tally = cost.op_tally
        for module in (cost, generator):
            monkeypatch.setattr(
                module, "op_tally", lambda ops: tallied.append(1) or tally(ops)
            )
        validate, validate_vl = VectorProgram.validate, VectorProgram.validate_vl
        monkeypatch.setattr(
            VectorProgram, "validate",
            lambda prog: validated.append(prog.vl) or validate(prog),
        )
        monkeypatch.setattr(
            VectorProgram, "validate_vl",
            lambda prog, at: rebound.append(prog.vl) or validate_vl(prog, at),
        )
        prev = obs.get_registry()
        registry = obs.set_registry(obs.MetricsRegistry())
        try:
            study = harness.run_study()
        finally:
            obs.set_registry(prev)
        assert len(study) == 90 and study.complete
        assert registry.counter("codegen.memo_misses").value == 36
        assert len(validated) == 12
        assert len(rebound) == 24
        assert len(tallied) == 12
        assert sorted(set(validated + rebound)) == [16, 32, 64]


class TestOps:
    def test_ops_are_hashable(self):
        ops = {Load("a", 0, 0, 0, "aligned"), Init("acc"), Store("acc", 0, 0, 0)}
        assert Init("acc") in ops and len(ops) == 3

    @pytest.mark.parametrize(
        "op, field",
        [
            (Load("a", 0, 0, 0, "aligned"), "kind"),
            (Shift("s", "a", "b", 1), "amount"),
            (Init("acc"), "dst"),
            (Add("s", "a", "b"), "a"),
            (Mac("acc", "s", None), "src"),
            (Store("acc", 0, 0, 0), "v"),
        ],
    )
    def test_fields_cannot_be_assigned(self, op, field):
        with pytest.raises(AttributeError):
            setattr(op, field, getattr(op, field))

    def test_different_ops_compare_unequal(self):
        assert Load("a", 0, 0, 0, "aligned") != Load("a", 0, 0, 0, "halo")
        assert Shift("s", "a", "b", 1) != Store("s", 0, 0, 1)
        assert Add("s", "a", "b") != Mac("s", "a", None)
        assert Init("acc") != Store("acc", 0, 0, 0)
