"""The vector code generator: stencil -> :class:`VectorProgram`.

Implements the paper's three domain-specific optimisations (Section 3):

* **vector folding** — the tile's contiguous extent is covered by whole
  hardware vectors (``vl`` divides the brick's ``i`` extent), so every
  row is a small number of aligned vector loads;
* **reuse of array common subexpressions** — the *gather* strategy keeps
  every loaded (and shifted) row in a buffer register, shifting the
  iteration space instead of the data, so a row read by several output
  points is loaded exactly once;
* **vector scatter** — the *scatter* strategy walks the halo-padded
  input rows once, scattering each loaded row into the accumulators of
  every output row that uses it (associative reordering via statement
  splitting, Stock et al.), which for high-order stencils avoids the
  temporary-buffer traffic of gathering.

Unaligned neighbour access along ``i`` is realised as aligned loads plus
lane shifts (the GPU warp-shuffle exchange) instead of the naive
strategy's per-tap unaligned loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, repeat
from typing import Dict, List, Tuple

from repro.bricks.layout import BrickDims
from repro.codegen.cost import ProgramCost, op_tally
from repro.codegen.vector_ir import (
    Add,
    Init,
    Load,
    Mac,
    Op,
    Shift,
    Store,
    VectorProgram,
)
from repro.dsl.stencil import Stencil
from repro.errors import CodegenError
from repro.obs import counter, get_tracer

STRATEGIES = ("naive", "gather", "scatter", "auto")


@dataclass(frozen=True)
class CodegenOptions:
    """Knobs for code generation.

    ``strategy='auto'`` generates both gather and scatter programs and
    keeps the one with fewer ops — the library's profitability rule.
    ``reuse=False`` disables the common-subexpression buffers in gather
    mode (used by the ablation benchmarks to isolate their benefit).
    """

    vector_length: int
    strategy: str = "auto"
    reuse: bool = True

    def __post_init__(self) -> None:
        if self.vector_length < 2:
            raise CodegenError(
                f"vector length must be >= 2, got {self.vector_length}"
            )
        if self.strategy not in STRATEGIES:
            raise CodegenError(
                f"unknown strategy '{self.strategy}'; known: {STRATEGIES}"
            )


#: Memoised generated programs.  Keyed on the full semantic input of
#: :func:`generate` — the stencil's taps (offsets + coefficients), the
#: tile shape, and the options — so the five platform columns of the
#: study (three distinct SIMD widths) stop regenerating identical
#: programs.  Values are shared instances: callers treat a
#: ``VectorProgram`` as immutable after generation.
_MEMO: Dict[Tuple, VectorProgram] = {}

#: Costs of memoised programs, under the same keys as ``_MEMO``.  The
#: batch engine fills it so a sweep walks each program's cost model once
#: per process; it is cleared with ``_MEMO``, so a cold run pays for both.
COST_MEMO: Dict[Tuple, ProgramCost] = {}

#: One built program per shape: stencil signature, ``bk``, ``bj``,
#: vectors per row (``bi // vl``), strategy and reuse.  Tiles ``(bk, bj,
#: nvec * vl)`` of one shape give the same op sequence at every ``vl``
#: (register names and load kinds never depend on it, given ``r < vl``)
#: except for the fields in the value's ``(op index, a, b)`` list, each
#: of which holds ``a * vl + b``.  A shape's first build is validated in
#: full and carries its op tally (and, for auto, the liveness peak its
#: rule measured); a ``_MEMO`` miss on a known shape re-binds those
#: fields, checks only them, and keeps the tally and peak, instead of
#: building, validating, counting, scanning and choosing the sequence
#: again.  Cleared with ``_MEMO``.
_SHAPES: Dict[Tuple, Tuple[VectorProgram, List[Tuple[int, int, int]]]] = {}


def memo_key(
    stencil: Stencil, dims: BrickDims, options: CodegenOptions
) -> Tuple:
    """The key :func:`generate` memoises ``(stencil, dims, options)`` under.

    The stencil enters as its :attr:`~repro.dsl.stencil.Stencil.signature`,
    whose hash is computed once per stencil.
    """
    return (stencil.signature, dims.dims, options)


def clear_codegen_memo() -> None:
    """Drop all memoised programs, shapes and costs (tests and benchmarks)."""
    _MEMO.clear()
    COST_MEMO.clear()
    _SHAPES.clear()


def generate(
    stencil: Stencil, dims: BrickDims, options: CodegenOptions
) -> VectorProgram:
    """Generate a vector program computing ``stencil`` over one tile.

    Results are memoised on (stencil signature, tile dims, options);
    repeated calls return the same validated program instance and
    record a ``codegen.memo_hits`` counter (misses likewise).
    """
    if stencil.ndim != 3:
        raise CodegenError("the vector code generator supports 3-D stencils")
    if dims.ndim != 3:
        raise CodegenError("tile dims must be 3-D")
    bk, bj, bi = dims.shape
    vl = options.vector_length
    if bi % vl != 0:
        raise CodegenError(
            f"vector length {vl} must divide the tile's contiguous extent {bi}"
        )
    r = stencil.radius
    if r >= vl:
        raise CodegenError(f"stencil radius {r} must be smaller than vl {vl}")
    dims.check_radius(r)

    key = memo_key(stencil, dims, options)
    memoised = _MEMO.get(key)
    with get_tracer().span(
        "codegen.generate",
        strategy=options.strategy,
        vl=vl,
        tile=f"{bk}x{bj}x{bi}",
        memo="hit" if memoised is not None else "miss",
    ) as sp:
        if memoised is not None:
            counter("codegen.memo_hits").inc()
            if sp is not None:
                sp.set_attr("chosen", memoised.strategy)
                sp.set_attr("ops", len(memoised.ops))
            return memoised
        counter("codegen.memo_misses").inc()
        shape_key = (key[0], bk, bj, bi // vl, options.strategy, options.reuse)
        shape = _SHAPES.get(shape_key)
        if shape is not None:
            prog = _rebind(*shape, dims, vl)
        else:
            prog, fields = _build(stencil, dims, options)
            prog.validate()
            prog._tally = op_tally(prog.ops)
            _SHAPES[shape_key] = (prog, fields)
        counter("codegen.programs").inc()
        if sp is not None:
            sp.set_attr("chosen", prog.strategy)
            sp.set_attr("ops", len(prog.ops))
        _MEMO[key] = prog
    return prog


def _build(
    stencil: Stencil, dims: BrickDims, options: CodegenOptions
) -> Tuple[VectorProgram, List[Tuple[int, int, int]]]:
    """Build the program ``options`` asks for, and its ``vl`` fields."""
    vl, reuse = options.vector_length, options.reuse
    builder = _Builder(stencil, dims, vl)
    if options.strategy == "naive":
        return builder.naive(), builder.vl_fields
    if options.strategy == "gather":
        return builder.gather(reuse=reuse), builder.vl_fields
    if options.strategy == "scatter":
        return builder.scatter(), builder.vl_fields
    # auto: profitability rule — fewest ops, then least register pressure;
    # final tie goes to gather (grouped sums execute fewer FLOPs than
    # scatter's per-tap FMAs).
    g, s = builder, _Builder(stencil, dims, vl)
    g_prog, s_prog = g.gather(reuse=reuse), s.scatter()
    g_key = (len(g_prog.ops), g_prog.max_live_registers(), 0)
    s_key = (len(s_prog.ops), s_prog.max_live_registers(), 1)
    builder, prog, chosen = (g, g_prog, g_key) if g_key <= s_key else (s, s_prog, s_key)
    prog._peak = chosen[1]  # cost_of reuses this scan
    return prog, builder.vl_fields


def _rebind(
    built: VectorProgram,
    fields: List[Tuple[int, int, int]],
    dims: BrickDims,
    vl: int,
) -> VectorProgram:
    """``built``'s program for the same shape at vector length ``vl``.

    Only the recorded ``(op index, a, b)`` fields change, to ``a * vl +
    b``: a ``Load``'s ``i0`` or a ``Shift``'s ``amount``; they are the
    ops :meth:`~VectorProgram.validate_vl` checks.  Op types, load kinds
    and register names do not depend on ``vl``, so the auto rule's
    choice, the op tally and the liveness peak carry over.
    """
    ops = list(built.ops)
    for at, a, b in fields:
        op = ops[at]
        value = a * vl + b
        ops[at] = op._replace(i0=value) if type(op) is Load else op._replace(amount=value)
    prog = VectorProgram(
        ops=ops,
        tile=dims.shape,
        radius=built.radius,
        vl=vl,
        strategy=built.strategy,
        meta=dict(built.meta),
    )
    prog.validate_vl(at for at, _, _ in fields)
    prog._peak, prog._tally = built._peak, built._tally
    return prog


class _Builder:
    """Shared machinery for the three generation strategies.

    ``vl_fields`` records, as ``(op index, a, b)``, every emitted field
    whose value ``a * vl + b`` depends on ``vl`` (``a != 0``): halo and
    aligned load offsets, naive load offsets past the first vector, and
    the lane counts of shifts that take in the left halo.
    """

    def __init__(self, stencil: Stencil, dims: BrickDims, vl: int) -> None:
        self.stencil = stencil
        self.bk, self.bj, self.bi = dims.shape
        self.vl = vl
        self.nvec = self.bi // vl
        self.r = stencil.radius
        self.ops: List[Op] = []
        self.vl_fields: List[Tuple[int, int, int]] = []
        # Sorted taps: (ok, oj, oi) order groups rows together.
        self.taps = sorted(
            ((off[2], off[1], off[0], coeff) for off, coeff in stencil.taps.items())
        )
        # Coefficient groups (symmetry shells) in deterministic order, for
        # the grouped-sum (associative reordering) lowering.
        groups: dict = {}
        for ok, oj, oi, coeff in self.taps:
            groups.setdefault(coeff.key(), (coeff, []))[1].append((ok, oj, oi))
        self.coeff_groups = [groups[k] for k in sorted(groups)]
        #: Vector registers holding input row ``(k, j)`` shifted by ``oi``
        #: lanes (``oi == 0``: the aligned loads), and the halo vectors.
        self._rows: Dict[Tuple[int, int, int], List[str]] = {}
        self._halo: Dict[Tuple[int, int, str], str] = {}
        self._uniq = count(1)

    # ---- helpers ---------------------------------------------------------
    def _program(self, strategy: str) -> VectorProgram:
        return VectorProgram(
            ops=self.ops,
            tile=(self.bk, self.bj, self.bi),
            radius=self.r,
            vl=self.vl,
            strategy=strategy,
            meta={
                "stencil": self.stencil.description(),
                "points": self.stencil.points,
            },
        )

    def _accs(self, k: int, j: int) -> List[str]:
        """The accumulator of each vector of output row (k, j)."""
        return [f"acc_{k}_{j}_{v}" for v in range(self.nvec)]

    def _halo_reg(self, k: int, j: int, side: str) -> str:
        """Partial halo vector left/right of row (k, j), cached."""
        key = (k, j, side)
        if key not in self._halo:
            reg = f"halo_{side}_{k}_{j}"
            a = -1 if side == "L" else self.nvec
            self.vl_fields.append((len(self.ops), a, 0))
            self.ops.append(Load(reg, k, j, a * self.vl, "halo"))
            self._halo[key] = reg
        return self._halo[key]

    def _shifted_row(self, k: int, j: int, oi: int) -> List[str]:
        """Row (k, j) shifted by ``oi`` lanes, cached.

        ``oi == 0`` is the row's aligned vector loads; any other shift
        is built from them (and a halo vector) by lane shuffles.
        """
        regs = self._rows.get((k, j, oi))
        if regs is not None:
            return regs
        nvec, vl = self.nvec, self.vl
        if oi == 0:
            regs = [f"row_{k}_{j}_v{v}" for v in range(nvec)]
            at = len(self.ops)
            self.vl_fields.extend((at + v, v, 0) for v in range(1, nvec))
            self.ops.extend(
                map(Load, regs, repeat(k), repeat(j), range(0, nvec * vl, vl),
                    repeat("aligned"))
            )
        else:
            raw = self._shifted_row(k, j, 0)
            regs = [f"sh_{k}_{j}_{oi}_v{v}" for v in range(nvec)]
            if oi > 0:  # the last vector shifts in the right halo
                self.ops.extend(map(Shift, regs, raw, raw[1:], repeat(oi)))
                self.ops.append(
                    Shift(regs[-1], raw[-1], self._halo_reg(k, j, "R"), oi)
                )
            else:  # the first vector shifts in the left halo
                los = [self._halo_reg(k, j, "L"), *raw[:-1]]
                at = len(self.ops)
                self.vl_fields.extend((at + v, 1, oi) for v in range(nvec))
                self.ops.extend(map(Shift, regs, los, raw, repeat(vl + oi)))
        self._rows[(k, j, oi)] = regs
        return regs

    def _accumulate_grouped(self, acc: str, regs_by_group) -> None:
        """Sum each coefficient group, then one Mac per group.

        This is BrickLib's associative reordering: ``points - groups``
        adds plus ``groups`` FMAs per output vector instead of one FMA
        per tap (compare the grouped expressions in paper Figure 2).
        """
        append, uniq = self.ops.append, self._uniq
        for coeff, regs in regs_by_group:
            total = regs[0]
            for reg in regs[1:]:
                tmp = f"s.{next(uniq)}"
                append(Add(tmp, total, reg))
                total = tmp
            append(Mac(acc, total, coeff))

    # ---- strategies ------------------------------------------------------
    def naive(self) -> VectorProgram:
        """One (possibly unaligned) load per tap per output vector.

        This is what the compiler sees for the plain tiled-array kernel:
        no cross-tap reuse, every neighbour access its own global read.
        """
        ops, vl, uniq, fields = self.ops, self.vl, self._uniq, self.vl_fields
        groups = [
            (coeff, [(ok, oj, oi, "unaligned" if oi % vl else "aligned")
                     for ok, oj, oi in offs])
            for coeff, offs in self.coeff_groups
        ]
        for k in range(self.bk):
            for j in range(self.bj):
                for v, acc in enumerate(self._accs(k, j)):
                    ops.append(Init(acc))
                    regs_by_group = []
                    for coeff, taps in groups:
                        regs = []
                        for ok, oj, oi, kind in taps:
                            tmp = f"t.{next(uniq)}"
                            if v:
                                fields.append((len(ops), v, oi))
                            ops.append(Load(tmp, k + ok, j + oj, v * vl + oi, kind))
                            regs.append(tmp)
                        regs_by_group.append((coeff, regs))
                    self._accumulate_grouped(acc, regs_by_group)
                    ops.append(Store(acc, k, j, v))
        return self._program("naive")

    def gather(self, reuse: bool = True) -> VectorProgram:
        """Per-output gathering with (optional) reuse buffers."""
        ops, row = self.ops, self._shifted_row
        for k in range(self.bk):
            for j in range(self.bj):
                if not reuse:
                    self._rows.clear()
                    self._halo.clear()
                accs = self._accs(k, j)
                ops.extend(map(Init, accs))
                # Resolve each tap's shifted row once, then accumulate by
                # coefficient group per vector.
                shifted_for = {
                    (ok, oj, oi): row(k + ok, j + oj, oi)
                    for ok, oj, oi, _ in self.taps
                }
                for v, acc in enumerate(accs):
                    self._accumulate_grouped(acc, [
                        (coeff, [shifted_for[off][v] for off in offs])
                        for coeff, offs in self.coeff_groups
                    ])
                ops.extend(map(Store, accs, repeat(k), repeat(j), range(self.nvec)))
        return self._program("gather")

    def scatter(self) -> VectorProgram:
        """Walk input rows once; scatter each into all using accumulators."""
        ops, row, r = self.ops, self._shifted_row, self.r
        accs = {(k, j): self._accs(k, j) for k in range(self.bk) for j in range(self.bj)}
        for regs in accs.values():
            ops.extend(map(Init, regs))
        # Taps by the output row they reach from an input row, in tap order.
        by_row: Dict[Tuple[int, int], List[tuple]] = {}
        for ok, oj, oi, coeff in self.taps:
            by_row.setdefault((ok, oj), []).append((oi, coeff))
        for k in range(-r, self.bk + r):
            for j in range(-r, self.bj + r):
                for (ok, oj), row_taps in by_row.items():
                    out = accs.get((k - ok, j - oj))
                    if out is not None:
                        for oi, coeff in row_taps:
                            ops.extend(map(Mac, out, row(k, j, oi), repeat(coeff)))
        for (k, j), regs in accs.items():
            ops.extend(map(Store, regs, repeat(k), repeat(j), range(self.nvec)))
        return self._program("scatter")
