"""Batch-vectorised analytic simulator: a sweep matrix as array ops.

:func:`simulate_batch` evaluates a whole (stencil x platform x variant
x tile x domain) matrix without running a Python loop of scalar
:func:`~repro.gpu.simulator.simulate` calls.  Per-group work runs once
per group and per-point work runs as array ops or one tight loop:

1. **group resolution** — points sharing a (stencil signature, tile,
   vector length, strategy, platform, variant) share one ``_Group``:
   its program, its cost, the normalised FLOPs per point and every
   per-group scalar of the formulas.  Costs are memoised beside the
   codegen memo (``codegen.generator.COST_MEMO``, emptied by
   ``clear_codegen_memo()``), so ``cost_of`` runs once per program per
   process, not once per call.  The domain axis — the axis a 100k-point
   sweep actually multiplies — adds *no* groups;
2. **tile check** — one ``int64`` domain array per chunk is checked
   against every point's tile as a single ``%`` op; only the flagged
   points build the scalar path's ``SimulationError``;
3. **vectorised evaluation** — the same domain array feeds the traffic
   and timing formulas of :mod:`repro.gpu.traffic` /
   :mod:`repro.gpu.timing`, run as NumPy ``int64``/``float64``
   struct-of-arrays ops that replicate the scalar evaluation order
   *operation for operation*.  Integer quantities stay ``int64``
   (exact), float expressions use the same association order as the
   scalar source, and every per-group scalar with more than one factor
   (bandwidth denominators, occupancy's ``** 0.5``) is computed once per
   group in plain Python — so every result float is bit-identical to
   the scalar path;
4. **assembly** — one loop zips the chunk, its groups and the evaluated
   columns into the same frozen dataclasses the scalar path returns;
   ``ndarray.tolist()`` hands back native Python ``int``/``float``
   objects, so even the *types* of every field match the oracle.

The scalar path stays the bit-checked oracle: the equivalence suite
(``tests/test_batch_equivalence.py``) asserts field-by-field equality
across dispatch modes, and the bench gate re-checks the full 90-point
study against the oracle on every run.

Observability: one ``sweep.batch`` span (with ``dispatch``/``points``/
``groups``/``chunks`` attrs) wraps the evaluation, one ``sweep.chunk``
span per chunk, and the per-point counters (``simulate.calls``,
``simulate.tiles``, ``codegen.vector_ops``, and
``simulate.invariant_violations`` under ``REPRO_VALIDATE``) are bumped
by exactly the amounts a scalar loop over the same points would bump
them.  Per-point ``study.point``/``simulate`` spans are a scalar/pool
feature — at 100k points they *are* the overhead this module removes.

Failure semantics mirror the resilient scalar engine: with
``capture_failures=True`` a point whose resolution, tile or invariant check
fails degrades into the same :class:`~repro.resilience.TaskFailure`
record (same ``error_type``/``message``/``attempts``) that
``parallel_map(..., capture_failures=True)`` would produce for it;
without it, the error of the *earliest* failing point raises, after the
counters of the points a scalar loop would have completed first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.bricks.layout import BrickDims
from repro.codegen.cost import ProgramCost, cost_of
from repro.codegen.generator import COST_MEMO, CodegenOptions, generate, memo_key
from repro.dsl.analysis import FP64_BYTES
from repro.dsl.stencil import Stencil
from repro.errors import SimulationError
from repro.gpu.progmodel import VARIANTS, Platform
from repro.gpu.simulator import (
    VARIANT_CONFIG,
    SimulationResult,
    _validate_enabled,
    tile_for,
)
from repro.gpu.timing import (
    TILE_OVERHEAD_INSTRS,
    TimingBreakdown,
    occupancy_factor,
    shuffle_cycles_for,
)
from repro.gpu.traffic import Traffic, sector_footprint
from repro.obs import counter, gauge, span
from repro.resilience.policy import TaskFailure
from repro.util import ceil_div, dims_to_shape, prod

__all__ = ["DEFAULT_CHUNK", "BatchPoint", "simulate_batch"]

#: Points per vectorised chunk: large enough to amortise the NumPy call
#: overhead, small enough that checkpoint hooks and progress metrics
#: fire at a useful cadence on 100k-point sweeps.
DEFAULT_CHUNK = 16384


@dataclass(frozen=True)
class BatchPoint:
    """One matrix point for :func:`simulate_batch`.

    Mirrors the :func:`~repro.gpu.simulator.simulate` signature:
    ``dims``/``vector_length`` override the architecture's default
    tile/VL (the tuning use case), ``stencil_name`` the display name.
    """

    stencil: Stencil
    variant: str
    platform: Platform
    domain: Tuple[int, int, int] = (512, 512, 512)
    stencil_name: Optional[str] = None
    dims: Optional[BrickDims] = None
    vector_length: Optional[int] = None


@dataclass
class _Group:
    """Everything constant across one (codegen x platform x variant) group.

    Per-group scalars are computed in plain Python with exactly the
    factor grouping of the scalar formulas, so the vectorised pass only
    ever multiplies/divides a per-point array by one finished scalar.
    """

    index: int
    platform: Platform
    cost: ProgramCost
    strategy: str
    ops: int  # len(program.ops), for the codegen.vector_ops counter
    tile_shape: Tuple[int, int, int]
    tile_pts: int
    tile_k: int
    radius: int
    flops_per_point: int  # normalised, as total_flops counts them
    shared_planes: int
    llc_eff: float
    read_amp: float
    write_amp: float
    sec_load: int
    sec_store: int
    sector: int
    hbm_bw: float
    l1_den: float
    flops_pt: int
    fp_den: float
    shuffles: int
    shuf_cyc: float
    shuf_den: float
    instr_pt: int
    issue_den: float
    occ: float
    launch: float


class _GroupTable:
    """Insertion-ordered group cache, shared across chunks of one batch."""

    def __init__(self) -> None:
        self._by_key: Dict[Tuple, _Group] = {}
        self._fast: Dict[Tuple, _Group] = {}
        self.groups: List[_Group] = []

    def __len__(self) -> int:
        return len(self.groups)

    def resolve(self, point: BatchPoint) -> _Group:
        """The group for ``point``, building codegen/cost on first sight.

        Raises exactly what the scalar path would raise for this point
        (unknown variant, codegen validation, ...).

        The fast path keys on object identity — a 100k-point sweep
        reuses a handful of stencil/platform objects, and hashing the
        frozen dataclasses themselves dominates batch time otherwise.
        ``id()`` keys are safe here: ``simulate_batch`` holds the point
        list (and so every stencil/platform) alive for the whole call.
        """
        fast_key = (
            id(point.stencil),
            id(point.platform),
            point.variant,
            point.dims.dims if point.dims is not None else None,
            point.vector_length,
        )
        group = self._fast.get(fast_key)
        if group is not None:
            return group
        group = self._resolve_slow(point)
        self._fast[fast_key] = group
        return group

    def _resolve_slow(self, point: BatchPoint) -> _Group:
        if point.variant not in VARIANTS:
            raise SimulationError(
                f"unknown variant '{point.variant}'; known: {VARIANTS}"
            )
        layout, strategy = VARIANT_CONFIG[point.variant]
        platform = point.platform
        dims = point.dims or tile_for(platform)
        simd = platform.arch.simd_width
        # Custom tiles narrower than the SIMD width fall back to one
        # vector per row (same rule as the scalar path).
        vl = point.vector_length or (
            simd if dims.dims[0] % simd == 0 else dims.dims[0]
        )
        options = CodegenOptions(vl, strategy)
        program_key = memo_key(point.stencil, dims, options)
        key = (program_key, id(platform), point.variant)
        group = self._by_key.get(key)
        if group is None:
            group = self._build(
                point.stencil, layout, program_key, dims, options, platform,
                point.variant,
            )
            self._by_key[key] = group
            self.groups.append(group)
        return group

    def _build(
        self,
        stencil: Stencil,
        layout: str,
        program_key: Tuple,
        dims: BrickDims,
        options: CodegenOptions,
        platform: Platform,
        variant: str,
    ) -> _Group:
        program = generate(stencil, dims, options)
        cost = COST_MEMO.get(program_key)
        if cost is None:
            cost = COST_MEMO[program_key] = cost_of(program)
        arch, profile = platform.arch, platform.profile
        vp = profile.variant(variant)
        r = stencil.radius
        tile_shape = dims.shape
        occ = occupancy_factor(cost.registers, profile.reg_budget)
        pa, pu, ph, ps = sector_footprint(vp, r, cost.vl, arch.sector_bytes)
        mem_instr = cost.loads_total + cost.stores
        if vp.scalarized:
            mem_instr *= cost.vl * vp.scalarized_slots
        return _Group(
            index=len(self.groups),
            platform=platform,
            cost=cost,
            strategy=program.strategy,
            ops=len(program.ops),
            tile_shape=tile_shape,
            tile_pts=prod(tile_shape),
            tile_k=tile_shape[0],
            radius=r,
            flops_per_point=stencil.flops_per_point(minimal=True),
            shared_planes=2 * r if layout == "array" else r,
            llc_eff=arch.llc_bytes * profile.llc_utilization,
            read_amp=vp.read_amp,
            write_amp=vp.write_amp,
            sec_load=(
                cost.loads_aligned * pa
                + cost.loads_unaligned * pu
                + cost.loads_halo * ph
            ),
            sec_store=cost.stores * ps,
            sector=arch.sector_bytes,
            hbm_bw=arch.hbm_bw * profile.mixbench_bw_frac * vp.bw_frac * occ,
            l1_den=arch.l1_bw * vp.l1_frac * occ,
            flops_pt=cost.flops,
            fp_den=arch.peak_fp64 * profile.mixbench_fp_frac * vp.fp_eff,
            shuffles=cost.shuffles,
            shuf_cyc=shuffle_cycles_for(arch.vendor),
            shuf_den=arch.num_cus * arch.clock_ghz * 1e9,
            instr_pt=mem_instr + TILE_OVERHEAD_INSTRS,
            issue_den=arch.issue_rate * vp.issue_eff * occ,
            occ=occ,
            launch=profile.launch_overhead_s,
        )


def _evaluate(gidx: np.ndarray, dom: np.ndarray, table: _GroupTable) -> List[list]:
    """Vectorised traffic + timing over the evaluable chunk points.

    ``gidx`` holds each point's group index and ``dom`` its ``(ni, nj,
    nk)`` domain.  Returns one column per field, in the positional order
    of ``Traffic``, then ``TimingBreakdown``, then ``ntiles`` and
    ``flops``.  Every expression below replicates the association order
    of ``traffic._estimate`` / ``timing.kernel_time`` exactly; see the
    module docstring for why that makes the floats bit-identical.
    """
    i64, f64 = np.int64, np.float64
    all_groups = table.groups

    def take(field: str, dtype: type = i64) -> np.ndarray:
        return np.array(
            [getattr(g, field) for g in all_groups], dtype=dtype
        )[gidx]

    ni, nj, nk = dom[:, 0], dom[:, 1], dom[:, 2]
    n = ni * nj * nk
    r = take("radius")
    ntiles = n // take("tile_pts")

    # ---- HBM (traffic._estimate order) --------------------------------
    write = (n * FP64_BYTES) * take("write_amp", f64)
    compulsory = (ni + 2 * r) * (nj + 2 * r) * (nk + 2 * r) * FP64_BYTES
    shared = take("shared_planes")
    working_set = ni * nj * shared * FP64_BYTES
    llc = take("llc_eff", f64)
    miss_fraction = (working_set - llc) / working_set
    extra = np.where(
        working_set <= llc,
        0.0,
        miss_fraction * (shared / take("tile_k")) * n * FP64_BYTES,
    )
    read = (compulsory + extra) * take("read_amp", f64)

    # ---- L1 ------------------------------------------------------------
    load_sectors = ntiles * take("sec_load")
    store_sectors = ntiles * take("sec_store")
    l1_bytes = (load_sectors + store_sectors) * take("sector")

    # ---- timing (timing.kernel_time order) -----------------------------
    hbm_total = read + write
    t_hbm = hbm_total / take("hbm_bw", f64)
    t_l1 = l1_bytes / take("l1_den", f64)
    t_fp = (take("flops_pt") * ntiles) / take("fp_den", f64)
    t_shuffle = (
        take("shuffles") * ntiles * take("shuf_cyc", f64)
    ) / take("shuf_den", f64)
    t_issue = (ntiles * take("instr_pt")) / take("issue_den", f64)

    columns = (
        read, write, l1_bytes, load_sectors, store_sectors, extra,
        t_hbm, t_l1, t_fp, t_shuffle, t_issue,
        ntiles, n * take("flops_per_point"),
    )
    return [col.tolist() for col in columns]


def _failure(exc: Exception) -> TaskFailure:
    """The TaskFailure a resilient scalar run would record for ``exc``."""
    return TaskFailure(
        error_type=type(exc).__name__,
        message=str(exc),
        attempts=getattr(exc, "attempts", 1),
        timed_out=False,
    )


def _run_chunk(
    chunk: Sequence[BatchPoint],
    table: _GroupTable,
    validate: bool,
    capture: bool,
) -> List[Any]:
    """One chunk: resolve, check tiles, vectorise, assemble, validate, count."""
    groups: List[Optional[_Group]] = []
    errors: List[Optional[Exception]] = []
    for point in chunk:
        try:
            groups.append(table.resolve(point))
            errors.append(None)
        except Exception as exc:
            groups.append(None)
            errors.append(exc)

    rows: Iterator[tuple] = iter(())
    resolved = [i for i, g in enumerate(groups) if g is not None]
    if resolved:
        gidx = np.array([g.index for g in groups if g is not None], dtype=np.int64)
        dom = np.array([chunk[i].domain for i in resolved], dtype=np.int64)
        shapes = np.array([g.tile_shape for g in table.groups], dtype=np.int64)
        bad = (dom % shapes[gidx, ::-1]).any(axis=1)
        if bad.any():
            for j in np.flatnonzero(bad).tolist():
                i = resolved[j]
                errors[i] = SimulationError(
                    f"domain {dims_to_shape(chunk[i].domain)} is not a "
                    f"multiple of tile {table.groups[gidx[j]].tile_shape}"
                )
            gidx, dom = gidx[~bad], dom[~bad]
        rows = zip(*_evaluate(gidx, dom, table))

    if validate:
        # Imported lazily: repro.validate reaches back into the harness
        # for its probes, so a module-level import cycles (same rule as
        # the scalar path).
        from repro.errors import ValidationError
        from repro.validate import check_result, render_violations

    out: List[Any] = []
    calls = tiles = vector_ops = violation_count = 0

    def flush() -> None:
        if calls:
            counter("simulate.calls").inc(calls)
            counter("simulate.tiles").inc(tiles)
            counter("codegen.vector_ops").inc(vector_ops)
        if violation_count:
            counter("simulate.invariant_violations").inc(violation_count)

    for point, group, error in zip(chunk, groups, errors):
        if error is None:
            assert group is not None
            (
                read, write, l1_bytes, load_sectors, store_sectors, extra,
                t_hbm, t_l1, t_fp, t_shuffle, t_issue, ntiles, flops,
            ) = next(rows)
            name = point.stencil_name or point.stencil.description()
            result = SimulationResult(
                group.platform,
                point.variant,
                name,
                point.domain,
                flops,
                Traffic(
                    read, write, l1_bytes, load_sectors, store_sectors, extra
                ),
                TimingBreakdown(
                    t_hbm, t_l1, t_fp, t_shuffle, t_issue,
                    group.launch, group.occ,
                ),
                group.cost,
                group.strategy,
            )
            # The scalar path bumps these before its invariant check, so
            # a violating point still counts a simulate() call.
            calls += 1
            tiles += ntiles
            vector_ops += group.ops
            if validate:
                violations = check_result(result)
                if violations:
                    violation_count += len(violations)
                    error = ValidationError(
                        f"{len(violations)} invariant violation(s) for "
                        f"{name}/{group.platform.name}/{point.variant}:\n"
                        + render_violations(violations)
                    )
            if error is None:
                out.append(result)
                continue
        if capture:
            out.append(_failure(error))
            continue
        # Raise semantics: a scalar loop completes every point before
        # the first failing one — their counters are already summed.
        flush()
        raise error
    flush()
    return out


def simulate_batch(
    points: Sequence[BatchPoint],
    *,
    check_invariants: Optional[bool] = None,
    capture_failures: bool = False,
    chunk_size: int = DEFAULT_CHUNK,
    on_result: Optional[Callable[[int, Any], None]] = None,
    dispatch: str = "vectorized",
) -> List[Any]:
    """Simulate a matrix of points; bit-identical to a scalar loop.

    Returns one entry per input point, in input order: a
    :class:`~repro.gpu.simulator.SimulationResult`, or (with
    ``capture_failures=True``) a :class:`~repro.resilience.TaskFailure`
    carrying the same error a resilient scalar run would record.
    Without ``capture_failures`` the earliest failing point's exception
    raises, exactly like a scalar loop at that point.

    ``check_invariants`` mirrors :func:`~repro.gpu.simulator.simulate`
    (``None`` defers to ``REPRO_VALIDATE``); ``on_result`` is called as
    ``(index, result)`` in input order as each chunk completes — the
    checkpoint hook; ``dispatch`` labels the ``sweep.batch`` span with
    the dispatch mode that routed here.

    Retry policies do not apply inside the batch: the evaluation is
    deterministic pure math, so a transient fault can only come from the
    environment — points carrying injected fault specs are routed
    through the scalar engine by
    :func:`repro.exec.dispatch.map_study_points` instead.
    """
    points = list(points)
    validate = _validate_enabled(check_invariants)
    table = _GroupTable()
    chunk_size = max(1, chunk_size)
    nchunks = ceil_div(len(points), chunk_size) if points else 0
    results: List[Any] = []
    with span(
        "sweep.batch",
        points=len(points),
        dispatch=dispatch,
        chunks=nchunks,
    ) as sp:
        for start in range(0, len(points), chunk_size):
            chunk = points[start:start + chunk_size]
            with span("sweep.chunk", n=len(chunk), offset=start):
                chunk_out = _run_chunk(chunk, table, validate, capture_failures)
            for i, result in enumerate(chunk_out):
                results.append(result)
                if on_result is not None:
                    on_result(start + i, result)
        if sp is not None:
            sp.set_attr("groups", len(table))
        counter("sweep.batch.points").inc(len(points))
        counter("sweep.batch.chunks").inc(nchunks)
        gauge("sweep.batch.groups").set(len(table))
    return results
