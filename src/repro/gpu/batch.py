"""Batch-vectorised analytic simulator: a sweep matrix as array ops.

:func:`simulate_batch` evaluates a whole (stencil x platform x variant
x tile x domain) matrix without running a Python loop of scalar
:func:`~repro.gpu.simulator.simulate` calls.  Per-group work runs once
per group and per-point work runs as array ops:

1. **keyed group resolution** — points sharing a (stencil signature,
   tile, vector length, strategy, platform, variant) share one
   ``_Group``: its program, its cost, the normalised FLOPs per tile
   and the traffic and timing models' per-group records.  Each chunk
   builds one ``(id(stencil), id(platform), variant, dims,
   vector_length)`` key per point (one list comprehension over the slotted
   :class:`BatchPoint` objects) and looks every key up in one C-level
   ``np.fromiter(map(dict.get, ...))`` loop; only a miss pays the full
   resolution (variant check, tile/VL defaults, codegen memo key).
   Costs are memoised beside the codegen memo
   (``codegen.generator.COST_MEMO``, emptied by
   ``clear_codegen_memo()``), so ``cost_of`` runs once per program per
   process, not once per call.  The domain axis — the axis a 100k-point
   sweep actually multiplies — adds *no* groups;
2. **domain and tile checks** — one more pass reads the chunk's
   ``domain`` tuples, and one C-level ``starmap`` of a ``struct`` packer
   turns them into a single ``int64`` array, rejecting any extent that
   is not an integer and any domain that is not three long; one array
   test rejects extents below one and one more domains past
   :data:`~repro.gpu.simulator.MAX_DOMAIN_POINTS`.  A chunk failing a
   check is rescanned point by point, so only its bad points fail (with the
   :class:`~repro.errors.SimulationError` scalar ``simulate`` raises).
   The array is then checked against every point's tile as a single
   ``%`` op; only the flagged points build the scalar path's
   ``SimulationError``;
3. **vectorised evaluation** — the same domain array, with each
   group's records gathered per point, goes to the array formulas of
   :mod:`repro.gpu.traffic` (:func:`~repro.gpu.traffic.traffic_columns`)
   and :mod:`repro.gpu.timing`
   (:func:`~repro.gpu.timing.timing_columns`).  These are the formulas
   scalar ``simulate`` evaluates for its one row, looked up through
   their modules at call time, so the engines cannot drift and a
   patched model reaches both;
4. **columnar results** — the call returns a :class:`BatchResults`
   sequence holding the 13 evaluated columns as NumPy arrays plus each
   point's row, group and failure record.  A
   :class:`~repro.gpu.simulator.SimulationResult` (and its ``Traffic``
   / ``TimingBreakdown``) is built only when an entry is read, through
   ``__getitem__`` or ``__iter__``, which gather the columns for the
   entries read and hand back native Python ``int``/``float`` objects
   through ``tolist()``, so even the *types* of every built field match
   the oracle.  A sweep that reads a few points pays for a few
   objects, not for 100k.

Three paths still build results point by point, because their contract
is per point: invariant validation, the ``on_result`` hook (fired in
input order as each chunk completes) and the raise-on-earliest-failure
path.

This is the one engine every analytic sweep runs on: the study
(:func:`repro.harness.run_study`), the serving layer's micro-batches and
the autotuner.  The equivalence suite
(``tests/test_batch_equivalence.py``) checks the batch's driver —
grouping, chunking, failure capture, result assembly — field by field
against a scalar loop; the model itself is checked against golden
outputs, hand-derived closed forms (``tests/test_model_once.py``) and
the LRU-replay invariant of :mod:`repro.validate`.

Observability: one ``sweep.batch`` span (with ``points``/``groups``/
``chunks`` attrs) wraps the evaluation, one ``sweep.chunk`` span per
chunk, and the per-point counters (``simulate.calls``,
``simulate.tiles``, ``codegen.vector_ops``) are bumped once per chunk,
by array sums equal to the amounts a scalar loop over the same points
would bump them; ``simulate.invariant_violations`` (under
``REPRO_VALIDATE``) is bumped per failing point, by the check both
engines share.  Per-point ``study.point``/``simulate``
spans belong to the scalar path (a study's fault-injected points) — at
100k points they *are* the overhead this module removes.

Failure semantics mirror the resilient scalar engine: with
``capture_failures=True`` a point whose domain, resolution, tile or
invariant check fails degrades into the same
:class:`~repro.resilience.TaskFailure` record (same
``error_type``/``message``/``attempts``) that
``parallel_map(..., capture_failures=True)`` would produce for it;
without it, the error of the *earliest* failing point raises, after the
counters of the points a scalar loop would have completed first.
"""

from __future__ import annotations

import operator
import struct
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from itertools import repeat, starmap
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.bricks.layout import BrickDims
from repro.codegen.cost import ProgramCost, cost_of
from repro.codegen.generator import COST_MEMO, CodegenOptions, generate, memo_key
from repro.dsl.stencil import Stencil
from repro.errors import SimulationError
from repro.gpu import timing, traffic
from repro.gpu.progmodel import Platform
from repro.gpu.simulator import (
    MAX_DOMAIN_POINTS,
    SimulationResult,
    _validate_enabled,
    check_domain,
    invariant_error,
    point_label,
    tile_and_vl,
    tile_error,
    variant_config,
)
from repro.gpu.timing import TimingBreakdown, TimingGroup
from repro.gpu.traffic import Traffic, TrafficGroup
from repro.obs import counter, gauge, span
from repro.resilience.policy import TaskFailure
from repro.util import ceil_div, prod

__all__ = ["DEFAULT_CHUNK", "BatchPoint", "BatchResults", "simulate_batch"]

#: One entry of a batch: a result, or a captured failure record.
Outcome = Union[SimulationResult, TaskFailure]

#: Points per vectorised chunk: large enough to amortise the NumPy call
#: overhead, small enough that checkpoint hooks and progress metrics
#: fire at a useful cadence on 100k-point sweeps.
DEFAULT_CHUNK = 16384

#: Position of the tile-count column among the evaluated columns.
_NTILES = 11


@dataclass(frozen=True, slots=True)
class BatchPoint:
    """One matrix point for :func:`simulate_batch`.

    Mirrors the :func:`~repro.gpu.simulator.simulate` signature:
    ``dims``/``vector_length`` override the architecture's default
    tile/VL (the tuning use case), ``stencil_name`` the display name.
    Slotted: a 100k-point matrix holds no per-point ``__dict__``, and
    the engine's per-point attribute reads stay cheap.  Nothing is
    checked here; a bad ``domain`` fails in :func:`simulate_batch`.
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

    ``traffic`` and ``timing`` are the model's own per-group records,
    built by :func:`repro.gpu.traffic.traffic_group` and
    :func:`repro.gpu.timing.timing_group`.
    """

    index: int
    platform: Platform
    cost: ProgramCost
    strategy: str
    ops: int  # len(program.ops), for the codegen.vector_ops counter
    tile_shape: Tuple[int, int, int]
    tile_dims: Tuple[int, int, int]  # tile_shape in domain order (ni, nj, nk)
    flops_per_tile: int  # normalised, as total_flops counts them
    traffic: TrafficGroup
    timing: TimingGroup


class _GroupTable:
    """Insertion-ordered group cache, shared across chunks of one batch."""

    def __init__(self) -> None:
        self._by_key: Dict[Tuple, _Group] = {}
        self._fast: Dict[Tuple, int] = {}
        self._columns: Dict[Any, Any] = {}
        self.groups: List[_Group] = []

    def __len__(self) -> int:
        return len(self.groups)

    def column(self, field: str) -> np.ndarray:
        """One per-group field as an array indexed by group index.

        Built once per field until the next new group, not once per
        chunk and field.
        """
        col = self._columns.get(field)
        if col is None:
            col = self._columns[field] = np.array(
                [getattr(g, field) for g in self.groups]
            )
        return col

    def gather(self, record: str, gidx: np.ndarray) -> Any:
        """The ``traffic`` or ``timing`` record of each point in ``gidx``.

        One record of arrays indexed by point, which the model's array
        formulas take in place of one group's scalars.
        """
        columns = self._columns.get(record)
        if columns is None:
            rows = [getattr(g, record) for g in self.groups]
            columns = self._columns[record] = type(rows[0])._make(
                map(np.array, zip(*rows))
            )
        return columns._make(col[gidx] for col in columns)

    def resolve_chunk(
        self, chunk: Sequence[BatchPoint]
    ) -> Tuple[np.ndarray, Dict[int, Exception]]:
        """Each point's group index (``-1`` where resolution raised).

        Returns the indices and the errors by chunk position; an error
        is exactly what the scalar path would raise for that point
        (unknown variant, codegen validation, ...).

        Points are keyed on object identity — a 100k-point sweep reuses
        a handful of stencil/platform objects, and hashing the frozen
        dataclasses themselves dominates batch time otherwise.  ``id()``
        keys are safe here: ``simulate_batch`` holds the point list (and
        so every stencil/platform) alive for the whole call.  The key
        lookups run in one C-level ``np.fromiter`` loop; only a miss
        runs :meth:`_resolve`.
        """
        keys = [
            (
                id(p.stencil),
                id(p.platform),
                p.variant,
                None if p.dims is None else p.dims.dims,
                p.vector_length,
            )
            for p in chunk
        ]
        fast = self._fast
        gidx = np.fromiter(map(fast.get, keys, repeat(-1)), np.int64, len(keys))
        errors: Dict[int, Exception] = {}
        for i in np.flatnonzero(gidx < 0).tolist():
            key = keys[i]
            try:
                if key not in fast:
                    fast[key] = self._resolve(chunk[i]).index
                gidx[i] = fast[key]
            except Exception as exc:
                errors[i] = exc
        return gidx, errors

    def _resolve(self, point: BatchPoint) -> _Group:
        layout, strategy = variant_config(point.variant)
        stencil, platform = point.stencil, point.platform
        dims, vl = tile_and_vl(platform, point.dims, point.vector_length)
        options = CodegenOptions(vl, strategy)
        program_key = memo_key(stencil, dims, options)
        key = (program_key, id(platform), point.variant)
        group = self._by_key.get(key)
        if group is None:
            program = generate(stencil, dims, options)
            cost = COST_MEMO.get(program_key)
            if cost is None:
                cost = COST_MEMO[program_key] = cost_of(program)
            arch, profile = platform.arch, platform.profile
            vp = profile.variant(point.variant)
            group = self._by_key[key] = _Group(
                index=len(self.groups),
                platform=platform,
                cost=cost,
                strategy=program.strategy,
                ops=len(program.ops),
                tile_shape=dims.shape,
                tile_dims=dims.dims,
                flops_per_tile=prod(dims.shape) * stencil.flops_per_point(minimal=True),
                traffic=traffic.traffic_group(
                    stencil.radius, layout, cost, arch, profile, vp, dims.shape
                ),
                timing=timing.timing_group(arch, profile, vp, cost),
            )
            self.groups.append(group)
            self._columns.clear()
        return group


def _evaluate(
    gidx: np.ndarray, dom: np.ndarray, table: _GroupTable
) -> List[np.ndarray]:
    """The model's array formulas over the evaluable chunk points.

    ``gidx`` holds each point's group index and ``dom`` its ``(ni, nj,
    nk)`` domain.  Returns one array per field, in the positional order
    of ``Traffic``, then ``TimingBreakdown``, then ``ntiles`` (column
    ``_NTILES``) and ``flops``.
    """
    *moved, ntiles = traffic.traffic_columns(table.gather("traffic", gidx), dom)
    times = timing.timing_columns(
        table.gather("timing", gidx), moved[0], moved[1], moved[2], ntiles
    )
    flops = ntiles * table.column("flops_per_tile")[gidx]
    return [*moved, *times, ntiles, flops]


def _failure(exc: Exception) -> TaskFailure:
    """The TaskFailure a resilient scalar run would record for ``exc``."""
    return TaskFailure(
        error_type=type(exc).__name__,
        message=str(exc),
        attempts=getattr(exc, "attempts", 1),
        timed_out=False,
    )


def _make_result(
    point: BatchPoint, group: _Group, row: Sequence[Any]
) -> SimulationResult:
    """One point's result from its evaluated column values (native types)."""
    (
        read, write, l1_bytes, load_sectors, store_sectors, extra,
        t_hbm, t_l1, t_fp, t_shuffle, t_issue, _ntiles, flops,
    ) = row
    return SimulationResult(
        group.platform,
        point.variant,
        point.stencil_name or point.stencil.description(),
        point.domain,
        flops,
        Traffic(read, write, l1_bytes, load_sectors, store_sectors, extra),
        TimingBreakdown(
            t_hbm, t_l1, t_fp, t_shuffle, t_issue,
            group.timing.launch, group.timing.occupancy,
        ),
        group.cost,
        group.strategy,
    )


def _rows(n: int, evaluated: np.ndarray) -> np.ndarray:
    """Each point's row in the evaluated columns; ``-1`` for the rest."""
    rows = np.full(n, -1, dtype=np.int64)
    rows[evaluated] = np.arange(evaluated.size, dtype=np.int64)
    return rows


class BatchResults(SequenceABC):
    """The outcome of :func:`simulate_batch`, kept as columns.

    A read-only sequence with one entry per input point, in input order:
    a :class:`~repro.gpu.simulator.SimulationResult`, or the
    :class:`~repro.resilience.TaskFailure` captured for that point.
    Results are built only when read — ``results[i]``, a slice (a list)
    or iteration — from the evaluated NumPy columns, so every built
    object equals, field for field and type for type, what scalar
    :func:`~repro.gpu.simulator.simulate` returns.  Building the same
    entry twice gives two equal objects, not one shared object.  It
    compares equal to any list, tuple or ``BatchResults`` holding equal
    entries.
    """

    __slots__ = ("_points", "_groups", "_group", "_row", "_columns", "_failures")

    def __init__(
        self,
        points: Sequence[BatchPoint],
        groups: Sequence[_Group],
        group: np.ndarray,
        row: np.ndarray,
        columns: Sequence[np.ndarray],
        failures: Dict[int, TaskFailure],
    ) -> None:
        self._points = points
        self._groups = groups
        self._group = group
        self._row = row
        self._columns = columns
        self._failures = failures

    def __len__(self) -> int:
        return len(self._points)

    def __getitem__(self, index):
        n = len(self)
        if isinstance(index, slice):
            return list(self._entries(np.arange(n)[index]))
        i = operator.index(index)
        if not -n <= i < n:
            raise IndexError(f"batch index {index} out of range for {n} points")
        return next(self._entries(np.array([i % n])))

    def __iter__(self) -> Iterator[Outcome]:
        return self._entries(np.arange(len(self)))

    def _entries(self, idx: np.ndarray) -> Iterator[Outcome]:
        """Build the entries at positions ``idx``, in that order.

        Each column is read for all of ``idx`` at once and handed back
        as native Python numbers by ``tolist()``.
        """
        rows = self._row[idx]
        live: Any = rows[rows >= 0]
        # ``idx`` is monotonic (a slice, or one index) and rows grow with
        # position, so rows spanning exactly ``live.size`` values form one
        # block: read it as a view instead of gathering.
        if live.size and live[-1] - live[0] == live.size - 1:
            live = slice(live[0], live[-1] + 1)
        values = zip(*(col[live].tolist() for col in self._columns))
        points, groups, failures = self._points, self._groups, self._failures
        for i, g, r in zip(idx.tolist(), self._group[idx].tolist(), rows.tolist()):
            # A point failing its invariant check has a row but no result.
            row = next(values) if r >= 0 else None
            failure = failures.get(i)
            yield (
                failure if failure is not None
                else _make_result(points[i], groups[g], row)
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (BatchResults, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other)
        )


def _point_name(point: BatchPoint) -> str:
    """How a failure message names ``point``, as scalar ``simulate`` does."""
    name = point.stencil_name or point.stencil.description()
    return point_label(name, point.platform, point.variant)


#: One domain as three native ``int64`` extents.  Packing takes
#: integers only (``operator.index``): a ``str`` or ``float`` extent, one
#: past ``int64``, or a domain that is not three long raises
#: ``struct.error``.
_DOMAIN = struct.Struct("3q")


def _domains(
    chunk: Sequence[BatchPoint], errors: Dict[int, Exception]
) -> np.ndarray:
    """Every point's domain as one ``(n, 3)`` ``int64`` array.

    One pass reads the domains and one C-level ``starmap`` packs them
    into a buffer, which rejects non-integer extents and wrong lengths;
    array checks reject extents below one and domains past
    :data:`~repro.gpu.simulator.MAX_DOMAIN_POINTS` (a ``float64``
    product: rounding is monotonic and the bound is a power of two, so
    it compares exactly).  Only a chunk that fails
    is scanned point by point, so its other points still evaluate: a bad
    point gets :func:`~repro.gpu.simulator.check_domain`'s error in
    ``errors`` (replacing any resolution error, as scalar ``simulate``
    checks the domain first) and a placeholder row.
    """
    doms = [p.domain for p in chunk]
    try:
        dom = np.frombuffer(
            b"".join(starmap(_DOMAIN.pack, doms)), np.int64
        ).reshape(len(doms), 3)
        f = dom.astype(np.float64)
        if (dom > 0).all() and (f[:, 0] * f[:, 1] * f[:, 2] <= MAX_DOMAIN_POINTS).all():
            return dom
    except (struct.error, TypeError):
        pass
    dom = np.ones((len(doms), 3), dtype=np.int64)
    for i, point in enumerate(chunk):
        try:
            dom[i] = check_domain(point.domain, _point_name(point))
        except SimulationError as exc:
            errors[i] = exc
    return dom


def _run_chunk(
    chunk: Sequence[BatchPoint],
    table: _GroupTable,
    validate: bool,
    capture: bool,
) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray], Dict[int, Exception]]:
    """One chunk: resolve, check domains and tiles, evaluate, validate, count.

    Returns each point's group index (``-1`` where the point failed
    before its tile check), the chunk positions of the evaluated
    points, their columns, and the errors by chunk position.  Without
    ``capture`` the earliest error raises instead, after the counters
    of the points a scalar loop would have completed before it.
    """
    gidx, errors = table.resolve_chunk(chunk)
    dom = _domains(chunk, errors)
    if errors:
        gidx[list(errors)] = -1
        evaluated = np.flatnonzero(gidx >= 0)
        g, dom = gidx[evaluated], dom[evaluated]
    else:
        evaluated = np.arange(len(chunk), dtype=np.int64)
        g = gidx
    columns: List[np.ndarray] = []
    if evaluated.size:
        rem = dom % table.column("tile_dims")[g]
        if rem.any():
            bad = rem.any(axis=1)
            for j in np.flatnonzero(bad).tolist():
                i = int(evaluated[j])
                errors[i] = tile_error(
                    chunk[i].domain, table.groups[g[j]].tile_shape
                )
            keep = ~bad
            evaluated, g, dom = evaluated[keep], g[keep], dom[keep]
        columns = _evaluate(g, dom, table)

    if validate and evaluated.size:
        # Raise semantics stop at the earliest failure found so far.
        limit = len(chunk) if capture or not errors else min(errors)
        values = zip(*(col.tolist() for col in columns))
        for i, row in zip(evaluated.tolist(), values):
            if i > limit:
                break
            point = chunk[i]
            error = invariant_error(
                _make_result(point, table.groups[gidx[i]], row),
                _point_name(point),
            )
            if error is not None:
                errors[i] = error
                if not capture:
                    break

    # A scalar loop completes every point before the earliest failure;
    # a point failing its invariant check still counts its simulate().
    first = min(errors) if errors and not capture else None
    counted = (
        evaluated.size if first is None
        else int(np.searchsorted(evaluated, first, side="right"))
    )
    if counted:
        counter("simulate.calls").inc(counted)
        counter("simulate.tiles").inc(int(columns[_NTILES][:counted].sum()))
        counter("codegen.vector_ops").inc(
            int(table.column("ops")[g[:counted]].sum())
        )
    if first is not None:
        raise errors[first]
    return gidx, evaluated, columns, errors


def simulate_batch(
    points: Sequence[BatchPoint],
    *,
    check_invariants: Optional[bool] = None,
    capture_failures: bool = False,
    chunk_size: int = DEFAULT_CHUNK,
    on_result: Optional[Callable[[int, Outcome], None]] = None,
) -> BatchResults:
    """Simulate a matrix of points; bit-identical to a scalar loop.

    Returns a :class:`BatchResults` sequence with one entry per input
    point, in input order: a
    :class:`~repro.gpu.simulator.SimulationResult`, or (with
    ``capture_failures=True``) a :class:`~repro.resilience.TaskFailure`
    carrying the same error a resilient scalar run would record.
    Entries are built from the evaluated columns only when read.
    Without ``capture_failures`` the earliest failing point's exception
    raises, exactly like a scalar loop at that point.

    ``check_invariants`` mirrors :func:`~repro.gpu.simulator.simulate`
    (``None`` defers to ``REPRO_VALIDATE``); ``on_result`` is called as
    ``(index, result)`` in input order as each chunk completes — the
    checkpoint hook.

    Retry policies do not apply inside the batch: the evaluation is
    deterministic pure math, so a transient fault can only come from the
    environment — :func:`repro.harness.run_study` routes points carrying
    injected fault specs through the scalar engine instead.
    """
    points = list(points)
    validate = _validate_enabled(check_invariants)
    table = _GroupTable()
    chunk_size = max(1, chunk_size)
    nchunks = ceil_div(len(points), chunk_size) if points else 0
    # Seeded with an empty part, so an empty batch concatenates too.
    group_parts = [np.empty(0, dtype=np.int64)]
    evaluated_parts = [np.empty(0, dtype=np.int64)]
    column_parts: List[List[np.ndarray]] = []
    failures: Dict[int, TaskFailure] = {}
    with span(
        "sweep.batch",
        points=len(points),
        chunks=nchunks,
    ) as sp:
        for start in range(0, len(points), chunk_size):
            chunk = points[start:start + chunk_size]
            with span("sweep.chunk", n=len(chunk), offset=start):
                gidx, evaluated, columns, errors = _run_chunk(
                    chunk, table, validate, capture_failures
                )
            captured = {i: _failure(exc) for i, exc in errors.items()}
            group_parts.append(gidx)
            evaluated_parts.append(evaluated + start)
            if evaluated.size:
                column_parts.append(columns)
            failures.update((start + i, f) for i, f in captured.items())
            view = BatchResults(
                chunk, table.groups, gidx,
                _rows(len(chunk), evaluated), columns, captured,
            )
            if on_result is not None:
                for i, result in enumerate(view):
                    on_result(start + i, result)
        if sp is not None:
            sp.set_attr("groups", len(table))
        counter("sweep.batch.points").inc(len(points))
        counter("sweep.batch.chunks").inc(nchunks)
        gauge("sweep.batch.groups").set(len(table))
    if nchunks == 1:
        return view  # small batches skip the concatenation below
    return BatchResults(
        points,
        table.groups,
        np.concatenate(group_parts),
        _rows(len(points), np.concatenate(evaluated_parts)),
        [np.concatenate(parts) for parts in zip(*column_parts)],
        failures,
    )
