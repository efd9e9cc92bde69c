"""Trace-driven set-associative LRU cache simulator.

Used to *validate* the analytic traffic model on scaled-down domains
(the tests feed it real address traces) and by the cache-capacity
ablation benchmark.  Two access paths share one cache state:

* the **scalar** path (:meth:`CacheSim.access` /
  :meth:`CacheSim.access_trace`) — one ``OrderedDict`` operation per
  access, line-granular, true LRU per set, write-allocate optional.
  This is the oracle: every statistic falls straight out of the
  textbook update rule;
* the **vectorized** path (:meth:`CacheSim.access_array`) — batched
  NumPy processing of whole read traces.  It partitions the trace by
  set, compresses consecutive duplicates (unconditional hits), and
  replays the rest in chunks holding at most ``associativity`` distinct
  lines.  Within such a chunk every repeated access is a *guaranteed*
  LRU hit (fewer than ``ways`` distinct lines intervene since the
  previous touch), repeats never change which lines miss or get
  evicted, and no chunk-touched line can be evicted before the chunk
  ends — so only first occurrences need the exact scalar update, with
  one recency reordering at the chunk boundary.  The two paths produce
  bit-identical statistics and final cache state (the cross-check
  tests enforce this).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, List

import numpy as np

from repro.errors import SimulationError
from repro.obs import counter

#: Below this many accesses the batched path's fixed NumPy overhead
#: outweighs the scalar loop; tiny traces just run the oracle.
_VECTOR_MIN = 64

#: Bounds for the adaptive per-set chunking window (accesses).
_VECTOR_MIN_WINDOW = 512
_VECTOR_MAX_WINDOW = 1 << 16

#: Sets with fewer ways than this replay their (deduplicated) stream
#: scalar — tiny chunks cannot amortise the per-chunk array analysis.
_CHUNK_MIN_WAYS = 32


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass
class CacheSim:
    """A set-associative LRU cache over line addresses.

    Parameters
    ----------
    capacity_bytes:
        Total capacity; must be a multiple of ``line_bytes * associativity``.
    line_bytes:
        Line (fill granularity) size.
    associativity:
        Ways per set; ``0`` means fully associative.
    write_allocate:
        Whether stores fetch the line on miss (default True — write-back,
        write-allocate, the common GPU L2 policy).
    vectorize:
        Whether :meth:`access_array` may take the batched NumPy fast
        path for read traces (default True).  ``False`` forces the
        scalar oracle; results are identical either way.
    """

    capacity_bytes: int
    line_bytes: int = 128
    associativity: int = 16
    write_allocate: bool = True
    vectorize: bool = True
    stats: CacheStats = field(default_factory=CacheStats)
    _sets: List[OrderedDict] = field(init=False, repr=False)
    _nsets: int = field(init=False)

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.line_bytes <= 0:
            raise SimulationError("cache capacity and line size must be positive")
        nlines = self.capacity_bytes // self.line_bytes
        if nlines == 0:
            raise SimulationError("cache smaller than one line")
        assoc = self.associativity if self.associativity > 0 else nlines
        if nlines % assoc != 0:
            raise SimulationError(
                f"{nlines} lines not divisible by associativity {assoc}"
            )
        self._nsets = nlines // assoc
        self.associativity = assoc
        self._sets = [OrderedDict() for _ in range(self._nsets)]

    # ---- core access -------------------------------------------------------
    def access(self, line_addr: int, write: bool = False) -> bool:
        """Touch one line address; returns True on hit."""
        s = self._sets[line_addr % self._nsets]
        st = self.stats
        st.accesses += 1
        if line_addr in s:
            st.hits += 1
            s.move_to_end(line_addr)
            if write:
                s[line_addr] = True  # dirty
            return True
        st.misses += 1
        if write and not self.write_allocate:
            st.writebacks += 1  # write-through of the store itself
            return False
        st.fills += 1
        if len(s) >= self.associativity:
            _, dirty = s.popitem(last=False)
            st.evictions += 1
            if dirty:
                st.writebacks += 1
        s[line_addr] = bool(write)
        return False

    def access_trace(self, lines: Iterable[int], write: bool = False) -> int:
        """Touch a sequence of line addresses; returns the miss count.

        Publishes batch deltas to the global ``cache.*`` counters (one
        registry update per trace, keeping the per-access loop clean).
        """
        before_misses = self.stats.misses
        before_hits = self.stats.hits
        before_accesses = self.stats.accesses
        for addr in lines:
            self.access(int(addr), write)
        misses = self.stats.misses - before_misses
        counter("cache.accesses").inc(self.stats.accesses - before_accesses)
        counter("cache.hits").inc(self.stats.hits - before_hits)
        counter("cache.misses").inc(misses)
        return misses

    def access_array(self, lines: np.ndarray, write: bool = False) -> int:
        """Touch a numpy array of line addresses (flattened in order).

        Read traces (``write=False``) on a vectorizing cache take the
        batched fast path; write traces and ``vectorize=False`` caches
        fall back to the scalar loop (iterating the array directly —
        no intermediate Python list).  Returns the miss count and
        publishes the same ``cache.*`` counter deltas as
        :meth:`access_trace`.
        """
        arr = np.asarray(lines).reshape(-1)
        if write or not self.vectorize or arr.size < _VECTOR_MIN:
            return self.access_trace(arr, write)
        st = self.stats
        before_accesses = st.accesses
        before_hits = st.hits
        before_misses = st.misses
        self._trace_vectorized(arr.astype(np.int64, copy=False))
        misses = st.misses - before_misses
        counter("cache.accesses").inc(st.accesses - before_accesses)
        counter("cache.hits").inc(st.hits - before_hits)
        counter("cache.misses").inc(misses)
        return misses

    # ---- vectorized read path ----------------------------------------------
    def _trace_vectorized(self, arr: np.ndarray) -> None:
        """Batched read-trace replay: partition by set, run each stream."""
        if arr.size == 0:
            return
        if self._nsets == 1:
            self._run_set_stream(0, arr)
            return
        sets = arr % self._nsets
        order = np.argsort(sets, kind="stable")
        by_set = arr[order]
        counts = np.bincount(sets, minlength=self._nsets)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        for s in np.nonzero(counts)[0].tolist():
            self._run_set_stream(s, by_set[offsets[s]:offsets[s + 1]])

    def _run_set_stream(self, set_idx: int, stream: np.ndarray) -> None:
        """Replay one set's access stream through its LRU state.

        Consecutive duplicates (the same line re-touched with no other
        same-set access in between) are unconditional hits on the MRU
        line and leave the state untouched, so they are counted in
        bulk.  The remainder is processed in chunks holding at most
        ``ways`` distinct lines: only first occurrences run the exact
        scalar update; repeats are guaranteed hits counted in bulk, and
        the chunk's lines are re-ranked by last occurrence afterwards
        so the LRU order matches a scalar replay exactly.
        """
        st = self.stats
        od = self._sets[set_idx]
        cap = self.associativity
        n0 = stream.size
        if n0 > 1:
            keep = np.empty(n0, dtype=bool)
            keep[0] = True
            np.not_equal(stream[1:], stream[:-1], out=keep[1:])
            stream = stream[keep]
        dups = n0 - stream.size
        st.accesses += dups
        st.hits += dups
        if cap < _CHUNK_MIN_WAYS:
            # Too few ways to amortise per-chunk array analysis: replay
            # the deduplicated stream through the inlined scalar update.
            self._replay_reads(od, stream.tolist())
            return
        n = stream.size
        pos = 0
        window = min(max(1024, 2 * cap), _VECTOR_MAX_WINDOW)
        while pos < n:
            w = stream[pos:pos + window]
            wn = w.size
            # One stable value sort yields the whole group analysis:
            # group boundaries in sorted order give each distinct line's
            # first (min, by stability) and last (max) stream position.
            perm = np.argsort(w, kind="stable")
            ws = w[perm]
            diff = ws[1:] != ws[:-1]
            starts = np.empty(wn, dtype=bool)
            starts[0] = True
            starts[1:] = diff
            first_of = perm[starts]  # first position per distinct line
            if first_of.size <= cap:
                cut = wn
                ends = np.empty(wn, dtype=bool)
                ends[-1] = True
                ends[:-1] = diff
                firsts = w[np.sort(first_of)]
                reorder = ws[starts][np.argsort(perm[ends])]
            else:
                # Cut the chunk where the distinct count would exceed the
                # set's capacity, then redo the analysis on the prefix.
                is_first = np.zeros(wn, dtype=bool)
                is_first[first_of] = True
                cut = int(
                    np.searchsorted(np.cumsum(is_first), cap, side="right")
                )
                c = w[:cut]
                perm = np.argsort(c, kind="stable")
                cs = c[perm]
                diff = cs[1:] != cs[:-1]
                starts = np.empty(cut, dtype=bool)
                starts[0] = True
                starts[1:] = diff
                ends = np.empty(cut, dtype=bool)
                ends[-1] = True
                ends[:-1] = diff
                firsts = c[np.sort(perm[starts])]
                reorder = cs[starts][np.argsort(perm[ends])]
            self._replay_reads(od, firsts.tolist())
            repeats = cut - firsts.size
            if repeats:
                st.accesses += repeats
                st.hits += repeats
                move = od.move_to_end
                for a in reorder.tolist():
                    move(a)
            pos += cut
            # Adapt the window: grow while chunks consume it whole, shrink
            # when low reuse makes re-scanning the overlap wasteful.
            if cut == wn:
                window = min(window * 2, _VECTOR_MAX_WINDOW)
            elif cut < wn // 4:
                window = max(window // 2, _VECTOR_MIN_WINDOW)

    def _replay_reads(self, od: OrderedDict, addrs: List[int]) -> None:
        """Exact scalar read replay with hoisted lookups, batched stats.

        Semantically identical to calling :meth:`access` with
        ``write=False`` per address; the statistics land in one batch.
        """
        st = self.stats
        cap = self.associativity
        move = od.move_to_end
        pop = od.popitem
        hits = misses = evictions = writebacks = 0
        for a in addrs:
            if a in od:
                move(a)
                hits += 1
            else:
                misses += 1
                if len(od) >= cap:
                    _, dirty = pop(last=False)
                    evictions += 1
                    if dirty:
                        writebacks += 1
                od[a] = False
        st.accesses += len(addrs)
        st.hits += hits
        st.misses += misses
        st.fills += misses
        st.evictions += evictions
        st.writebacks += writebacks

    def flush(self) -> int:
        """Write back all dirty lines; returns the number written."""
        dirty = 0
        for s in self._sets:
            for _, d in s.items():
                if d:
                    dirty += 1
            s.clear()
        self.stats.writebacks += dirty
        counter("cache.writebacks").inc(dirty)
        return dirty

    # ---- derived ------------------------------------------------------------
    @property
    def miss_bytes(self) -> int:
        """Bytes fetched from the next level so far (line fills)."""
        return self.stats.fills * self.line_bytes

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)


def dense_row_lines(
    base_elem: int, row_elems: int, elem_bytes: int = 8, line_bytes: int = 128
) -> np.ndarray:
    """Line addresses touched by a contiguous row of elements."""
    start = base_elem * elem_bytes
    end = start + row_elems * elem_bytes
    return np.arange(start // line_bytes, (end - 1) // line_bytes + 1)
