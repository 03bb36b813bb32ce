"""Mattson stack-distance analysis for LRU miss curves.

LRU obeys the *stack property* (Mattson et al., 1970): the contents of a
smaller LRU cache are always a subset of a larger one's.  Consequently a
single pass over a trace — recording, for each access, the number of
distinct lines touched since that line's previous access (its *stack
distance*) — yields the complete LRU miss curve at every capacity at once.

The implementation uses the classic Fenwick-tree (binary indexed tree)
formulation: keep each line's last access position, mark positions as live,
and count live positions newer than the line's last access in O(log n).

Three execution paths share that algorithm:

* :class:`StackDistanceMonitor` — the online reference: feed accesses one
  at a time, read the histogram or curve at any point.
* :func:`stack_distance_histogram` / :func:`lru_miss_curve` — the batch
  fast path over a materialized trace: one call into the native
  ``stack_hist_run`` kernel (:mod:`repro.cache._native`), which produces
  the identical histogram 20-50x faster; without a compiler it falls back
  to the online monitor.
* :class:`IncrementalStackMonitor` — the *resumable* fast path: the hash
  table, Fenwick tree, position counter and histogram persist in numpy
  arrays across ``record_trace`` calls, so a monitor that interleaves
  recording with curve reads (the interval-based reconfiguration loop)
  never re-replays its accumulated sub-stream.  Chunks advance the native
  ``stack_hist_chunk`` kernel; growth is amortized by geometric table
  rehashes and position-space compactions that preserve the relative
  order of live markers (the only thing distances read).  Without a
  compiler it degrades to the online monitor — identical results.

This is the algorithmic core of the UMON monitors in :mod:`repro.monitor.umon`
and of the fast exact LRU miss curves used throughout the experiments.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..cache._native import get_kernel
from ..core.misscurve import MissCurve

__all__ = ["StackDistanceMonitor", "IncrementalStackMonitor",
           "lru_miss_curve", "stack_distance_histogram"]


class _Fenwick:
    """Binary indexed tree over access positions (1-based, prefix sums)."""

    def __init__(self, size: int):
        self._tree = np.zeros(size + 1, dtype=np.int64)
        self._size = size

    def add(self, index: int, delta: int) -> None:
        i = index + 1
        while i <= self._size:
            self._tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, index: int) -> int:
        """Sum of entries at positions [0, index]."""
        i = index + 1
        total = 0
        while i > 0:
            total += self._tree[i]
            i -= i & (-i)
        return int(total)


class StackDistanceMonitor:
    """Online stack-distance monitor producing LRU miss curves.

    Feed accesses with :meth:`record`; read the distance histogram or an LRU
    miss curve at any point.  Distances are in *lines* (distinct lines
    accessed since the previous touch), so ``histogram[d]`` accesses hit in
    any LRU cache of more than ``d`` lines.

    Parameters
    ----------
    capacity_hint:
        Expected number of accesses (the position tree grows in chunks of
        this size).  Purely a performance knob.
    """

    def __init__(self, capacity_hint: int = 1 << 16):
        if capacity_hint < 1:
            raise ValueError("capacity_hint must be positive")
        self._chunk = capacity_hint
        self._tree = _Fenwick(capacity_hint)
        self._tree_size = capacity_hint
        self._last_position: dict[int, int] = {}
        self._position = 0
        self._histogram: dict[int, int] = {}
        self.cold_misses = 0

    @property
    def accesses(self) -> int:
        """Total accesses recorded."""
        return self._position

    def _grow(self) -> None:
        new_size = self._tree_size + self._chunk
        new_tree = _Fenwick(new_size)
        # Re-mark currently-live positions (one per tracked line).
        for pos in self._last_position.values():
            new_tree.add(pos, 1)
        self._tree = new_tree
        self._tree_size = new_size

    def record(self, address: int) -> int | None:
        """Record one access; returns its stack distance (None if cold)."""
        if self._position >= self._tree_size:
            self._grow()
        last = self._last_position.get(address)
        if last is None:
            distance = None
            self.cold_misses += 1
        else:
            # Distinct lines touched after `last`: live markers in (last, now).
            newer = (self._tree.prefix_sum(self._position - 1)
                     - self._tree.prefix_sum(last))
            distance = int(newer)
            self._histogram[distance] = self._histogram.get(distance, 0) + 1
            self._tree.add(last, -1)
        self._tree.add(self._position, 1)
        self._last_position[address] = self._position
        self._position += 1
        return distance

    def record_trace(self, trace: Iterable[int]) -> None:
        """Record every access of a trace."""
        for address in trace:
            self.record(int(address))

    def histogram(self, max_distance: int | None = None) -> np.ndarray:
        """Dense stack-distance histogram up to ``max_distance`` (inclusive)."""
        if not self._histogram:
            return np.zeros(0 if max_distance is None else max_distance + 1)
        top = max(self._histogram)
        limit = top if max_distance is None else max_distance
        dense = np.zeros(limit + 1, dtype=float)
        for distance, count in self._histogram.items():
            if distance <= limit:
                dense[distance] += count
        return dense

    def miss_curve(self, sizes: Sequence[float] | None = None) -> MissCurve:
        """The LRU miss curve implied by the recorded distances.

        Misses are absolute counts over the recorded accesses; divide by
        instructions (or use :meth:`MissCurve.scaled`) for MPKI.
        """
        return MissCurve.from_stack_distances(
            self.histogram(), cold_misses=self.cold_misses, sizes=sizes)


class IncrementalStackMonitor:
    """Stateful chunked stack-distance monitor (native state, resumable).

    The incremental counterpart of :func:`stack_distance_histogram`: feed
    the trace in chunks with :meth:`record_trace`, read the histogram at
    any chunk boundary — total work is O(n log n) over the whole stream
    regardless of how often the histogram is read, where the one-shot
    batch path would re-replay everything per read.  Histograms are
    bit-identical to both other paths (enforced by
    ``tests/test_monitors.py``).

    Parameters
    ----------
    capacity_hint:
        Expected total accesses; purely a performance knob (state grows
        geometrically on demand).
    """

    def __init__(self, capacity_hint: int = 1 << 12):
        self._kernel = get_kernel()
        self.accesses = 0
        if self._kernel is None:
            self._online = StackDistanceMonitor(
                capacity_hint=max(1024, capacity_hint))
            return
        self._online = None
        cap = max(64, int(capacity_hint))
        self._tree = np.zeros(cap + 1, dtype=np.int64)
        self._hist = np.zeros(cap + 1, dtype=np.int64)
        tsize = 64
        while tsize < 2 * cap:
            tsize <<= 1
        self._tab_tags = np.zeros(tsize, dtype=np.int64)
        self._tab_vals = np.full(tsize, -1, dtype=np.int64)
        self._pos = np.zeros(1, dtype=np.int64)
        self._live = np.zeros(1, dtype=np.int64)
        self._cold = np.zeros(1, dtype=np.int64)

    @property
    def _cap(self) -> int:
        return int(self._tree.size - 1)

    @property
    def cold_misses(self) -> int:
        """Accesses that never hit at any finite capacity so far."""
        if self._online is not None:
            return self._online.cold_misses
        return int(self._cold[0])

    # -- growth ---------------------------------------------------------- #
    def _ensure_room(self, n: int) -> None:
        """Grow/compact state so one chunk of ``n`` accesses fits."""
        live = int(self._live[0])
        tsize = int(self._tab_tags.size)
        if 2 * (live + n) > tsize:
            new_size = tsize
            while 2 * (live + n) > new_size:
                new_size <<= 1
            new_tags = np.zeros(new_size, dtype=np.int64)
            new_vals = np.full(new_size, -1, dtype=np.int64)
            self._kernel.stack_state_rehash(self._tab_tags, self._tab_vals,
                                            new_tags, new_vals)
            self._tab_tags, self._tab_vals = new_tags, new_vals
        if int(self._pos[0]) + n <= self._cap:
            return
        # Compact positions: relabel live markers 0..live-1 in order.  The
        # relative order of live markers is all the distance computation
        # reads, so this is invisible in the histograms.
        occupied = self._tab_vals >= 0
        vals = self._tab_vals[occupied]
        ranks = np.empty(vals.size, dtype=np.int64)
        ranks[np.argsort(vals, kind="stable")] = np.arange(
            vals.size, dtype=np.int64)
        self._tab_vals[occupied] = ranks
        live = int(vals.size)
        cap = self._cap
        if live + 4 * n > cap:
            # Grow with headroom: a tight fit would force an O(cap) tree
            # rebuild on every subsequent chunk of an interval-sized feed.
            while live + 4 * n > cap:
                cap *= 2
            old_hist = self._hist
            self._hist = np.zeros(cap + 1, dtype=np.int64)
            self._hist[:old_hist.size] = old_hist
            self._tree = np.zeros(cap + 1, dtype=np.int64)
        # Fenwick tree of one live marker at each position 0..live-1.
        idx = np.arange(1, cap + 1, dtype=np.int64)
        low = idx & (-idx)
        self._tree[0] = 0
        self._tree[1:] = (np.minimum(idx, live)
                          - np.minimum(idx - low, live))
        self._pos[0] = live

    # -- recording ------------------------------------------------------- #
    def record_trace(self, trace: Iterable[int]) -> None:
        """Record every access of a chunk (one native-kernel call)."""
        addrs = np.ascontiguousarray(np.asarray(
            trace if isinstance(trace, np.ndarray)
            else np.fromiter((int(a) for a in trace), dtype=np.int64),
            dtype=np.int64))
        if addrs.ndim != 1:
            raise ValueError("trace must be one-dimensional")
        n = int(addrs.size)
        if n == 0:
            return
        self.accesses += n
        if self._online is not None:
            self._online.record_trace(addrs)
            return
        self._ensure_room(n)
        result = self._kernel.stack_hist_chunk(
            addrs, self._tab_tags, self._tab_vals, self._tree,
            self._pos, self._live, self._cold, self._hist)
        if result != 0:
            raise RuntimeError(
                f"incremental stack-distance kernel rejected a chunk "
                f"(code {result}); state sizing bug")

    def record(self, address: int) -> None:
        """Record one access (wraps it as a one-element chunk)."""
        self.record_trace(np.asarray([int(address)], dtype=np.int64))

    # -- reading --------------------------------------------------------- #
    def histogram(self) -> np.ndarray:
        """Dense stack-distance histogram (trailing zeros trimmed)."""
        if self._online is not None:
            return self._online.histogram()
        nonzero = np.nonzero(self._hist)[0]
        top = int(nonzero[-1]) + 1 if nonzero.size else 0
        return self._hist[:top].astype(float)

    def miss_curve(self, sizes: Sequence[float] | None = None) -> MissCurve:
        """The LRU miss curve implied by the recorded distances."""
        return MissCurve.from_stack_distances(
            self.histogram(), cold_misses=self.cold_misses, sizes=sizes)


def stack_distance_histogram(trace: Sequence[int]) -> tuple[np.ndarray, int]:
    """One-shot stack-distance histogram of a trace.

    Returns ``(histogram, cold_misses)``.  Runs the native
    ``stack_hist_run`` kernel when available (bit-identical to the online
    monitor, enforced by ``tests/test_monitors.py``), the
    :class:`StackDistanceMonitor` otherwise.
    """
    addrs = np.ascontiguousarray(np.asarray(trace, dtype=np.int64))
    if addrs.ndim != 1:
        raise ValueError("trace must be one-dimensional")
    n = int(addrs.size)
    if n == 0:
        return np.zeros(0), 0
    kernel = get_kernel()
    if kernel is not None:
        hist = np.zeros(n, dtype=np.int64)
        cold = kernel.stack_hist_run(addrs, hist)
        if cold >= 0:    # -1 == scratch allocation failed; fall back
            nonzero = np.nonzero(hist)[0]
            top = int(nonzero[-1]) + 1 if nonzero.size else 0
            return hist[:top].astype(float), int(cold)
    monitor = StackDistanceMonitor(capacity_hint=max(1024, n))
    monitor.record_trace(addrs)
    return monitor.histogram(), monitor.cold_misses


def lru_miss_curve(trace: Sequence[int],
                   sizes: Sequence[float] | None = None) -> MissCurve:
    """Exact LRU miss curve (fully associative) of a trace in one pass."""
    dense, cold = stack_distance_histogram(trace)
    return MissCurve.from_stack_distances(dense, cold_misses=cold,
                                          sizes=sizes)
