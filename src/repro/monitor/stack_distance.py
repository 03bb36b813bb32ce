"""Mattson stack-distance analysis for LRU miss curves.

LRU obeys the *stack property* (Mattson et al., 1970): the contents of a
smaller LRU cache are always a subset of a larger one's.  Consequently a
single pass over a trace — recording, for each access, the number of
distinct lines touched since that line's previous access (its *stack
distance*) — yields the complete LRU miss curve at every capacity at once.

Both implementations keep each line's last access position, mark the
live positions (one per distinct line) and count the live positions newer
than a line's last access, in O(log n) per access:

* :class:`StackDistanceMonitor` — the online reference (the oracle): a
  Fenwick tree (binary indexed tree) over positions; feed accesses one at
  a time, read the histogram or curve at any point.
* :class:`IncrementalStackMonitor` — the fast path: the hash table, rank
  structure, position counter and histogram persist in numpy arrays
  across ``record_trace`` calls, so a monitor that interleaves recording
  with curve reads (the interval-based reconfiguration loop) never
  re-replays its accumulated sub-stream.  The rank structure is a bitmap
  of the live positions under a Fenwick tree over its 64-bit words'
  popcounts, so it takes 2 int64 per 64 positions, and the table and the
  histogram are sized by the live lines, not by positions or accesses:
  the kernel stops at the first new line that would fill the table past
  half load, and the monitor doubles it and folds the rest.  Each chunk
  is one fold task of the native batch dispatcher
  (:mod:`repro.cache.threadbatch`); the kernel relabels the live markers
  in position order (the only thing distances read) when a chunk would
  run past the tree or the monitor hands it larger arrays.  A UMON's fold
  also samples its raw accesses and reads its miss curve's hits in the
  same record (:meth:`IncrementalStackMonitor.replay_task`).  Without a
  compiler it degrades to the online monitor — identical results.
  :func:`stack_distance_histogram` and :func:`lru_miss_curve` are one
  fold over a materialized trace.

This is the algorithmic core of the UMON monitors in :mod:`repro.monitor.umon`
and of the fast exact LRU miss curves used throughout the experiments.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..cache._native import KIND_STACK, get_kernel
from ..cache.threadbatch import ReplayTask, i64_ptr
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


def _rank_array(cap: int) -> np.ndarray:
    """The kernel's rank structure over ``cap`` positions, empty: a bitmap
    of ``ceil(cap / 64)`` words and a Fenwick tree over their popcounts,
    in ``2 * ceil(cap / 64) + 1`` entries."""
    return np.zeros(2 * (-(-cap // 64)) + 1, dtype=np.int64)


#: The sampling filter of a fold that keeps every access: the threshold of
#: a rate-1.0 UMON (the kernel's ``SAMPLE_ALL``), which skips the hash.
SAMPLE_ALL = (0, 1 << 30)


class IncrementalStackMonitor:
    """Stateful chunked stack-distance monitor (native state, resumable).

    Feed the trace in chunks with :meth:`record_trace` and read the
    histogram at any chunk boundary: total work is O(n log n) over the
    whole stream however often the histogram is read.  Histograms are
    bit-identical to :class:`StackDistanceMonitor` over the concatenated
    chunks (enforced by ``tests/test_monitors.py`` and
    ``tests/test_resumable_runtime.py``).

    Each chunk is one fold task (:meth:`replay_task`) of the kernel's
    batch dispatcher.  The state is sized by lines, not by positions:

    * the last-position table of ``tsize`` slots is never more than half
      full: the kernel stops at the first new line that would pass half
      load, and the monitor doubles the table and folds the rest of the
      chunk into it (the task's next round);
    * the histogram has ``tsize / 2`` entries and grows with the table: a
      distance counts the live markers newer than the line's last one, so
      it is below the live count, which the table bounds;
    * the rank structure over ``cap`` positions is a bitmap of the live
      markers under a Fenwick tree over its words' popcounts,
      ``2 * ceil(cap / 64) + 1`` int64.  When the chunk's positions would
      run past it, it grows to exactly ``live + 4 * n`` positions of
      headroom if ``live + 4 * n`` does not fit; otherwise the kernel
      relabels in place.

    Before a round the monitor only allocates; the kernel moves the state
    into the new arrays itself (O(words + table), no sort).

    Parameters
    ----------
    capacity_hint:
        Expected total accesses; purely a performance knob (state grows
        geometrically on demand).
    """

    def __init__(self, capacity_hint: int = 1 << 12):
        if get_kernel() is None:
            self._online = StackDistanceMonitor(
                capacity_hint=max(1024, capacity_hint))
            return
        self._online = None
        #: Positions the rank structure covers.
        self._cap = max(64, int(capacity_hint))
        self._tree = _rank_array(self._cap)
        tsize = 64
        while tsize < 2 * self._cap:
            tsize <<= 1
        self._tab_tags = np.zeros(tsize, dtype=np.int64)
        self._tab_vals = np.full(tsize, -1, dtype=np.int64)
        self._hist = np.zeros(tsize // 2, dtype=np.int64)
        #: Next position, live markers, cold misses and folded accesses.
        self._state = np.zeros(4, dtype=np.int64)
        #: Addresses of the five state arrays, re-read only when one is
        #: replaced.
        self._ptrs = self._addresses()

    def _addresses(self) -> tuple[int, ...]:
        return tuple(map(i64_ptr, (self._tab_tags, self._tab_vals,
                                   self._tree, self._hist, self._state)))

    def __getstate__(self) -> dict:
        """A copy owns new arrays, so it must not keep these addresses:
        they are dropped here and re-read on load."""
        state = dict(self.__dict__)
        state.pop("_ptrs", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self._online is None:
            self._ptrs = self._addresses()

    @property
    def native(self) -> bool:
        """Whether the state lives in the kernel's arrays (else the
        online oracle holds it)."""
        return self._online is None

    @property
    def accesses(self) -> int:
        """Accesses folded so far (a UMON's: the sampled ones)."""
        if self._online is not None:
            return self._online.accesses
        return int(self._state[3])

    @property
    def live_lines(self) -> int:
        """Distinct lines folded so far."""
        if self._online is not None:
            return len(self._online._last_position)
        return int(self._state[1])

    @property
    def cold_misses(self) -> int:
        """Accesses that never hit at any finite capacity so far."""
        if self._online is not None:
            return self._online.cold_misses
        return int(self._state[2])

    # -- recording ------------------------------------------------------- #
    def replay_task(self, trace: Iterable[int], *,
                    sample: tuple[int, int] = SAMPLE_ALL,
                    read: dict | None = None) -> ReplayTask:
        """The fold of one chunk as a task of the kernel's batch
        dispatcher (a fallback-only task without a kernel).

        ``sample`` is a UMON's sampling filter, ``(seed multiplier,
        threshold)``: the kernel folds access ``a`` iff
        ``mix64(a ^ multiplier) mod 2^30 < threshold``, as
        :meth:`UMON._sampled <repro.monitor.umon.UMON._sampled>` decides
        (the default keeps every access).  ``read`` holds the record's
        ``read_x``/``read_n``/``read_out`` members: once the chunk is
        folded, the kernel writes into ``out[k]`` the hits at capacity
        ``min(x[k], live lines)``, for the ``read_n`` abscissae ``x``
        ascending.  Without a kernel the caller samples (the online
        monitor folds every access) and reads the histogram.

        The kernel may stop at the table's half load; the task's commit
        then doubles the table and the task runs again over the rest of
        the chunk, so a run or dispatch of the task folds it all.  The
        monitor takes the task's arrays when it commits, so run each task
        once, before building the monitor's next one.
        """
        addrs = np.ascontiguousarray(np.asarray(
            trace if isinstance(trace, np.ndarray)
            else np.fromiter((int(a) for a in trace), dtype=np.int64),
            dtype=np.int64))
        if addrs.ndim != 1:
            raise ValueError("trace must be one-dimensional")
        if self._online is not None:
            if sample != SAMPLE_ALL or read is not None:
                raise ValueError("without a kernel the caller samples the "
                                 "chunk and reads the histogram")
            return ReplayTask(
                fallback=lambda: self._online.record_trace(addrs))
        fold = _Fold(self, addrs, sample, read)
        return ReplayTask(fields=fold.round(grow=False), refs=(fold,),
                          commit=fold.commit)

    def record_trace(self, trace: Iterable[int]) -> None:
        """Record every access of a chunk (one fold on this thread)."""
        self.replay_task(trace).run()

    def record(self, address: int) -> None:
        """Record one access (wraps it as a one-element chunk)."""
        self.record_trace(np.asarray([int(address)], dtype=np.int64))

    # -- reading --------------------------------------------------------- #
    def histogram(self) -> np.ndarray:
        """Dense stack-distance histogram (trailing zeros trimmed).

        A distance counts the live markers newer than the line's last
        one, so it is below the live count at the time, and the live
        count never falls: only the first ``live`` entries are scanned,
        not the whole table-sized array.
        """
        if self._online is not None:
            return self._online.histogram()
        nonzero = np.nonzero(self._hist[:int(self._state[1])])[0]
        top = int(nonzero[-1]) + 1 if nonzero.size else 0
        return self._hist[:top].astype(float)

    def miss_curve(self, sizes: Sequence[float] | None = None) -> MissCurve:
        """The LRU miss curve implied by the recorded distances."""
        return MissCurve.from_stack_distances(
            self.histogram(), cold_misses=self.cold_misses, sizes=sizes)


class _Fold:
    """One chunk's fold into a native monitor, in as many kernel rounds
    as the table's growth takes: a round's record hands the kernel the
    arrays the state should live in, and its commit adopts them."""

    __slots__ = ("monitor", "addrs", "start", "sample", "read", "arrays")

    def __init__(self, monitor: IncrementalStackMonitor, addrs: np.ndarray,
                 sample: tuple[int, int], read: dict | None):
        self.monitor = monitor
        self.addrs = addrs
        self.start = 0
        self.sample = sample
        self.read = read
        self.arrays: tuple = ()

    def round(self, grow: bool) -> dict:
        """The record folding ``addrs[start:]``; ``grow`` doubles the
        table (the last round stopped at its half load)."""
        m = self.monitor
        n = int(self.addrs.size) - self.start
        pos, live = int(m._state[0]), int(m._state[1])
        tags, vals, tree, hist = m._tab_tags, m._tab_vals, m._tree, m._hist
        tags_p, vals_p, tree_p, hist_p, state_p = m._ptrs
        if grow:
            tsize = 2 * tags.size
            tags = np.zeros(tsize, dtype=np.int64)
            vals = np.full(tsize, -1, dtype=np.int64)
            hist = np.pad(hist, (0, tsize // 2 - hist.size))
            tags_p, vals_p, hist_p = map(i64_ptr, (tags, vals, hist))
        cap = m._cap
        if pos + n > cap and live + 4 * n > cap:
            # Grow with headroom: a tight fit would relabel the whole tree
            # on every following chunk of an interval-sized feed.
            cap = live + 4 * n
            tree = _rank_array(cap)
            tree_p = i64_ptr(tree)
        self.arrays = (tags, vals, tree, hist, cap,
                       (tags_p, vals_p, tree_p, hist_p, state_p))
        fields = {"kind": KIND_STACK,
                  "addrs": i64_ptr(self.addrs) + 8 * self.start, "n": n,
                  "sample_mul": self.sample[0],
                  "sample_threshold": self.sample[1],
                  "ht_tag": tags_p, "ht_reg": vals_p,
                  "tsize": int(tags.size),
                  "ls_tags": m._ptrs[0], "ls_clocks": m._ptrs[1],
                  "ls_size": int(m._tab_tags.size),
                  "heap_key": tree_p, "heap_cap": cap,
                  "heap_tag": m._ptrs[2], "old_tree_cap": m._cap,
                  "hist": hist_p, "hist_len": int(hist.size),
                  "heap_io": state_p}
        if self.read is not None:
            fields.update(self.read)
        return fields

    def commit(self, consumed: int) -> dict | None:
        """Adopt the round's arrays; the next round's record when the
        kernel stopped short of the chunk's end."""
        m = self.monitor
        (m._tab_tags, m._tab_vals, m._tree, m._hist, m._cap,
         m._ptrs) = self.arrays
        self.start += consumed
        if self.start < self.addrs.size:
            return self.round(grow=True)
        return None


def stack_distance_histogram(trace: Sequence[int]) -> tuple[np.ndarray, int]:
    """One-shot stack-distance histogram of a trace.

    Returns ``(histogram, cold_misses)``: one fold into a fresh
    :class:`IncrementalStackMonitor` sized for the trace.
    """
    addrs = np.asarray(trace, dtype=np.int64)
    monitor = IncrementalStackMonitor(capacity_hint=addrs.size)
    monitor.record_trace(addrs)
    return monitor.histogram(), monitor.cold_misses


def lru_miss_curve(trace: Sequence[int],
                   sizes: Sequence[float] | None = None) -> MissCurve:
    """Exact LRU miss curve (fully associative) of a trace in one pass."""
    dense, cold = stack_distance_histogram(trace)
    return MissCurve.from_stack_distances(dense, cold_misses=cold,
                                          sizes=sizes)
