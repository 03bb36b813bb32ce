"""Utility monitors (UMONs) — hardware-style sampled LRU miss-curve monitors.

A UMON (Qureshi & Patt, MICRO 2006) is a small auxiliary tag array that
samples a subset of accesses and exploits LRU's stack property to measure
the whole miss curve at once.  The Talus paper uses:

* a conventional UMON covering sizes up to the LLC capacity, and
* a second, lower-rate *sampled* UMON that — by Theorem 4 — models a
  proportionally larger cache, extending curve coverage to 4x the LLC size
  with 1/16 of the sampling rate (Sec. VI-C).  This matters for benchmarks
  whose cliffs lie beyond the LLC (libquantum).

Sampling is by address hash, which per Assumption 3 yields a statistically
self-similar stream, so the measured curve scales back up by the sampling
factor on both axes.

Fast path
---------
A UMON samples and folds beside every access in hardware (Sec. VI-C);
here both run inside one native record per monitor, at the read.
:meth:`UMON.record_trace` only keeps a copy of the raw batch (a
:class:`CombinedUMON` keeps one copy, which both of its monitors fold).
The first curve read after new data folds everything recorded since the
previous read into a persistent native stack-distance state
(:class:`repro.monitor.stack_distance.IncrementalStackMonitor`): the fold
record selects the sampled sub-stream with the kernel's ``mix64`` and the
monitor's seed multiplier and threshold, exactly the test of the scalar
:meth:`UMON.record` path, so the two paths interleave freely and the
curves are bit-identical to the pre-vectorization implementation.
Accumulated accesses are never re-replayed, so a reconfiguration loop
that reads the curve every interval does O(stream length) total
monitoring work, on the caller's thread.  A :class:`CombinedUMON` read is
one width-1 dispatch of its two fold records.

A read costs what its curve needs, not what the stream's footprint
holds, as a hardware UMON's read costs its fixed way counters: the fold
record also writes the cumulative hits at only the integer abscissae the
read interpolates between (the floor of each sampled size and the next
integer, capped at the live lines), and numpy interpolates and scales
those.  The misses equal the Mattson construction
(:func:`repro.core.misscurve.mattson_misses`) over the whole histogram
bit for bit: the hits are exact integers, ``np.interp`` reads only the
two samples around each size (and returns a sample exactly at its
abscissa), and the misses are flat past the last live distance.  Without
a kernel the fold samples with the vectorized twin of the hash
(:func:`repro.cache.hashing.mix64_array`) and a read is
:func:`~repro.core.misscurve.mattson_misses` over the oracle's histogram.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..cache.cache import materialize_addresses as _materialize
from ..cache.hashing import mix64, mix64_array, seed_mix
from ..cache.threadbatch import ReplayTask, StateFields, i64_ptr, run_serial
from ..core.misscurve import MissCurve, mattson_misses
from .stack_distance import IncrementalStackMonitor

__all__ = ["UMON", "CombinedUMON"]


class _Plan:
    """A read of one monitor at fixed sizes (full-cache lines): the
    sampled sizes, the sorted integer abscissae ``np.interp`` reads around
    them — the floor and the next integer of each, at least 0 — and the
    buffer the fold record writes their hits into.  ``xs`` is None when a
    size is not finite (MissCurve rejects it).  A :class:`CombinedUMON`
    keeps its default grid's plans, and their record members, for its
    lifetime."""

    __slots__ = ("scaled", "xs", "out", "_fields")

    def __init__(self, sizes: np.ndarray, rate: float):
        self.scaled = sizes * rate
        self.xs = self.out = None
        self._fields = StateFields()
        if sizes.size and np.isfinite(self.scaled).all():
            low = np.floor(self.scaled).clip(0.0, 2.0 ** 62)
            self.xs = np.unique(np.concatenate((low, low + 1.0))
                                ).astype(np.int64)
            self.out = np.zeros(self.xs.size, dtype=np.int64)

    def members(self) -> dict:
        """The fold record's ``read_*`` members."""
        fields = self._fields
        if not fields:
            fields.update(read_x=i64_ptr(self.xs), read_n=int(self.xs.size),
                          read_out=i64_ptr(self.out))
        return fields


class UMON:
    """An address-sampled LRU miss-curve monitor.

    Parameters
    ----------
    sampling_rate:
        Fraction of accesses the monitor observes (1/64 is a typical
        hardware rate; 1.0 observes everything, useful for exact curves).
    max_size:
        Largest cache size (in lines of the *full* cache) the monitor should
        report.  Internally the monitor only needs ``max_size *
        sampling_rate`` tag entries, which is what makes UMONs cheap.
    points:
        Number of evenly spaced sizes at which :meth:`miss_curve` samples
        the curve (the paper's UMONs have 64 ways -> 64 points).
    seed:
        Seed of the sampling hash.
    """

    def __init__(self, sampling_rate: float = 1.0 / 64.0,
                 max_size: int = 1 << 14,
                 points: int = 64,
                 seed: int = 11):
        if not 0.0 < sampling_rate <= 1.0:
            raise ValueError("sampling_rate must be in (0, 1]")
        if max_size <= 0:
            raise ValueError("max_size must be positive")
        if points < 2:
            raise ValueError("points must be >= 2")
        self.sampling_rate = sampling_rate
        self.max_size = max_size
        self.points = points
        self.seed = seed
        self._threshold = int(sampling_rate * (1 << 30))
        self._seed_mul = seed_mix(seed)
        #: Raw batches (and flushed scalar samples) since the last fold.
        self._chunks: list[np.ndarray] = []
        self._pending: list[int] = []
        self._total = 0
        # Persistent stack-distance state; recorded chunks are folded in
        # at the first curve read after new data.
        self._monitor: IncrementalStackMonitor | None = None

    # ------------------------------------------------------------------ #
    def _sampled(self, address: int) -> bool:
        return (mix64(address ^ self._seed_mul) % (1 << 30)
                < self._threshold)

    def _sample_mask(self, addrs: np.ndarray) -> np.ndarray:
        """Vectorized twin of :meth:`_sampled` (same sub-stream exactly)."""
        hashed = mix64_array(addrs.astype(np.uint64)
                             ^ np.uint64(self._seed_mul))
        return (hashed & np.uint64((1 << 30) - 1)) < np.uint64(self._threshold)

    def record(self, address: int) -> None:
        """Observe one access (the monitor decides whether to sample it)."""
        self._total += 1
        if self._sampled(address):
            self._pending.append(int(address))

    def record_trace(self, trace: Iterable[int]) -> None:
        """Observe every access of a trace: keep a copy of the batch, which
        the next read samples and folds."""
        addrs = _materialize(trace)
        self._append(addrs.copy() if addrs.size else addrs)

    def _append(self, batch: np.ndarray) -> None:
        """Keep ``batch``, a private copy (a :class:`CombinedUMON` hands
        both monitors the same one), after any scalar samples."""
        self._total += int(batch.size)
        if batch.size:
            self._flush()
            self._chunks.append(batch)

    def _flush(self) -> None:
        """Queue the scalar samples as a chunk, in access order.  They pass
        the fold's sampling test again, which selects them."""
        if self._pending:
            self._chunks.append(np.asarray(self._pending, dtype=np.int64))
            self._pending = []

    def _take(self) -> np.ndarray | None:
        """Everything recorded since the last fold, as one array."""
        self._flush()
        chunks, self._chunks = self._chunks, []
        if len(chunks) > 1:
            return np.concatenate(chunks)
        return chunks[0] if chunks else None

    @property
    def total_accesses(self) -> int:
        """Accesses seen (sampled or not)."""
        return self._total

    @property
    def sampled_accesses(self) -> int:
        """Accesses actually sampled into the monitor (folds first)."""
        return self._folded().accesses

    # ------------------------------------------------------------------ #
    def _state(self) -> IncrementalStackMonitor:
        if self._monitor is None:
            self._monitor = IncrementalStackMonitor(capacity_hint=1024)
        return self._monitor

    def _fold_task(self, batch: np.ndarray | None,
                   plan: _Plan | None = None) -> ReplayTask | None:
        """The fold of ``batch`` (raw accesses) into the stack-distance
        state, also reading ``plan`` natively: the kernel samples the
        batch; without a kernel the numpy mask does, before an online
        fold.  None when there is nothing to fold or read."""
        monitor = self._state()
        if monitor.native:
            read = (plan.members() if plan is not None
                    and plan.xs is not None else None)
            if batch is None and read is None:
                return None
            return monitor.replay_task(
                batch if batch is not None else np.zeros(0, np.int64),
                sample=(self._seed_mul, self._threshold), read=read)
        if batch is None:
            return None
        if self._threshold < 1 << 30:
            batch = batch[self._sample_mask(batch)]
        return monitor.replay_task(batch)

    def _folded(self) -> IncrementalStackMonitor:
        """The stack-distance state with every recorded access folded in
        (one task on this thread), so each access is processed exactly
        once no matter how often the curve is read."""
        task = self._fold_task(self._take())
        if task is not None:
            task.run()
        return self._state()

    def _misses(self, plan: _Plan) -> np.ndarray:
        """Estimated full-stream misses at a plan's sizes, once its read
        ran: the folded accesses less the hits below each sampled size,
        scaled back up by the inverse rate (Theorem 4)."""
        scaled, xs = plan.scaled, plan.xs
        monitor = self._state()
        if xs is None:
            return np.full(scaled.shape, np.nan)
        total = monitor.accesses
        if not monitor.native:
            misses = mattson_misses(monitor.histogram(), monitor.cold_misses,
                                    scaled)
        else:
            # Abscissae past the live lines read the hits at the live
            # lines (the kernel caps them there): a flat run, which
            # np.interp returns exactly, as the whole histogram's curve.
            misses = np.interp(scaled, xs, total - plan.out)
        scale = 1.0 / self.sampling_rate if total else 1.0
        # Guard against sampling noise: the curve should not exceed the
        # total access count.
        return np.minimum(misses * scale, self._total)

    def miss_curve(self, sizes: Sequence[float] | None = None) -> MissCurve:
        """Estimated full-stream LRU miss curve.

        The monitor's internal curve covers sampled sizes up to
        ``max_size * sampling_rate``; Theorem 4 scales it back up: sizes are
        divided by the sampling rate and miss counts are multiplied by the
        inverse rate.  One :class:`MissCurve` is built per call.
        """
        if sizes is None:
            sizes = np.linspace(0, self.max_size, self.points)
        sizes = np.asarray(sizes, dtype=float)
        plan = _Plan(sizes, self.sampling_rate)
        return MissCurve(sizes, _read([(self, plan)])[0])


def _read(reads: list[tuple[UMON, _Plan]]) -> list[np.ndarray]:
    """Each monitor's misses at its plan's sizes.  Every monitor folds
    what it recorded since its last read and reads its plan, in one
    width-1 dispatch; two monitors that recorded the same batches (a
    :class:`CombinedUMON`'s) fold one concatenation of them."""
    for monitor, _ in reads:
        monitor._flush()
    first = reads[0][0]._chunks
    if len(reads) == 2 and len(first) == len(reads[1][0]._chunks) and all(
            a is b for a, b in zip(first, reads[1][0]._chunks)):
        batch = reads[0][0]._take()
        reads[1][0]._chunks = []
        batches = [batch, batch]
    else:
        batches = [monitor._take() for monitor, _ in reads]
    tasks = [monitor._fold_task(batch, plan)
             for (monitor, plan), batch in zip(reads, batches)]
    run_serial([task for task in tasks if task is not None])
    return [monitor._misses(plan) for monitor, plan in reads]


class CombinedUMON:
    """The paper's two-monitor arrangement: full-rate plus low-rate coverage.

    The primary UMON covers sizes up to the LLC; the secondary samples at a
    fraction ``coverage_ratio`` of the primary's rate and therefore covers
    ``1 / coverage_ratio`` times the size range.  :meth:`miss_curve` splices
    the two: primary below the LLC size, secondary above.
    """

    def __init__(self, llc_size: int,
                 primary_rate: float = 1.0 / 64.0,
                 coverage_ratio: float = 1.0 / 16.0,
                 points: int = 64,
                 seed: int = 11):
        if llc_size <= 0:
            raise ValueError("llc_size must be positive")
        if not 0.0 < coverage_ratio < 1.0:
            raise ValueError("coverage_ratio must be in (0, 1)")
        self.llc_size = llc_size
        self.coverage_ratio = coverage_ratio
        self.primary = UMON(sampling_rate=primary_rate, max_size=llc_size,
                            points=points, seed=seed)
        extended = int(round(llc_size / coverage_ratio))
        self.secondary = UMON(sampling_rate=primary_rate * coverage_ratio,
                              max_size=extended, points=points, seed=seed + 1)
        #: The default grid, shared read-only by every default read's
        #: curve, and each monitor's plan of its half.
        self._grid = np.linspace(0, self.max_size, 2 * points)
        self._grid.flags.writeable = False
        split = int(np.searchsorted(self._grid, llc_size, side="right"))
        self._plans = (
            _Plan(self._grid[:split], self.primary.sampling_rate),
            _Plan(self._grid[split:], self.secondary.sampling_rate))

    def record(self, address: int) -> None:
        """Observe one access with both monitors."""
        self.primary.record(address)
        self.secondary.record(address)

    def record_trace(self, trace: Iterable[int]) -> None:
        """Observe every access of a trace: one copy of the batch, which
        both monitors keep and fold at the next read."""
        addrs = _materialize(trace)
        batch = addrs.copy() if addrs.size else addrs
        self.primary._append(batch)
        self.secondary._append(batch)

    @property
    def max_size(self) -> int:
        """Largest size covered (the secondary monitor's range)."""
        return self.secondary.max_size

    def miss_curve(self, sizes: Sequence[float] | None = None) -> MissCurve:
        """Spliced miss curve covering up to ``llc_size / coverage_ratio``.

        Sizes up to ``llc_size`` read the primary monitor and larger sizes
        the secondary; a grid wholly on one side reads only that monitor.
        Both monitors fold and read in one dispatch.  The spliced misses
        take their running minimum (the monotone envelope) and become one
        :class:`MissCurve`.
        """
        if sizes is None:
            sizes, plans = self._grid, self._plans
        else:
            sizes = np.asarray(sizes, dtype=float)
            parts = (sizes[sizes <= self.llc_size],
                     sizes[sizes > self.llc_size])
            sizes = np.concatenate(parts)
            plans = (_Plan(parts[0], self.primary.sampling_rate),
                     _Plan(parts[1], self.secondary.sampling_rate))
        if not sizes.size:
            raise ValueError("no sizes requested")
        misses = np.concatenate(_read([
            (monitor, plan) for monitor, plan
            in zip((self.primary, self.secondary), plans)
            if plan.scaled.size]))
        # Splicing two independently sampled monitors can introduce a small
        # upward step at the boundary; enforce monotonicity.
        return MissCurve(sizes, np.minimum.accumulate(misses))
