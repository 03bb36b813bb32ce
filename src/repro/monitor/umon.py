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
The monitor is incremental end to end: :meth:`UMON.record_trace` selects
the sampled sub-stream with one vectorized splitmix64 pass
(:func:`repro.cache.hashing.mix64_array`) instead of one Python hash call
per access (at rate 1.0 the mask keeps every access, so the batch is
copied without hashing), and the sub-stream advances a persistent native
stack-distance state
(:class:`repro.monitor.stack_distance.IncrementalStackMonitor`) on the
first curve read after new data, in one fold of everything sampled since
the previous read — accumulated accesses are never re-replayed, so a
reconfiguration loop that reads the curve every interval does
O(sub-stream length) total monitoring work.  Recording and folding run
on the caller's thread.  The scalar
:meth:`UMON.record` path selects exactly the same sub-stream, so online
and batch recording are interchangeable and the produced curves are
bit-identical to the pre-vectorization implementation.

A read costs what its curve needs, not what the stream's footprint
holds, as a hardware UMON's read costs its fixed way counters: it takes
integer prefix sums over only the distances below its largest (sampled)
size, and the total from the fold's access count.  The misses equal the
Mattson construction (:func:`repro.core.misscurve.mattson_misses`) over
the whole histogram bit for bit: the prefix sums are exact integers,
``np.interp`` reads only the two samples around each size (and returns a
sample exactly at its abscissa), and the misses are flat past the last
live distance.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from ..core.misscurve import MissCurve
from ..cache.cache import materialize_addresses as _materialize
from ..cache.hashing import mix64, mix64_array, seed_mix
from .stack_distance import IncrementalStackMonitor

__all__ = ["UMON", "CombinedUMON"]


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
        self._seed_mul = np.uint64(seed_mix(seed))
        self._chunks: list[np.ndarray] = []
        self._pending: list[int] = []
        self._observed = 0
        self._total = 0
        # Persistent stack-distance state; pending chunks are folded in
        # lazily at the first curve read after new data.
        self._monitor: IncrementalStackMonitor | None = None

    # ------------------------------------------------------------------ #
    def _sampled(self, address: int) -> bool:
        return (mix64(address ^ seed_mix(self.seed)) % (1 << 30)
                < self._threshold)

    def _sample_mask(self, addrs: np.ndarray) -> np.ndarray:
        """Vectorized twin of :meth:`_sampled` (same sub-stream exactly)."""
        hashed = mix64_array(addrs.astype(np.uint64) ^ self._seed_mul)
        return (hashed & np.uint64((1 << 30) - 1)) < np.uint64(self._threshold)

    def record(self, address: int) -> None:
        """Observe one access (the monitor decides whether to sample it)."""
        self._total += 1
        if self._sampled(address):
            self._observed += 1
            self._pending.append(int(address))

    def record_trace(self, trace: Iterable[int]) -> None:
        """Observe every access of a trace (one vectorized sampling pass)."""
        addrs = _materialize(trace)
        self._total += int(addrs.size)
        if not addrs.size:
            return
        if self._pending:
            # Keep the sub-stream in access order when scalar record()
            # calls preceded this batch.
            self._chunks.append(np.asarray(self._pending, dtype=np.int64))
            self._pending = []
        # At rate 1.0 (threshold 2^30) the mask keeps every access.  The
        # batch may be the caller's own array and is folded later, so it
        # is copied, never kept as a view.
        sub = (addrs.copy() if self._threshold >= 1 << 30
               else addrs[self._sample_mask(addrs)])
        if sub.size:
            self._observed += int(sub.size)
            self._chunks.append(sub)

    @property
    def total_accesses(self) -> int:
        """Accesses seen (sampled or not)."""
        return self._total

    @property
    def sampled_accesses(self) -> int:
        """Accesses actually sampled into the monitor."""
        return self._observed

    # ------------------------------------------------------------------ #
    def _folded(self) -> IncrementalStackMonitor:
        """The stack-distance state with every sampled access folded in.

        Chunks recorded since the last read are folded, as one task, into
        the persistent :class:`IncrementalStackMonitor` (native state when
        a kernel is available, the online reference monitor otherwise),
        so each sampled access is processed exactly once no matter how
        often the curve is read — the resumable-runtime contract the
        reconfiguration loop relies on.
        """
        if self._pending:
            self._chunks.append(np.asarray(self._pending, dtype=np.int64))
            self._pending = []
        if self._monitor is None:
            self._monitor = IncrementalStackMonitor(
                capacity_hint=max(1024, self._observed))
        if self._chunks:
            self._monitor.record_trace(np.concatenate(self._chunks))
            self._chunks = []
        return self._monitor

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
        return MissCurve(sizes, self._misses(sizes))

    def _misses(self, sizes: np.ndarray) -> np.ndarray:
        """Estimated full-stream misses at ``sizes`` (full-cache lines).

        The misses at sampled size ``c`` are the folded accesses less the
        hits at distances below ``c``; only the counts below the largest
        size (plus one) are summed, and past the last live distance the
        misses are flat, so the result equals
        :func:`~repro.core.misscurve.mattson_misses` over the whole
        histogram.
        """
        monitor = self._folded()
        scaled = sizes * self.sampling_rate
        total = monitor.accesses
        top = float(np.max(scaled, initial=0.0))
        # A NaN or infinite size reads every count (and MissCurve then
        # rejects it): no distance reaches the access count.
        counts = monitor.distance_counts(
            math.ceil(top) + 1 if top < total else total)
        hits = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=hits[1:])
        misses = np.interp(scaled, np.arange(hits.size, dtype=float),
                           total - hits)
        scale = 1.0 / self.sampling_rate if self._observed else 1.0
        # Guard against sampling noise: the curve should not exceed the
        # total access count.
        return np.minimum(misses * scale, self._total)


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
        #: curve, and the index where its secondary half starts.
        self._grid = np.linspace(0, self.max_size, 2 * points)
        self._grid.flags.writeable = False
        self._split = int(np.searchsorted(self._grid, llc_size, side="right"))

    def record(self, address: int) -> None:
        """Observe one access with both monitors."""
        self.primary.record(address)
        self.secondary.record(address)

    def record_trace(self, trace: Iterable[int]) -> None:
        """Observe every access of a trace (vectorized, both monitors)."""
        addrs = _materialize(trace)
        self.primary.record_trace(addrs)
        self.secondary.record_trace(addrs)

    @property
    def max_size(self) -> int:
        """Largest size covered (the secondary monitor's range)."""
        return self.secondary.max_size

    def miss_curve(self, sizes: Sequence[float] | None = None) -> MissCurve:
        """Spliced miss curve covering up to ``llc_size / coverage_ratio``.

        Sizes up to ``llc_size`` read the primary monitor and larger sizes
        the secondary; a grid wholly on one side reads only that monitor.
        The spliced misses take their running minimum (the monotone
        envelope) and become one :class:`MissCurve`.
        """
        if sizes is None:
            sizes = self._grid
            parts = (sizes[:self._split], sizes[self._split:])
        else:
            sizes = np.asarray(sizes, dtype=float)
            parts = (sizes[sizes <= self.llc_size],
                     sizes[sizes > self.llc_size])
            sizes = np.concatenate(parts)
        if not sizes.size:
            raise ValueError("no sizes requested")
        misses = np.concatenate([
            monitor._misses(part) for monitor, part
            in zip((self.primary, self.secondary), parts) if part.size])
        # Splicing two independently sampled monitors can introduce a small
        # upward step at the boundary; enforce monotonicity.
        return MissCurve(sizes, np.minimum.accumulate(misses))
