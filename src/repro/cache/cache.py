"""Set-associative cache model and statistics.

This is the basic trace-driven cache used for single-application policy
comparisons (Fig. 10 of the paper) and as the building block of the
partitioned organizations in :mod:`repro.cache.partition`.

Addresses are *line* addresses (already divided by the line size); the cache
maps them to sets with a hashed index (like a real LLC), and each set is a
small fully-associative region managed by a replacement policy instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .hashing import mix64
from .replacement.base import EvictionPolicy, PolicyFactory
from .replacement.lru import LRUPolicy

__all__ = ["CacheStats", "SetAssociativeCache", "simulate_trace", "lru_factory",
           "materialize_addresses", "policy_factory_from_class"]


def materialize_addresses(trace) -> np.ndarray:
    """A trace as a contiguous int64 address array.

    Accepts :class:`~repro.workloads.access.Trace` objects (their
    ``addresses``), numpy arrays, sequences, and lazy iterables
    (generators are drained via :func:`numpy.fromiter`).  This is the
    input normalization every batch fast path shares.
    """
    if hasattr(trace, "addresses"):
        trace = trace.addresses
    if not isinstance(trace, np.ndarray) and not hasattr(trace, "__len__"):
        trace = np.fromiter((int(a) for a in trace), dtype=np.int64)
    return np.ascontiguousarray(np.asarray(trace, dtype=np.int64))


@dataclass
class CacheStats:
    """Hit/miss counters for a simulation run.

    ``instructions`` is optional metadata used to convert misses to MPKI; it
    is normally supplied by the workload (accesses-per-kilo-instruction).
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    instructions: int = 0
    bypasses: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit (0 when there were no accesses)."""
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that missed (0 when there were no accesses)."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def mpki(self) -> float:
        """Misses per kilo-instruction; requires ``instructions`` metadata."""
        if self.instructions <= 0:
            raise ValueError("instructions not recorded; cannot compute MPKI")
        return 1000.0 * self.misses / self.instructions

    def record(self, hit: bool) -> None:
        """Count one access."""
        self.accesses += 1
        if hit:
            self.hits += 1
        else:
            self.misses += 1

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Return the sum of two stats objects (for aggregating partitions).

        ``extra`` metadata is carried over from both sides: numeric values
        present in both are summed (they are counters, like the hit/miss
        fields), anything else keeps ``other``'s value, mirroring how the
        scalar counters combine.
        """
        extra = dict(self.extra)
        for key, value in other.extra.items():
            mine = extra.get(key)
            if (isinstance(mine, (int, float)) and not isinstance(mine, bool)
                    and isinstance(value, (int, float))
                    and not isinstance(value, bool)):
                extra[key] = mine + value
            else:
                extra[key] = value
        return CacheStats(
            accesses=self.accesses + other.accesses,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            instructions=self.instructions + other.instructions,
            bypasses=self.bypasses + other.bypasses,
            extra=extra,
        )


def lru_factory(region_index: int, capacity: int) -> LRUPolicy:
    """Default policy factory: plain LRU per region."""
    return LRUPolicy(capacity)


def policy_factory_from_class(policy_class: Callable[[int], EvictionPolicy],
                              **kwargs) -> PolicyFactory:
    """Adapt a policy class (or single-argument constructor) to a factory.

    Every region gets an independent instance; keyword arguments are passed
    through (e.g. ``policy_factory_from_class(BRRIPPolicy, epsilon=1/64)``).
    """

    def factory(region_index: int, capacity: int) -> EvictionPolicy:
        return policy_class(capacity, **kwargs)

    return factory


class SetAssociativeCache:
    """A hashed-index set-associative cache.

    Parameters
    ----------
    num_sets:
        Number of sets; any positive integer (hashed indexing does not
        require a power of two).
    ways:
        Associativity.  Total capacity is ``num_sets * ways`` lines.
    policy_factory:
        Callable ``(set_index, ways) -> EvictionPolicy`` building the
        replacement policy of each set.  Defaults to per-set LRU.
    index_seed:
        Seed of the set-index hash when ``hashed_index`` is true.
    hashed_index:
        If true, set indices come from a mixing hash of the address; if
        false (default), from the address modulo the number of sets — which
        is what real LLCs do with low-order index bits, and which spreads
        sequential scans perfectly evenly across sets (the behaviour the
        paper's libquantum-style cliffs depend on).

    A thread-aware policy (TA-DRRIP) attributes each access to a stream:
    :meth:`access` takes a ``thread_id`` and :meth:`run` a ``thread_ids``
    lane, and per-stream misses accumulate in :attr:`thread_misses`.
    """

    def __init__(self, num_sets: int, ways: int,
                 policy_factory: PolicyFactory = lru_factory,
                 index_seed: int = 0, hashed_index: bool = False):
        if num_sets <= 0:
            raise ValueError("num_sets must be positive")
        if ways <= 0:
            raise ValueError("ways must be positive")
        self.num_sets = num_sets
        self.ways = ways
        self.index_seed = index_seed
        self.hashed_index = hashed_index
        self._sets = [policy_factory(i, ways) for i in range(num_sets)]
        streams = getattr(self._sets[0], "num_streams", None)
        self._thread_misses = (None if streams is None
                               else np.zeros(streams, dtype=np.int64))
        self.stats = CacheStats()

    @property
    def capacity_lines(self) -> int:
        """Total capacity in lines."""
        return self.num_sets * self.ways

    def set_index(self, address: int) -> int:
        """Set index for a line address."""
        if self.num_sets == 1:
            return 0
        if self.hashed_index:
            return mix64(address ^ (self.index_seed * 0x9E3779B97F4A7C15)) % self.num_sets
        return address % self.num_sets

    def access(self, address: int, thread_id: int = 0) -> bool:
        """Perform one access; returns True on a hit and updates stats.

        ``thread_id`` attributes the access to a stream (TA-DRRIP only;
        other policies are thread-oblivious and reject a nonzero id).
        """
        region = self._sets[self.set_index(address)]
        if self._thread_misses is None:
            if thread_id:
                raise ValueError("thread_id applies to TA-DRRIP only")
            hit = region.access(address)
        else:
            hit = region.stream_access(address, thread_id)
            if not hit:
                self._thread_misses[thread_id] += 1
        self.stats.record(hit)
        return hit

    def run(self, trace: Iterable[int], instructions: int = 0,
            thread_ids=None) -> CacheStats:
        """Replay a trace; returns (and stores) the accumulated stats.

        ``thread_ids`` (TA-DRRIP only) attributes each access to a stream;
        omitted, every access belongs to stream 0.
        """
        if thread_ids is None:
            for address in trace:
                self.access(int(address))
        elif self._thread_misses is None:
            raise ValueError("thread_ids applies to TA-DRRIP only")
        else:
            addrs = materialize_addresses(trace)
            tids = np.asarray(thread_ids, dtype=np.int64)
            if tids.shape != addrs.shape:
                raise ValueError("thread_ids must have the trace's shape")
            for address, tid in zip(addrs.tolist(), tids.tolist()):
                self.access(address, tid)
        if instructions:
            self.stats.instructions += instructions
        return self.stats

    @property
    def thread_misses(self) -> np.ndarray:
        """Per-stream cumulative miss counts (TA-DRRIP only)."""
        if self._thread_misses is None:
            raise AttributeError("thread_misses applies to TA-DRRIP only")
        return self._thread_misses

    def occupancy(self) -> int:
        """Number of currently resident lines across all sets."""
        return sum(len(s) for s in self._sets)

    def reset_stats(self) -> None:
        """Zero the statistics without touching cache contents."""
        self.stats = CacheStats()

    def snapshot(self, position: int = 0, meta: dict | None = None):
        """Capture the warm state as a picklable, content-hashable
        :class:`~repro.sampling.checkpoint.CacheCheckpoint`."""
        from ..sampling.checkpoint import snapshot
        return snapshot(self, position=position, meta=meta)

    def restore(self, checkpoint) -> None:
        """Rewind this cache to ``checkpoint``'s state, in place."""
        from ..sampling.checkpoint import restore_into
        restore_into(self, checkpoint)

    def to_spec(self):
        """A :class:`~repro.cache.spec.CacheSpec` rebuilding this cache.

        Caches built from a spec return it verbatim; directly constructed caches recover the policy name from
        the first set's policy instance (constructor keyword arguments of
        custom factories are not recoverable).
        """
        stored = getattr(self, "_built_spec", None)
        if stored is not None:
            return stored
        from .spec import CacheSpec
        return CacheSpec(capacity_lines=self.capacity_lines, ways=self.ways,
                         policy=self._sets[0].name, backend="object",
                         hashed_index=self.hashed_index,
                         index_seed=self.index_seed)

    @classmethod
    def from_spec(cls, spec):
        """Build a cache from a :class:`~repro.cache.spec.CacheSpec`.

        The concrete class follows the spec's backend, so the result is
        not necessarily an instance of ``cls``.
        """
        from .spec import build
        return build(spec)

    def __repr__(self) -> str:
        return (f"SetAssociativeCache(sets={self.num_sets}, ways={self.ways}, "
                f"capacity={self.capacity_lines} lines)")


def simulate_trace(trace: Sequence[int], capacity_lines: int, ways: int = 16,
                   policy_factory: PolicyFactory = lru_factory,
                   instructions: int = 0,
                   index_seed: int = 0,
                   hashed_index: bool = False) -> CacheStats:
    """Convenience: simulate a trace through a cache of ``capacity_lines``.

    The number of sets is ``capacity_lines // ways`` (at least 1); if the
    capacity is smaller than one full set the cache degenerates to a single
    set with ``capacity_lines`` ways, preserving total capacity.
    """
    if capacity_lines <= 0:
        stats = CacheStats(instructions=instructions)
        for _ in trace:
            stats.record(False)
        return stats
    if capacity_lines < ways:
        num_sets, eff_ways = 1, capacity_lines
    else:
        num_sets, eff_ways = capacity_lines // ways, ways
    cache = SetAssociativeCache(num_sets, eff_ways, policy_factory,
                                index_seed=index_seed, hashed_index=hashed_index)
    return cache.run(trace, instructions=instructions)
