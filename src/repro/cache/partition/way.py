"""Way partitioning: each partition owns an integer number of ways per set.

Way partitioning is the simplest and most widely deployed scheme (e.g. Intel
CAT), but it is coarse: allocations are multiples of ``num_sets`` lines, and
small partitions lose associativity.  The paper notes (Sec. VI-B) that this
coarseness can violate Assumption 2, which is why Talus recomputes its
sampling rate from the *granted* (coarsened) allocation — behaviour our
:class:`~repro.cache.talus_cache.TalusCache` reproduces via
:meth:`granted_allocations`.
"""

from __future__ import annotations

from typing import Sequence

from ..hashing import mix64
from ..replacement.base import EvictionPolicy, PartitionFactory
from .base import LRU_PARTITIONS, PartitionedCache

__all__ = ["WayPartitionedCache", "round_to_ways"]


def round_to_ways(sizes: Sequence[float], num_sets: int, ways: int,
                  min_ways: int = 1) -> list[int]:
    """Convert per-partition line requests to integer ways (sum <= ways).

    Partitions with a nonzero request get at least ``min_ways``; leftover
    ways go to the largest fractional remainders.  Shared by the object and
    array backends so both grant identical way allocations.
    """
    requested_ways = [s / num_sets for s in sizes]
    granted = [int(w) for w in requested_ways]
    for i, req in enumerate(requested_ways):
        if req > 0 and granted[i] < min_ways:
            granted[i] = min_ways
    # Distribute leftover ways by largest fractional remainder.
    remainders = sorted(range(len(sizes)),
                        key=lambda i: requested_ways[i] - int(requested_ways[i]),
                        reverse=True)
    spare = ways - sum(granted)
    idx = 0
    while spare > 0 and remainders:
        granted[remainders[idx % len(remainders)]] += 1
        spare -= 1
        idx += 1
    while sum(granted) > ways:
        # Shrink the largest allocation (never below min_ways if nonzero).
        order = sorted(range(len(granted)), key=lambda i: granted[i],
                       reverse=True)
        for i in order:
            if granted[i] > min_ways or (granted[i] > 0 and sum(granted) - granted[i] >= ways):
                granted[i] -= 1
                break
        else:
            granted[order[0]] -= 1
    return granted


class WayPartitionedCache(PartitionedCache):
    """A set-associative cache whose ways are divided among partitions.

    Each (set, partition) pair is an independent region with capacity equal
    to the partition's way allocation; this models strict way partitioning
    with no way sharing.

    Parameters
    ----------
    num_sets, ways:
        Geometry of the underlying cache (capacity = ``num_sets * ways``).
    num_partitions:
        Number of software-visible partitions.
    partition_factory:
        :data:`~repro.cache.replacement.base.PartitionFactory`: partition
        ``p`` builds its sets from ``partition_factory(p, num_sets)``;
        default LRU.
    min_ways_per_partition:
        Partitions with a nonzero request are granted at least this many
        ways (real systems cannot give a core zero ways without effectively
        disabling its cache).
    """

    scheme_name = "way"

    def __init__(self, num_sets: int, ways: int, num_partitions: int,
                 partition_factory: PartitionFactory = LRU_PARTITIONS,
                 index_seed: int = 0,
                 min_ways_per_partition: int = 1,
                 hashed_index: bool = False):
        if num_sets <= 0 or ways <= 0:
            raise ValueError("num_sets and ways must be positive")
        if num_partitions > ways:
            raise ValueError(
                f"cannot way-partition {ways} ways into {num_partitions} partitions")
        super().__init__(num_sets * ways, num_partitions)
        self.num_sets = num_sets
        self.ways = ways
        self.index_seed = index_seed
        self.hashed_index = hashed_index
        self.min_ways = min_ways_per_partition
        start_ways = self._round_to_ways([self.capacity_lines / num_partitions]
                                         * num_partitions)
        self._way_alloc = start_ways
        # regions[partition][set]
        self._regions: list[list[EvictionPolicy]] = []
        for p, ways_p in enumerate(start_ways):
            factory = partition_factory(p, num_sets)
            self._regions.append([factory(s, ways_p) for s in range(num_sets)])

    # ------------------------------------------------------------------ #
    def _round_to_ways(self, sizes: Sequence[float]) -> list[int]:
        """Convert line requests to integer ways per partition (sum <= ways)."""
        return round_to_ways(sizes, self.num_sets, self.ways, self.min_ways)

    def set_allocations(self, sizes: Sequence[float]) -> list[int]:
        sizes = self._check_requests(sizes)
        way_alloc = self._round_to_ways(sizes)
        for p, ways_p in enumerate(way_alloc):
            for region in self._regions[p]:
                region.set_capacity(ways_p)
        self._way_alloc = way_alloc
        return self.granted_allocations()

    def granted_allocations(self) -> list[int]:
        return [w * self.num_sets for w in self._way_alloc]

    def way_allocations(self) -> list[int]:
        """Current per-partition way counts."""
        return list(self._way_alloc)

    def set_index(self, address: int) -> int:
        """Set index of a line address (modulo by default, hashed if requested)."""
        if self.num_sets == 1:
            return 0
        if self.hashed_index:
            return mix64(address ^ (self.index_seed * 0x9E3779B97F4A7C15)) % self.num_sets
        return address % self.num_sets

    def access(self, address: int, partition: int) -> bool:
        self._check_partition(partition)
        region = self._regions[partition][self.set_index(address)]
        hit = region.access(address)
        self.record(partition, hit)
        return hit

    def partition_occupancy(self, partition: int) -> int:
        self._check_partition(partition)
        return sum(len(region) for region in self._regions[partition])

    def _first_policy(self):
        return self._regions[0][0] if self._regions and self._regions[0] else None

    def _spec_scheme_kwargs(self) -> tuple:
        if self.min_ways != 1:
            return (("min_ways_per_partition", self.min_ways),)
        return ()
