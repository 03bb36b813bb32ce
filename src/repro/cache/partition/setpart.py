"""Set partitioning: partitions own whole sets (page-coloring style).

The worked example of Sec. III of the paper uses set partitioning: the cache
is split by sets in a given ratio, and Talus distributes accesses between
the two groups of sets in dis-proportion to their size.  Set partitioning
can be realized in hardware (reconfigurable caches) or in software via page
coloring; either way allocations are rounded to whole sets.
"""

from __future__ import annotations

from typing import Sequence

from ..hashing import mix64
from ..replacement.base import EvictionPolicy, PartitionFactory
from ..replacement.rrip import rewire_leaders
from .base import LRU_PARTITIONS, PartitionedCache

__all__ = ["SetPartitionedCache", "round_to_sets"]


def round_to_sets(sizes: Sequence[float], num_sets: int, ways: int) -> list[int]:
    """Convert per-partition line requests to whole sets (sum <= num_sets).

    Nonzero requests get at least one set; the total is trimmed from the
    largest allocations.  Shared by the object and array backends.
    """
    requested_sets = [s / ways for s in sizes]
    granted = [max(1, int(round(r))) if r > 0 else 0 for r in requested_sets]
    while sum(granted) > num_sets:
        granted[granted.index(max(granted))] -= 1
    return granted


class SetPartitionedCache(PartitionedCache):
    """A set-associative cache whose sets are divided among partitions.

    Each partition owns ``sets_p`` sets of the full associativity; an access
    for partition ``p`` is hash-indexed *within that partition's sets*, so a
    partition with more sets behaves exactly like a larger cache — which is
    the property the Talus worked example relies on.  Resizing a
    partition keeps its leading sets, drops or appends trailing ones, and
    re-derives the set-dueling leaders for the new set count.

    Partition ``p`` builds its sets from
    ``partition_factory(p, sets_p)`` (a
    :data:`~repro.cache.replacement.base.PartitionFactory`, default LRU),
    sized to its construction-time ``sets_p`` sets.
    """

    scheme_name = "set"

    def __init__(self, num_sets: int, ways: int, num_partitions: int,
                 partition_factory: PartitionFactory = LRU_PARTITIONS,
                 index_seed: int = 0, hashed_index: bool = False):
        if num_sets <= 0 or ways <= 0:
            raise ValueError("num_sets and ways must be positive")
        if num_partitions > num_sets:
            raise ValueError(
                f"cannot set-partition {num_sets} sets into {num_partitions} partitions")
        super().__init__(num_sets * ways, num_partitions)
        self.num_sets = num_sets
        self.ways = ways
        self.index_seed = index_seed
        self.hashed_index = hashed_index
        base_sets = num_sets // num_partitions
        self._set_alloc = [base_sets] * num_partitions
        self._set_alloc[0] += num_sets - base_sets * num_partitions
        self._factories = [partition_factory(p, sets_p)
                           for p, sets_p in enumerate(self._set_alloc)]
        self._regions: list[list[EvictionPolicy]] = [
            [factory(s, ways) for s in range(sets_p)]
            for factory, sets_p in zip(self._factories, self._set_alloc)
        ]

    def _round_to_sets(self, sizes: Sequence[float]) -> list[int]:
        return round_to_sets(sizes, self.num_sets, self.ways)

    def set_allocations(self, sizes: Sequence[float]) -> list[int]:
        sizes = self._check_requests(sizes)
        set_alloc = self._round_to_sets(sizes)
        for p, sets_p in enumerate(set_alloc):
            regions = self._regions[p]
            if sets_p == len(regions):
                continue
            if sets_p > len(regions):
                regions.extend(self._factories[p](s, self.ways)
                               for s in range(len(regions), sets_p))
            else:
                del regions[sets_p:]
            rewire_leaders(regions)
        self._set_alloc = set_alloc
        return self.granted_allocations()

    def granted_allocations(self) -> list[int]:
        return [s * self.ways for s in self._set_alloc]

    def set_allocations_in_sets(self) -> list[int]:
        """Current per-partition set counts."""
        return list(self._set_alloc)

    def access(self, address: int, partition: int) -> bool:
        self._check_partition(partition)
        regions = self._regions[partition]
        if not regions:
            # A partition with zero sets holds nothing: every access misses.
            self.record(partition, False)
            return False
        if self.hashed_index:
            index = mix64(address ^ (self.index_seed * 0x9E3779B97F4A7C15)) % len(regions)
        else:
            index = address % len(regions)
        hit = regions[index].access(address)
        self.record(partition, hit)
        return hit

    def partition_occupancy(self, partition: int) -> int:
        self._check_partition(partition)
        return sum(len(region) for region in self._regions[partition])

    def _first_policy(self):
        for regions in self._regions:
            if regions:
                return regions[0]
        return None
