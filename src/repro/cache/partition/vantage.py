"""Vantage-like fine-grained partitioning with an unmanaged region.

Vantage (Sanchez & Kozyrakis, ISCA 2011) partitions ~90 % of a
highly-associative cache at line granularity, leaving a ~10 % *unmanaged
region* it makes no capacity guarantees about: lines demoted from managed
partitions linger there until they age out.  The Talus paper runs its main
configuration ("Talus+V/LRU") on Vantage and explicitly models the
unmanaged region — at total capacity ``s``, Talus assumes a partitionable
capacity of ``0.9 s`` (Sec. VI-B), which is why Talus+V sits slightly above
the convex hull in Fig. 8.

This class is a functional stand-in for Vantage: it enforces the same
capacity semantics (line-granularity budgets over the managed fraction, a
shared unmanaged victim area, demotion instead of immediate eviction)
without modelling the timestamp-based promotion/demotion microarchitecture.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

from ..cache import lru_factory
from ..replacement.base import EvictionPolicy, PolicyFactory
from .base import PartitionedCache, trim_line_allocations

__all__ = ["VantagePartitionedCache", "vantage_managed_lines"]


def vantage_managed_lines(capacity_lines: int,
                          unmanaged_fraction: float = 0.10) -> int:
    """Lines of a Vantage cache that are partitionable (the managed region).

    Kept as a module function so planners can compute the partitionable
    capacity of a configuration without building the cache.
    """
    return capacity_lines - int(round(capacity_lines * unmanaged_fraction))


class VantagePartitionedCache(PartitionedCache):
    """Fine-grained partitioning over 90 % of capacity plus an unmanaged region.

    Parameters
    ----------
    capacity_lines:
        Total cache capacity in lines (managed + unmanaged).
    num_partitions:
        Number of software-visible partitions.
    policy_factory:
        Replacement policy per managed partition; default LRU.
    unmanaged_fraction:
        Fraction of capacity in the unmanaged region (paper: 0.10).
    """

    scheme_name = "vantage"

    def __init__(self, capacity_lines: int, num_partitions: int,
                 policy_factory: PolicyFactory = lru_factory,
                 unmanaged_fraction: float = 0.10):
        if not 0.0 <= unmanaged_fraction < 1.0:
            raise ValueError("unmanaged_fraction must be in [0, 1)")
        super().__init__(capacity_lines, num_partitions)
        self.unmanaged_fraction = unmanaged_fraction
        self._managed_capacity = vantage_managed_lines(capacity_lines,
                                                       unmanaged_fraction)
        self._unmanaged_capacity = capacity_lines - self._managed_capacity
        base = self._managed_capacity // num_partitions
        self._regions = [policy_factory(i, base) for i in range(num_partitions)]
        self._allocations = [base] * num_partitions
        # Unmanaged region: a shared LRU victim area.  Maps tag -> partition
        # it was demoted from (so a hit can be re-attributed).
        self._unmanaged: OrderedDict[int, int] = OrderedDict()

    # ------------------------------------------------------------------ #
    @property
    def partitionable_lines(self) -> int:
        return self._managed_capacity

    @property
    def unmanaged_capacity(self) -> int:
        """Capacity of the unmanaged region in lines."""
        return self._unmanaged_capacity

    def set_allocations(self, sizes: Sequence[float]) -> list[int]:
        """Apply new budgets, demoting each shrunk partition's victims.

        A partition shrinks through repeated ``evict_one`` calls — the
        order the native kernel's ``vantage_realloc`` evicts in — and each
        victim moves to the unmanaged region as it leaves.
        """
        sizes = self._check_requests(sizes)
        granted = trim_line_allocations(sizes, self._managed_capacity)
        for part, (region, lines) in enumerate(zip(self._regions, granted)):
            while len(region) > lines:
                self._demote(region.evict_one(), part)
            region.set_capacity(lines)
        self._allocations = granted
        return list(granted)

    def granted_allocations(self) -> list[int]:
        return list(self._allocations)

    # ------------------------------------------------------------------ #
    def _demote(self, tag: int, partition: int) -> None:
        """Move a line evicted from a managed partition to the unmanaged region."""
        if self._unmanaged_capacity == 0:
            return
        self._unmanaged[tag] = partition
        self._unmanaged.move_to_end(tag)
        while len(self._unmanaged) > self._unmanaged_capacity:
            self._unmanaged.popitem(last=False)

    def _insert_managed(self, address: int, partition: int) -> None:
        """Insert into a managed partition, demoting that partition's victim."""
        region = self._regions[partition]
        if region.capacity == 0:
            # Partition has no managed budget: the line lives (briefly) in
            # the unmanaged region only.
            self._demote(address, partition)
            return
        if len(region) >= region.capacity:
            victim = region.evict_one()
            if victim is not None:
                self._demote(victim, partition)
        region.access(address)

    def access(self, address: int, partition: int) -> bool:
        self._check_partition(partition)
        region = self._regions[partition]
        if address in region:
            hit = region.access(address)
            self.record(partition, hit)
            return hit
        if address in self._unmanaged:
            # Hit in the unmanaged region: promote back into the partition.
            del self._unmanaged[address]
            self._insert_managed(address, partition)
            self.record(partition, True)
            return True
        self._insert_managed(address, partition)
        self.record(partition, False)
        return False

    def partition_occupancy(self, partition: int) -> int:
        self._check_partition(partition)
        return len(self._regions[partition])

    def unmanaged_occupancy(self) -> int:
        """Number of lines currently resident in the unmanaged region."""
        return len(self._unmanaged)

    def _spec_scheme_kwargs(self) -> tuple:
        if self.unmanaged_fraction != 0.10:
            return (("unmanaged_fraction", self.unmanaged_fraction),)
        return ()
