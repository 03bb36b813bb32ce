"""Idealized partitioning: exact line-granularity, fully-associative partitions.

This corresponds to the "Talus+I" configuration of Fig. 8 in the paper — a
partitioning scheme with no rounding, no associativity conflicts and no
unmanaged region.  Each partition is simply an independent fully-associative
region managed by its own replacement-policy instance, with a capacity equal
to its allocation.
"""

from __future__ import annotations

from typing import Sequence

from ..replacement.base import PartitionFactory
from .base import LRU_PARTITIONS, PartitionedCache, trim_line_allocations

__all__ = ["IdealPartitionedCache"]


class IdealPartitionedCache(PartitionedCache):
    """Exact, fully-associative partitioning.

    Parameters
    ----------
    capacity_lines:
        Total cache capacity in lines.
    num_partitions:
        Number of software-visible partitions.
    partition_factory:
        :data:`~repro.cache.replacement.base.PartitionFactory`: partition
        ``p``'s one region comes from ``partition_factory(p, 1)``; default
        LRU.  Capacities are later adjusted with :meth:`set_allocations`.
    """

    scheme_name = "ideal"

    def __init__(self, capacity_lines: int, num_partitions: int,
                 partition_factory: PartitionFactory = LRU_PARTITIONS):
        super().__init__(capacity_lines, num_partitions)
        base = capacity_lines // num_partitions
        self._regions = [partition_factory(p, 1)(0, base)
                         for p in range(num_partitions)]
        self._allocations = [base] * num_partitions

    def set_allocations(self, sizes: Sequence[float]) -> list[int]:
        sizes = self._check_requests(sizes)
        granted = trim_line_allocations(sizes, self.capacity_lines)
        for region, lines in zip(self._regions, granted):
            region.set_capacity(lines)
        self._allocations = granted
        return list(granted)

    def access(self, address: int, partition: int) -> bool:
        self._check_partition(partition)
        hit = self._regions[partition].access(address)
        self.record(partition, hit)
        return hit

    def granted_allocations(self) -> list[int]:
        return list(self._allocations)

    def partition_occupancy(self, partition: int) -> int:
        self._check_partition(partition)
        return len(self._regions[partition])
