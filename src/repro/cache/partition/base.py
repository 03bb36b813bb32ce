"""Partitioned-cache interface.

A partitioned cache exposes ``num_partitions`` software-visible partitions,
each with a capacity allocation expressed in lines.  Accesses are tagged with
the partition they belong to (in the paper: the core, thread, or — for Talus
— the shadow partition chosen by the sampling function).

Concrete schemes differ in how strictly and at what granularity they enforce
allocations:

* :class:`~repro.cache.partition.ideal.IdealPartitionedCache` — exact line
  granularity, fully associative (the paper's "idealized partitioning").
* :class:`~repro.cache.partition.way.WayPartitionedCache` — allocations
  rounded to whole ways per set.
* :class:`~repro.cache.partition.setpart.SetPartitionedCache` — allocations
  rounded to whole sets.
* :class:`~repro.cache.partition.vantage.VantagePartitionedCache` — line
  granularity over 90 % of the cache, with a shared unmanaged region.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import partial
from typing import Sequence

from ..cache import CacheStats, lru_factory
from ..replacement.base import PartitionFactory, PolicyFactory

__all__ = ["PartitionedCache", "trim_line_allocations", "shared_partitions",
           "LRU_PARTITIONS"]


def _shared_factory(policy_factory: PolicyFactory, partition: int,
                    num_regions: int) -> PolicyFactory:
    return policy_factory


def shared_partitions(policy_factory: PolicyFactory) -> PartitionFactory:
    """A :data:`~repro.cache.replacement.base.PartitionFactory` under which
    every partition builds its regions from ``policy_factory``."""
    return partial(_shared_factory, policy_factory)


#: The way, set and ideal schemes' default: plain LRU in every region.
LRU_PARTITIONS = shared_partitions(lru_factory)


def trim_line_allocations(sizes: Sequence[float], capacity: int) -> list[int]:
    """Round fractional line requests and trim the total back to ``capacity``.

    Rounding can push the total one or two lines above capacity; the largest
    allocations are decremented until it fits.  This is the line-granularity
    rounding rule shared by every scheme without coarser quantization (ideal,
    Vantage's managed region, futility scaling) and by their array-backend
    counterparts — keeping it in one place is what makes the backends grant
    identical allocations.
    """
    granted = [int(round(s)) for s in sizes]
    while sum(granted) > capacity:
        granted[granted.index(max(granted))] -= 1
    return granted


class PartitionedCache(ABC):
    """Abstract base class for partitioned cache organizations."""

    #: Scheme name under which :func:`repro.cache.spec.build` rebuilds this
    #: organization (set by each concrete subclass).
    scheme_name: str = ""

    def __init__(self, capacity_lines: int, num_partitions: int):
        if capacity_lines <= 0:
            raise ValueError("capacity_lines must be positive")
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.capacity_lines = int(capacity_lines)
        self.num_partitions = int(num_partitions)
        self.partition_stats = [CacheStats() for _ in range(num_partitions)]

    # ------------------------------------------------------------------ #
    # Mandatory interface
    # ------------------------------------------------------------------ #
    @abstractmethod
    def set_allocations(self, sizes: Sequence[float]) -> list[int]:
        """Set per-partition capacity targets (in lines).

        ``sizes`` may be fractional (planners work in real numbers); the
        scheme rounds them to whatever granularity it supports and returns
        the *granted* allocations in lines.  The sum of requests must not
        exceed the scheme's partitionable capacity.
        """

    @abstractmethod
    def access(self, address: int, partition: int) -> bool:
        """Perform one access on behalf of ``partition``; True on a hit."""

    @abstractmethod
    def granted_allocations(self) -> list[int]:
        """Current per-partition allocations in lines (post-rounding)."""

    @abstractmethod
    def partition_occupancy(self, partition: int) -> int:
        """Number of lines currently resident for ``partition``."""

    def partition_occupancies(self, partitions: Sequence[int]) -> list[int]:
        """:meth:`partition_occupancy` of each of ``partitions``, in one
        pass."""
        return [self.partition_occupancy(p) for p in partitions]

    def _check_partitions(self, partitions: Sequence[int]) -> None:
        """:meth:`_check_partition` of each of ``partitions`` at once."""
        if partitions:
            self._check_partition(min(partitions))
            self._check_partition(max(partitions))

    # ------------------------------------------------------------------ #
    # Shared behaviour
    # ------------------------------------------------------------------ #
    @property
    def partitionable_lines(self) -> int:
        """Lines the scheme can actually divide among partitions.

        Equal to the full capacity except for schemes with an unmanaged
        region (Vantage).
        """
        return self.capacity_lines

    def _check_partition(self, partition: int) -> None:
        if not 0 <= partition < self.num_partitions:
            raise ValueError(
                f"partition must be in [0, {self.num_partitions}), got {partition}")

    def _check_requests(self, sizes: Sequence[float]) -> list[float]:
        sizes = [float(s) for s in sizes]
        if len(sizes) != self.num_partitions:
            raise ValueError(
                f"expected {self.num_partitions} sizes, got {len(sizes)}")
        if any(s < 0 for s in sizes):
            raise ValueError("allocations must be non-negative")
        total = sum(sizes)
        if total > self.partitionable_lines * (1 + 1e-9):
            raise ValueError(
                f"requested {total} lines exceeds partitionable capacity "
                f"{self.partitionable_lines}")
        return sizes

    # ------------------------------------------------------------------ #
    # Declarative-spec round-tripping
    # ------------------------------------------------------------------ #
    def _first_policy(self):
        """The first region's policy instance (None when unavailable).

        Used by :meth:`to_spec` to recover the policy name; subclasses with
        non-trivial region containers override it.
        """
        regions = getattr(self, "_regions", None)
        return regions[0] if regions else None

    def _spec_scheme_kwargs(self) -> tuple:
        """Non-default scheme parameters to record in the spec."""
        return ()

    def to_spec(self):
        """A :class:`~repro.cache.spec.PartitionSpec` rebuilding this cache.

        Best effort: the policy name is recovered from the first region's
        policy instance (constructor keyword arguments of custom policy
        factories are not recoverable), and the current granted allocations
        become the spec's targets.  ``build(cache.to_spec())`` therefore
        reproduces this organization as configured *now*, not its access
        history.
        """
        from ..spec import PartitionSpec
        policy = self._first_policy()
        return PartitionSpec(
            scheme=self.scheme_name,
            capacity_lines=self.capacity_lines,
            num_partitions=self.num_partitions,
            policy=policy.name if policy is not None else "LRU",
            ways=getattr(self, "ways", 16),
            backend="object",
            hashed_index=getattr(self, "hashed_index", False),
            index_seed=getattr(self, "index_seed", 0),
            targets=tuple(float(g) for g in self.granted_allocations()),
            scheme_kwargs=self._spec_scheme_kwargs(),
        )

    @classmethod
    def from_spec(cls, spec) -> "PartitionedCache":
        """Build a partitioned cache from a :class:`PartitionSpec`.

        The concrete class is chosen by the spec's scheme and backend, so
        the result is not necessarily an instance of ``cls``.
        """
        from ..spec import build
        return build(spec)

    def record(self, partition: int, hit: bool) -> None:
        """Update the per-partition statistics."""
        self.partition_stats[partition].record(hit)

    def total_stats(self) -> CacheStats:
        """Aggregate statistics across all partitions."""
        total = CacheStats()
        for stats in self.partition_stats:
            total = total.merge(stats)
        return total

    def reset_stats(self) -> None:
        """Zero all per-partition statistics."""
        self.partition_stats = [CacheStats() for _ in range(self.num_partitions)]

    def snapshot(self, position: int = 0, meta: dict | None = None):
        """Capture the warm state as a picklable, content-hashable
        :class:`~repro.sampling.checkpoint.CacheCheckpoint`."""
        from ...sampling.checkpoint import snapshot
        return snapshot(self, position=position, meta=meta)

    def restore(self, checkpoint) -> None:
        """Rewind this cache to ``checkpoint``'s state, in place."""
        from ...sampling.checkpoint import restore_into
        restore_into(self, checkpoint)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(capacity={self.capacity_lines} lines, "
                f"partitions={self.num_partitions})")
