"""Replacement-policy interface.

Every policy manages one *region* of cache lines with a capacity expressed
in lines.  A region may be a single set of a set-associative cache (capacity
= associativity), an entire fully-associative partition (capacity = the
partition's line budget), or the whole cache.  Structuring policies this way
lets the same policy implementations back every cache organization in
``repro.cache`` — set-associative caches, way/set-partitioned caches, the
Vantage-like fine-grained scheme, and Talus shadow partitions.

The contract of :meth:`EvictionPolicy.access` is intentionally high level
("handle one access, tell me if it hit") rather than victim-selection-only,
so each policy can keep whatever internal structures make it efficient.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Iterable

__all__ = ["EvictionPolicy", "PolicyFactory", "PartitionFactory"]

#: A callable building a policy for a region of the given capacity.  The
#: second argument is a region index (e.g. the set index) so that factories
#: implementing set dueling can designate leader regions.
PolicyFactory = Callable[[int, int], "EvictionPolicy"]

#: A callable building the :data:`PolicyFactory` of one partition from the
#: partition index and its number of regions, so that each partition of a
#: way, set or ideal cache has its own random stream, PSEL counter and
#: leader wiring, as each native kernel region does.
PartitionFactory = Callable[[int, int], PolicyFactory]


class EvictionPolicy(ABC):
    """A replacement policy managing one fully-associative region of lines.

    Subclasses must maintain at most ``capacity`` resident lines and decide
    which line to evict when a new line is inserted into a full region.

    Attributes
    ----------
    name:
        Short policy name used in reports ("LRU", "SRRIP", ...).
    capacity:
        Maximum number of resident lines.  A capacity of zero is legal and
        means every access misses and nothing is retained.
    """

    name: str = "base"

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.capacity = int(capacity)

    # ------------------------------------------------------------------ #
    # Mandatory interface
    # ------------------------------------------------------------------ #
    @abstractmethod
    def access(self, tag: int) -> bool:
        """Handle one access to ``tag``.

        Returns ``True`` on a hit.  On a miss the policy inserts the line
        (unless it chooses to bypass, e.g. PDP under heavy thrash), evicting
        a victim if the region is full.
        """

    @abstractmethod
    def resident(self) -> Iterable[int]:
        """Iterate over the tags currently resident in the region."""

    @abstractmethod
    def evict_one(self) -> int | None:
        """Force-evict one line chosen by the policy; return its tag.

        Used when a region's capacity is reduced at reconfiguration time.
        Returns ``None`` if the region is empty.
        """

    # ------------------------------------------------------------------ #
    # Shared behaviour
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return sum(1 for _ in self.resident())

    def __contains__(self, tag: int) -> bool:
        return any(t == tag for t in self.resident())

    def set_capacity(self, capacity: int) -> list[int]:
        """Change the region's capacity, evicting overflow lines if shrinking.

        Returns the list of evicted tags (empty when growing).
        """
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.capacity = int(capacity)
        evicted: list[int] = []
        while len(self) > self.capacity:
            victim = self.evict_one()
            if victim is None:
                break
            evicted.append(victim)
        return evicted

    def reset(self) -> None:
        """Drop all resident lines and any adaptive state.

        The default implementation force-evicts everything; subclasses with
        extra adaptive state (e.g. dueling counters) should extend it.
        """
        while True:
            victim = self.evict_one()
            if victim is None:
                break

    def __repr__(self) -> str:
        return f"{type(self).__name__}(capacity={self.capacity}, used={len(self)})"
