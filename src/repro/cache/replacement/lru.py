"""Recency-based policies: LRU, MRU-insertion variants (LIP/BIP) and Random.

LRU is the reference policy of the paper: its miss curve obeys the stack
property, can be monitored cheaply (UMONs), and is what Talus is primarily
applied to.  LIP and BIP are the thrash-resistant insertion variants that
DIP (``repro.cache.replacement.dip``) duels between.

BIP and Random draw from a :class:`~repro.cache.hashing.SplitMix64`
stream, the one the native kernels draw from; a factory shares one stream
across all regions of a cache, as a kernel region does.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable

from ..hashing import SplitMix64
from .base import EvictionPolicy

__all__ = ["LRUPolicy", "LIPPolicy", "BIPPolicy", "RandomPolicy"]


class LRUPolicy(EvictionPolicy):
    """Least Recently Used.

    Lines are kept in an ordered map from least to most recently used; hits
    move the line to the MRU position; misses insert at MRU and evict the
    LRU line when full.
    """

    name = "LRU"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._lines: OrderedDict[int, None] = OrderedDict()

    def access(self, tag: int) -> bool:
        lines = self._lines
        if tag in lines:
            lines.move_to_end(tag)
            return True
        if self.capacity == 0:
            return False
        if len(lines) >= self.capacity:
            lines.popitem(last=False)
        lines[tag] = None
        return False

    def resident(self) -> Iterable[int]:
        return self._lines.keys()

    def evict_one(self) -> int | None:
        if not self._lines:
            return None
        tag, _ = self._lines.popitem(last=False)
        return tag

    def __len__(self) -> int:
        return len(self._lines)

    def __contains__(self, tag: int) -> bool:
        return tag in self._lines


class LIPPolicy(LRUPolicy):
    """LRU Insertion Policy: misses insert at the *LRU* position.

    A newly inserted line is promoted to MRU only if it is reused before
    being evicted.  This protects the resident working set against scanning
    (thrash resistance), at the cost of never adapting when the working set
    changes — which is why DIP duels it against plain LRU.
    """

    name = "LIP"

    def access(self, tag: int) -> bool:
        lines = self._lines
        if tag in lines:
            lines.move_to_end(tag)
            return True
        if self.capacity == 0:
            return False
        if len(lines) >= self.capacity:
            lines.popitem(last=False)
        lines[tag] = None
        lines.move_to_end(tag, last=False)  # insert at LRU position
        return False


class BIPPolicy(LRUPolicy):
    """Bimodal Insertion Policy: insert at MRU with small probability epsilon.

    The paper (following DIP) uses epsilon = 1/32: most misses insert at the
    LRU position (like LIP) but an occasional line is inserted at MRU so that
    the policy eventually adapts when the working set changes.
    """

    name = "BIP"

    def __init__(self, capacity: int, epsilon: float = 1.0 / 32.0,
                 seed: int = 0, rng: SplitMix64 | None = None):
        super().__init__(capacity)
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        self.epsilon = epsilon
        self._rng = rng if rng is not None else SplitMix64(seed)

    def access(self, tag: int) -> bool:
        lines = self._lines
        if tag in lines:
            lines.move_to_end(tag)
            return True
        if self.capacity == 0:
            return False
        if len(lines) >= self.capacity:
            lines.popitem(last=False)
        lines[tag] = None
        if self._rng.uniform() >= self.epsilon:
            lines.move_to_end(tag, last=False)  # LRU insertion (the common case)
        return False


class RandomPolicy(EvictionPolicy):
    """Random replacement: evict a uniformly random resident line on a miss.

    Lines sit in way order, and each operation draws its victim the way
    the native kernels do (``r`` is the stream's next draw):

    * a miss in a full region replaces way ``r % capacity`` in place, and
      a fill takes the first empty way (``random_run``);
    * :meth:`evict_one` removes the ``(r % occupancy)``-th line in
      insertion order (``vantage_run``/``vantage_realloc``);
    * a warm shrink (:meth:`set_capacity`) repeats the array cache's
      swap-remove draws and keeps the survivors in way order.
    """

    name = "Random"

    def __init__(self, capacity: int, seed: int = 0,
                 rng: SplitMix64 | None = None):
        super().__init__(capacity)
        self._ways: list[int] = []
        self._members: set[int] = set()
        self._rng = rng if rng is not None else SplitMix64(seed)

    def access(self, tag: int) -> bool:
        if tag in self._members:
            return True
        if self.capacity == 0:
            return False
        ways = self._ways
        if len(ways) >= self.capacity:
            way = self._rng.next64() % self.capacity
            self._members.discard(ways[way])
            ways[way] = tag
        else:
            ways.append(tag)
        self._members.add(tag)
        return False

    def resident(self) -> Iterable[int]:
        return list(self._ways)

    def evict_one(self) -> int | None:
        if not self._ways:
            return None
        victim = self._ways.pop(self._rng.next64() % len(self._ways))
        self._members.discard(victim)
        return victim

    def set_capacity(self, capacity: int) -> list[int]:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.capacity = int(capacity)
        excess = len(self._ways) - self.capacity
        if excess <= 0:
            return []
        keep: list[int] = []  # emptying a region draws nothing
        if self.capacity:
            keep = list(range(len(self._ways)))
            for _ in range(excess):
                pos = self._rng.next64() % len(keep)
                keep[pos] = keep[-1]
                keep.pop()
        kept = set(keep)
        evicted = [t for w, t in enumerate(self._ways) if w not in kept]
        self._ways = [self._ways[w] for w in sorted(keep)]
        self._members = set(self._ways)
        return evicted

    def __len__(self) -> int:
        return len(self._ways)

    def __contains__(self, tag: int) -> bool:
        return tag in self._members
