"""Belady's MIN: the optimal offline replacement policy.

MIN evicts the resident line whose next use is furthest in the future.  It
requires oracle knowledge of the trace, so it is implemented as an offline
policy: feed it the whole access trace up front, then replay accesses in
order.  The Talus paper uses MIN as the gold standard ("optimal replacement
does not suffer cliffs") and Corollary 7 proves MIN is convex — a property
the test suite checks against this implementation.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Iterable, Sequence

from .base import EvictionPolicy

__all__ = ["BeladyMINPolicy", "belady_miss_curve_points"]

_INFINITY = float("inf")


class BeladyMINPolicy(EvictionPolicy):
    """Optimal replacement for a known trace.

    Usage::

        policy = BeladyMINPolicy(capacity, trace)
        hits = sum(policy.access(tag) for tag in trace)

    Accesses must be replayed in exactly the order of the trace supplied at
    construction; the policy checks this and raises otherwise.
    """

    name = "MIN"

    def __init__(self, capacity: int, trace: Sequence[int]):
        super().__init__(capacity)
        self._trace = list(int(t) for t in trace)
        # For each tag, the queue of positions at which it is accessed.
        positions: dict[int, deque[int]] = {}
        for pos, tag in enumerate(self._trace):
            positions.setdefault(tag, deque()).append(pos)
        self._positions = positions
        self._cursor = 0
        self._resident: dict[int, float] = {}  # tag -> next use position
        # Max-heap of (-next_use, tag); entries are validated lazily.
        self._heap: list[tuple[float, int]] = []

    def _next_use(self, tag: int) -> float:
        queue = self._positions.get(tag)
        if queue:
            return float(queue[0])
        return _INFINITY

    def access(self, tag: int) -> bool:
        if self._cursor >= len(self._trace):
            raise RuntimeError("access beyond the end of the supplied trace")
        expected = self._trace[self._cursor]
        if tag != expected:
            raise ValueError(
                f"out-of-order replay: expected tag {expected} at position "
                f"{self._cursor}, got {tag}")
        # Consume this access's position from the tag's queue.
        self._positions[tag].popleft()
        self._cursor += 1

        hit = tag in self._resident
        if self.capacity == 0:
            return False
        next_use = self._next_use(tag)
        if hit:
            self._resident[tag] = next_use
            heapq.heappush(self._heap, (-next_use, tag))
            return True
        if len(self._resident) >= self.capacity:
            self._evict_furthest()
        self._resident[tag] = next_use
        heapq.heappush(self._heap, (-next_use, tag))
        return False

    def _evict_furthest(self) -> int | None:
        while self._heap:
            neg_next, tag = heapq.heappop(self._heap)
            current = self._resident.get(tag)
            if current is None:
                continue  # stale entry for an already-evicted line
            if current != -neg_next:
                continue  # stale entry superseded by a later access
            del self._resident[tag]
            return tag
        return None

    def resident(self) -> Iterable[int]:
        return list(self._resident.keys())

    def evict_one(self) -> int | None:
        return self._evict_furthest()

    def __len__(self) -> int:
        return len(self._resident)

    def __contains__(self, tag: int) -> bool:
        return tag in self._resident


def belady_miss_curve_points(trace: Sequence[int],
                             capacities: Iterable[int]) -> list[tuple[int, int]]:
    """Miss counts of Belady's MIN on ``trace`` at each capacity.

    Returns ``(capacity, misses)`` pairs suitable for
    :meth:`repro.core.MissCurve.from_points`.  With the native kernel,
    next-use positions are precomputed once with a vectorized two-pass
    scatter (:func:`repro.cache.arraycache.belady_next_use`) and shared by
    every capacity point, each of which replays through
    :class:`~repro.cache.arraycache.ArrayBeladyCache`, whose miss counts
    are exact against this module's :class:`BeladyMINPolicy` (tie eviction
    among dead lines cannot change MIN's miss count).  Without the kernel
    every point replays through :class:`BeladyMINPolicy` itself.
    """
    from .._native import native_available
    from ..arraycache import ArrayBeladyCache, belady_next_use
    from ..cache import materialize_addresses
    addrs = materialize_addresses(trace)
    points = []
    if not native_available():
        for capacity in capacities:
            policy = BeladyMINPolicy(int(capacity), addrs)
            misses = sum(not policy.access(a) for a in addrs.tolist())
            points.append((int(capacity), misses))
        return points
    next_use = belady_next_use(addrs)
    for capacity in capacities:
        cache = ArrayBeladyCache(int(capacity), addrs, next_use=next_use)
        cache.run(addrs)
        points.append((int(capacity), int(cache.stats.misses)))
    return points
