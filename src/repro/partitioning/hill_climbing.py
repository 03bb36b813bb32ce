"""Hill climbing (marginal-utility greedy) partitioning.

The simplest possible allocator: hand out capacity one granularity unit at a
time, always to the partition whose miss curve drops the most for that unit.
Its implementation really is "a trivial linear-time for-loop" (Sec. VII-D).

Hill climbing is *optimal* when all miss curves are convex — which is
exactly what Talus guarantees — but it gets stuck in local optima on
non-convex (cliffy) curves, which is why plain LRU partitioning sees little
benefit from it (Fig. 12).
"""

from __future__ import annotations

import numpy as np

from .base import Allocation, PartitioningProblem, total_misses

__all__ = ["hill_climbing"]


def hill_climbing(problem: PartitioningProblem) -> Allocation:
    """Greedy marginal-utility allocation.

    At each step the next ``granularity`` units go to the partition with the
    largest miss reduction for that increment.  Ties go to the lowest
    partition index (deterministic): a later partition wins only with a
    gain more than ``1e-15`` above the best so far.  Per-partition floors
    (``problem.minimums``) are honoured by starting every partition at its
    floor and distributing only the remaining budget.

    Each curve is evaluated once, with one array call, on its ladder
    ``floor, floor + step, ...`` of ``remaining steps + 1`` rungs.  The
    ladder is a running sum, so every rung is the float that adding
    ``step`` to that partition's size one step at a time produces, and the
    allocation is exactly that of evaluating each step's candidate alone.
    """
    if problem.minimums is not None:
        sizes = list(problem.minimums)
        budget = problem.total_size - sum(sizes)
    else:
        sizes = [problem.minimum] * problem.num_partitions
        budget = problem.total_size - problem.minimum * problem.num_partitions
    step = problem.granularity
    remaining_steps = int(budget / step + 1e-9)
    rungs = np.full(max(remaining_steps, 0) + 1, step, dtype=float)
    ladders = []
    for curve, floor in zip(problem.curves, sizes):
        rungs[0] = floor
        ladders.append(curve(np.add.accumulate(rungs)).tolist())
    taken = [0] * len(ladders)
    for _ in range(remaining_steps):
        best_index = -1
        best_gain = -1.0
        for i, ladder in enumerate(ladders):
            gain = ladder[taken[i]] - ladder[taken[i] + 1]
            if gain > best_gain + 1e-15:
                best_gain = gain
                best_index = i
        if best_index < 0:
            break
        sizes[best_index] += step
        taken[best_index] += 1
    return Allocation(sizes=tuple(sizes),
                      total_misses=total_misses(problem.curves, sizes),
                      algorithm="hill_climbing")
