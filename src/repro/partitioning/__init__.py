"""Software cache-partitioning algorithms.

Talus wraps any of them with convex hulls and Theorem 6 shadow-partition
planning in :func:`repro.sim.reconfigure.plan_shared_allocations`.
"""

from .base import Allocation, PartitioningProblem, total_misses
from .fair import fair
from .hill_climbing import hill_climbing
from .lookahead import lookahead
from .optimal import optimal_dp

__all__ = [
    "PartitioningProblem",
    "Allocation",
    "total_misses",
    "hill_climbing",
    "lookahead",
    "fair",
    "optimal_dp",
]
