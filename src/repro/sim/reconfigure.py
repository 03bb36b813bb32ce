"""The Talus replan core shared by the closed Fig. 7 loops.

In hardware, Talus re-plans every ~10 ms: UMONs accumulate a miss curve
over an interval, software computes the convex hull, runs the
partitioning algorithm, derives shadow partition sizes and sampling
rates, and programs the cache for the next interval.  This module holds
the software half of that cycle — turning a monitor into a planning
curve (:func:`planning_curve_from_monitor`), planning every partition at
once (:func:`plan_shared_allocations`), and converting the plan to cache
lines (:func:`config_mb_to_lines`).  The loops that run it are
:class:`repro.sim.multicore.ReconfiguringSharedRun` (a fixed mix; one app
is the one-trace mix) and :class:`repro.sim.controller.OnlineTalusController`
(a churning stream); the analytic Figs. 12/13 model
(:class:`repro.sim.multicore.SharedCacheExperiment`) plans through the
same function.

Assumption 1 of the paper — miss curves are stable across intervals — is
what makes planning on the *previous* interval's curve work.  The planner
is stateless: each replan reads the monitors' current curves, plans, and
programs the cache, so interrupting and resuming a loop at any interval
boundary (or swapping the replay backend mid-run, since both backends
replay every policy alike) cannot change the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core.convexhull import convex_hull
from ..core.misscurve import MissCurve
from ..core.talus import TalusConfig, plan_shadow_partitions
from ..monitor.umon import CombinedUMON
from ..partitioning.base import PartitioningProblem
from ..partitioning.fair import fair
from ..partitioning.hill_climbing import hill_climbing
from ..workloads.access import Trace
from ..workloads.scale import LINES_PER_PAPER_MB, paper_mb_to_lines

__all__ = ["planning_curve_from_monitor", "config_mb_to_lines",
           "SharedPlan", "plan_shared_allocations"]


def planning_curve_from_monitor(monitor: CombinedUMON,
                                trace: Trace) -> MissCurve:
    """The monitor's current miss curve in planner units (paper MB, MPKI).

    The planner is scale invariant, but MB/MPKI units keep records human
    readable.  Instructions are estimated from the fraction of the trace
    the monitor has observed so far; the monotone envelope removes the
    small non-monotonicities of spliced sampled monitors.
    """
    raw = monitor.miss_curve()
    observed = max(monitor.primary.total_accesses, 1)
    instructions = trace.instructions * observed / max(len(trace), 1)
    sizes_mb = raw.sizes / LINES_PER_PAPER_MB
    mpki = raw.misses * 1000.0 / max(instructions, 1.0)
    return MissCurve(sizes_mb, np.minimum.accumulate(mpki))


def config_mb_to_lines(config: TalusConfig) -> TalusConfig:
    """Rescale a planner configuration from paper MB to cache lines."""
    factor = float(paper_mb_to_lines(1.0))
    return TalusConfig(
        total_size=config.total_size * factor,
        alpha=config.alpha * factor,
        beta=config.beta * factor,
        rho=config.rho,
        s1=config.s1 * factor,
        s2=config.s2 * factor,
        degenerate=config.degenerate,
    )


@dataclass(frozen=True)
class SharedPlan:
    """One coordinated multi-application Talus plan.

    ``sizes`` are the per-partition capacity allocations (in the curves'
    size units), ``configs`` the shadow-partition plans in the same
    units, and ``expected_misses`` the hull miss values Talus commits to
    at those sizes.
    """

    sizes: tuple[float, ...]
    configs: tuple[TalusConfig, ...]
    expected_misses: tuple[float, ...]

    @property
    def total_expected_misses(self) -> float:
        return float(sum(self.expected_misses))


def plan_shared_allocations(curves: Sequence[MissCurve], total_size: float,
                            *, granularity: float,
                            algorithm: Callable = hill_climbing,
                            safety_margin: float = 0.0,
                            floors: Sequence[float] | None = None,
                            fairness: float = 0.0,
                            conserve: bool = False,
                            hulls: Sequence[MissCurve] | None = None
                            ) -> SharedPlan:
    """Talus's software wrapper around a partitioning algorithm (Fig. 7a).

    Talus does not propose its own partitioning algorithm.  It wraps the
    system's ``algorithm`` with two steps:

    * **pre-processing** — each partition's measured miss curve is
      replaced by its convex hull, so the algorithm can safely assume
      convexity (and a simple algorithm like hill climbing is optimal);
    * **post-processing** — the allocations become shadow-partition
      sizes and sampling rates via Theorem 6
      (:func:`~repro.core.talus.plan_shadow_partitions`, with
      ``safety_margin`` as in Sec. VI-B), which reuses the
      pre-processing hulls: each curve is hulled once per plan.

    The result carries the allocations, the per-partition
    :class:`~repro.core.talus.TalusConfig` and the hull miss values Talus
    commits to, ready for an analytic performance model or to program a
    :class:`~repro.cache.talus_cache.TalusCache`.  Three knobs serve the
    streaming controller; their defaults (no floors, no fairness blend,
    no conservation top-up) are the plain wrapper that the fixed-mix loop
    and the analytic model use:

    ``floors``
        Per-partition minimum allocations (QoS floors).  Every partition
        starts at its floor; only the remaining budget is contested.
    ``fairness``
        Blend factor in ``[0, 1]`` toward the equal split: the planned
        sizes are interpolated with the :func:`~repro.partitioning.fair.fair`
        allocation and re-snapped onto the granularity grid (floors kept
        exact; snapping rounds down, so enable ``conserve`` to redistribute
        the rounding slack).
    ``conserve``
        Top the allocation up until it sums exactly to ``total_size``:
        some algorithms leave budget unallocated (lookahead stops when
        nobody benefits; hill climbing cannot grant a final sub-step
        residual).  Each top-up unit goes to the partition whose hull
        drops the most for it (ties: lowest index), so the invariant
        "allocations sum to the partitionable capacity" holds exactly.

    ``hulls`` are ``convex_hull(curve)`` of each curve when the caller
    already has them (the controller keeps each app's hull with its
    curve); they are computed here otherwise, and the plan is the same
    either way.
    """
    if not 0.0 <= fairness <= 1.0:
        raise ValueError("fairness must be in [0, 1]")
    if hulls is None:
        hulls = [convex_hull(curve) for curve in curves]
    elif len(hulls) != len(curves):
        raise ValueError("hulls must match curves one to one")
    hulls = tuple(hulls)
    problem = PartitioningProblem(
        curves=hulls, total_size=total_size, granularity=granularity,
        minimums=None if floors is None else tuple(floors))
    allocation = algorithm(problem)
    sizes = list(allocation.sizes)
    step = granularity
    if fairness > 0.0:
        target = fair(problem).sizes
        lows = problem.floors()
        for i in range(len(sizes)):
            blended = (1.0 - fairness) * sizes[i] + fairness * target[i]
            extra = max(0.0, blended - lows[i])
            sizes[i] = lows[i] + int(extra / step + 1e-9) * step
    if conserve:
        deficit = total_size - sum(sizes)
        while deficit > 1e-9:
            grant = min(step, deficit)
            best_index = 0
            best_gain = -1.0
            for i, hull in enumerate(hulls):
                gain = float(hull(sizes[i])) - float(hull(sizes[i] + grant))
                if gain > best_gain + 1e-15:
                    best_gain = gain
                    best_index = i
            sizes[best_index] += grant
            deficit -= grant
    configs = []
    expected = []
    for curve, hull, size in zip(curves, hulls, sizes):
        configs.append(plan_shadow_partitions(curve, size,
                                              safety_margin=safety_margin,
                                              hull=hull))
        expected.append(float(hull(size)))
    return SharedPlan(sizes=tuple(float(s) for s in sizes),
                      configs=tuple(configs),
                      expected_misses=tuple(expected))
