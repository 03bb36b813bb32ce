"""Multi-programmed shared-LLC experiments (Figs. 12 and 13).

The paper runs 8-core mixes under zsim with a fixed-work methodology and
reports weighted/harmonic speedups over unpartitioned LRU.  Here the same
comparisons are made with a miss-curve-driven system model:

* **Partitioned schemes** (LRU + hill climbing, LRU + Lookahead, fair
  partitioning, Talus + hill climbing, Talus + fair): each application's
  MPKI is its miss curve evaluated at its allocation — for Talus, the convex
  hull, which is what Talus guarantees to deliver (Sec. VII-B).  Talus on
  Vantage can only partition 90 % of the cache, which is modelled
  explicitly.
* **Unpartitioned LRU** and **TA-DRRIP**: capacity sharing is resolved with
  a fixed-point occupancy model — each application's occupancy is
  proportional to the rate at which it inserts lines (misses per cycle),
  the classic LRU sharing approximation.  TA-DRRIP's thrash resistance is
  modelled by giving each application its *optimal-bypass* curve (Sec. V-C)
  instead of its raw LRU curve, since BRRIP insertion approximates
  bypassing.  These substitutions are documented in DESIGN.md.

IPC comes from the analytic core model (:mod:`repro.sim.perf_model`), and
the aggregate metrics are exactly the paper's (weighted/harmonic speedup,
CoV of per-core IPC).

Next to the analytic model, :class:`ReconfiguringSharedRun` *executes* the
same scenario through the closed Fig. 7 loop; a single application is the
one-trace mix, ``ReconfiguringSharedRun(...).run([trace])``.  The
multi-mix sweep over it lives in :mod:`repro.sim.mixsweep`, and the
churning counterpart — apps arriving and leaving one warm cache — is
:class:`repro.sim.controller.OnlineTalusController`, fed by
:func:`churn_events`.  Both loops and the analytic model plan through
:func:`repro.sim.reconfigure.plan_shared_allocations`.

State ownership in the resumable runtime
----------------------------------------
:class:`ReconfiguringSharedRun` owns only per-interval bookkeeping (the
:class:`SharedIntervalRecord` list and each app's trace position).  The
warm simulation state is split between exactly two owners, both advanced
strictly in place:

* one shared :class:`~repro.cache.talus_cache.TalusCache` with a logical
  partition per application — its partitioned base holds every resident
  line and allocation, mutated only by ``run_chunk`` (replay) and the
  atomic ``configure_many`` (coordinated warm reallocation; all shadow
  pairs re-granted in a single ``set_allocations`` so grow-before-shrink
  transients never exceed the partitionable capacity);
* one :class:`~repro.monitor.umon.CombinedUMON` per application, each
  folding its app's chunks into persistent incremental stack-distance
  state.

Applications advance round-robin one interval at a time, so the
interleaving of chunks — and therefore the shared-cache contention in
Vantage's unmanaged region — is deterministic, which is what lets the
array and object backends produce bit-identical interval records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

from ..cache.spec import PartitionSpec, TalusSpec, build
from ..core.bypass import optimal_bypass_curve
from ..core.convexhull import convex_hull
from ..core.misscurve import MissCurve
from ..core.talus import TalusConfig, plan_shadow_partitions
from ..monitor.umon import CombinedUMON
from ..partitioning import (PartitioningProblem, fair, hill_climbing,
                            lookahead)
from ..workloads.access import Trace
from ..workloads.mixes import WorkloadMix
from ..workloads.scale import lines_to_paper_mb, paper_mb_to_lines
from .metrics import coefficient_of_variation, harmonic_speedup, weighted_speedup
from .perf_model import AppPerformance, ipc_from_mpki
from .reconfigure import (config_mb_to_lines, plan_shared_allocations,
                          planning_curve_from_monitor)

__all__ = ["SharedCacheExperiment", "MixResult", "SCHEMES",
           "shared_cache_equilibrium", "ReconfiguringSharedRun",
           "SharedIntervalRecord", "TADRRIPSharedRun",
           "ChurnSpec", "churn_events", "run_churn"]

#: Scheme names accepted by :meth:`SharedCacheExperiment.evaluate`.
SCHEMES = (
    "lru-shared",       # unpartitioned LRU (the baseline of Figs. 12/13)
    "ta-drrip",         # thread-aware DRRIP (unpartitioned, hardware-adaptive)
    "lru-hill",         # partitioned LRU, hill climbing
    "lru-lookahead",    # partitioned LRU, Lookahead
    "lru-fair",         # partitioned LRU, equal allocations
    "talus-hill",       # Talus (+Vantage/LRU), hill climbing
    "talus-fair",       # Talus (+Vantage/LRU), equal allocations
)

#: Fraction of the cache Talus-on-Vantage can partition (Sec. VI-B).
TALUS_PARTITIONABLE_FRACTION = 0.9


@dataclass(frozen=True)
class MixResult:
    """Outcome of one scheme on one mix."""

    scheme: str
    apps: tuple[AppPerformance, ...]

    @property
    def ipcs(self) -> List[float]:
        """Per-core IPCs in core order."""
        return [app.ipc for app in self.apps]

    @property
    def mpkis(self) -> List[float]:
        """Per-core MPKIs in core order."""
        return [app.mpki for app in self.apps]

    @property
    def cov_ipc(self) -> float:
        """Coefficient of variation of per-core IPC (the Fig. 13 unfairness metric)."""
        return coefficient_of_variation(self.ipcs)

    def weighted_speedup_over(self, baseline: "MixResult") -> float:
        """Weighted speedup of this scheme relative to ``baseline``."""
        return weighted_speedup(self.ipcs, baseline.ipcs)

    def harmonic_speedup_over(self, baseline: "MixResult") -> float:
        """Harmonic speedup of this scheme relative to ``baseline``."""
        return harmonic_speedup(self.ipcs, baseline.ipcs)


class _CurveBank:
    """Several miss curves resampled onto one shared grid for vectorized
    per-app evaluation.

    The grid is the union of every curve's sample sizes, so the piecewise-
    linear resampling is exact; evaluating all ``n`` curves at ``n``
    per-app sizes is then one ``searchsorted`` plus one fused lerp instead
    of ``n`` Python-level ``MissCurve`` calls — the hot inner step of the
    equilibrium iteration.
    """

    def __init__(self, curves: Sequence[MissCurve]):
        self.grid = np.unique(np.concatenate([c.sizes for c in curves]))
        self.values = np.stack([c(self.grid) for c in curves])
        self._rows = np.arange(len(curves))

    def __call__(self, sizes: np.ndarray) -> np.ndarray:
        """Evaluate curve ``i`` at ``sizes[i]`` for every app at once,
        clamping outside the sampled range exactly as ``MissCurve`` does."""
        grid = self.grid
        x = np.clip(sizes, grid[0], grid[-1])
        hi = np.clip(np.searchsorted(grid, x, side="right"), 1,
                     grid.size - 1)
        lo = hi - 1
        g0, g1 = grid[lo], grid[hi]
        span = np.where(g1 > g0, g1 - g0, 1.0)
        y0 = self.values[self._rows, lo]
        y1 = self.values[self._rows, hi]
        return y0 + (x - g0) / span * (y1 - y0)


def shared_cache_equilibrium(curves: Sequence[MissCurve],
                             profiles,
                             total_mb: float,
                             iterations: int = 200,
                             damping: float = 0.5,
                             perturbation: float = 0.05,
                             seed: int = 1) -> List[float]:
    """Fixed-point occupancy model for an unpartitioned shared cache.

    Each application's steady-state occupancy is proportional to its line
    insertion rate (misses per cycle): apps that miss more and run faster
    insert more lines and therefore occupy more of a shared LRU cache.  The
    fixed point is found by damped iteration from a slightly perturbed equal
    split; the perturbation lets homogeneous mixes settle into the
    asymmetric equilibria the paper observes ("one or a few unlucky cores"
    in Sec. VII-D).

    Every iteration evaluates all curves and the analytic IPC model in a
    few numpy operations over per-app vectors (no per-app Python loop).

    Returns the per-application effective capacities (paper MB).
    """
    n = len(curves)
    if n == 0:
        raise ValueError("need at least one application")
    if len(profiles) != n:
        raise ValueError("curves and profiles must have the same length")
    rng = np.random.default_rng(seed)
    bank = _CurveBank(curves)
    inv_ipc_peak = np.array([1.0 / p.ipc_peak for p in profiles])
    penalty = np.array([p.miss_penalty_cycles for p in profiles])
    sizes = np.full(n, total_mb / n)
    if perturbation > 0:
        noise = 1.0 + perturbation * (rng.random(n) - 0.5)
        sizes = sizes * noise
        sizes *= total_mb / sizes.sum()
    for _ in range(iterations):
        mpki = bank(sizes)
        ipc = 1.0 / (inv_ipc_peak + (mpki / 1000.0) * penalty)
        # Misses per cycle: how fast each app inserts new lines.
        weights = (mpki / 1000.0) * ipc + 1e-9
        target = total_mb * weights / weights.sum()
        sizes = damping * sizes + (1.0 - damping) * target
    return [float(s) for s in sizes]


class SharedCacheExperiment:
    """Evaluate cache-management schemes on one workload mix.

    Parameters
    ----------
    mix:
        The applications sharing the LLC (one per core).
    total_mb:
        Shared LLC capacity in paper MB.
    curve_max_mb:
        Coverage of the per-application miss curves.  Defaults to four times
        the LLC size, mirroring the paper's extended-coverage UMONs
        (Sec. VI-C) — necessary so Talus can see cliffs beyond the LLC.
    curve_points:
        Sample points of the fine (up-to-LLC) portion of each miss curve.
        The paper's primary UMONs have 64 ways; the low-rate secondary
        monitor covers the extended range at coarser resolution, which is
        what the non-uniform grid used here reproduces.
    granularity_mb:
        Allocation granularity of the partitioning algorithms.  Defaults to
        1/64 of the LLC.
    vantage_fraction:
        Fraction of the cache the partitioning hardware manages (all
        partitioned schemes run on Vantage in the paper's methodology, so
        the same fraction applies to every partitioned scheme).
    substrate:
        Optional :class:`~repro.cache.spec.PartitionSpec` describing the
        partitioning hardware declaratively; when given, the managed
        fraction is derived from its exact partitionable capacity
        (``partitionable_lines / capacity_lines``) instead of
        ``vantage_fraction``.
    """

    def __init__(self, mix: WorkloadMix, total_mb: float,
                 curve_max_mb: float | None = None,
                 curve_points: int = 65,
                 granularity_mb: float | None = None,
                 safety_margin: float = 0.0,
                 equilibrium_seed: int = 1,
                 vantage_fraction: float = TALUS_PARTITIONABLE_FRACTION,
                 substrate=None):
        if total_mb <= 0:
            raise ValueError("total_mb must be positive")
        if substrate is not None:
            vantage_fraction = (substrate.partitionable_lines
                                / substrate.capacity_lines)
        if not 0.0 < vantage_fraction <= 1.0:
            raise ValueError("vantage_fraction must be in (0, 1]")
        self.substrate = substrate
        self.mix = mix
        self.total_mb = float(total_mb)
        self.curve_max_mb = float(curve_max_mb if curve_max_mb is not None
                                  else 4.0 * total_mb)
        self.curve_points = int(curve_points)
        self.granularity_mb = float(granularity_mb if granularity_mb is not None
                                    else total_mb / 64.0)
        self.safety_margin = safety_margin
        self.equilibrium_seed = equilibrium_seed
        self.vantage_fraction = float(vantage_fraction)
        self.profiles = list(mix.apps)
        sizes_mb = self._curve_grid()
        self.curves = [p.lru_curve(sizes_mb=sizes_mb) for p in self.profiles]

    def _curve_grid(self) -> np.ndarray:
        """UMON-like size grid: fine up to the LLC, coarse beyond it."""
        fine = np.linspace(0.0, self.total_mb, self.curve_points)
        if self.curve_max_mb <= self.total_mb:
            return fine
        coarse_points = max(2, self.curve_points // 4)
        coarse = np.linspace(self.total_mb, self.curve_max_mb, coarse_points)
        return np.union1d(fine, coarse)

    # ------------------------------------------------------------------ #
    def evaluate(self, scheme: str) -> MixResult:
        """Evaluate one scheme; returns per-app allocations, MPKIs and IPCs."""
        if scheme == "lru-shared":
            return self._equilibrium_result(scheme, self.curves)
        if scheme == "ta-drrip":
            bypass_curves = [optimal_bypass_curve(c) for c in self.curves]
            return self._equilibrium_result(scheme, bypass_curves)
        if scheme == "lru-hill":
            return self._partitioned_result(scheme, hill_climbing,
                                            use_talus=False)
        if scheme == "lru-lookahead":
            return self._partitioned_result(scheme, lookahead, use_talus=False)
        if scheme == "lru-fair":
            return self._partitioned_result(scheme, fair, use_talus=False)
        if scheme == "talus-hill":
            return self._partitioned_result(scheme, hill_climbing,
                                            use_talus=True)
        if scheme == "talus-fair":
            return self._partitioned_result(scheme, fair, use_talus=True)
        raise ValueError(f"unknown scheme {scheme!r}; known: {SCHEMES}")

    def evaluate_all(self, schemes: Sequence[str] = SCHEMES) -> Dict[str, MixResult]:
        """Evaluate several schemes at once."""
        return {scheme: self.evaluate(scheme) for scheme in schemes}

    # ------------------------------------------------------------------ #
    def _equilibrium_result(self, scheme: str,
                            curves: Sequence[MissCurve]) -> MixResult:
        sizes = shared_cache_equilibrium(curves, self.profiles, self.total_mb,
                                         seed=self.equilibrium_seed)
        apps = []
        for profile, curve, size in zip(self.profiles, curves, sizes):
            mpki = float(curve(size))
            apps.append(AppPerformance(name=profile.name, allocation_mb=size,
                                       mpki=mpki,
                                       ipc=ipc_from_mpki(profile, mpki)))
        return MixResult(scheme=scheme, apps=tuple(apps))

    def _partitioned_result(self, scheme: str, algorithm,
                            use_talus: bool) -> MixResult:
        # All partitioned schemes run on Vantage (as in the paper's
        # methodology): the algorithm plans over the managed fraction of the
        # cache, and the unmanaged region — which still holds lines demoted
        # from each partition, so hits there count — is modelled as each
        # partition recovering a share of it proportional to its allocation.
        partitionable = self.total_mb * self.vantage_fraction
        unmanaged = self.total_mb - partitionable

        def effective_size(size: float) -> float:
            share = size / partitionable if partitionable > 0 else 0.0
            return size + unmanaged * share

        if use_talus:
            sizes = plan_shared_allocations(
                self.curves, partitionable, granularity=self.granularity_mb,
                algorithm=algorithm, safety_margin=self.safety_margin).sizes
            hulls = [convex_hull(curve) for curve in self.curves]
            mpkis = tuple(float(hull(effective_size(size)))
                          for hull, size in zip(hulls, sizes))
        else:
            problem = PartitioningProblem(curves=tuple(self.curves),
                                          total_size=partitionable,
                                          granularity=self.granularity_mb)
            allocation = algorithm(problem)
            sizes = allocation.sizes
            mpkis = tuple(float(curve(effective_size(size)))
                          for curve, size in zip(self.curves, sizes))
        apps = []
        for profile, size, mpki in zip(self.profiles, sizes, mpkis):
            apps.append(AppPerformance(name=profile.name, allocation_mb=float(size),
                                       mpki=float(mpki),
                                       ipc=ipc_from_mpki(profile, float(mpki))))
        return MixResult(scheme=scheme, apps=tuple(apps))


# --------------------------------------------------------------------- #
# Execution-driven multi-application reconfiguration (Figs. 12/13)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SharedIntervalRecord:
    """Outcome of one interval of a multi-application reconfiguration run."""

    index: int
    accesses: tuple[int, ...]
    misses: tuple[int, ...]
    #: Planned per-application allocations (paper MB) in effect during the
    #: interval (the equal split during warm-up).
    allocations_mb: tuple[float, ...]

    def miss_rate(self, app: int) -> float:
        """Miss rate of one application within the interval."""
        return (self.misses[app] / self.accesses[app]
                if self.accesses[app] else 0.0)


@dataclass
class ReconfiguringSharedRun:
    """Execution-driven Talus loop of a fixed mix on one shared cache.

    The analytic side of Figs. 12/13 (:class:`SharedCacheExperiment`)
    evaluates each scheme by reading miss curves at planned allocations.
    This class is its execution-driven counterpart — the full Fig. 7
    closed loop with one logical partition per application: per-app UMONs
    accumulate miss curves over each interval, the Talus software wrapper
    (hulls + the system's partitioning algorithm + Theorem 6) re-plans,
    and all shadow-partition pairs are reprogrammed *warm* in one atomic
    :meth:`~repro.cache.talus_cache.TalusCache.configure_many` step while
    every application's chunk replays through the resumable runtime
    (`run_chunk` on the array backend's chunked native replay when the
    kernel is available, the object model otherwise).  One trace is
    the single-application loop: the lone app holds the whole
    partitionable capacity, and each replan is Theorem 6 at that size.

    The loop plans in paper MB and MPKI per *estimated* instruction on a
    ``total_mb / 64`` grid, with unquantised splits and monitor seeds
    ``11 + 13 * i``; :class:`~repro.sim.controller.OnlineTalusController`
    plans misses per observed access in lines, with QoS floors and a
    conservation top-up.  The two objectives differ, so the two loops
    stay separate.

    Parameters
    ----------
    total_mb:
        Shared LLC capacity in paper MB.
    scheme:
        Underlying partitioning scheme ("ideal" by default: line-granular
        allocations for any number of applications).
    algorithm:
        The system's partitioning algorithm Talus wraps (default hill
        climbing, which the hulls make optimal).
    interval_accesses:
        Reconfiguration interval in accesses *per application* (hardware:
        ~10 ms).
    backend:
        Backend of the partitioned substrate ("auto" by default).  Both
        backends reallocate warm partitions, and the scheme × policy
        matrix is total on the array side (futility scaling excepted), so
        "auto" rides the array fast path with chunked native replay
        between reconfigurations when the kernel is available; interval
        records are bit-identical to ``backend="object"`` for every
        policy.
    """

    total_mb: float
    scheme: str = "ideal"
    algorithm: Callable = hill_climbing
    interval_accesses: int = 20_000
    safety_margin: float = 0.05
    warmup_intervals: int = 1
    monitor_points: int = 33
    granularity_mb: float | None = None
    backend: str = "auto"
    records: list[SharedIntervalRecord] = field(default_factory=list)

    def run(self, traces: Sequence[Trace]) -> list[SharedIntervalRecord]:
        """Replay all traces with periodic coordinated reconfiguration.

        Each interval records every application's chunk in its UMON and
        replays it through the shared cache, in application order, on
        the calling thread.
        """
        n = len(traces)
        if n == 0:
            raise ValueError("need at least one application trace")
        lines = paper_mb_to_lines(self.total_mb)
        if lines <= 0:
            raise ValueError("total_mb too small for the configured scale")
        spec = TalusSpec(partition=PartitionSpec(
            scheme=self.scheme, capacity_lines=lines, num_partitions=2 * n,
            backend=self.backend), num_logical=n)
        talus = build(spec)
        per = float(talus.base.partitionable_lines) / n
        talus.configure_many([
            TalusConfig(total_size=per, alpha=per, beta=per, rho=0.0,
                        s1=0.0, s2=per, degenerate=True)] * n)
        primary_rate = min(1.0, max(1.0 / 64.0, 2048.0 / lines))
        monitors = [CombinedUMON(llc_size=lines, points=self.monitor_points,
                                 primary_rate=primary_rate,
                                 coverage_ratio=0.25, seed=11 + 13 * i)
                    for i in range(n)]
        positions = [0] * n
        interval = max(1, self.interval_accesses)
        current_alloc = tuple(lines_to_paper_mb(per) for _ in range(n))
        self.records = []
        self._traces = list(traces)
        index = 0
        while any(positions[i] < len(traces[i]) for i in range(n)):
            accesses, misses = [], []
            for i, trace in enumerate(traces):
                end = min(positions[i] + interval, len(trace))
                chunk = trace.addresses[positions[i]:end]
                accesses.append(end - positions[i])
                positions[i] = end
                if chunk.size:
                    monitors[i].record_trace(chunk)
                    misses.append(talus.run_chunk(chunk, i).misses)
                else:
                    misses.append(0)
            self.records.append(SharedIntervalRecord(
                index=index, accesses=tuple(accesses),
                misses=tuple(misses), allocations_mb=current_alloc))
            index += 1
            remaining = any(positions[i] < len(traces[i]) for i in range(n))
            if index >= self.warmup_intervals and remaining:
                current_alloc = self._replan(talus, monitors, traces)
        return self.records

    def _replan(self, talus, monitors: Sequence[CombinedUMON],
                traces: Sequence[Trace]) -> tuple[float, ...]:
        """Plan from every monitor's current curve; reprogram all pairs.

        A lone application gets the whole partitionable capacity (capped
        at ``total_mb``) and its Theorem 6 plan at that size.  A mix goes
        through the shared replan core
        (:func:`~repro.sim.reconfigure.plan_shared_allocations`) with the
        fixed-mix defaults: no floors, no fairness blend, no conservation
        top-up.
        """
        curves = [planning_curve_from_monitor(monitor, trace)
                  for monitor, trace in zip(monitors, traces)]
        partitionable_mb = lines_to_paper_mb(talus.base.partitionable_lines)
        if len(curves) == 1:
            size = min(self.total_mb, partitionable_mb)
            sizes = (size,)
            configs = (plan_shadow_partitions(
                curves[0], size, safety_margin=self.safety_margin),)
        else:
            granularity = (self.granularity_mb if self.granularity_mb
                           else self.total_mb / 64.0)
            plan = plan_shared_allocations(curves, partitionable_mb,
                                           granularity=granularity,
                                           algorithm=self.algorithm,
                                           safety_margin=self.safety_margin)
            sizes, configs = plan.sizes, plan.configs
        talus.configure_many([config_mb_to_lines(c) for c in configs])
        return tuple(float(s) for s in sizes)

    # ------------------------------------------------------------------ #
    def app_misses(self, app: int, skip_warmup: bool = True) -> int:
        """Total misses of one application (optionally post-warm-up only)."""
        records = (self.records[self.warmup_intervals:] if skip_warmup
                   else self.records)
        return sum(r.misses[app] for r in records)

    def app_accesses(self, app: int, skip_warmup: bool = True) -> int:
        """Total accesses of one application over the recorded intervals."""
        records = (self.records[self.warmup_intervals:] if skip_warmup
                   else self.records)
        return sum(r.accesses[app] for r in records)

    def mix_result(self, profiles, scheme_label: str = "talus-execution",
                   skip_warmup: bool = True) -> MixResult:
        """Measured per-app performance as a Fig. 12/13 :class:`MixResult`.

        MPKIs come from the *executed* misses (converted through each
        trace's APKI), so the result is directly comparable — via
        ``weighted_speedup_over``/``cov_ipc`` — with the analytic
        :meth:`SharedCacheExperiment.evaluate` results for the same mix.
        """
        if not self.records:
            raise ValueError("run() must be called first")
        if len(profiles) != len(self.records[0].accesses):
            raise ValueError("one profile per application required")
        apps = []
        last_alloc = self.records[-1].allocations_mb
        for i, profile in enumerate(profiles):
            accesses = self.app_accesses(i, skip_warmup)
            misses = self.app_misses(i, skip_warmup)
            apki = self._traces[i].apki
            mpki = (misses / max(accesses, 1)) * apki
            apps.append(AppPerformance(
                name=profile.name, allocation_mb=float(last_alloc[i]),
                mpki=float(mpki), ipc=ipc_from_mpki(profile, float(mpki))))
        return MixResult(scheme=scheme_label, apps=tuple(apps))


@dataclass
class TADRRIPSharedRun:
    """Execution-driven unpartitioned TA-DRRIP baseline (Figs. 12/13).

    The analytic model approximates TA-DRRIP with optimal-bypass miss
    curves fed to the LRU occupancy fixed point
    (:meth:`SharedCacheExperiment.evaluate` with ``"ta-drrip"``).  This
    class *executes* the scheme instead: every application's trace
    replays — in the same round-robin interval interleaving as
    :class:`ReconfiguringSharedRun`, so contention is deterministic and
    directly comparable — through one shared thread-aware DRRIP cache
    (a :class:`~repro.cache.spec.CacheSpec` with ``policy="TA-DRRIP"``,
    one PSEL/dueling stream per application, on the native kernel when
    it is available and the bit-identical object model otherwise), and
    per-application misses come from the cache's ``thread_ids`` lane
    rather than an occupancy model.

    Parameters
    ----------
    total_mb:
        Shared LLC capacity in paper MB.
    ways:
        Associativity of the shared cache.
    interval_accesses:
        Round-robin chunk size in accesses per application — match the
        reconfiguration loop's interval so both baselines observe the
        same interleaving.
    seed:
        Seed of the cache's splitmix64 BRRIP insertion stream.
    """

    total_mb: float
    ways: int = 16
    interval_accesses: int = 20_000
    warmup_intervals: int = 1
    seed: int = 0
    records: list[SharedIntervalRecord] = field(default_factory=list)

    def run(self, traces: Sequence[Trace]) -> list[SharedIntervalRecord]:
        """Replay all traces through one shared TA-DRRIP cache."""
        from ..cache.spec import CacheSpec
        n = len(traces)
        if n == 0:
            raise ValueError("need at least one application trace")
        lines = paper_mb_to_lines(self.total_mb)
        if lines <= 0:
            raise ValueError("total_mb too small for the configured scale")
        cache = CacheSpec(capacity_lines=lines, ways=self.ways,
                          policy="TA-DRRIP", seed=self.seed,
                          policy_kwargs=(("num_streams", n),)).build()
        alloc = (self.total_mb / n,) * n  # nominal share: no partitioning
        positions = [0] * n
        interval = max(1, self.interval_accesses)
        index = 0
        self.records = []
        self._traces = list(traces)
        while any(positions[i] < len(traces[i]) for i in range(n)):
            accesses, misses = [], []
            for i, trace in enumerate(traces):
                end = min(positions[i] + interval, len(trace))
                chunk = trace.addresses[positions[i]:end]
                accesses.append(end - positions[i])
                positions[i] = end
                if chunk.size:
                    before = int(cache.thread_misses[i])
                    cache.run(chunk, thread_ids=np.full(chunk.size, i,
                                                        dtype=np.int64))
                    misses.append(int(cache.thread_misses[i]) - before)
                else:
                    misses.append(0)
            self.records.append(SharedIntervalRecord(
                index=index, accesses=tuple(accesses),
                misses=tuple(misses), allocations_mb=alloc))
            index += 1
        return self.records

    app_misses = ReconfiguringSharedRun.app_misses
    app_accesses = ReconfiguringSharedRun.app_accesses

    def mix_result(self, profiles, scheme_label: str = "ta-drrip-execution",
                   skip_warmup: bool = True) -> MixResult:
        """Measured per-app performance (see
        :meth:`ReconfiguringSharedRun.mix_result`)."""
        return ReconfiguringSharedRun.mix_result(self, profiles,
                                                 scheme_label, skip_warmup)


# --------------------------------------------------------------------------- #
# Churn-capable mix driving for the streaming controller
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ChurnSpec:
    """A deterministic churning workload for the online controller.

    Where :class:`ReconfiguringSharedRun` replays a *fixed* mix,
    :func:`churn_events` expands this spec into an event schedule with
    application arrivals, departures and QoS updates interleaved with
    per-app access batches — the streaming input of
    :class:`~repro.sim.controller.OnlineTalusController`.  The schedule
    is a pure function of the spec (all randomness flows from
    ``base_seed`` through :func:`~repro.cache.hashing.derive_seed`), and
    event times are trace-indexed: scheduler step ``k`` happens after
    exactly the batches of steps ``0..k-1``, never after a wall-clock
    amount of work.  The spec is a frozen scalar dataclass so it can ride
    in a job payload and key a result bank entry.

    Attributes
    ----------
    total_mb, max_apps:
        Shared cache scale; arrivals are suppressed while ``max_apps``
        applications are active (the controller's slot count).
    initial_apps, steps, batch_accesses:
        ``initial_apps`` arrivals precede step 0; every scheduler step
        emits one ``batch_accesses``-long batch per active app (round
        robin in arrival order, wrapping each app's trace cyclically).
    arrive_prob, depart_prob, qos_prob:
        Per-step probabilities of one arrival / departure / QoS update.
    min_apps:
        Departures are suppressed at or below this population.
    qos_floor_mb_max, qos_max_fraction:
        Per-app QoS floors are drawn uniformly from
        ``[0, qos_floor_mb_max]`` and clamped so the sum of all active
        floors never exceeds ``qos_max_fraction * total_mb`` (keeping
        every schedule admissible).
    profile_names:
        Profile pool to draw application instances from (empty: the
        paper's memory-intensive pool).
    trace_accesses:
        Length of each application instance's generated trace.
    """

    total_mb: float
    max_apps: int = 32
    initial_apps: int = 16
    steps: int = 64
    batch_accesses: int = 2_000
    trace_accesses: int = 40_000
    arrive_prob: float = 0.20
    depart_prob: float = 0.15
    qos_prob: float = 0.15
    min_apps: int = 1
    qos_floor_mb_max: float = 0.0
    qos_max_fraction: float = 0.5
    profile_names: tuple = ()
    base_seed: int = 2015

    def __post_init__(self):
        if self.initial_apps <= 0 or self.initial_apps > self.max_apps:
            raise ValueError("initial_apps must be in [1, max_apps]")
        if self.min_apps < 0:
            raise ValueError("min_apps must be non-negative")
        if not 0.0 <= self.qos_max_fraction <= 1.0:
            raise ValueError("qos_max_fraction must be in [0, 1]")


def churn_events(spec: ChurnSpec) -> list:
    """Expand a :class:`ChurnSpec` into its deterministic event schedule."""
    from ..cache.hashing import derive_seed
    from ..workloads.spec_profiles import (get_profile,
                                           memory_intensive_profiles)
    from .controller import (AccessBatch, AppArrive, AppDepart, QosPolicy,
                             QosUpdate)
    pool = ([get_profile(name) for name in spec.profile_names]
            if spec.profile_names else memory_intensive_profiles())
    rng = np.random.default_rng(derive_seed(spec.base_seed, "churn-schedule"))
    events: list = []
    streams: dict = {}       # app id -> [addresses, cursor]
    floors: dict = {}        # app id -> floor MB
    counter = 0
    floor_budget_mb = spec.qos_max_fraction * spec.total_mb

    def draw_floor(exclude: str | None = None) -> float:
        if spec.qos_floor_mb_max <= 0:
            return 0.0
        draw = float(rng.uniform(0.0, spec.qos_floor_mb_max))
        used = sum(mb for app, mb in floors.items() if app != exclude)
        return max(0.0, min(draw, floor_budget_mb - used))

    def spawn() -> None:
        nonlocal counter
        profile = pool[int(rng.integers(len(pool)))]
        app = f"{profile.name}#{counter}"
        trace = profile.trace(
            spec.trace_accesses,
            seed=derive_seed(spec.base_seed, f"churn-trace|{counter}"))
        # Disjoint address ranges per instance: a recycled slot must never
        # alias a previous tenant's lines.
        addresses = trace.addresses + np.int64((counter + 1) << 32)
        counter += 1
        floor_mb = draw_floor()
        streams[app] = [addresses, 0]
        floors[app] = floor_mb
        events.append(AppArrive(app, QosPolicy(min_mb=floor_mb)))

    for _ in range(spec.initial_apps):
        spawn()
    for _ in range(spec.steps):
        chances = rng.random(3)
        if chances[0] < spec.arrive_prob and len(streams) < spec.max_apps:
            spawn()
        if chances[1] < spec.depart_prob and len(streams) > spec.min_apps:
            ordered = sorted(streams)
            app = ordered[int(rng.integers(len(ordered)))]
            del streams[app]
            del floors[app]
            events.append(AppDepart(app))
        if chances[2] < spec.qos_prob and streams \
                and spec.qos_floor_mb_max > 0:
            ordered = sorted(streams)
            app = ordered[int(rng.integers(len(ordered)))]
            floor_mb = draw_floor(exclude=app)
            floors[app] = floor_mb
            events.append(QosUpdate(app, QosPolicy(min_mb=floor_mb)))
        for app in sorted(streams):
            addresses, cursor = streams[app]
            end = cursor + spec.batch_accesses
            if end <= len(addresses):
                batch = addresses[cursor:end]
                streams[app][1] = end if end < len(addresses) else 0
            else:
                head = addresses[cursor:]
                wrap = end - len(addresses)
                batch = np.concatenate([head, addresses[:wrap]])
                streams[app][1] = wrap
            events.append(AccessBatch(app, batch))
    return events


def run_churn(spec: ChurnSpec, *, supervise: bool = False, bank=None,
              **controller_kwargs):
    """Drive one :class:`~repro.sim.controller.OnlineTalusController`
    through a :class:`ChurnSpec`'s event schedule.

    Returns the run's :class:`~repro.sim.controller.ControllerResult`.
    With ``supervise=True`` the run executes in a supervised worker
    process of the fault-tolerant job runtime and its records bank under
    the spec's content key (``algorithm`` must then be one of the
    registered :data:`~repro.sim.mixsweep.ALGORITHMS`) — bit-identical
    to the in-process path.
    """
    if supervise:
        from ..jobs.drivers import run_supervised
        from ..jobs.payloads import ChurnStream
        stream = ChurnStream(spec, tuple(controller_kwargs.items()))
        return run_supervised([stream], max_workers=1, bank=bank,
                              job_timeout=1800.0)[0]
    from .controller import OnlineTalusController
    controller = OnlineTalusController(spec.total_mb, max_apps=spec.max_apps,
                                       **controller_kwargs)
    with controller:
        return controller.run(churn_events(spec))
