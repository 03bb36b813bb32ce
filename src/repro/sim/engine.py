"""Single-application simulation drivers: miss-curve sweeps and Talus runs.

These helpers connect the workload, cache and core layers:

* exact LRU miss curves via stack distance (fast path — one pass);
* simulated miss curves for arbitrary replacement policies, batched through
  the sweep engine (:mod:`repro.sim.sweep`): the trace is materialized once
  and every (policy, size) point is simulated from it, on the array/native
  backend whenever the kernel is available (it is bit-identical to the
  object model);
* simulated Talus miss curves on a chosen partitioning scheme, either with a
  static configuration planned from a measured curve or with the full
  interval-based reconfiguration loop (:mod:`repro.sim.reconfigure`).

Curves produced here are in (paper MB, MPKI) units so they can be compared
directly with the paper's figures.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..cache.spec import PartitionSpec, TalusSpec
from ..core.misscurve import MissCurve
from ..core.talus import plan_shadow_partitions
from ..monitor.multipoint import MultiPointMonitor
from ..monitor.stack_distance import lru_miss_curve
from ..workloads.access import Trace
from ..workloads.scale import paper_mb_to_lines
from ..workloads.spec_profiles import AppProfile
from .reconfigure import config_mb_to_lines
from .sweep import DEFAULT_WAYS, SweepConfig, SweepSpec, run_sweep

__all__ = [
    "lru_mpki_curve",
    "simulated_mpki_curve",
    "monitored_mpki_curve",
    "talus_simulated_mpki_curve",
    "talus_sweep_configs",
    "plan_talus_spec",
    "simulate_policy_at_size",
    "DEFAULT_WAYS",
]


def lru_mpki_curve(trace: Trace, sizes_mb: Sequence[float]) -> MissCurve:
    """Exact (fully-associative) LRU MPKI curve of a trace via stack distance."""
    sizes_mb = np.asarray(list(sizes_mb), dtype=float)
    sizes_lines = np.array([paper_mb_to_lines(mb) for mb in sizes_mb], dtype=float)
    raw = lru_miss_curve(trace.addresses, sizes=sizes_lines)
    return MissCurve(sizes_mb, raw.misses * 1000.0 / trace.instructions)


def simulate_policy_at_size(trace: Trace, size_mb: float, policy: str,
                            ways: int = DEFAULT_WAYS,
                            backend: str = "auto") -> float:
    """MPKI of ``policy`` on ``trace`` at one cache size (paper MB)."""
    curve = simulated_mpki_curve(trace, [size_mb], policy, ways=ways,
                                 backend=backend)
    return float(curve.misses[0])


def simulated_mpki_curve(trace: Trace, sizes_mb: Sequence[float], policy: str,
                         ways: int = DEFAULT_WAYS,
                         backend: str = "auto",
                         max_workers: int = 1,
                         sampling=None) -> MissCurve:
    """Simulated MPKI curve of an arbitrary policy, batched over all sizes.

    All sizes are simulated from one materialized trace through
    :func:`repro.sim.sweep.run_sweep`; ``backend`` selects the simulation
    core ("object", "array" or "auto") and ``max_workers`` optionally sets
    the width of the threaded replay.  ``sampling=`` (a
    :class:`~repro.sampling.driver.SamplingSpec`) estimates each point
    from sampled detailed windows instead of an exact replay — the way
    to draw a curve from a trace too long to materialize (a
    :class:`~repro.workloads.scale.ChunkedTrace` is accepted directly).
    """
    spec = SweepSpec(sizes_mb=tuple(float(s) for s in sizes_mb),
                     policies=(policy,), ways=ways, backend=backend,
                     max_workers=max_workers)
    return run_sweep(trace, spec, sampling=sampling).mpki_curve(policy)


def monitored_mpki_curve(trace: Trace, sizes_mb: Sequence[float],
                         policy: str,
                         ways: int = DEFAULT_WAYS,
                         monitor_lines: int = 2048,
                         seed: int = 13,
                         backend: str = "auto") -> MissCurve:
    """Miss curve of ``policy`` as a multi-point monitor would measure it.

    This is the planning-curve source the paper's Sec. VI-C prescribes for
    non-stack policies: one set-sampled monitor per curve point
    (:class:`repro.monitor.multipoint.MultiPointMonitor`), driven here on
    the vectorized/native fast path.  The returned curve covers size 0 plus
    every requested size, in (paper MB, MPKI) units — the measured stand-in
    for :func:`simulated_mpki_curve`, with monitoring noise included.
    Sizes that collapse to the same simulated line count (below the
    half-line resolution of the paper-MB scale) share one monitor point
    and appear once, under the smallest such size.
    """
    size_map: dict[int, float] = {0: 0.0}
    for mb in sorted(set(float(s) for s in sizes_mb)):
        size_map.setdefault(paper_mb_to_lines(mb), mb)
    monitor = MultiPointMonitor(sorted(size_map), policy=policy, ways=ways,
                                monitor_lines=monitor_lines, seed=seed,
                                backend=backend)
    monitor.record_trace(trace.addresses)
    raw = monitor.miss_curve()   # points in ascending line order
    mpki = raw.misses * 1000.0 / trace.instructions
    sizes = [size_map[lines] for lines in sorted(size_map)]
    return MissCurve(np.asarray(sizes), np.asarray(mpki))


def talus_simulated_mpki_curve(profile: AppProfile,
                               sizes_mb: Sequence[float],
                               scheme: str = "vantage",
                               policy: str = "LRU",
                               planning_curve: MissCurve | None = None,
                               safety_margin: float = 0.05,
                               n_accesses: int | None = None,
                               seed: int = 0,
                               ways: int = DEFAULT_WAYS,
                               scheme_kwargs: dict | None = None,
                               backend: str = "auto",
                               ) -> MissCurve:
    """Simulated Talus MPKI curve on a partitioning scheme (Fig. 8 / Fig. 9).

    For each target size, a Talus configuration is planned from
    ``planning_curve`` (default: the profile's exact LRU curve — the role the
    UMONs play in hardware), packed into a
    :class:`~repro.cache.spec.TalusSpec`, and the profile's trace is
    replayed through the built cache.  All sizes ride one
    :func:`repro.sim.sweep.run_sweep` pass; on the (default) "auto"
    backend, way/set/ideal schemes with exact-tier policies replay in the
    partition-aware native kernel, bit-identical to the object model.

    Parameters
    ----------
    profile:
        Application profile supplying the trace.
    sizes_mb:
        Target cache sizes, paper MB.
    scheme:
        Partitioning scheme name ("ideal", "way", "set", "vantage").
    policy:
        Replacement policy inside the shadow partitions.
    planning_curve:
        Miss curve used for planning, in (paper MB, MPKI).  When monitoring
        a non-LRU policy, pass a curve measured with
        :class:`~repro.monitor.multipoint.MultiPointMonitor`.
    safety_margin:
        Sampling-rate margin (the paper's implementation uses 5 %).
    backend:
        Backend of the underlying partitioned caches ("object", "array"
        or "auto").
    """
    sizes_mb = sorted(set(float(s) for s in sizes_mb))
    trace = profile.trace(n_accesses=n_accesses) if n_accesses else profile.trace(seed=seed)
    if planning_curve is None:
        max_mb = max(max(sizes_mb) * 1.5, 1.0)
        planning_curve = profile.lru_curve(max_mb=max_mb)
    configs = talus_sweep_configs(sizes_mb, scheme=scheme, policy=policy,
                                  planning_curve=planning_curve,
                                  safety_margin=safety_margin, ways=ways,
                                  scheme_kwargs=scheme_kwargs,
                                  backend=backend)
    result = run_sweep(trace, configs)
    mpki_values = [result.mpki(("talus", size_mb)) for size_mb in sizes_mb]
    return MissCurve(np.asarray(sizes_mb), np.asarray(mpki_values))


def plan_talus_spec(size_mb: float,
                    planning_curve: MissCurve,
                    scheme: str = "vantage",
                    policy: str = "LRU",
                    safety_margin: float = 0.05,
                    ways: int = DEFAULT_WAYS,
                    backend: str = "auto",
                    scheme_kwargs: dict | None = None) -> TalusSpec:
    """Plan one Talus configuration and pack it as a declarative spec.

    The shadow-partition split is planned on ``planning_curve`` at the
    scheme's partitionable capacity (computed from the description alone
    via :func:`repro.cache.partition.partitionable_lines_for`, without
    building the cache) and converted to simulated lines; the result is a
    frozen, picklable :class:`~repro.cache.spec.TalusSpec` ready for
    ``build(spec)`` or a :class:`~repro.sim.sweep.SweepConfig`.
    """
    lines = paper_mb_to_lines(size_mb)
    partition = PartitionSpec(
        scheme=scheme, capacity_lines=lines, num_partitions=2,
        policy=policy, ways=ways, backend=backend,
        scheme_kwargs=tuple(sorted((scheme_kwargs or {}).items())))
    partitionable_mb = partition.partitionable_lines / paper_mb_to_lines(1.0)
    config = plan_shadow_partitions(planning_curve,
                                    min(size_mb, partitionable_mb)
                                    if partitionable_mb > 0 else size_mb,
                                    safety_margin=safety_margin)
    return TalusSpec(partition=partition,
                     configs=(config_mb_to_lines(config),))


def talus_sweep_configs(sizes_mb: Sequence[float],
                        scheme: str = "vantage",
                        policy: str = "LRU",
                        planning_curve: MissCurve | None = None,
                        safety_margin: float = 0.05,
                        ways: int = DEFAULT_WAYS,
                        scheme_kwargs: dict | None = None,
                        label: object = "talus",
                        backend: str = "auto") -> list[SweepConfig]:
    """Sweep configs for planned Talus caches, one per target size.

    Each config is ``(key, spec)``: the key is ``(label, size_mb)``, so
    several scheme/policy/margin variants can be concatenated into a
    single :func:`repro.sim.sweep.run_sweep` pass (the Fig. 8 harness and
    the ablations do exactly that), and the spec is the declarative
    :func:`plan_talus_spec` :class:`~repro.cache.spec.TalusSpec` on
    ``backend``.  Duplicate sizes are deduplicated; sizes that map to
    zero lines become ``spec=None`` points, which the sweep engine
    reports as all-miss — the trace's full miss rate, as the seed
    per-size loop did.
    """
    if planning_curve is None:
        raise ValueError("planning_curve is required")
    configs = []
    for size_mb in sorted(set(float(s) for s in sizes_mb)):
        spec = None
        if paper_mb_to_lines(size_mb) > 0:
            spec = plan_talus_spec(size_mb, planning_curve, scheme=scheme,
                                   policy=policy,
                                   safety_margin=safety_margin, ways=ways,
                                   backend=backend,
                                   scheme_kwargs=scheme_kwargs)
        configs.append(SweepConfig((label, size_mb), spec))
    return configs
