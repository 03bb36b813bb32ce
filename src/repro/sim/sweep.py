"""Batched sweep engine: many cache configurations, one trace pass.

Every figure of the paper is a *sweep* — a miss/MPKI curve over many cache
sizes, policies, or schemes.  The seed implementation replayed the full
trace once per point through the object-model cache; this module separates
the *what* from the *how*.  Every point is a :class:`SweepConfig`: a
result key plus the declarative spec of its cache (a
:class:`~repro.cache.spec.CacheSpec`, a
:class:`~repro.cache.spec.PartitionSpec` or a
:class:`~repro.cache.spec.TalusSpec`, or ``None`` for a zero-capacity
point).  A :class:`SweepSpec` expands a size × policy grid into such
points, and :func:`matrix_configs` a policy × scheme × size matrix.
Each spec's ``backend`` field picks its simulation core:

* ``object`` — the reference per-set policy-object model.  The configs
  of the sweep stream one after another over one decoded copy of the
  trace (the trace is materialized and decoded once, not once per point).
* ``array``  — the numpy/native array cache
  (:mod:`repro.cache.arraycache`): each config is one
  :class:`~repro.cache.threadbatch.ReplayTask` of a compiled kernel,
  typically 10-30x faster than the object model, and all of a sweep's
  tasks run in one native dispatch.  It needs the native kernel.
* ``auto``   — the array backend when the native kernel is available,
  the object model otherwise.  The two are bit-identical for every
  online policy and agree on Belady's miss counts, so this default only
  decides speed; ask for ``backend="object"`` explicitly to stream the
  reference model.

In-process, every batch-capable config becomes a
:class:`~repro.cache.threadbatch.ReplayTask` and the whole sweep is one
GIL-releasing ``batch_run_threaded`` call into the native kernel (width
from ``threads=``, else ``max_workers`` above 1, else ``REPRO_THREADS``
or the CPUs this process may run on); configs without a replay task
(object-model caches) stream serially.  ``supervise=True`` runs the
points in worker processes of the job runtime (:mod:`repro.jobs`)
instead, banked and retried.

Results are independent of the execution strategy: every point of a
seeded :class:`SweepSpec` derives its seed from ``(base_seed, policy,
size)``, so serial, batched, threaded and supervised runs all agree bit
for bit.

Example
-------
>>> spec = SweepSpec(sizes_mb=(1, 2, 4, 8), policies=("LRU", "SRRIP"))
>>> result = run_sweep(trace, spec)
>>> result.mpki_curve("LRU")        # MissCurve over the four sizes
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Hashable, Sequence

import numpy as np

from ..cache._native import resolve_threads
from ..cache.cache import CacheStats
from ..cache.factory import BACKENDS, SEEDED_POLICIES
from ..cache.hashing import derive_seed
from ..cache.spec import CacheSpec, PartitionSpec, TalusSpec
from ..cache.threadbatch import run_tasks
from ..core.misscurve import MissCurve
from ..workloads.access import Trace
from ..workloads.scale import paper_mb_to_lines
from ..workloads.tracestore import TraceStore

__all__ = ["SweepConfig", "SweepSpec", "SweepResult", "sweep_configs",
           "run_sweep", "run_matrix_sweep", "matrix_cells", "matrix_configs",
           "MATRIX_SCHEMES", "DEFAULT_WAYS"]

#: Default associativity of simulated caches (scaled stand-in for the
#: paper's 32-way LLC).
DEFAULT_WAYS = 16


def _derive_seed(base_seed: int, policy: str, size_mb: float) -> int:
    """Deterministic per-config seed, a stable function of the point itself.

    Deriving from ``(policy, size)`` rather than the config's position in
    the sweep makes seeds independent of execution order and sweep
    composition: a point simulated alone, in a batched sweep, or in a
    supervised worker always draws the same stream.  (The shared
    primitive is :func:`repro.cache.hashing.derive_seed`; the sampling
    driver derives its per-window seeds the same way.)
    """
    return derive_seed(base_seed, f"{policy}|{float(size_mb)!r}")


@dataclass(frozen=True)
class SweepConfig:
    """One point of a sweep: a result key plus the spec of its cache.

    ``spec`` is a :class:`~repro.cache.spec.CacheSpec`, a
    :class:`~repro.cache.spec.PartitionSpec` or a
    :class:`~repro.cache.spec.TalusSpec`, each carrying its own backend,
    or ``None`` for a zero-capacity point, which every path reports as
    all-miss.  A partitioned point replays every access into partition
    0 and reports the sum of its partitions.  Specs are frozen
    dataclasses of plain values, so every point can bank under its
    content key in a supervised job (and a cache or Talus point can be
    sampled), and equal specs describe equal points.
    """

    key: Hashable
    spec: CacheSpec | PartitionSpec | TalusSpec | None

    def __post_init__(self):
        if self.spec is not None and not isinstance(
                self.spec, (CacheSpec, PartitionSpec, TalusSpec)):
            raise TypeError(
                f"a sweep point's spec must be a CacheSpec, a "
                f"PartitionSpec, a TalusSpec or None, got "
                f"{type(self.spec).__name__}")

    def build(self, trace=None):
        """Instantiate this point's cache.

        ``trace`` is attached to an offline (Belady) spec that does not
        already carry one — MIN replays exactly the sweep's trace.
        """
        spec = self.spec
        if (trace is not None and isinstance(spec, CacheSpec)
                and spec.policy == "Belady" and spec.trace is None):
            spec = spec.with_trace(trace)
        return spec.build()


@dataclass(frozen=True)
class SweepSpec:
    """A full sweep: the cross product of sizes and policies.

    Parameters
    ----------
    sizes_mb:
        Target cache sizes in paper MB (deduplicated and sorted).
    policies:
        Replacement policies to sweep (one full size-curve each).
    ways:
        Associativity of every simulated cache.
    backend:
        "object", "array" or "auto" (see module docstring).
    max_workers:
        Above 1, the thread width when no explicit ``threads=`` is given,
        and the worker count of a supervised sweep.
    base_seed:
        Root of the deterministic per-config seed derivation for policies
        with randomized behaviour.  ``None`` (the default) keeps every
        policy's historical default seed, so sweeps reproduce the
        one-run-per-size reference exactly.
    """

    sizes_mb: tuple[float, ...]
    policies: tuple[str, ...] = ("LRU",)
    ways: int = DEFAULT_WAYS
    backend: str = "auto"
    max_workers: int = 1
    base_seed: int | None = None

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; "
                             f"known: {BACKENDS}")
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if not self.policies:
            raise ValueError("policies must not be empty")
        sizes = tuple(sorted(set(float(s) for s in self.sizes_mb)))
        if not sizes:
            raise ValueError("sizes_mb must not be empty")
        object.__setattr__(self, "sizes_mb", sizes)
        object.__setattr__(self, "policies", tuple(self.policies))

    def expand(self) -> tuple[SweepConfig, ...]:
        """All sweep points, keyed ``(policy, size_mb)``.

        Each point is a :class:`~repro.cache.spec.CacheSpec` carrying the
        sweep's ``ways``, its backend unresolved (a worker resolves
        "auto" where it runs) and the point's derived seed; a size that
        maps to zero lines is a ``spec=None`` all-miss point.
        """
        configs = []
        for policy in self.policies:
            for size_mb in self.sizes_mb:
                lines = paper_mb_to_lines(size_mb)
                seed = (None if self.base_seed is None
                        else _derive_seed(self.base_seed, policy, size_mb))
                spec = None if lines <= 0 else CacheSpec(
                    capacity_lines=lines, ways=self.ways, policy=policy,
                    backend=self.backend, seed=seed)
                configs.append(SweepConfig((policy, size_mb), spec))
        return tuple(configs)


def sweep_configs(spec: SweepSpec | Sequence[SweepConfig],
                  backend: str | None = None) -> tuple[SweepConfig, ...]:
    """The points of a sweep, with unique keys.

    A :class:`SweepSpec` expands with ``backend`` (when given) in place
    of its own.  A config sequence is taken as is: each point's spec
    carries its own backend, so a ``backend`` there raises
    :class:`ValueError` instead of being ignored.
    """
    if isinstance(spec, SweepSpec):
        if backend is not None:
            spec = replace(spec, backend=backend)
        configs = spec.expand()
    elif backend is not None:
        raise ValueError(
            "backend= overrides a SweepSpec only; each SweepConfig's spec "
            "carries its own backend")
    else:
        configs = tuple(spec)
    keys = [config.key for config in configs]
    if len(set(keys)) != len(keys):
        raise ValueError("sweep config keys must be unique")
    return configs


class SweepResult:
    """Per-config statistics of a sweep, with curve helpers."""

    def __init__(self, stats: dict[Hashable, CacheStats],
                 instructions: int = 0):
        self.stats = stats
        self.instructions = instructions
        #: Per-config :class:`~repro.sampling.estimator.SampledResult`
        #: when the sweep ran with ``sampling=`` (else empty).  The
        #: entry is ``None`` for analytic points (zero capacity).
        self.sampled: dict[Hashable, object] = {}

    def __getitem__(self, key: Hashable) -> CacheStats:
        return self.stats[key]

    def __len__(self) -> int:
        return len(self.stats)

    def misses(self, key: Hashable) -> int:
        """Miss count of one sweep point."""
        return self.stats[key].misses

    def mpki(self, key: Hashable) -> float:
        """MPKI of one sweep point (needs trace instructions)."""
        stats = self.stats[key]
        instructions = stats.instructions or self.instructions
        if instructions <= 0:
            raise ValueError("instructions not recorded; cannot compute MPKI")
        return 1000.0 * stats.misses / instructions

    def mpki_curve(self, policy: str) -> MissCurve:
        """MPKI miss curve over all sizes recorded for ``policy``."""
        sizes = sorted(k[1] for k in self.stats
                       if isinstance(k, tuple) and len(k) == 2
                       and k[0] == policy)
        if not sizes:
            raise KeyError(f"no sweep points for policy {policy!r}")
        return MissCurve(np.asarray(sizes, dtype=float),
                         np.asarray([self.mpki((policy, s)) for s in sizes]))


def _extract_stats(cache) -> CacheStats:
    """Statistics of any cache organization the sweep can drive (a
    partitioned cache sums its partitions)."""
    stats = getattr(cache, "stats", None)
    if isinstance(stats, CacheStats):
        return stats
    logical = getattr(cache, "logical_stats", None)
    if logical:
        return logical[0]
    if hasattr(cache, "partition_stats"):
        return cache.total_stats()
    raise TypeError(f"cannot extract stats from {type(cache).__name__}")


def _all_miss_stats(n_accesses: int) -> CacheStats:
    """A zero-capacity config: every access misses."""
    return CacheStats(accesses=n_accesses, hits=0, misses=n_accesses)


def _replay_object(cache, trace: list, partitioned: bool) -> None:
    """Replay a decoded trace through one object-model cache; a
    partitioned cache takes every access into partition 0."""
    access = cache.access
    if partitioned:
        for a in trace:
            access(a, 0)
    else:
        for a in trace:
            access(a)


def _simulate_points(addrs: np.ndarray, configs: Sequence[SweepConfig],
                     threads: int) -> list[tuple[Hashable, CacheStats]]:
    """Simulate every config over one trace pass.

    Every batch-capable config becomes a :class:`ReplayTask` and the
    tasks execute as one native dispatch of width ``threads``
    (bit-identical at any width).  The remaining (object-model) configs
    stream over one decoded copy of the trace.  A partitioned point
    replays every access into partition 0.
    """
    zeros = (np.zeros(addrs.size, dtype=np.int64)
             if any(isinstance(c.spec, PartitionSpec) for c in configs)
             else None)
    out = []
    batched, tasks, streamed = [], [], []
    for config in configs:
        if config.spec is None:
            out.append((config.key, _all_miss_stats(int(addrs.size))))
            continue
        cache = config.build(addrs)
        partitioned = isinstance(config.spec, PartitionSpec)
        if partitioned and hasattr(cache, "replay_task"):
            tasks.append(cache.replay_task(addrs, zeros))
        elif not partitioned and getattr(cache, "supports_batch_replay",
                                         False):
            tasks.append(cache.replay_task(addrs))
        else:
            streamed.append((config.key, cache, partitioned))
            continue
        batched.append((config.key, cache))
    if tasks:
        run_tasks(tasks, threads=threads)
        out.extend((key, _extract_stats(cache)) for key, cache in batched)
    if streamed:
        # One cache at a time keeps each call site monomorphic, which
        # streams faster than advancing every cache per access.
        trace = addrs.tolist()
        for key, cache, partitioned in streamed:
            _replay_object(cache, trace, partitioned)
            out.append((key, _extract_stats(cache)))
    return out


def _run_sweep_sampled(trace, configs, sampling, *, max_workers: int,
                       threads: int | None, supervise: bool,
                       bank) -> SweepResult:
    """The ``sampling=`` execution path of :func:`run_sweep`.

    Each config's MPKI comes from a sampled estimate
    (:func:`repro.sampling.driver.run_sampled`) instead of an exact
    replay; parallelism applies across each config's detailed windows.
    The trace may be a :class:`~repro.workloads.scale.ChunkedTrace` —
    it is never materialized.
    """
    from ..sampling.driver import _as_view, run_sampled
    view = _as_view(trace)
    n = view.n_accesses
    instructions = int(view.instructions)
    stats: dict[Hashable, CacheStats] = {}
    sampled: dict[Hashable, object] = {}
    for config in configs:
        if config.spec is None:
            stats[config.key] = _all_miss_stats(n)
            stats[config.key].instructions = instructions
            sampled[config.key] = None
            continue
        result = run_sampled(
            trace, config.spec, sampling, threads=threads,
            max_workers=max_workers, supervise=supervise, bank=bank)
        sampled[config.key] = result
        misses = int(round(result.estimated_misses))
        stats[config.key] = CacheStats(
            accesses=n, hits=n - misses, misses=misses,
            instructions=instructions)
    out = SweepResult(stats, instructions=instructions)
    out.sampled = sampled
    return out


#: Partitioning schemes :func:`run_matrix_sweep` covers.  "none" is a plain
#: (unpartitioned) set-associative cache; futility scaling is excluded —
#: it is the one scheme with no array counterpart, so it cannot join the
#: single threaded dispatch (sweep it separately with ``backend="object"``).
MATRIX_SCHEMES = ("none", "way", "set", "ideal", "vantage")


def matrix_cells(sizes_mb: Sequence[float],
                 policies: Sequence[str],
                 schemes: Sequence[str] = MATRIX_SCHEMES
                 ) -> tuple[tuple[str, str, float], ...]:
    """The ``(policy, scheme, size_mb)`` cells of a matrix sweep.

    One tuple per sweep point, in the deterministic order
    :func:`matrix_configs` builds (and keys) them.  Belady is offline
    with no partitioned organization, so its cells exist for scheme
    ``"none"`` only — other schemes simply skip it.
    """
    cells = []
    for policy in policies:
        for scheme in schemes:
            if scheme not in MATRIX_SCHEMES:
                raise ValueError(
                    f"unknown matrix scheme {scheme!r}; known: "
                    f"{MATRIX_SCHEMES} (futility scaling has no array "
                    f"counterpart; sweep it separately with "
                    f"backend='object')")
            if policy == "Belady" and scheme != "none":
                continue
            for size_mb in sizes_mb:
                cells.append((policy, scheme, float(size_mb)))
    if not cells:
        raise ValueError("the matrix is empty: no (policy, scheme, size) "
                         "cells to simulate")
    return tuple(cells)


def matrix_configs(sizes_mb: Sequence[float],
                   policies: Sequence[str],
                   schemes: Sequence[str] = MATRIX_SCHEMES, *,
                   num_partitions: int = 1,
                   ways: int = DEFAULT_WAYS,
                   backend: str = "auto",
                   seed: int | None = None) -> tuple[SweepConfig, ...]:
    """The sweep points of a policy × scheme × size matrix.

    One point per :func:`matrix_cells` cell, keyed by the cell: a
    :class:`~repro.cache.spec.CacheSpec` for scheme ``"none"`` (Belady
    without a trace; :meth:`SweepConfig.build` attaches the sweep's),
    else a :class:`~repro.cache.spec.PartitionSpec` of ``num_partitions``
    partitions.  A seeded policy draws a seed derived from ``(seed,
    policy, scheme, size)``, so a cell gives the same result alone, in
    any shard, or in the whole matrix.
    """
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    configs = []
    for cell in matrix_cells(sizes_mb, policies, schemes):
        policy, scheme, size_mb = cell
        capacity = paper_mb_to_lines(size_mb)
        cell_seed = (None if seed is None or policy not in SEEDED_POLICIES
                     else _derive_seed(seed, f"{policy}|{scheme}", size_mb))
        if scheme == "none":
            spec = CacheSpec(capacity_lines=capacity, ways=ways,
                             policy=policy, backend=backend, seed=cell_seed)
        else:
            spec = PartitionSpec(
                scheme=scheme, capacity_lines=capacity,
                num_partitions=num_partitions, policy=policy, ways=ways,
                backend=backend,
                policy_kwargs=() if cell_seed is None
                else (("seed", cell_seed),))
        configs.append(SweepConfig(cell, spec))
    return tuple(configs)


def run_matrix_sweep(trace: Trace | np.ndarray | Sequence[int],
                     *, sizes_mb: Sequence[float],
                     policies: Sequence[str] = ("LRU",),
                     schemes: Sequence[str] = MATRIX_SCHEMES,
                     num_partitions: int = 1,
                     ways: int = DEFAULT_WAYS,
                     backend: str = "auto",
                     threads: int | None = None,
                     seed: int | None = None,
                     trace_store: TraceStore | None = None) -> SweepResult:
    """Sweep the whole policy × scheme × size matrix in one threaded pass.

    :func:`run_sweep` over :func:`matrix_configs`: every cell — each
    replacement policy on each partitioning scheme at each size — becomes
    one :class:`~repro.cache.threadbatch.ReplayTask` over one address
    array, and the entire matrix executes as a single GIL-releasing
    ``batch_run_threaded`` dispatch.  Results are keyed ``(policy,
    scheme, size_mb)`` and are bit-identical at any thread width.  A
    partitioned cell replays every access into partition 0.

    ``backend="object"`` (and ``"auto"`` without the native kernel)
    instead streams every cell, one after another, through the reference
    object model on one core — the baseline
    ``benchmarks/bench_matrix_sweep.py`` measures the threaded matrix
    against.  A supervised, banked matrix is ``run_sweep(trace,
    matrix_configs(...), supervise=True, bank=...)``.  ``trace_store``
    is accepted and unused; it stays only because the committed
    benchmark (``perfbench/workloads.py``) passes one.
    """
    del trace_store
    configs = matrix_configs(sizes_mb, policies, schemes,
                             num_partitions=num_partitions, ways=ways,
                             backend=backend, seed=seed)
    return run_sweep(trace, configs, threads=threads)


def run_sweep(trace: Trace | np.ndarray | Sequence[int],
              spec: SweepSpec | Sequence[SweepConfig],
              *, backend: str | None = None,
              max_workers: int | None = None,
              threads: int | None = None,
              supervise: bool = False,
              bank=None,
              sampling=None) -> SweepResult:
    """Simulate every config of ``spec`` against ``trace``.

    The trace is materialized once; all configs consume the same address
    array.  Each point builds from its own spec: object-model caches
    stream one after another and array caches replay in the native
    kernel; a partitioned point replays every access into partition 0.
    ``max_workers`` overrides the spec's; ``backend`` overrides a
    :class:`SweepSpec`'s backend and raises :class:`ValueError` with a
    config sequence, whose specs carry their own (see
    :func:`sweep_configs`).

    All batch-capable configs execute in one threaded native dispatch of
    width ``threads``, else ``max_workers`` when it is above 1, else
    ``REPRO_THREADS`` or the CPUs this process may run on.  Results are
    bit-identical at any width.

    ``supervise=True`` (default off, preserving the in-process fast
    path) routes the sweep through the fault-tolerant job runtime
    (:mod:`repro.jobs`): supervised worker processes with heartbeat
    watchdogs and bounded retry, per-point results banked in ``bank``
    under their spec's content key so interrupted sweeps resume; results
    are bit-identical to the in-process path.

    ``sampling=`` (a :class:`~repro.sampling.driver.SamplingSpec`)
    switches every config to a *sampled* estimate: detailed windows out
    of the trace instead of an exact replay, with per-config
    :class:`~repro.sampling.estimator.SampledResult` objects (point
    estimate + confidence interval) in the returned result's
    ``.sampled`` dict.  The trace may then be a
    :class:`~repro.workloads.scale.ChunkedTrace` of 10^8+ accesses — it
    is never materialized.  ``supervise``/``bank`` compose with it
    (per-window banking).
    """
    if supervise and sampling is None:
        from ..jobs.drivers import run_supervised
        from ..jobs.payloads import sweep_points
        points = sweep_points(trace, spec, backend)
        workers = (max_workers if max_workers is not None
                   else getattr(spec, "max_workers", 2))
        stats = dict(zip((point.key for point in points), run_supervised(
            points, shards=workers, max_workers=workers, bank=bank)))
        return SweepResult(stats, instructions=max(
            (s.instructions for s in stats.values()), default=0))
    configs = sweep_configs(spec, backend)
    if max_workers is None:
        max_workers = getattr(spec, "max_workers", 1)
    if sampling is not None:
        return _run_sweep_sampled(
            trace, configs, sampling, max_workers=max_workers,
            threads=threads, supervise=supervise, bank=bank)
    if isinstance(trace, Trace):
        addrs = np.ascontiguousarray(trace.addresses, dtype=np.int64)
        instructions = trace.instructions
    else:
        addrs = np.ascontiguousarray(np.asarray(trace, dtype=np.int64))
        instructions = 0
    if addrs.ndim != 1:
        raise ValueError("trace must be one-dimensional")

    width = resolve_threads(
        threads if threads is not None
        else (max_workers if max_workers > 1 else None))
    stats = dict(_simulate_points(addrs, configs, threads=width))
    for config_stats in stats.values():
        if instructions and not config_stats.instructions:
            config_stats.instructions = instructions
    return SweepResult(stats, instructions=instructions)
