"""Sampled simulation driver: detailed windows out of a long trace.

The pFSA/SMARTS recipe for traces too long to replay exactly:

1. place *detailed windows* through the trace (:class:`SamplingSpec`:
   window length plus an inter-window gap or a target window count);
2. warm each window's cache state — either per-window
   (``warming="window"``: replay a bounded warmup prefix into a cold
   cache and discard its statistics) or by a serial *functional
   fast-forward* pass that streams the whole trace once and emits a
   :class:`~repro.sampling.checkpoint.CacheCheckpoint` at every window
   boundary (``warming="checkpoint"``);
3. simulate the windows in detail as threaded native batches
   (:func:`~repro.cache.threadbatch.run_tasks`; a cache without a
   replay task replays them serially);
4. aggregate the per-window miss rates into a point estimate with a
   confidence interval (:class:`~repro.sampling.estimator.SampledResult`).

``warming="window"`` is what buys wall-clock speedup: only
``n_windows * (warmup + window)`` accesses are ever simulated (and, for
a :class:`ChunkedTrace`, *generated*).  ``warming="checkpoint"`` still
pays one full-speed pass but yields *exact* warm state — every window
then reproduces the uninterrupted replay bit for bit, which is how the
tests prove the checkpoint layer end to end — and is the natural mode
when many policies/sizes will be sampled from the same warmed positions.
In this codebase the fast-forward runs at full fidelity: the array
kernels are already tag/recency-only (there is no data state to skip),
so reduced-fidelity warming would change nothing.

Determinism: windows draw per-window seeds through the shared
identity-derived helper (:func:`repro.cache.hashing.derive_seed`, token
``"sampling-window|<start>"``) — a function of the window's *position*,
never of execution order, worker identity or resume history — so
serial, threaded, supervised and resumed-from-bank runs are
bit-identical.

``supervise=True`` routes the windows through the fault-tolerant job
runtime (:mod:`repro.jobs`), the one way to run them in worker
processes: each window banks under its own content address, so a
SIGKILLed worker resumes mid-estimate without recomputing finished
windows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..cache._native import resolve_threads
from ..cache.cache import CacheStats
from ..cache.factory import SEEDED_POLICIES
from ..cache.hashing import derive_seed
from ..cache.spec import CacheSpec, PartitionSpec, TalusSpec, build
from ..cache.talus_cache import TalusCache
from ..cache.threadbatch import run_tasks
from ..workloads.access import Trace
from ..workloads.scale import ChunkedTrace
from .checkpoint import CacheCheckpoint, snapshot
from .estimator import SampledResult, WindowResult

__all__ = ["SamplingSpec", "run_sampled", "run_exact", "warm_checkpoints",
           "window_seed"]

WARMING_MODES = ("window", "checkpoint")

#: Fast-forward / exact-replay streaming chunk (accesses per step).
DEFAULT_CHUNK = 1 << 16


def window_seed(base_seed: int, start: int) -> int:
    """Identity-derived seed of the window at trace position ``start``."""
    return derive_seed(base_seed, f"sampling-window|{int(start)}")


@dataclass(frozen=True)
class SamplingSpec:
    """Declarative description of one sampled replay.

    Exactly one of ``gap`` (accesses skipped between consecutive
    windows) or ``n_windows`` (evenly spaced window count) places the
    windows; ``offset`` shifts the first window (set it to at least
    ``warmup`` so even the first window gets a full warmup prefix).
    """

    window: int                 #: detailed window length in accesses
    gap: int | None = None      #: accesses between consecutive windows
    n_windows: int | None = None  #: alternatively: evenly spaced count
    warmup: int | None = None   #: per-window warmup accesses
    confidence: float = 0.95    #: two-sided confidence level of the CI
    warming: str = "window"     #: "window" | "checkpoint"
    offset: int = 0             #: trace position of the first window
    base_seed: int | None = None  #: root of per-window seed derivation

    def __post_init__(self):
        if self.window <= 0:
            raise ValueError("window must be positive")
        if (self.gap is None) == (self.n_windows is None):
            raise ValueError("set exactly one of gap= or n_windows=")
        if self.gap is not None and self.gap < 0:
            raise ValueError("gap must be non-negative")
        if self.n_windows is not None and self.n_windows <= 0:
            raise ValueError("n_windows must be positive")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if self.warming not in WARMING_MODES:
            raise ValueError(f"warming must be one of {WARMING_MODES}, "
                             f"got {self.warming!r}")
        if self.offset < 0:
            raise ValueError("offset must be non-negative")
        if self.warmup is not None and self.warmup < 0:
            raise ValueError("warmup must be non-negative")

    @property
    def warmup_accesses(self) -> int:
        """Effective warmup length (default: two windows; 0 when the
        checkpoint pass provides exact warm state)."""
        if self.warmup is not None:
            return self.warmup
        return 2 * self.window if self.warming == "window" else 0

    def windows_for(self, n_accesses: int) -> tuple[tuple[int, int], ...]:
        """Systematic ``(start, stop)`` window placement over a trace."""
        w = self.window
        if self.offset + w > n_accesses:
            raise ValueError(
                f"trace of {n_accesses} accesses cannot fit one "
                f"{w}-access window at offset {self.offset}")
        if self.n_windows is not None:
            span = n_accesses - self.offset
            period = max(w, span // self.n_windows)
            starts = [self.offset + k * period
                      for k in range(self.n_windows)]
            starts = [s for s in starts if s + w <= n_accesses]
        else:
            starts = list(range(self.offset, n_accesses - w + 1,
                                w + self.gap))
        return tuple((s, s + w) for s in starts)


# --------------------------------------------------------------------- #
# Trace views: uniform random access over every trace flavour
# --------------------------------------------------------------------- #
@dataclass
class _ArrayView:
    addresses: np.ndarray
    instructions: int = 0

    @property
    def n_accesses(self) -> int:
        return int(self.addresses.size)

    def segment(self, start: int, stop: int) -> np.ndarray:
        return self.addresses[max(0, start):stop]


def _as_view(trace):
    """Anything the driver accepts -> an object with ``segment``/
    ``n_accesses``/``instructions`` (ChunkedTrace already is one)."""
    if isinstance(trace, ChunkedTrace):
        return trace
    if isinstance(trace, _ArrayView):
        return trace
    if isinstance(trace, Trace):
        return _ArrayView(
            np.ascontiguousarray(trace.addresses, dtype=np.int64),
            int(trace.instructions))
    addrs = np.ascontiguousarray(np.asarray(trace, dtype=np.int64))
    if addrs.ndim != 1:
        raise ValueError("trace must be one-dimensional")
    return _ArrayView(addrs)


def _check_cache_spec(cache):
    if isinstance(cache, (CacheSpec, TalusSpec)):
        return cache
    if isinstance(cache, PartitionSpec):
        raise ValueError(
            "run_sampled drives single-stream caches; a bare PartitionSpec "
            "needs per-access partition ids — wrap it in a TalusSpec or "
            "sample each partition's stream separately")
    raise TypeError(f"cache must be a CacheSpec or TalusSpec, "
                    f"got {type(cache).__name__}")


def _spec_with_seed(cache, seed):
    if seed is None or not isinstance(cache, CacheSpec):
        return cache
    return replace(cache, seed=seed)


def _seeded(cache) -> bool:
    return isinstance(cache, CacheSpec) and cache.policy in SEEDED_POLICIES


def _replay(cache, addrs) -> None:
    if len(addrs) == 0:
        return
    if isinstance(cache, TalusCache):
        cache.run(addrs, 0)
    else:
        cache.run(addrs)


def _replay_task(cache, addrs):
    """This cache's ReplayTask for ``addrs``, or ``None`` when the cache
    has no batch entry point (object backend) — callers then fall back
    to the serial path, as :mod:`repro.sim.sweep` does."""
    maker = getattr(cache, "replay_task", None)
    if maker is None:
        return None
    if isinstance(cache, TalusCache):
        return maker(addrs, 0)
    return maker(addrs)


def _counts(cache) -> tuple[int, int]:
    """(accesses, misses) consumed by ``cache`` so far."""
    stats = (cache.total_stats() if isinstance(cache, TalusCache)
             else cache.stats)
    return int(stats.accesses), int(stats.misses)


# --------------------------------------------------------------------- #
# Window units (shared by the in-process and supervised paths)
# --------------------------------------------------------------------- #
def window_units(spec: SamplingSpec, cache, n_accesses: int) -> tuple:
    """Per-window work units ``(index, warm_start, start, stop, seed)``.

    Seeds are derived here, in the parent, as a pure function of window
    identity — executors (threads, supervised workers, bank resumes)
    receive them readymade and cannot diverge.
    """
    windows = spec.windows_for(n_accesses)
    warmup = spec.warmup_accesses
    seeded = spec.base_seed is not None and _seeded(cache)
    units = []
    for index, (start, stop) in enumerate(windows):
        seed = window_seed(spec.base_seed, start) if seeded else None
        units.append((index, start - min(warmup, start), start, stop, seed))
    return tuple(units)


def simulate_window_units(source, cache, units) -> list[tuple]:
    """Replay window units against ``source`` (the serial path and the
    supervised worker's unit).

    ``source`` may be a ChunkedTrace, Trace or address array; returns
    ``(index, start, accesses, misses, warmup)`` tuples.
    Pure function of its arguments — every execution strategy funnels
    through it (or through its threaded twin) and agrees bit for bit.
    """
    view = _as_view(source)
    out = []
    for index, warm_start, start, stop, seed in units:
        replayer = build(_spec_with_seed(cache, seed))
        _replay(replayer, view.segment(warm_start, start))
        a0, m0 = _counts(replayer)
        _replay(replayer, view.segment(start, stop))
        a1, m1 = _counts(replayer)
        out.append((index, start, a1 - a0, m1 - m0, start - warm_start))
    return out


def _simulate_windows_threaded(view, cache, units, threads) -> list[tuple]:
    """Threaded twin of :func:`simulate_window_units`: two native batch
    dispatches (all warmups, then all windows) over per-window caches."""
    caches = [build(_spec_with_seed(cache, seed))
              for _, _, _, _, seed in units]
    if not caches or getattr(caches[0], "replay_task", None) is None:
        return simulate_window_units(view, cache, units)
    warm_tasks = []
    for replayer, (_, warm_start, start, _, _) in zip(caches, units):
        seg = view.segment(warm_start, start)
        if len(seg):
            warm_tasks.append(_replay_task(replayer, seg))
    if warm_tasks:
        run_tasks(warm_tasks, threads=threads)
    baselines = [_counts(replayer) for replayer in caches]
    run_tasks([_replay_task(replayer, view.segment(start, stop))
               for replayer, (_, _, start, stop, _) in zip(caches, units)],
              threads=threads)
    out = []
    for replayer, (index, warm_start, start, stop, _), (a0, m0) in zip(
            caches, units, baselines):
        a1, m1 = _counts(replayer)
        out.append((index, start, a1 - a0, m1 - m0, start - warm_start))
    return out


def _simulate_checkpoints(view, checkpoints, window: int,
                          threads: int) -> list[tuple]:
    """Replay the window after each checkpoint from its exact warm state:
    one native batch of width ``threads``, or serially when the cache has
    no replay task."""
    caches = [ckpt.build() for ckpt in checkpoints]
    baselines = [_counts(replayer) for replayer in caches]
    segments = [view.segment(ckpt.position, ckpt.position + window)
                for ckpt in checkpoints]
    if caches and getattr(caches[0], "replay_task", None) is not None:
        run_tasks([_replay_task(replayer, seg)
                   for replayer, seg in zip(caches, segments)],
                  threads=threads)
    else:
        for replayer, seg in zip(caches, segments):
            _replay(replayer, seg)
    out = []
    for index, (replayer, ckpt, (a0, m0)) in enumerate(
            zip(caches, checkpoints, baselines)):
        a1, m1 = _counts(replayer)
        out.append((index, ckpt.position, a1 - a0, m1 - m0, 0))
    return out


# --------------------------------------------------------------------- #
# Functional-warming fast-forward
# --------------------------------------------------------------------- #
def warm_checkpoints(trace, cache, spec: SamplingSpec, *,
                     chunk: int = DEFAULT_CHUNK) -> list[CacheCheckpoint]:
    """Stream the trace once, emitting a checkpoint at each window start.

    The serial functional-warming pass of ``warming="checkpoint"``: the
    cache consumes every access (windows included — state at window
    ``k`` reflects the full prefix), and the returned checkpoints carry
    ``position`` = the window's start.  The trace is consumed in
    ``chunk``-access steps, so a :class:`ChunkedTrace` is never
    materialized.
    """
    _check_cache_spec(cache)
    view = _as_view(trace)
    windows = spec.windows_for(view.n_accesses)
    replayer = build(cache)
    checkpoints = []
    pos = 0
    for start, _ in windows:
        while pos < start:
            step = min(chunk, start - pos)
            _replay(replayer, view.segment(pos, pos + step))
            pos += step
        checkpoints.append(snapshot(replayer, position=start))
    return checkpoints


def run_exact(trace, cache, *, chunk: int = DEFAULT_CHUNK) -> CacheStats:
    """Exact streaming replay of the whole trace (the validation
    baseline for :func:`run_sampled`; works on a ChunkedTrace without
    materializing it)."""
    _check_cache_spec(cache)
    view = _as_view(trace)
    replayer = build(cache)
    pos = 0
    while pos < view.n_accesses:
        _replay(replayer, view.segment(pos, pos + chunk))
        pos += chunk
    accesses, misses = _counts(replayer)
    return CacheStats(accesses=accesses, hits=accesses - misses,
                      misses=misses, instructions=view.instructions)


# --------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------- #
def run_sampled(trace, cache, spec: SamplingSpec, *,
                threads: int | None = None,
                max_workers: int | None = None,
                supervise: bool = False, bank=None) -> SampledResult:
    """Estimate ``cache``'s MPKI on ``trace`` from sampled windows.

    Parameters mirror :func:`repro.sim.sweep.run_sweep`: in-process, the
    windows replay as GIL-releasing native batches of width ``threads``,
    else ``max_workers`` when it is above 1, else ``REPRO_THREADS`` or
    the CPUs this process may run on; ``supervise=True`` runs them in
    ``max_workers`` processes of the fault-tolerant job runtime with
    per-window banking in ``bank``.  Results are bit-identical across
    all execution strategies.

    Returns a :class:`~repro.sampling.estimator.SampledResult`; compare
    against :func:`run_exact` with ``result.error_vs_exact(...)``.
    """
    _check_cache_spec(cache)
    view = _as_view(trace)
    n = view.n_accesses
    max_workers = max_workers if max_workers is not None else 1
    if supervise:
        if spec.warming == "checkpoint":
            raise ValueError(
                "warming='checkpoint' is a serial validation pass and is "
                "not supervised; use warming='window' with supervise=True")
        from ..jobs.drivers import run_supervised
        from ..jobs.payloads import SampledWindow, as_trace_source
        source = as_trace_source(trace)
        units = window_units(spec, cache, n)
        counts = run_supervised(
            [SampledWindow(source, cache, unit[1:]) for unit in units],
            shards=max_workers, max_workers=max_workers, bank=bank)
        rows = [(index, start, accesses, misses, start - warm_start)
                for (index, warm_start, start, _, _), (accesses, misses)
                in zip(units, counts)]
    else:
        width = resolve_threads(
            threads if threads is not None
            else (max_workers if max_workers > 1 else None))
        if spec.warming == "checkpoint":
            rows = _simulate_checkpoints(
                view, warm_checkpoints(trace, cache, spec), spec.window,
                width)
        else:
            rows = _simulate_windows_threaded(
                view, cache, window_units(spec, cache, n), width)

    windows = tuple(WindowResult(index=index, start=start,
                                 accesses=accesses, misses=misses,
                                 warmup_accesses=warmup)
                    for index, start, accesses, misses, warmup
                    in sorted(rows))
    return SampledResult(windows=windows, total_accesses=n,
                         instructions=view.instructions,
                         confidence=spec.confidence, warming=spec.warming)
