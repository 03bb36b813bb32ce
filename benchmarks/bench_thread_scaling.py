"""Thread scaling of the batched native dispatcher.

The tentpole claim of the threaded runtime: N independent config replays
through ``batch_run_threaded`` scale with the worker-thread width, beat
the process pool at equal parallelism (no fork, no IPC, no per-worker
kernel reload — the threads share one address space and attach the same
trace), and change **nothing** about the results.  This benchmark replays
one sweep-shaped batch of array-cache configs four ways:

* **serial**   — the per-config serial entry points (``cache.run``),
  each one width-1 dispatch of that cache's own replay task;
* **threads=1** — all configs' tasks in one dispatch at width 1 (the
  serial loop inside the kernel: measures pure dispatch overhead);
* **threads=N** — the batched dispatcher at the host width
  (``REPRO_THREADS`` aware);
* **processes** — ``run_sweep(parallel="processes")`` over the same
  configs with N pool workers, traces routed through the
  :class:`~repro.workloads.tracestore.TraceStore` memmap path.

Record identity between all four is asserted unconditionally — on every
host, with and without the kernel (without it the configs are object-model
caches, whose tasks run their serial fallback).  The speedup criteria are
gated on the CPUs this process can use
(:func:`~repro.cache._native.available_cpus`: the affinity mask capped
by the cgroup CPU quota) and on the thread width: >= 3x over the
single-thread batch needs >= 8 of each, >= 1.5x over the equal-worker
process pool needs >= 2 of each.  Where neither floor applies the test
skips and says why, rather than passing without a check.

Timings land in ``benchmarks/out/thread_scaling.json`` (override with
``REPRO_BENCH_JSON_THREADS``); the JSON schema is documented in
``docs/BENCHMARKS.md``.
"""

from __future__ import annotations

import time
from functools import partial

import pytest

from benchlib import bench_json_path, write_bench_json
from repro.cache._native import (available_cpus, native_available,
                                 resolve_threads)
from repro.cache.spec import CacheSpec
from repro.cache.threadbatch import ReplayTask, run_tasks
from repro.experiments.common import fast_mode, trace_length
from repro.sim.sweep import SweepSpec, run_sweep
from repro.workloads.generators import zipfian

#: (sets, ways, policy) of every config in the batch — a sweep-shaped
#: spread of sizes across three policies.
CONFIGS = [(sets, ways, policy)
           for policy in ("LRU", "SRRIP", "PDP")
           for sets, ways in ((64, 8), (256, 8), (1024, 8), (4096, 8))]


def _trace_accesses() -> int:
    if fast_mode():
        return trace_length(fast=200_000)
    return trace_length(full=2_000_000)


def _build_batch():
    return [CacheSpec(capacity_lines=s * w, ways=w, policy=p).build()
            for s, w, p in CONFIGS]


def _tasks(caches, addrs):
    """One replay task per config; object-model caches (built without
    the kernel) replay through a serial fallback task."""
    return [c.replay_task(addrs) if hasattr(c, "replay_task")
            else ReplayTask(fallback=partial(c.run, addrs)) for c in caches]


def _digest(caches) -> list[tuple[int, int, int]]:
    return [(c.stats.accesses, c.stats.hits, c.stats.misses)
            for c in caches]


def _write_json(key: str, payload: dict, meta: dict) -> None:
    write_bench_json(bench_json_path("thread_scaling.json",
                                     "REPRO_BENCH_JSON_THREADS"),
                     key, payload, meta=meta)


def test_thread_scaling(capsys):
    accesses = _trace_accesses()
    addrs = zipfian(50_000, accesses, seed=2015).addresses
    cpus = available_cpus()
    width = resolve_threads()

    t0 = time.perf_counter()
    serial = _build_batch()
    for cache in serial:
        cache.run(addrs)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    one = _build_batch()
    run_tasks(_tasks(one, addrs), threads=1)
    t_one = time.perf_counter() - t0

    t0 = time.perf_counter()
    wide = _build_batch()
    run_tasks(_tasks(wide, addrs), threads=width)
    t_wide = time.perf_counter() - t0

    # The same sweep through the two public fan-out strategies: the
    # threaded dispatch vs a process pool at equal parallelism (pool
    # workers attach the trace through the TraceStore memmap path).
    sweep_spec = SweepSpec(
        sizes_mb=(0.25, 0.5, 1.0, 2.0), policies=("LRU", "SRRIP", "PDP"))
    t0 = time.perf_counter()
    threaded_sweep = run_sweep(addrs, sweep_spec, parallel="threads",
                               threads=width)
    t_sweep_threads = time.perf_counter() - t0
    t0 = time.perf_counter()
    pooled_sweep = run_sweep(addrs, sweep_spec, parallel="processes",
                             max_workers=width)
    t_pool = time.perf_counter() - t0

    # Record identity, asserted unconditionally: every execution strategy
    # produces the same counters bit for bit.
    ref = _digest(serial)
    assert _digest(one) == ref, "threads=1 diverged from serial replay"
    assert _digest(wide) == ref, f"threads={width} diverged from serial"
    for key in threaded_sweep.stats:
        assert (threaded_sweep.stats[key].misses
                == pooled_sweep.stats[key].misses), \
            f"threaded and pooled sweeps diverged at {key}"

    speedup_wide = t_one / t_wide if t_wide > 0 else float("inf")
    vs_pool = (t_pool / t_sweep_threads if t_sweep_threads > 0
               else float("inf"))
    _write_json("thread_scaling",
                {"serial_s": t_serial, "threads1_s": t_one,
                 "threadsN_s": t_wide,
                 "sweep_threads_s": t_sweep_threads, "sweep_pool_s": t_pool,
                 "speedup_vs_threads1": speedup_wide,
                 "speedup_vs_pool": vs_pool,
                 "configs": len(CONFIGS), "accesses": accesses,
                 "threads": width, "pool_workers": width},
                meta={"policies": sorted({p for _, _, p in CONFIGS})})

    with capsys.disabled():
        print()
        print(f"== threaded batch dispatch ({len(CONFIGS)} configs x "
              f"{accesses} accesses, {cpus} available CPUs) ==")
        print(f"  per-config serial runs     : {t_serial * 1000:8.1f} ms")
        print(f"  batch, threads=1           : {t_one * 1000:8.1f} ms")
        print(f"  batch, threads={width:<2}          : "
              f"{t_wide * 1000:8.1f} ms  ({speedup_wide:.1f}x)")
        print(f"  sweep, threads={width:<2}          : "
              f"{t_sweep_threads * 1000:8.1f} ms")
        print(f"  sweep, {width}-worker pool      : {t_pool * 1000:8.1f} ms"
              f"  (threads {vs_pool:.1f}x faster)")

    if not native_available():
        pytest.skip("no C compiler: all strategies ran the object model; "
                    "the scaling criteria need the kernel")
    if cpus < 2 or width < 2:
        pytest.skip(f"{cpus} available CPU(s) at thread width {width}: the "
                    f"scaling criteria need >= 2 of each (record identity "
                    f"was still asserted)")
    if cpus >= 8 and width >= 8:
        assert speedup_wide >= 3.0, (
            f"threaded batch only {speedup_wide:.2f}x over threads=1 with "
            f"{cpus} available CPUs (acceptance criterion is >= 3x at 8)")
    assert vs_pool >= 1.5, (
        f"threaded batch only {vs_pool:.2f}x over the {width}-worker "
        f"process pool (acceptance criterion is >= 1.5x)")
