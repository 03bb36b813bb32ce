"""Thread scaling of the batched native dispatcher.

The tentpole claim of the threaded runtime: N independent config replays
through ``batch_run_threaded`` scale with the worker-thread width (the
threads share one address space and one trace) and change **nothing**
about the results.  This benchmark replays one sweep-shaped batch of
array-cache configs three ways, then one sweep through ``run_sweep``:

* **serial**   — the per-config serial entry points (``cache.run``),
  each one width-1 dispatch of that cache's own replay task;
* **threads=1** — all configs' tasks in one dispatch at width 1 (the
  serial loop inside the kernel: measures pure dispatch overhead);
* **threads=N** — the batched dispatcher at the host width
  (``REPRO_THREADS`` aware);
* **sweep** — ``run_sweep(threads=N)`` over a size × policy grid,
  against the same sweep at ``threads=1`` (the serial path).

Record identity is asserted unconditionally — on every host, with and
without the kernel (without it the configs are object-model caches,
whose tasks run their serial fallback).  The speedup criterion is gated
on the CPUs this process can use
(:func:`~repro.cache._native.available_cpus`: the affinity mask capped
by the cgroup CPU quota) and on the thread width: >= 3x over the
single-thread batch needs >= 8 of each.  Where the floor does not apply
the test skips and says why, rather than passing without a check.

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

    # The same kind of batch through the public sweep driver.
    sweep_spec = SweepSpec(
        sizes_mb=(0.25, 0.5, 1.0, 2.0), policies=("LRU", "SRRIP", "PDP"))
    t0 = time.perf_counter()
    threaded_sweep = run_sweep(addrs, sweep_spec, threads=width)
    t_sweep_threads = time.perf_counter() - t0
    serial_sweep = run_sweep(addrs, sweep_spec, threads=1)

    # Record identity, asserted unconditionally: every execution strategy
    # produces the same counters bit for bit.
    ref = _digest(serial)
    assert _digest(one) == ref, "threads=1 diverged from serial replay"
    assert _digest(wide) == ref, f"threads={width} diverged from serial"
    for key, stats in serial_sweep.stats.items():
        assert threaded_sweep.stats[key].misses == stats.misses, \
            f"threads={width} sweep diverged from serial at {key}"

    speedup_wide = t_one / t_wide if t_wide > 0 else float("inf")
    _write_json("thread_scaling",
                {"serial_s": t_serial, "threads1_s": t_one,
                 "threadsN_s": t_wide,
                 "sweep_threads_s": t_sweep_threads,
                 "speedup_vs_threads1": speedup_wide,
                 "configs": len(CONFIGS), "accesses": accesses,
                 "threads": width},
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

    if not native_available():
        pytest.skip("no C compiler: all strategies ran the object model; "
                    "the scaling criterion needs the kernel")
    if cpus < 8 or width < 8:
        pytest.skip(f"{cpus} available CPU(s) at thread width {width}: the "
                    f"scaling criterion needs >= 8 of each (record identity "
                    f"was still asserted)")
    assert speedup_wide >= 3.0, (
        f"threaded batch only {speedup_wide:.2f}x over threads=1 with "
        f"{cpus} available CPUs (acceptance criterion is >= 3x at 8)")
