"""Monitoring fast path speedup over the object-model per-access baseline.

PR 1 made the swept caches fast; this PR moves the *monitors* — the other
half of every Talus planning step — onto the same array/native machinery:

* ``UMON`` selects its sampled sub-stream with one vectorized splitmix64
  pass and folds it into the stack-distance histogram as one native
  batch task per curve read (the kernel ranks the live lines in a bitmap
  under a word-level Fenwick tree), instead of one Python hash call per
  access;
* ``MultiPointMonitor`` precomputes each point's set-sampled sub-stream
  with numpy and replays it through an array-backend cache in one kernel
  call per point, instead of running 64 object-model caches access by
  access.

A third case times the fold itself: ``IncrementalStackMonitor`` fed a
multi-app stream in churn-shaped (1k accesses over 300 lines per app) and
mixsweep-shaped (15k over 2k) chunks, every read checked against
``StackDistanceMonitor``.  It records ns per folded access with no
wall-clock floor: on a shared host one run drifts by 20%, so only a
comparison between two commits on the same host says anything.

The baselines here drive the *same* monitors through their per-access
``record()`` loop on object-model caches — the seed-style execution — so
the measured curves are directly comparable: bit-identical for LRU/SRRIP
(and deterministic per seed for BRRIP/DRRIP), which this benchmark asserts
alongside the acceptance criterion of a >= 5x MultiPointMonitor speedup on
the standard fig. 9 trace.

Timings are also written as JSON (``benchmarks/out/monitor_speedup.json``,
override with ``REPRO_BENCH_JSON``) so future PRs can track the perf
trajectory.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchlib import bench_json_path, write_bench_json
from repro.cache._native import native_available
from repro.monitor import UMON, MultiPointMonitor
from repro.monitor.stack_distance import (IncrementalStackMonitor,
                                          StackDistanceMonitor)
from repro.sim.engine import DEFAULT_WAYS
from repro.workloads.scale import paper_mb_to_lines
from repro.workloads.spec_profiles import get_profile

from repro.experiments.common import trace_length

#: The fig. 9 monitoring setup: libquantum, curve points up to 40 paper MB.
FIG9_MAX_MB = 40.0
FIG9_NUM_SIZES = 9
MONITOR_LINES = 2048

#: Chunked-fold shapes: apps, chunks per app, accesses per chunk and lines
#: per app, as in a churn batch and a mixsweep interval.
FOLD_SHAPES = {"churn": (8, 40, 1000, 300), "mixsweep": (4, 8, 15000, 2000)}


def _fig9_trace():
    return get_profile("libquantum").trace(n_accesses=trace_length())


def _fig9_sizes_lines():
    sizes_mb = np.linspace(FIG9_MAX_MB / FIG9_NUM_SIZES, FIG9_MAX_MB,
                           FIG9_NUM_SIZES)
    return [0] + [paper_mb_to_lines(mb) for mb in sizes_mb]


def _write_json(key: str, payload: dict) -> None:
    write_bench_json(bench_json_path("monitor_speedup.json",
                                     "REPRO_BENCH_JSON"),
                     key, payload,
                     meta={"trace": "libquantum",
                           "n_accesses": trace_length()})


def test_umon_speedup(capsys):
    trace = _fig9_trace()
    lines = paper_mb_to_lines(FIG9_MAX_MB)

    def build():
        return UMON(sampling_rate=1 / 16, max_size=lines, points=65, seed=11)

    baseline = build()
    t0 = time.perf_counter()
    for a in trace.addresses.tolist():
        baseline.record(a)
    base_curve = baseline.miss_curve()
    t_base = time.perf_counter() - t0

    fast = build()
    t0 = time.perf_counter()
    fast.record_trace(trace.addresses)
    fast_curve = fast.miss_curve()
    t_fast = time.perf_counter() - t0

    speedup = t_base / t_fast if t_fast > 0 else float("inf")
    _write_json("umon", {"baseline_s": t_base, "fast_s": t_fast,
                         "speedup": speedup})
    with capsys.disabled():
        print()
        print(f"== UMON speedup ({len(trace)} accesses) ==")
        print(f"  per-access record loop : {t_base * 1000:8.1f} ms")
        print(f"  vectorized record_trace: {t_fast * 1000:8.1f} ms")
        print(f"  speedup                : {speedup:8.1f}x "
              f"(native={'yes' if native_available() else 'no'})")

    # Same sampling hash, same histogram algorithm => identical curves.
    assert np.array_equal(base_curve.misses, fast_curve.misses)
    assert speedup >= 2.0, (
        f"vectorized UMON only {speedup:.2f}x faster than the per-access "
        f"baseline")


@pytest.mark.parametrize("policy", ["SRRIP", "LRU", "BRRIP", "DRRIP"])
def test_multipoint_speedup(capsys, policy):
    if not native_available():
        pytest.skip("no C compiler: the array MultiPointMonitor cannot be "
                    "built without the kernel, so there is no fast side "
                    "to compare or time")
    trace = _fig9_trace()
    sizes = _fig9_sizes_lines()

    def build(backend):
        return MultiPointMonitor(sizes, policy=policy, ways=DEFAULT_WAYS,
                                 monitor_lines=MONITOR_LINES, seed=13,
                                 backend=backend)

    baseline = build("object")
    t0 = time.perf_counter()
    for a in trace.addresses.tolist():
        baseline.record(a)
    base_curve = baseline.miss_curve()
    t_base = time.perf_counter() - t0

    fast = build("array")
    t0 = time.perf_counter()
    fast.record_trace(trace.addresses)
    fast_curve = fast.miss_curve()
    t_fast = time.perf_counter() - t0

    speedup = t_base / t_fast if t_fast > 0 else float("inf")
    _write_json(f"multipoint_{policy}",
                {"baseline_s": t_base, "fast_s": t_fast, "speedup": speedup})
    with capsys.disabled():
        print()
        print(f"== MultiPointMonitor speedup ({policy}, {len(trace)} "
              f"accesses, {len(sizes)} points) ==")
        print(f"  object per-access loop  : {t_base * 1000:8.1f} ms")
        print(f"  array batched run       : {t_fast * 1000:8.1f} ms")
        print(f"  speedup                 : {speedup:8.1f}x "
              f"(native={'yes' if native_available() else 'no'})")

    # Bit-identical across backends for every policy, the randomized ones
    # included: both draw from the same splitmix64 streams.
    assert np.array_equal(base_curve.misses, fast_curve.misses)
    if policy == "SRRIP":
        assert speedup >= 5.0, (
            f"fast MultiPointMonitor only {speedup:.2f}x faster than the "
            f"object-model baseline (acceptance criterion is >= 5x)")


@pytest.mark.parametrize("shape", sorted(FOLD_SHAPES))
def test_chunked_fold(capsys, shape):
    apps, steps, size, lines = FOLD_SHAPES[shape]
    rng = np.random.default_rng(19)
    # One multi-app stream: each step feeds every app one chunk, half of
    # it from a hot quarter of the app's lines.
    stream = [[np.concatenate([rng.integers(0, lines // 4, size // 2),
                               rng.integers(0, lines, size - size // 2)])
               + app * lines for app in range(apps)]
              for _ in range(steps)]

    def fold():
        """Fold the stream into one fresh monitor per app, reading each
        after its chunk; returns the fold time and every read."""
        monitors = [IncrementalStackMonitor(capacity_hint=1024)
                    for _ in range(apps)]
        seconds, reads = 0.0, []
        for step in stream:
            for monitor, chunk in zip(monitors, step):
                t0 = time.perf_counter()
                monitor.record_trace(chunk)
                seconds += time.perf_counter() - t0
                reads.append((monitor.histogram(), monitor.cold_misses))
        return seconds, reads

    # Without a kernel the monitor is the oracle: one pass checks it.
    passes = 3 if native_available() else 1
    t_fold, reads = min((fold() for _ in range(passes)),
                        key=lambda r: r[0])
    oracles = [StackDistanceMonitor() for _ in range(apps)]
    expected = []
    for step in stream:
        for oracle, chunk in zip(oracles, step):
            oracle.record_trace(chunk)
            expected.append((oracle.histogram(), oracle.cold_misses))
    for (hist, cold), (want, want_cold) in zip(reads, expected):
        assert np.array_equal(hist, want) and cold == want_cold

    accesses = apps * steps * size
    ns = t_fold / accesses * 1e9
    _write_json(f"fold_{shape}", {
        "fold_s": t_fold, "ns_per_access": ns, "accesses": accesses,
        "folds": apps * steps, "apps": apps, "chunk": size,
        "lines_per_app": lines})
    with capsys.disabled():
        print()
        print(f"== chunked stack-distance fold ({shape}: {apps} apps x "
              f"{steps} chunks of {size} accesses over {lines} lines) ==")
        print(f"  fold: {t_fold * 1000:8.1f} ms, {ns:6.1f} ns per access "
              f"(native={'yes' if native_available() else 'no'})")
