"""Monitoring fast path speedup over the object-model per-access baseline.

PR 1 made the swept caches fast; this PR moves the *monitors* — the other
half of every Talus planning step — onto the same array/native machinery:

* ``UMON`` selects its sampled sub-stream with one vectorized splitmix64
  pass and folds it into the stack-distance histogram as one native
  batch task per curve read, instead of one Python hash call (and one
  Fenwick update) per access;
* ``MultiPointMonitor`` precomputes each point's set-sampled sub-stream
  with numpy and replays it through an array-backend cache in one kernel
  call per point, instead of running 64 object-model caches access by
  access.

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
from repro.sim.engine import DEFAULT_WAYS
from repro.workloads.scale import paper_mb_to_lines
from repro.workloads.spec_profiles import get_profile

from repro.experiments.common import trace_length

#: The fig. 9 monitoring setup: libquantum, curve points up to 40 paper MB.
FIG9_MAX_MB = 40.0
FIG9_NUM_SIZES = 9
MONITOR_LINES = 2048


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
