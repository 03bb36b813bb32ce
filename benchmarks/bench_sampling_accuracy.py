"""Sampled-simulation accuracy and speedup on a 20x-tier-1-scale trace.

The acceptance criteria of the sampling subsystem, measured end to end:

* **accuracy** — on a zipfian :class:`~repro.workloads.scale.ChunkedTrace`
  at least 20x the tier-1 trace scale, ``run_sampled`` must reproduce the
  exact-replay MPKI within its own reported 95% confidence interval;
* **speed** — the sampled estimate must finish >= 3x faster than the
  exact serial replay (wall clock, same process, same backend).

Results land in ``benchmarks/out/sampling_accuracy.json`` for cross-PR
tracking.  Without the native kernel the trace shrinks so the exact
object-model baseline stays within CI budgets; the accuracy assertion
holds at both scales, the wall-clock criterion is asserted only at the
native scale (the object model's per-access cost structure differs).
"""

from __future__ import annotations

import time

import pytest

from repro.cache._native import native_available
from repro.cache.spec import CacheSpec
from repro.sampling import SamplingSpec, run_exact, run_sampled
from repro.workloads.scale import long_trace

from benchlib import bench_json_path, write_bench_json

#: Tier-1 drivers default to 150k-access traces; the native benchmark
#: trace is 20x that.  Without the kernel the object model replays a
#: shorter trace, keeping the exact replay affordable.
NATIVE_ACCESSES = 3_000_000
FALLBACK_ACCESSES = 400_000

JSON_PATH = bench_json_path("sampling_accuracy.json",
                            "REPRO_BENCH_SAMPLING_JSON")


def test_sampling_accuracy_and_speedup(capsys):
    n = NATIVE_ACCESSES if native_available() else FALLBACK_ACCESSES
    # Tight generation blocks: a window should regenerate little more
    # than the accesses it simulates (block >> window would make trace
    # generation, not simulation, the sampled path's cost).
    trace = long_trace("zipfian", n, 16_384, seed=17, apki=24.0,
                       block=8_192)
    cache = CacheSpec(capacity_lines=2_048, ways=16, policy="LRU")
    window = max(2_000, n // 375)
    spec = SamplingSpec(window=window, n_windows=12, offset=2 * window)

    t0 = time.perf_counter()
    exact = run_exact(trace, cache)
    t_exact = time.perf_counter() - t0
    exact_mpki = 1000.0 * exact.misses / exact.instructions

    t0 = time.perf_counter()
    result = run_sampled(trace, cache, spec)
    t_sampled = time.perf_counter() - t0

    report = result.error_vs_exact(exact_mpki)
    wall_speedup = t_exact / t_sampled if t_sampled > 0 else float("inf")

    with capsys.disabled():
        print()
        print(f"== sampling accuracy ({n} accesses, {result.n_windows} "
              f"windows of {window}) ==")
        print(f"  exact replay   : {t_exact * 1000:8.1f} ms  "
              f"mpki={exact_mpki:.4f}")
        print(f"  sampled        : {t_sampled * 1000:8.1f} ms  "
              f"mpki={result.mpki:.4f} +/- {result.mpki_halfwidth:.4f}")
        print(f"  |error|        : {report['abs_error']:.4f} "
              f"(within CI: {report['within_ci']})")
        print(f"  access speedup : {result.speedup:8.1f}x")
        print(f"  wall speedup   : {wall_speedup:8.1f}x "
              f"(native={'yes' if native_available() else 'no'})")

    write_bench_json(
        JSON_PATH, "zipfian_lru",
        {"n_accesses": n, "window": window, "n_windows": result.n_windows,
         "exact_mpki": exact_mpki, "sampled_mpki": result.mpki,
         "ci_halfwidth": result.mpki_halfwidth,
         "abs_error": report["abs_error"],
         "within_ci": report["within_ci"],
         "t_exact_s": t_exact, "t_sampled_s": t_sampled,
         "access_speedup": result.speedup,
         "wall_speedup": wall_speedup},
        meta={"trace": "zipfian", "items": 16_384,
              "capacity_lines": 2_048, "policy": "LRU"})

    # Headline claim: the exact MPKI lies inside the reported interval.
    assert report["within_ci"], (
        f"exact MPKI {exact_mpki:.4f} outside the reported "
        f"{result.confidence:.0%} CI "
        f"[{result.mpki_interval[0]:.4f}, {result.mpki_interval[1]:.4f}]")
    # Sampling must simulate far fewer accesses regardless of backend.
    assert result.speedup >= 3.0

    if not native_available():
        pytest.skip("no C compiler: wall-clock criterion needs the "
                    "native kernel's cost structure")
    assert wall_speedup >= 3.0, (
        f"sampled replay only {wall_speedup:.1f}x faster than exact "
        f"(exact {t_exact:.2f}s, sampled {t_sampled:.2f}s)")
