"""Monitoring fast path speedup over the object-model per-access baseline.

PR 1 made the swept caches fast; this PR moves the *monitors* — the other
half of every Talus planning step — onto the same array/native machinery:

* ``UMON`` keeps each raw batch and, at the next curve read, folds it
  as one native record that selects the sampled sub-stream with the
  kernel's splitmix64 and advances the stack-distance histogram (the
  kernel ranks the live lines in a bitmap under a word-level Fenwick
  tree), instead of one Python hash call per access;
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

A fourth case gates a curve read's cost against the app's footprint. A
hardware UMON's read costs its fixed way counters, and a
``CombinedUMON`` read takes, in its fold record, the hits at only the
integer abscissae around its grid's sizes (capped at the live lines),
so the default read of a 2,048-line monitor holding about 63k live
lines may take at most 1.5x the read of one holding 1k (best of 200
reads each; a read that walked every live distance took about 7x).
Both curves must equal the Mattson oracle over the whole histograms.

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
from repro.core.misscurve import mattson_misses
from repro.monitor import UMON, CombinedUMON, MultiPointMonitor
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

#: Read-cost gate: live lines of the small and the large footprint, the
#: accesses each monitor records, the reads timed, and the largest
#: allowed large/small ratio of the best read.
READ_FOOTPRINTS = (1_000, 63_000)
READ_ACCESSES = 100_000
READ_REPEATS = 200
READ_MAX_RATIO = 1.5


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


def _oracle_misses(combined):
    """The default read's misses rebuilt from each monitor's whole
    histogram through ``mattson_misses`` (the Mattson oracle)."""
    grid = np.linspace(0, combined.max_size, 2 * combined.primary.points)
    halves = []
    for monitor, part in ((combined.primary, grid[grid <= combined.llc_size]),
                          (combined.secondary,
                           grid[grid > combined.llc_size])):
        folded = monitor._folded()
        misses = mattson_misses(folded.histogram(), folded.cold_misses,
                                part * monitor.sampling_rate)
        halves.append(np.minimum(misses * (1.0 / monitor.sampling_rate),
                                 monitor.total_accesses))
    return grid, np.minimum.accumulate(np.concatenate(halves))


def test_read_cost_does_not_grow_with_footprint(capsys):
    rng = np.random.default_rng(23)
    best = {}
    for lines in READ_FOOTPRINTS:
        # The churn controller's monitor of an 8 MB (2,048-line) cache:
        # every line once, then random reuse, so ``lines`` lines are live.
        combined = CombinedUMON(llc_size=2048, primary_rate=1.0,
                                coverage_ratio=0.25, points=33, seed=lines)
        combined.record_trace(np.concatenate([
            np.arange(lines), rng.integers(0, lines, READ_ACCESSES - lines)]))
        curve = combined.miss_curve()
        grid, want = _oracle_misses(combined)
        assert np.array_equal(curve.sizes, grid)
        assert np.array_equal(curve.misses, want)
        times = []
        for _ in range(READ_REPEATS):
            t0 = time.perf_counter()
            combined.miss_curve()
            times.append(time.perf_counter() - t0)
        best[lines] = min(times)

    small, large = (best[lines] for lines in READ_FOOTPRINTS)
    ratio = large / small
    _write_json("umon_read", {
        f"read_s_{lines}_lines": best[lines] for lines in READ_FOOTPRINTS}
        | {"ratio": ratio, "max_ratio": READ_MAX_RATIO,
           "reads": READ_REPEATS})
    with capsys.disabled():
        print()
        print(f"== CombinedUMON read cost (2,048-line monitor, best of "
              f"{READ_REPEATS} reads) ==")
        for lines in READ_FOOTPRINTS:
            print(f"  {lines:6d} live lines: {best[lines] * 1e6:8.1f} us")
        print(f"  ratio           : {ratio:8.2f}x (gate <= "
              f"{READ_MAX_RATIO}x; native="
              f"{'yes' if native_available() else 'no'})")

    # Without a kernel the monitor is the oracle, which builds the whole
    # histogram on every read: there is no bounded read to time.
    if native_available():
        assert ratio <= READ_MAX_RATIO, (
            f"a read over {READ_FOOTPRINTS[1]} live lines took {ratio:.2f}x "
            f"the read over {READ_FOOTPRINTS[0]}")
