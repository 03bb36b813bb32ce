"""Talus/partition fast-path speedup over the object-model replay.

PR 1 made the plain swept caches fast and PR 2 the monitors; this PR moves
the last object-model holdout — the partitioned/Talus replay behind fig. 8
and fig. 9 — onto the array/native machinery:

* each Talus point is a declarative :class:`~repro.cache.spec.TalusSpec`
  whose way/set/ideal base builds an
  :class:`~repro.cache.partition.ArrayPartitionedCache`;
* the shadow-pair steering is one vectorized H3 pass, and the replay is
  one native group task: one kernel record per shadow partition over its
  own sub-trace (``lru_run``/``rrip_run`` for way partitions,
  ``ideal_lru_run``'s stack-distance pass for ideal LRU partitions).

The baseline drives the *same* planned configurations through the
object-model :class:`TalusCache` (the pre-spec execution), so curves are
directly comparable — and bit-identical for the exact policy tier, which
this benchmark asserts alongside the acceptance criterion of a >= 5x
speedup on the fig. 9-scale Talus+W/SRRIP and Talus+I/LRU sweeps.  The
ideal gate keeps the stack-distance region's asymptotic win: a
fully-associative region that scans every line on every access would
not pass it.

Timings are also written as JSON (``benchmarks/out/talus_speedup.json``,
override with ``REPRO_BENCH_JSON_TALUS``) so future PRs can track the perf
trajectory.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchlib import bench_json_path, write_bench_json
from repro.cache._native import native_available
from repro.experiments.common import trace_length
from repro.sim.engine import talus_sweep_configs
from repro.sim.sweep import run_sweep
from repro.workloads.spec_profiles import get_profile

#: The fig. 9 Talus setup: libquantum, Talus+W, sizes up to 40 paper MB.
FIG9_MAX_MB = 40.0
FIG9_NUM_SIZES = 9


def _fig9_inputs():
    profile = get_profile("libquantum")
    n = trace_length()
    trace = profile.trace(n_accesses=n)
    sizes_mb = np.linspace(FIG9_MAX_MB / FIG9_NUM_SIZES, FIG9_MAX_MB,
                           FIG9_NUM_SIZES)
    curve = profile.lru_curve(max_mb=FIG9_MAX_MB * 1.25, points=81,
                              n_accesses=n)
    return trace, [float(s) for s in sizes_mb], curve


def _write_json(key: str, payload: dict) -> None:
    write_bench_json(bench_json_path("talus_speedup.json",
                                     "REPRO_BENCH_JSON_TALUS"),
                     key, payload,
                     meta={"trace": "libquantum",
                           "n_accesses": trace_length()})


def _timed_sweep(trace, configs):
    t0 = time.perf_counter()
    result = run_sweep(trace, configs)
    return result, time.perf_counter() - t0


@pytest.mark.parametrize("scheme,policy", [("way", "SRRIP"),
                                           ("way", "LRU"),
                                           ("ideal", "LRU")])
def test_talus_replay_speedup(capsys, scheme, policy):
    trace, sizes_mb, curve = _fig9_inputs()

    slow_configs = talus_sweep_configs(sizes_mb, scheme=scheme, policy=policy,
                                       planning_curve=curve,
                                       backend="object")
    fast_configs = talus_sweep_configs(sizes_mb, scheme=scheme, policy=policy,
                                       planning_curve=curve,
                                       backend="auto")
    slow, t_slow = _timed_sweep(trace, slow_configs)
    fast, t_fast = _timed_sweep(trace, fast_configs)

    speedup = t_slow / t_fast if t_fast > 0 else float("inf")
    _write_json(f"talus_{scheme}_{policy}",
                {"baseline_s": t_slow, "fast_s": t_fast, "speedup": speedup})
    with capsys.disabled():
        print()
        print(f"== Talus+{scheme}/{policy} replay speedup "
              f"({len(trace)} accesses, {len(sizes_mb)} sizes) ==")
        print(f"  object-model TalusCache : {t_slow * 1000:8.1f} ms")
        print(f"  array/native fast path  : {t_fast * 1000:8.1f} ms")
        print(f"  speedup                 : {speedup:8.1f}x "
              f"(native={'yes' if native_available() else 'no'})")

    # Bit-identical across backends, fast path on or off.
    for size in sizes_mb:
        assert slow[("talus", size)].misses == fast[("talus", size)].misses

    if not native_available():
        pytest.skip("no C compiler: both sides run on the object model; "
                    "the speedup criterion needs the kernel")
    if (scheme, policy) in (("way", "SRRIP"), ("ideal", "LRU")):
        assert speedup >= 5.0, (
            f"Talus+{scheme}/{policy} fast path only {speedup:.2f}x faster "
            f"than the object-model replay (acceptance criterion is >= 5x)")
