"""Batched sweep engine speedup over the seed per-size object-model loop.

The seed implementation of ``simulated_mpki_curve`` replayed the full trace
once per cache size through the pure-Python object model.  This benchmark
replicates that loop verbatim (as ``_seed_per_size_loop``) and times it
against :func:`repro.sim.sweep.run_sweep` on the array/native backend over
the same trace and sizes, checking:

* **bit-identical** LRU miss counts between the two, and
* a **>= 3x** speedup for the batched array path (the PR's acceptance
  criterion; in practice the native kernel delivers >10x).
"""

from __future__ import annotations

import time

import pytest

from repro.cache._native import native_available
from repro.cache.cache import SetAssociativeCache
from repro.cache.factory import cache_geometry, named_policy_factory
from repro.sim.sweep import SweepSpec, run_sweep
from repro.workloads.scale import paper_mb_to_lines
from repro.workloads.spec_profiles import get_profile

from repro.experiments.common import trace_length

#: The sweep grid: 8 sizes spanning the omnetpp working set, as a Fig. 10
#: style panel would sample them.
SIZES_MB = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)


def _seed_per_size_loop(trace, sizes_mb, policy):
    """The seed repo's sweep: one full object-model replay per size."""
    misses = []
    for size_mb in sizes_mb:
        lines = paper_mb_to_lines(size_mb)
        num_sets, eff_ways = cache_geometry(lines, 16)
        factory = named_policy_factory(policy, num_sets)
        cache = SetAssociativeCache(num_sets, eff_ways, factory)
        cache.run(trace.addresses)
        misses.append(cache.stats.misses)
    return misses


@pytest.mark.parametrize("policy", ["LRU", "SRRIP"])
def test_sweep_speedup(capsys, policy):
    trace = get_profile("omnetpp").trace(n_accesses=trace_length())
    spec = SweepSpec(sizes_mb=SIZES_MB, policies=(policy,), backend="array")

    t0 = time.perf_counter()
    seed_misses = _seed_per_size_loop(trace, SIZES_MB, policy)
    t_seed = time.perf_counter() - t0

    t0 = time.perf_counter()
    result = run_sweep(trace, spec)
    t_sweep = time.perf_counter() - t0
    sweep_misses = [result.misses((policy, s)) for s in SIZES_MB]

    speedup = t_seed / t_sweep if t_sweep > 0 else float("inf")
    with capsys.disabled():
        print()
        print(f"== sweep speedup ({policy}, {len(trace)} accesses, "
              f"{len(SIZES_MB)} sizes) ==")
        print(f"  seed per-size loop : {t_seed * 1000:8.1f} ms")
        print(f"  batched run_sweep  : {t_sweep * 1000:8.1f} ms")
        print(f"  speedup            : {speedup:8.1f}x "
              f"(native={'yes' if native_available() else 'no'})")
        for size, a, b in zip(SIZES_MB, seed_misses, sweep_misses):
            print(f"  {size:4.1f} MB  seed={a:7d}  sweep={b:7d}")

    # Miss counts must be bit-identical to the object model (LRU and SRRIP
    # are the array backend's exactness contract).
    assert sweep_misses == seed_misses

    if not native_available():
        pytest.skip("no C compiler: array backend runs the slow Python "
                    "fallback; speedup criterion needs the native kernel")
    assert speedup >= 3.0, (
        f"batched array sweep only {speedup:.2f}x faster than the seed "
        f"per-size loop (acceptance criterion is >= 3x)")


def test_parallel_sweep_consistency():
    """A sweep at four threads returns the same counts as at one."""
    trace = get_profile("omnetpp").trace(n_accesses=20000)
    spec = SweepSpec(sizes_mb=SIZES_MB, policies=("LRU",), backend="array")
    serial = run_sweep(trace, spec, threads=1)
    threaded = run_sweep(trace, spec, max_workers=4)
    for size in SIZES_MB:
        assert threaded.misses(("LRU", size)) == serial.misses(("LRU", size))
