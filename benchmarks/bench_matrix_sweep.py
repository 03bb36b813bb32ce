"""Whole-matrix threaded sweep speedup over the serial object stream.

The tentpole claim of the total backend matrix: every replacement policy
on every partitioning scheme at every size — TA-DRRIP, offline Belady
MIN and non-LRU Vantage regions included — executes as **one**
``batch_run_threaded`` dispatch over one address array.  This benchmark
runs the same policy × scheme × size grid through
:func:`repro.sim.sweep.run_matrix_sweep` (one
:func:`~repro.sim.sweep.run_sweep` over
:func:`~repro.sim.sweep.matrix_configs`; every partitioned cell replays
all accesses into partition 0) twice:

* ``backend="object"`` — the reference serial stream, access by access,
  one cell after another on one core (Belady excluded from the baseline
  grid, so its cells are timed on the array path only);
* ``backend="auto"`` — the threaded native matrix,

checking that both record **identical cell keys**, that every online
cell's misses agree, and that the threaded matrix clears the **>= 5x**
acceptance criterion.

A second test gates how one cell's cost scales with its region: an SRRIP
cell on the ideal and on the Vantage scheme, replayed at 0.5 MB and at
4 MB (one ``run_tasks`` call at width 1, best of 3), must cost at most
**2x** more at 4 MB.  Its fully-associative regions find victims through
the kernel's RRPV bucket index; a scan of the region on every miss makes
the 4 MB cell five to six times as costly.

Timings land in ``benchmarks/out/matrix_sweep.json`` (override with
``$REPRO_BENCH_MATRIX_JSON``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchlib import bench_json_path, write_bench_json
from repro.cache._native import native_available, resolve_threads
from repro.cache.spec import PartitionSpec
from repro.cache.threadbatch import run_tasks
from repro.experiments.common import trace_length
from repro.sim.sweep import matrix_cells, run_matrix_sweep
from repro.workloads.scale import paper_mb_to_lines
from repro.workloads.spec_profiles import get_profile

#: The benchmark grid: every scheme of the matrix, and a recency, an RRIP,
#: a dueling, a thread-aware and the offline oracle policy.
SIZES_MB = (0.5, 1.0, 2.0)
POLICIES = ("LRU", "SRRIP", "DRRIP", "TA-DRRIP", "Belady")
SCHEMES = ("none", "way", "set", "ideal", "vantage")
NUM_PARTITIONS = 2
SEED = 2015
#: The region sizes of the scaling gate, and its bound on their cost ratio.
SCALING_SIZES_MB = (0.5, 4.0)
MAX_SCALING = 2.0

_JSON_PATH = bench_json_path("matrix_sweep.json", "REPRO_BENCH_MATRIX_JSON")


def _grid_kwargs(policies):
    return dict(sizes_mb=SIZES_MB, policies=policies, schemes=SCHEMES,
                num_partitions=NUM_PARTITIONS, seed=SEED)


def _meta(trace) -> dict:
    return {"sizes_mb": list(SIZES_MB), "policies": list(POLICIES),
            "schemes": list(SCHEMES), "accesses": len(trace),
            "num_partitions": NUM_PARTITIONS, "seed": SEED,
            "scaling_sizes_mb": list(SCALING_SIZES_MB)}


def test_matrix_sweep_speedup(capsys):
    trace = get_profile("omnetpp").trace(n_accesses=trace_length())
    online = tuple(p for p in POLICIES if p != "Belady")

    t0 = time.perf_counter()
    serial = run_matrix_sweep(trace, backend="object",
                              **_grid_kwargs(online))
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    threaded = run_matrix_sweep(trace, **_grid_kwargs(POLICIES))
    t_threaded = time.perf_counter() - t0

    # Identical record identity: the threaded matrix covers every serial
    # cell (plus Belady's scheme-"none" cells, which the serial baseline
    # leaves out).
    serial_keys = set(serial.stats)
    threaded_keys = set(threaded.stats)
    assert serial_keys == set(matrix_cells(SIZES_MB, online, SCHEMES))
    assert threaded_keys == set(matrix_cells(SIZES_MB, POLICIES, SCHEMES))
    assert serial_keys < threaded_keys
    for key in threaded_keys:
        assert threaded.stats[key].accesses == len(trace), key

    # Agreement between the serial object stream and the threaded kernel
    # path, cell by cell: both backends replay every online policy alike.
    for key in serial_keys:
        assert threaded.stats[key].misses == serial.stats[key].misses, key

    speedup = t_serial / t_threaded if t_threaded > 0 else float("inf")
    cells = len(threaded_keys)
    with capsys.disabled():
        print()
        print(f"== whole-matrix sweep: {cells} cells "
              f"({len(POLICIES)} policies x {len(SCHEMES)} schemes x "
              f"{len(SIZES_MB)} sizes), {len(trace)} accesses ==")
        print(f"  serial object stream : {t_serial * 1000:8.1f} ms "
              f"({len(serial_keys)} cells)")
        print(f"  threaded auto matrix : {t_threaded * 1000:8.1f} ms "
              f"({cells} cells, width {resolve_threads()})")
        print(f"  speedup              : {speedup:8.1f}x "
              f"(native={'yes' if native_available() else 'no'})")

    write_bench_json(
        _JSON_PATH, "matrix_sweep",
        {"serial_object_s": t_serial, "threaded_auto_s": t_threaded,
         "speedup": speedup, "cells_serial": len(serial_keys),
         "cells_threaded": cells},
        meta=_meta(trace))

    if not native_available():
        pytest.skip("no C compiler: the matrix runs on the object model; "
                    "the speedup criterion needs the native kernel")
    assert speedup >= 5.0, (
        f"threaded matrix only {speedup:.2f}x faster than the serial "
        f"object stream (acceptance criterion is >= 5x)")


def _srrip_cell_s(addrs: np.ndarray, scheme: str, size_mb: float) -> float:
    """Best-of-3 replay time of one SRRIP matrix cell: a fresh cache's
    whole-trace task, run by ``run_tasks`` at width 1."""
    parts = np.zeros(addrs.size, dtype=np.int64)
    best = float("inf")
    for _ in range(3):
        cache = PartitionSpec(scheme=scheme,
                              capacity_lines=paper_mb_to_lines(size_mb),
                              num_partitions=NUM_PARTITIONS, policy="SRRIP",
                              backend="array").build()
        task = cache.replay_task(addrs, parts)
        t0 = time.perf_counter()
        run_tasks([task], threads=1)
        best = min(best, time.perf_counter() - t0)
    return best


def test_rrip_cell_cost_flat_in_region_size(capsys):
    """A fully-associative SRRIP cell costs about the same at 4 MB as at
    0.5 MB: its victims come from the RRPV bucket index, not a scan."""
    if not native_available():
        pytest.skip("the scaling gate times the native kernel")
    trace = get_profile("omnetpp").trace(n_accesses=trace_length())
    addrs = np.ascontiguousarray(trace.addresses, dtype=np.int64)
    small, large = SCALING_SIZES_MB
    timings = {f"{scheme}_srrip_{mb:g}mb_s": _srrip_cell_s(addrs, scheme, mb)
               for scheme in ("ideal", "vantage") for mb in (small, large)}
    with capsys.disabled():
        print()
        for key, seconds in timings.items():
            print(f"  {key:24s}: {seconds * 1000:8.2f} ms")
    write_bench_json(_JSON_PATH, "rrip_region_scaling", timings,
                     meta=_meta(trace))
    for scheme in ("ideal", "vantage"):
        ratio = (timings[f"{scheme}_srrip_{large:g}mb_s"]
                 / timings[f"{scheme}_srrip_{small:g}mb_s"])
        assert ratio <= MAX_SCALING, (
            f"{scheme} SRRIP cell costs {ratio:.2f}x more at {large:g} MB "
            f"than at {small:g} MB (bound {MAX_SCALING:g}x)")


def test_matrix_thread_width_invariance():
    """The recorded numbers are a function of the matrix, not the
    thread width the dispatch happened to use."""
    trace = get_profile("omnetpp").trace(n_accesses=12_000)
    kwargs = _grid_kwargs(("LRU", "TA-DRRIP", "Belady"))
    base = run_matrix_sweep(trace, threads=1, **kwargs)
    for width in (2, 8):
        other = run_matrix_sweep(trace, threads=width, **kwargs)
        assert set(other.stats) == set(base.stats)
        for key, stats in base.stats.items():
            assert other.stats[key].misses == stats.misses, (width, key)
