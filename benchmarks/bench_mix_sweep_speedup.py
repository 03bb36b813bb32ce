"""Multi-mix sweep speedup: threaded native loop vs the serial object loop.

The execution-driven Fig. 12/13 sweep (:mod:`repro.sim.mixsweep`) runs one
:class:`~repro.sim.multicore.ReconfiguringSharedRun` per workload mix on
the default Talus+Vantage/LRU substrate.  This benchmark drives the same
mixes twice:

* **baseline** — the serial object-backend mix loop (per-access Python
  replay through ``VantagePartitionedCache``, one mix after another);
* **fast** — ``backend="auto"`` (the native Vantage kernel) with the
  mixes fanned out over a thread pool (``max_workers``), whose workers
  overlap in the GIL-releasing kernel replays.

and asserts the acceptance criteria:

* per-mix interval records (accesses, misses, planned allocations) are
  **bit-identical** between the two runs — the sweep engine and the
  native Vantage replay change nothing but the wall clock;
* the fast sweep is >= 5x faster than the serial object loop, kernel
  permitting.

Timings land in ``benchmarks/out/mix_sweep_speedup.json`` (override with
``REPRO_BENCH_JSON_MIX_SWEEP``) and the full per-mix result bank in
``benchmarks/out/mix_sweep_bank.json`` — the JSON schema is documented in
``docs/BENCHMARKS.md``.
"""

from __future__ import annotations

import os
import time

import pytest

from benchlib import OUT_DIR, bench_json_path, write_bench_json
from repro.cache._native import native_available
from repro.experiments.common import fast_mode, trace_length
from repro.sim.mixsweep import MixSweepSpec, run_mix_sweep
from repro.workloads.mixes import random_mixes

TOTAL_MB = 4.0


def _sweep_shape() -> tuple[int, int, int]:
    """(mixes, apps per mix, accesses per app) for the current mode."""
    if fast_mode():
        return 3, 4, trace_length(fast=40_000)
    return 8, 8, trace_length(full=120_000)


def _write_json(key: str, payload: dict, meta: dict) -> None:
    write_bench_json(bench_json_path("mix_sweep_speedup.json",
                                     "REPRO_BENCH_JSON_MIX_SWEEP"),
                     key, payload, meta=meta)


def test_mix_sweep_speedup(capsys):
    n_mixes, apps, accesses = _sweep_shape()
    mixes = random_mixes(n_mixes, apps_per_mix=apps, seed=2015)
    spec = MixSweepSpec(total_mb=TOTAL_MB, trace_accesses=accesses,
                        interval_accesses=max(5_000, accesses // 4))
    workers = min(4, os.cpu_count() or 1, n_mixes)

    t0 = time.perf_counter()
    slow = run_mix_sweep(mixes, spec, backend="object", max_workers=1)
    t_slow = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast = run_mix_sweep(mixes, spec, backend="auto", max_workers=workers)
    t_fast = time.perf_counter() - t0

    speedup = t_slow / t_fast if t_fast > 0 else float("inf")
    _write_json("mix_sweep",
                {"baseline_s": t_slow, "fast_s": t_fast, "speedup": speedup,
                 "mixes": n_mixes, "apps_per_mix": apps,
                 "accesses_per_app": accesses, "workers": workers},
                meta={"total_mb": TOTAL_MB, "scheme": spec.scheme})
    fast.save_json(OUT_DIR / "mix_sweep_bank.json")

    with capsys.disabled():
        print()
        print(f"== execution-driven mix sweep ({n_mixes} mixes x {apps} "
              f"apps x {accesses} accesses, Talus+V/LRU) ==")
        print(f"  serial object-backend loop : {t_slow * 1000:8.1f} ms")
        print(f"  native loop, {workers} threads     : "
              f"{t_fast * 1000:8.1f} ms")
        print(f"  speedup                    : {speedup:8.1f}x "
              f"(native={'yes' if native_available() else 'no'})")

    # Bit-identical per-mix interval records across backends and execution
    # strategies: the acceptance criterion that the fast path changes
    # nothing but the wall clock.
    assert slow.mix_names() == fast.mix_names()
    for name in slow.mix_names():
        assert slow[name].intervals == fast[name].intervals
        assert slow[name].result == fast[name].result

    if not native_available():
        pytest.skip("no C compiler: both sides run on the object model; "
                    "the speedup criterion needs the kernel")
    assert speedup >= 5.0, (
        f"mix sweep only {speedup:.2f}x faster than the serial object "
        f"loop (acceptance criterion is >= 5x)")
