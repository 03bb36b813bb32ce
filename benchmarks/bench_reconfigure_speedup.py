"""Resumable-runtime speedup of the Fig. 7 reconfiguration loop.

PR 4 rebuilt the interval-based Talus loop on a resumable runtime: the
UMON folds each interval into persistent native stack-distance state, the
Talus cache replays each interval with one chunked native kernel call, and
warm-partition reallocation lets the array backend stay in the loop across
``configure`` calls (the object model previously being the only backend
that could resize warm partitions kept the whole loop access-by-access in
Python).

This benchmark drives the single-application loop — a one-trace
:class:`~repro.sim.multicore.ReconfiguringSharedRun` — at fig. 7 scale:
omnetpp through a 1.5 paper-MB Talus with ~10 ms-style intervals, once
with the loop pinned to the object model and once on ``backend="auto"``
(the array fast path when the kernel is available), asserting:

* the interval records (accesses, misses, allocations) are
  **bit-identical** — the fast path changes nothing but the wall clock,
  and
* the fast loop is >= 10x faster than the object loop (the acceptance
  criterion), kernel permitting.

Timings land in ``benchmarks/out/reconfigure_speedup.json`` (override with
``REPRO_BENCH_JSON_RECONFIGURE``) for cross-PR perf tracking.
"""

from __future__ import annotations

import time

import pytest

from benchlib import bench_json_path, write_bench_json
from repro.cache._native import native_available
from repro.experiments.common import trace_length
from repro.sim.multicore import ReconfiguringSharedRun
from repro.workloads.spec_profiles import get_profile

#: Fig. 7 scale: the single-app closed loop the paper's system section
#: describes — a scaled LLC, intervals of tens of thousands of accesses,
#: enough intervals for the loop (not its warm-up) to dominate.
TARGET_MB = 1.5
INTERVAL_ACCESSES = 20_000


def _bench_accesses() -> int:
    """Trace length for the loop benchmarks (longer than the default
    experiment traces so per-run fixed costs do not mask the loop)."""
    return trace_length(full=600_000, fast=360_000)


def _write_json(key: str, payload: dict) -> None:
    write_bench_json(bench_json_path("reconfigure_speedup.json",
                                     "REPRO_BENCH_JSON_RECONFIGURE"),
                     key, payload,
                     meta={"trace": "omnetpp",
                           "n_accesses": _bench_accesses()})


def _timed_run(trace, scheme: str, backend: str):
    run = ReconfiguringSharedRun(total_mb=TARGET_MB, scheme=scheme,
                                 interval_accesses=INTERVAL_ACCESSES,
                                 monitor_points=65, backend=backend)
    t0 = time.perf_counter()
    run.run([trace])
    return run, time.perf_counter() - t0


@pytest.mark.parametrize("scheme", ["way", "ideal"])
def test_reconfigure_loop_speedup(capsys, scheme):
    profile = get_profile("omnetpp")
    trace = profile.trace(n_accesses=_bench_accesses())

    slow, t_slow = _timed_run(trace, scheme, "object")
    fast, t_fast = _timed_run(trace, scheme, "auto")

    speedup = t_slow / t_fast if t_fast > 0 else float("inf")
    _write_json(f"reconfigure_{scheme}",
                {"baseline_s": t_slow, "fast_s": t_fast, "speedup": speedup,
                 "intervals": len(fast.records)})
    with capsys.disabled():
        print()
        print(f"== Talus+{scheme} reconfiguration loop "
              f"({len(trace)} accesses, {len(fast.records)} intervals) ==")
        print(f"  object-model loop       : {t_slow * 1000:8.1f} ms")
        print(f"  resumable runtime (auto): {t_fast * 1000:8.1f} ms")
        print(f"  speedup                 : {speedup:8.1f}x "
              f"(native={'yes' if native_available() else 'no'})")

    # The closed loop is bit-identical across backends: same interval
    # boundaries, same miss counts, same planned allocations.
    assert len(slow.records) == len(fast.records)
    for a, b in zip(slow.records, fast.records):
        assert (a.accesses, a.misses) == (b.accesses, b.misses)
        assert a.allocations_mb == b.allocations_mb

    if not native_available():
        pytest.skip("no C compiler: both loops run on the object model; "
                    "the speedup criterion needs the kernel")
    if scheme == "way":
        assert speedup >= 10.0, (
            f"reconfiguration loop only {speedup:.2f}x faster on the "
            f"resumable runtime (acceptance criterion is >= 10x)")


def test_multi_app_reconfigure_runs(capsys):
    """The execution-driven Fig. 12/13 counterpart: three apps, one shared
    Talus, coordinated warm reconfiguration — a scenario the repo could
    not execute before this PR (only model analytically)."""
    profiles = [get_profile(name) for name in
                ("omnetpp", "libquantum", "mcf")]
    traces = [p.trace(n_accesses=trace_length()) for p in profiles]
    run = ReconfiguringSharedRun(total_mb=3.0,
                                 interval_accesses=INTERVAL_ACCESSES)
    t0 = time.perf_counter()
    records = run.run(traces)
    dt = time.perf_counter() - t0
    result = run.mix_result(profiles)
    _write_json("shared_3apps",
                {"seconds": dt, "intervals": len(records),
                 "allocations_mb": list(records[-1].allocations_mb),
                 "mpkis": [app.mpki for app in result.apps]})
    with capsys.disabled():
        print()
        print(f"== shared 3-app reconfiguration ({len(records)} intervals, "
              f"{dt * 1000:.1f} ms) ==")
        for app, alloc in zip(result.apps, records[-1].allocations_mb):
            print(f"  {app.name:12s} alloc {alloc:5.2f} MB   "
                  f"mpki {app.mpki:7.2f}   ipc {app.ipc:5.3f}")
    assert len(records) >= 2
    # Talus should starve the app whose curve offers nothing at this scale
    # (libquantum's cliff is far beyond 3 MB) in favour of the apps with
    # reachable cliffs — the Fig. 12 story, now executed rather than
    # modelled.
    allocs = dict(zip((p.name for p in profiles),
                      records[-1].allocations_mb))
    assert allocs["omnetpp"] > allocs["libquantum"]
