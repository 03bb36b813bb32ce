"""Online controller throughput: warm event-driven replans vs restarts.

The online controller's reason to exist is *churn*: applications arrive
and depart while the shared cache keeps running.  A system without it
has one recourse per churn event — tear the shared loop down and restart
it cold (:class:`~repro.sim.multicore.ReconfiguringSharedRun` built
afresh: new cache, new monitors, a warm-up interval before the first
usable plan).  This benchmark prices that difference:

* **controller**: one :class:`~repro.sim.multicore.ChurnSpec` stream
  churning between 16 and 32 applications (arrivals, departures, QoS
  floor updates, per-app access batches) consumed by a single warm
  :class:`~repro.sim.controller.OnlineTalusController`; measured in
  reconfigurations per second over the whole stream.
* **baseline**: a restart-per-event loop — for each reconfiguration the
  baseline rebuilds the shared run from scratch over the 16-app mix and
  replays a warm-up plus one planned interval to reach its first usable
  plan; measured the same way.

Acceptance (kernel permitting): the warm controller sustains **>= 5x**
the baseline's reconfigurations per second, and — always checked — every
recorded replan honours every active app's QoS floor, with the active
population inside the churning 16..32 band throughout.

Timings land in ``benchmarks/out/online_controller.json`` (override with
``REPRO_BENCH_JSON_CONTROLLER``).
"""

from __future__ import annotations

import time

from benchlib import bench_json_path, write_bench_json
from repro.cache._native import native_available
from repro.experiments.common import trace_length
from repro.sim.multicore import (ChurnSpec, ReconfiguringSharedRun,
                                 churn_events, run_churn)
from repro.workloads.spec_profiles import memory_intensive_profiles

TOTAL_MB = 8.0
INTERVAL_ACCESSES = 20_000
#: Restarts the baseline is charged for (each one produces one plan).
BASELINE_RESTARTS = 3


def _churn_spec() -> ChurnSpec:
    return ChurnSpec(
        total_mb=TOTAL_MB, max_apps=32, initial_apps=16,
        min_apps=16, steps=trace_length(full=48, fast=24),
        batch_accesses=1_000, trace_accesses=trace_length(
            full=48_000, fast=24_000),
        arrive_prob=0.35, depart_prob=0.30, qos_prob=0.25,
        qos_floor_mb_max=0.25, qos_max_fraction=0.5)


def _write_json(key: str, payload: dict, spec: ChurnSpec) -> None:
    write_bench_json(bench_json_path("online_controller.json",
                                     "REPRO_BENCH_JSON_CONTROLLER"),
                     key, payload,
                     meta={"total_mb": spec.total_mb,
                           "steps": spec.steps,
                           "batch_accesses": spec.batch_accesses,
                           "baseline_restarts": BASELINE_RESTARTS})


def _baseline_restart_rate() -> tuple[float, float]:
    """Reconfigurations per second of the restart-per-event strategy.

    Each "event" forces a full cold rebuild: a fresh 16-app
    :class:`ReconfiguringSharedRun` (new cache arrays, new monitors)
    replaying one warm-up interval plus one planned interval per app —
    the minimum work before the restarted loop has a usable plan again.
    """
    profiles = memory_intensive_profiles()
    traces = [profiles[i % len(profiles)].trace(
        n_accesses=2 * INTERVAL_ACCESSES, seed=100 + i) for i in range(16)]
    t0 = time.perf_counter()
    for _ in range(BASELINE_RESTARTS):
        run = ReconfiguringSharedRun(total_mb=TOTAL_MB,
                                     interval_accesses=INTERVAL_ACCESSES)
        run.run(traces)
    elapsed = time.perf_counter() - t0
    return BASELINE_RESTARTS / elapsed, elapsed


def test_online_controller_throughput(capsys):
    spec = _churn_spec()
    events = churn_events(spec)

    t0 = time.perf_counter()
    result = run_churn(spec)
    controller_s = time.perf_counter() - t0
    controller_rate = result.reconfigurations / controller_s

    baseline_rate, baseline_s = _baseline_restart_rate()
    ratio = controller_rate / baseline_rate if baseline_rate else float("inf")

    _write_json("churn_16_32",
                {"events": len(events),
                 "batches": len(result.batches),
                 "reconfigurations": result.reconfigurations,
                 "controller_s": controller_s,
                 "controller_reconfigs_per_s": controller_rate,
                 "baseline_s": baseline_s,
                 "baseline_reconfigs_per_s": baseline_rate,
                 "speedup": ratio}, spec)
    with capsys.disabled():
        print()
        print(f"== online controller churn ({len(events)} events, "
              f"{result.reconfigurations} reconfigurations) ==")
        print(f"  warm controller   : {controller_rate:8.2f} reconfigs/s "
              f"({controller_s * 1000:.0f} ms)")
        print(f"  restart-per-event : {baseline_rate:8.2f} reconfigs/s "
              f"({baseline_s * 1000:.0f} ms for {BASELINE_RESTARTS})")
        print(f"  advantage         : {ratio:8.1f}x "
              f"(native={'yes' if native_available() else 'no'})")

    # The stream really churns inside the 16..32 band (after the initial
    # arrival ramp, whose replans see populations 1..16).
    populations = [sum(1 for app in replan.apps if app is not None)
                   for replan in result.replans][spec.initial_apps:]
    assert min(populations) >= 16 and max(populations) <= 32
    assert len(set(populations)) > 1, "population never changed — no churn"

    # QoS floors hold at every recorded reconfiguration, for every slot.
    for replan in result.replans:
        for app, granted, floor in zip(replan.apps, replan.granted,
                                       replan.floors):
            if app is not None:
                assert granted + 1e-6 >= floor, (
                    f"replan {replan.seq} violates {app!r}: "
                    f"{granted} < {floor}")

    if not native_available():
        import pytest
        pytest.skip("no C compiler: both sides run the object model; "
                    "the throughput criterion is calibrated to the kernel")
    assert ratio >= 5.0, (
        f"warm controller only {ratio:.2f}x the restart-per-event baseline "
        f"(acceptance criterion is >= 5x)")
