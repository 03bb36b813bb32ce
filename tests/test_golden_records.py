"""Golden records of the closed Talus loops and the analytic planner.

Each digest below was computed before the single-application loop, the
second Talus planner and the supervised shared run were folded into the
remaining code paths.  They pin, bit for bit:

* the per-interval ``(accesses, misses)`` of a one-trace
  :class:`~repro.sim.multicore.ReconfiguringSharedRun` on every
  partitioning scheme, on the native (``auto``) and object backends — the
  records the deleted single-application loop produced;
* the interval records of a 3-app Vantage fixed mix;
* a small churn stream's :meth:`ControllerResult.signature`;
* the analytic ``talus-hill`` / ``talus-fair`` results of
  :class:`~repro.sim.multicore.SharedCacheExperiment` on two mixes.

A failure here means a simulated output changed; that is never a
refactor.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cache.spec import PartitionSpec
from repro.sim.multicore import (ChurnSpec, ReconfiguringSharedRun,
                                 SharedCacheExperiment, run_churn)
from repro.workloads.mixes import WorkloadMix
from repro.workloads.scale import lines_to_paper_mb, paper_mb_to_lines
from repro.workloads.spec_profiles import get_profile


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


#: ``(scheme, backend, total_mb, accesses, interval, profile) -> digest``
#: of the per-interval ``(accesses, misses)`` of one app alone.
SINGLE_APP = {
    ("ideal", "auto", 1.5, 40_000, 8_000, "omnetpp"): "1db6738e041b41c1",
    ("ideal", "auto", 1.3, 40_000, 8_000, "xalancbmk"): "141f9dc82a7e95cb",
    ("way", "auto", 1.5, 40_000, 8_000, "omnetpp"): "122be7e6bcd60b9b",
    ("set", "auto", 1.5, 40_000, 8_000, "omnetpp"): "e032f03768c0faad",
    ("vantage", "auto", 1.0, 40_000, 8_000, "omnetpp"): "3d96a09be4b45b12",
    ("vantage", "object", 1.0, 16_000, 4_000, "omnetpp"): "71083ef4e1295876",
    ("ideal", "object", 1.0, 16_000, 4_000, "mcf"): "2ff8138536dd7fd2",
}


@pytest.mark.parametrize("case", sorted(SINGLE_APP),
                         ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}MB-{c[5]}")
def test_one_trace_run(case):
    scheme, backend, total_mb, accesses, interval, profile = case
    trace = get_profile(profile).trace(n_accesses=accesses)
    run = ReconfiguringSharedRun(total_mb=total_mb, scheme=scheme,
                                 interval_accesses=interval,
                                 monitor_points=65, backend=backend)
    records = run.run([trace])
    rows = tuple((int(r.accesses[0]), int(r.misses[0])) for r in records)
    assert _digest(rows) == SINGLE_APP[case]
    # The lone app holds the whole partitionable capacity throughout.
    partitionable = PartitionSpec(
        scheme=scheme, capacity_lines=paper_mb_to_lines(total_mb),
        num_partitions=2).partitionable_lines
    whole = min(total_mb, lines_to_paper_mb(partitionable))
    assert records[0].allocations_mb == (lines_to_paper_mb(partitionable),)
    assert all(r.allocations_mb == (whole,) for r in records[1:])


def test_three_app_vantage_mix():
    traces = [get_profile(p).trace(n_accesses=18_000)
              for p in ("omnetpp", "mcf", "libquantum")]
    run = ReconfiguringSharedRun(total_mb=2.0, scheme="vantage",
                                 interval_accesses=6_000)
    rows = tuple((r.index, tuple(int(a) for a in r.accesses),
                  tuple(int(m) for m in r.misses),
                  tuple(float(a) for a in r.allocations_mb))
                 for r in run.run(traces))
    assert _digest(rows) == "1e52499de920eb54"


def test_churn_signature():
    spec = ChurnSpec(total_mb=0.5, max_apps=3, initial_apps=2, steps=10,
                     batch_accesses=300, trace_accesses=3_000,
                     arrive_prob=0.4, depart_prob=0.35, qos_prob=0.4,
                     qos_floor_mb_max=0.05, base_seed=42)
    result = run_churn(spec, base_interval_accesses=600)
    assert len(result.replans) == 14
    assert _digest(result.signature()) == "a1cb438a3f142b55"


#: ``(mix, scheme) -> digest`` of the analytic per-app allocation, MPKI
#: and IPC.  The mixes and sizes are those of
#: ``tests/test_sim_and_metrics.py``, so their LRU curves are computed
#: once per test session.
ANALYTIC = {
    ("golden-a", "talus-hill"): "ce48748a2ec3eba2",
    ("golden-a", "talus-fair"): "e7f81f6c8ee9ecd1",
    ("golden-b", "talus-hill"): "615df4af5eacb285",
    ("golden-b", "talus-fair"): "087d177bdfc70b08",
}


def test_analytic_talus_schemes():
    mixes = {"golden-a": (("omnetpp", "mcf", "hmmer", "lbm"), 4.0),
             "golden-b": (("omnetpp", "xalancbmk", "lbm", "mcf"), 8.0)}
    digests = {}
    for name, (apps, total_mb) in mixes.items():
        mix = WorkloadMix(name, tuple(get_profile(app) for app in apps))
        experiment = SharedCacheExperiment(mix, total_mb=total_mb,
                                           curve_points=33,
                                           safety_margin=0.05)
        for scheme in ("talus-hill", "talus-fair"):
            result = experiment.evaluate(scheme)
            digests[(name, scheme)] = _digest(tuple(
                (a.name, float(a.allocation_mb), float(a.mpki),
                 float(a.ipc)) for a in result.apps))
    assert digests == ANALYTIC
