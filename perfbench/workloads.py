"""The benchmark's four closed-loop workloads.

Each workload is built once per worker process from the workload seed
(``setup``: input generation and any reference run) and then executes the
same fixed unit of work over and over.  A unit starts from empty simulated
caches, returns the simulated accesses it performed, a digest of its
simulated output and the host times of its operations, and raises
:class:`CheckFailed` when an output invariant does not hold.

Only public entry points of ``repro`` are called, at thread width 1.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("churn", "mixsweep", "matrix", "banked")
SIZES = ("default", "tiny")


class CheckFailed(AssertionError):
    """A unit's simulated output broke one of the workload's invariants."""


@dataclass
class UnitResult:
    """What one unit of work produced.

    ``ops`` holds the host times (seconds) of the unit's operations in
    their deterministic order; ``replans`` and ``caches`` let the traced
    run check ``cache.configure`` calls against the work recorded.
    ``timed_seconds`` is the host time the unit's accesses are charged
    to when that is not the whole unit (banked: the cold submission),
    and ``warm_ns`` the ``perf_counter_ns`` window of banked's warm pass.
    """

    accesses: int
    digest: str
    ops: list = field(default_factory=list)
    replans: int = 0
    caches: int = 0
    timed_seconds: float | None = None
    warm_ns: tuple | None = None


def digest_of(obj) -> str:
    """sha256 of ``repr(obj)``: floats print exactly (shortest repr)."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --------------------------------------------------------------------- #
# churn: the online controller fed a 16..32-app event stream
# --------------------------------------------------------------------- #
#: Seed of the churn stream (its schedule of arrivals, departures and QoS
#: updates, and every app's trace).  It is held fixed, like mixsweep's
#: mixes and matrix's run seed, so every workload seed does the same
#: control-plane work: seeds drawn for the schedule moved a unit between
#: 75 and 118 replans and its throughput by 50 %.
SCHEDULE_SEED = 2015


class Churn:
    """A churning 16..32-app ``ChurnSpec`` stream fed event by event to a
    fresh ``OnlineTalusController``; an operation is one ``handle()``
    call that ends in a reconfiguration.  The stream is fixed
    (:data:`SCHEDULE_SEED`); the workload seed does not change it."""

    def __init__(self, seed: int, size: str):
        from repro.sim.multicore import ChurnSpec, churn_events
        if size == "tiny":
            self.spec = ChurnSpec(
                total_mb=2.0, max_apps=8, initial_apps=4, min_apps=4,
                steps=8, batch_accesses=500, trace_accesses=4_000,
                arrive_prob=0.35, depart_prob=0.30, qos_prob=0.25,
                qos_floor_mb_max=0.125, qos_max_fraction=0.5,
                base_seed=SCHEDULE_SEED)
        else:
            self.spec = ChurnSpec(
                total_mb=8.0, max_apps=32, initial_apps=16, min_apps=16,
                steps=64, batch_accesses=1_000, trace_accesses=48_000,
                arrive_prob=0.35, depart_prob=0.30, qos_prob=0.25,
                qos_floor_mb_max=0.25, qos_max_fraction=0.5,
                base_seed=SCHEDULE_SEED)
        self.events = churn_events(self.spec)

    def unit(self) -> UnitResult:
        from repro.sim import controller as controller_module
        controller = controller_module.OnlineTalusController(
            self.spec.total_mb, max_apps=self.spec.max_apps,
            algorithm=controller_module.hill_climbing, parallel="off",
            threads=1)
        ops = []
        clock = time.perf_counter
        with controller:
            for event in self.events:
                before = len(controller.replans)
                start = clock()
                controller.handle(event)
                elapsed = clock() - start
                if len(controller.replans) != before:
                    ops.append(elapsed)
            result = controller.result()
        for replan in result.replans:
            for app, granted, floor in zip(replan.apps, replan.granted,
                                           replan.floors):
                _require(app is None or granted + 1e-6 >= floor,
                         f"replan {replan.seq}: {app} granted {granted} "
                         f"below its floor {floor}")
        accesses = sum(batch.accesses for batch in result.batches)
        return UnitResult(accesses=accesses,
                          digest=digest_of(result.signature()), ops=ops,
                          replans=result.reconfigurations, caches=1)


# --------------------------------------------------------------------- #
# mixsweep: the Fig. 12/13 execution-driven mix sweep
# --------------------------------------------------------------------- #
class MixSweep:
    """``run_mix_sweep`` over four fixed random 8-app mixes (Vantage/LRU,
    hill climbing), ending with the Fig. 12 ``gmean_speedup`` bridge;
    the operation is the whole sweep."""

    def __init__(self, seed: int, size: str):
        from repro.sim.mixsweep import MixSweepSpec, mix_trace_seed
        from repro.workloads.mixes import random_mixes
        if size == "tiny":
            self.mixes = random_mixes(2, apps_per_mix=4, seed=2015)
            self.spec = MixSweepSpec(total_mb=2.0, trace_accesses=8_000,
                                     interval_accesses=2_000,
                                     base_seed=seed, max_workers=1)
        else:
            self.mixes = random_mixes(4, apps_per_mix=8, seed=2015)
            self.spec = MixSweepSpec(total_mb=4.0, trace_accesses=60_000,
                                     interval_accesses=15_000,
                                     base_seed=seed, max_workers=1)
        # Ground truth for the replay check: each core's trace length.
        self.lengths = [
            [len(app.trace(n_accesses=self.spec.trace_accesses,
                           seed=mix_trace_seed(seed, mix.name, core,
                                               app.name)))
             for core, app in enumerate(mix.apps)]
            for mix in self.mixes]

    def unit(self) -> UnitResult:
        from repro.sim.mixsweep import run_mix_sweep
        from repro.workloads.tracestore import TraceStore
        start = time.perf_counter()
        with TraceStore(backing="memory") as store:
            result = run_mix_sweep(self.mixes, self.spec, max_workers=1,
                                   trace_store=store)
        gmean = result.gmean_speedup("weighted")
        elapsed = time.perf_counter() - start
        accesses = 0
        replans = 0
        records = []
        for mix, lengths in zip(self.mixes, self.lengths):
            record = result[mix.name]
            for app, length in enumerate(lengths):
                total = sum(r.accesses[app] for r in record.intervals)
                _require(total == length, f"{mix.name} app {app} replayed "
                                          f"{total} of {length} accesses")
                accesses += total
            replans += max(0, len(record.intervals)
                           - self.spec.warmup_intervals)
            records.append((mix.name, tuple(
                (r.index, r.accesses, r.misses, r.allocations_mb)
                for r in record.intervals)))
        _require(gmean > 0.0, f"gmean speedup {gmean} is not positive")
        return UnitResult(accesses=accesses,
                          digest=digest_of((tuple(records), gmean)),
                          ops=[elapsed], replans=replans,
                          caches=len(self.mixes))


# --------------------------------------------------------------------- #
# matrix: the whole policy x scheme x size matrix in one dispatch
# --------------------------------------------------------------------- #
class Matrix:
    """``run_matrix_sweep(threads=1)`` over LRU/SRRIP/DRRIP/TA-DRRIP/
    Belady x none/way/set/ideal/vantage x 0.5/1/2 MB on one omnetpp
    trace (63 cells); the operation is the whole sweep."""

    POLICIES = ("LRU", "SRRIP", "DRRIP", "TA-DRRIP", "Belady")
    SIZES_MB = (0.5, 1.0, 2.0)

    def __init__(self, seed: int, size: str):
        from repro.workloads.spec_profiles import get_profile
        length = 6_000 if size == "tiny" else 60_000
        self.trace = get_profile("omnetpp").trace(n_accesses=length,
                                                  seed=seed)

    def unit(self) -> UnitResult:
        from repro.sim.sweep import run_matrix_sweep
        from repro.workloads.tracestore import TraceStore
        start = time.perf_counter()
        with TraceStore(backing="memory") as store:
            result = run_matrix_sweep(
                self.trace, sizes_mb=self.SIZES_MB, policies=self.POLICIES,
                num_partitions=2, threads=1, seed=2015, trace_store=store)
        elapsed = time.perf_counter() - start
        length = len(self.trace)
        cells = []
        for key in sorted(result.stats):
            stats = result.stats[key]
            _require(stats.accesses == length,
                     f"cell {key} replayed {stats.accesses} of {length}")
            cells.append((key, stats.accesses, stats.misses))
        _require(len(cells) == 63, f"{len(cells)} matrix cells, expected 63")
        return UnitResult(accesses=length * len(cells),
                          digest=digest_of(tuple(cells)), ops=[elapsed])


# --------------------------------------------------------------------- #
# banked: supervised sweep into a fresh bank, then resumed from it
# --------------------------------------------------------------------- #
def _stats_signature(result) -> tuple:
    return tuple((key, s.accesses, s.hits, s.misses, s.bypasses)
                 for key, s in sorted(result.stats.items()))


class Banked:
    """A fixed 6-config ``SweepSpec`` submitted with
    ``run_sweep(supervise=True, max_workers=1)`` into a fresh bank
    (cold), then again (warm, every job a bank hit).  The cold
    submission carries the unit's accesses; the operation is the warm
    resubmission."""

    def __init__(self, seed: int, size: str, workdir: Path):
        from repro.sim.sweep import SweepSpec, run_sweep
        from repro.workloads.spec_profiles import get_profile
        length = 3_000 if size == "tiny" else 30_000
        self.trace = get_profile("mcf").trace(n_accesses=length, seed=seed)
        self.spec = SweepSpec(policies=("LRU", "DRRIP"),
                              sizes_mb=(0.5, 1.0, 2.0))
        self.workdir = Path(workdir)
        self.count = 0
        # Supervision must change nothing but the wall clock.
        self.reference = _stats_signature(
            run_sweep(self.trace, self.spec, max_workers=1, threads=1))

    def unit(self) -> UnitResult:
        from repro.sim.sweep import run_sweep
        bank = self.workdir / f"bank-{self.count}"
        self.count += 1
        shutil.rmtree(bank, ignore_errors=True)
        clock = time.perf_counter_ns
        try:
            t0 = clock()
            cold = run_sweep(self.trace, self.spec, supervise=True,
                             bank=bank, max_workers=1)
            t1 = clock()
            warm = run_sweep(self.trace, self.spec, supervise=True,
                             bank=bank, max_workers=1)
            t2 = clock()
        finally:
            shutil.rmtree(bank, ignore_errors=True)
        cold_sig = _stats_signature(cold)
        _require(cold_sig == self.reference,
                 "supervised cold sweep differs from the in-process sweep")
        _require(_stats_signature(warm) == self.reference,
                 "warm resubmission differs from the in-process sweep")
        accesses = sum(entry[1] for entry in cold_sig)
        return UnitResult(accesses=accesses, digest=digest_of(cold_sig),
                          ops=[(t2 - t1) / 1e9],
                          timed_seconds=(t1 - t0) / 1e9, warm_ns=(t1, t2))


def build(name: str, seed: int, size: str, workdir: Path):
    """Set up workload ``name`` (inputs generated from ``seed``)."""
    if name == "churn":
        return Churn(seed, size)
    if name == "mixsweep":
        return MixSweep(seed, size)
    if name == "matrix":
        return Matrix(seed, size)
    if name == "banked":
        return Banked(seed, size, workdir)
    raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
