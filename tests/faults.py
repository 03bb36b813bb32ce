"""Fault-injection harness shared by the recovery test suites.

The suites all follow one shape: run a small workload twice — once
serial and unfaulted, once through the supervised runtime with a
:class:`~repro.jobs.faults.FaultPlan` arranged to kill/hang/crash a
worker at a deterministic unit boundary — and assert the recovered
result is *bit-identical* to the unfaulted one.  This module provides
the shared ingredients:

* small deterministic workloads (:func:`small_trace`, :func:`small_spec`)
  sized so a whole faulted run stays under a second;
* tight-watchdog queue construction (:func:`fault_queue`) so hang tests
  do not sit out production-sized timeout budgets;
* exact result signatures (:func:`sweep_signature`,
  :func:`record_signature`) — every counter, not a tolerance — and
  :func:`job_stats`, a sweep job's stats keyed like a sweep's.
"""

from __future__ import annotations

from repro.jobs import JobQueue, ResultBank, RetryPolicy
from repro.sim.sweep import SweepSpec, run_sweep
from repro.workloads.spec_profiles import get_profile

#: Profile/size parameters small enough for sub-second faulted runs.
PROFILE = "mcf"
ACCESSES = 4_000
TRACE_SEED = 3
SIZES_MB = (0.5, 1.0, 2.0)


def small_trace():
    """The suite's standard deterministic trace."""
    return get_profile(PROFILE).trace(n_accesses=ACCESSES, seed=TRACE_SEED)


def small_spec(**overrides) -> SweepSpec:
    """The suite's standard three-point LRU sweep."""
    params = dict(policies=("LRU",), sizes_mb=SIZES_MB)
    params.update(overrides)
    return SweepSpec(**params)


def serial_signature(trace=None, spec=None) -> dict:
    """Signature of the unfaulted serial reference run."""
    trace = trace if trace is not None else small_trace()
    spec = spec if spec is not None else small_spec()
    return sweep_signature(run_sweep(trace, spec).stats)


def sweep_signature(stats: dict) -> dict:
    """Every counter of every config — the bit-identity fingerprint."""
    return {key: (point.accesses, point.hits, point.misses,
                  point.bypasses)
            for key, point in stats.items()}


def job_stats(job) -> dict:
    """A finished sweep job's stats, keyed by each point's sweep key
    (raises :class:`~repro.jobs.queue.JobFailed` as ``job.result()``)."""
    return {unit.key: stats
            for unit, stats in zip(job.payload.units, job.result())}


def record_signature(records) -> list:
    """Exact fingerprint of shared-run/mix interval records."""
    return [(r.index, tuple(r.accesses), tuple(r.misses),
             tuple(r.allocations_mb)) for r in records]


def fault_queue(bank_dir, *, max_workers: int = 1,
                job_timeout: float | None = 60.0,
                heartbeat_timeout: float = 60.0,
                max_retries: int = 3) -> JobQueue:
    """A queue with test-sized watchdog and backoff budgets.

    Backoff is shrunk so a retried fault resolves in milliseconds; the
    watchdog budgets stay generous by default (hang tests tighten
    ``job_timeout`` explicitly) so slow CI machines never trip them
    spuriously.
    """
    return JobQueue(ResultBank(bank_dir), max_workers=max_workers,
                    job_timeout=job_timeout,
                    heartbeat_timeout=heartbeat_timeout,
                    retry=RetryPolicy(max_retries=max_retries,
                                      backoff_base=0.02, jitter=0.1))
