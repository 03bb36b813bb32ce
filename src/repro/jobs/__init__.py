"""Fault-tolerant job runtime for long sweeps.

A supervised execution layer over the declarative spec API.  Every job
is one shape, a :class:`BankedJob`: a tuple of frozen, picklable units
(:class:`SweepPoint`, :class:`SampledWindow`, :class:`MixRun`,
:class:`ChurnStream`) wrapping the existing sweep points, sampled
windows and ``MixSweepSpec``/``ChurnSpec`` descriptors, each banked under
its own content key as it completes, through one loop
(:meth:`JobContext.banked_units`).  The :class:`JobQueue` runs each
attempt in a fresh supervised worker process with heartbeat and
wall-clock watchdogs, bounded retry with exponential backoff,
cancellation, a degradation ladder that retries native-kernel crashes
under ``REPRO_NATIVE=0``, and a persistent content-addressed
:class:`ResultBank` that dedupes identical submissions and lets
interrupted sweeps resume.

The sim drivers integrate via ``supervise=True``
(:func:`repro.sim.sweep.run_sweep`,
:func:`repro.sampling.driver.run_sampled`,
:func:`repro.sim.mixsweep.run_mix_sweep`,
:func:`repro.sim.multicore.run_churn`), each through the one sharding
driver, :func:`run_supervised`; a supervised policy × scheme matrix is
``run_sweep(trace, matrix_configs(...), supervise=True, bank=...)``.
``python -m repro.jobs`` is the operator CLI.  Fault recovery is provable:
:mod:`repro.jobs.faults` injects worker deaths deterministically, and
the fault suite asserts recovered results bit-identical to unfaulted
serial runs.
"""

from .bank import DEFAULT_BANK_ENV, ResultBank
from .drivers import run_supervised
from .faults import FAULT_KINDS, FaultInjected, FaultPlan
from .keys import canonical_digest, canonical_json, code_version, job_key
from .payloads import (BankedJob, ChurnStream, InlineTrace, JobContext,
                       MixRun, SampledWindow, SweepPoint, TraceRef,
                       as_trace_source, sweep_points)
from .queue import Job, JobFailed, JobQueue, JobState, RetryPolicy
from .supervisor import SupervisedWorker, WorkerOutcome

__all__ = [
    "ResultBank", "DEFAULT_BANK_ENV",
    "JobQueue", "Job", "JobState", "JobFailed", "RetryPolicy",
    "SupervisedWorker", "WorkerOutcome",
    "BankedJob", "SweepPoint", "SampledWindow", "MixRun", "ChurnStream",
    "sweep_points", "TraceRef", "InlineTrace", "as_trace_source",
    "JobContext",
    "FaultPlan", "FaultInjected", "FAULT_KINDS",
    "job_key", "code_version", "canonical_json", "canonical_digest",
    "run_supervised",
]
