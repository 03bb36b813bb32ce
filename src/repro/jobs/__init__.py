"""Fault-tolerant job runtime for long sweeps.

A supervised execution layer over the declarative spec API: jobs are
frozen, picklable payloads (:class:`SweepJob`, :class:`SamplingJob`,
:class:`MixSweepJob`, :class:`ControllerJob`) wrapping the existing
sweep points and ``MixSweepSpec``/``ChurnSpec`` descriptors.  Jobs with
many units (sweep points, a matrix's cells among them, and sampled
windows) bank each unit as it completes, through one loop
(:meth:`JobContext.banked_units`); the
:class:`JobQueue` runs each attempt in a fresh supervised worker process
with heartbeat and wall-clock watchdogs, bounded retry with exponential
backoff, cancellation, a degradation ladder that retries native-kernel
crashes under ``REPRO_NATIVE=0``, and a persistent content-addressed
:class:`ResultBank` that dedupes identical submissions and lets
interrupted sweeps resume.

The sim drivers integrate via ``supervise=True``
(:func:`repro.sim.sweep.run_sweep`,
:func:`repro.sampling.driver.run_sampled`,
:func:`repro.sim.mixsweep.run_mix_sweep`,
:func:`repro.sim.multicore.run_churn`); a supervised policy × scheme
matrix is ``run_sweep(trace, matrix_configs(...), supervise=True,
bank=...)``.  ``python -m repro.jobs`` is the operator CLI.  Fault recovery is provable:
:mod:`repro.jobs.faults` injects worker deaths deterministically, and
the fault suite asserts recovered results bit-identical to unfaulted
serial runs.
"""

from .bank import DEFAULT_BANK_ENV, ResultBank
from .drivers import (run_controller_supervised, run_mix_sweep_supervised,
                      run_sampled_supervised, run_sweep_supervised)
from .faults import FAULT_KINDS, FaultInjected, FaultPlan
from .keys import canonical_digest, canonical_json, code_version, job_key
from .payloads import (ControllerJob, InlineTrace, JobContext, MixSweepJob,
                       SamplingJob, SweepJob, TraceRef, as_trace_source)
from .queue import Job, JobFailed, JobQueue, JobState, RetryPolicy
from .supervisor import SupervisedWorker, WorkerOutcome

__all__ = [
    "ResultBank", "DEFAULT_BANK_ENV",
    "JobQueue", "Job", "JobState", "JobFailed", "RetryPolicy",
    "SupervisedWorker", "WorkerOutcome",
    "SweepJob", "MixSweepJob", "ControllerJob", "SamplingJob",
    "TraceRef", "InlineTrace", "as_trace_source", "JobContext",
    "FaultPlan", "FaultInjected", "FAULT_KINDS",
    "job_key", "code_version", "canonical_json", "canonical_digest",
    "run_sweep_supervised", "run_mix_sweep_supervised",
    "run_sampled_supervised", "run_controller_supervised",
]
