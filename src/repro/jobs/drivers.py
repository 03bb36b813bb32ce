"""The one supervised driver behind every ``supervise=True``.

:func:`~repro.sim.sweep.run_sweep`,
:func:`~repro.sampling.driver.run_sampled`,
:func:`~repro.sim.mixsweep.run_mix_sweep`,
:func:`~repro.sim.multicore.run_churn` and the CLI's ``submit`` map
their inputs onto units (:mod:`repro.jobs.payloads`) and hand them to
:func:`run_supervised`, which deals them over
:class:`~repro.jobs.payloads.BankedJob`\\ s, runs those through a
:class:`~repro.jobs.queue.JobQueue` (the caller's, or one it owns for
the call), and returns each unit's value — bit-identical to the
in-process path, because every per-unit seed in this codebase is a
stable function of the unit's identity, never of its position in a
batch or of which worker ran it.
"""

from __future__ import annotations

from contextlib import contextmanager

from .bank import ResultBank
from .payloads import BankedJob
from .queue import JobQueue

__all__ = ["run_supervised"]


@contextmanager
def _queue(queue: JobQueue | None, bank, **options):
    """``queue`` itself, or a :class:`JobQueue` with ``options`` that
    lives (and is closed) for the duration of the block."""
    if queue is not None:
        yield queue
        return
    with JobQueue(bank, **options) as owned:
        yield owned


def run_supervised(units, *, shards: int | None = None,
                   max_workers: int = 2,
                   bank: ResultBank | str | None = None,
                   queue: JobQueue | None = None,
                   job_timeout: float | None = 600.0,
                   faults=None) -> list:
    """Run ``units`` in supervised workers; return each unit's loaded
    value, in unit order.

    The units are dealt round-robin over ``shards`` jobs (default: one
    job per unit), which run ``max_workers`` at a time.  Inside each
    job the worker banks every completed unit, so a crash costs at most
    one unit and a resubmission resumes from the bank.  ``faults`` maps
    a job's index to the :class:`~repro.jobs.faults.FaultPlan` it
    carries; it is the fault suite's hook, and is excluded from job
    keys, so a faulted run banks under the same address as a clean one.
    Raises :class:`~repro.jobs.queue.JobFailed` if a job fails.
    """
    units = list(units)
    count = len(units) if shards is None else min(max(1, shards), len(units))
    faults = faults or {}
    with _queue(queue, bank, max_workers=max_workers,
                job_timeout=job_timeout) as queue:
        jobs = [queue.submit(BankedJob(units[i::count], fault=faults.get(i)))
                for i in range(count)]
        values = [None] * len(units)
        for i, job in enumerate(jobs):
            values[i::count] = job.result()
        return values
