"""Supervised counterparts of the top-level sim drivers.

These are what ``supervise=True`` on :func:`~repro.sim.sweep.run_sweep`,
:func:`~repro.sampling.driver.run_sampled`,
:func:`~repro.sim.mixsweep.run_mix_sweep` and
:func:`~repro.sim.multicore.run_churn` delegate to.  Each one maps the
driver's inputs onto job payloads, runs them through a
:class:`~repro.jobs.queue.JobQueue` (the caller's, or one it owns for the
call), and reassembles the driver's normal result type — bit-identical
to the unsupervised path, because every per-unit seed in this codebase
is a stable function of the unit's identity, never of its position in a
batch or of which worker ran it.  A single fixed mix runs supervised as
a one-mix ``run_mix_sweep``, and a supervised policy × scheme matrix is
``run_sweep(trace, matrix_configs(...), supervise=True, bank=...)``.

Fault-injection hooks (``faults=``) take a mapping from unit index (or
mix name) to a :class:`~repro.jobs.faults.FaultPlan`; they exist for the
fault suite and for operators who want to drill recovery paths, and are
excluded from job keys so a faulted run banks under the same address as
a clean one.
"""

from __future__ import annotations

from contextlib import contextmanager

from .bank import ResultBank
from .payloads import MixSweepJob, SamplingJob, SweepJob, as_trace_source
from .queue import JobQueue

__all__ = ["run_sweep_supervised", "run_mix_sweep_supervised",
           "run_sampled_supervised", "run_controller_supervised"]


@contextmanager
def _queue(queue: JobQueue | None, bank, **options):
    """``queue`` itself, or a :class:`JobQueue` with ``options`` that
    lives (and is closed) for the duration of the block."""
    if queue is not None:
        yield queue
        return
    with JobQueue(bank, **options) as owned:
        yield owned


def _split(items, shards: int) -> list[list]:
    """Deal ``items`` round-robin into at most ``shards`` groups."""
    shards = max(1, min(shards, len(items)))
    groups = [[] for _ in range(shards)]
    for i, item in enumerate(items):
        groups[i % shards].append(item)
    return [g for g in groups if g]


def run_sweep_supervised(trace, spec, *, backend: str | None = None,
                         max_workers: int | None = None,
                         bank: ResultBank | str | None = None,
                         queue: JobQueue | None = None,
                         job_timeout: float | None = 600.0,
                         faults=None):
    """Supervised :func:`~repro.sim.sweep.run_sweep`.

    ``spec`` is a :class:`~repro.sim.sweep.SweepSpec` or a config
    sequence, such as a matrix's
    (:func:`~repro.sim.sweep.matrix_configs`).  Configs are sharded
    round-robin across ``max_workers`` jobs (a
    :class:`~repro.sim.sweep.SweepSpec`'s own ``max_workers`` by
    default, else 2); inside each job the worker banks every completed
    config, so a crash costs at most one config and a resubmission
    resumes from the bank.  ``backend`` overrides a ``SweepSpec``'s, as
    in :func:`~repro.sim.sweep.sweep_configs`.  Returns the usual
    :class:`~repro.sim.sweep.SweepResult`.
    """
    from ..sim.sweep import SweepResult, sweep_configs
    configs = sweep_configs(spec, backend)
    source = as_trace_source(trace)
    workers = (max_workers if max_workers is not None
               else getattr(spec, "max_workers", 2))
    with _queue(queue, bank, max_workers=workers,
                job_timeout=job_timeout) as queue:
        jobs = []
        for shard_index, shard in enumerate(_split(configs, workers)):
            fault = None if faults is None else faults.get(shard_index)
            jobs.append(queue.submit(SweepJob(
                trace=source, configs=tuple(shard), fault=fault)))
        merged: dict = {}
        instructions = 0
        for job in jobs:
            result = job.result()          # raises JobFailed on failure
            merged.update(result.stats)
            instructions = result.instructions or instructions
        return SweepResult(merged, instructions=instructions)


def run_sampled_supervised(trace, cache, spec, units, *,
                           max_workers: int = 2,
                           bank: ResultBank | str | None = None,
                           queue: JobQueue | None = None,
                           job_timeout: float | None = 600.0,
                           faults=None) -> list[tuple]:
    """Supervised window execution for
    :func:`~repro.sampling.driver.run_sampled`.

    Window units are sharded round-robin across ``max_workers``
    :class:`SamplingJob` payloads; every completed window banks under
    its own content key, so a killed worker loses at most one window and
    a resubmission (same trace/cache/spec) resumes from the bank.
    ``faults`` maps shard index to a :class:`~repro.jobs.faults.FaultPlan`
    (fault-suite hook).  Returns the raw per-window rows; the caller
    assembles the :class:`~repro.sampling.estimator.SampledResult`.
    """
    del spec  # window identity is fully encoded in the pre-derived units
    source = as_trace_source(trace)
    units = list(units)
    with _queue(queue, bank, max_workers=max_workers,
                job_timeout=job_timeout) as queue:
        jobs = []
        for shard_index, shard in enumerate(_split(units, max_workers)):
            fault = None if faults is None else faults.get(shard_index)
            jobs.append(queue.submit(SamplingJob(
                trace=source, cache=cache, units=tuple(shard),
                fault=fault)))
        rows: list[tuple] = []
        for job in jobs:
            rows.extend(job.result())      # raises JobFailed on failure
        return rows


def run_mix_sweep_supervised(mixes, spec, *,
                             bank: ResultBank | str | None = None,
                             queue: JobQueue | None = None,
                             max_workers: int | None = None,
                             job_timeout: float | None = 1800.0,
                             faults=None):
    """Supervised :func:`~repro.sim.mixsweep.run_mix_sweep`.

    One job per mix (the natural isolation unit of the closed loop);
    each finished mix banks individually, so an interrupted sweep
    resumes by skipping the mixes already in the bank.  Returns the
    usual :class:`~repro.sim.mixsweep.MixSweepResult`.
    """
    from ..sim.mixsweep import MixSweepResult
    mixes = list(mixes)
    workers = max_workers if max_workers is not None \
        else max(spec.max_workers, 1)
    with _queue(queue, bank, max_workers=workers,
                job_timeout=job_timeout) as queue:
        jobs = []
        for mix in mixes:
            fault = None if faults is None else faults.get(mix.name)
            jobs.append(queue.submit(MixSweepJob(spec=spec, mix=mix,
                                                 fault=fault)))
        records = [job.result() for job in jobs]
        return MixSweepResult(spec, mixes, records)


def run_controller_supervised(spec, *, bank=None,
                              queue: JobQueue | None = None,
                              job_timeout: float | None = 1800.0,
                              fault=None, algorithm=None,
                              **controller_kwargs):
    """Run one online-controller churn stream
    (:func:`~repro.sim.multicore.run_churn` with ``supervise=True``) in a
    supervised worker; returns its
    :class:`~repro.sim.controller.ControllerResult`.

    ``algorithm`` may be a registered name or the registered callable
    itself; the remaining keyword arguments are the scalar
    :class:`~repro.jobs.payloads.ControllerJob` fields (scheme, interval
    and drift knobs, ...).  ``parallel``, ``threads`` and ``validate``
    never change a run's records, so they are accepted and dropped.  The whole stream banks as one unit
    under the spec's content key, so resubmitting after a crash (or a
    mid-stream SIGKILL — see the fault suite) resumes from the bank
    bit-identically.
    """
    from ..sim.mixsweep import ALGORITHMS
    from .payloads import ControllerJob
    if algorithm is None:
        algorithm = "hill"
    if not isinstance(algorithm, str):
        names = {id(fn): name for name, fn in ALGORITHMS.items()}
        name = names.get(id(algorithm))
        if name is None:
            raise ValueError(
                "supervise=True needs a registered partitioning algorithm "
                f"({', '.join(sorted(ALGORITHMS))}); got "
                f"{getattr(algorithm, '__name__', algorithm)!r}")
        algorithm = name
    for execution_only in ("parallel", "threads", "validate"):
        controller_kwargs.pop(execution_only, None)
    payload = ControllerJob(spec=spec, algorithm=algorithm, fault=fault,
                            **controller_kwargs)
    with _queue(queue, bank, max_workers=1,
                job_timeout=job_timeout) as queue:
        return queue.submit(payload).result()
