"""Checkpointed sampled simulation with confidence intervals.

Exact replay of a billion-access trace is off the table; this package
estimates a cache's MPKI from sampled detailed windows instead, the
SMARTS/pFSA recipe adapted to this codebase's declarative spec +
parallel driver architecture:

* :mod:`repro.sampling.checkpoint` — ``snapshot()``/``restore()`` of
  warm cache state for every array backend (set-associative, way/set/
  ideal partitioned, Vantage, Talus), picklable and content-hashable;
* :mod:`repro.sampling.driver` — :class:`SamplingSpec` window
  placement, functional-warming fast-forward (:func:`warm_checkpoints`),
  and :func:`run_sampled`, fanning detailed windows over threads or the
  fault-tolerant job runtime (``supervise=True``);
* :mod:`repro.sampling.estimator` — per-window aggregation into a
  :class:`SampledResult` with Student-t confidence intervals and an
  :meth:`~SampledResult.error_vs_exact` validator.

The long traces themselves come from
:func:`repro.workloads.scale.long_trace`, which generates blocks on
demand and never materializes the trace.
"""

from .checkpoint import CacheCheckpoint, restore_into, snapshot
from .driver import (SamplingSpec, run_exact, run_sampled, warm_checkpoints,
                     window_seed)
from .estimator import (SampledResult, WindowResult, normal_quantile,
                        student_t_critical)

__all__ = [
    "CacheCheckpoint", "snapshot", "restore_into",
    "SamplingSpec", "run_sampled", "run_exact", "warm_checkpoints",
    "window_seed",
    "SampledResult", "WindowResult", "student_t_critical",
    "normal_quantile",
]
