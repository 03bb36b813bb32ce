"""Job payloads: the work descriptions the supervised runtime executes.

Every job is one shape, a :class:`BankedJob`: a tuple of *units* plus an
optional fault plan.  A unit is a frozen, picklable dataclass wrapping
the repo's existing declarative specs, of one of four kinds —

* :class:`SweepPoint`: one sweep point (a plain sweep's or a policy ×
  scheme matrix's) replayed over a trace;
* :class:`SampledWindow`: one detailed window of a sampled estimate;
* :class:`MixRun`: one :class:`~repro.sim.mixsweep.MixSweepSpec` mix
  through the closed Talus loop;
* :class:`ChurnStream`: one :class:`~repro.sim.multicore.ChurnSpec`
  stream through the online controller.

A unit's ``compare=True`` fields are its identity, and
:func:`repro.jobs.keys.job_key` of the unit is its bank key (raw arrays
and a sweep point's key are ``compare=False``), so equal units share one
bank entry whichever job carried them.  A unit has a ``run``,
which computes its JSON-able value inside a worker, and a ``load``,
which turns that value back into the rich result object
(:class:`~repro.cache.cache.CacheStats`,
:class:`~repro.sim.mixsweep.MixRunRecord`, ...) on the submitting side.
``load`` reads no ``compare=False`` field: a queue serves an equal
submission with the job it already holds, whose units are equal only in
their compared fields.
:meth:`BankedJob.execute` runs every unit through
:meth:`JobContext.banked_units`, which heart-beats at unit boundaries,
banks each unit as it completes (a killed worker loses at most one
unit) and skips units the bank already holds (this is what makes
interrupted or cancelled sweeps *resume*).  Floats survive the JSON
round trip exactly (shortest-repr), so a loaded value is bit-identical
to a directly computed one.
"""

from __future__ import annotations

import hashlib
import inspect
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..cache.cache import CacheStats
from ..cache.spec import CacheSpec, TalusSpec
from ..workloads.access import Trace
from ..workloads.scale import ChunkedTrace
from .faults import FaultPlan
from .keys import job_key

__all__ = ["TraceRef", "InlineTrace", "as_trace_source", "JobContext",
           "BankedJob", "SweepPoint", "sweep_points", "SampledWindow",
           "MixRun", "ChurnStream"]


# --------------------------------------------------------------------- #
# Trace identity
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class TraceRef:
    """A trace identified by its generator: ``(profile, length, seed)``.

    The worker regenerates the trace deterministically, so nothing but
    three scalars crosses the process boundary — and the job key is a
    function of the *identity*, not the (large) data.
    """

    profile: str
    n_accesses: int
    seed: int = 0

    def materialize(self) -> Trace:
        from ..workloads.spec_profiles import get_profile
        return get_profile(self.profile).trace(
            n_accesses=self.n_accesses, seed=self.seed)


@dataclass(frozen=True)
class InlineTrace:
    """A concrete trace carried with the job, keyed by content digest.

    For traces that do not come from a registered profile (externally
    loaded, synthetic one-offs).  The address array itself is excluded
    from comparison/keying — the sha256 ``digest`` stands for it — but is
    shipped with the pickle so workers need no side channel.  A bare
    address array records 0 instructions and materializes as the array.
    """

    digest: str
    instructions: int
    name: str
    addresses: np.ndarray = field(compare=False, repr=False)

    @classmethod
    def from_trace(cls, trace: Trace | np.ndarray | Sequence[int]
                   ) -> "InlineTrace":
        if isinstance(trace, Trace):
            addrs = np.ascontiguousarray(trace.addresses, dtype=np.int64)
            instructions = trace.instructions
            name = trace.name
        else:
            addrs = np.ascontiguousarray(np.asarray(trace, dtype=np.int64))
            instructions = 0
            name = "trace"
        if addrs.ndim != 1:
            raise ValueError("trace must be one-dimensional")
        digest = hashlib.sha256(addrs.tobytes()).hexdigest()
        return cls(digest=digest, instructions=int(instructions), name=name,
                   addresses=addrs)

    def materialize(self) -> Trace | np.ndarray:
        if not self.instructions:
            return self.addresses
        return Trace(self.addresses, self.instructions, name=self.name)


def as_trace_source(trace) -> TraceRef | InlineTrace | ChunkedTrace:
    """Coerce any accepted trace argument into a keyable trace source.

    A :class:`~repro.workloads.scale.ChunkedTrace` passes through as-is:
    it is already a frozen dataclass of plain values, so it is both
    picklable and canonically keyable by its *generator identity* — a
    10^9-access trace rides inside a job key as a handful of scalars.
    """
    if isinstance(trace, (TraceRef, InlineTrace, ChunkedTrace)):
        return trace
    return InlineTrace.from_trace(trace)


# --------------------------------------------------------------------- #
# Worker-side execution context
# --------------------------------------------------------------------- #
@dataclass
class JobContext:
    """What a job sees while executing inside a worker.

    ``beat()`` feeds the supervisor's watchdog; :meth:`unit` combines a
    beat with the job's fault-injection hook so deterministic fault
    tests fire at exact boundaries.  ``bank`` (when the queue was given
    one) is where completed units persist.
    """

    attempt: int = 0
    degraded: bool = False
    bank: object | None = None
    beat: Callable[[], None] = lambda: None
    fault: FaultPlan | None = None
    _traces: dict = field(default_factory=dict, init=False, repr=False)

    def unit(self, stage: str, index: int) -> None:
        """Mark a boundary: heartbeat, then any planned fault."""
        self.beat()
        if self.fault is not None:
            self.fault.maybe_fire(stage, index, self.attempt, self.degraded)

    def unit_meta(self) -> dict:
        """Provenance recorded with every banked unit."""
        return {"degraded": bool(self.degraded),
                "attempt": int(self.attempt)}

    def trace(self, source):
        """``source``'s trace, materialized at most once per attempt (a
        :class:`~repro.workloads.scale.ChunkedTrace` is read in place)."""
        if isinstance(source, ChunkedTrace):
            return source
        if source not in self._traces:
            self._traces[source] = source.materialize()
        return self._traces[source]

    def banked_units(self, units) -> tuple[list, int]:
        """Run ``units`` in order through the bank.

        Each unit first marks its boundary (:meth:`unit`, stage
        ``"unit"``), then takes the bank's value under its content key
        or runs and banks it as soon as it completes.  Returns the
        per-unit values and how many came from the bank.
        """
        values = []
        hits = 0
        for index, unit in enumerate(units):
            self.unit("unit", index)
            key = job_key(unit)
            value = self.bank.get(key) if self.bank is not None else None
            if value is not None:
                hits += 1
            else:
                value = unit.run(self)
                if self.bank is not None:
                    self.bank.put(key, value, meta=self.unit_meta())
            values.append(value)
        return values, hits


# --------------------------------------------------------------------- #
# The job
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class BankedJob:
    """A tuple of units run in order in one worker, each banked as it
    completes.

    The job's key covers its units' compared fields in order, not the
    fault plan, so a resubmission of the same units is served whole from
    the bank, and a retried or resubmitted job *resumes* from its banked
    units.
    """

    units: tuple
    fault: FaultPlan | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "units", tuple(self.units))

    def execute(self, ctx: JobContext) -> dict:
        values, banked_units = ctx.banked_units(self.units)
        return {"units": values, "banked_units": banked_units}

    def load(self, payload: dict) -> list:
        """Each unit's loaded value, in unit order."""
        return [unit.load(value)
                for unit, value in zip(self.units, payload["units"])]


# --------------------------------------------------------------------- #
# Units
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SweepPoint:
    """One sweep point replayed over one trace.

    The spec carries its backend and seed, so any grouping of points is
    bit-identical to a serial :func:`~repro.sim.sweep.run_sweep`.  Equal
    specs on one trace share one bank entry whatever their sweep
    ``key``, which only the submitting side reads.
    """

    trace: TraceRef | InlineTrace
    spec: object            # CacheSpec | PartitionSpec | TalusSpec | None
    key: object = field(default=None, compare=False)

    def run(self, ctx: JobContext) -> dict:
        from ..sim.sweep import SweepConfig, run_sweep
        result = run_sweep(ctx.trace(self.trace),
                           (SweepConfig(self.key, self.spec),), threads=1)
        return asdict(result[self.key])

    def load(self, value: dict) -> CacheStats:
        return CacheStats(**value)


def sweep_points(trace, spec, backend: str | None = None) -> tuple:
    """One :class:`SweepPoint` per point of ``spec`` (a
    :class:`~repro.sim.sweep.SweepSpec` or a config sequence, as in
    :func:`~repro.sim.sweep.sweep_configs`), all on one trace source, so
    an inline trace is hashed once."""
    from ..sim.sweep import sweep_configs
    source = as_trace_source(trace)
    return tuple(SweepPoint(source, config.spec, config.key)
                 for config in sweep_configs(spec, backend))


@dataclass(frozen=True)
class SampledWindow:
    """One detailed window of a sampled estimate
    (:func:`~repro.sampling.driver.run_sampled`).

    ``window`` is ``(warm_start, start, stop, seed)``, with the seed
    pre-derived from the window's position
    (:func:`~repro.sampling.driver.window_units`), which keeps
    supervised, threaded and serial estimates bit-identical.  The key
    names the window's content, not its place in a placement.
    """

    trace: TraceRef | InlineTrace | ChunkedTrace
    cache: CacheSpec | TalusSpec
    window: tuple

    def run(self, ctx: JobContext) -> dict:
        from ..sampling.driver import simulate_window_units
        (_, _, accesses, misses, _), = simulate_window_units(
            ctx.trace(self.trace), self.cache, ((0, *self.window),))
        return {"accesses": int(accesses), "misses": int(misses)}

    def load(self, value: dict) -> tuple[int, int]:
        """The window's ``(accesses, misses)``."""
        return int(value["accesses"]), int(value["misses"])


@dataclass(frozen=True)
class MixRun:
    """One mix of a multi-mix sweep through the closed Talus loop.

    A mix's applications share one cache and advance together, so the
    whole mix is one unit, and its stable per-mix trace seeding makes a
    re-run bit-identical.  The spec's ``max_workers`` is not compared,
    so it is not keyed.
    """

    spec: object            # MixSweepSpec
    mix: object             # WorkloadMix

    def run(self, ctx: JobContext) -> dict:
        from ..sim.mixsweep import _run_one_mix
        return _run_one_mix(self.spec, self.mix).to_payload()

    def load(self, value: dict):
        from ..sim.mixsweep import MixRunRecord
        return MixRunRecord.from_payload(value)


#: Controller arguments that choose how a stream runs, not what it records.
_EXECUTION_ONLY = ("parallel", "threads", "validate")


@dataclass(frozen=True)
class ChurnStream:
    """One online-controller churn stream
    (:func:`~repro.sim.multicore.run_churn`).

    ``controller`` holds the caller's
    :class:`~repro.sim.controller.OnlineTalusController` keyword
    arguments as sorted ``(name, value)`` pairs, checked against the
    controller's own signature, with the algorithm by registered name;
    the controller's defaults fill in the rest, so none is restated
    here.  ``parallel``, ``threads`` and ``validate`` never change a
    run's records, so they are dropped.  The event schedule is not
    shipped: it is a pure function of the spec, which the worker
    regenerates.  Every event is a heartbeat and a fault boundary
    (stage ``"event"``).
    """

    spec: object            # ChurnSpec
    controller: tuple = ()

    def __post_init__(self):
        from ..sim.controller import OnlineTalusController
        from ..sim.mixsweep import ALGORITHMS
        from ..sim.multicore import ChurnSpec
        if not isinstance(self.spec, ChurnSpec):
            raise TypeError("spec must be a ChurnSpec")
        kwargs = dict(self.controller)
        inspect.signature(OnlineTalusController).bind(
            self.spec.total_mb, max_apps=self.spec.max_apps, **kwargs)
        if "algorithm" in kwargs:
            algorithm = kwargs["algorithm"]
            names = [name for name, fn in ALGORITHMS.items()
                     if algorithm is fn or algorithm == name]
            if not names:
                raise ValueError(
                    "a supervised churn stream needs a registered "
                    f"partitioning algorithm ({', '.join(sorted(ALGORITHMS))}"
                    f"); got {getattr(algorithm, '__name__', algorithm)!r}")
            kwargs["algorithm"] = names[0]
        for name in _EXECUTION_ONLY:
            kwargs.pop(name, None)
        object.__setattr__(self, "controller", tuple(sorted(kwargs.items())))

    def run(self, ctx: JobContext) -> dict:
        from ..sim.controller import OnlineTalusController
        from ..sim.mixsweep import ALGORITHMS
        from ..sim.multicore import churn_events
        kwargs = dict(self.controller)
        if "algorithm" in kwargs:
            kwargs["algorithm"] = ALGORITHMS[kwargs["algorithm"]]
        controller = OnlineTalusController(
            self.spec.total_mb, max_apps=self.spec.max_apps, **kwargs)
        for index, event in enumerate(churn_events(self.spec)):
            ctx.unit("event", index)
            controller.handle(event)
        return controller.result().to_payload()

    def load(self, value: dict):
        from ..sim.controller import ControllerResult
        return ControllerResult.from_payload(value)
