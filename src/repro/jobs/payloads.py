"""Job payloads: the work descriptions the supervised runtime executes.

A payload is a frozen, picklable dataclass wrapping the repo's existing
declarative specs (sweep points — a plain sweep's or a policy × scheme
matrix's — sampled windows, :class:`~repro.sim.mixsweep.MixSweepSpec`
mixes, :class:`~repro.sim.multicore.ChurnSpec` streams) together with
the *trace identity* the job runs against.  Payloads define three things:

* their canonical identity (every ``compare=True`` field feeds
  :func:`repro.jobs.keys.job_key` — fault plans and raw arrays are
  ``compare=False`` and keyed by digest instead);
* :meth:`execute`, which runs inside a supervised worker process,
  heart-beats at unit boundaries through the :class:`JobContext`, banks
  completed units so a killed worker loses at most one unit, and skips
  units the bank already holds (this is what makes interrupted or
  cancelled sweeps *resume*) — the loop every multi-unit payload runs
  through :meth:`JobContext.banked_units`;
* :meth:`load`, which turns the JSON-able result payload back into the
  rich result object (:class:`~repro.sim.sweep.SweepResult`,
  :class:`~repro.sim.mixsweep.MixRunRecord`, ...) on the submitting
  side.  Floats survive the JSON round trip exactly (shortest-repr), so
  a loaded result is bit-identical to a directly computed one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..cache.cache import CacheStats
from ..cache.spec import CacheSpec, TalusSpec
from ..workloads.access import Trace
from ..workloads.scale import ChunkedTrace
from .faults import FaultPlan
from .keys import job_key

__all__ = ["TraceRef", "InlineTrace", "as_trace_source", "JobContext",
           "SweepJob", "MixSweepJob", "ControllerJob", "SamplingJob",
           "stats_to_payload", "stats_from_payload"]


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
    shipped with the pickle so workers need no side channel.
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
            instructions = max(1, int(addrs.size))
            name = "trace"
        if addrs.ndim != 1:
            raise ValueError("trace must be one-dimensional")
        import hashlib
        digest = hashlib.sha256(addrs.tobytes()).hexdigest()
        return cls(digest=digest, instructions=int(instructions), name=name,
                   addresses=addrs)

    def materialize(self) -> Trace:
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
    """What a payload sees while executing inside a worker.

    ``beat()`` feeds the supervisor's watchdog; :meth:`unit` combines a
    beat with the payload's fault-injection hook so deterministic fault
    tests fire at exact unit boundaries.  ``bank`` (when the queue was
    given one) is where completed units persist.
    """

    attempt: int = 0
    degraded: bool = False
    bank: object | None = None
    beat: Callable[[], None] = lambda: None
    fault: FaultPlan | None = None

    def unit(self, stage: str, index: int) -> None:
        """Mark a unit boundary: heartbeat, then any planned fault."""
        self.beat()
        if self.fault is not None:
            self.fault.maybe_fire(stage, index, self.attempt, self.degraded)

    def unit_meta(self) -> dict:
        """Provenance recorded with every banked unit."""
        return {"degraded": bool(self.degraded),
                "attempt": int(self.attempt)}

    def banked_units(self, units, key: Callable,
                     compute: Callable) -> tuple[list, int]:
        """Run ``units`` in order through the bank.

        Each unit first marks its boundary (:meth:`unit`), then takes
        the bank's value for ``key(unit)`` or computes ``compute(unit)``
        and banks it as soon as it completes.  Returns the per-unit
        values and how many came from the bank.
        """
        values = []
        hits = 0
        for index, unit in enumerate(units):
            self.unit("unit", index)
            ukey = key(unit)
            value = self.bank.get(ukey) if self.bank is not None else None
            if value is not None:
                hits += 1
            else:
                value = compute(unit)
                if self.bank is not None:
                    self.bank.put(ukey, value, meta=self.unit_meta())
            values.append(value)
        return values, hits


# --------------------------------------------------------------------- #
# Stats serialization
# --------------------------------------------------------------------- #
def stats_to_payload(stats: CacheStats) -> dict:
    """JSON-able form of a :class:`CacheStats` (counters + extra)."""
    return {"accesses": stats.accesses, "hits": stats.hits,
            "misses": stats.misses, "instructions": stats.instructions,
            "bypasses": stats.bypasses, "extra": dict(stats.extra)}


def stats_from_payload(payload: dict) -> CacheStats:
    """Inverse of :func:`stats_to_payload`."""
    return CacheStats(accesses=int(payload["accesses"]),
                      hits=int(payload["hits"]),
                      misses=int(payload["misses"]),
                      instructions=int(payload.get("instructions", 0)),
                      bypasses=int(payload.get("bypasses", 0)),
                      extra=dict(payload.get("extra", {})))


def _key_to_json(key):
    """Sweep-config keys (tuples of plain values) as JSON."""
    if isinstance(key, tuple):
        return {"__tuple__": [_key_to_json(k) for k in key]}
    return key


def _key_from_json(key):
    if isinstance(key, dict) and "__tuple__" in key:
        return tuple(_key_from_json(k) for k in key["__tuple__"])
    return key


# --------------------------------------------------------------------- #
# Payloads
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SweepJob:
    """Replay a batch of sweep points against one trace.

    The points are a plain sweep's (:meth:`from_spec`) or any
    :class:`~repro.sim.sweep.SweepConfig` sequence, a policy × scheme
    matrix's (:func:`~repro.sim.sweep.matrix_configs`) included.
    Executes point by point (each point's spec carries its backend and
    seed, so any grouping is bit-identical to a serial
    :func:`~repro.sim.sweep.run_sweep`), banking each point's stats
    under the content key of its spec as it completes.  A retried or
    resubmitted job therefore *resumes*: banked points are loaded, not
    re-run, and equal specs share one entry whatever their sweep key.
    """

    trace: TraceRef | InlineTrace
    configs: tuple
    fault: FaultPlan | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "configs", tuple(self.configs))

    @classmethod
    def from_spec(cls, trace, spec,
                  fault: FaultPlan | None = None) -> "SweepJob":
        """A job for a whole :class:`~repro.sim.sweep.SweepSpec` (or an
        explicit config sequence)."""
        from ..sim.sweep import sweep_configs
        return cls(trace=as_trace_source(trace), configs=sweep_configs(spec),
                   fault=fault)

    def unit_key(self, config) -> str:
        """Bank key of one point's stats on this trace."""
        return job_key({"unit": "sweep-point", "trace": self.trace,
                        "spec": config.spec})

    def execute(self, ctx: JobContext) -> dict:
        from ..sim.sweep import run_sweep
        trace = self.trace.materialize()

        def replay(config) -> dict:
            result = run_sweep(trace, (config,), threads=1)
            return stats_to_payload(result[config.key])

        stats, banked_units = ctx.banked_units(self.configs, self.unit_key,
                                               replay)
        units = [{"key": _key_to_json(config.key), "stats": unit_stats}
                 for config, unit_stats in zip(self.configs, stats)]
        return {"units": units, "instructions": trace.instructions,
                "banked_units": banked_units}

    @staticmethod
    def load(payload: dict):
        """Rebuild the :class:`~repro.sim.sweep.SweepResult`."""
        from ..sim.sweep import SweepResult
        stats = {_key_from_json(unit["key"]):
                 stats_from_payload(unit["stats"])
                 for unit in payload["units"]}
        return SweepResult(stats,
                           instructions=int(payload.get("instructions", 0)))


@dataclass(frozen=True)
class SamplingJob:
    """Simulate a shard of sampled-simulation windows against one trace.

    The unit of work (and of banking) is one detailed window: each
    window's ``(accesses, misses)`` banks under a key derived from the
    trace identity, the cache spec and the window's bounds/seed — never
    its shard or index — so a SIGKILLed worker loses at most one window
    and a resubmitted estimate resumes from the bank.  Window seeds
    arrive pre-derived inside ``units`` (stable functions of window
    *position*, see :func:`repro.sampling.driver.window_units`), which is
    what keeps supervised, threaded and serial estimates bit-identical.
    """

    trace: TraceRef | InlineTrace | ChunkedTrace
    cache: CacheSpec | TalusSpec
    units: tuple    #: ``(index, warm_start, start, stop, seed)`` tuples
    fault: FaultPlan | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "units", tuple(tuple(u) for u in self.units))
        if not isinstance(self.cache, (CacheSpec, TalusSpec)):
            raise TypeError("cache must be a CacheSpec or TalusSpec")

    def unit_key(self, unit) -> str:
        """Bank key of one window's counters (index excluded: the key
        names the window's *content*, not its place in a placement)."""
        _, warm_start, start, stop, seed = unit
        return job_key({"unit": "sampling-window", "trace": self.trace,
                        "cache": self.cache,
                        "window": [int(warm_start), int(start), int(stop),
                                   None if seed is None else int(seed)]})

    def execute(self, ctx: JobContext) -> dict:
        from ..sampling.driver import simulate_window_units
        source = (self.trace if isinstance(self.trace, ChunkedTrace)
                  else self.trace.materialize())

        def simulate(unit) -> dict:
            (_, _, accesses, misses, _), = simulate_window_units(
                source, self.cache, (unit,))
            return {"accesses": int(accesses), "misses": int(misses)}

        counters, banked_units = ctx.banked_units(self.units, self.unit_key,
                                                  simulate)
        rows = [[int(index), int(start), int(c["accesses"]),
                 int(c["misses"]), int(start - warm_start)]
                for (index, warm_start, start, _, _), c
                in zip(self.units, counters)]
        return {"rows": rows, "banked_units": banked_units}

    @staticmethod
    def load(payload: dict) -> list[tuple]:
        """The shard's ``(index, start, accesses, misses, warmup)`` rows."""
        return [tuple(int(v) for v in row) for row in payload["rows"]]


@dataclass(frozen=True)
class MixSweepJob:
    """Execute one mix of a multi-mix sweep through the closed Talus loop.

    One job per mix is the sweep's natural fault-isolation unit: a mix's
    applications share one cache and must advance together, so the whole
    mix re-runs on failure — deterministically, thanks to the stable
    per-mix trace seeding.
    """

    spec: object            # MixSweepSpec (frozen dataclass)
    mix: object             # WorkloadMix (frozen dataclass)
    fault: FaultPlan | None = field(default=None, compare=False)

    def execute(self, ctx: JobContext) -> dict:
        from ..sim.mixsweep import _run_one_mix
        ctx.unit("unit", 0)
        record = _run_one_mix(self.spec, self.mix)
        ctx.beat()
        return record.to_payload()

    @staticmethod
    def load(payload: dict):
        """Rebuild the :class:`~repro.sim.mixsweep.MixRunRecord`."""
        from ..sim.mixsweep import MixRunRecord
        return MixRunRecord.from_payload(payload)


@dataclass(frozen=True)
class ControllerJob:
    """One online-controller churn run
    (:class:`~repro.sim.controller.OnlineTalusController` driven by a
    :class:`~repro.sim.multicore.ChurnSpec`).

    The event schedule is *not* shipped: it is a pure function of the
    frozen spec, so the worker regenerates it and the job key covers it
    through the spec's scalars.  ``ctx.unit`` ticks at every event
    boundary — the heartbeat proves liveness on long streams, and the
    fault hook lets the soak suite kill the worker mid-stream; because
    the payload is the complete record list and every seed derives from
    stable identities, a retried run banks bit-identical records.
    """

    spec: object            # ChurnSpec
    scheme: str = "ideal"
    policy: str = "LRU"
    algorithm: str = "hill"
    base_interval_accesses: int = 20_000
    min_interval_accesses: int | None = None
    max_interval_accesses: int | None = None
    drift_shrink: float = 0.10
    drift_grow: float = 0.02
    safety_margin: float = 0.05
    monitor_points: int = 33
    fairness: float = 0.0
    granularity_lines: int | None = None
    ways: int = 16
    backend: str = "auto"
    base_seed: int = 2015
    fault: FaultPlan | None = field(default=None, compare=False)

    def __post_init__(self):
        from ..sim.mixsweep import ALGORITHMS
        from ..sim.multicore import ChurnSpec
        if not isinstance(self.spec, ChurnSpec):
            raise TypeError("spec must be a ChurnSpec")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; valid "
                             f"algorithms: {', '.join(sorted(ALGORITHMS))}")

    def execute(self, ctx: JobContext) -> dict:
        from ..sim.controller import OnlineTalusController
        from ..sim.mixsweep import ALGORITHMS
        from ..sim.multicore import churn_events
        events = churn_events(self.spec)
        controller = OnlineTalusController(
            self.spec.total_mb, max_apps=self.spec.max_apps,
            scheme=self.scheme, policy=self.policy,
            algorithm=ALGORITHMS[self.algorithm],
            base_interval_accesses=self.base_interval_accesses,
            min_interval_accesses=self.min_interval_accesses,
            max_interval_accesses=self.max_interval_accesses,
            drift_shrink=self.drift_shrink, drift_grow=self.drift_grow,
            safety_margin=self.safety_margin,
            monitor_points=self.monitor_points, fairness=self.fairness,
            granularity_lines=self.granularity_lines, ways=self.ways,
            backend=self.backend, base_seed=self.base_seed)
        with controller:
            for index, event in enumerate(events):
                ctx.unit("unit", index)
                controller.handle(event)
            result = controller.result()
        ctx.beat()
        return result.to_payload()

    @staticmethod
    def load(payload: dict):
        """Rebuild the run's :class:`~repro.sim.controller.ControllerResult`."""
        from ..sim.controller import ControllerResult
        return ControllerResult.from_payload(payload)
