"""Online streaming Talus controller: churn, QoS floors, drift-adaptive replans.

The fixed-mix loops (:class:`~repro.sim.multicore.ReconfiguringSharedRun`)
replay a *fixed* set of applications on a *fixed* replanning period.  A
real deployment is neither: applications arrive and depart, their QoS
contracts change, and their miss curves drift through phases.  This module
promotes reconfiguration from a batch loop into an event-driven subsystem:

* :class:`OnlineTalusController` wraps one warm
  :class:`~repro.cache.talus_cache.TalusCache` (``max_apps`` logical
  partitions, all initially empty) and consumes a stream of events —
  :class:`AppArrive`, :class:`AppDepart`, :class:`QosUpdate` and
  :class:`AccessBatch` — instead of a trace list.  Partitions are created
  and destroyed on the warm substrate through the existing ``reallocate``
  machinery (one atomic ``configure_many`` per replan); the cache is never
  rebuilt.
* Replanning runs the shared replan core
  (:func:`~repro.sim.reconfigure.plan_shared_allocations`) under per-app
  QoS constraints: minimum-allocation floors (never violated after any
  event) and an optional fairness blend toward the equal split.
* The replanning interval is not fixed: per-app
  :class:`~repro.monitor.drift.CurveDriftTracker` scores (from the
  :class:`~repro.monitor.umon.CombinedUMON`'s incremental stack-distance
  state) shorten the interval when curves drift and lengthen it when they
  are stable.

Determinism
-----------
Everything is bit-reproducible: event times are trace-indexed (an event's
effect depends only on the accesses that preceded it, never on wall
clock), monitor seeds derive from the stable app identity via
:func:`~repro.cache.hashing.derive_seed`, and every planned shadow-pair
request is quantised onto the scheme's allocation quantum (whole lines for
ideal/vantage, whole ways/sets for the coarse schemes) so grants equal
requests exactly on every backend.  The recorded plans therefore replay
bit-identically through explicit ``configure_many`` calls on the object
model — the property the differential tests pin.

QoS semantics
-------------
A floor is admitted only if the sum of all active floors fits the
partitionable capacity (otherwise :class:`QosInfeasibleError`); once
admitted it holds after *every* event: each replan starts every app at its
floor (snapped up to the allocation quantum) and only contests the budget
above the floors.  A departing app's pair is zeroed in the same atomic
step that redistributes its capacity, so its lines are reclaimed
immediately and no transient over-commitment occurs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from ..cache.hashing import derive_seed
from ..cache.spec import PartitionSpec, TalusSpec, build
from ..cache.talus_cache import TalusCache
from ..core.convexhull import convex_hull
from ..core.misscurve import MissCurve
from ..core.talus import TalusConfig
from ..monitor.drift import CurveDriftTracker
from ..monitor.umon import CombinedUMON
from ..partitioning.hill_climbing import hill_climbing
from ..workloads.scale import paper_mb_to_lines
from .reconfigure import plan_shared_allocations

__all__ = ["QosPolicy", "AppArrive", "AppDepart", "QosUpdate", "AccessBatch",
           "BatchRecord", "ReplanRecord", "OnlineTalusController",
           "ControllerResult", "QosInfeasibleError", "ZERO_CONFIG"]


class QosInfeasibleError(ValueError):
    """The requested QoS floors cannot all fit the partitionable capacity."""


#: The configuration of an empty logical partition (both shadow partitions
#: released; the pair keeps existing but owns no capacity).
ZERO_CONFIG = TalusConfig(total_size=0.0, alpha=0.0, beta=0.0, rho=0.0,
                          s1=0.0, s2=0.0, degenerate=True)


# --------------------------------------------------------------------------- #
# Events
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class QosPolicy:
    """Per-application QoS contract: a minimum-allocation floor in paper MB."""

    min_mb: float = 0.0

    def __post_init__(self):
        if self.min_mb < 0:
            raise ValueError("min_mb must be non-negative")


@dataclass(frozen=True)
class AppArrive:
    """A new application joins the shared cache."""

    app: str
    qos: QosPolicy = QosPolicy()


@dataclass(frozen=True)
class AppDepart:
    """An application leaves; its partition is destroyed and reclaimed."""

    app: str


@dataclass(frozen=True)
class QosUpdate:
    """An active application's QoS contract changes."""

    app: str
    qos: QosPolicy


@dataclass(frozen=True, eq=False)
class AccessBatch:
    """A contiguous batch of one application's accesses (trace-indexed time)."""

    app: str
    addresses: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "addresses",
                           np.ascontiguousarray(self.addresses,
                                                dtype=np.int64))


# --------------------------------------------------------------------------- #
# Records
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class BatchRecord:
    """Outcome of one :class:`AccessBatch`."""

    seq: int
    app: str
    slot: int
    accesses: int
    misses: int


@dataclass(frozen=True)
class ReplanRecord:
    """One atomic reconfiguration of the shared cache.

    ``planned`` holds the exact (already quantised) per-slot
    :class:`~repro.core.talus.TalusConfig` requests handed to
    ``configure_many`` (``None`` = slot left untouched); replaying them on
    a fresh cache of the same spec reproduces the controller's partition
    state bit-identically.  ``granted`` is the post-grant capacity of each
    slot's shadow pair (equal to the planned totals — quantised requests
    are granted exactly).
    """

    seq: int
    trigger: str                     # "arrive" | "depart" | "qos" | "interval"
    apps: tuple                      # app id (or None) per slot, post-event
    planned: tuple                   # TalusConfig | None per slot
    granted: tuple                   # granted lines per slot (pair total)
    floors: tuple                    # QoS floor lines per slot
    interval: int                    # replan interval in effect afterwards
    drift: float                     # max per-app curve drift (interval replans)


@dataclass(frozen=True)
class ControllerResult:
    """Everything one controller run produced, payload-serialisable."""

    batches: tuple
    replans: tuple

    @property
    def reconfigurations(self) -> int:
        return len(self.replans)

    def to_payload(self) -> dict:
        """JSON-safe representation (exact float round-trip)."""
        def config_payload(c):
            if c is None:
                return None
            return [c.total_size, c.alpha, c.beta, c.rho, c.s1, c.s2,
                    bool(c.degenerate)]
        return {
            "batches": [[b.seq, b.app, b.slot, b.accesses, b.misses]
                        for b in self.batches],
            "replans": [{"seq": r.seq, "trigger": r.trigger,
                         "apps": list(r.apps),
                         "planned": [config_payload(c) for c in r.planned],
                         "granted": list(r.granted),
                         "floors": list(r.floors),
                         "interval": r.interval, "drift": r.drift}
                        for r in self.replans],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ControllerResult":
        def config_from(item):
            if item is None:
                return None
            t, alpha, beta, rho, s1, s2, degenerate = item
            return TalusConfig(total_size=t, alpha=alpha, beta=beta, rho=rho,
                               s1=s1, s2=s2, degenerate=degenerate)
        batches = tuple(BatchRecord(seq=b[0], app=b[1], slot=b[2],
                                    accesses=b[3], misses=b[4])
                        for b in payload["batches"])
        replans = tuple(ReplanRecord(
            seq=r["seq"], trigger=r["trigger"], apps=tuple(r["apps"]),
            planned=tuple(config_from(c) for c in r["planned"]),
            granted=tuple(r["granted"]), floors=tuple(r["floors"]),
            interval=r["interval"], drift=r["drift"])
            for r in payload["replans"])
        return cls(batches=batches, replans=replans)

    def signature(self) -> tuple:
        """Hashable digest of the run for bit-identity assertions."""
        return (tuple((b.seq, b.app, b.slot, b.accesses, b.misses)
                      for b in self.batches),
                tuple((r.seq, r.trigger, r.apps, r.granted, r.floors,
                       r.interval, r.drift) for r in self.replans))


# --------------------------------------------------------------------------- #
# The controller
# --------------------------------------------------------------------------- #
class OnlineTalusController:
    """Event-driven Talus partitioning of one warm shared cache.

    Parameters
    ----------
    total_mb:
        Shared LLC capacity in paper MB.
    max_apps:
        Number of logical partition slots built into the warm substrate
        (the cache's hardware partition count is fixed at construction;
        the controller multiplexes arriving apps onto free slots).
    scheme, policy, backend:
        Underlying partitioned-cache organisation, as in
        :class:`~repro.sim.multicore.ReconfiguringSharedRun`.
    algorithm:
        Partitioning algorithm the Talus wrapper runs on the hulls
        (default hill climbing).
    base_interval_accesses:
        Starting replanning interval, in accesses summed across apps.
    min_interval_accesses, max_interval_accesses:
        Clamp of the adaptive interval (defaults: base / 8 and base * 8).
    drift_shrink, drift_grow:
        Curve-drift thresholds: an interval replan that observes
        ``drift > drift_shrink`` halves the interval, one that observes
        ``drift < drift_grow`` doubles it.
    fairness:
        Optional blend factor in ``[0, 1]`` toward the equal split
        (0 = pure miss-minimising, 1 = fair).
    granularity_lines:
        Planning step in lines (default: partitionable / 64, snapped up
        to the scheme's allocation quantum).
    parallel, threads:
        Accepted and unused: every batch's monitor recording and replay
        run on the calling thread.  Kept because ``perfbench/workloads.py``
        passes them.
    base_seed:
        Root of all derived seeds (monitors).
    validate:
        Run :meth:`check_invariants` after every event (cheap; on by
        default).
    """

    def __init__(self, total_mb: float, *, max_apps: int = 32,
                 scheme: str = "ideal", policy: str = "LRU",
                 algorithm: Callable = hill_climbing,
                 base_interval_accesses: int = 20_000,
                 min_interval_accesses: int | None = None,
                 max_interval_accesses: int | None = None,
                 drift_shrink: float = 0.10, drift_grow: float = 0.02,
                 safety_margin: float = 0.05, monitor_points: int = 33,
                 fairness: float = 0.0,
                 granularity_lines: int | None = None,
                 ways: int = 16, backend: str = "auto",
                 parallel: str = "off", threads: int | None = None,
                 base_seed: int = 2015, validate: bool = True):
        if max_apps <= 0:
            raise ValueError("max_apps must be positive")
        if not 0.0 <= fairness <= 1.0:
            raise ValueError("fairness must be in [0, 1]")
        if drift_grow > drift_shrink:
            raise ValueError("drift_grow must not exceed drift_shrink")
        lines = paper_mb_to_lines(total_mb)
        if lines <= 0:
            raise ValueError("total_mb too small for the configured scale")
        self.total_mb = float(total_mb)
        self.max_apps = int(max_apps)
        self.scheme = scheme
        self.algorithm = algorithm
        self.safety_margin = float(safety_margin)
        self.monitor_points = int(monitor_points)
        self.fairness = float(fairness)
        self.base_seed = int(base_seed)
        self.validate = bool(validate)
        self.lines = lines

        spec = TalusSpec(partition=PartitionSpec(
            scheme=scheme, capacity_lines=lines,
            num_partitions=2 * self.max_apps, policy=policy, ways=ways,
            backend=backend), num_logical=self.max_apps)
        self.talus: TalusCache = build(spec)
        #: Each slot's (alpha, beta) partition indices.
        self._pairs = [(pair.alpha_index, pair.beta_index) for pair in
                       map(self.talus.shadow_pair, range(self.max_apps))]
        self.partitionable = float(self.talus.base.partitionable_lines)
        self.quantum = self._scheme_quantum()
        if granularity_lines is None:
            granularity_lines = max(1, int(self.partitionable) // 64)
        self.granularity = float(self._snap_up(float(granularity_lines)))
        # Release the build-time default allocations: every slot starts
        # empty, so arriving apps claim capacity from a known-zero state
        # (the differential mirror performs the same reset).
        self.talus.configure_many([ZERO_CONFIG] * self.max_apps)

        self.base_interval = max(1, int(base_interval_accesses))
        self.min_interval = max(1, int(min_interval_accesses
                                       if min_interval_accesses is not None
                                       else self.base_interval // 8))
        self.max_interval = max(self.min_interval,
                                int(max_interval_accesses
                                    if max_interval_accesses is not None
                                    else self.base_interval * 8))
        self.interval = min(max(self.base_interval, self.min_interval),
                            self.max_interval)
        self.drift_shrink = float(drift_shrink)
        self.drift_grow = float(drift_grow)

        self._slots: list[str | None] = [None] * self.max_apps
        self._slot_of: dict[str, int] = {}
        self._floors: dict[str, float] = {}
        self._monitors: dict[str, CombinedUMON] = {}
        self._drift: dict[str, CurveDriftTracker] = {}
        #: Per warm app: (monitor accesses, planning curve, its hull) at
        #: the app's last read.
        self._curves: dict[str, tuple[int, MissCurve, MissCurve]] = {}
        self._since_replan = 0
        self._seq = 0
        self.batches: list[BatchRecord] = []
        self.replans: list[ReplanRecord] = []

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Nothing to release; kept with ``with`` support because
        ``perfbench/workloads.py`` uses both."""

    def __enter__(self) -> "OnlineTalusController":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Event interface
    # ------------------------------------------------------------------ #
    def handle(self, event) -> None:
        """Apply one event to the controller's state machine."""
        seq = self._seq
        self._seq += 1
        if isinstance(event, AppArrive):
            self._arrive(seq, event)
        elif isinstance(event, AppDepart):
            self._depart(seq, event)
        elif isinstance(event, QosUpdate):
            self._qos_update(seq, event)
        elif isinstance(event, AccessBatch):
            self._batch(seq, event)
        else:
            raise TypeError(f"unknown controller event: {event!r}")
        if self.validate:
            self.check_invariants()

    def run(self, events: Iterable) -> ControllerResult:
        """Consume a whole event stream and return the run's records."""
        for event in events:
            self.handle(event)
        return self.result()

    def result(self) -> ControllerResult:
        return ControllerResult(batches=tuple(self.batches),
                                replans=tuple(self.replans))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def active_apps(self) -> tuple:
        """App ids currently holding a slot, in slot order."""
        return tuple(app for app in self._slots if app is not None)

    def slot_of(self, app: str) -> int:
        return self._slot_of[app]

    def granted_lines(self, app: str) -> float:
        """Current capacity of ``app``'s shadow pair, in lines."""
        alpha, beta = self._pairs[self._slot_of[app]]
        granted = self.talus.base.granted_allocations()
        return float(granted[alpha] + granted[beta])

    def floor_lines(self, app: str) -> float:
        """``app``'s QoS floor, snapped to the allocation quantum."""
        return self._floors[app]

    # ------------------------------------------------------------------ #
    # Invariants
    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        """Assert the controller's state-machine invariants.

        * granted allocations never exceed (and, whenever at least one
          app is active and a replan has run, sum exactly to) the
          partitionable capacity;
        * every active app's pair holds at least its QoS floor;
        * every free slot's pair is fully reclaimed: zero granted
          capacity and zero resident lines.
        """
        granted = self.talus.base.granted_allocations()
        total = float(sum(granted))
        if total > self.partitionable + 1e-6:
            raise AssertionError(
                f"granted {total} exceeds partitionable {self.partitionable}")
        replanned = bool(self.replans)
        if replanned and self._slot_of and self.scheme != "way":
            # Way partitioning force-distributes spare ways even over
            # empty partitions, so exact conservation is checked per-app
            # there (spares only exist while no app is active).
            if abs(total - self.partitionable) > 1e-6:
                raise AssertionError(
                    f"granted {total} != partitionable {self.partitionable}")
        # With *no* active apps, way partitioning has no one to give the
        # ways to — every way stays owned, and resident lines persist
        # until the next arrival's reallocation evicts them.  With >= 1
        # active app the zero request is honoured exactly and the free
        # slots' checks apply.
        check_free = (len(self._slot_of) < len(self._slots)
                      and (self.scheme != "way" or bool(self._slot_of)))
        # The free pairs' occupancies, in one pass, in slot order.
        held = iter(self.talus.base.partition_occupancies(
            [p for app, pair in zip(self._slots, self._pairs)
             if app is None for p in pair]) if check_free else ())
        for slot, (app, (alpha, beta)) in enumerate(zip(self._slots,
                                                        self._pairs)):
            if app is not None:
                floor = self._floors[app]
                if replanned:
                    pair_lines = float(granted[alpha] + granted[beta])
                    if pair_lines + 1e-6 < floor:
                        raise AssertionError(
                            f"QoS floor violated for {app!r}: granted "
                            f"{pair_lines} < floor {floor}")
            elif check_free:
                occupancy = next(held) + next(held)
                if occupancy:
                    raise AssertionError(
                        f"freed slot {slot} still holds {occupancy} lines")
                pair_lines = float(granted[alpha] + granted[beta])
                if replanned and self.scheme != "way" and pair_lines:
                    raise AssertionError(
                        f"freed slot {slot} still granted {pair_lines} lines")

    # ------------------------------------------------------------------ #
    # Event handlers
    # ------------------------------------------------------------------ #
    def _arrive(self, seq: int, event: AppArrive) -> None:
        app = event.app
        if app in self._slot_of:
            raise ValueError(f"app {app!r} is already active")
        try:
            slot = self._slots.index(None)
        except ValueError:
            raise ValueError(
                f"controller is full ({self.max_apps} apps)") from None
        floor = self._floor_for(event.qos)
        self._require_feasible(sum(self._floors.values()) + floor)
        self._slots[slot] = app
        self._slot_of[app] = slot
        self._floors[app] = floor
        primary_rate = min(1.0, max(1.0 / 64.0, 2048.0 / self.lines))
        self._monitors[app] = CombinedUMON(
            llc_size=self.lines, points=self.monitor_points,
            primary_rate=primary_rate, coverage_ratio=0.25,
            seed=derive_seed(self.base_seed, f"umon|{app}"))
        self._drift[app] = CurveDriftTracker()
        self._replan(seq, "arrive")

    def _depart(self, seq: int, event: AppDepart) -> None:
        app = event.app
        if app not in self._slot_of:
            raise ValueError(f"app {app!r} is not active")
        slot = self._slot_of.pop(app)
        self._slots[slot] = None
        self._floors.pop(app)
        self._monitors.pop(app)
        self._drift.pop(app)
        # A re-arrival under this id gets a fresh monitor whose count may
        # equal this one's, so the entry must not outlive the monitor.
        self._curves.pop(app, None)
        self._replan(seq, "depart")

    def _qos_update(self, seq: int, event: QosUpdate) -> None:
        app = event.app
        if app not in self._slot_of:
            raise ValueError(f"app {app!r} is not active")
        floor = self._floor_for(event.qos)
        others = sum(f for a, f in self._floors.items() if a != app)
        self._require_feasible(others + floor)
        self._floors[app] = floor
        if self.replans and self.granted_lines(app) + 1e-6 < floor:
            # The new floor is violated right now — an immediate replan
            # restores it; otherwise it simply binds from the next replan.
            self._replan(seq, "qos")

    def _batch(self, seq: int, event: AccessBatch) -> None:
        app = event.app
        if app not in self._slot_of:
            raise ValueError(f"app {app!r} is not active")
        slot = self._slot_of[app]
        addresses = event.addresses
        monitor = self._monitors[app]
        if addresses.size:
            monitor.record_trace(addresses)
            misses = self.talus.run_chunk(addresses, slot).misses
        else:
            misses = 0
        self.batches.append(BatchRecord(seq=seq, app=app, slot=slot,
                                        accesses=int(addresses.size),
                                        misses=int(misses)))
        self._since_replan += int(addresses.size)
        if self._since_replan >= self.interval:
            self._replan(seq, "interval")

    # ------------------------------------------------------------------ #
    # Replanning
    # ------------------------------------------------------------------ #
    def _replan(self, seq: int, trigger: str) -> None:
        """One atomic reconfiguration of every logical partition.

        Every slot gets an explicit config — :data:`ZERO_CONFIG` for the
        inactive ones — so the request vector never depends on stored
        effective configs (which coarse schemes can pollute: way
        partitioning force-distributes spare ways when *all* requests are
        zero, and the resulting grants must not leak into later requests).
        """
        configs: list[TalusConfig | None] = [ZERO_CONFIG] * self.max_apps
        active = [(slot, app) for slot, app in enumerate(self._slots)
                  if app is not None]
        drift = 0.0
        if active:
            sizes, planned, drift = self._plan_active(active,
                                                      adapt=(trigger
                                                             == "interval"))
            for (slot, _), config in zip(active, planned):
                configs[slot] = config
        if trigger == "interval":
            if drift > self.drift_shrink:
                self.interval = max(self.min_interval, self.interval // 2)
            elif drift < self.drift_grow:
                self.interval = min(self.max_interval, self.interval * 2)
        self.talus.configure_many(configs)
        self._since_replan = 0
        granted = self.talus.base.granted_allocations()
        pair_totals = tuple(float(granted[alpha] + granted[beta])
                            for alpha, beta in self._pairs)
        floors = tuple(self._floors.get(app, 0.0) if app is not None else 0.0
                       for app in self._slots)
        self.replans.append(ReplanRecord(
            seq=seq, trigger=trigger, apps=tuple(self._slots),
            planned=tuple(configs), granted=pair_totals, floors=floors,
            interval=self.interval, drift=float(drift)))

    def _plan_active(self, active: list, adapt: bool
                     ) -> tuple[list, list, float]:
        """Sizes and quantised configs for the active slots.

        Apps whose monitor has not observed anything yet ("cold") cannot
        be planned from a curve; each one is reserved an equal share
        (never below its floor), and the warm apps contest the remaining
        budget through the replan core.  Returns (sizes, configs, drift)
        aligned with ``active``; drift is the maximum per-app curve drift
        (only measured on ``adapt`` replans, to keep the adaptive signal
        tied to interval boundaries).
        """
        budget = self.partitionable
        floors = [self._floors[app] for _, app in active]
        cold = [i for i, (_, app) in enumerate(active)
                if self._monitors[app].primary.total_accesses == 0]
        warm = [i for i in range(len(active)) if i not in cold]
        sizes = [0.0] * len(active)

        equal = self._snap_down(budget / len(active))
        for i in cold:
            sizes[i] = max(floors[i], equal)
        # Cap the cold reservations so every floor still fits.
        warm_floor = sum(floors[i] for i in warm)
        while sum(sizes[i] for i in cold) + warm_floor > budget + 1e-9:
            shrinkable = [i for i in cold
                          if sizes[i] - self.quantum >= floors[i] - 1e-9]
            target = max(shrinkable, key=lambda i: sizes[i] - floors[i])
            sizes[target] -= self.quantum

        drift = 0.0
        if warm:
            curves, hulls = [], []
            for i in warm:
                app = active[i][1]
                curve, hull = self._planning_curve(app)
                if adapt:
                    drift = max(drift, self._drift[app].update(curve))
                curves.append(curve)
                hulls.append(hull)
            warm_budget = budget - sum(sizes[i] for i in cold)
            plan = plan_shared_allocations(
                curves, warm_budget, granularity=self.granularity,
                algorithm=self.algorithm, safety_margin=self.safety_margin,
                floors=[floors[i] for i in warm], fairness=self.fairness,
                conserve=True, hulls=hulls)
            configs_by_index: dict[int, TalusConfig] = {}
            for i, size, config in zip(warm, plan.sizes, plan.configs):
                sizes[i] = float(size)
                configs_by_index[i] = self._quantize_config(config)
        else:
            # Everyone is cold: hand the residual out a quantum at a
            # time, round-robin from the first active slot.
            residual = budget - sum(sizes)
            i = 0
            while residual >= self.quantum - 1e-9 and cold:
                sizes[cold[i % len(cold)]] += self.quantum
                residual -= self.quantum
                i += 1
            configs_by_index = {}
        configs = []
        for i in range(len(active)):
            if i in configs_by_index:
                configs.append(configs_by_index[i])
            else:
                t = sizes[i]
                configs.append(TalusConfig(
                    total_size=t, alpha=t, beta=t, rho=0.0, s1=0.0, s2=t,
                    degenerate=True))
        return sizes, configs, drift

    def _planning_curve(self, app: str) -> tuple[MissCurve, MissCurve]:
        """``app``'s current curve in planner units (lines, misses per
        kilo-access), and its convex hull.

        Normalising by each app's observed accesses makes streams of
        different intensities commensurable.  The curve is a pure
        function of the stream the monitor recorded, and every recorded
        access moves ``primary.total_accesses``; so a read that finds the
        count of the app's last read returns that read's curve and hull,
        the same objects (callers never write into a curve's arrays).
        """
        monitor = self._monitors[app]
        observed = monitor.primary.total_accesses
        entry = self._curves.get(app)
        if entry is not None and entry[0] == observed:
            return entry[1], entry[2]
        raw = monitor.miss_curve()
        curve = MissCurve(raw.sizes, np.minimum.accumulate(
            raw.misses * 1000.0 / max(observed, 1)))
        hull = convex_hull(curve)
        self._curves[app] = (observed, curve, hull)
        return curve, hull

    def _quantize_config(self, config: TalusConfig) -> TalusConfig:
        """Snap a pair's shadow sizes onto the allocation quantum.

        The planned total is already a whole number of quanta; snapping
        the alpha/beta split keeps it exact, so the underlying scheme
        grants every request verbatim (no coarsening surprises) and the
        coarsening correction (``rho = s1 / alpha``) is the identity up
        to the snap.
        """
        total = config.total_size
        s1 = min(max(round(config.s1 / self.quantum) * self.quantum, 0.0),
                 total)
        return TalusConfig(total_size=total, alpha=config.alpha,
                           beta=config.beta, rho=config.rho,
                           s1=float(s1), s2=float(total - s1),
                           degenerate=config.degenerate)

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _scheme_quantum(self) -> float:
        """The scheme's allocation quantum in lines (1 for line-granular
        schemes, ``num_sets`` for way partitioning, ``ways`` for set
        partitioning)."""
        base = self.talus.base
        if self.scheme == "way":
            return float(base.num_sets)
        if self.scheme == "set":
            return float(base.ways)
        return 1.0

    def _snap_up(self, lines: float) -> float:
        q = self.quantum
        return float(int(-(-lines // q)) * q) if lines > 0 else 0.0

    def _snap_down(self, lines: float) -> float:
        q = self.quantum
        return float(int(lines // q) * q)

    def _floor_for(self, qos: QosPolicy) -> float:
        return self._snap_up(float(paper_mb_to_lines(qos.min_mb)))

    def _require_feasible(self, floor_total: float) -> None:
        if floor_total > self.partitionable + 1e-9:
            raise QosInfeasibleError(
                f"QoS floors ({floor_total:.0f} lines) exceed the "
                f"partitionable capacity ({self.partitionable:.0f} lines)")
