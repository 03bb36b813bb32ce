"""Online streaming controller: events, QoS floors, drift, invariants, faults.

Five layers of coverage for :mod:`repro.sim.controller`:

* event-machine unit tests (arrivals, departures, QoS updates, rejection
  of malformed streams, adaptive-interval behaviour);
* the invariant suite — allocations sum to the partitionable capacity,
  QoS floors hold after every event, departed applications' lines are
  fully reclaimed — exercised across all four partitioning schemes with
  the controller's per-event self-checks enabled;
* determinism: a churn schedule replayed twice is bit-identical, and the
  recorded plans replay bit-identically through explicit
  ``configure_many`` on a fresh cache;
* the planning-curve memo: every read equals a rebuild from the
  monitor, and a departed app's entry never serves its successor;
* the fault soak: a ~1k-event stream through the supervised runtime with
  a mid-stream SIGKILL recovers bit-identically and resumes from the
  result bank.

The planner-level floor plumbing (per-partition minimums through hill
climbing / lookahead / fair and the shared replan core) is covered here
too, next to its consumer.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings

from tests.conftest import miss_curves, per_half_combined_curve
from tests.faults import fault_queue

from repro.core.convexhull import convex_hull
from repro.core.misscurve import MissCurve
from repro.jobs import BankedJob, ChurnStream, FaultPlan, run_supervised
from repro.monitor import drift as drift_module
from repro.monitor.drift import CurveDriftTracker, curve_drift
from repro.partitioning.base import PartitioningProblem
from repro.partitioning.fair import fair
from repro.partitioning.hill_climbing import hill_climbing
from repro.partitioning.lookahead import lookahead
from repro.sim.controller import (AccessBatch, AppArrive, AppDepart,
                                  ControllerResult, OnlineTalusController,
                                  QosInfeasibleError, QosPolicy, QosUpdate,
                                  ZERO_CONFIG)
from repro.sim.multicore import ChurnSpec, churn_events, run_churn
from repro.sim.reconfigure import plan_shared_allocations

SCHEMES = ("ideal", "way", "set", "vantage")


def controller(**overrides) -> OnlineTalusController:
    """A small controller on a 128-line cache (0.5 paper MB)."""
    params = dict(total_mb=0.5, max_apps=4, base_interval_accesses=2_000,
                  base_seed=7)
    params.update(overrides)
    return OnlineTalusController(params.pop("total_mb"), **params)


def batch(app: str, n: int = 200, *, lo: int = 0, hi: int = 1 << 16,
          seed: int = 0) -> AccessBatch:
    rng = np.random.default_rng(seed)
    return AccessBatch(app, rng.integers(lo, hi, size=n))


def small_spec(**overrides) -> ChurnSpec:
    params = dict(total_mb=0.5, max_apps=3, initial_apps=2, steps=10,
                  batch_accesses=300, trace_accesses=3_000,
                  arrive_prob=0.4, depart_prob=0.35, qos_prob=0.4,
                  qos_floor_mb_max=0.05, base_seed=42)
    params.update(overrides)
    return ChurnSpec(**params)


# --------------------------------------------------------------------------- #
# Drift signal
# --------------------------------------------------------------------------- #
def pointwise_curve_drift(previous, current):
    """:func:`curve_drift` with one scalar evaluation per grid point,
    kept as the exact reference for its array evaluation."""
    grid = np.union1d(previous.sizes, current.sizes)
    prev = np.asarray([float(previous(s)) for s in grid])
    curr = np.asarray([float(current(s)) for s in grid])
    scale = max(float(prev.max(initial=0.0)), float(curr.max(initial=0.0)))
    if scale <= 0.0:
        return 0.0
    return float(np.mean(np.abs(curr - prev)) / scale)


#: A grid two snapshots share, as the same array object (a monitor's
#: default grid) or as equal but distinct arrays.
SHARED_GRID = np.array([0.0, 16.0, 40.0, 64.0])


class TestDrift:
    @settings(max_examples=100, deadline=None)
    @given(previous=miss_curves(), current=miss_curves())
    @example(previous=MissCurve(SHARED_GRID, [90.0, 60.0, 20.5, 3.0]),
             current=MissCurve(SHARED_GRID, [80.0, 80.0, 11.0, 0.0]))
    @example(previous=MissCurve(SHARED_GRID, [90.0, 60.0, 20.5, 3.0]),
             current=MissCurve(SHARED_GRID.copy(), [70.0, 30.0, 30.0, 7.25]))
    def test_matches_pointwise_reference(self, previous, current):
        assert curve_drift(previous, current) == \
            pointwise_curve_drift(previous, current)

    def test_matches_pointwise_reference_on_shifted_grids(self):
        # Grids that only partly overlap and start above zero, so the
        # union grid clamps each curve at its ends.
        before = MissCurve([8, 24, 40, 56], [90.5, 41.25, 40.0, 3.0])
        after = MissCurve([0, 16, 32, 48, 64, 80], [100, 70, 65, 9, 9, 1])
        for pair in ((before, after), (after, before)):
            assert curve_drift(*pair) == pointwise_curve_drift(*pair)

    def test_identical_curves_have_zero_drift(self):
        curve = MissCurve([0, 32, 64], [100, 40, 10])
        assert curve_drift(curve, curve) == 0.0

    def test_moved_curve_has_positive_bounded_drift(self):
        before = MissCurve([0, 32, 64], [100, 40, 10])
        after = MissCurve([0, 32, 64], [100, 90, 80])
        score = curve_drift(before, after)
        assert 0.0 < score <= 1.0

    def test_union_grid_sees_resolution_changes(self):
        coarse = MissCurve([0, 64], [100, 0])
        fine = MissCurve([0, 16, 32, 48, 64], [100, 75, 50, 25, 0])
        # Same underlying line: interpolation on the union grid agrees.
        assert curve_drift(coarse, fine) == pytest.approx(0.0, abs=1e-12)

    def test_zero_curves_have_zero_drift(self):
        zero = MissCurve([0, 64], [0, 0])
        assert curve_drift(zero, zero) == 0.0

    def test_tracker_first_update_is_zero(self):
        tracker = CurveDriftTracker()
        assert tracker.update(MissCurve([0, 64], [100, 10])) == 0.0
        assert tracker.last_drift == 0.0

    def test_tracker_scores_successive_snapshots(self, monkeypatch):
        tracker = CurveDriftTracker()
        a = MissCurve([0, 64], [100, 10])
        b = MissCurve([0, 64], [100, 80])
        tracker.update(a)
        assert tracker.update(b) == pytest.approx(curve_drift(a, b))

        # The same snapshot object again (a memoised curve of a monitor
        # that recorded nothing since) scores 0.0 unevaluated.
        def unexpected(previous, current):
            raise AssertionError("curve_drift evaluated a repeated snapshot")

        monkeypatch.setattr(drift_module, "curve_drift", unexpected)
        assert tracker.update(b) == 0.0
        assert tracker.last_drift == 0.0

    def test_tracker_reset_forgets_history(self):
        tracker = CurveDriftTracker()
        tracker.update(MissCurve([0, 64], [100, 10]))
        tracker.reset()
        assert tracker.update(MissCurve([0, 64], [0, 0])) == 0.0


# --------------------------------------------------------------------------- #
# Event machine
# --------------------------------------------------------------------------- #
class TestEventMachine:
    def test_single_app_gets_the_whole_cache(self):
        with controller() as ctl:
            ctl.handle(AppArrive("a"))
            assert ctl.active_apps == ("a",)
            assert ctl.granted_lines("a") == ctl.partitionable

    def test_duplicate_arrival_rejected(self):
        with controller() as ctl:
            ctl.handle(AppArrive("a"))
            with pytest.raises(ValueError, match="already active"):
                ctl.handle(AppArrive("a"))

    def test_unknown_departure_rejected(self):
        with controller() as ctl:
            with pytest.raises(ValueError, match="not active"):
                ctl.handle(AppDepart("ghost"))

    def test_batch_for_inactive_app_rejected(self):
        with controller() as ctl:
            with pytest.raises(ValueError, match="not active"):
                ctl.handle(batch("ghost"))

    def test_unknown_event_type_rejected(self):
        with controller() as ctl:
            with pytest.raises(TypeError, match="unknown controller event"):
                ctl.handle(object())

    def test_slots_exhausted_rejected(self):
        with controller(max_apps=2) as ctl:
            ctl.handle(AppArrive("a"))
            ctl.handle(AppArrive("b"))
            with pytest.raises(ValueError, match="full"):
                ctl.handle(AppArrive("c"))

    def test_departed_slot_is_recycled(self):
        with controller(max_apps=2) as ctl:
            ctl.handle(AppArrive("a"))
            ctl.handle(AppArrive("b"))
            ctl.handle(batch("a", seed=1))
            ctl.handle(AppDepart("a"))
            ctl.handle(AppArrive("c"))     # reuses a's slot
            assert ctl.slot_of("c") == 0
            assert ctl.active_apps == ("c", "b")

    def test_departure_reclaims_all_lines(self):
        with controller() as ctl:
            ctl.handle(AppArrive("a"))
            ctl.handle(AppArrive("b"))
            ctl.handle(batch("a", 500, seed=1))
            ctl.handle(batch("b", 500, seed=2))
            slot_a = ctl.slot_of("a")
            ctl.handle(AppDepart("a"))
            pair = ctl.talus.shadow_pair(slot_a)
            occupancy = (ctl.talus.base.partition_occupancy(pair.alpha_index)
                         + ctl.talus.base.partition_occupancy(pair.beta_index))
            assert occupancy == 0
            assert ctl.granted_lines("b") == ctl.partitionable

    def test_infeasible_arrival_floor_leaves_state_unchanged(self):
        with controller() as ctl:
            ctl.handle(AppArrive("a"))
            with pytest.raises(QosInfeasibleError):
                ctl.handle(AppArrive("b", QosPolicy(min_mb=10.0)))
            assert ctl.active_apps == ("a",)
            assert ctl.granted_lines("a") == ctl.partitionable

    def test_infeasible_qos_update_keeps_old_floor(self):
        with controller() as ctl:
            ctl.handle(AppArrive("a", QosPolicy(min_mb=0.05)))
            old = ctl.floor_lines("a")
            with pytest.raises(QosInfeasibleError):
                ctl.handle(QosUpdate("a", QosPolicy(min_mb=10.0)))
            assert ctl.floor_lines("a") == old

    def test_combined_floors_must_fit(self):
        # Each floor fits alone; together they exceed the capacity.
        with controller() as ctl:
            ctl.handle(AppArrive("a", QosPolicy(min_mb=0.3)))
            with pytest.raises(QosInfeasibleError):
                ctl.handle(AppArrive("b", QosPolicy(min_mb=0.3)))

    def test_qos_update_restores_floor_immediately(self):
        with controller() as ctl:
            ctl.handle(AppArrive("a"))
            ctl.handle(AppArrive("b"))
            ctl.handle(batch("a", 800, hi=1 << 20, seed=1))
            ctl.handle(batch("b", 800, lo=1 << 21, hi=1 << 22, seed=2))
            ctl.handle(QosUpdate("b", QosPolicy(min_mb=0.3)))
            assert ctl.granted_lines("b") >= ctl.floor_lines("b")
            assert ctl.floor_lines("b") > 0

    def test_negative_floor_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            QosPolicy(min_mb=-1.0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="max_apps"):
            controller(max_apps=0)
        with pytest.raises(ValueError, match="fairness"):
            controller(fairness=1.5)
        with pytest.raises(ValueError, match="drift_grow"):
            controller(drift_grow=0.5, drift_shrink=0.1)

    def test_empty_batch_records_zero(self):
        with controller() as ctl:
            ctl.handle(AppArrive("a"))
            ctl.handle(AccessBatch("a", np.empty(0, dtype=np.int64)))
            assert ctl.batches[-1].accesses == 0
            assert ctl.batches[-1].misses == 0


# --------------------------------------------------------------------------- #
# Adaptive interval
# --------------------------------------------------------------------------- #
class TestAdaptiveInterval:
    def test_stable_stream_lengthens_the_interval(self):
        with controller(base_interval_accesses=1_000,
                        max_interval_accesses=4_000) as ctl:
            ctl.handle(AppArrive("a"))
            fixed = batch("a", 500, seed=3)
            for _ in range(12):
                ctl.handle(AccessBatch("a", fixed.addresses))
            assert ctl.interval == 4_000
            grown = [r for r in ctl.replans if r.trigger == "interval"]
            assert grown and all(r.drift < ctl.drift_shrink for r in grown)

    def test_phase_change_shortens_the_interval(self):
        with controller(base_interval_accesses=1_000,
                        min_interval_accesses=250,
                        max_interval_accesses=1_000) as ctl:
            ctl.handle(AppArrive("a"))
            # Phase 1: a small loop the cache holds easily.
            loop = np.resize(np.arange(64) * 64, 500)
            for i in range(4):
                ctl.handle(AccessBatch("a", loop))
            # Phase 2: a huge scan — the curve reshapes completely.
            for i in range(4):
                ctl.handle(batch("a", 500, lo=1 << 30, hi=1 << 40,
                                 seed=10 + i))
            intervals = [r.interval for r in ctl.replans
                         if r.trigger == "interval"]
            assert min(intervals) < 1_000
            assert max(r.drift for r in ctl.replans) > ctl.drift_shrink

    def test_interval_respects_the_clamp(self):
        with controller(base_interval_accesses=1_000,
                        min_interval_accesses=500,
                        max_interval_accesses=2_000) as ctl:
            ctl.handle(AppArrive("a"))
            fixed = batch("a", 500, seed=3)
            for _ in range(20):
                ctl.handle(AccessBatch("a", fixed.addresses))
            assert 500 <= ctl.interval <= 2_000


# --------------------------------------------------------------------------- #
# Invariants across schemes
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("scheme", SCHEMES)
class TestInvariants:
    def test_churn_holds_every_invariant(self, scheme):
        # validate=True (the default) re-checks after *every* event inside
        # the controller; this test additionally audits the records.
        result = run_churn(small_spec(), scheme=scheme,
                           base_interval_accesses=1_500)
        assert result.reconfigurations > 4
        assert any(r.trigger == "interval" for r in result.replans)
        for replan in result.replans:
            active_total = sum(g for app, g in zip(replan.apps,
                                                   replan.granted)
                               if app is not None)
            if scheme != "way":
                # Exact conservation: the partitionable capacity is fully
                # distributed over the active apps, none leaks to free
                # slots.
                free_total = sum(g for app, g in zip(replan.apps,
                                                     replan.granted)
                                 if app is None)
                assert free_total == 0.0
            for app, granted, floor in zip(replan.apps, replan.granted,
                                           replan.floors):
                if app is not None:
                    assert granted + 1e-6 >= floor

    def test_detects_corrupted_states(self, scheme):
        """Each invariant fails, with its own message, on a state
        corrupted behind the controller's back: lines resident in a
        freed slot's pair, an over-granted cache, capacity that leaks
        from the active apps, and a pair below its QoS floor."""
        def warm():
            ctl = controller(scheme=scheme, max_apps=3)
            for seed, app in enumerate("ab"):
                ctl.handle(AppArrive(app))
                ctl.handle(batch(app, 500, seed=seed))
            ctl.check_invariants()
            return ctl

        with warm() as ctl:
            base = ctl.talus.base
            free = ctl._slots.index(None)
            alpha = ctl.talus.shadow_pair(free).alpha_index
            requests = [float(g) for g in base.granted_allocations()]
            donor = int(np.argmax(requests))
            moved = 2 * ctl.quantum
            requests[donor] -= moved
            requests[alpha] += moved
            base.set_allocations(requests)
            for address in range(64):
                base.access(address, alpha)
            assert base.partition_occupancy(alpha) > 0
            with pytest.raises(AssertionError,
                               match=f"freed slot {free} still holds"):
                ctl.check_invariants()
        with warm() as ctl:
            ctl.partitionable -= 1.0
            with pytest.raises(AssertionError, match="exceeds partitionable"):
                ctl.check_invariants()
        if scheme != "way":
            with warm() as ctl:
                ctl.partitionable += 1.0
                with pytest.raises(AssertionError, match="!= partitionable"):
                    ctl.check_invariants()
        with warm() as ctl:
            ctl._floors["b"] = ctl.granted_lines("b") + 1.0
            with pytest.raises(AssertionError,
                               match="QoS floor violated for 'b'"):
                ctl.check_invariants()

    def test_exact_conservation_when_active(self, scheme):
        result = run_churn(small_spec(), scheme=scheme,
                           base_interval_accesses=1_500)
        # Pair totals over *all* slots equal the partitionable capacity
        # (way partitioning keeps every way owned, so it holds there too).
        ctl = controller(scheme=scheme, max_apps=3)
        partitionable = ctl.partitionable
        ctl.close()
        for replan in result.replans:
            assert sum(replan.granted) == pytest.approx(partitionable)

    def test_floors_are_quantized_to_the_scheme(self, scheme):
        from repro.workloads.scale import paper_mb_to_lines
        with controller(scheme=scheme) as ctl:
            ctl.handle(AppArrive("a", QosPolicy(min_mb=0.09)))
            floor = ctl.floor_lines("a")
            # Snapped *up* from the requested lines, onto the quantum grid.
            assert floor >= paper_mb_to_lines(0.09)
            assert floor % ctl.quantum == 0


# --------------------------------------------------------------------------- #
# Determinism and replay
# --------------------------------------------------------------------------- #
class TestDeterminism:
    def test_same_spec_same_records(self):
        spec = small_spec()
        assert run_churn(spec).signature() == run_churn(spec).signature()

    def test_churn_schedule_is_deterministic(self):
        spec = small_spec()
        a, b = churn_events(spec), churn_events(spec)
        assert len(a) == len(b)
        for ea, eb in zip(a, b):
            assert type(ea) is type(eb)
            if isinstance(ea, AccessBatch):
                assert ea.app == eb.app
                assert np.array_equal(ea.addresses, eb.addresses)
            else:
                assert ea == eb

    def test_payload_round_trip_is_exact(self):
        result = run_churn(small_spec())
        clone = ControllerResult.from_payload(
            json.loads(json.dumps(result.to_payload())))
        assert clone.signature() == result.signature()
        assert clone.replans == result.replans
        assert clone.batches == result.batches

    def test_recorded_plans_replay_on_a_fresh_cache(self):
        """The ReplanRecords are a complete reconfiguration script: a
        fresh cache of the same spec, driven only by ``configure_many``
        on the recorded plans and ``run_chunk`` on the recorded batches,
        reproduces every miss count and every granted allocation."""
        from repro.cache.spec import PartitionSpec, TalusSpec, build
        from repro.workloads.scale import paper_mb_to_lines
        spec = small_spec()
        result = run_churn(spec)
        events = churn_events(spec)

        mirror = build(TalusSpec(partition=PartitionSpec(
            scheme="ideal", capacity_lines=paper_mb_to_lines(spec.total_mb),
            num_partitions=2 * spec.max_apps, policy="LRU",
            backend="object"), num_logical=spec.max_apps))
        mirror.configure_many([ZERO_CONFIG] * spec.max_apps)

        replans = {r.seq: r for r in result.replans}
        batches = iter(result.batches)
        for seq, event in enumerate(events):
            if isinstance(event, AccessBatch):
                record = next(batches)
                stats = mirror.run_chunk(event.addresses, record.slot)
                assert stats.misses == record.misses, f"event {seq}"
            if seq in replans:
                record = replans[seq]
                mirror.configure_many(list(record.planned))
                granted = mirror.base.granted_allocations()
                for slot in range(spec.max_apps):
                    pair = mirror.shadow_pair(slot)
                    total = float(granted[pair.alpha_index]
                                  + granted[pair.beta_index])
                    assert total == record.granted[slot], f"event {seq}"


# --------------------------------------------------------------------------- #
# Planning-curve memo
# --------------------------------------------------------------------------- #
def rebuilt_planning_curve(monitor) -> MissCurve:
    """An app's planning curve rebuilt from the Mattson oracle over its
    monitors' whole histograms, kept as the exact reference for the
    controller's memoised curve and the bounded reads under it."""
    raw = per_half_combined_curve(monitor)
    observed = max(monitor.primary.total_accesses, 1)
    return MissCurve(raw.sizes, np.minimum.accumulate(
        raw.misses * 1000.0 / observed))


class TestPlanningCurveMemo:
    def test_every_read_equals_a_fresh_rebuild(self, monkeypatch):
        """Over a churn stream, every read of a warm app's (curve, hull)
        equals a rebuild from its monitor; a read that finds no batch
        since the app's last read returns the same objects; and an app id
        that departs and re-arrives, then records as many accesses as its
        departed monitor had, never gets that monitor's entry."""
        latest = {}          # app -> (monitor, accesses, curve, hull)
        hits = []
        read = OnlineTalusController._planning_curve

        def checked(self, app):
            curve, hull = read(self, app)
            monitor = self._monitors[app]
            count = monitor.primary.total_accesses
            fresh = rebuilt_planning_curve(monitor)
            for got, want in ((curve, fresh), (hull, convex_hull(fresh))):
                assert np.array_equal(got.sizes, want.sizes), app
                assert np.array_equal(got.misses, want.misses), app
            last = latest.get(app)
            if last is not None and last[0] is monitor and last[1] == count:
                assert curve is last[2] and hull is last[3], app
                hits.append(app)
            latest[app] = (monitor, count, curve, hull)
            return curve, hull

        monkeypatch.setattr(OnlineTalusController, "_planning_curve",
                            checked)
        spec = small_spec()
        ctl = controller(max_apps=spec.max_apps + 1,
                         base_interval_accesses=1_500, base_seed=42)
        ctl.run(churn_events(spec))
        assert hits, "no read found its monitor unchanged"

        app = ctl.active_apps[0]
        departed = ctl._monitors[app]
        count = departed.primary.total_accesses
        ctl.handle(AppArrive("probe"))      # reads `app` at `count`
        assert latest[app][:2] == (departed, count)
        departed_curve = latest[app][2]
        ctl.handle(AppDepart(app))
        ctl.handle(AppArrive(app))
        # As many accesses as the departed monitor saw, looping over 8
        # lines: a curve the departed monitor's entry does not match.
        ctl.handle(AccessBatch(app, (1 << 40) + np.arange(count) % 8))
        ctl.handle(AppDepart("probe"))      # reads the re-arrived `app`
        monitor = ctl._monitors[app]
        assert monitor is not departed
        assert latest[app][:2] == (monitor, count)
        assert not np.array_equal(latest[app][2].misses,
                                  departed_curve.misses)


# --------------------------------------------------------------------------- #
# Planner floors (the per-partition minimums plumbing)
# --------------------------------------------------------------------------- #
def _floor_problem(minimums=None) -> PartitioningProblem:
    # Partition 0 profits from every line; partition 1 is a streaming
    # curve no allocation helps.  Without floors, 1 gets (almost) nothing.
    greedy = MissCurve([0, 32, 64, 96, 128], [128, 96, 64, 32, 0])
    flat = MissCurve([0, 128], [100, 100])
    return PartitioningProblem(curves=(greedy, flat), total_size=128,
                               granularity=8, minimums=minimums)


class TestPlannerFloors:
    @pytest.mark.parametrize("algorithm", [hill_climbing, lookahead, fair])
    def test_minimums_are_respected(self, algorithm):
        allocation = algorithm(_floor_problem(minimums=(8, 48)))
        assert allocation.sizes[0] >= 8
        assert allocation.sizes[1] >= 48
        assert sum(allocation.sizes) <= 128 + 1e-9

    @pytest.mark.parametrize("algorithm", [hill_climbing, lookahead])
    def test_without_floors_the_streaming_app_starves(self, algorithm):
        allocation = algorithm(_floor_problem())
        assert allocation.sizes[1] == 0.0

    def test_minimums_validation(self):
        with pytest.raises(ValueError, match="one entry per curve"):
            _floor_problem(minimums=(8,))
        with pytest.raises(ValueError, match="non-negative"):
            _floor_problem(minimums=(-1, 0))
        with pytest.raises(ValueError, match="exceed total"):
            _floor_problem(minimums=(100, 100))

    def test_floors_accessor(self):
        assert _floor_problem().floors() == (0.0, 0.0)
        assert _floor_problem(minimums=(8, 48)).floors() == (8, 48)

    def test_shared_plan_conserves_exactly(self):
        curves = [MissCurve([0, 64, 128], [100, 40, 39]),
                  MissCurve([0, 64, 128], [80, 79, 78])]
        plan = plan_shared_allocations(curves, 128.0, granularity=8.0,
                                       conserve=True)
        assert sum(plan.sizes) == pytest.approx(128.0)

    def test_shared_plan_floors_and_fairness(self):
        curves = [MissCurve([0, 32, 64, 96, 128], [128, 96, 64, 32, 0]),
                  MissCurve([0, 128], [100, 100])]
        plan = plan_shared_allocations(curves, 128.0, granularity=8.0,
                                       floors=(0.0, 40.0), fairness=1.0,
                                       conserve=True)
        assert plan.sizes[1] >= 40.0
        assert sum(plan.sizes) == pytest.approx(128.0)
        # fairness=1 pulls toward the equal split (floors kept exact).
        assert abs(plan.sizes[0] - plan.sizes[1]) <= 48.0

    def test_shared_plan_rejects_bad_fairness(self):
        with pytest.raises(ValueError, match="fairness"):
            plan_shared_allocations([MissCurve([0, 64], [10, 0])], 64.0,
                                    granularity=8.0, fairness=2.0)


# --------------------------------------------------------------------------- #
# Fault soak: ~1k events, SIGKILL mid-stream, bank resume
# --------------------------------------------------------------------------- #
def soak_spec() -> ChurnSpec:
    return ChurnSpec(total_mb=0.5, max_apps=4, initial_apps=2, steps=300,
                     batch_accesses=150, trace_accesses=1_500,
                     arrive_prob=0.3, depart_prob=0.25, qos_prob=0.2,
                     qos_floor_mb_max=0.05, base_seed=77)


class TestFaultSoak:
    def test_sigkill_mid_stream_recovers_bit_identical(self, tmp_path):
        spec = soak_spec()
        events = churn_events(spec)
        assert len(events) >= 1_000     # a genuine soak, not a toy stream

        reference = run_churn(spec, base_interval_accesses=2_000).signature()
        stream = ChurnStream(spec, (("base_interval_accesses", 2_000),))
        plan = FaultPlan("kill", stage="event", index=len(events) // 2)
        with fault_queue(tmp_path) as queue:
            faulted, = run_supervised([stream], queue=queue,
                                      faults={0: plan})
            job, = queue.jobs()
        assert faulted.signature() == reference
        # The plan fired: one worker died mid-stream, of a signal.
        assert len(job.crashes) == 1
        assert job.crashes[0]["signal"] is not None

    def test_resubmission_resumes_from_the_bank(self, tmp_path):
        spec = soak_spec()
        payload = BankedJob(
            [ChurnStream(spec, (("base_interval_accesses", 2_000),))])
        with fault_queue(tmp_path) as queue:
            first = queue.submit(payload)
            first_result, = first.result()
        with fault_queue(tmp_path) as queue:
            second = queue.submit(BankedJob(
                [ChurnStream(spec, (("base_interval_accesses", 2_000),))]))
            second_result, = second.result()
        assert second.meta.get("bank_hit") is True
        assert second_result.signature() == first_result.signature()

    def test_supervised_matches_in_process(self, tmp_path):
        spec = small_spec()
        direct = run_churn(spec)
        supervised = run_churn(spec, supervise=True, bank=str(tmp_path))
        assert supervised.signature() == direct.signature()

    def test_supervised_accepts_execution_arguments(self, tmp_path):
        """``parallel``/``threads``/``validate`` choose how a run executes,
        not what it records, so the supervised path accepts them too."""
        spec = small_spec()
        execution = dict(parallel="off", threads=1, validate=False)
        direct = run_churn(spec, **execution)
        supervised = run_churn(spec, supervise=True, bank=str(tmp_path),
                               **execution)
        assert supervised.signature() == direct.signature()
