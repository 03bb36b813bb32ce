"""Property-based differential tests for the online controller.

Hypothesis generates random-but-valid churn schedules (arrivals with QoS
floors, departures, QoS updates, access batches) on a tiny 128-line cache
and checks, for every partitioning scheme:

* **differential**: the controller's whole run is bit-identical to an
  explicit replay on the raw object model — a fresh
  :class:`~repro.cache.talus_cache.TalusCache` (``backend="object"``)
  driven by nothing but ``configure_many`` on the recorded plans and
  ``run_chunk`` on the recorded batches reproduces every miss count and
  every granted allocation.  The controller's bookkeeping adds nothing
  the public reallocation API cannot express.  The replacement policy is
  drawn too, randomized ones included, so with the native kernel this
  checks the kernel's warm reallocation against the object model on
  every scheme and policy tier.
* **invariants**: with per-event self-validation enabled, every schedule
  maintains full-capacity conservation, QoS floors and departed-app
  reclamation (violations raise inside the run).
* **determinism**: the same schedule replayed twice is bit-identical.

Schedules stay deliberately small (<= 14 scheduler decisions, batches of
<= 120 accesses) so the pure-Python object-model mirror keeps every
example sub-second.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.spec import PartitionSpec, TalusSpec, build
from repro.sim.controller import (AccessBatch, AppArrive, AppDepart,
                                  OnlineTalusController, QosPolicy,
                                  QosUpdate, ZERO_CONFIG)
from repro.workloads.scale import paper_mb_to_lines

TOTAL_MB = 0.5               # 128 lines
MAX_APPS = 3
APPS = ("a", "b", "c")
#: Floor choices sized so any three (snapped up to the coarsest quantum,
#: 16 lines for way/set at this scale) always fit the capacity.
FLOOR_CHOICES = (0.0, 0.02, 0.05)
SCHEMES = ("ideal", "way", "set", "vantage")
POLICIES = ("LRU", "PDP", "DRRIP", "Random", "BIP", "TA-DRRIP")


@st.composite
def schedules(draw) -> list:
    """A random valid event schedule: every op is legal when it fires."""
    events: list = []
    active: list[str] = []
    for _ in range(draw(st.integers(4, 14))):
        ops = []
        if len(active) < MAX_APPS:
            ops.append("arrive")
        if active:
            ops += ["depart", "qos", "batch", "batch"]
        op = draw(st.sampled_from(ops))
        if op == "arrive":
            app = draw(st.sampled_from(
                [a for a in APPS if a not in active]))
            floor = draw(st.sampled_from(FLOOR_CHOICES))
            events.append(AppArrive(app, QosPolicy(min_mb=floor)))
            active.append(app)
        elif op == "depart":
            app = draw(st.sampled_from(active))
            events.append(AppDepart(app))
            active.remove(app)
        elif op == "qos":
            app = draw(st.sampled_from(active))
            floor = draw(st.sampled_from(FLOOR_CHOICES))
            events.append(QosUpdate(app, QosPolicy(min_mb=floor)))
        else:
            app = draw(st.sampled_from(active))
            rng = np.random.default_rng(draw(st.integers(0, 1 << 16)))
            size = draw(st.integers(1, 120))
            events.append(AccessBatch(
                app, rng.integers(0, 1 << 18, size=size)))
    return events


def run_controller(events, scheme: str, policy: str = "LRU"):
    ctl = OnlineTalusController(TOTAL_MB, max_apps=MAX_APPS, scheme=scheme,
                                policy=policy, base_interval_accesses=400,
                                base_seed=5)
    with ctl:
        return ctl.run(events)


def object_mirror(scheme: str, policy: str = "LRU"):
    """A fresh object-model cache of the controller's exact spec, with
    the same all-slots-empty reset the controller performs."""
    mirror = build(TalusSpec(partition=PartitionSpec(
        scheme=scheme, capacity_lines=paper_mb_to_lines(TOTAL_MB),
        num_partitions=2 * MAX_APPS, policy=policy, backend="object"),
        num_logical=MAX_APPS))
    mirror.configure_many([ZERO_CONFIG] * MAX_APPS)
    return mirror


@pytest.mark.parametrize("scheme", SCHEMES)
@settings(max_examples=30, deadline=None)
@given(events=schedules(), policy=st.sampled_from(POLICIES))
def test_controller_is_bit_identical_to_explicit_object_replay(scheme,
                                                               events,
                                                               policy):
    result = run_controller(events, scheme, policy)
    mirror = object_mirror(scheme, policy)
    replans = {r.seq: r for r in result.replans}
    batch_records = iter(result.batches)
    for seq, event in enumerate(events):
        # Ordering matches the controller: a batch replays first, then
        # any replan recorded at the same sequence number (an interval
        # replan fires *after* the batch that crossed the threshold).
        if isinstance(event, AccessBatch):
            record = next(batch_records)
            stats = mirror.run_chunk(event.addresses, record.slot)
            assert stats.misses == record.misses, \
                f"event {seq} ({scheme}, {policy})"
        if seq in replans:
            record = replans[seq]
            mirror.configure_many(list(record.planned))
            granted = mirror.base.granted_allocations()
            for slot in range(MAX_APPS):
                pair = mirror.shadow_pair(slot)
                total = float(granted[pair.alpha_index]
                              + granted[pair.beta_index])
                assert total == record.granted[slot], \
                    f"event {seq} slot {slot} ({scheme}, {policy})"
    assert next(batch_records, None) is None


@pytest.mark.parametrize("scheme", SCHEMES)
@settings(max_examples=15, deadline=None)
@given(events=schedules())
def test_invariants_hold_on_every_schedule(scheme, events):
    # validate=True (the default) raises inside handle() on any
    # violation; the record audit re-checks floors and conservation.
    result = run_controller(events, scheme)
    partitionable = None
    for replan in result.replans:
        populated = any(app is not None for app in replan.apps)
        if populated:
            # Full conservation whenever anyone is active; the capacity
            # is a constant of the cache, the same at every replan.
            if partitionable is None:
                partitionable = sum(replan.granted)
            assert sum(replan.granted) == pytest.approx(partitionable)
        elif scheme != "way":
            # No apps at all: everything is released (way partitioning
            # structurally keeps every way owned, so it is exempt).
            assert sum(replan.granted) == 0.0
        for app, granted, floor in zip(replan.apps, replan.granted,
                                       replan.floors):
            if app is not None:
                assert granted + 1e-6 >= floor
            elif scheme != "way":
                assert granted == 0.0


@settings(max_examples=10, deadline=None)
@given(events=schedules(), policy=st.sampled_from(POLICIES))
def test_same_schedule_is_deterministic(events, policy):
    assert run_controller(events, "ideal", policy).signature() \
        == run_controller(events, "ideal", policy).signature()
