"""Parity tests for the array/native Vantage organization.

The object :class:`~repro.cache.partition.vantage.VantagePartitionedCache`
with LRU regions is fully deterministic, so the array backend
(:class:`~repro.cache.partition.array.ArrayVantageCache`, the
``vantage_run``/``vantage_realloc`` kernels) must be **bit-identical** to
it: same hits and misses access by access, same occupancies, same
unmanaged-region contents effects, same warm reallocation — at any chunk
boundary.  Tests that build array caches directly need the native kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.partition.array import ArrayVantageCache
from repro.cache.partition.vantage import VantagePartitionedCache
from repro.cache.spec import PartitionSpec, TalusSpec, build
from repro.sim.multicore import ReconfiguringSharedRun
from repro.workloads.spec_profiles import get_profile

from .conftest import needs_kernel


def _stream(n, num_parts, addr_range=(0, 400), seed=0):
    rng = np.random.default_rng(seed)
    addrs = rng.integers(addr_range[0], addr_range[1], n).astype(np.int64)
    parts = rng.integers(0, num_parts, n).astype(np.int64)
    return addrs, parts


def _pair(capacity, num_parts, **kwargs):
    return (VantagePartitionedCache(capacity, num_parts, **kwargs),
            ArrayVantageCache(capacity, num_parts, **kwargs))


def _object_misses(obj, addrs, parts):
    misses = [0] * obj.num_partitions
    for a, p in zip(addrs.tolist(), parts.tolist()):
        if not obj.access(a, p):
            misses[p] += 1
    return misses


@needs_kernel
class TestArrayVantageParity:
    def test_per_access_parity(self):
        obj, arr = _pair(180, 3)
        addrs, parts = _stream(6000, 3, seed=1)
        for a, p in zip(addrs.tolist(), parts.tolist()):
            assert obj.access(a, p) == arr.access(a, p)
        for p in range(3):
            assert obj.partition_occupancy(p) == arr.partition_occupancy(p)
            assert obj.partition_stats[p].misses == \
                arr.partition_stats[p].misses
        assert obj.unmanaged_occupancy() == arr.unmanaged_occupancy()

    def test_batch_matches_object(self):
        obj, arr = _pair(240, 4)
        addrs, parts = _stream(12000, 4, seed=2)
        expected = _object_misses(obj, addrs, parts)
        accesses, misses = arr.run_partitioned(addrs, parts)
        assert misses.tolist() == expected
        assert accesses.sum() == addrs.size

    def test_chunk_boundary_invariance(self):
        addrs, parts = _stream(9000, 3, seed=3)
        one = ArrayVantageCache(200, 3)
        one.run_partitioned(addrs, parts)
        chunked = ArrayVantageCache(200, 3)
        for cut in range(0, 9000, 1234):
            chunked.run_chunk(addrs[cut:cut + 1234], parts[cut:cut + 1234])
        for p in range(3):
            assert one.partition_stats[p].misses == \
                chunked.partition_stats[p].misses
            assert one.partition_occupancy(p) == \
                chunked.partition_occupancy(p)
        assert one.unmanaged_occupancy() == chunked.unmanaged_occupancy()

    def test_warm_reallocation_parity(self):
        obj, arr = _pair(300, 3)
        addrs, parts = _stream(15000, 3, seed=4)
        plans = ([40, 150, 80], [0, 200, 70], [90, 90, 90])
        for i, start in enumerate(range(0, 15000, 5000)):
            sl = slice(start, start + 5000)
            expected = _object_misses(obj, addrs[sl], parts[sl])
            _, misses = arr.run_chunk(addrs[sl], parts[sl])
            assert misses.tolist() == expected
            granted_obj = obj.set_allocations(plans[i])
            granted_arr = arr.set_allocations(plans[i])
            assert granted_obj == granted_arr
            for p in range(3):
                assert obj.partition_occupancy(p) == \
                    arr.partition_occupancy(p)
            assert obj.unmanaged_occupancy() == arr.unmanaged_occupancy()

    def test_zero_capacity_partition_and_unmanaged_hits(self):
        # A zero-budget partition lives in the unmanaged region only; a
        # re-access promotes back into whichever partition asks.
        obj, arr = _pair(120, 2)
        obj.set_allocations([0, obj.partitionable_lines])
        arr.set_allocations([0, arr.partitionable_lines])
        addrs, parts = _stream(5000, 2, addr_range=(-30, 90), seed=5)
        for a, p in zip(addrs.tolist(), parts.tolist()):
            assert obj.access(a, p) == arr.access(a, p)
        assert obj.unmanaged_occupancy() == arr.unmanaged_occupancy()

    def test_zero_unmanaged_fraction(self):
        obj, arr = _pair(128, 2, unmanaged_fraction=0.0)
        assert arr.partitionable_lines == 128
        assert arr.unmanaged_capacity == 0
        addrs, parts = _stream(4000, 2, seed=6)
        expected = _object_misses(obj, addrs, parts)
        _, misses = arr.run_partitioned(addrs, parts)
        assert misses.tolist() == expected

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="polic"):
            ArrayVantageCache(128, 2, policy="LFU")

    def test_overcapacity_request_rejected(self):
        _, arr = _pair(100, 2)
        with pytest.raises(ValueError, match="partitionable"):
            arr.set_allocations([80, 80])


@needs_kernel
class TestVantageSpec:
    def test_auto_resolves_to_array_for_lru(self):
        spec = PartitionSpec(scheme="vantage", capacity_lines=512,
                             num_partitions=2)
        assert spec.resolved_backend() == "array"
        assert isinstance(build(spec), ArrayVantageCache)

    def test_non_lru_rides_array_too(self):
        # Vantage regions are no longer LRU-only on the native path:
        # every replacement policy resolves to the array backend.
        for policy in ("SRRIP", "BRRIP", "PDP", "TA-DRRIP"):
            spec = PartitionSpec(scheme="vantage", capacity_lines=512,
                                 num_partitions=2, policy=policy)
            assert spec.resolved_backend() == "array", policy
            assert isinstance(build(spec), ArrayVantageCache)

    def test_array_roundtrip_fixed_point(self):
        spec = PartitionSpec(scheme="vantage", capacity_lines=512,
                             num_partitions=2, backend="array")
        cache = build(spec)
        recovered = cache.to_spec()
        assert recovered.backend == "array"
        assert recovered.scheme == "vantage"
        assert build(recovered).to_spec() == recovered

    def test_nondefault_unmanaged_fraction_roundtrips(self):
        spec = PartitionSpec(scheme="vantage", capacity_lines=500,
                             num_partitions=2, backend="array",
                             scheme_kwargs=(("unmanaged_fraction", 0.2),))
        cache = build(spec)
        assert cache.unmanaged_capacity == 100
        assert dict(cache.to_spec().scheme_kwargs) == \
            {"unmanaged_fraction": 0.2}

    def test_spec_backends_grant_identical_allocations(self):
        spec = PartitionSpec(scheme="vantage", capacity_lines=600,
                             num_partitions=3, targets=(100.0, 200.0, 240.0))
        from dataclasses import replace
        arr = build(replace(spec, backend="array"))
        obj = build(replace(spec, backend="object"))
        assert arr.granted_allocations() == obj.granted_allocations()


class TestVantageTalusLoop:
    @needs_kernel
    def test_talus_on_vantage_batch_replay(self):
        """Talus with a Vantage base now supports one-pass batched replay."""
        spec = TalusSpec(partition=PartitionSpec(
            scheme="vantage", capacity_lines=512, num_partitions=2))
        talus = build(spec)
        assert talus.supports_batch_replay
        trace = get_profile("omnetpp").trace(n_accesses=8000)
        stats = talus.run(trace.addresses)
        assert stats.accesses == 8000

    def test_reconfigure_loop_backend_parity(self):
        """The default-scheme (Vantage) Fig. 7 loop is bit-identical
        between the object model and the native fast path."""
        trace = get_profile("omnetpp").trace(n_accesses=40000)
        records = {}
        for backend in ("object", "auto"):
            run = ReconfiguringSharedRun(total_mb=1.0, scheme="vantage",
                                         interval_accesses=8000,
                                         monitor_points=65,
                                         backend=backend)
            records[backend] = run.run([trace])
        assert len(records["object"]) == len(records["auto"]) == 5
        for a, b in zip(records["object"], records["auto"]):
            assert (a.accesses, a.misses) == (b.accesses, b.misses)
            assert a.allocations_mb == b.allocations_mb
