"""Parity and regression tests for the sweep engine and the array cache.

The array backend's contract is that every online policy is
*bit-identical* to the object model; these tests enforce it with
property-based random traces (through batched kernel runs and scalar
one-access kernel calls) and pin the sweep engine to the per-size
reference results.  Tests that build array caches directly need the
native kernel; the sweep-engine tests run on either backend.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (POLICY_NAMES, ArraySetAssociativeCache, CacheSpec,
                         CacheStats, PartitionSpec, SetAssociativeCache,
                         cache_geometry, named_policy_factory,
                         resolve_backend)
from repro.cache._native import native_available
from repro.sim.engine import simulate_policy_at_size, simulated_mpki_curve
from repro.sim.sweep import (SweepConfig, SweepSpec, _derive_seed, run_sweep,
                             sweep_configs)
from repro.workloads.spec_profiles import get_profile

from .conftest import needs_kernel


ONLINE = tuple(p for p in POLICY_NAMES if p != "Belady")


def traces(max_addr: int = 200, max_len: int = 400):
    return st.lists(st.integers(0, max_addr), min_size=1, max_size=max_len)


def _object_counts(trace, num_sets, ways, policy, hashed_index=False,
                   index_seed=0):
    cache = SetAssociativeCache(num_sets, ways,
                                named_policy_factory(policy, num_sets),
                                hashed_index=hashed_index,
                                index_seed=index_seed)
    for a in trace:
        cache.access(a)
    return cache.stats.hits, cache.stats.misses


@needs_kernel
class TestArrayBackendParity:
    @settings(max_examples=40, deadline=None)
    @given(trace=traces(), num_sets=st.integers(1, 9),
           ways=st.integers(1, 8),
           policy=st.sampled_from(ONLINE))
    def test_native_run_matches_object_model(self, trace, num_sets, ways,
                                             policy):
        """Array backend replay == object model, hit for hit."""
        array = ArraySetAssociativeCache(num_sets, ways, policy=policy)
        array.run(np.asarray(trace, dtype=np.int64))
        assert (array.stats.hits, array.stats.misses) == \
            _object_counts(trace, num_sets, ways, policy)

    @settings(max_examples=25, deadline=None)
    @given(trace=traces(), num_sets=st.integers(2, 9),
           ways=st.integers(1, 8),
           policy=st.sampled_from(ONLINE),
           index_seed=st.integers(0, 2**31 - 1))
    def test_hashed_indexing_matches_object_model(self, trace, num_sets,
                                                  ways, policy, index_seed):
        """Hashed set indexing agrees between the backends, seed for seed."""
        array = ArraySetAssociativeCache(num_sets, ways, policy=policy,
                                         hashed_index=True,
                                         index_seed=index_seed)
        array.run(np.asarray(trace, dtype=np.int64))
        assert (array.stats.hits, array.stats.misses) == \
            _object_counts(trace, num_sets, ways, policy,
                           hashed_index=True, index_seed=index_seed)

    @settings(max_examples=25, deadline=None)
    @given(trace=traces(max_len=150), num_sets=st.integers(1, 5),
           ways=st.integers(1, 6),
           policy=st.sampled_from(ONLINE))
    def test_python_access_path_matches_object_model(self, trace, num_sets,
                                                     ways, policy):
        """Scalar access() calls (one-access kernel replays) are
        bit-compatible with the object model."""
        array = ArraySetAssociativeCache(num_sets, ways, policy=policy)
        expected = _object_counts(trace, num_sets, ways, policy)
        for a in trace:
            array.access(a)
        assert (array.stats.hits, array.stats.misses) == expected

    @settings(max_examples=15, deadline=None)
    @given(trace=traces(max_len=200), num_sets=st.integers(1, 5),
           ways=st.integers(1, 6),
           policy=st.sampled_from(("BIP", "DIP", "BRRIP", "DRRIP")),
           seed=st.integers(0, 2**31 - 1))
    def test_randomized_policies_deterministic_per_seed(self, trace, num_sets,
                                                        ways, policy, seed):
        """BIP/DIP/BRRIP/DRRIP array runs reproduce exactly for a seed."""
        runs = []
        for _ in range(2):
            array = ArraySetAssociativeCache(num_sets, ways, policy=policy,
                                             seed=seed)
            array.run(np.asarray(trace, dtype=np.int64))
            runs.append((array.stats.hits, array.stats.misses))
        assert runs[0] == runs[1]

    def test_pdp_tuning_kwargs_stay_bit_identical(self):
        """PDP tuning kwargs ride a CacheSpec to both backends (auto
        routes PDP to the array model, so they must agree beyond the
        defaults too)."""
        trace = get_profile("omnetpp").trace(n_accesses=12000)
        kwargs = dict(recompute_interval=256, max_distance_factor=2.0,
                      initial_distance=3)
        arr = CacheSpec(capacity_lines=256, policy="PDP", backend="auto",
                        policy_kwargs=kwargs).build()
        assert isinstance(arr, ArraySetAssociativeCache)
        arr.run(trace.addresses)
        obj = CacheSpec(capacity_lines=256, policy="PDP", backend="object",
                        policy_kwargs=kwargs).build()
        for a in trace.addresses.tolist():
            obj.access(a)
        assert arr.stats.misses == obj.stats.misses
        with pytest.raises(ValueError):
            ArraySetAssociativeCache(4, 2, policy="LRU",
                                     recompute_interval=256)
        with pytest.raises(ValueError):
            ArraySetAssociativeCache(4, 2, policy="PDP",
                                     recompute_interval=8)

    def test_minus_one_address_is_rejected(self):
        """-1 is the empty-way sentinel; caching it would mis-report hits."""
        cache = ArraySetAssociativeCache(4, 2)
        with pytest.raises(ValueError):
            cache.access(-1)
        with pytest.raises(ValueError):
            cache.run(np.array([0, -1, 2], dtype=np.int64))
        cache.run(np.array([-2, 0, 7], dtype=np.int64))  # other ints are fine

    def test_randomized_policies_track_object_model(self):
        """The randomized policies equal the reference model, miss for
        miss: both draw from the same splitmix64 stream and duel over the
        same leader sets."""
        trace = get_profile("omnetpp").trace(n_accesses=40000)
        for policy in ("BIP", "DIP", "BRRIP", "DRRIP", "TA-DRRIP",
                       "Random"):
            array = CacheSpec(capacity_lines=512, policy=policy,
                              backend="array", seed=9).build()
            array.run(trace.addresses)
            obj = CacheSpec(capacity_lines=512, policy=policy,
                            backend="object", seed=9).build()
            for a in trace.addresses.tolist():
                obj.access(a)
            assert array.stats.misses == obj.stats.misses, policy

    def test_python_and_native_paths_interleave(self):
        """A replay split across access() and run() matches a pure run()."""
        trace = get_profile("omnetpp").trace(n_accesses=4000)
        addrs = trace.addresses

        def build(policy, address_duel=False):
            cache = ArraySetAssociativeCache(8, 4, policy=policy, seed=7)
            if address_duel:  # the kernel's standalone-dueling role
                cache._roles[:] = 3
            return cache

        for policy, duel in (("LRU", False), ("LIP", False),
                             ("SRRIP", False), ("BRRIP", False),
                             ("BIP", False), ("DIP", False),
                             ("PDP", False), ("DRRIP", False),
                             ("DRRIP", True), ("TA-DRRIP", False),
                             ("Random", False)):
            whole = build(policy, duel)
            whole.run(addrs)
            mixed = build(policy, duel)
            for a in addrs[:500].tolist():
                mixed.access(a)
            mixed.run(addrs[500:])
            assert mixed.stats.misses == whole.stats.misses, (policy, duel)


class TestSweepEngine:
    def test_run_sweep_matches_per_size_reference(self):
        """Batched sweep == the seed-style one-run-per-size loop.

        Per-config seeds are stable functions of the sweep point, so
        batching cannot change any point's result — on either backend
        (exact tier checked against the object reference, seeded tier
        against the same one-size-at-a-time auto path).
        """
        trace = get_profile("omnetpp").trace(n_accesses=20000)
        sizes = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
        for policy, reference_backend in (("LRU", "object"),
                                          ("SRRIP", "object"),
                                          ("DRRIP", "auto")):
            spec = SweepSpec(sizes_mb=sizes, policies=(policy,))
            result = run_sweep(trace, spec)
            for size in sizes:
                reference = simulate_policy_at_size(
                    trace, size, policy, backend=reference_backend)
                assert result.mpki((policy, size)) == pytest.approx(reference)

    @needs_kernel
    def test_object_and_array_backends_agree(self):
        trace = get_profile("sphinx3").trace(n_accesses=15000)
        sizes = (0.5, 1.0, 2.0)
        for policy in ONLINE:
            spec = SweepSpec(sizes_mb=sizes, policies=(policy,))
            obj = run_sweep(trace, spec, backend="object")
            arr = run_sweep(trace, spec, backend="array")
            for size in sizes:
                assert obj.misses((policy, size)) == arr.misses((policy, size))

    def test_parallel_matches_serial(self):
        trace = get_profile("omnetpp").trace(n_accesses=8000)
        spec = SweepSpec(sizes_mb=(0.25, 0.5, 1.0, 2.0),
                         policies=("LRU", "BRRIP"))
        serial = run_sweep(trace, spec, threads=1)
        parallel = run_sweep(trace, spec, max_workers=2)
        for key, stats in serial.stats.items():
            assert parallel[key].misses == stats.misses

    def test_expand_is_deterministic(self):
        spec = SweepSpec(sizes_mb=(1.0, 2.0), policies=("LRU", "BRRIP"),
                         base_seed=3)
        first, second = spec.expand(), spec.expand()
        assert first == second
        # Different base seeds give different RNG seeds to the configs.
        other = SweepSpec(sizes_mb=(1.0, 2.0), policies=("LRU", "BRRIP"),
                          base_seed=4).expand()
        assert [c.spec.seed for c in first] != [c.spec.seed for c in other]
        # Every point is the CacheSpec of its (policy, size), carrying
        # the sweep's backend unresolved and the point's derived seed.
        spec = SweepSpec(sizes_mb=(0.0, 1.0, 2.0), policies=("LRU", "BRRIP"),
                         ways=8, backend="object", base_seed=3)
        for config in spec.expand():
            policy, size = config.key
            if size == 0.0:
                assert config.spec is None      # zero lines: all-miss
                continue
            assert config.spec == CacheSpec.from_mb(
                size, ways=8, policy=policy, backend="object",
                seed=_derive_seed(3, policy, size))

    def test_zero_size_config_is_all_misses(self):
        trace = get_profile("omnetpp").trace(n_accesses=2000)
        result = run_sweep(trace, SweepSpec(sizes_mb=(0.0,)))
        stats = result[("LRU", 0.0)]
        assert stats.misses == stats.accesses == len(trace)

    def test_mpki_curve_and_validation(self):
        trace = get_profile("omnetpp").trace(n_accesses=5000)
        curve = simulated_mpki_curve(trace, [2.0, 0.5, 1.0], "LRU")
        assert list(curve.sizes) == [0.5, 1.0, 2.0]
        with pytest.raises(ValueError):
            SweepSpec(sizes_mb=())
        with pytest.raises(ValueError):
            SweepSpec(sizes_mb=(1.0,), backend="gpu")
        with pytest.raises(ValueError):
            run_sweep(trace, [SweepConfig("a", CacheSpec.from_mb(1.0)),
                              SweepConfig("a", CacheSpec.from_mb(2.0))])

    def test_backend_override_rejects_config_sequences(self):
        """Each point's spec carries its own backend, so ``backend=``
        with a config sequence raises instead of being ignored."""
        trace = get_profile("omnetpp").trace(n_accesses=2000)
        configs = [SweepConfig(("LRU", 1.0), CacheSpec.from_mb(1.0))]
        with pytest.raises(ValueError, match="SweepSpec only"):
            run_sweep(trace, configs, backend="object")
        # On a SweepSpec every override applies, "auto" included.
        spec = SweepSpec(sizes_mb=(1.0,), backend="object")
        assert [c.spec.backend for c in sweep_configs(spec, "auto")] == \
            ["auto"]

    def test_sweep_points_are_cache_or_talus_specs(self):
        """A point's spec is a CacheSpec, a PartitionSpec, a TalusSpec or
        None; a partitioned point cannot be sampled."""
        from repro.sampling.driver import SamplingSpec
        spec = PartitionSpec(scheme="ideal", capacity_lines=256,
                             num_partitions=2)
        point = SweepConfig("ideal", spec)
        assert point.spec is spec
        with pytest.raises(TypeError, match="CacheSpec, a PartitionSpec"):
            SweepConfig("bad", lambda: SetAssociativeCache(16, 16))
        trace = get_profile("omnetpp").trace(n_accesses=2000)
        with pytest.raises(ValueError, match="PartitionSpec"):
            run_sweep(trace, [point],
                      sampling=SamplingSpec(window=200, n_windows=2))

    @pytest.mark.parametrize("path", [
        "object", pytest.param("array", marks=needs_kernel), "supervised"])
    @pytest.mark.parametrize("scheme", ["way", "ideal", "vantage"])
    def test_partitioned_point_replays_into_partition_zero(self, path,
                                                            scheme,
                                                            tmp_path):
        """A PartitionSpec point equals building the spec, replaying every
        access into partition 0 (``run_partitioned(addrs, zeros)`` on the
        array cache, ``access(a, 0)`` on the object model) and summing
        the partitions with ``total_stats()``."""
        trace = get_profile("omnetpp").trace(n_accesses=4000, seed=2)
        addrs = np.asarray(trace.addresses, dtype=np.int64)
        backend = "auto" if path == "supervised" else path
        spec = PartitionSpec(scheme=scheme, capacity_lines=512,
                             num_partitions=2, policy="DRRIP",
                             backend=backend, policy_kwargs=(("seed", 5),))
        reference = spec.build()
        if hasattr(reference, "run_partitioned"):
            reference.run_partitioned(addrs, np.zeros_like(addrs))
        else:
            for a in addrs.tolist():
                reference.access(a, 0)
        expected = reference.total_stats()
        configs = [SweepConfig(("DRRIP", scheme), spec)]
        if path == "supervised":
            result = run_sweep(trace, configs, supervise=True, bank=tmp_path)
        else:
            result = run_sweep(trace, configs)
        stats = result[("DRRIP", scheme)]
        assert (stats.accesses, stats.hits, stats.misses) == \
            (expected.accesses, expected.hits, expected.misses)
        assert stats.accesses == len(trace)
        assert stats.instructions == trace.instructions

    def test_talus_configs_handle_zero_and_duplicate_sizes(self):
        from repro.core.convexhull import convex_hull
        from repro.sim.engine import talus_simulated_mpki_curve, \
            talus_sweep_configs
        profile = get_profile("omnetpp")
        trace = profile.trace(n_accesses=4000)
        lru = profile.lru_curve(max_mb=4.0, points=17, n_accesses=4000)
        # Duplicates collapse; a zero-line size becomes an all-miss config
        # instead of being dropped (the seed loop's full-miss-rate fallback).
        configs = talus_sweep_configs([0.0, 1.0, 1.0], planning_curve=lru,
                                      scheme="ideal")
        assert [c.key for c in configs] == [("talus", 0.0), ("talus", 1.0)]
        result = run_sweep(trace, configs)
        assert result[("talus", 0.0)].misses == len(trace)
        curve = talus_simulated_mpki_curve(profile, [0.0, 1.5, 1.5],
                                           scheme="ideal",
                                           planning_curve=lru,
                                           n_accesses=4000)
        assert float(curve(0.0)) == pytest.approx(profile.apki, rel=0.02)
        assert float(curve(1.5)) <= float(convex_hull(lru)(1.5)) \
            + 0.25 * float(lru(0.0))

    def test_base_seed_uses_all_bits(self):
        from repro.sim.sweep import _derive_seed
        assert _derive_seed(1, "BRRIP", 1.0) != \
            _derive_seed(2**32 + 1, "BRRIP", 1.0)


class TestFactoryAndStats:
    def test_resolve_backend(self):
        # Both backends replay every policy alike, so "auto" follows the
        # kernel: the array model with it, the object model without.
        fast = "array" if native_available() else "object"
        for policy in POLICY_NAMES:
            assert resolve_backend("auto", policy) == fast
            assert resolve_backend("object", policy) == "object"
            if native_available():
                assert resolve_backend("array", policy) == "array"
            else:
                with pytest.raises(RuntimeError,
                                   match="C compiler.*REPRO_NATIVE"):
                    resolve_backend("array", policy)
        with pytest.raises(ValueError):
            resolve_backend("turbo", "LRU")
        with pytest.raises(ValueError):
            resolve_backend("auto", "FIFO")

    def test_build_cache_geometries(self):
        assert cache_geometry(256, 16) == (16, 16)
        assert cache_geometry(10, 16) == (1, 10)
        with pytest.raises(ValueError):
            cache_geometry(0, 16)
        for backend in ("object", "auto"):
            cache = CacheSpec(capacity_lines=256, policy="LRU",
                              backend=backend).build()
            assert cache.capacity_lines == 256

    def test_stats_merge_keeps_extra(self):
        a = CacheStats(accesses=4, hits=1, misses=3,
                       extra={"bypassed_lines": 2, "note": "left"})
        b = CacheStats(accesses=6, hits=2, misses=4,
                       extra={"bypassed_lines": 5, "other": 1.5})
        merged = a.merge(b)
        assert merged.accesses == 10 and merged.misses == 7
        assert merged.extra == {"bypassed_lines": 7, "note": "left",
                                "other": 1.5}
        # merge() still leaves the operands untouched
        assert a.extra["bypassed_lines"] == 2
        assert b.extra["bypassed_lines"] == 5
