"""Tests for the declarative spec API and the partition-aware fast path.

Covers the three spec layers (CacheSpec / PartitionSpec / TalusSpec):
round-trip identity through ``to_spec``/``build``, helpful validation
errors, and — the core guarantee of the Talus fast path — bit-identical
statistics between the object-model and array-backend partitioned/Talus
replays for every online policy.  Tests that build array caches directly need the native kernel;
``backend="auto"`` resolves to the object model without it.
"""

import numpy as np
import pytest

from repro.cache import (POLICY_NAMES, ArrayPartitionedCache,
                         ArraySetAssociativeCache,
                         CacheSpec, PartitionSpec, SetAssociativeCache,
                         TalusCache, TalusSpec, build,
                         partitionable_lines_for, resolve_backend)
from repro.core.misscurve import MissCurve
from repro.core.talus import plan_shadow_partitions
from repro.sim.engine import talus_sweep_configs
from repro.sim.sweep import SweepConfig, run_sweep
from repro.cache._native import native_available
from repro.workloads.spec_profiles import get_profile

from .conftest import needs_kernel

ONLINE = tuple(p for p in POLICY_NAMES if p != "Belady")
#: The backend "auto" resolves to on this host.
FAST = "array" if native_available() else "object"


def _cliff_curve():
    """Scanning workload's miss curve: cliff at 1000 lines."""
    return MissCurve([0, 200, 1000, 1400], [1000, 1000, 20, 20])


def _mixed_trace(n=12000, seed=0):
    rng = np.random.default_rng(seed)
    scan = np.tile(np.arange(1000), max(1, n // 2000))
    return np.concatenate([scan, rng.integers(0, 5000, max(0, n - scan.size))])


class TestCacheSpec:
    @needs_kernel
    def test_build_and_roundtrip_fixed_point(self):
        for backend, cls in (("object", SetAssociativeCache),
                             ("array", ArraySetAssociativeCache)):
            spec = CacheSpec(capacity_lines=256, ways=8, policy="SRRIP",
                             backend=backend, hashed_index=True, index_seed=3)
            cache = build(spec)
            assert isinstance(cache, cls)
            assert cache.capacity_lines == 256
            assert cache.to_spec() == spec
            rebuilt = type(cache).from_spec(cache.to_spec())
            assert rebuilt.to_spec() == cache.to_spec()

    def test_auto_resolves_to_concrete_backend(self):
        spec = CacheSpec(capacity_lines=128, policy="LRU", backend="auto")
        assert spec.resolved_backend() == FAST
        assert build(spec).to_spec().backend == FAST
        # Both backends replay the randomized policies alike, so they
        # follow the kernel under "auto" too.
        spec = CacheSpec(capacity_lines=128, policy="DRRIP", backend="auto")
        assert spec.resolved_backend() == FAST

    def test_auto_is_total_over_policies(self):
        for policy in POLICY_NAMES:
            spec = CacheSpec(capacity_lines=128, policy=policy,
                             backend="auto")
            assert spec.resolved_backend() == FAST, policy

    @needs_kernel
    def test_direct_construction_recovers_policy(self):
        cache = ArraySetAssociativeCache(8, 4, policy="LIP")
        spec = cache.to_spec()
        assert spec.policy == "LIP" and spec.backend == "array"
        assert build(spec).to_spec() == spec

    def test_validation_lists_options(self):
        with pytest.raises(ValueError, match="valid policies.*LRU"):
            CacheSpec(capacity_lines=64, policy="LFU")
        with pytest.raises(ValueError, match="valid backends"):
            CacheSpec(capacity_lines=64, backend="gpu")
        with pytest.raises(ValueError):
            CacheSpec(capacity_lines=0)

    def test_resolve_backend_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="valid policies"):
            resolve_backend("auto", "LFU")
        with pytest.raises(ValueError, match="valid backends"):
            resolve_backend("turbo", "LRU")

    def test_from_mb_uses_paper_scale(self):
        from repro.workloads.scale import paper_mb_to_lines
        spec = CacheSpec.from_mb(2.0, policy="LRU")
        assert spec.capacity_lines == paper_mb_to_lines(2.0)


class TestPartitionSpec:
    @pytest.mark.parametrize("scheme", ["ideal", "way", "set", "vantage",
                                        "futility"])
    def test_roundtrip_fixed_point(self, scheme):
        spec = PartitionSpec(scheme=scheme, capacity_lines=512,
                             num_partitions=2, backend="object")
        cache = build(spec)
        recovered = cache.to_spec()
        assert recovered.scheme == scheme
        assert build(recovered).to_spec() == recovered

    @needs_kernel
    @pytest.mark.parametrize("scheme", ["ideal", "way", "set", "vantage"])
    def test_array_roundtrip_fixed_point(self, scheme):
        from repro.cache.partition.array import ArrayVantageCache
        spec = PartitionSpec(scheme=scheme, capacity_lines=512,
                             num_partitions=2, backend="array")
        cache = build(spec)
        expected = (ArrayVantageCache if scheme == "vantage"
                    else ArrayPartitionedCache)
        assert isinstance(cache, expected)
        recovered = cache.to_spec()
        assert recovered.backend == "array"
        assert build(recovered).to_spec() == recovered

    def test_auto_tier(self):
        # The scheme x policy matrix is total on the array backend:
        # every array scheme follows the kernel under "auto" for every
        # policy, randomized ones included.
        assert PartitionSpec(scheme="way", capacity_lines=512,
                             num_partitions=2,
                             policy="SRRIP").resolved_backend() == FAST
        assert PartitionSpec(scheme="way", capacity_lines=512,
                             num_partitions=2,
                             policy="BRRIP").resolved_backend() == FAST
        assert PartitionSpec(scheme="vantage", capacity_lines=512,
                             num_partitions=2,
                             policy="TA-DRRIP").resolved_backend() == FAST
        assert PartitionSpec(scheme="ideal", capacity_lines=512,
                             num_partitions=2,
                             policy="SRRIP").resolved_backend() == FAST
        # Futility scaling is the one object-only scheme.
        assert PartitionSpec(scheme="futility", capacity_lines=512,
                             num_partitions=2).resolved_backend() == "object"

    def test_auto_is_total_over_scheme_policy_matrix(self):
        from repro.cache.partition.array import ARRAY_SCHEMES
        for scheme in ARRAY_SCHEMES:
            for policy in ONLINE:
                spec = PartitionSpec(scheme=scheme, capacity_lines=512,
                                     num_partitions=2, policy=policy)
                assert spec.resolved_backend() == FAST, (scheme, policy)

    def test_explicit_array_rejects_unsupported(self):
        with pytest.raises(ValueError, match="object"):
            PartitionSpec(scheme="futility", capacity_lines=512,
                          num_partitions=2,
                          backend="array").resolved_backend()
        # Non-LRU regions are first-class on the array backend, which
        # needs the kernel.
        for scheme in ("ideal", "vantage"):
            spec = PartitionSpec(scheme=scheme, capacity_lines=512,
                                 num_partitions=2, policy="SRRIP",
                                 backend="array")
            if not native_available():
                with pytest.raises(RuntimeError, match="REPRO_NATIVE"):
                    build(spec)
                continue
            assert spec.resolved_backend() == "array"
            assert build(spec).to_spec().backend == "array"

    def test_validation_lists_options(self):
        with pytest.raises(ValueError, match="valid schemes"):
            PartitionSpec(scheme="zcache", capacity_lines=64, num_partitions=2)
        with pytest.raises(ValueError, match="valid policies"):
            PartitionSpec(scheme="way", capacity_lines=64, num_partitions=2,
                          policy="LFU")
        with pytest.raises(ValueError, match="targets"):
            PartitionSpec(scheme="way", capacity_lines=64, num_partitions=2,
                          targets=(64.0,))

    @pytest.mark.parametrize("scheme", ["ideal", "way", "set", "vantage",
                                        "futility"])
    def test_partitionable_lines_matches_built_cache(self, scheme):
        for capacity in (600, 1024, 333):
            spec = PartitionSpec(scheme=scheme, capacity_lines=capacity,
                                 num_partitions=2, backend="object")
            assert spec.partitionable_lines == \
                build(spec).partitionable_lines
            assert partitionable_lines_for(scheme, capacity, 2, 16) == \
                spec.partitionable_lines

    def test_targets_applied_with_scheme_rounding(self):
        from dataclasses import replace
        spec = PartitionSpec(scheme="way", capacity_lines=600,
                             num_partitions=2, targets=(200.0, 392.0))
        for backend in ("object", "auto"):
            cache = build(replace(spec, backend=backend))
            assert cache.granted_allocations() == [185, 407]  # 5 + 11 ways

    def test_array_reallocation_works_warm(self):
        # Both backends reallocate warm partitions in place (shrink
        # evicts per-policy victims, grow adds empty capacity).
        cache = build(PartitionSpec(scheme="way", capacity_lines=512,
                                    num_partitions=2))
        cache.set_allocations([128, 384])  # empty: fine
        for a in range(200):
            cache.access(a, 0)
        granted = cache.set_allocations([384, 128])
        assert granted == [384, 128]
        # Partition 0 kept its (shrunk-then-grown-capacity) lines...
        assert cache.partition_occupancy(0) > 0
        assert cache.partition_occupancy(0) <= granted[0]
        # ...and partition 1 was shrunk within its new allocation.
        assert cache.partition_occupancy(1) <= granted[1]


class TestTalusSpec:
    def test_validation(self):
        part = PartitionSpec(scheme="ideal", capacity_lines=600,
                             num_partitions=3)
        with pytest.raises(ValueError, match="2 per logical"):
            TalusSpec(partition=part, num_logical=1)
        part = PartitionSpec(scheme="ideal", capacity_lines=600,
                             num_partitions=2)
        with pytest.raises(ValueError, match="configs"):
            TalusSpec(partition=part, num_logical=1,
                      configs=(None, None))

    def test_build_configures_pairs_and_roundtrips(self):
        curve = _cliff_curve()
        part = PartitionSpec(scheme="ideal", capacity_lines=600,
                             num_partitions=2, backend="object")
        config = plan_shadow_partitions(curve, 600, safety_margin=0.05)
        spec = TalusSpec(partition=part, configs=(config,))
        talus = build(spec)
        assert isinstance(talus, TalusCache)
        pair = talus.shadow_pair(0)
        assert pair.config is not None
        assert pair.sampler.rate > 0
        recovered = talus.to_spec()
        assert build(recovered).to_spec() == recovered


@needs_kernel
class TestObjectArrayParity:
    """The headline guarantee: the fast path changes nothing but speed."""

    @pytest.mark.parametrize("policy", ONLINE)
    def test_talus_way_shadow_pair_parity(self, policy):
        self._check_talus_parity("way", policy)

    @pytest.mark.parametrize("policy", ["SRRIP", "PDP"])
    def test_talus_set_shadow_pair_parity(self, policy):
        self._check_talus_parity("set", policy)

    def test_talus_ideal_shadow_pair_parity(self):
        self._check_talus_parity("ideal", "LRU")

    def _check_talus_parity(self, scheme, policy):
        curve = _cliff_curve()
        trace = _mixed_trace()
        results = {}
        for backend in ("object", "array"):
            part = PartitionSpec(scheme=scheme, capacity_lines=600,
                                 num_partitions=2, policy=policy,
                                 backend=backend)
            config = plan_shadow_partitions(
                curve, min(600, part.partitionable_lines),
                safety_margin=0.05)
            talus = build(TalusSpec(partition=part, configs=(config,)))
            talus.run(trace, 0)
            results[backend] = (
                talus.logical_stats[0].accesses,
                talus.logical_stats[0].misses,
                [(s.accesses, s.misses) for s in talus.base.partition_stats],
            )
        assert results["object"] == results["array"]

    @pytest.mark.parametrize("policy", ONLINE)
    def test_run_partitioned_matches_object_per_access(self, policy):
        trace = _mixed_trace(8000, seed=3)
        rng = np.random.default_rng(7)
        parts = (rng.random(trace.size) < 0.4).astype(np.int64)
        results = {}
        for backend in ("object", "array"):
            spec = PartitionSpec(scheme="way", capacity_lines=600,
                                 num_partitions=2, policy=policy,
                                 backend=backend, targets=(200.0, 392.0))
            cache = build(spec)
            if backend == "array":
                cache.run_partitioned(trace, parts)
            else:
                for a, p in zip(trace.tolist(), parts.tolist()):
                    cache.access(a, int(p))
            results[backend] = [(s.accesses, s.misses)
                                for s in cache.partition_stats]
        assert results["object"] == results["array"]

    def test_batch_and_per_access_paths_interchangeable(self):
        # Half the trace through run() (kernel), half through access():
        # same totals as the object model replaying everything.
        curve = _cliff_curve()
        trace = _mixed_trace(6000, seed=5)
        stats = {}
        for backend in ("object", "array"):
            part = PartitionSpec(scheme="way", capacity_lines=600,
                                 num_partitions=2, backend=backend)
            config = plan_shadow_partitions(
                curve, min(600, part.partitionable_lines),
                safety_margin=0.05)
            talus = build(TalusSpec(partition=part, configs=(config,)))
            talus.run(trace[:3000], 0)
            for a in trace[3000:].tolist():
                talus.access(a, 0)
            stats[backend] = (talus.logical_stats[0].accesses,
                              talus.logical_stats[0].misses)
        assert stats["object"] == stats["array"]

    def test_warm_ideal_batches_continue_exactly(self):
        # A second run() call replays against the resident state (the
        # stack-distance path replays the warm LRU contents as a prefix).
        curve = _cliff_curve()
        first, second = _mixed_trace(4000, seed=8), _mixed_trace(4000, seed=9)
        stats = {}
        for backend in ("object", "array"):
            part = PartitionSpec(scheme="ideal", capacity_lines=600,
                                 num_partitions=2, backend=backend)
            config = plan_shadow_partitions(curve, 600, safety_margin=0.05)
            talus = build(TalusSpec(partition=part, configs=(config,)))
            talus.run(first, 0)
            talus.run(second, 0)
            stats[backend] = (talus.logical_stats[0].accesses,
                              talus.logical_stats[0].misses)
        assert stats["object"] == stats["array"]

    def test_zero_ways_partition_misses_everything(self):
        # A degenerate all-in-beta Talus config leaves alpha with zero
        # ways; the kernel treats it as a zero-capacity region.
        cache = build(PartitionSpec(scheme="way", capacity_lines=512,
                                    num_partitions=2, backend="array",
                                    targets=(0.0, 512.0)))
        assert cache.granted_allocations()[0] == 0
        trace = np.arange(100, dtype=np.int64)
        accesses, misses = cache.run_partitioned(
            trace, np.zeros(100, dtype=np.int64))
        assert accesses[0] == misses[0] == 100
        assert cache.partition_occupancy(0) == 0


class TestSweepIntegration:
    def test_spec_configs_match_object_builder_path(self):
        profile = get_profile("omnetpp")
        trace = profile.trace(n_accesses=8000)
        lru = profile.lru_curve(max_mb=4.0, points=17, n_accesses=8000)
        sizes = [1.0, 1.5]
        fast = talus_sweep_configs(sizes, scheme="way", planning_curve=lru,
                                   backend="auto")
        slow = talus_sweep_configs(sizes, scheme="way", planning_curve=lru,
                                   backend="object")
        assert all(c.spec is not None for c in fast)
        r_fast = run_sweep(trace, fast)
        r_slow = run_sweep(trace, slow)
        for size in sizes:
            assert r_fast[("talus", size)].misses == \
                r_slow[("talus", size)].misses

    def test_spec_configs_are_poolable(self, tmp_path):
        """Talus points ship to supervised worker processes and bank
        there, with the in-process serial and threaded counts."""
        profile = get_profile("omnetpp")
        trace = profile.trace(n_accesses=5000)
        lru = profile.lru_curve(max_mb=4.0, points=17, n_accesses=5000)
        configs = talus_sweep_configs([1.0, 1.5], scheme="way",
                                      planning_curve=lru)
        serial = run_sweep(trace, configs, threads=1)
        threaded = run_sweep(trace, configs, max_workers=2)
        supervised = run_sweep(trace, configs, supervise=True,
                               bank=tmp_path, max_workers=2)
        for config in configs:
            assert serial[config.key].misses == threaded[config.key].misses
            assert (serial[config.key].misses
                    == supervised[config.key].misses)

    def test_explicit_spec_sweep_config(self):
        trace = _mixed_trace(5000, seed=11)
        spec = CacheSpec(capacity_lines=256, policy="LRU")
        result = run_sweep(trace, [
            SweepConfig("spec", spec),
            SweepConfig(("LRU", 1.0), CacheSpec.from_mb(1.0)),
        ])
        assert result["spec"].accesses == len(trace)


class TestReconfigureVantage:
    def test_vantage_warmup_clamped(self):
        # Regression: the seed crashed in the warm-up configure because
        # the degenerate request exceeded Vantage's managed capacity.
        from repro.sim.multicore import ReconfiguringSharedRun
        from repro.workloads.scale import lines_to_paper_mb, paper_mb_to_lines
        profile = get_profile("omnetpp")
        trace = profile.trace(n_accesses=20000)
        run = ReconfiguringSharedRun(total_mb=1.0, scheme="vantage",
                                     interval_accesses=5000,
                                     monitor_points=65)
        records = run.run([trace])
        assert len(records) == 4
        # The warm-up record holds the whole managed region, which is
        # smaller than the cache: a full-capacity request is rejected.
        lines = paper_mb_to_lines(1.0)
        managed = PartitionSpec(scheme="vantage", capacity_lines=lines,
                                num_partitions=2).partitionable_lines
        assert managed < lines
        assert records[0].allocations_mb == (lines_to_paper_mb(managed),)
