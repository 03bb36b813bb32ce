"""Tests for the resumable simulation runtime (PR 4).

Covers the contract end to end, layer by layer:

* chunk-boundary invariance — replaying a trace in chunks (``run_chunk``,
  ``run``, scalar ``access``, freely interleaved) is bit-identical to one
  one-shot ``run`` for every array policy on both indexing schemes;
* warm-partition reallocation — ``ArrayPartitionedCache.reallocate``
  resizes occupied partitions with the object schemes' eviction
  semantics: conservation (no lines invented), isolation (no line ever
  crosses partitions) and bit-identical miss streams for every policy;
* the atomic multi-logical ``TalusCache.configure_many``;
* the reconfiguration loop on ``backend="auto"``
  (:class:`ReconfiguringSharedRun`: the one-trace run at parity with the
  object model, and multi-application mixes);
* the Random policy (deterministic per seed on either backend);
* multi-config sweeps of the recency family (every config one replay
  task of the sweep's native dispatch) against the object model;
* the incremental stack-distance monitor and the byte-sliced H3 hash;
* the vectorized ``shared_cache_equilibrium``.

Tests that build array caches directly need the native kernel.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.arraycache import ARRAY_POLICIES, ArraySetAssociativeCache
from repro.cache.cache import SetAssociativeCache
from repro.cache.factory import (POLICY_NAMES, named_policy_factory,
                                 resolve_backend)
from repro.cache.hashing import H3Hash
from repro.cache.spec import CacheSpec, PartitionSpec, TalusSpec, build
from repro.core.talus import TalusConfig
from repro.monitor.stack_distance import (IncrementalStackMonitor,
                                          StackDistanceMonitor,
                                          stack_distance_histogram)
from repro.sim.multicore import ReconfiguringSharedRun
from repro.workloads.scale import lines_to_paper_mb, paper_mb_to_lines
from repro.workloads.spec_profiles import get_profile

from .conftest import needs_kernel


ONLINE = tuple(p for p in POLICY_NAMES if p != "Belady")


def _mixed_trace(n: int, spread: int = 3000, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, spread // 4, n // 2)
    cold = rng.integers(0, spread, n - n // 2)
    out = np.empty(n, dtype=np.int64)
    out[0::2] = hot[: (n + 1) // 2]
    out[1::2] = cold[: n // 2]
    return out


# --------------------------------------------------------------------- #
# Chunk-boundary invariance
# --------------------------------------------------------------------- #
@needs_kernel
class TestChunkInvariance:
    @pytest.mark.parametrize("policy", ARRAY_POLICIES)
    @pytest.mark.parametrize("hashed", [False, True])
    def test_chunked_replay_is_bit_identical(self, policy, hashed):
        trace = _mixed_trace(12000, seed=hash((policy, hashed)) % 1000)
        if policy == "Belady":
            # Offline and fully associative: no index hashing, but the
            # same run/run_chunk/access resumability contract.
            from repro.cache.arraycache import ArrayBeladyCache
            one = ArrayBeladyCache(128, trace)
            one.run(trace)
            chunked = ArrayBeladyCache(128, trace)
        else:
            kwargs = dict(policy=policy, hashed_index=hashed, index_seed=3)
            one = ArraySetAssociativeCache(32, 4, **kwargs)
            one.run(trace)
            chunked = ArraySetAssociativeCache(32, 4, **kwargs)
        # Uneven chunks, including empty ones and scalar interleaving.
        bounds = [0, 17, 17, 993, 5000, 5001, 11000, 12000]
        for start, end in zip(bounds, bounds[1:]):
            if end - start == 1:
                chunked.access(int(trace[start]))
            else:
                chunked.run_chunk(trace[start:end])
        assert one.stats.misses == chunked.stats.misses
        assert one.stats.accesses == chunked.stats.accesses
        if policy == "Belady":
            assert one.occupancy() == chunked.occupancy()
            return
        assert np.array_equal(one.tags, chunked.tags)
        assert np.array_equal(one.stamp, chunked.stamp)
        if policy in ("SRRIP", "BRRIP", "DRRIP", "TA-DRRIP"):
            assert np.array_equal(one.rrpv, chunked.rrpv)

    def test_run_chunk_returns_per_chunk_stats(self):
        trace = _mixed_trace(4000)
        cache = ArraySetAssociativeCache(16, 4)
        first = cache.run_chunk(trace[:2500])
        second = cache.run_chunk(trace[2500:])
        assert first.accesses == 2500 and second.accesses == 1500
        assert first.misses + second.misses == cache.stats.misses

    @pytest.mark.parametrize("scheme,policy", [("way", "LRU"),
                                               ("way", "SRRIP"),
                                               ("set", "PDP"),
                                               ("ideal", "LRU")])
    def test_partitioned_chunked_replay(self, scheme, policy):
        rng = np.random.default_rng(11)
        addrs = _mixed_trace(9000, seed=5)
        parts = rng.integers(0, 3, 9000).astype(np.int64)
        spec = PartitionSpec(scheme=scheme, capacity_lines=768,
                             num_partitions=3, policy=policy,
                             backend="array")
        one = build(spec)
        one.run_partitioned(addrs, parts)
        chunked = build(spec)
        for lo, hi in [(0, 1), (1, 4000), (4000, 4000), (4000, 9000)]:
            chunked.run_chunk(addrs[lo:hi], parts[lo:hi])
        assert ([s.misses for s in one.partition_stats]
                == [s.misses for s in chunked.partition_stats])


# --------------------------------------------------------------------- #
# Warm reallocation
# --------------------------------------------------------------------- #
@needs_kernel
class TestWarmReallocation:
    SCHEMES = [("way", "LRU"), ("way", "LIP"), ("way", "SRRIP"),
               ("way", "PDP"), ("set", "LRU"), ("set", "SRRIP"),
               ("ideal", "LRU")]
    SEEDED = [("way", "DRRIP"), ("way", "Random"), ("set", "DIP"),
              ("set", "TA-DRRIP"), ("ideal", "BIP"), ("ideal", "BRRIP")]

    @pytest.mark.parametrize("scheme,policy", SCHEMES + SEEDED)
    def test_object_parity_through_reallocations(self, scheme, policy):
        """Replay / reallocate / replay: the array backend's warm resizing
        must match the object schemes' miss streams bit for bit, including
        shrink-evictions and re-growth."""
        rng = np.random.default_rng(21)
        addrs = _mixed_trace(24000, spread=5000, seed=9)
        parts = rng.integers(0, 2, 24000).astype(np.int64)
        spec = PartitionSpec(scheme=scheme, capacity_lines=1024,
                             num_partitions=2, policy=policy)
        obj = build(replace(spec, backend="object"))
        arr = build(replace(spec, backend="array"))
        plans = [[512, 512], [192, 832], [832, 192], [512, 512]]
        for chunk_ids, plan in zip(np.array_split(np.arange(24000), 4),
                                   plans):
            go = obj.set_allocations(plan)
            ga = arr.reallocate(plan)
            assert go == ga
            a, p = addrs[chunk_ids], parts[chunk_ids]
            for x, pp in zip(a.tolist(), p.tolist()):
                obj.access(x, pp)
            arr.run_chunk(a, p)
            assert ([s.misses for s in obj.partition_stats]
                    == [s.misses for s in arr.partition_stats])
        for p in range(2):
            assert obj.partition_occupancy(p) == arr.partition_occupancy(p)

    @pytest.mark.parametrize("scheme,policy", SCHEMES + [("way", "Random"),
                                                         ("way", "DRRIP")])
    def test_conservation_and_isolation(self, scheme, policy):
        """Shrinking evicts (never moves) lines: occupancy stays within
        the grant, and every resident line belongs to the partition that
        inserted it (disjoint per-partition address spaces prove no
        cross-partition leaks)."""
        rng = np.random.default_rng(31)
        n = 12000
        # Disjoint address ranges per partition.
        addrs = np.where(rng.random(n) < 0.5,
                         rng.integers(0, 2000, n),
                         rng.integers(1 << 20, (1 << 20) + 2000, n)
                         ).astype(np.int64)
        parts = (addrs >= (1 << 20)).astype(np.int64)
        spec = PartitionSpec(scheme=scheme, capacity_lines=1024,
                             num_partitions=2, policy=policy,
                             backend="array")
        cache = build(spec)
        for plan in ([512, 512], [128, 896], [960, 64]):
            granted = cache.reallocate(plan)
            cache.run_chunk(addrs, parts)
            for p in range(2):
                occ = cache.partition_occupancy(p)
                assert occ <= granted[p]
            # Isolation: resident tags of partition p come only from its
            # own address range.
            for p, region in enumerate(cache._regions):
                if region is None:
                    continue
                tags = (region.resident[:region.occupancy()]
                        if scheme == "ideal" else
                        region.tags[region.tags != -1])
                if np.size(tags) == 0:
                    continue
                if p == 0:
                    assert np.all(np.asarray(tags) < (1 << 20))
                else:
                    assert np.all(np.asarray(tags) >= (1 << 20))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_ideal_lru_matches_object_model(self, data):
        """The native ideal-LRU region against the object ideal scheme:
        random traces (address -1 included) over 1-3 partitions, random
        feasible plans that empty partitions and regrow them, and scalar
        accesses mixed with batched chunks, empty ones included.  The
        cache holds 1 line (one access into an empty one-line region
        ranks a single position), 24, or 63-65 (regions whose lines
        straddle one 64-bit word of the rank bitmap).  After every chunk
        both backends agree on every partition's misses and
        occupancy."""
        num = data.draw(st.integers(1, 3), label="partitions")
        # A small cache over a small address space, so reuse at every
        # stack distance (capacity included) is common.
        capacity = data.draw(st.sampled_from([1, 24, 63, 64, 65]),
                             label="capacity")
        spec = PartitionSpec(scheme="ideal", capacity_lines=capacity,
                             num_partitions=num, policy="LRU")
        obj = build(replace(spec, backend="object"))
        arr = build(replace(spec, backend="array"))
        access = st.tuples(st.integers(-1, capacity + 16),
                           st.integers(0, num - 1))
        for _ in range(data.draw(st.integers(1, 6), label="chunks")):
            cuts = sorted(data.draw(st.lists(
                st.integers(0, capacity), min_size=num, max_size=num),
                label="cuts"))
            plan = [hi - lo for lo, hi in zip([0] + cuts, cuts)]
            assert obj.set_allocations(plan) == arr.reallocate(plan)
            size = data.draw(st.integers(0, 150), label="size")
            chunk = data.draw(st.lists(access, min_size=size, max_size=size),
                              label="chunk")
            scalar = data.draw(st.integers(0, len(chunk)), label="scalar")
            for address, part in chunk[:scalar]:
                assert obj.access(address, part) == arr.access(address, part)
            rest = chunk[scalar:]
            for address, part in rest:
                obj.access(address, part)
            arr.run_chunk(np.array([a for a, _ in rest], dtype=np.int64),
                          np.array([p for _, p in rest], dtype=np.int64))
            assert ([s.misses for s in obj.partition_stats]
                    == [s.misses for s in arr.partition_stats])
            assert ([obj.partition_occupancy(p) for p in range(num)]
                    == [arr.partition_occupancy(p) for p in range(num)])

    def test_shrink_to_zero_and_regrow(self):
        cache = build(PartitionSpec(scheme="way", capacity_lines=512,
                                    num_partitions=2, policy="PDP",
                                    backend="array"))
        addrs = _mixed_trace(6000, seed=13)
        parts = np.zeros(6000, dtype=np.int64)
        cache.run_chunk(addrs, parts)
        granted = cache.reallocate([0, 512])
        assert granted[0] == 0
        assert cache.partition_occupancy(0) == 0
        # The zero-capacity partition still counts misses (and keeps its
        # PDP sampler advancing) without crashing either replay path.
        cache.run_chunk(addrs[:500], parts[:500])
        assert cache.partition_stats[0].misses >= 500
        cache.reallocate([256, 256])
        cache.run_chunk(addrs, parts)
        assert cache.partition_occupancy(0) > 0

    def test_warm_resize_matches_object_set_capacity(self):
        """Region-level resize parity for every online policy (the
        primitive underneath partition reallocation)."""
        trace = _mixed_trace(16000, seed=17)
        for policy in ONLINE:
            obj = SetAssociativeCache(16, 8,
                                      named_policy_factory(policy, 16))
            arr = ArraySetAssociativeCache(16, 8, policy=policy)
            obj.run(trace[:6000].tolist())
            arr.run(trace[:6000])
            for region in obj._sets:
                region.set_capacity(3)
            arr.resize_ways(3)
            obj.run(trace[6000:11000].tolist())
            arr.run(trace[6000:11000])
            for region in obj._sets:
                region.set_capacity(7)
            arr.resize_ways(7)
            obj.run(trace[11000:].tolist())
            arr.run(trace[11000:])
            assert obj.stats.misses == arr.stats.misses, policy


# --------------------------------------------------------------------- #
# Talus: atomic reconfiguration + auto-backend loop parity
# --------------------------------------------------------------------- #
class TestTalusResumable:
    def _talus(self, backend: str):
        return build(TalusSpec(partition=PartitionSpec(
            scheme="way", capacity_lines=1024, num_partitions=2,
            backend=backend)))

    @staticmethod
    def _config(s1: float, s2: float) -> TalusConfig:
        total = s1 + s2
        return TalusConfig(total_size=total, alpha=2 * s1, beta=total - s1,
                           rho=0.5, s1=s1, s2=s2, degenerate=False)

    def test_configure_many_is_atomic(self):
        """A grow-before-shrink swap that sequential configure calls would
        reject (transiently over capacity) applies in one step."""
        talus = build(TalusSpec(partition=PartitionSpec(
            scheme="ideal", capacity_lines=1000, num_partitions=4),
            num_logical=2))
        talus.configure_many([self._config(100, 400),
                              self._config(100, 400)])
        talus.run_chunk(_mixed_trace(3000, seed=1), 0)
        talus.run_chunk(_mixed_trace(3000, seed=2), 1)
        with pytest.raises(ValueError):
            # Sequential: logical 0 grows before logical 1 shrinks.
            talus.configure(0, self._config(200, 700))
        effective = talus.configure_many([self._config(200, 700),
                                          self._config(20, 80)])
        assert effective[0].s1 + effective[0].s2 == 900
        assert effective[1].s1 + effective[1].s2 == 100

    def test_configure_many_none_keeps_current(self):
        talus = self._talus("auto")
        talus.configure(0, self._config(256, 768))
        before = talus.shadow_pair(0).config
        out = talus.configure_many([None])
        assert out[0] == before

    def test_reconfiguring_run_auto_matches_object(self):
        """The acceptance criterion: interval records of the full closed
        loop are identical across backends (exact tier schemes)."""
        profile = get_profile("omnetpp")
        trace = profile.trace(n_accesses=60000)
        records = {}
        for backend in ("object", "auto"):
            run = ReconfiguringSharedRun(total_mb=1.5, scheme="ideal",
                                         interval_accesses=15000,
                                         monitor_points=65,
                                         backend=backend)
            records[backend] = run.run([trace])
        assert len(records["object"]) == len(records["auto"])
        for a, b in zip(records["object"], records["auto"]):
            assert (a.accesses, a.misses) == (b.accesses, b.misses)
            assert a.allocations_mb == b.allocations_mb

    def test_reconfiguring_run_vantage_auto(self):
        """The Vantage scheme rides the native fast path under "auto"
        (bit-identical parity in tests/test_vantage_native.py)."""
        profile = get_profile("omnetpp")
        trace = profile.trace(n_accesses=20000)
        run = ReconfiguringSharedRun(total_mb=1.0, scheme="vantage",
                                     interval_accesses=5000,
                                     monitor_points=65)
        records = run.run([trace])
        assert len(records) == 4
        # Warm-up: the lone app holds the whole managed region.
        managed = PartitionSpec(scheme="vantage",
                                capacity_lines=paper_mb_to_lines(1.0),
                                num_partitions=2).partitionable_lines
        assert records[0].allocations_mb == (lines_to_paper_mb(managed),)


# --------------------------------------------------------------------- #
# Random policy
# --------------------------------------------------------------------- #
class TestRandomArrayPolicy:
    @needs_kernel
    def test_deterministic_per_seed(self):
        trace = _mixed_trace(8000, seed=3)
        runs = [ArraySetAssociativeCache(16, 4, policy="Random", seed=9)
                for _ in range(2)]
        other = ArraySetAssociativeCache(16, 4, policy="Random", seed=10)
        for cache in (*runs, other):
            cache.run(trace)
        assert runs[0].stats.misses == runs[1].stats.misses
        assert np.array_equal(runs[0].tags, runs[1].tags)
        assert runs[0].stats.misses != other.stats.misses

    def test_statistically_reasonable(self):
        """Random replacement on a working set slightly above capacity
        should land between LRU (pathological) and a tiny cache."""
        trace = np.tile(np.arange(80, dtype=np.int64), 100)
        random_cache = CacheSpec(capacity_lines=64, ways=64,
                                 policy="Random", backend="auto").build()
        lru = CacheSpec(capacity_lines=64, ways=64, policy="LRU",
                        backend="auto").build()
        random_cache.run(trace)
        lru.run(trace)
        # Cyclic scan over 80 lines through 64 ways: LRU misses always;
        # random keeps a useful fraction resident.
        assert lru.stats.hits == 0
        assert random_cache.stats.hit_rate > 0.4

    @needs_kernel
    def test_backend_routing(self):
        assert resolve_backend("auto", "Random") == "array"
        assert resolve_backend("array", "Random") == "array"
        cache = build(CacheSpec(capacity_lines=256, policy="Random",
                                backend="array", seed=4))
        assert isinstance(cache, ArraySetAssociativeCache)
        spec = cache.to_spec()
        assert spec.policy == "Random" and spec.backend == "array"


# --------------------------------------------------------------------- #
# Multi-config sweeps
# --------------------------------------------------------------------- #
@needs_kernel
class TestMultiConfigBatch:
    """LRU/LIP size sweeps on the array backend (one replay task per
    config, all in one dispatch) equal the object model config for
    config."""

    def test_sweep_uses_shared_pass(self):
        from repro.sim.sweep import SweepSpec, run_sweep
        trace = _mixed_trace(10000, spread=20000, seed=12)
        spec = SweepSpec(sizes_mb=(0.25, 0.5, 1.0, 2.0),
                         policies=("LRU", "LIP"), backend="array")
        fast = run_sweep(trace, spec)
        reference = run_sweep(trace, spec, backend="object")
        for key in fast.stats:
            assert fast[key].misses == reference[key].misses

    def test_sweep_mixed_indexing_configs(self):
        """Configs with different set-indexing schemes in one sweep each
        keep their own scheme (each config's task carries it)."""
        from repro.sim.sweep import SweepConfig, run_sweep
        trace = _mixed_trace(8000, spread=6000, seed=19)

        def configs(backend):
            return [
                SweepConfig("mod", CacheSpec.from_mb(1.0, backend=backend)),
                SweepConfig("hash", CacheSpec.from_mb(
                    1.0, backend=backend, hashed_index=True, index_seed=7)),
                SweepConfig("hash2", CacheSpec.from_mb(
                    0.5, policy="LIP", backend=backend, hashed_index=True,
                    index_seed=7)),
            ]

        fast = run_sweep(trace, configs("array"))
        reference = run_sweep(trace, configs("object"))
        for key in ("mod", "hash", "hash2"):
            assert fast[key].misses == reference[key].misses
        assert fast["mod"].misses != fast["hash"].misses


# --------------------------------------------------------------------- #
# Incremental monitors + H3 fast hash
# --------------------------------------------------------------------- #
class TestIncrementalMonitors:
    def test_chunked_equals_one_shot_with_growth(self):
        """Chunked folds equal the online oracle through every way the
        kernel moves a monitor's state: a relabel in place, table growth
        alone, tree growth alone, both at once, one-access chunks, and
        -1 and the int64 extremes as addresses.  Every interleaved read
        equals the oracle over the chunks fed so far, also on a monitor
        whose table is far larger than its footprint (a read scans only
        the live distances), on monitors of 100 positions (a partial
        last bitmap word) that relabel and grow the tree with 63, 64 and
        65 live lines, so the rank structure's word boundary falls at the
        last live marker and the next position, and on a monitor whose
        table grows in the middle of a chunk with 64 live lines."""
        info = np.iinfo(np.int64)
        footprint = np.array([-1, info.min, info.max, *range(13)],
                             dtype=np.int64)
        rng = np.random.default_rng(14)
        # A hint of 64 starts with a 64-position tree and a 128-slot table.
        chunks = [footprint[rng.integers(0, 16, 1)] for _ in range(100)]
        chunks.append(footprint[rng.integers(0, 16, 20)])
        footprint_chunks = chunks + [footprint]
        chunks.append(np.arange(100, 150, dtype=np.int64))
        chunks += np.array_split(np.concatenate([
            _mixed_trace(20000, spread=1500, seed=14),
            _mixed_trace(20000, spread=40000, seed=15)]), 13)
        chunks.append(footprint)

        def fold_checked(inc, chunks):
            """Fold ``chunks`` one by one, comparing every read with the
            oracle; returns each fold's (table moved, tree moved,
            relabelled in place)."""
            oracle = StackDistanceMonitor()
            moves = set()
            for chunk in chunks:
                if inc._online is None:
                    before = (inc._tab_vals, inc._tree, int(inc._state[0]))
                inc.record_trace(chunk)
                oracle.record_trace(chunk)
                assert inc.cold_misses == oracle.cold_misses
                assert np.array_equal(inc.histogram(), oracle.histogram())
                if inc._online is None:
                    moved = (inc._tab_vals is not before[0],
                             inc._tree is not before[1])
                    relabelled = int(inc._state[0]) < before[2] + chunk.size
                    moves.add(moved + (relabelled and not any(moved),))
            return moves

        inc = IncrementalStackMonitor(capacity_hint=64)
        moves = fold_checked(inc, chunks)
        if inc._online is None:
            assert {(False, False, True), (True, False, False),
                    (False, True, False), (True, True, False)} <= moves
        wide = IncrementalStackMonitor(capacity_hint=4096)
        fold_checked(wide, footprint_chunks)
        if wide._online is None:
            assert wide._hist.size > 200 * len(footprint)

        for live in (63, 64, 65):
            # `live` new lines, then reuses only: every move happens with
            # `live` markers, and pos restarts at `live` after each one.
            # The 100 positions fill up, a 1-access chunk relabels in
            # place, 100 - live reuses grow the tree (to live + 4 * (100 -
            # live) positions, a partial last word again), and 129 - live
            # and then 272 reuses fill it and grow it again (to live +
            # 4 * 272).  The table is sized by lines, so reuses never grow
            # it: it keeps its 256 slots.
            reuse = [rng.integers(0, live, k).astype(np.int64)
                     for k in (100 - live, 1, 100 - live, 129 - live, 272)]
            word = IncrementalStackMonitor(capacity_hint=100)
            moves = fold_checked(word, [
                np.arange(live, dtype=np.int64), *reuse, reuse[1]])
            if word._online is None:
                assert moves == {(False, False, False), (False, False, True),
                                 (False, True, False)}
                assert word._cap == live + 4 * 272
                assert int(word._state[1]) == live
                assert word._tab_tags.size == 256

        # The table grows only when a new line would fill it past half
        # load.  A 64-position monitor's 128 slots hold 64 lines at half
        # load: the 65th line, in the middle of a chunk that also grows
        # the tree, stops the kernel with 64 live markers (the whole first
        # bitmap word); the table doubles and the fold resumes over the
        # rest of the chunk.
        edge = IncrementalStackMonitor(capacity_hint=64)
        tail = np.concatenate([rng.integers(0, 64, 30), [64, 65],
                               rng.integers(0, 66, 30)]).astype(np.int64)
        moves = fold_checked(edge, [np.arange(64, dtype=np.int64), tail])
        if edge._online is None:
            assert moves == {(False, False, False), (True, True, False)}
            assert edge._tab_tags.size == 256 and int(edge._state[1]) == 66

    def test_fold_state_bounded_by_table(self):
        """A monitor's rank structure and histogram together take at most
        the bytes of its table's tags after every chunk: both are sized
        by the lines the table bounds, not by the positions a long stream
        runs through.  Churn-shaped (1k accesses over 300 lines) and
        mixsweep-shaped (15k over 2k lines) streams of 40 chunks, into a
        monitor sized like a UMON's; the chunked histogram equals one
        fold over the whole stream."""
        for chunk, lines, seed in ((1000, 300, 21), (15000, 2000, 22)):
            inc = IncrementalStackMonitor(capacity_hint=1024)
            if inc._online is not None:
                pytest.skip("without a kernel the monitor is the online "
                            "oracle, which keeps no fold state")
            stream = _mixed_trace(40 * chunk, spread=lines, seed=seed)
            for part in np.split(stream, 40):
                inc.record_trace(part)
                assert (inc._tree.nbytes + inc._hist.nbytes
                        <= inc._tab_tags.nbytes)
            one_shot, cold = stack_distance_histogram(stream)
            assert np.array_equal(inc.histogram(), one_shot)
            assert inc.cold_misses == cold

    def test_copies_fold_into_their_own_state(self):
        """A deep copy and an unpickled copy of a monitor (which keeps its
        arrays' addresses between folds) fold into their own arrays:
        after each takes its own chunks, through a table and a tree
        growth, every one equals the oracle over its own stream."""
        head = _mixed_trace(300, spread=50, seed=23)
        original = IncrementalStackMonitor(capacity_hint=64)
        original.record_trace(head)
        copies = [copy.deepcopy(original),
                  pickle.loads(pickle.dumps(original))]
        for seed, monitor in enumerate([original, *copies]):
            tail = _mixed_trace(3000, spread=400 * (seed + 1), seed=seed)
            monitor.record_trace(tail)
            oracle = StackDistanceMonitor()
            oracle.record_trace(np.concatenate([head, tail]))
            assert np.array_equal(monitor.histogram(), oracle.histogram())
            assert monitor.cold_misses == oracle.cold_misses

    def test_scalar_record_matches_trace(self):
        trace = _mixed_trace(2000, spread=300, seed=16)
        a = IncrementalStackMonitor(capacity_hint=64)
        b = IncrementalStackMonitor(capacity_hint=4096)
        a.record_trace(trace)
        for x in trace.tolist():
            b.record(x)
        assert np.array_equal(a.histogram(), b.histogram())
        assert a.cold_misses == b.cold_misses

    def test_h3_byte_lut_matches_scalar(self):
        rng = np.random.default_rng(18)
        values = rng.integers(-(1 << 62), 1 << 62, 4000).astype(np.int64)
        for seed in (1, 7, 12):
            h = H3Hash(out_bits=8, seed=seed)
            vectorized = h.hash_array(values)
            scalar = np.array([h(int(v)) for v in values], dtype=np.uint64)
            assert np.array_equal(vectorized, scalar)


# --------------------------------------------------------------------- #
# Execution-driven shared reconfiguration + vectorized equilibrium
# --------------------------------------------------------------------- #
class TestReconfiguringSharedRun:
    def test_allocations_track_demand(self):
        """Talus should starve the app whose curve is flat at this scale
        (libquantum below its cliff) and feed the app with a reachable
        cliff (omnetpp) — the Fig. 12 story, executed."""
        profiles = [get_profile("omnetpp"), get_profile("libquantum")]
        traces = [p.trace(n_accesses=30000) for p in profiles]
        run = ReconfiguringSharedRun(total_mb=2.5, interval_accesses=10000)
        records = run.run(traces)
        assert len(records) == 3
        final = records[-1].allocations_mb
        assert final[0] > final[1]
        # Conservation per interval and app.
        for record in records:
            assert all(m <= a for m, a in
                       zip(record.misses, record.accesses))
        result = run.mix_result(profiles)
        assert len(result.apps) == 2
        assert all(app.ipc > 0 for app in result.apps)

    def test_backend_parity(self):
        profiles = [get_profile("omnetpp"), get_profile("mcf")]
        traces = [p.trace(n_accesses=24000) for p in profiles]
        outcomes = {}
        for backend in ("object", "auto"):
            run = ReconfiguringSharedRun(total_mb=2.0,
                                         interval_accesses=8000,
                                         backend=backend)
            outcomes[backend] = run.run(traces)
        for a, b in zip(outcomes["object"], outcomes["auto"]):
            assert a.misses == b.misses
            assert a.allocations_mb == b.allocations_mb

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ReconfiguringSharedRun(total_mb=2.0).run([])


class TestVectorizedEquilibrium:
    def test_matches_scalar_reference(self):
        """The numpy-vectorized fixed point reproduces the per-app-loop
        reference implementation."""
        from repro.core.misscurve import MissCurve
        from repro.sim.multicore import shared_cache_equilibrium
        from repro.sim.perf_model import ipc_from_mpki
        from repro.workloads.mixes import homogeneous_mix

        mix = homogeneous_mix("mcf", copies=4)
        profiles = list(mix.apps)
        sizes_grid = np.linspace(0.0, 4.0, 33)
        curves = [p.lru_curve(sizes_mb=sizes_grid) for p in profiles]

        def reference(curves, profiles, total_mb, iterations=200,
                      damping=0.5, perturbation=0.05, seed=1):
            rng = np.random.default_rng(seed)
            n = len(curves)
            sizes = np.full(n, total_mb / n)
            noise = 1.0 + perturbation * (rng.random(n) - 0.5)
            sizes = sizes * noise
            sizes *= total_mb / sizes.sum()
            for _ in range(iterations):
                weights = np.empty(n)
                for i, (curve, profile) in enumerate(zip(curves, profiles)):
                    mpki = float(curve(sizes[i]))
                    ipc = ipc_from_mpki(profile, mpki)
                    weights[i] = (mpki / 1000.0) * ipc + 1e-9
                target = total_mb * weights / weights.sum()
                sizes = damping * sizes + (1.0 - damping) * target
            return sizes

        fast = shared_cache_equilibrium(curves, profiles, 4.0)
        slow = reference(curves, profiles, 4.0)
        assert np.allclose(fast, slow, rtol=1e-9, atol=1e-12)

    def test_heterogeneous_mix_unchanged(self):
        from repro.sim.multicore import SharedCacheExperiment
        from repro.workloads.mixes import WorkloadMix
        from repro.workloads.spec_profiles import get_profile

        mix = WorkloadMix(name="hetero4",
                          apps=tuple(get_profile(n) for n in
                                     ("omnetpp", "mcf", "libquantum",
                                      "sphinx3")))
        experiment = SharedCacheExperiment(mix, total_mb=4.0,
                                           curve_points=17)
        result = experiment.evaluate("lru-shared")
        total = sum(app.allocation_mb for app in result.apps)
        assert total == pytest.approx(4.0, rel=1e-6)
