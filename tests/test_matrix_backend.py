"""The total native backend matrix: kernel TA-DRRIP, Belady MIN and
non-LRU Vantage regions, plus the whole-matrix threaded sweep driver.

Three parity ladders anchor the matrix:

* TA-DRRIP — the kernel's ``thread_ids`` lane against the object model's,
  bit-identically, including each thread's private PSEL duel;
* Belady MIN — the array kernel's miss counts against the reference
  heap-based :class:`~repro.cache.replacement.belady.BeladyMINPolicy`
  at every capacity (tie eviction among dead lines cannot change MIN's
  count);
* non-LRU Vantage — array regions against the object
  :class:`~repro.cache.partition.vantage.VantagePartitionedCache`,
  per access, across chunk boundaries, and through warm reallocation.

On top of those, :func:`~repro.sim.sweep.run_matrix_sweep` (one
:func:`~repro.sim.sweep.run_sweep` over the matrix's sweep points) must
produce identical numbers at any thread width and agree with the serial
object stream.  Tests that build array caches directly need the native
kernel.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.cache import _native
from repro.cache.arraycache import (ARRAY_POLICIES, ArrayBeladyCache,
                                    ArraySetAssociativeCache,
                                    belady_next_use)
from repro.cache.partition.array import ArrayVantageCache
from repro.cache.replacement.belady import (BeladyMINPolicy,
                                            belady_miss_curve_points)
from repro.cache.spec import CacheSpec, PartitionSpec, build
from repro.sim.sweep import MATRIX_SCHEMES, matrix_cells, run_matrix_sweep

from .conftest import needs_kernel


def _mixed_trace(n: int, spread: int = 3000, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, spread // 4, n // 2)
    cold = rng.integers(0, spread, n - n // 2)
    out = np.empty(n, dtype=np.int64)
    out[0::2] = hot[: (n + 1) // 2]
    out[1::2] = cold[: n // 2]
    return out


def _thread_stream(n: int, threads: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    addrs = _mixed_trace(n, seed=seed + 1)
    tids = rng.integers(0, threads, n).astype(np.int64)
    return addrs, tids


def _tadrrip_digest(cache) -> tuple:
    return (cache.stats.misses, cache.thread_misses.tolist(),
            cache._psel.tolist(), cache.tags.tolist(),
            cache.rrpv.tolist())


# --------------------------------------------------------------------- #
# TA-DRRIP
# --------------------------------------------------------------------- #
@needs_kernel
class TestTADRRIPKernel:
    def test_kernel_matches_python_twin(self):
        """The kernel's lane and the object model's agree bit for bit —
        misses, per-thread miss counters and per-thread PSELs, through
        scalar and batched replay."""
        addrs, tids = _thread_stream(9000, 4, seed=2)
        caches = [build(CacheSpec(capacity_lines=128, ways=4,
                                  policy="TA-DRRIP", backend=backend,
                                  seed=7,
                                  policy_kwargs=(("num_streams", 4),)))
                  for backend in ("array", "object")]
        for cache in caches:
            for a, t in zip(addrs[:300].tolist(), tids[:300].tolist()):
                cache.access(a, t)
            cache.run(addrs[300:], thread_ids=tids[300:])
        native, obj = caches
        assert native.stats.misses == obj.stats.misses
        assert native.thread_misses.tolist() == obj.thread_misses.tolist()
        controllers = obj._sets[0]._controllers
        assert native._psel.tolist() == [c.psel for c in controllers]

    def test_per_thread_psel_trajectories(self):
        """Each thread duels privately: a thrashing thread and a
        reuse-friendly thread must end with different PSELs, and the
        per-thread miss counters must partition the total."""
        n = 8000
        addrs = np.empty(n, dtype=np.int64)
        addrs[0::2] = np.arange(n // 2) % 24          # fits: reuse wins
        addrs[1::2] = 10_000 + np.arange(n - n // 2)  # scan: thrashes
        tids = np.empty(n, dtype=np.int64)
        tids[0::2] = 0
        tids[1::2] = 1
        cache = ArraySetAssociativeCache(8, 4, policy="TA-DRRIP",
                                         num_streams=2, seed=3)
        cache.run_chunk(addrs, thread_ids=tids)
        assert int(cache.thread_misses.sum()) == cache.stats.misses
        assert cache.thread_misses[1] > cache.thread_misses[0]
        psel = cache._psel.tolist()
        assert psel[0] != psel[1]

    def test_chunk_resume_with_thread_ids(self):
        addrs, tids = _thread_stream(6000, 8, seed=5)
        one = ArraySetAssociativeCache(16, 4, policy="TA-DRRIP", seed=1)
        one.run_chunk(addrs, thread_ids=tids)
        chunked = ArraySetAssociativeCache(16, 4, policy="TA-DRRIP", seed=1)
        for lo, hi in zip((0, 13, 1777, 4096), (13, 1777, 4096, 6000)):
            chunked.run_chunk(addrs[lo:hi], thread_ids=tids[lo:hi])
        assert _tadrrip_digest(one) == _tadrrip_digest(chunked)

    def test_single_stream_defaults_to_thread_zero(self):
        """Without ``thread_ids`` every access charges thread 0, so the
        plain replay path is the one-thread special case."""
        addrs = _mixed_trace(5000, seed=8)
        plain = ArraySetAssociativeCache(16, 4, policy="TA-DRRIP", seed=2)
        plain.run(addrs)
        tagged = ArraySetAssociativeCache(16, 4, policy="TA-DRRIP", seed=2)
        tagged.run_chunk(addrs, thread_ids=np.zeros(addrs.size,
                                                    dtype=np.int64))
        assert _tadrrip_digest(plain) == _tadrrip_digest(tagged)

    def test_spec_roundtrip(self):
        spec = CacheSpec(capacity_lines=256, ways=8, policy="TA-DRRIP",
                         seed=11)
        cache = build(spec)
        assert isinstance(cache, ArraySetAssociativeCache)
        assert cache.to_spec().policy == "TA-DRRIP"
        assert build(cache.to_spec()).to_spec() == cache.to_spec()


# --------------------------------------------------------------------- #
# Belady MIN
# --------------------------------------------------------------------- #
class TestBeladyKernel:
    @needs_kernel
    def test_miss_counts_exact_vs_object_min(self):
        addrs = _mixed_trace(6000, spread=900, seed=4)
        for capacity in (0, 1, 16, 64, 200, 512):
            policy = BeladyMINPolicy(capacity, addrs.tolist())
            expected = sum(not policy.access(int(a)) for a in addrs)
            cache = ArrayBeladyCache(capacity, addrs)
            cache.run(addrs)
            assert cache.stats.misses == expected, capacity

    @needs_kernel
    def test_next_use_precompute_is_shareable(self):
        addrs = _mixed_trace(4000, seed=6)
        shared = belady_next_use(addrs)
        for capacity in (8, 64, 256):
            fresh = ArrayBeladyCache(capacity, addrs)
            fresh.run(addrs)
            reused = ArrayBeladyCache(capacity, addrs, next_use=shared)
            reused.run(addrs)
            assert fresh.stats.misses == reused.stats.misses

    def test_miss_curve_points_match_object_reference(self):
        addrs = _mixed_trace(5000, spread=700, seed=9)
        capacities = (0, 1, 32, 128, 400)
        points = belady_miss_curve_points(addrs, capacities)
        assert [c for c, _ in points] == list(capacities)
        for capacity, misses in points:
            policy = BeladyMINPolicy(capacity, addrs.tolist())
            expected = sum(not policy.access(int(a)) for a in addrs)
            assert misses == expected, capacity

    @needs_kernel
    def test_kernel_matches_python_twin(self):
        """The kernel and the object organization (one fully associative
        set over BeladyMINPolicy) agree on misses and occupancy, through
        scalar and batched replay."""
        addrs = _mixed_trace(7000, seed=12)
        spec = CacheSpec(capacity_lines=96, policy="Belady").with_trace(addrs)
        caches = [build(replace(spec, backend=backend))
                  for backend in ("array", "object")]
        for cache in caches:
            for a in addrs[:200].tolist():
                cache.access(a)
            cache.run(addrs[200:])
        native, obj = caches
        assert isinstance(native, ArrayBeladyCache)
        assert native.stats.misses == obj.stats.misses
        assert native.occupancy() == obj.occupancy()

    @needs_kernel
    def test_spec_roundtrip_and_no_trace_error(self):
        addrs = _mixed_trace(3000, seed=1)
        spec = CacheSpec(capacity_lines=64, policy="Belady")
        with pytest.raises(ValueError) as err:
            spec.build()
        # The error teaches the fix and lists the online alternatives.
        assert "with_trace" in str(err.value)
        assert "LRU" in str(err.value)
        attached = spec.with_trace(addrs)
        assert attached == spec        # trace is compare=False: same point
        assert hash(attached) == hash(spec)
        cache = attached.build()
        assert isinstance(cache, ArrayBeladyCache)
        cache.run(addrs)
        rebuilt = ArrayBeladyCache.from_spec(cache.to_spec(), trace=addrs)
        assert rebuilt.capacity == cache.capacity

    def test_out_of_order_replay_rejected(self):
        addrs = _mixed_trace(1000, seed=3)
        cache = CacheSpec(capacity_lines=32,
                          policy="Belady").with_trace(addrs).build()
        with pytest.raises(ValueError, match="out-of-order"):
            cache.run(addrs[500:])

    def test_no_partitioned_organization(self):
        with pytest.raises(ValueError, match="offline"):
            PartitionSpec(scheme="way", capacity_lines=256,
                          num_partitions=2, policy="Belady")


# --------------------------------------------------------------------- #
# Non-LRU Vantage regions
# --------------------------------------------------------------------- #
@needs_kernel
class TestVantageNonLRUParity:
    def _pair(self, lines, parts, policy):
        obj = PartitionSpec(scheme="vantage", capacity_lines=lines,
                            num_partitions=parts, policy=policy,
                            backend="object").build()
        arr = ArrayVantageCache(lines, parts, policy=policy)
        return obj, arr

    def _stream(self, n, parts, seed=0):
        rng = np.random.default_rng(seed)
        addrs = _mixed_trace(n, spread=400, seed=seed + 1)
        pids = rng.integers(0, parts, n).astype(np.int64)
        return addrs, pids

    @pytest.mark.parametrize("policy", ["SRRIP", "PDP", "BIP", "DIP",
                                        "DRRIP", "TA-DRRIP", "Random"])
    def test_per_access_parity(self, policy):
        obj, arr = self._pair(128, 2, policy)
        addrs, pids = self._stream(5000, 2, seed=3)
        for a, p in zip(addrs.tolist(), pids.tolist()):
            assert obj.access(a, p) == arr.access(a, p)
        for s_obj, s_arr in zip(obj.partition_stats, arr.partition_stats):
            assert s_obj.misses == s_arr.misses

    @pytest.mark.parametrize("policy", ["SRRIP", "PDP", "LIP"])
    def test_chunk_resume_parity(self, policy):
        addrs, pids = self._stream(6000, 2, seed=7)
        one = ArrayVantageCache(128, 2, policy=policy)
        one.run_partitioned(addrs, pids)
        chunked = ArrayVantageCache(128, 2, policy=policy)
        for lo, hi in zip((0, 1, 1777, 4096), (1, 1777, 4096, 6000)):
            chunked.run_chunk(addrs[lo:hi], pids[lo:hi])
        for s_one, s_chunk in zip(one.partition_stats,
                                  chunked.partition_stats):
            assert s_one.misses == s_chunk.misses
            assert s_one.accesses == s_chunk.accesses

    @pytest.mark.parametrize("policy", ["SRRIP", "PDP", "BRRIP", "DRRIP",
                                        "TA-DRRIP", "Random"])
    def test_warm_reallocate_parity(self, policy):
        obj, arr = self._pair(128, 2, policy)
        addrs, pids = self._stream(6000, 2, seed=11)
        grant = [arr.partitionable_lines // 4,
                 arr.partitionable_lines - arr.partitionable_lines // 4]
        for a, p in zip(addrs[:3000].tolist(), pids[:3000].tolist()):
            assert obj.access(a, p) == arr.access(a, p)
        obj.set_allocations(grant)
        arr.reallocate(grant)
        for a, p in zip(addrs[3000:].tolist(), pids[3000:].tolist()):
            assert obj.access(a, p) == arr.access(a, p)
        for s_obj, s_arr in zip(obj.partition_stats, arr.partition_stats):
            assert s_obj.misses == s_arr.misses

    def test_seeded_policy_is_deterministic(self):
        addrs, pids = self._stream(4000, 2, seed=13)
        runs = []
        for _ in range(2):
            cache = ArrayVantageCache(128, 2, policy="BRRIP", seed=5)
            cache.run_partitioned(addrs, pids)
            runs.append([(s.misses, s.accesses)
                         for s in cache.partition_stats])
        assert runs[0] == runs[1]


# --------------------------------------------------------------------- #
# Whole-matrix threaded sweeps
# --------------------------------------------------------------------- #
class TestMatrixSweep:
    SIZES = (0.25, 0.5)
    #: DRRIP runs Vantage's shared-PSEL duel through the kernel's RRPV
    #: bucket index in the thread-width test (CI's tsan job runs it).
    POLICIES = ("LRU", "SRRIP", "DRRIP", "TA-DRRIP", "Belady")

    def test_cells_cover_the_matrix(self):
        cells = matrix_cells(self.SIZES, self.POLICIES)
        # Belady exists on scheme "none" only; everything else is total.
        online = [p for p in self.POLICIES if p != "Belady"]
        assert len(cells) == (len(online) * len(MATRIX_SCHEMES)
                              + 1) * len(self.SIZES)
        assert ("Belady", "none", 0.25) in cells
        assert not any(p == "Belady" and s != "none" for p, s, _ in cells)
        with pytest.raises(ValueError, match="futility"):
            matrix_cells(self.SIZES, ("LRU",), schemes=("futility",))
        with pytest.raises(ValueError, match="empty"):
            matrix_cells((), self.POLICIES)

    @needs_kernel
    def test_every_cell_resolves_to_array(self):
        for policy in ARRAY_POLICIES:
            for scheme in MATRIX_SCHEMES:
                if policy == "Belady" and scheme != "none":
                    continue
                if scheme == "none":
                    spec = CacheSpec(capacity_lines=256, policy=policy)
                    assert spec.resolved_backend() == "array", policy
                else:
                    spec = PartitionSpec(scheme=scheme, capacity_lines=256,
                                         num_partitions=2, policy=policy)
                    assert spec.resolved_backend() == "array", \
                        (policy, scheme)

    @needs_kernel
    def test_every_cell_is_one_native_task(self, monkeypatch):
        """Every policy x scheme cell replays as one native task of the
        matrix's single dispatch: no cell falls back to a serial replay
        (partitioned cells are one group record each)."""
        from repro.sim import sweep
        seen = []
        run_tasks = sweep.run_tasks

        def spy(tasks, threads=None):
            tasks = list(tasks)
            seen.extend(tasks)
            return run_tasks(tasks, threads=threads)

        monkeypatch.setattr(sweep, "run_tasks", spy)
        trace = _mixed_trace(3000, seed=29)
        result = run_matrix_sweep(trace, sizes_mb=(0.25,),
                                  policies=ARRAY_POLICIES, num_partitions=2,
                                  seed=3)
        assert set(result.stats) == set(matrix_cells((0.25,),
                                                     ARRAY_POLICIES))
        assert len(seen) == len(result.stats)
        assert all(task.native for task in seen)

    def test_thread_width_invariance(self):
        trace = _mixed_trace(6000, seed=21)
        results = [run_matrix_sweep(trace, sizes_mb=self.SIZES,
                                    policies=self.POLICIES,
                                    num_partitions=2, seed=4,
                                    threads=width)
                   for width in (1, 2, 8)]
        keys = set(results[0].stats)
        assert keys == set(matrix_cells(self.SIZES, self.POLICIES))
        for result in results[1:]:
            assert set(result.stats) == keys
            for key in keys:
                assert (result.stats[key].misses
                        == results[0].stats[key].misses), key
                assert (result.stats[key].accesses
                        == results[0].stats[key].accesses), key

    def test_object_stream_agrees_on_exact_tier(self):
        trace = _mixed_trace(5000, seed=23)
        kwargs = dict(sizes_mb=(0.25,), policies=("LRU", "SRRIP"),
                      schemes=("none", "way", "vantage"), num_partitions=2)
        arr = run_matrix_sweep(trace, **kwargs)
        obj = run_matrix_sweep(trace, backend="object", **kwargs)
        for key in arr.stats:
            assert arr.stats[key].misses == obj.stats[key].misses, key

    def test_executed_tadrrip_shared_run(self):
        """The execution-driven TA-DRRIP baseline: all apps share one
        thread-aware cache, per-app misses come from its per-thread
        counters, and the run is deterministic."""
        from repro.sim.multicore import TADRRIPSharedRun
        from repro.workloads.spec_profiles import get_profile
        traces = [get_profile(name).trace(n_accesses=6000, seed=1)
                  for name in ("omnetpp", "mcf")]
        runs = []
        for _ in range(2):
            run = TADRRIPSharedRun(total_mb=1.0, interval_accesses=2000,
                                   seed=4)
            records = run.run(traces)
            runs.append([(r.accesses, r.misses) for r in records])
        assert runs[0] == runs[1]
        records = runs[0]
        assert len(records) == 3                 # 6000 / 2000 intervals
        for accesses, misses in records:
            assert len(accesses) == len(misses) == 2
            assert all(m <= a for a, m in zip(accesses, misses))
        run = TADRRIPSharedRun(total_mb=1.0, interval_accesses=2000, seed=4)
        run.run(traces)
        result = run.mix_result([get_profile("omnetpp"),
                                 get_profile("mcf")])
        assert result.scheme == "ta-drrip-execution"
        assert len(result.apps) == 2

    @needs_kernel
    def test_fallback_matches_kernel_numbers(self, monkeypatch):
        trace = _mixed_trace(4000, seed=27)
        kwargs = dict(sizes_mb=(0.25,),
                      policies=("LRU", "TA-DRRIP", "Belady"),
                      schemes=("none", "vantage"), seed=2)
        with_kernel = run_matrix_sweep(trace, **kwargs)
        monkeypatch.setattr(_native, "_kernel", None)
        monkeypatch.setattr(_native, "_kernel_tried", True)
        fallback = run_matrix_sweep(trace, **kwargs)
        reference = {("LRU", "none", 0.25), ("LRU", "vantage", 0.25),
                     ("TA-DRRIP", "none", 0.25),
                     ("TA-DRRIP", "vantage", 0.25),
                     ("Belady", "none", 0.25)}
        assert set(with_kernel.stats) == reference
        for key in reference:
            assert (with_kernel.stats[key].misses
                    == fallback.stats[key].misses), key
            assert with_kernel.stats[key].accesses == trace.size
