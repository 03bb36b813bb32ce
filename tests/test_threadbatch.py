"""Thread-determinism tests for the batched native dispatcher.

The contract under test (docs/ARCHITECTURE.md, "Threading model"): a
:class:`~repro.cache.threadbatch.ReplayTask` batch produces **bit-identical
results at any thread count** — the tasks share no mutable state, so the
worker width only changes wall-clock time, never a single counter.  The
serial entry points (``run``, ``run_partitioned``) run the same tasks one
at a time at width 1; every task kind is checked in batches at widths 1,
2 and 8 against them.  Tests that build array caches directly need the
native kernel.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.cache import _native
from repro.cache._native import available_cpus, resolve_threads
from repro.cache.arraycache import ArrayBeladyCache, ArraySetAssociativeCache
from repro.cache.cache import CacheStats
from repro.cache.partition.array import (ArrayPartitionedCache,
                                         ArrayVantageCache)
from repro.cache.spec import PartitionSpec, TalusSpec, build
from repro.cache.talus_cache import TalusCache
from repro.cache.threadbatch import ReplayTask, i64_ptr, run_tasks, u64_ptr
from repro.monitor.stack_distance import IncrementalStackMonitor
from repro.sim.sweep import SweepSpec, run_sweep
from repro.workloads.generators import zipfian

from .conftest import needs_kernel

#: Thread widths every determinism test sweeps (1 is the serial loop).
WIDTHS = (1, 2, 8)

#: Every task kind of a plain cache: each online policy, and Belady.
SINGLE_POLICIES = ("LRU", "LIP", "BIP", "DIP", "SRRIP", "BRRIP", "DRRIP",
                   "TA-DRRIP", "PDP", "Random", "Belady")


def _trace(n=20_000, seed=3):
    return zipfian(8_000, n, seed=seed).addresses


def _state_digest(cache):
    stats = (cache.stats.accesses, cache.stats.hits, cache.stats.misses)
    if isinstance(cache, ArrayBeladyCache):
        return stats + (cache.occupancy(), int(cache._ht_tag.sum()))
    lanes = (tuple(cache.thread_misses.tolist())
             if cache.policy == "TA-DRRIP" else ())
    return stats + (int(cache.tags.sum()), int(cache.stamp.sum()),
                    int(cache.rrpv.sum())) + lanes


def _single_batch(policy, addrs):
    """Three caches of ``policy`` (three sizes) and the keyword arguments
    of their replay: TA-DRRIP replays a 4-stream thread lane."""
    if policy == "Belady":
        return [ArrayBeladyCache(lines, addrs)
                for lines in (64, 512, 2048)], {}
    lane = {}
    kwargs = {}
    if policy == "TA-DRRIP":
        kwargs = {"num_streams": 4}
        lane = {"thread_ids": np.arange(addrs.size, dtype=np.int64) % 4}
    return [ArraySetAssociativeCache(sets, ways, policy=policy, **kwargs)
            for sets, ways in ((16, 4), (64, 8), (256, 4))], lane


def _state(cache) -> dict:
    """Every state array (as bytes) and statistics record of a cache."""
    out = {}
    for name, value in vars(cache).items():
        if isinstance(value, np.ndarray):
            out[name] = value.tobytes()
        elif isinstance(value, CacheStats) or (
                isinstance(value, list) and value
                and isinstance(value[0], CacheStats)):
            out[name] = repr(value)
    return out


class TestResolvers:
    def test_resolve_threads_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", "3")
        assert resolve_threads(5) == 5          # explicit beats env
        assert resolve_threads() == 3           # env beats cpu_count
        monkeypatch.delenv("REPRO_THREADS")
        assert resolve_threads() >= 1           # cpu_count floor
        assert resolve_threads(0) == 1          # clamped to 1
        # The default width is the CPUs this process may run on, not the
        # host's core count.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert resolve_threads() == 1
        monkeypatch.setenv("REPRO_THREADS", "lots")
        with pytest.raises(ValueError, match="REPRO_THREADS"):
            resolve_threads()

    @pytest.mark.parametrize("files,affinity,expected", [
        ({"cpu.max": "100000 100000\n"}, {0, 1}, 1),
        ({"cpu.max": "max 100000\n"}, {0, 1, 2}, 3),
        ({"cpu/cpu.cfs_quota_us": "-1\n",
          "cpu/cpu.cfs_period_us": "100000\n"}, {0, 1}, 2),
        ({"cpu.max": "150000 100000\n"}, {0, 1}, 2),
        ({"cpu.max": "150000 100000\n"}, {0}, 1),
        ({"cpu/cpu.cfs_quota_us": "50000\n",
          "cpu/cpu.cfs_period_us": "100000\n"}, {0, 1}, 1),
        ({}, {0, 1}, 2),
    ], ids=["v2-one-cpu", "v2-max", "v1-unlimited", "v2-one-and-a-half",
            "v2-affinity-smaller", "v1-half-cpu", "no-cgroup-files"])
    def test_available_cpus_reads_cgroup_quota(self, tmp_path, monkeypatch,
                                               files, affinity, expected):
        """The affinity mask capped by ceil(quota / period); ``max`` and
        -1 mean no cap.  The default thread width follows it."""
        for name, text in files.items():
            path = tmp_path / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        monkeypatch.setattr(_native, "_CGROUP_ROOT", tmp_path)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity,
                            raising=False)
        monkeypatch.delenv("REPRO_THREADS", raising=False)
        assert available_cpus() == expected
        assert resolve_threads() == expected

    def test_pointer_helpers_never_copy(self):
        with pytest.raises(ValueError, match="int64"):
            i64_ptr(np.zeros(4, dtype=np.float64))
        with pytest.raises(ValueError, match="contiguous"):
            i64_ptr(np.zeros((4, 4), dtype=np.int64)[:, 0])
        with pytest.raises(ValueError, match="uint64"):
            u64_ptr(np.zeros(4, dtype=np.int64))


class TestReplayTaskDeterminism:
    """Bit-identity of threaded batches vs the serial entry points."""

    @needs_kernel
    @pytest.mark.parametrize("policy", SINGLE_POLICIES)
    def test_single_policy_all_widths(self, policy):
        addrs = _trace()
        serial, lane = _single_batch(policy, addrs)
        for cache in serial:
            cache.run(addrs, **lane)
        for width in WIDTHS:
            batch, lane = _single_batch(policy, addrs)
            tasks = run_tasks([c.replay_task(addrs, **lane) for c in batch],
                              threads=width)
            assert all(task.native for task in tasks)
            for ref, cache in zip(serial, batch):
                assert _state_digest(cache) == _state_digest(ref), \
                    (policy, width)

    @needs_kernel
    def test_many_tasks_all_widths(self):
        """A full batch (several policies and sizes at once) stays
        bit-identical at every width — the acceptance shape of the
        dispatcher itself."""
        addrs = _trace()
        configs = [(sets, ways, policy)
                   for policy in ("LRU", "SRRIP", "PDP")
                   for sets, ways in ((16, 4), (64, 8), (256, 4))]
        serial = [ArraySetAssociativeCache(s, w, policy=p)
                  for s, w, p in configs]
        for cache in serial:
            cache.run(addrs)
        for width in WIDTHS:
            batch = [ArraySetAssociativeCache(s, w, policy=p)
                     for s, w, p in configs]
            run_tasks([c.replay_task(addrs) for c in batch], threads=width)
            for ref, cache in zip(serial, batch):
                assert _state_digest(cache) == _state_digest(ref), width

    @needs_kernel
    def test_partitioned_kernel_all_widths(self):
        """Every online policy on way, set and ideal partitioning: each
        cache is one native group task, and a batch of them matches the
        serial replay in per-partition misses and in every region's
        state."""
        addrs = _trace(12_000)
        parts = (np.arange(addrs.size, dtype=np.int64) % 4)
        schemes = ("way", "set", "ideal")

        def caches(policy):
            return [ArrayPartitionedCache(scheme, 4096, 4, policy=policy)
                    for scheme in schemes]

        for policy in (p for p in SINGLE_POLICIES if p != "Belady"):
            serial = caches(policy)
            serial_misses = [c.run_partitioned(addrs, parts)[1]
                             for c in serial]
            for width in WIDTHS:
                batch = caches(policy)
                tasks = run_tasks([c.replay_task(addrs, parts)
                                   for c in batch], threads=width)
                for scheme, task, cache, ref, ref_misses in zip(
                        schemes, tasks, batch, serial, serial_misses):
                    key = (policy, scheme, width)
                    assert task.native, key
                    assert np.array_equal(task.misses, ref_misses), key
                    for p in range(4):
                        assert (cache.partition_stats[p].misses
                                == ref.partition_stats[p].misses), key
                    assert ([_state(r) for r in cache._regions]
                            == [_state(r) for r in ref._regions]), key

    @needs_kernel
    def test_talus_on_vantage_all_widths(self):
        """LRU, an RRIP-family policy and a randomized policy, as one
        mixed batch of Talus-on-Vantage tasks."""
        addrs = _trace(12_000)
        policies = ("LRU", "DRRIP", "Random")

        def caches():
            return [TalusCache(ArrayVantageCache(4096, 4, policy=policy),
                               num_logical=2) for policy in policies]

        serial = caches()
        for cache in serial:
            cache.run(addrs, 1)
        for width in WIDTHS:
            batch = caches()
            run_tasks([c.replay_task(addrs, logical=1) for c in batch],
                      threads=width)
            for policy, cache, ref in zip(policies, batch, serial):
                assert (cache.logical_stats[1].misses
                        == ref.logical_stats[1].misses), (policy, width)
                assert (cache.base.partition_stats[2].misses
                        == ref.base.partition_stats[2].misses), \
                    (policy, width)
                assert _state(cache.base) == _state(ref.base), \
                    (policy, width)

    @needs_kernel
    @pytest.mark.parametrize("scheme", ("ideal", "way", "set", "vantage"))
    @pytest.mark.parametrize("policy",
                             ("LRU", "SRRIP", "DRRIP", "TA-DRRIP", "PDP"))
    def test_kernel_steering_matches_per_access_path(self, scheme, policy):
        """A Talus pair's replay, steered inside the kernel record, equals
        the per-access path (the scalar ``SamplingFunction`` picks the
        shadow partition, then one access replays into it) at limits 0,
        1, 255 and 256: every partition's counts, every region's state
        and the logical statistics, through ``run``, ``run_chunk`` and
        batched ``replay_task``s at widths 1, 2 and ``REPRO_THREADS``
        (a steered group record splits its trace in the scratch of the
        worker that runs it).  Both logical pairs replay, so the steered
        partitions are 0/1 and 2/3 of the base."""
        limits = (0, 1, 255, 256)
        traces = [zipfian(500, 800, seed=seed).addresses for seed in (4, 5)]

        def caches():
            out = []
            for limit in limits:
                talus = build(TalusSpec(partition=PartitionSpec(
                    scheme=scheme, capacity_lines=256, num_partitions=4,
                    policy=policy, backend="array"), num_logical=2))
                for logical in range(2):
                    talus.shadow_pair(logical).sampler.set_rate(limit / 256)
                out.append(talus)
            return out

        reference = caches()
        for talus in reference:
            for logical, trace in enumerate(traces):
                pair = talus.shadow_pair(logical)
                to_alpha = 0
                for address in trace.tolist():
                    to_alpha += pair.sampler.goes_to_alpha(address)
                    talus.access(address, logical)
                stats = talus.base.partition_stats
                assert stats[pair.alpha_index].accesses == to_alpha
                assert (stats[pair.beta_index].accesses
                        == trace.size - to_alpha)
        want = [talus.snapshot().digest() for talus in reference]

        whole, chunked = caches(), caches()
        for logical, trace in enumerate(traces):
            for talus in whole:
                talus.run(trace, logical)
            for talus in chunked:
                for part in np.array_split(trace, 7):
                    talus.run_chunk(part, logical)
        assert [t.snapshot().digest() for t in whole] == want
        assert [t.snapshot().digest() for t in chunked] == want
        for width in (1, 2, None):
            batch = caches()
            for logical, trace in enumerate(traces):
                for part in np.array_split(trace, 3):
                    tasks = run_tasks([talus.replay_task(part, logical)
                                       for talus in batch], threads=width)
                    assert all(task.native for task in tasks)
            assert [t.snapshot().digest() for t in batch] == want, width

    @needs_kernel
    def test_monitor_folds_all_widths(self):
        """A batch of stack-distance folds, one per monitor (from a
        64-position tree that grows and relabels to one that never
        does), equals serial ``record_trace``: histogram, cold misses and
        every state array."""
        chunks = np.array_split(_trace(), 7)
        hints = (64, 2_048, 1 << 15)
        serial = [IncrementalStackMonitor(capacity_hint=h) for h in hints]
        for monitor in serial:
            for chunk in chunks:
                monitor.record_trace(chunk)
        for width in WIDTHS:
            batch = [IncrementalStackMonitor(capacity_hint=h) for h in hints]
            for chunk in chunks:
                tasks = run_tasks([m.replay_task(chunk) for m in batch],
                                  threads=width)
                assert all(task.native for task in tasks)
            for ref, monitor in zip(serial, batch):
                assert np.array_equal(monitor.histogram(), ref.histogram())
                assert monitor.cold_misses == ref.cold_misses, width
                assert monitor.accesses == ref.accesses, width
                assert _state(monitor) == _state(ref), width

    @needs_kernel
    def test_empty_trace_tasks_are_native_noops(self):
        """A zero-length replay on every array organization, and a
        zero-length monitor fold, is a native task (``n = 0``) that
        changes no state and no statistic."""
        addrs = _trace(4_000)
        parts = (np.arange(addrs.size, dtype=np.int64) % 2)
        empty = np.zeros(0, dtype=np.int64)
        plain = ArraySetAssociativeCache(16, 4, policy="DRRIP")
        plain.run(addrs)
        lanes = ArraySetAssociativeCache(16, 4, policy="TA-DRRIP",
                                         num_streams=2)
        lanes.run(addrs, thread_ids=parts)
        belady = ArrayBeladyCache(128, addrs)
        belady.run(addrs[:2_000])
        way = ArrayPartitionedCache("way", 1024, 2, policy="SRRIP")
        way.run_partitioned(addrs, parts)
        ideal = ArrayPartitionedCache("ideal", 1024, 2, policy="LRU")
        ideal.run_partitioned(addrs, parts)
        vantage = ArrayVantageCache(1024, 2, policy="PDP")
        vantage.run_partitioned(addrs, parts)
        monitor = IncrementalStackMonitor(capacity_hint=64)
        monitor.record_trace(addrs)
        tasks = [plain.replay_task(empty), lanes.replay_task(empty, empty),
                 belady.replay_task(empty), way.replay_task(empty, empty),
                 ideal.replay_task(empty, empty),
                 vantage.replay_task(empty, empty),
                 monitor.replay_task(empty)]
        caches = (plain, lanes, belady, way, ideal, vantage, monitor)
        before = [_state(cache) for cache in caches]
        regions = [_state(region) for region in ideal._regions]
        for task in tasks:
            assert task.native
            assert task.fields["n"] == 0
        run_tasks(tasks, threads=2)
        for task in tasks:
            task.run()
        for cache, state in zip(caches, before):
            assert _state(cache) == state, cache
        assert [_state(region) for region in ideal._regions] == regions
        assert belady.trace_remaining == addrs.size - 2_000
        assert monitor.accesses == addrs.size

    def test_run_sweep_modes_identical(self):
        trace = zipfian(8_000, 15_000, seed=5)
        spec = SweepSpec(sizes_mb=(0.5, 1.0), policies=("LRU", "SRRIP"))
        base = run_sweep(trace, spec, threads=1)  # serial path
        for kwargs in (dict(threads=8), dict(), dict(max_workers=2)):
            result = run_sweep(trace, spec, **kwargs)
            for key in base.stats:
                assert (result.stats[key].misses
                        == base.stats[key].misses), (kwargs, key)

    def test_unknown_parallel_mode_rejected(self):
        """The drivers take no ``parallel=`` mode at all: thread widths
        and ``supervise=True`` are the only execution choices."""
        with pytest.raises(TypeError, match="parallel"):
            SweepSpec(sizes_mb=(1.0,), parallel="threads")
        with pytest.raises(TypeError, match="parallel"):
            run_sweep(zipfian(100, 1_000, seed=1), SweepSpec(sizes_mb=(1.0,)),
                      parallel="threads")


class TestFallbackPath:
    """``REPRO_NATIVE=0`` semantics: no kernel, same numbers."""

    @pytest.fixture
    def no_kernel(self, monkeypatch):
        monkeypatch.setattr(_native, "_kernel", None)
        monkeypatch.setattr(_native, "_kernel_tried", True)

    def test_tasks_degrade_to_fallback(self, no_kernel):
        """Without the kernel "auto" builds the object model, whose replay
        tasks run their serial fallback inside the same batch call."""
        addrs = _trace(6_000)
        spec = TalusSpec(partition=PartitionSpec(
            scheme="way", capacity_lines=256, num_partitions=2,
            policy="SRRIP"))
        serial = build(spec)
        serial.run(addrs)
        cache = build(spec)
        task = cache.replay_task(addrs)
        assert not task.native
        run_tasks([task], threads=8)
        assert cache.total_stats() == serial.total_stats()

    def test_sweep_threads_mode_still_correct(self, no_kernel):
        """A threaded sweep without a kernel must not change results:
        object-model points stream serially at any width."""
        trace = zipfian(4_000, 8_000, seed=9)
        spec = SweepSpec(sizes_mb=(0.5, 1.0), policies=("LRU", "SRRIP"))
        base = run_sweep(trace, spec, threads=1)
        threaded = run_sweep(trace, spec, threads=4)
        for key in base.stats:
            assert threaded.stats[key].misses == base.stats[key].misses

    def test_mix_sweep_and_sampling_widths_match_serial(self, no_kernel,
                                                        monkeypatch):
        """Without a kernel, a mix sweep at ``max_workers=2`` builds no
        thread pool (every mix replays in Python, where threads would
        only contend for the GIL) and reproduces its serial run, and a
        sampled estimate at width 4 reproduces its serial run."""
        from repro.cache.spec import CacheSpec
        from repro.sampling import SamplingSpec, run_sampled
        from repro.sim import mixsweep
        from repro.sim.mixsweep import MixSweepSpec, run_mix_sweep
        from repro.workloads.mixes import random_mixes
        mixes = random_mixes(2, apps_per_mix=2, seed=3)
        spec = MixSweepSpec(total_mb=1.0, trace_accesses=3_000,
                            interval_accesses=1_500)
        serial = run_mix_sweep(mixes, spec)

        def no_pool(*args, **kwargs):
            raise AssertionError("a mix sweep without a kernel built a "
                                 "thread pool")

        monkeypatch.setattr(mixsweep, "ThreadPoolExecutor", no_pool)
        pooled = run_mix_sweep(mixes, spec, max_workers=2)
        assert pooled.records == serial.records
        trace = zipfian(2_000, 12_000, seed=4)
        cache = CacheSpec(capacity_lines=256, ways=8, policy="DRRIP")
        sampling = SamplingSpec(window=1_000, n_windows=4, offset=2_000,
                                base_seed=5)
        one = run_sampled(trace, cache, sampling, threads=1)
        four = run_sampled(trace, cache, sampling, threads=4)
        assert one.windows == four.windows

    def test_replay_task_requires_fields_or_fallback(self):
        with pytest.raises(ValueError, match="fields or a fallback"):
            ReplayTask()
