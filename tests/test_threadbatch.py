"""Thread-determinism tests for the batched native dispatcher.

The contract under test (docs/ARCHITECTURE.md, "Threading model"): a
:class:`~repro.cache.threadbatch.ReplayTask` batch produces **bit-identical
results at any thread count** — the tasks share no mutable state, so the
worker width only changes wall-clock time, never a single counter.
Tests that build array caches directly need the native kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import _native
from repro.cache._native import resolve_threads
from repro.cache.arraycache import ArraySetAssociativeCache
from repro.cache.partition.array import (ArrayPartitionedCache,
                                         ArrayVantageCache)
from repro.cache.spec import PartitionSpec, TalusSpec, build
from repro.cache.talus_cache import TalusCache
from repro.cache.threadbatch import (ReplayTask, i64_ptr, resolve_parallel,
                                     run_tasks, u64_ptr)
from repro.sim.sweep import SweepSpec, run_sweep
from repro.workloads.generators import zipfian

from .conftest import needs_kernel

#: Thread widths every determinism test sweeps (1 is the serial loop).
WIDTHS = (1, 2, 8)


def _trace(n=20_000, seed=3):
    return zipfian(8_000, n, seed=seed).addresses


def _state_digest(cache):
    return (cache.stats.accesses, cache.stats.hits, cache.stats.misses,
            int(cache.tags.sum()), int(cache.stamp.sum()))


class TestResolvers:
    def test_resolve_threads_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", "3")
        assert resolve_threads(5) == 5          # explicit beats env
        assert resolve_threads() == 3           # env beats cpu_count
        monkeypatch.delenv("REPRO_THREADS")
        assert resolve_threads() >= 1           # cpu_count floor
        assert resolve_threads(0) == 1          # clamped to 1
        monkeypatch.setenv("REPRO_THREADS", "lots")
        with pytest.raises(ValueError, match="REPRO_THREADS"):
            resolve_threads()

    def test_resolve_parallel(self):
        assert resolve_parallel("threads") == "threads"
        assert resolve_parallel("processes") == "processes"
        assert resolve_parallel("auto") in ("threads", "processes")
        with pytest.raises(ValueError, match="parallel"):
            resolve_parallel("fibers")

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
    @pytest.mark.parametrize("policy", ["LRU", "SRRIP", "PDP"])
    def test_single_policy_all_widths(self, policy):
        addrs = _trace()
        serial = ArraySetAssociativeCache(64, 8, policy=policy)
        serial.run(addrs)
        for width in WIDTHS:
            cache = ArraySetAssociativeCache(64, 8, policy=policy)
            run_tasks([cache.replay_task(addrs)], threads=width)
            assert _state_digest(cache) == _state_digest(serial), \
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
        addrs = _trace(12_000)
        parts = (np.arange(addrs.size, dtype=np.int64) % 4)
        serial = ArrayPartitionedCache("way", 4096, 4, policy="SRRIP")
        _, serial_misses = serial.run_partitioned(addrs, parts)
        for width in WIDTHS:
            cache = ArrayPartitionedCache("way", 4096, 4, policy="SRRIP")
            task = cache.replay_task(addrs, parts)
            run_tasks([task], threads=width)
            assert np.array_equal(task.misses, serial_misses), width
            for p in range(4):
                assert (cache.partition_stats[p].misses
                        == serial.partition_stats[p].misses), (p, width)

    @needs_kernel
    def test_talus_on_vantage_all_widths(self):
        addrs = _trace(12_000)
        serial = TalusCache(ArrayVantageCache(4096, 4), num_logical=2)
        serial.run(addrs, 1)
        for width in WIDTHS:
            cache = TalusCache(ArrayVantageCache(4096, 4), num_logical=2)
            run_tasks([cache.replay_task(addrs, logical=1)], threads=width)
            assert (cache.logical_stats[1].misses
                    == serial.logical_stats[1].misses), width
            assert (cache.base.partition_stats[2].misses
                    == serial.base.partition_stats[2].misses), width

    def test_run_sweep_modes_identical(self):
        trace = zipfian(8_000, 15_000, seed=5)
        spec = SweepSpec(sizes_mb=(0.5, 1.0), policies=("LRU", "SRRIP"))
        base = run_sweep(trace, spec, parallel="processes")  # serial path
        for kwargs in (dict(parallel="threads", threads=1),
                       dict(parallel="threads", threads=8),
                       dict(parallel="auto"),
                       dict(parallel="processes", max_workers=2)):
            result = run_sweep(trace, spec, **kwargs)
            for key in base.stats:
                assert (result.stats[key].misses
                        == base.stats[key].misses), (kwargs, key)

    def test_unknown_parallel_mode_rejected(self):
        with pytest.raises(ValueError, match="parallel"):
            SweepSpec(sizes_mb=(1.0,), parallel="fibers")


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

    def test_auto_mode_prefers_processes(self, no_kernel):
        assert resolve_parallel("auto") == "processes"

    def test_sweep_threads_mode_still_correct(self, no_kernel):
        """Forcing parallel="threads" without a kernel must not change
        results: every task runs its serial fallback."""
        trace = zipfian(4_000, 8_000, seed=9)
        spec = SweepSpec(sizes_mb=(0.5, 1.0), policies=("LRU", "SRRIP"))
        base = run_sweep(trace, spec, parallel="processes")
        threaded = run_sweep(trace, spec, parallel="threads", threads=4)
        for key in base.stats:
            assert threaded.stats[key].misses == base.stats[key].misses

    def test_replay_task_requires_fields_or_fallback(self):
        with pytest.raises(ValueError, match="fields or a fallback"):
            ReplayTask()
