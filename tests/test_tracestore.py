"""Tests for the in-memory, content-addressed trace store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads import Trace, TraceStore
from repro.workloads.spec_profiles import get_profile


class TestContentAddressing:
    def test_get_generates_once_and_dedups(self):
        with TraceStore() as store:
            profile = get_profile("mcf")
            first = store.get(profile, 4000, seed=42)
            again = store.get(profile, 4000, seed=42)
            assert first is again
            assert len(store) == 1
            other = store.get(profile, 4000, seed=43)
            assert other is not first
            assert len(store) == 2

    def test_attached_trace_matches_generation(self):
        with TraceStore() as store:
            profile = get_profile("omnetpp")
            stored = store.get(profile, 3000, seed=7)
            reference = profile.trace(n_accesses=3000, seed=7)
            assert np.array_equal(stored.addresses, reference.addresses)
            assert stored.instructions == reference.instructions

    def test_put_dedups_by_content(self):
        with TraceStore() as store:
            addrs = np.arange(1000, dtype=np.int64)
            one = store.put(addrs)
            two = store.put(addrs.copy())
            assert one is two
            assert np.array_equal(one.addresses, addrs)

    def test_concurrent_gets_share_one_trace(self):
        """Threads racing on the same keys all receive the one stored
        trace per key (mixes on a thread pool share a caller's store)."""
        import sys
        from concurrent.futures import ThreadPoolExecutor

        profile = get_profile("mcf")
        seeds = [i % 3 for i in range(48)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with TraceStore() as store, ThreadPoolExecutor(8) as pool:
                got = list(pool.map(
                    lambda seed: (seed, store.get(profile, 500, seed)),
                    seeds, timeout=60))
                assert len(store) == 3
                for seed, trace in got:
                    assert trace is store.get(profile, 500, seed)
        finally:
            sys.setswitchinterval(interval)

    def test_put_trace_keeps_instructions(self):
        with TraceStore() as store:
            trace = Trace(np.arange(100, dtype=np.int64), 5000, name="t")
            stored = store.put(trace)
            assert stored.instructions == 5000
            assert stored.name == "t"


class TestBackings:
    @pytest.mark.parametrize("backing", ["memory"])
    def test_roundtrip(self, backing):
        with TraceStore(backing=backing) as store:
            addrs = np.arange(2048, dtype=np.int64) * 3
            assert np.array_equal(store.put(addrs).addresses, addrs)

    def test_unknown_backing_rejected(self):
        for backing in ("gpu", "memmap", "auto"):
            with pytest.raises(ValueError, match="backing"):
                TraceStore(backing=backing)


class TestOwnership:
    def test_closed_store_raises(self):
        store = TraceStore()
        store.put(np.arange(64, dtype=np.int64))
        store.close()
        assert len(store) == 0
        with pytest.raises(RuntimeError, match="closed"):
            store.put(np.arange(4, dtype=np.int64))
        with pytest.raises(RuntimeError, match="closed"):
            store.get(get_profile("mcf"), 100, seed=1)

    def test_close_is_idempotent(self):
        store = TraceStore()
        store.close()
        store.close()
