"""Tests for the execution-driven multi-mix sweep engine."""

from __future__ import annotations

import json

import pytest

from repro.sim.mixsweep import (MixSweepSpec, mix_trace_seed, run_mix_sweep)
from repro.workloads.mixes import WorkloadMix, random_mixes
from repro.workloads.spec_profiles import get_profile

#: Small but non-trivial sweep dimensions shared by the tests below.
_SPEC = MixSweepSpec(total_mb=2.0, trace_accesses=9000,
                     interval_accesses=3000)


def _mixes(n=2, apps=2, seed=11):
    return random_mixes(n, apps_per_mix=apps, seed=seed)


class TestMixSweepSpec:
    def test_validation_lists_options(self):
        with pytest.raises(ValueError, match="valid schemes"):
            MixSweepSpec(total_mb=2.0, scheme="zcache")
        with pytest.raises(ValueError, match="valid algorithms"):
            MixSweepSpec(total_mb=2.0, algorithm="simulated-annealing")
        with pytest.raises(ValueError, match="valid backends"):
            MixSweepSpec(total_mb=2.0, backend="gpu")
        with pytest.raises(ValueError, match="positive"):
            MixSweepSpec(total_mb=0.0)
        with pytest.raises(ValueError, match="max_workers"):
            MixSweepSpec(total_mb=2.0, max_workers=0)

    def test_spec_is_hashable_and_picklable(self):
        import pickle
        spec = MixSweepSpec(total_mb=4.0, algorithm="fair")
        assert hash(spec) == hash(pickle.loads(pickle.dumps(spec)))

    def test_substrate_spec_matches_scheme(self):
        spec = MixSweepSpec(total_mb=2.0, scheme="ideal")
        sub = spec.substrate_spec(num_apps=3)
        assert sub.scheme == "ideal"
        assert sub.num_partitions == 6

    def test_trace_seed_is_stable_identity_function(self):
        a = mix_trace_seed(2015, "mix003", 1, "omnetpp")
        assert a == mix_trace_seed(2015, "mix003", 1, "omnetpp")
        assert a != mix_trace_seed(2015, "mix003", 2, "omnetpp")
        assert a != mix_trace_seed(2016, "mix003", 1, "omnetpp")


class TestRunMixSweep:
    def test_pool_matches_serial(self):
        mixes = _mixes()
        serial = run_mix_sweep(mixes, _SPEC)
        pooled = run_mix_sweep(mixes, _SPEC, max_workers=2)
        assert serial.mix_names() == pooled.mix_names()
        for name in serial.mix_names():
            assert serial[name].intervals == pooled[name].intervals
            assert serial[name].result == pooled[name].result

    def test_pool_attaches_tracestore_handles(self):
        """The pool path takes every trace from one TraceStore: each
        (app, length, seed) is generated once across the whole sweep, and
        every record matches the serial bank bit for bit."""
        from repro.workloads import TraceStore

        mixes = _mixes()
        serial_bank = run_mix_sweep(mixes, _SPEC)
        with TraceStore(backing="memory") as store:
            pooled = run_mix_sweep(mixes, _SPEC, max_workers=2,
                                   trace_store=store)
            # One materialization per distinct (app, length, seed) across
            # the whole sweep — the dedup the store exists for.
            assert len(store) == sum(len(mix) for mix in mixes)
            again = run_mix_sweep(mixes, _SPEC, max_workers=2,
                                  trace_store=store)
            assert len(store) == sum(len(mix) for mix in mixes)
        for name in serial_bank.mix_names():
            assert pooled[name].intervals == serial_bank[name].intervals
            assert pooled[name].result == serial_bank[name].result
        assert again.records == serial_bank.records

    def test_threads_mode_matches_serial_bank(self):
        """The spec's own ``max_workers`` puts the mixes on a thread
        pool, with the serial records."""
        from dataclasses import replace

        mixes = _mixes()
        serial_bank = run_mix_sweep(mixes, _SPEC)
        threaded = run_mix_sweep(mixes, replace(_SPEC, max_workers=2))
        for name in serial_bank.mix_names():
            assert threaded[name].intervals == serial_bank[name].intervals
            assert threaded[name].result == serial_bank[name].result

    def test_handle_run_matches_regeneration(self):
        """A mix that generates its own traces and a mix that takes them
        from a store execute the same records (the regression guard for
        the old regenerate-per-worker behaviour)."""
        from repro.sim.mixsweep import _run_one_mix
        from repro.workloads import TraceStore

        mix = _mixes(n=1)[0]
        regenerated = _run_one_mix(_SPEC, mix)
        with TraceStore(backing="memory") as store:
            attached = _run_one_mix(_SPEC, mix, store)
            assert len(store) == len(mix)
        assert attached.intervals == regenerated.intervals
        assert attached.result == regenerated.result

    def test_subset_matches_full_sweep(self):
        """Per-mix seeding depends on the mix identity, not the sweep
        composition: a mix simulated alone reproduces its full-sweep run."""
        mixes = _mixes()
        full = run_mix_sweep(mixes, _SPEC)
        alone = run_mix_sweep([mixes[1]], _SPEC)
        name = mixes[1].name
        assert full[name].intervals == alone[name].intervals

    def test_backends_bit_identical(self):
        mixes = _mixes(n=1)
        auto = run_mix_sweep(mixes, _SPEC, backend="auto")
        obj = run_mix_sweep(mixes, _SPEC, backend="object")
        name = mixes[0].name
        assert auto[name].intervals == obj[name].intervals

    def test_duplicate_mix_names_rejected(self):
        mix = WorkloadMix(name="twin",
                          apps=(get_profile("omnetpp"),))
        with pytest.raises(ValueError, match="unique"):
            run_mix_sweep([mix, mix], _SPEC)

    def test_analytic_bridge_and_payload(self, tmp_path):
        mixes = _mixes()
        result = run_mix_sweep(mixes, _SPEC)
        for metric in ("weighted", "harmonic"):
            value = result.gmean_speedup(metric)
            assert value > 0.0
        covs = result.cov_ipcs()
        assert set(covs) == set(result.mix_names())
        payload = result.to_payload()
        json.dumps(payload)  # must be JSON-serializable
        assert payload["spec"]["total_mb"] == 2.0
        entry = payload["mixes"][0]
        assert set(entry) >= {"mix", "apps", "per_app", "cov_ipc",
                              "intervals",
                              "weighted_speedup_vs_lru_shared",
                              "harmonic_speedup_vs_lru_shared"}
        assert len(entry["per_app"]) == len(entry["apps"]) == 2
        interval = entry["intervals"][0]
        assert set(interval) == {"index", "accesses", "misses",
                                 "allocations_mb"}
        path = result.save_json(tmp_path / "bank" / "mix_sweep.json")
        assert json.loads(path.read_text())["mixes"]

    def test_interval_records_cover_all_traces(self):
        mixes = _mixes(n=1)
        result = run_mix_sweep(mixes, _SPEC)
        record = result[mixes[0].name]
        per_app = [sum(r.accesses[i] for r in record.intervals)
                   for i in range(len(mixes[0]))]
        assert per_app == [_SPEC.trace_accesses] * len(mixes[0])
