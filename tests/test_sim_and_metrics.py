"""Tests for the performance model, metrics, engine, multicore model and
reconfiguration loop."""

import numpy as np
import pytest

from repro.core import convex_hull
from repro.sim import (MULTI_PROGRAMMED, SINGLE_THREADED, MixResult,
                       ReconfiguringSharedRun, SharedCacheExperiment,
                       coefficient_of_variation, execution_time, gmean,
                       harmonic_speedup, ipc_from_mpki, lru_mpki_curve,
                       shared_cache_equilibrium, simulate_policy_at_size,
                       simulated_mpki_curve, talus_simulated_mpki_curve,
                       weighted_speedup)
from repro.sim.multicore import SCHEMES
from repro.workloads import WorkloadMix, get_profile, homogeneous_mix


class TestPerfModel:
    def test_ipc_decreases_with_mpki(self):
        profile = get_profile("mcf")
        assert ipc_from_mpki(profile, 0) == pytest.approx(profile.ipc_peak)
        assert ipc_from_mpki(profile, 5) > ipc_from_mpki(profile, 20)
        with pytest.raises(ValueError):
            ipc_from_mpki(profile, -1)

    def test_execution_time(self):
        profile = get_profile("mcf")
        fast = execution_time(profile, 0, instructions=1e6)
        slow = execution_time(profile, 30, instructions=1e6)
        assert slow > fast
        with pytest.raises(ValueError):
            execution_time(profile, 1, instructions=0)


class TestMetrics:
    def test_weighted_speedup(self):
        assert weighted_speedup([2, 2], [1, 1]) == pytest.approx(2.0)
        assert weighted_speedup([1, 3], [1, 1]) == pytest.approx(2.0)

    def test_harmonic_speedup_penalizes_imbalance(self):
        balanced = harmonic_speedup([2, 2], [1, 1])
        imbalanced = harmonic_speedup([1, 3], [1, 1])
        assert balanced == pytest.approx(2.0)
        assert imbalanced < balanced

    def test_metric_validation(self):
        with pytest.raises(ValueError):
            weighted_speedup([1], [1, 2])
        with pytest.raises(ValueError):
            harmonic_speedup([0, 1], [1, 1])
        with pytest.raises(ValueError):
            gmean([1, -1])
        with pytest.raises(ValueError):
            gmean([])

    def test_cov(self):
        assert coefficient_of_variation([2, 2, 2]) == 0.0
        assert coefficient_of_variation([1, 3]) == pytest.approx(0.5)

    def test_gmean(self):
        assert gmean([1, 4]) == pytest.approx(2.0)

    def test_system_configs(self):
        assert SINGLE_THREADED.llc_mb == 1.0
        assert MULTI_PROGRAMMED.llc_mb == 8.0
        assert MULTI_PROGRAMMED.llc_lines == 8 * 256


class TestEngine:
    def test_lru_curve_monotone(self):
        profile = get_profile("omnetpp")
        trace = profile.trace(n_accesses=30000)
        curve = lru_mpki_curve(trace, [0, 1, 2, 3, 4])
        assert curve.is_monotone()
        assert float(curve(0)) == pytest.approx(profile.apki, rel=0.02)

    def test_simulated_policy_curve(self):
        profile = get_profile("omnetpp")
        trace = profile.trace(n_accesses=30000)
        curve = simulated_mpki_curve(trace, [0.5, 2.5], "SRRIP")
        assert float(curve(0.5)) >= float(curve(2.5)) - 1e-9
        assert simulate_policy_at_size(trace, 0.0, "LRU") == pytest.approx(
            profile.apki, rel=0.02)

    def test_talus_simulated_tracks_hull(self):
        profile = get_profile("omnetpp")
        lru = profile.lru_curve(max_mb=4.0, points=33, n_accesses=40000)
        hull = convex_hull(lru)
        talus = talus_simulated_mpki_curve(profile, [1.0, 1.5],
                                           scheme="ideal",
                                           planning_curve=lru,
                                           n_accesses=40000)
        for size in (1.0, 1.5):
            assert float(talus(size)) <= float(lru(size)) + 1.0
            assert float(talus(size)) <= float(hull(size)) + 0.2 * float(lru(0))


class TestSharedCacheModel:
    def test_equilibrium_conserves_capacity(self):
        mix = homogeneous_mix("omnetpp", copies=4)
        curves = [p.lru_curve(max_mb=16, points=33) for p in mix.apps]
        sizes = shared_cache_equilibrium(curves, list(mix.apps), total_mb=8.0)
        assert sum(sizes) == pytest.approx(8.0, rel=1e-3)
        assert all(s >= 0 for s in sizes)

    def test_evaluate_all_schemes(self):
        mix = WorkloadMix("test", tuple(get_profile(n) for n in
                                        ("omnetpp", "mcf", "hmmer", "lbm")))
        experiment = SharedCacheExperiment(mix, total_mb=4.0, curve_points=33)
        results = experiment.evaluate_all(SCHEMES)
        assert set(results) == set(SCHEMES)
        for result in results.values():
            assert isinstance(result, MixResult)
            assert len(result.apps) == 4
            assert all(ipc > 0 for ipc in result.ipcs)

    def test_talus_hill_never_loses_to_lru_hill_on_misses(self):
        mix = WorkloadMix("test", tuple(get_profile(n) for n in
                                        ("omnetpp", "xalancbmk", "lbm", "mcf")))
        experiment = SharedCacheExperiment(mix, total_mb=8.0, curve_points=33)
        talus = experiment.evaluate("talus-hill")
        lru_hill = experiment.evaluate("lru-hill")
        assert sum(talus.mpkis) <= sum(lru_hill.mpkis) + 1e-6

    def test_fair_talus_is_perfectly_fair(self):
        mix = homogeneous_mix("xalancbmk", copies=4)
        experiment = SharedCacheExperiment(mix, total_mb=16.0, curve_points=33)
        result = experiment.evaluate("talus-fair")
        # Equal allocations of identical apps on convex (hull) curves: the
        # only imbalance left is the allocation-granularity rounding, which
        # keeps the CoV of IPC well under the paper's 2% bound.
        assert result.cov_ipc < 0.02

    def test_unknown_scheme_rejected(self):
        mix = homogeneous_mix("mcf", copies=2)
        experiment = SharedCacheExperiment(mix, total_mb=2.0, curve_points=17)
        with pytest.raises(ValueError):
            experiment.evaluate("static")

    def test_parameter_validation(self):
        mix = homogeneous_mix("mcf", copies=2)
        with pytest.raises(ValueError):
            SharedCacheExperiment(mix, total_mb=0.0)
        with pytest.raises(ValueError):
            SharedCacheExperiment(mix, total_mb=1.0, vantage_fraction=0.0)


class TestReconfiguration:
    def test_reconfiguring_run_tracks_hull(self):
        # Vantage, as the paper's hardware uses: the degenerate warm-up
        # request is clamped to the managed region, which the seed failed
        # to do (it crashed on scheme="vantage").
        profile = get_profile("omnetpp")
        trace = profile.trace(n_accesses=60000)
        run = ReconfiguringSharedRun(total_mb=1.5, scheme="vantage",
                                     interval_accesses=10000,
                                     monitor_points=65)
        run.run([trace])
        assert len(run.records) == 6
        # After warm-up and the first reconfiguration, the miss rate should
        # be clearly below LRU's plateau (omnetpp's cliff is at ~2.25 MB, so
        # plain LRU at 1.5 MB stays near its full miss rate).
        lru = profile.lru_curve(max_mb=4.0, points=33)
        lru_rate = float(lru(1.5)) / profile.apki
        steady = run.records[-1]
        assert steady.miss_rate(0) < lru_rate - 0.05
        assert run.app_accesses(0) > 0
