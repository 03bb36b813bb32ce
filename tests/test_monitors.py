"""Tests for stack-distance monitors, UMONs and multi-point monitors,
including the vectorized/native fast paths (batch stack distance, batched
UMON sampling, set-sampled multi-point monitors on the array backend)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import LRUPolicy
from repro.core import MissCurve
from repro.monitor import (UMON, CombinedUMON, MultiPointMonitor,
                           StackDistanceMonitor, lru_miss_curve,
                           stack_distance_histogram)

from .conftest import needs_kernel, per_half_combined_curve


def brute_force_lru_misses(trace, capacity):
    policy = LRUPolicy(capacity)
    return sum(0 if policy.access(t) else 1 for t in trace)


def assert_same_curve(got, want):
    assert np.array_equal(got.sizes, want.sizes)
    assert np.array_equal(got.misses, want.misses)


class TestStackDistance:
    def test_simple_distances(self):
        monitor = StackDistanceMonitor()
        assert monitor.record(1) is None          # cold
        assert monitor.record(2) is None
        assert monitor.record(1) == 1             # one distinct line (2) between
        assert monitor.record(1) == 0             # immediate reuse
        assert monitor.cold_misses == 2

    def test_matches_brute_force_lru(self):
        rng = np.random.default_rng(3)
        trace = [int(t) for t in rng.integers(0, 200, 3000)]
        curve = lru_miss_curve(trace)
        for capacity in (1, 8, 32, 64, 128, 200):
            assert float(curve(capacity)) == brute_force_lru_misses(trace, capacity)

    def test_matches_brute_force_on_scan(self):
        trace = list(range(50)) * 20
        curve = lru_miss_curve(trace)
        for capacity in (10, 49, 50, 64):
            assert float(curve(capacity)) == brute_force_lru_misses(trace, capacity)

    def test_histogram_and_helper(self):
        trace = [1, 2, 3, 1, 2, 3]
        hist, cold = stack_distance_histogram(trace)
        assert cold == 3
        assert hist[2] == 3                      # each reuse skips 2 lines

    def test_monitor_grows_beyond_hint(self):
        monitor = StackDistanceMonitor(capacity_hint=16)
        trace = list(range(10)) * 20
        monitor.record_trace(trace)
        curve = monitor.miss_curve()
        assert float(curve(10)) == 10            # only cold misses at capacity 10

    def test_invalid_hint(self):
        with pytest.raises(ValueError):
            StackDistanceMonitor(capacity_hint=0)


class TestUMON:
    def test_full_rate_umon_is_exact(self):
        rng = np.random.default_rng(5)
        trace = [int(t) for t in rng.integers(0, 500, 5000)]
        umon = UMON(sampling_rate=1.0, max_size=600, points=13)
        umon.record_trace(trace)
        curve = umon.miss_curve()
        exact = lru_miss_curve(trace, sizes=curve.sizes)
        for size in curve.sizes:
            assert float(curve(size)) == pytest.approx(float(exact(size)), abs=1e-6)

    def test_sampled_umon_approximates_curve(self):
        rng = np.random.default_rng(6)
        trace = [int(t) for t in rng.integers(0, 2000, 40000)]
        umon = UMON(sampling_rate=1 / 8, max_size=2048, points=9, seed=2)
        umon.record_trace(trace)
        curve = umon.miss_curve()
        exact = lru_miss_curve(trace, sizes=curve.sizes)
        for size in curve.sizes[1:]:
            # Within 15% of total accesses (sampling noise bound).
            assert abs(float(curve(size)) - float(exact(size))) < 0.15 * len(trace)

    def test_umon_validation(self):
        with pytest.raises(ValueError):
            UMON(sampling_rate=0.0)
        with pytest.raises(ValueError):
            UMON(max_size=0)
        with pytest.raises(ValueError):
            UMON(points=1)

    def test_combined_umon_extends_coverage(self):
        trace = list(range(3000)) * 5            # scan bigger than the "LLC"
        combined = CombinedUMON(llc_size=1024, primary_rate=1 / 4,
                                coverage_ratio=1 / 4)
        combined.record_trace(trace)
        assert combined.max_size == 4096
        curve = combined.miss_curve()
        # The cliff (at 3000 lines) is only visible thanks to the secondary
        # monitor: misses beyond it drop well below the plateau level.
        assert float(curve(3500)) < 0.5 * float(curve(2000))

    def test_combined_umon_validation(self):
        with pytest.raises(ValueError):
            CombinedUMON(llc_size=0)
        with pytest.raises(ValueError):
            CombinedUMON(llc_size=100, coverage_ratio=2.0)

    @pytest.mark.parametrize("grid,side", [([100, 200, 500], "primary"),
                                           ([1024], "primary"),
                                           ([2000, 3000], "secondary")])
    def test_combined_umon_one_sided_grid(self, grid, side):
        """A grid wholly on one side of ``llc_size`` reads that monitor
        alone: its own curve with the envelope applied."""
        trace = list(range(3000)) * 5
        combined = CombinedUMON(llc_size=1024, primary_rate=1 / 4,
                                coverage_ratio=1 / 4)
        combined.record_trace(trace)
        monitor = getattr(combined, side)
        assert_same_curve(combined.miss_curve(sizes=grid),
                          monitor.miss_curve(sizes=grid).monotone_envelope())

    def test_combined_umon_empty_grid(self):
        combined = CombinedUMON(llc_size=1024)
        combined.record_trace(range(100))
        with pytest.raises(ValueError, match="no sizes requested"):
            combined.miss_curve(sizes=[])

    def test_combined_umon_matches_per_half_curves(self):
        """Every read equals the per-monitor Mattson oracle bit for bit:
        before any access, across batches with reads in between, on the
        default and on straddling grids."""
        rng = np.random.default_rng(21)
        combined = CombinedUMON(llc_size=512, primary_rate=1 / 4,
                                coverage_ratio=1 / 8, points=17, seed=5)
        grids = [None, np.array([0.0, 300.0, 512.0, 513.0, 4000.0]),
                 np.sort(rng.uniform(0.0, 2 * combined.max_size, 40))]
        for batch in range(4):
            for grid in grids:
                assert_same_curve(combined.miss_curve(sizes=grid),
                                  per_half_combined_curve(combined, grid))
            combined.record_trace(rng.integers(0, 300 * (batch + 1), 4000))

    @settings(max_examples=40, deadline=None)
    @given(llc=st.integers(4, 200),
           rate=st.sampled_from([1.0, 1 / 2, 1 / 4]),
           footprint_factor=st.sampled_from([1 / 8, 1 / 2, 2.0, 6.0]),
           chunks=st.lists(st.integers(1, 1500), max_size=4),
           seed=st.integers(0, 2**16))
    def test_bounded_reads_match_the_oracle(self, llc, rate,
                                            footprint_factor, chunks,
                                            seed):
        """A read takes the hits at only the integer abscissae around its
        sampled sizes, capped at the live lines, and its total is the
        fold's access count; it still equals ``mattson_misses`` over each
        monitor's whole histogram: for footprints below and above the
        grid's top distance, across random chunkings with reads in
        between, on the default grid and on fractional, integer,
        one-point and past-every-distance grids, on explicit sizes at
        integer and fractional sampled sizes and around each monitor's
        live lines, and before anything is recorded."""
        rng = np.random.default_rng(seed)
        combined = CombinedUMON(llc_size=llc, primary_rate=rate,
                                coverage_ratio=1 / 4, points=9, seed=seed)
        top = combined.max_size
        grids = [None,
                 np.sort(rng.uniform(0.0, top, 7)),
                 np.unique(rng.integers(0, top + 1, 7)).astype(float),
                 np.array([float(rng.integers(0, top + 1))]),
                 np.array([0.5, top + 0.5, 8.0 * top])]
        footprint = max(1, int(footprint_factor * top))
        monitors = (combined.primary, combined.secondary)
        for n in [0] + chunks:
            combined.record_trace(rng.integers(0, footprint, n))
            # Explicit sizes at the read's own abscissae: integer and
            # fractional sampled sizes, and sizes around and past each
            # monitor's live lines, where its misses turn flat.
            lives = [m._folded().live_lines for m in monitors]
            explicit = [
                np.unique(np.concatenate([np.arange(4) / m.sampling_rate
                                          for m in monitors])),
                np.unique(np.concatenate([(np.arange(4) + 0.25)
                                          / m.sampling_rate
                                          for m in monitors])),
                np.unique(np.concatenate([
                    np.array([max(live - 1, 0), live, live + 0.5, live + 2])
                    / m.sampling_rate for live, m in zip(lives, monitors)]))]
            for grid in grids + explicit:
                assert_same_curve(combined.miss_curve(sizes=grid),
                                  per_half_combined_curve(combined, grid))


class TestMultiPointMonitor:
    def test_matches_direct_simulation_for_lru(self):
        rng = np.random.default_rng(9)
        trace = [int(t) for t in rng.integers(0, 800, 20000)]
        sizes = [0, 128, 256, 512, 1024]
        monitor = MultiPointMonitor(sizes, lambda i, c: LRUPolicy(c),
                                    monitor_lines=1024)
        monitor.record_trace(trace)
        curve = monitor.miss_curve()
        exact = lru_miss_curve(trace, sizes=[float(s) for s in sizes])
        for size in sizes[1:]:
            assert float(curve(size)) == pytest.approx(float(exact(size)),
                                                       rel=0.25, abs=500)

    def test_zero_size_point_counts_everything(self):
        monitor = MultiPointMonitor([0, 64], lambda i, c: LRUPolicy(c))
        monitor.record_trace(range(100))
        assert float(monitor.miss_curve()(0)) == 100

    def test_storage_accounting(self):
        monitor = MultiPointMonitor([0, 1024, 4096], lambda i, c: LRUPolicy(c),
                                    monitor_lines=256)
        assert monitor.storage_lines() <= 2 * 256

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiPointMonitor([], lambda i, c: LRUPolicy(c))
        with pytest.raises(ValueError):
            MultiPointMonitor([10], lambda i, c: LRUPolicy(c), monitor_lines=0)
        with pytest.raises(ValueError):
            MultiPointMonitor([10])  # neither policy nor factory
        with pytest.raises(ValueError):
            MultiPointMonitor([10], lambda i, c: LRUPolicy(c), policy="LRU")


class TestBatchStackDistance:
    """The batch histogram (native kernel) == the online reference monitor."""

    @pytest.mark.parametrize("low,high,n", [(-5, 5, 1), (-50, 600, 5000),
                                            (0, 40, 3000)])
    def test_batch_matches_online(self, low, high, n):
        rng = np.random.default_rng(41)
        trace = rng.integers(low, high, n).astype(np.int64)
        dense, cold = stack_distance_histogram(trace)
        monitor = StackDistanceMonitor(capacity_hint=max(16, n // 3))
        monitor.record_trace(trace)
        assert cold == monitor.cold_misses
        assert np.array_equal(np.asarray(dense, dtype=float),
                              monitor.histogram())

    def test_batch_curve_matches_online(self):
        rng = np.random.default_rng(42)
        trace = rng.integers(0, 300, 4000).astype(np.int64)
        sizes = [0.0, 16.0, 100.0, 299.0, 500.0]
        batch = lru_miss_curve(trace, sizes=sizes)
        monitor = StackDistanceMonitor()
        monitor.record_trace(trace)
        online = monitor.miss_curve(sizes=sizes)
        assert np.array_equal(batch.misses, online.misses)

    def test_empty_trace(self):
        dense, cold = stack_distance_histogram(np.zeros(0, dtype=np.int64))
        assert cold == 0 and len(dense) == 0


class TestUMONFastPath:
    def test_batch_and_scalar_recording_agree(self):
        """record_trace selects exactly record()'s sub-stream (same hash;
        at rate 1.0 every access, unhashed) into its own array: the
        batch folds at the first read, and writing into the caller's
        array before then changes nothing."""
        rng = np.random.default_rng(43)
        for rate in (1 / 8, 1.0):
            trace = rng.integers(0, 4000, 30000).astype(np.int64)
            batch = UMON(sampling_rate=rate, max_size=4096, points=9,
                         seed=5)
            batch.record_trace(trace)
            scalar = UMON(sampling_rate=rate, max_size=4096, points=9,
                          seed=5)
            for a in trace.tolist():
                scalar.record(a)
            trace[:] = 0
            assert batch.sampled_accesses == scalar.sampled_accesses
            assert np.array_equal(batch.miss_curve().misses,
                                  scalar.miss_curve().misses)

    def test_scalar_then_batch_preserves_access_order(self):
        """Mixing record() and record_trace() must keep the sub-stream in
        access order (regression: an unflushed scalar prefix used to be
        replayed after the batch suffix)."""
        rng = np.random.default_rng(46)
        trace = rng.integers(0, 500, 10000).astype(np.int64)
        mixed = UMON(sampling_rate=1 / 2, max_size=512, points=9, seed=7)
        for a in trace[:2000].tolist():
            mixed.record(a)
        mixed.record_trace(trace[2000:])
        pure = UMON(sampling_rate=1 / 2, max_size=512, points=9, seed=7)
        for a in trace.tolist():
            pure.record(a)
        assert np.array_equal(mixed.miss_curve().misses,
                              pure.miss_curve().misses)

    def test_record_trace_accepts_lazy_iterables(self):
        """Generators (and Trace objects) remain valid record_trace input."""
        umon = UMON(sampling_rate=1.0, max_size=64, points=5)
        umon.record_trace(a % 50 for a in range(1000))
        assert umon.total_accesses == 1000
        monitor = MultiPointMonitor([0, 64], policy="LRU")
        monitor.record_trace(a % 50 for a in range(1000))
        assert float(monitor.miss_curve()(64)) == 50.0

    def test_incremental_batches_match_one_shot(self):
        """Interval-style recording (the reconfiguration loop's pattern)."""
        rng = np.random.default_rng(44)
        trace = rng.integers(0, 2000, 20000).astype(np.int64)
        whole = UMON(sampling_rate=1 / 4, max_size=2048, points=9, seed=3)
        whole.record_trace(trace)
        chunked = UMON(sampling_rate=1 / 4, max_size=2048, points=9, seed=3)
        for start in range(0, len(trace), 3000):
            chunked.record_trace(trace[start:start + 3000])
            chunked.miss_curve()   # interleaved curve reads must be safe
        assert np.array_equal(whole.miss_curve().misses,
                              chunked.miss_curve().misses)


class TestRawFolds:
    """A UMON keeps raw batches and its fold record samples them in the
    kernel (the numpy mask without one), growing its table when new
    sampled lines pass half load in the middle of a fold."""

    @pytest.mark.parametrize("rate", [1 / 64, 1 / 4, 1.0])
    def test_raw_folds_match_scalar_path_and_oracle(self, rate):
        """Raw-chunk folds equal the scalar ``record()`` path and the
        ``StackDistanceMonitor`` oracle over the sampled sub-stream,
        with scalar records interleaved between the batches and reads
        between chunks: sampled count, histogram, cold misses and curve
        at every read.  One chunk brings enough new sampled lines to
        cross the table's half load mid-fold; natively the table grows
        there, by lines, not by the raw chunk's length."""
        rng = np.random.default_rng(int(1 / rate))
        kwargs = dict(sampling_rate=rate, max_size=1 << 14, points=9,
                      seed=17)
        raw, scalar = UMON(**kwargs), UMON(**kwargs)
        oracle = StackDistanceMonitor()
        # The monitor's table starts at 2048 slots, half load at 1024
        # lines: the fourth chunk brings 1536 new sampled lines at once.
        fresh = np.arange(1 << 20, (1 << 20) + int(1536 / rate),
                          dtype=np.int64)
        chunks = [rng.integers(0, 3000, 4000), rng.integers(0, 3000, 600),
                  rng.integers(0, 6000, 4000), fresh,
                  rng.integers(0, 6000, 1), rng.integers(0, 9000, 5000)]
        for step, chunk in enumerate(chunks):
            chunk = chunk.astype(np.int64)
            if step == 1:
                for a in chunk.tolist():
                    raw.record(a)
            else:
                raw.record_trace(chunk)
            for a in chunk.tolist():
                scalar.record(a)
            oracle.record_trace([a for a in chunk.tolist()
                                 if scalar._sampled(a)])
            if step in (0, 3, 5):
                state = raw._state()
                before = state._tab_tags.size if state.native else 0
                curve = raw.miss_curve()
                assert np.array_equal(curve.misses,
                                      scalar.miss_curve().misses)
                folded = raw._folded()
                assert raw.sampled_accesses == oracle.accesses
                assert np.array_equal(folded.histogram(),
                                      oracle.histogram())
                assert folded.cold_misses == oracle.cold_misses
                if step == 3 and state.native:
                    size, live = state._tab_tags.size, folded.live_lines
                    assert before < size <= 4 * live and 2 * live <= size

    def test_combined_monitors_share_one_copy(self):
        """A ``CombinedUMON`` keeps one copy of each batch, which both
        monitors fold: writing into the caller's array after recording
        changes nothing, and a read equals the per-monitor oracle."""
        rng = np.random.default_rng(47)
        combined = CombinedUMON(llc_size=512, primary_rate=1 / 2,
                                coverage_ratio=1 / 4, points=9, seed=3)
        batches = [rng.integers(0, 4000, 3000).astype(np.int64)
                   for _ in range(3)]
        for batch in batches:
            combined.record_trace(batch)
        assert all(a is b for a, b in zip(combined.primary._chunks,
                                          combined.secondary._chunks))
        for batch in batches:
            batch[:] = 0
        assert np.array_equal(combined.miss_curve().misses,
                              per_half_combined_curve(combined).misses)


class TestUMONIncrementalMode:
    def test_many_interleaved_reads_match_one_shot(self):
        """PR 4: the monitor is incremental end to end — any number of
        interleaved curve reads leaves the curves identical to one-shot
        recording, and each sampled access is processed exactly once."""
        rng = np.random.default_rng(47)
        trace = rng.integers(0, 800, 24000).astype(np.int64)
        many = UMON(sampling_rate=1 / 4, max_size=1024, points=9, seed=3)
        curves = []
        for start in range(0, len(trace), 1500):   # 16 interleaved reads
            many.record_trace(trace[start:start + 1500])
            curves.append(many.miss_curve().misses)
        one = UMON(sampling_rate=1 / 4, max_size=1024, points=9, seed=3)
        one.record_trace(trace)
        assert many._monitor is not None
        # The persistent state consumed exactly the sampled sub-stream.
        assert many._monitor.accesses == many.sampled_accesses
        assert np.array_equal(curves[-1], one.miss_curve().misses)


class TestMultiPointFastPath:
    def _curve(self, trace, sizes, policy, backend, record_batch=True):
        monitor = MultiPointMonitor(sizes, policy=policy, backend=backend,
                                    monitor_lines=512, seed=13)
        if record_batch:
            monitor.record_trace(trace)
        else:
            for a in trace.tolist():
                monitor.record(a)
        return monitor.miss_curve()

    @needs_kernel
    @pytest.mark.parametrize("policy", ["LRU", "SRRIP", "PDP", "DRRIP",
                                        "Random"])
    def test_array_backend_matches_object_backend(self, policy, rng_trace):
        """Fast monitors == reference monitors, point for point, on
        identical set-sampled sub-streams."""
        trace, sizes = rng_trace
        fast = self._curve(trace, sizes, policy, "array")
        reference = self._curve(trace, sizes, policy, "object")
        assert np.array_equal(fast.misses, reference.misses)

    @pytest.fixture
    def rng_trace(self):
        rng = np.random.default_rng(45)
        return (rng.integers(0, 3000, 25000).astype(np.int64),
                [0, 128, 512, 1024, 2048, 4096])

    def test_batch_and_scalar_recording_agree(self, rng_trace):
        trace, sizes = rng_trace
        batch = self._curve(trace, sizes, "SRRIP", "auto")
        scalar = self._curve(trace, sizes, "SRRIP", "auto",
                             record_batch=False)
        assert np.array_equal(batch.misses, scalar.misses)

    @pytest.mark.parametrize("policy", ["BRRIP", "DRRIP"])
    def test_seeded_policies_deterministic(self, policy, rng_trace):
        trace, sizes = rng_trace
        first = self._curve(trace, sizes, policy, "auto")
        second = self._curve(trace, sizes, policy, "auto")
        assert np.array_equal(first.misses, second.misses)

    def test_monitored_mpki_curve_collapses_degenerate_sizes(self):
        """Explicit 0.0 and sub-line-resolution sizes share monitor points
        instead of crashing on a sizes/misses length mismatch."""
        from repro.sim.engine import monitored_mpki_curve
        from repro.workloads.spec_profiles import get_profile
        trace = get_profile("omnetpp").trace(n_accesses=5000)
        curve = monitored_mpki_curve(trace, [0.0, 0.001, 1.0, 1.0], "LRU",
                                     monitor_lines=256)
        assert list(curve.sizes) == [0.0, 1.0]
        assert float(curve(0.0)) == pytest.approx(
            1000.0 * len(trace) / trace.instructions)

    def test_negative_addresses_are_remapped_safely(self):
        """The set-sampling remap must never synthesize the array backend's
        reserved address -1, and batch/scalar paths must still agree."""
        trace = np.arange(-6000, 0, dtype=np.int64)
        batch = MultiPointMonitor([4096], policy="LRU", monitor_lines=512)
        batch.record_trace(trace)
        scalar = MultiPointMonitor([4096], policy="LRU", monitor_lines=512)
        for a in trace.tolist():
            scalar.record(a)
        assert np.array_equal(batch.miss_curve().misses,
                              scalar.miss_curve().misses)

    def test_set_sampling_preserves_scan_cliff(self):
        """Regression for the fig. 9 libquantum planning failure: a scan's
        capacity cliff must survive sampling (address-hash sampling into
        modulo-indexed monitors smeared it over a 2x size range)."""
        scan_lines = 4096
        trace = np.tile(np.arange(scan_lines, dtype=np.int64), 12)
        sizes = [0, 1024, 2048, 3072, 4096, 5120]
        monitor = MultiPointMonitor(sizes, policy="LRU", monitor_lines=512)
        monitor.record_trace(trace)
        curve = monitor.miss_curve()
        total = float(len(trace))
        # Below the working set LRU thrashes; at/above it only the cold
        # misses remain (the sampled estimate must see the same cliff).
        assert float(curve(3072)) > 0.9 * total
        assert float(curve(4096)) < 0.15 * total


class TestIncrementalDriftParity:
    """The controller's drift signal is backend-independent and pinned.

    :class:`~repro.monitor.stack_distance.IncrementalStackMonitor` keeps
    its state in the native kernel when one is available and in the
    pure-Python online monitor otherwise (``REPRO_NATIVE=0``).  The two
    paths must agree *exactly* at every chunk boundary — histograms,
    miss curves, and therefore the
    :class:`~repro.monitor.drift.CurveDriftTracker` scores the online
    controller adapts its replanning interval from.  The scores are also
    pinned to golden values: a stable loop scores (near) zero, a phase
    change scores far above the controller's default shrink threshold.
    """

    #: Golden per-chunk drift scores for :meth:`_chunks` (exact floats;
    #: both monitor paths must reproduce them bit-for-bit).
    GOLDEN = (0.0, 0.00310077519379845, 0.24711111111111111)

    @staticmethod
    def _chunks():
        loop = np.resize(np.arange(128) * 64, 4000).astype(np.int64)
        tight = np.resize(np.arange(32) * 64, 4000).astype(np.int64)
        return [loop, loop.copy(), tight]     # stable, stable, phase change

    def _scores(self):
        from repro.core.misscurve import MissCurve
        from repro.monitor.drift import CurveDriftTracker
        from repro.monitor.stack_distance import IncrementalStackMonitor
        monitor = IncrementalStackMonitor()
        tracker = CurveDriftTracker()
        scores, hists = [], []
        for chunk in self._chunks():
            monitor.record_trace(chunk)
            hists.append(monitor.histogram().copy())
            curve = monitor.miss_curve()
            # The controller's planning normalisation: misses per
            # kilo-access, so snapshots at different stream lengths are
            # commensurable.
            scores.append(tracker.update(MissCurve(
                curve.sizes, curve.misses * 1000.0 / monitor.accesses)))
        return scores, hists

    def test_native_and_fallback_drift_identical_and_pinned(self,
                                                            monkeypatch):
        native_scores, native_hists = self._scores()

        from repro.cache import _native
        monkeypatch.setattr(_native, "_kernel", None)
        monkeypatch.setattr(_native, "_kernel_tried", True)
        fallback_scores, fallback_hists = self._scores()

        assert native_scores == fallback_scores          # exact, not approx
        for a, b in zip(native_hists, fallback_hists):
            assert np.array_equal(a, b)
        assert tuple(native_scores) == self.GOLDEN

    def test_drift_straddles_the_controller_thresholds(self):
        from repro.sim.controller import OnlineTalusController
        scores, _ = self._scores()
        stable, phase_change = scores[1], scores[2]
        defaults = (OnlineTalusController.__init__.__kwdefaults__
                    or {})
        assert stable < defaults.get("drift_grow", 0.02)
        assert phase_change > defaults.get("drift_shrink", 0.10)
