"""Sampled simulation: checkpoints, estimator, driver, determinism.

The suite proves the three contracts the sampling subsystem rests on:

* **Checkpoint bit-identity** — ``snapshot()`` → ``restore()`` →
  continue replaying is indistinguishable from never stopping, for
  every array backend and policy (including the PDP tuner's extra
  state, partitioned regions and ideal-LRU resident lines, Vantage's
  linked lists and Talus's sampler registers) and for the object model (one pickle), and
  checkpoints survive pickling.
* **Estimator correctness** — Student-t critical values, CI widths and
  the MPKI algebra match first-principles values.
* **Execution-strategy determinism** — serial, threaded, pooled,
  supervised and killed-then-resumed runs of the same
  :class:`SamplingSpec` produce bit-identical window counters, and
  checkpoint-warmed windows equal the exact uninterrupted replay.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.cache import _native
from repro.cache.arraycache import ARRAY_POLICIES
from repro.cache.spec import CacheSpec, PartitionSpec, TalusSpec, build
from repro.jobs.faults import FaultPlan
from repro.sampling import (SampledResult, SamplingSpec, WindowResult,
                            normal_quantile, run_exact, run_sampled,
                            snapshot, student_t_critical, warm_checkpoints,
                            window_seed)
from repro.workloads.scale import ChunkedTrace, long_trace

from .conftest import needs_kernel
from .faults import fault_queue


def make_trace(n=40_000, items=2048, seed=9):
    return long_trace("zipfian", n, items, seed=seed)


def replay(cache, addrs):
    from repro.cache.talus_cache import TalusCache
    if isinstance(cache, TalusCache):
        cache.run(addrs, 0)
    else:
        cache.run(addrs)


def counters(cache):
    from repro.cache.talus_cache import TalusCache
    stats = (cache.total_stats() if isinstance(cache, TalusCache)
             else cache.stats)
    return (stats.accesses, stats.hits, stats.misses)


def window_key(result):
    return [(w.index, w.start, w.accesses, w.misses) for w in result.windows]


@pytest.fixture
def no_kernel(monkeypatch):
    monkeypatch.setattr(_native, "_kernel", None)
    monkeypatch.setattr(_native, "_kernel_tried", True)


# --------------------------------------------------------------------- #
# Checkpoint round trips
# --------------------------------------------------------------------- #
def roundtrip_identity(spec, addrs, cut):
    """snapshot at ``cut`` -> restore into a fresh cache -> finish the
    trace; must match the uninterrupted replay counter for counter."""
    straight = build(spec)
    replay(straight, addrs)

    first = build(spec)
    replay(first, addrs[:cut])
    ckpt = first.snapshot(position=cut)
    # corrupt the donor afterwards: the checkpoint must be a deep copy
    replay(first, addrs[::3])

    ckpt = pickle.loads(pickle.dumps(ckpt))
    resumed = build(spec)
    resumed.restore(ckpt)
    replay(resumed, addrs[cut:])
    assert counters(resumed) == counters(straight)
    # rebuilding directly from the checkpoint is the same cache
    rebuilt = ckpt.build()
    replay(rebuilt, addrs[cut:])
    assert counters(rebuilt) == counters(straight)


#: Belady is offline (spec needs a trace, replay must stay in order), so
#: its checkpoint round trip is exercised separately below.
ONLINE_ARRAY_POLICIES = tuple(p for p in ARRAY_POLICIES if p != "Belady")

#: Backends buildable here: the object model always, the array model
#: when the native kernel is available.
BUILDABLE_BACKENDS = ("object",) + (("array",) if _native.native_available()
                                    else ())


@needs_kernel
@pytest.mark.parametrize("policy", ONLINE_ARRAY_POLICIES)
def test_array_checkpoint_roundtrip_native(policy):
    trace = make_trace(12_000)
    addrs = trace.segment(0, 12_000)
    spec = CacheSpec(capacity_lines=512, ways=8, policy=policy,
                     backend="array", seed=7)
    roundtrip_identity(spec, addrs, cut=5_000)


@pytest.mark.parametrize("policy", ONLINE_ARRAY_POLICIES)
def test_array_checkpoint_roundtrip_no_kernel(no_kernel, policy):
    """Without the kernel "auto" builds the object model, whose
    checkpoints pickle the whole cache (streams and PSELs included)."""
    trace = make_trace(6_000)
    addrs = trace.segment(0, 6_000)
    spec = CacheSpec(capacity_lines=256, ways=8, policy=policy,
                     backend="auto", seed=7)
    assert build(spec).snapshot().kind == "object"
    roundtrip_identity(spec, addrs, cut=2_500)


@needs_kernel
def test_belady_checkpoint_roundtrip():
    addrs = make_trace(10_000).segment(0, 10_000)
    cut = 4_000
    spec = CacheSpec(capacity_lines=256, ways=256, policy="Belady",
                     backend="array").with_trace(addrs)

    straight = build(spec)
    straight.run()

    first = build(spec)
    first.run(addrs[:cut])
    ckpt = pickle.loads(pickle.dumps(first.snapshot(position=cut)))
    first.run()  # corrupt the donor: the checkpoint must be a deep copy

    resumed = build(spec)
    resumed.restore(ckpt)
    assert resumed.trace_remaining == len(addrs) - cut
    resumed.run()
    assert counters(resumed) == counters(straight)
    assert resumed.occupancy() == straight.occupancy()

    rebuilt = ckpt.build()
    rebuilt.run()
    assert counters(rebuilt) == counters(straight)


def test_belady_checkpoint_rejects_other_trace():
    addrs = make_trace(4_000).segment(0, 4_000)
    for backend in BUILDABLE_BACKENDS:
        spec = CacheSpec(capacity_lines=128, ways=128, policy="Belady",
                         backend=backend)
        donor = build(spec.with_trace(addrs))
        donor.run(addrs[:1_000])
        ckpt = donor.snapshot(position=1_000)
        other = build(spec.with_trace(addrs[::-1].copy()))
        with pytest.raises(ValueError, match="trace"):
            other.restore(ckpt)


@needs_kernel
@pytest.mark.parametrize("scheme,policy", [
    ("way", "LRU"), ("way", "SRRIP"), ("way", "PDP"),
    ("set", "LRU"), ("set", "SRRIP"),
    ("ideal", "LRU"),
])
def test_partitioned_checkpoint_roundtrip(scheme, policy):
    trace = make_trace(10_000)
    addrs = trace.segment(0, 10_000)
    spec = TalusSpec(partition=PartitionSpec(
        scheme=scheme, capacity_lines=512, num_partitions=2,
        policy=policy, backend="array"))
    roundtrip_identity(spec, addrs, cut=4_000)


@needs_kernel
@pytest.mark.parametrize("policy", ["LRU", "SRRIP", "BRRIP", "PDP",
                                    "TA-DRRIP"])
def test_vantage_checkpoint_roundtrip(policy):
    trace = make_trace(10_000)
    addrs = trace.segment(0, 10_000)
    kwargs = (() if policy in ("LRU", "SRRIP", "PDP")
              else (("seed", 11),))
    spec = TalusSpec(partition=PartitionSpec(
        scheme="vantage", capacity_lines=512, num_partitions=2,
        policy=policy, backend="array", policy_kwargs=kwargs))
    roundtrip_identity(spec, addrs, cut=4_000)


@pytest.mark.parametrize("scheme,policy", [
    ("way", "DRRIP"), ("set", "TA-DRRIP"), ("ideal", "BIP"),
    ("vantage", "Random"),
])
def test_object_talus_checkpoint_roundtrip(scheme, policy):
    """Object-model partitioned caches checkpoint as one pickle, random
    streams and PSEL counters included."""
    addrs = make_trace(10_000).segment(0, 10_000)
    spec = TalusSpec(partition=PartitionSpec(
        scheme=scheme, capacity_lines=512, num_partitions=2,
        policy=policy, backend="object"))
    assert build(spec).snapshot().state["base"].kind == "object"
    roundtrip_identity(spec, addrs, cut=4_000)


def test_checkpoint_digest_tracks_content():
    addrs = make_trace(8_000).segment(0, 8_000)
    spec = CacheSpec(capacity_lines=256, ways=8, policy="LRU")
    a, b = build(spec), build(spec)
    replay(a, addrs[:3_000])
    replay(b, addrs[:3_000])
    assert a.snapshot().digest() == b.snapshot().digest()
    replay(b, addrs[3_000:3_001])
    assert a.snapshot().digest() != b.snapshot().digest()
    # pickling preserves the digest
    ckpt = a.snapshot(position=3_000)
    assert pickle.loads(pickle.dumps(ckpt)).digest() == ckpt.digest()


def test_restore_rejects_mismatched_spec():
    """A checkpoint restores only into a cache with its own policy,
    geometry and granted allocations, on either backend."""
    addrs = make_trace(2_000).segment(0, 2_000)
    for backend in BUILDABLE_BACKENDS:
        plain = CacheSpec(capacity_lines=256, ways=8, policy="LRU",
                          backend=backend)
        parted = PartitionSpec(scheme="way", capacity_lines=256,
                               num_partitions=2, ways=8, backend=backend,
                               targets=(128.0, 128.0))
        for spec, other in [(plain, replace(plain, policy="SRRIP")),
                            (plain, replace(plain, capacity_lines=512)),
                            (parted, replace(parted, targets=(64.0, 192.0)))]:
            donor = build(spec)
            if isinstance(spec, CacheSpec):
                replay(donor, addrs)
            ckpt = donor.snapshot()
            with pytest.raises(ValueError):
                build(other).restore(ckpt)


# --------------------------------------------------------------------- #
# Estimator
# --------------------------------------------------------------------- #
def test_normal_quantile_matches_references():
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-4)
    assert normal_quantile(0.995) == pytest.approx(2.575829, abs=1e-4)
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-9)


def test_student_t_critical_values():
    assert student_t_critical(0.95, 9) == pytest.approx(2.262, abs=2e-3)
    assert student_t_critical(0.95, 1) == pytest.approx(12.706, abs=1e-2)
    assert student_t_critical(0.99, 4) == pytest.approx(4.604, abs=1e-2)
    assert student_t_critical(0.95, 10**6) == pytest.approx(1.96, abs=1e-2)
    assert math.isinf(student_t_critical(0.95, 0))


def test_sampled_result_algebra():
    windows = tuple(WindowResult(index=i, start=1000 * i, accesses=100,
                                 misses=m, warmup_accesses=200)
                    for i, m in enumerate((10, 12, 8, 11, 9)))
    result = SampledResult(windows=windows, total_accesses=10_000,
                           instructions=100_000, confidence=0.95)
    rates = [w.misses / w.accesses for w in windows]
    assert result.miss_rate == pytest.approx(float(np.mean(rates)))
    s = float(np.std(rates, ddof=1))
    t = student_t_critical(0.95, 4)
    assert result.miss_rate_halfwidth == pytest.approx(t * s / math.sqrt(5))
    assert result.mpki == pytest.approx(
        1000.0 * result.miss_rate * 10_000 / 100_000)
    lo, hi = result.mpki_interval
    assert lo < result.mpki < hi
    # speedup: exact replays all 10_000; sampling paid 5 * (200 + 100)
    assert result.speedup == pytest.approx(10_000 / 1_500)
    report = result.error_vs_exact(result.mpki)
    assert report["within_ci"] and report["abs_error"] == pytest.approx(0.0)


def test_single_window_has_unbounded_ci():
    result = SampledResult(
        windows=(WindowResult(index=0, start=0, accesses=100, misses=7),),
        total_accesses=1_000, instructions=10_000)
    assert math.isinf(result.miss_rate_halfwidth)


# --------------------------------------------------------------------- #
# Spec placement and seeds
# --------------------------------------------------------------------- #
def test_window_placement():
    spec = SamplingSpec(window=100, gap=400, offset=200)
    starts = [s for s, _ in spec.windows_for(2_000)]
    assert starts == [200, 700, 1200, 1700]
    spec2 = SamplingSpec(window=100, n_windows=4, offset=0)
    windows = spec2.windows_for(2_000)
    assert len(windows) == 4
    assert all(stop - start == 100 for start, stop in windows)
    with pytest.raises(ValueError):
        SamplingSpec(window=100, gap=10, n_windows=4)
    with pytest.raises(ValueError):
        SamplingSpec(window=100)
    with pytest.raises(ValueError):
        SamplingSpec(window=100, gap=0).windows_for(50)


def test_window_seed_is_position_pure():
    assert window_seed(11, 4_000) == window_seed(11, 4_000)
    assert window_seed(11, 4_000) != window_seed(11, 8_000)
    assert window_seed(12, 4_000) != window_seed(11, 4_000)


# --------------------------------------------------------------------- #
# ChunkedTrace
# --------------------------------------------------------------------- #
def test_chunked_trace_segment_consistency():
    trace = ChunkedTrace(pattern="zipfian", n_accesses=100_000,
                         n_items=1024, seed=4, block=4096)
    whole = np.concatenate([a for _, a in trace.chunks()])
    assert whole.size == 100_000
    for start, stop in ((0, 10), (4090, 4110), (99_990, 100_000),
                        (50_000, 70_000)):
        np.testing.assert_array_equal(trace.segment(start, stop),
                                      whole[start:stop])
    # identical across instances: a pure function of (seed, position)
    again = ChunkedTrace(pattern="zipfian", n_accesses=100_000,
                         n_items=1024, seed=4, block=4096)
    np.testing.assert_array_equal(again.segment(30_000, 31_000),
                                  whole[30_000:31_000])


@pytest.mark.parametrize("pattern", ["uniform", "scan", "hot_cold"])
def test_chunked_trace_patterns(pattern):
    trace = long_trace(pattern, 20_000, 512, seed=2)
    seg = trace.segment(5_000, 6_000)
    assert seg.size == 1_000
    assert seg.min() >= 0 and seg.max() < 512
    assert trace.instructions > 0 and len(trace) == 20_000


def test_chunked_trace_block_size_invariance():
    a = ChunkedTrace(pattern="scan", n_accesses=10_000, n_items=300,
                     seed=0, block=512)
    np.testing.assert_array_equal(a.segment(100, 2_000),
                                  np.arange(100, 2_000) % 300)


# --------------------------------------------------------------------- #
# Driver: accuracy, warming modes, determinism
# --------------------------------------------------------------------- #
def test_checkpoint_warming_matches_uninterrupted_replay():
    trace = make_trace(30_000)
    cache = CacheSpec(capacity_lines=512, ways=8, policy="LRU")
    spec = SamplingSpec(window=2_000, n_windows=5, offset=4_000,
                        warming="checkpoint")
    result = run_sampled(trace, cache, spec)
    straight = build(cache)
    expected = []
    pos = 0
    for start, stop in spec.windows_for(30_000):
        replay(straight, trace.segment(pos, start))
        m0 = straight.stats.misses
        replay(straight, trace.segment(start, stop))
        expected.append(straight.stats.misses - m0)
        pos = stop
    assert [w.misses for w in result.windows] == expected


def test_sampled_estimate_within_ci_of_exact():
    trace = make_trace(60_000, items=4096)
    cache = CacheSpec(capacity_lines=1024, ways=16, policy="LRU")
    exact = run_exact(trace, cache)
    exact_mpki = 1000.0 * exact.misses / exact.instructions
    spec = SamplingSpec(window=3_000, n_windows=10, offset=6_000)
    report = run_sampled(trace, cache, spec).error_vs_exact(exact_mpki)
    assert report["within_ci"]
    assert report["relative_error"] < 0.10


def test_execution_strategies_bit_identical():
    trace = make_trace(40_000)
    cache = CacheSpec(capacity_lines=512, ways=8, policy="DRRIP")
    spec = SamplingSpec(window=2_000, n_windows=6, offset=4_000,
                        base_seed=42)
    serial = run_sampled(trace, cache, spec, threads=1)
    threaded4 = run_sampled(trace, cache, spec, threads=4)
    workers3 = run_sampled(trace, cache, spec, max_workers=3)
    default = run_sampled(trace, cache, spec)
    assert (window_key(serial) == window_key(threaded4)
            == window_key(workers3) == window_key(default))


def test_driver_without_kernel_matches_native(no_kernel):
    trace = make_trace(15_000)
    cache = CacheSpec(capacity_lines=512, ways=8, policy="LRU")
    spec = SamplingSpec(window=1_500, n_windows=4, offset=3_000)
    a = run_sampled(trace, cache, spec)
    b = run_sampled(trace, cache, spec, threads=1)
    assert window_key(a) == window_key(b)


def test_run_sampled_rejects_bad_inputs():
    trace = make_trace(10_000)
    part = PartitionSpec(scheme="way", capacity_lines=512,
                         num_partitions=2)
    with pytest.raises(ValueError, match="PartitionSpec"):
        run_sampled(trace, part, SamplingSpec(window=500, n_windows=4))
    cache = CacheSpec(capacity_lines=512, ways=8, policy="LRU")
    with pytest.raises(ValueError, match="supervise"):
        run_sampled(trace, cache,
                    SamplingSpec(window=500, n_windows=4,
                                 warming="checkpoint"),
                    supervise=True)


def test_warm_checkpoints_positions_and_reuse():
    trace = make_trace(20_000)
    cache = CacheSpec(capacity_lines=512, ways=8, policy="LRU")
    spec = SamplingSpec(window=1_000, n_windows=4, offset=2_000,
                        warming="checkpoint")
    checkpoints = warm_checkpoints(trace, cache, spec)
    starts = [s for s, _ in spec.windows_for(20_000)]
    assert [c.position for c in checkpoints] == starts
    # each checkpoint rebuilds a cache warmed by exactly the prefix
    straight = build(cache)
    replay(straight, trace.segment(0, starts[1]))
    assert (checkpoints[1].build().snapshot().digest()
            == straight.snapshot().digest())


# --------------------------------------------------------------------- #
# Supervised execution: banking and crash recovery
# --------------------------------------------------------------------- #
def test_supervised_matches_serial_and_resumes(tmp_path):
    trace = make_trace(24_000)
    cache = CacheSpec(capacity_lines=512, ways=8, policy="DRRIP")
    spec = SamplingSpec(window=1_500, n_windows=5, offset=3_000,
                        base_seed=7)
    serial = run_sampled(trace, cache, spec, threads=1)
    sup = run_sampled(trace, cache, spec, supervise=True,
                      bank=tmp_path, max_workers=2)
    assert window_key(sup) == window_key(serial)
    # second submission resumes entirely from the bank
    resumed = run_sampled(trace, cache, spec, supervise=True,
                          bank=tmp_path, max_workers=2)
    assert window_key(resumed) == window_key(serial)


def test_sigkill_mid_window_recovers_bit_identical(tmp_path):
    from repro.jobs import SampledWindow, run_supervised
    from repro.sampling.driver import window_units
    trace = make_trace(24_000)
    cache = CacheSpec(capacity_lines=512, ways=8, policy="LRU")
    spec = SamplingSpec(window=1_500, n_windows=5, offset=3_000)
    serial = run_sampled(trace, cache, spec, threads=1)
    units = window_units(spec, cache, len(trace))
    with fault_queue(tmp_path, max_workers=1) as queue:
        # One job of five windows, its worker killed at the third.
        faulted = run_supervised(
            [SampledWindow(trace, cache, unit[1:]) for unit in units],
            shards=1, queue=queue, faults={0: FaultPlan("kill", index=2)})
        job, = queue.jobs()
    assert faulted == [(w.accesses, w.misses) for w in serial.windows]
    assert len(job.crashes) == 1
    assert job.crashes[0]["signal"] is not None
    assert job.result_payload["banked_units"] == 2


def test_chunked_trace_rides_job_keys(tmp_path):
    """A ChunkedTrace is keyed by generator identity, not content."""
    from repro.jobs import SampledWindow, as_trace_source, canonical_json
    trace = make_trace(16_000)
    assert as_trace_source(trace) is trace
    cache = CacheSpec(capacity_lines=256, ways=8, policy="LRU")
    window = SampledWindow(trace, cache, (0, 1_000, 2_000, None))
    text = canonical_json(window)
    assert "zipfian" in text
    other = SampledWindow(make_trace(16_000, seed=10), cache,
                          (0, 1_000, 2_000, None))
    assert canonical_json(other) != text


# --------------------------------------------------------------------- #
# Sweep / engine integration
# --------------------------------------------------------------------- #
def test_run_sweep_sampling_mode():
    from repro.sim.sweep import SweepSpec, run_sweep
    trace = make_trace(40_000, items=4096)
    sweep = SweepSpec(sizes_mb=(0.0, 1.0, 2.0), policies=("LRU",))
    samp = SamplingSpec(window=2_000, n_windows=6, offset=4_000)
    result = run_sweep(trace, sweep, sampling=samp)
    assert result.sampled[("LRU", 0.0)] is None
    assert result.mpki(("LRU", 0.0)) == pytest.approx(
        1000.0 * 40_000 / trace.instructions)
    for size in (1.0, 2.0):
        sampled = result.sampled[("LRU", size)]
        assert isinstance(sampled, SampledResult)
        assert result.mpki(("LRU", size)) == pytest.approx(
            sampled.mpki, rel=1e-3)
    assert (result.mpki(("LRU", 2.0)) < result.mpki(("LRU", 1.0))
            < result.mpki(("LRU", 0.0)))


def test_simulated_mpki_curve_sampling_passthrough():
    from repro.sim.engine import simulated_mpki_curve
    trace = make_trace(30_000, items=4096)
    samp = SamplingSpec(window=2_000, n_windows=5, offset=4_000)
    curve = simulated_mpki_curve(trace, (1.0, 2.0), "LRU", sampling=samp)
    assert list(curve.sizes) == [1.0, 2.0]
    assert curve.misses[1] < curve.misses[0]


# --------------------------------------------------------------------- #
# Job CLI gc
# --------------------------------------------------------------------- #
def test_jobs_cli_gc_reports_reclaimed(tmp_path, capsys):
    """``gc`` reports the torn bank entries it evicted and the finished
    jobs it pruned, and nothing else."""
    import json

    from repro.jobs import ResultBank
    from repro.jobs.cli import main
    bank = ResultBank(tmp_path / "bank")
    good, bad = "33" * 32, "44" * 32
    bank.put(good, "ok")
    bank.put(bad, "soon-corrupt")
    bank._path(bad).write_text("{ torn")
    assert main(["--bank", str(tmp_path / "bank"), "gc"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"bank", "pruned_jobs"}
    assert report["bank"] == {"checked": 2, "evicted": [bad]}
    assert report["pruned_jobs"] == []
