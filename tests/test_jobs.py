"""Unit tests for the job runtime: keys, bank, queue, payloads, CLI."""

import errno
import json
import multiprocessing.process
import os
import tempfile
import time

import numpy as np
import pytest

from repro.jobs import (BankedJob, ChurnStream, FaultPlan, InlineTrace,
                        JobContext, JobQueue, JobState, MixRun, ResultBank,
                        RetryPolicy, SampledWindow, SupervisedWorker,
                        TraceRef, WorkerOutcome, as_trace_source,
                        canonical_json, code_version, job_key,
                        run_supervised, sweep_points)
from repro.jobs.cli import main as cli_main
from tests.faults import fault_queue, job_stats, small_spec, small_trace


class _KeyLog:
    """A bank that holds every key: it answers each read, logging the
    key it was asked for."""

    def __init__(self):
        self.keys = []

    def get(self, key):
        self.keys.append(key)
        return {}


class TestKeys:
    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": (1, 2)}) == \
            canonical_json({"a": [1, 2], "b": 1})

    def test_numpy_scalars_reduce_to_plain_numbers(self):
        assert canonical_json({"x": np.int64(3)}) == canonical_json({"x": 3})

    def test_dataclasses_key_by_compare_fields_only(self):
        clean = BankedJob(sweep_points(small_trace(), small_spec()))
        faulted = BankedJob(sweep_points(small_trace(), small_spec()),
                            fault=FaultPlan("exception"))
        assert job_key(clean) == job_key(faulted)

    def test_semantic_changes_change_the_key(self):
        base = BankedJob(sweep_points(small_trace(), small_spec()))
        other = BankedJob(sweep_points(small_trace(),
                                       small_spec(sizes_mb=(0.5, 1.0))))
        assert job_key(base) != job_key(other)

    def test_code_version_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "pinned-token")
        assert code_version() == "pinned-token"

    def test_code_version_changes_the_key(self, monkeypatch):
        payload = BankedJob(sweep_points(small_trace(), small_spec()))
        monkeypatch.setenv("REPRO_CODE_VERSION", "v-one")
        first = job_key(payload)
        monkeypatch.setenv("REPRO_CODE_VERSION", "v-two")
        assert job_key(payload) != first

    def test_unkeyable_objects_are_rejected(self):
        with pytest.raises(TypeError, match="canonicalize"):
            canonical_json({"f": lambda: None})


class TestTraceSources:
    def test_trace_ref_materializes_deterministically(self):
        ref = TraceRef("mcf", 2_000, seed=5)
        a, b = ref.materialize(), ref.materialize()
        assert np.array_equal(a.addresses, b.addresses)
        assert a.instructions == b.instructions

    def test_inline_trace_keys_by_digest_not_array(self):
        addrs = np.arange(100, dtype=np.int64)
        one = InlineTrace.from_trace(addrs)
        two = InlineTrace.from_trace(addrs.copy())
        assert job_key(one) == job_key(two)
        assert job_key(one) != job_key(InlineTrace.from_trace(addrs + 1))

    def test_as_trace_source_passthrough_and_coercion(self):
        ref = TraceRef("mcf", 1_000)
        assert as_trace_source(ref) is ref
        inline = as_trace_source(small_trace())
        assert isinstance(inline, InlineTrace)

    def test_a_job_materializes_its_trace_once(self, monkeypatch):
        """All of a job's points share one materialization per attempt,
        and points served from the bank need none."""
        calls = []
        materialize = TraceRef.materialize

        def counted(ref):
            calls.append(ref)
            return materialize(ref)

        monkeypatch.setattr(TraceRef, "materialize", counted)
        job = BankedJob(sweep_points(TraceRef("mcf", 2_000), small_spec()))
        job.execute(JobContext())
        assert len(calls) == 1
        job.execute(JobContext(bank=_KeyLog()))
        assert len(calls) == 1

    def test_bare_array_sweep_records_no_instructions(self, tmp_path):
        """A bare address array has no instruction count: supervised,
        as in-process, every point records 0 and MPKI is refused."""
        from repro.sim.sweep import run_sweep
        addrs = np.asarray(small_trace().addresses)[:3_000]
        direct = run_sweep(addrs, small_spec())
        supervised = run_sweep(addrs, small_spec(), supervise=True,
                               bank=tmp_path)
        assert supervised.instructions == direct.instructions == 0
        assert supervised.stats == direct.stats
        with pytest.raises(ValueError, match="instructions"):
            supervised.mpki(("LRU", 1.0))


class TestResultBank:
    def test_round_trip_with_meta(self, tmp_path):
        bank = ResultBank(tmp_path)
        key = "ab" * 32
        bank.put(key, {"v": 1.5}, meta={"degraded": False})
        assert bank.get(key, with_meta=True) == ({"v": 1.5},
                                                 {"degraded": False})
        assert key in bank
        assert bank.stats()["writes"] == 1

    def test_corrupt_entry_evicted_not_crashed_on(self, tmp_path):
        bank = ResultBank(tmp_path)
        key = "cd" * 32
        path = bank.put(key, [1, 2, 3])
        path.write_text('{"key": "' + key + '", "payload": [9], '
                        '"meta": {}, "digest": "bogus"}')
        assert bank.get(key) is None
        assert bank.evictions == 1
        assert path.with_suffix(".corrupt").exists()
        # And the slot is writable again afterwards.
        bank.put(key, [1, 2, 3])
        assert bank.get(key) == [1, 2, 3]

    def test_gc_reports_evictions(self, tmp_path):
        bank = ResultBank(tmp_path)
        good, bad = "11" * 32, "22" * 32
        bank.put(good, "ok")
        bank.put(bad, "soon-corrupt")
        bank._path(bad).write_text("{ torn")
        report = bank.gc()
        assert report["checked"] == 2
        assert report["evicted"] == [bad]

    def test_malformed_keys_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="malformed"):
            ResultBank(tmp_path).get("../escape")


class TestRetryPolicy:
    def test_deterministic_and_decorrelated(self):
        policy = RetryPolicy(backoff_base=0.1, jitter=0.5)
        assert policy.delay("k1", 1) == policy.delay("k1", 1)
        assert policy.delay("k1", 1) != policy.delay("k2", 1)

    def test_exponential_growth(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                             jitter=0.0)
        assert policy.delay("k", 2) == pytest.approx(0.2)
        assert policy.delay("k", 3) == pytest.approx(0.4)


class TestJobQueue:
    def test_identical_submissions_dedupe_to_one_job(self, tmp_path):
        with fault_queue(tmp_path) as queue:
            first = queue.submit(BankedJob(sweep_points(small_trace(),
                                                        small_spec())))
            second = queue.submit(BankedJob(sweep_points(small_trace(),
                                                         small_spec())))
            assert first is second
            first.result()

    def test_bank_satisfies_resubmission_across_queues(self, tmp_path):
        payload = BankedJob(sweep_points(small_trace(), small_spec()))
        with fault_queue(tmp_path) as queue:
            ran = queue.submit(payload)
            direct = job_stats(ran)
        with fault_queue(tmp_path) as queue:
            hit = queue.submit(payload)
            banked = job_stats(hit)
        assert hit.meta.get("bank_hit") is True
        assert hit.attempts == 0
        assert {k: (s.accesses, s.hits, s.misses)
                for k, s in banked.items()} == \
               {k: (s.accesses, s.hits, s.misses)
                for k, s in direct.items()}

    def test_exception_retries_then_fails(self, tmp_path):
        plan = FaultPlan("exception", attempts=tuple(range(10)))
        with fault_queue(tmp_path, max_retries=1) as queue:
            job = queue.submit(BankedJob(
                sweep_points(small_trace(), small_spec()), fault=plan))
            queue.wait(job, timeout=60.0)
        assert job.state == JobState.FAILED
        assert job.attempts == 2
        assert "FaultInjected" in job.error

    def test_close_cancels_outstanding_jobs(self, tmp_path):
        queue = fault_queue(tmp_path, job_timeout=600.0)
        job = queue.submit(BankedJob(
            sweep_points(small_trace(), small_spec()),
            fault=FaultPlan("hang", attempts=tuple(range(10)))))
        queue.close()
        assert job.state == JobState.CANCELLED

    def test_serial_jobs_without_deadlines_all_run(self, tmp_path):
        """One worker and no watchdog deadline in reach: once a job
        settles, nothing but the scheduler itself can start the next,
        so it must launch before it sleeps."""
        with fault_queue(tmp_path, max_workers=1, job_timeout=None,
                         heartbeat_timeout=3600.0) as queue:
            jobs = [queue.submit(BankedJob(sweep_points(
                        small_trace(), small_spec(sizes_mb=(size,)))))
                    for size in (0.5, 1.0, 2.0)]
            for job in jobs:
                queue.wait(job, timeout=60.0)
                assert job.state == JobState.SUCCEEDED, job.error

    def test_equal_specs_share_one_bank_entry(self, tmp_path):
        """A SweepSpec point and an explicit config of the same CacheSpec
        bank under one unit key, whatever their sweep keys."""
        from repro.cache.spec import CacheSpec
        from repro.sim.sweep import SweepConfig, SweepSpec
        trace = small_trace()
        with fault_queue(tmp_path) as queue:
            grid = queue.submit(BankedJob(sweep_points(
                trace, SweepSpec(policies=("LRU",), sizes_mb=(1.0,)))))
            expanded = job_stats(grid)
            mine = queue.submit(BankedJob(sweep_points(
                trace, [SweepConfig(key="mine", spec=CacheSpec.from_mb(1.0)),
                        SweepConfig(key="more",
                                    spec=CacheSpec.from_mb(2.0))])))
            explicit = job_stats(mine)
        assert mine.result_payload["banked_units"] == 1
        assert explicit["mine"].misses == expanded[("LRU", 1.0)].misses


class TestSchedulerFaults:
    """An exception on the scheduler thread ends the job it was serving
    ``failed``, with the cause in its error, and the scheduler serves
    the next submission."""

    def test_worker_that_cannot_start_fails_its_job(self, tmp_path,
                                                    monkeypatch):
        dumps = tmp_path / "tmp"
        dumps.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(dumps))
        start = multiprocessing.process.BaseProcess.start
        refused = []

        def refuse_first(process):
            if not refused:
                refused.append(process)
                raise OSError(errno.EAGAIN, "fork refused")
            start(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            refuse_first)
        payload = BankedJob(sweep_points(small_trace(), small_spec()))
        with fault_queue(tmp_path / "bank") as queue:
            job = queue.submit(payload)
            queue.wait(job, timeout=30.0)
            assert job.state == JobState.FAILED
            assert "fork refused" in job.error
            assert job.attempts == 0
            again = queue.submit(payload)
            queue.wait(again, timeout=30.0)
            assert again.state == JobState.SUCCEEDED, again.error
        # The refused attempt removed its stack-dump file.
        assert list(dumps.iterdir()) == []

    def test_failed_bank_write_fails_its_job(self, tmp_path, monkeypatch):
        payload = BankedJob(sweep_points(small_trace(), small_spec()))
        with fault_queue(tmp_path) as queue:
            put = queue.bank.put
            failed = []

            def disk_full_once(key, value, meta=None):
                if not failed:
                    failed.append(key)
                    raise OSError(errno.ENOSPC, "No space left on device")
                return put(key, value, meta=meta)

            # The queue's own bank only: workers open theirs.
            monkeypatch.setattr(queue.bank, "put", disk_full_once)
            job = queue.submit(payload)
            queue.wait(job, timeout=30.0)
            assert job.state == JobState.FAILED
            assert "No space left on device" in job.error
            assert job.result_payload is None
            again = queue.submit(payload)
            queue.wait(again, timeout=30.0)
            assert again.state == JobState.SUCCEEDED, again.error
        assert failed == [job.key]

    def test_worker_that_cannot_be_waited_on_fails_its_job(self, tmp_path,
                                                           monkeypatch):
        handles = SupervisedWorker.wait_handles
        first = []

        def bad_fd_first(worker):
            if not first:
                first.append(worker)
            return [-1] if worker is first[0] else handles(worker)

        monkeypatch.setattr(SupervisedWorker, "wait_handles", bad_fd_first)
        with fault_queue(tmp_path) as queue:
            # Only the scheduler can end this one: it hangs for an hour.
            hung = queue.submit(BankedJob(
                sweep_points(small_trace(), small_spec()),
                fault=FaultPlan("hang")))
            queue.wait(hung, timeout=30.0)
            assert hung.state == JobState.FAILED
            assert "Invalid file descriptor" in hung.error
            after = queue.submit(BankedJob(sweep_points(small_trace(),
                                                        small_spec())))
            queue.wait(after, timeout=30.0)
            assert after.state == JobState.SUCCEEDED, after.error


class TestWakeSources:
    def test_a_worker_past_eof_is_waited_on_through_its_sentinel(self):
        """The scheduler sleeps on a worker's pipe and sentinel; once the
        pipe is at EOF (always readable), on the sentinel alone."""
        worker = SupervisedWorker(
            BankedJob(sweep_points(small_trace(), small_spec()),
                      fault=FaultPlan("kill", index=0)),
            job_timeout=None, heartbeat_timeout=3600.0)
        try:
            sentinel = worker.process.sentinel
            assert sentinel in worker.wait_handles()
            assert len(worker.wait_handles()) == 2
            worker.process.join(timeout=60.0)  # the fault kills it
            assert worker.check() == WorkerOutcome.CRASH
            assert worker.wait_handles() == [sentinel]
        finally:
            worker.close()

    def test_scheduler_sleeps_between_beats(self, tmp_path):
        """A running worker wakes the scheduler only when it beats, also
        when its budgets are past any timeout ``poll`` accepts."""
        with fault_queue(tmp_path, job_timeout=None,
                         heartbeat_timeout=float("inf")) as queue:
            job = queue.submit(BankedJob(
                sweep_points(small_trace(), small_spec()),
                fault=FaultPlan("hang")))
            time.sleep(0.5)  # the worker starts and hangs
            cpu = time.process_time()
            time.sleep(1.0)
            busy = time.process_time() - cpu
            assert job.state == JobState.RUNNING
            assert queue.cancel(job)
            queue.wait(job, timeout=30.0)
            assert job.state == JobState.CANCELLED
        # Ten beats cost milliseconds; a scheduler that spins, a CPU.
        assert busy < 0.5, f"scheduler busy {busy:.2f} s of 1 s"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_closed_queues_release_their_wake_channels(self, tmp_path):
        def open_fds() -> int:
            return len(os.listdir("/proc/self/fd"))

        payload = BankedJob(sweep_points(small_trace(),
                                         small_spec(sizes_mb=(1.0,))))
        # A start method's helpers (a fork server, a resource tracker)
        # open their descriptors on first use, for good.
        with JobQueue() as queue:
            queue.submit(payload).result()
        before = open_fds()
        for i in range(64):
            queue = JobQueue()
            if i % 16 == 0:  # some with a scheduler thread, most without
                queue.submit(payload).result()
            queue.close()
            # A second close is a no-op: it must not close a descriptor
            # that reused one of the channel's numbers.
            with open(os.devnull) as other:
                queue.close()
                os.fstat(other.fileno())
        assert open_fds() == before


class TestPayloadRoundTrips:
    def test_mix_record_payload_round_trip(self, tmp_path):
        from repro.sim.mixsweep import (MixRunRecord, MixSweepSpec,
                                        run_mix_sweep)
        from repro.workloads.mixes import random_mixes
        mixes = random_mixes(2, apps_per_mix=2)
        spec = MixSweepSpec(total_mb=2.0, trace_accesses=6_000,
                            interval_accesses=3_000)
        direct = run_mix_sweep(mixes, spec)
        for record in direct.records.values():
            clone = MixRunRecord.from_payload(record.to_payload())
            assert clone == record
        supervised = run_mix_sweep(mixes, spec, supervise=True,
                                   bank=tmp_path)
        for name, record in direct.records.items():
            assert supervised.records[name] == record


class TestMixSweepJobs:
    """A mix sweep's worker count chooses how it runs, not what it
    computes, so equivalent submissions share one bank entry per mix."""

    @staticmethod
    def _spec(**overrides):
        from repro.sim.mixsweep import MixSweepSpec
        return MixSweepSpec(total_mb=2.0, trace_accesses=6_000,
                            interval_accesses=3_000, **overrides)

    def test_key_ignores_max_workers(self):
        from repro.workloads.mixes import random_mixes
        mix = random_mixes(1, apps_per_mix=2)[0]
        assert self._spec(max_workers=1) == self._spec(max_workers=4)
        assert (job_key(MixRun(self._spec(max_workers=1), mix))
                == job_key(MixRun(self._spec(max_workers=4), mix)))

    def test_resubmission_with_other_width_served_from_bank(self, tmp_path):
        from repro.sim.mixsweep import run_mix_sweep
        from repro.workloads.mixes import random_mixes
        mixes = random_mixes(2, apps_per_mix=2)
        first = run_mix_sweep(mixes, self._spec(), supervise=True,
                              bank=tmp_path)
        with fault_queue(tmp_path, max_workers=2) as queue:
            again = run_supervised(
                [MixRun(self._spec(max_workers=2), mix) for mix in mixes],
                queue=queue)
            jobs = queue.jobs()
            assert queue.bank.stats()["writes"] == 0
        assert len(jobs) == len(mixes)
        assert all(job.meta.get("bank_hit") and job.attempts == 0
                   for job in jobs)
        assert again == list(first.records.values())

    def test_killed_mix_job_recovers_and_banks_every_mix(self, tmp_path):
        """Each mix is one job: killing the second one's worker costs a
        retry of that mix only, and each mix banks its own unit entry."""
        from repro.sim.mixsweep import run_mix_sweep
        from repro.workloads.mixes import random_mixes
        mixes = random_mixes(2, apps_per_mix=2)
        direct = run_mix_sweep(mixes, self._spec())
        units = [MixRun(self._spec(), mix) for mix in mixes]
        with fault_queue(tmp_path, max_workers=2) as queue:
            records = run_supervised(units, queue=queue,
                                     faults={1: FaultPlan("kill")})
            jobs = queue.jobs()
        assert records == [direct.records[mix.name] for mix in mixes]
        assert [len(job.crashes) for job in jobs] == [0, 1]
        assert jobs[1].crashes[0]["signal"] is not None
        bank = ResultBank(tmp_path)
        assert all(job_key(unit) in bank for unit in units)


class TestMatrixSweepJobs:
    """A policy x scheme matrix is a list of sweep points, so a supervised
    matrix runs and banks through :class:`SweepPoint` units."""

    CELLS = dict(sizes_mb=(0.25, 0.5), policies=("LRU", "TA-DRRIP"),
                 schemes=("none", "way"))
    OPTIONS = dict(num_partitions=2, seed=9)

    def _configs(self):
        from repro.sim.sweep import matrix_configs
        return matrix_configs(**self.CELLS, **self.OPTIONS)

    def test_supervised_matrix_matches_direct_and_resumes(self, tmp_path):
        from repro.sim.sweep import run_matrix_sweep, run_sweep
        trace = small_trace()
        configs = self._configs()
        direct = run_matrix_sweep(trace, **self.CELLS, **self.OPTIONS)
        supervised = run_sweep(trace, configs, supervise=True,
                               bank=tmp_path, max_workers=2)
        assert set(supervised.stats) == set(direct.stats)
        for key, stats in direct.stats.items():
            assert supervised.stats[key].misses == stats.misses, key
            assert supervised.stats[key].accesses == stats.accesses, key
        # Every cell is banked under its sweep-point key.
        bank = ResultBank(tmp_path)
        points = sweep_points(trace, configs)
        for point in points:
            assert bank.get(job_key(point)) is not None, point.key
        # A resubmission replays nothing: every job is a bank hit.
        with JobQueue(tmp_path) as queue:
            resumed = run_supervised(points, shards=2, queue=queue)
            assert all(j.meta.get("bank_hit") for j in queue.jobs())
            assert queue.bank.stats()["writes"] == 0
        for point, stats in zip(points, resumed):
            assert stats.misses == direct.stats[point.key].misses, point.key

    def test_empty_matrix_rejected(self):
        from repro.sim.sweep import matrix_configs
        with pytest.raises(ValueError, match="cells"):
            matrix_configs((), ("LRU",), **self.OPTIONS)


def _churn_spec():
    from repro.sim.multicore import ChurnSpec
    return ChurnSpec(total_mb=0.5, max_apps=3, initial_apps=2, steps=4,
                     batch_accesses=500, trace_accesses=2_000)


def _unit_variants(kind):
    """A unit of ``kind``, the same unit differing only in what its key
    ignores, and another unit of that kind."""
    from dataclasses import replace

    from repro.cache.spec import CacheSpec
    from repro.sim.mixsweep import MixSweepSpec
    from repro.workloads.mixes import random_mixes
    if kind == "sweep-point":
        points = sweep_points(small_trace(), small_spec())
        return points[0], replace(points[0], key="renamed"), points[1]
    if kind == "sampled-window":
        cache = CacheSpec(capacity_lines=256, ways=8)
        window = SampledWindow(as_trace_source(small_trace()), cache,
                               (0, 1_000, 2_000, None))
        # Another copy of the trace: the addresses are keyed by digest.
        return (window, replace(window, trace=as_trace_source(small_trace())),
                replace(window, window=(1_000, 2_000, 3_000, None)))
    if kind == "mix":
        first, second = random_mixes(2, apps_per_mix=2)
        spec = MixSweepSpec(total_mb=2.0, trace_accesses=6_000,
                            interval_accesses=3_000)
        return (MixRun(spec, first),
                MixRun(replace(spec, max_workers=4), first),
                MixRun(spec, second))
    stream = ChurnStream(_churn_spec(), (("base_interval_accesses", 2_000),))
    execution = (("parallel", "off"), ("threads", 2), ("validate", False))
    return (stream,
            replace(stream, controller=stream.controller + execution),
            ChurnStream(_churn_spec(), (("base_interval_accesses", 4_000),)))


class TestUnitKeys:
    @staticmethod
    def _keys_read(units) -> list:
        """The bank keys a job of ``units`` reads, in unit order."""
        log = _KeyLog()
        BankedJob(units).execute(JobContext(bank=log))
        return log.keys

    @pytest.mark.parametrize("kind", ["sweep-point", "sampled-window",
                                      "mix", "churn-stream"])
    def test_unit_keys_are_shard_independent(self, kind):
        """A unit banks under one key, alone or in any job, and the key
        ignores what only places or runs the unit: a sweep point's sweep
        key, a window's address array (its digest stands for it), a
        mix's ``max_workers``, a churn stream's ``parallel``,
        ``threads`` and ``validate``."""
        unit, variant, other = _unit_variants(kind)
        alone, = self._keys_read([unit])
        assert alone == job_key(unit)
        assert self._keys_read([other, unit])[1] == alone
        assert self._keys_read([variant, other]) == [alone, job_key(other)]
        assert job_key(other) != alone


class TestSubmissionErrors:
    """A malformed supervised submission raises in the submitting
    process, before any worker starts."""

    @pytest.fixture(autouse=True)
    def no_workers(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a worker started")
        monkeypatch.setattr(SupervisedWorker, "__init__", refuse)

    def test_unregistered_algorithm_callable(self, tmp_path):
        from repro.sim.multicore import run_churn
        with pytest.raises(ValueError, match="registered"):
            run_churn(_churn_spec(), supervise=True, bank=tmp_path,
                      algorithm=lambda problem: None)

    def test_unknown_algorithm_name(self, tmp_path):
        from repro.sim.multicore import run_churn
        with pytest.raises(ValueError, match="registered"):
            run_churn(_churn_spec(), supervise=True, bank=tmp_path,
                      algorithm="annealing")

    def test_spec_that_is_not_a_churn_spec(self, tmp_path):
        from repro.sim.multicore import run_churn
        with pytest.raises(TypeError, match="ChurnSpec"):
            run_churn(small_spec(), supervise=True, bank=tmp_path)

    def test_unknown_controller_keyword(self, tmp_path):
        from repro.sim.multicore import run_churn
        with pytest.raises(TypeError, match="interval"):
            run_churn(_churn_spec(), supervise=True, bank=tmp_path,
                      interval=2_000)

    def test_sampling_cache_that_is_not_a_cache_or_talus_spec(self,
                                                              tmp_path):
        from repro.sampling.driver import SamplingSpec, run_sampled
        with pytest.raises(TypeError, match="CacheSpec or TalusSpec"):
            run_sampled(small_trace(), small_spec(),
                        SamplingSpec(window=500, n_windows=2),
                        supervise=True, bank=tmp_path)


class TestCli:
    def _submit(self, bank, capsys):
        code = cli_main(["--bank", str(bank), "submit", "--profile", "mcf",
                         "--accesses", "3000", "--sizes", "0.5,1",
                         "--policies", "LRU", "--workers", "2"])
        out = json.loads(capsys.readouterr().out)
        return code, out

    def test_submit_status_gc_round_trip(self, tmp_path, capsys):
        bank = tmp_path / "bank"
        code, report = self._submit(bank, capsys)
        assert code == 0
        assert all(j["state"] == "succeeded" for j in report["jobs"])
        assert report["bank"]["entries"] > 0

        assert cli_main(["--bank", str(bank), "status"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert {j["state"] for j in status["jobs"]} == {"succeeded"}
        assert all(j["pid"] == os.getpid() for j in status["jobs"])

        assert cli_main(["--bank", str(bank), "gc"]) == 0
        gc_report = json.loads(capsys.readouterr().out)
        assert gc_report["bank"]["evicted"] == []
        assert sorted(gc_report["pruned_jobs"]) == \
            sorted(j["id"] for j in status["jobs"])

    def test_resubmit_hits_bank(self, tmp_path, capsys):
        bank = tmp_path / "bank"
        self._submit(bank, capsys)
        code, report = self._submit(bank, capsys)
        assert code == 0
        assert all(j["meta"].get("bank_hit") for j in report["jobs"])

    def test_matrix_submit(self, tmp_path, capsys):
        bank = tmp_path / "bank"
        argv = ["--bank", str(bank), "submit", "--profile", "mcf",
                "--accesses", "3000", "--sizes", "0.5",
                "--policies", "LRU,SRRIP", "--schemes", "none,way",
                "--partitions", "2", "--workers", "2"]
        assert cli_main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        # The matrix's four cells are sweep points, dealt over the workers.
        assert len(report["jobs"]) == 2
        assert all(j["payload"] == "BankedJob" for j in report["jobs"])
        assert all(j["state"] == "succeeded" for j in report["jobs"])
        # Resubmission is satisfied straight from the bank.
        assert cli_main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(j["meta"].get("bank_hit") for j in report["jobs"])
        assert report["bank"]["writes"] == 0

    def test_cancel_writes_markers(self, tmp_path, capsys):
        bank = tmp_path / "bank"
        assert cli_main(["--bank", str(bank), "cancel", "--all"]) == 0
        assert (bank / "cancel" / "all").exists()
        capsys.readouterr()
