"""Recovery proofs for the supervised job runtime.

Every test runs the same small deterministic workload twice: once serial
and unfaulted, once through the job runtime with a fault injected at an
exact unit boundary — and asserts the recovered result is bit-identical
(every counter of every config equal, via the :mod:`tests.faults`
signatures).  Fault plans are excluded from job keys, so a faulted run
banks under the same content address as a clean one; that is asserted
too, via resume tests that hit the faulted run's bank.
"""

import tempfile
import time

import pytest

from tests.faults import (fault_queue, job_stats, serial_signature,
                          small_spec, small_trace, sweep_signature)
from repro.jobs import (BankedJob, FaultPlan, JobFailed, JobState, job_key,
                        run_supervised, sweep_points)


@pytest.fixture(scope="module")
def reference():
    """Signature of the unfaulted serial run (shared across tests)."""
    return serial_signature()


class TestSigkillRecovery:
    def test_worker_killed_mid_job_recovers_bit_identical(self, tmp_path,
                                                          reference):
        # The plan SIGKILLs the worker at the *second* config of its
        # first attempt: one unit is already banked when the worker dies.
        points = sweep_points(small_trace(), small_spec())
        stats = run_supervised(points, shards=1, max_workers=1,
                               bank=tmp_path,
                               faults={0: FaultPlan("kill", index=1)})
        result = {point.key: s for point, s in zip(points, stats)}
        assert sweep_signature(result) == reference

    def test_completed_units_survive_the_kill(self, tmp_path, reference):
        trace = small_trace()
        # No watchdog deadline in reach: only the worker's process
        # sentinel can tell the scheduler that the worker died.
        with fault_queue(tmp_path, job_timeout=None,
                         heartbeat_timeout=3600.0) as queue:
            job = queue.submit(BankedJob(sweep_points(trace, small_spec()),
                                         fault=FaultPlan("kill", index=2)))
            queue.wait(job, timeout=60.0)
            assert job.state == JobState.SUCCEEDED, job.state
            result = job_stats(job)
        assert sweep_signature(result) == reference
        # The retry found the first two configs in the bank: the unit
        # banking happened in the worker, before the kill.
        assert result is not None
        assert job.result_payload["banked_units"] >= 2
        assert job.crashes and job.crashes[0]["signal"] is not None

    def test_kill_every_attempt_exhausts_retries(self, tmp_path):
        plan = FaultPlan("kill", index=0, attempts=tuple(range(10)))
        with fault_queue(tmp_path, max_retries=1) as queue:
            job = queue.submit(BankedJob(
                sweep_points(small_trace(), small_spec()), fault=plan))
            queue.wait(job, timeout=60.0)
        assert job.state == JobState.FAILED
        with pytest.raises(JobFailed):
            job.result()


class TestWatchdogRecovery:
    def test_hung_worker_is_killed_and_retried(self, tmp_path, reference):
        started = time.monotonic()
        with fault_queue(tmp_path, job_timeout=2.0) as queue:
            job = queue.submit(BankedJob(
                sweep_points(small_trace(), small_spec()),
                fault=FaultPlan("hang")))
            result = job_stats(job)
        assert sweep_signature(result) == reference
        # Far below the fault's one-hour sleep: the watchdog fired.
        assert time.monotonic() - started < 30.0
        assert any(c["outcome"] in ("timeout", "stalled")
                   for c in job.crashes)

    def test_hang_records_wall_clock_budget_in_error(self, tmp_path):
        plan = FaultPlan("hang", attempts=tuple(range(10)))
        with fault_queue(tmp_path, job_timeout=0.5,
                         max_retries=0) as queue:
            job = queue.submit(BankedJob(
                sweep_points(small_trace(), small_spec()), fault=plan))
            queue.wait(job, timeout=60.0)
        assert job.state == JobState.FAILED
        assert "wall-clock" in (job.error or "")


class TestNativeCrashDegradation:
    def test_segfault_degrades_to_pure_python_bit_identical(self, tmp_path,
                                                            reference):
        # native-crash SIGSEGVs on every non-degraded attempt, so only
        # the REPRO_NATIVE=0 quarantine retry can complete the job.
        plan = FaultPlan("native-crash", attempts=tuple(range(10)))
        with fault_queue(tmp_path) as queue:
            job = queue.submit(BankedJob(
                sweep_points(small_trace(), small_spec()), fault=plan))
            result = job_stats(job)
        assert sweep_signature(result) == reference
        assert job.degraded
        assert job.meta["degraded"] is True
        assert job.crashes[0]["signal"] is not None

    def test_degraded_drrip_sweep_matches_native(self, tmp_path):
        """The quarantine retry runs on the object model, which replays
        the randomized policies bit for bit like the kernel: a seeded
        DRRIP sweep recovered that way equals the unfaulted run."""
        spec = small_spec(policies=("DRRIP",), base_seed=11)
        expected = serial_signature(spec=spec)
        plan = FaultPlan("native-crash", attempts=tuple(range(10)))
        with fault_queue(tmp_path) as queue:
            job = queue.submit(BankedJob(sweep_points(small_trace(), spec),
                                         fault=plan))
            result = job_stats(job)
        assert job.degraded
        assert sweep_signature(result) == expected

    def test_degradation_is_recorded_in_bank_meta(self, tmp_path,
                                                  monkeypatch):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        plan = FaultPlan("native-crash", attempts=tuple(range(10)))
        with fault_queue(tmp_path) as queue:
            job = queue.submit(BankedJob(
                sweep_points(small_trace(), small_spec()), fault=plan))
            job.result()
            banked = queue.bank.get(job.key, with_meta=True)
        assert banked is not None
        _, meta = banked
        assert meta["degraded"] is True
        assert meta["crashes"]
        # The worker's fault-handler dump lands in the crash record (not
        # on this process's stderr) and names the frame that crashed;
        # closing each worker deleted its dump file.
        assert "maybe_fire" in meta["crashes"][0]["stack"]
        assert list(scratch.iterdir()) == []


class TestCorruptBankRecovery:
    def test_corrupt_entry_is_evicted_and_rerun(self, tmp_path, reference):
        trace = small_trace()
        spec = small_spec()
        with fault_queue(tmp_path) as queue:
            first = queue.submit(BankedJob(sweep_points(trace, spec)))
            first.result()
            key = first.key
        # Truncate the banked entry mid-file: a torn copy / bit rot.
        path = next((tmp_path / key[:2]).glob(key + ".json"))
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with fault_queue(tmp_path) as queue:
            again = queue.submit(BankedJob(sweep_points(trace, spec)))
            result = job_stats(again)
        assert sweep_signature(result) == reference
        # The bad entry was moved aside, not crashed on.
        assert list(tmp_path.glob("*/*.corrupt"))
        assert not again.meta.get("bank_hit")

    def test_valid_entry_is_served_without_rerun(self, tmp_path):
        trace = small_trace()
        spec = small_spec()
        with fault_queue(tmp_path) as queue:
            queue.submit(BankedJob(sweep_points(trace, spec))).result()
        with fault_queue(tmp_path) as queue:
            job = queue.submit(BankedJob(sweep_points(trace, spec)))
            job.result()
        assert job.meta.get("bank_hit") is True
        assert job.attempts == 0


class TestCancelResume:
    def test_cancelled_sweep_resumes_from_bank(self, tmp_path, reference):
        trace = small_trace()
        spec = small_spec()
        # Hang at the last config on every attempt: the first two units
        # bank, then the worker wedges until cancelled.
        plan = FaultPlan("hang", index=2, attempts=tuple(range(10)))
        with fault_queue(tmp_path, job_timeout=600.0) as queue:
            job = queue.submit(BankedJob(sweep_points(trace, spec),
                                         fault=plan))
            deadline = time.monotonic() + 30.0
            while len(queue.bank.keys()) < 2:
                assert time.monotonic() < deadline, "units never banked"
                time.sleep(0.05)
            assert queue.cancel(job)
            queue.wait(job, timeout=30.0)
            assert job.state == JobState.CANCELLED
            # Same payload, fresh submission: runs, resuming from bank.
            resumed = queue.submit(BankedJob(sweep_points(trace, spec)))
            assert resumed.id != job.id
            result = job_stats(resumed)
        assert sweep_signature(result) == reference
        assert resumed.result_payload["banked_units"] == 2

    def test_fault_plan_does_not_change_the_job_key(self):
        clean = BankedJob(sweep_points(small_trace(), small_spec()))
        faulted = BankedJob(sweep_points(small_trace(), small_spec()),
                            fault=FaultPlan("kill"))
        assert job_key(clean) == job_key(faulted)

    def test_cancel_pending_job(self, tmp_path):
        with fault_queue(tmp_path, max_workers=1,
                         job_timeout=600.0) as queue:
            blocker = queue.submit(BankedJob(
                sweep_points(small_trace(), small_spec()),
                fault=FaultPlan("hang", attempts=tuple(range(10)))))
            waiting = queue.submit(BankedJob(
                sweep_points(small_trace(), small_spec(sizes_mb=(4.0,)))))
            assert queue.cancel(waiting)
            queue.wait(waiting, timeout=10.0)
            assert waiting.state == JobState.CANCELLED
            assert queue.cancel(blocker)
