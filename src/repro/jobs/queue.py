"""The job queue: submission, scheduling, retry, and the degradation ladder.

:class:`JobQueue` is the front door of the fault-tolerant runtime.  A
submission is a payload (:mod:`repro.jobs.payloads`); the queue

* derives its canonical :func:`~repro.jobs.keys.job_key` and **dedupes**
  — an identical live submission returns the existing job, and a banked
  result satisfies the submission without spawning anything;
* runs attempts in :class:`~repro.jobs.supervisor.SupervisedWorker`
  processes, up to ``max_workers`` at a time, off a daemon scheduler
  thread that sleeps until a worker reports or exits, a submission,
  cancel or close wakes it, or a watchdog or backoff deadline falls
  due — it never polls;
* applies the **retry policy** — bounded attempts with exponential
  backoff and deterministic per-``(key, attempt)`` jitter, so retry
  storms decorrelate without introducing nondeterminism into tests;
* walks the **degradation ladder** on a signal death: the crash is
  recorded in the job's quarantine log, and the job gets one extra
  retry in a *degraded* worker (``REPRO_NATIVE=0`` for that process) on
  the theory that the native kernel, not the physics, segfaulted.  The
  degradation is stamped into the result metadata so downstream
  consumers can see a result came from the object model;
* **banks** successful results, so the next identical submission — in
  this process or any later one — is a cache hit.

States: ``pending -> running -> succeeded | failed | cancelled``, with
``pending`` doubling as the backoff waiting room between attempts.  An
exception on the scheduler thread (a worker that cannot start, a bank
write that fails) ends the job it was serving ``failed``, with the
traceback in :attr:`Job.error`; the scheduler serves on.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import threading
import time
import traceback
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, field
from multiprocessing import connection

from .bank import ResultBank
from .keys import job_key
from .supervisor import SupervisedWorker, WorkerOutcome

__all__ = ["JobQueue", "Job", "JobState", "JobFailed", "RetryPolicy"]

#: Seconds of the longest single sleep.  ``poll`` rejects a timeout past
#: 2**31 ms, and a budget may be longer (``heartbeat_timeout=inf``): a
#: deadline further off is re-read after this long.
_LONGEST_SLEEP = 86_400.0


def _scheduler_error() -> str:
    """The job error for an exception raised on the scheduler thread."""
    return "scheduler error\n" + traceback.format_exc()


class JobState:
    """Lifecycle states of a :class:`Job`."""

    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"

    #: States a job never leaves.
    TERMINAL = (SUCCEEDED, FAILED, CANCELLED)


class JobFailed(RuntimeError):
    """Raised by :meth:`Job.result` when the job did not succeed."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``delay(key, attempt)`` is a pure function: backoff grows as
    ``base * factor**attempt`` and the jitter term is hashed from
    ``(seed, key, attempt)``, so two queues with the same policy place
    the same job's retries at the same offsets (reproducible tests)
    while *different* jobs' retries spread out (no thundering herd).
    """

    max_retries: int = 2
    backoff_base: float = 0.25
    backoff_factor: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def delay(self, key: str, attempt: int) -> float:
        base = self.backoff_base * self.backoff_factor ** max(0, attempt - 1)
        if not self.jitter:
            return base
        token = f"{self.seed}|{key}|{attempt}".encode()
        digest = hashlib.sha256(token).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2 ** 64
        return base * (1.0 + self.jitter * fraction)


@dataclass
class Job:
    """One tracked submission.  Created by :meth:`JobQueue.submit`."""

    id: str
    key: str
    payload: object
    state: str = JobState.PENDING
    attempts: int = 0
    degraded: bool = False
    error: str | None = None
    #: Quarantine log: one entry per abnormal worker death
    #: (``{"outcome", "attempt", "signal", "error", "stack",
    #: "degraded"}``; ``stack`` is the worker's fault-handler dump of
    #: every thread, or ``None``).
    crashes: list = field(default_factory=list)
    result_payload: object = None
    meta: dict = field(default_factory=dict)
    submitted_at: float = 0.0
    finished_at: float | None = None
    done: threading.Event = field(default_factory=threading.Event,
                                  repr=False)

    def result(self):
        """The rich result object, or raise :class:`JobFailed`.

        Blocks until the job is terminal; the raw banked payload is in
        :attr:`result_payload`, and ``payload.load`` lifts it back into
        the domain types (``CacheStats``, ``MixRunRecord``, ...).
        """
        self.done.wait()
        if self.state != JobState.SUCCEEDED:
            raise JobFailed(f"job {self.id} {self.state}: "
                            f"{self.error or 'no result'}")
        loader = getattr(self.payload, "load", None)
        if loader is None:
            return self.result_payload
        return loader(self.result_payload)

    def snapshot(self) -> dict:
        """JSON-able status row (CLI ``status`` output)."""
        return {"id": self.id, "key": self.key, "state": self.state,
                "attempts": self.attempts, "degraded": self.degraded,
                "crashes": len(self.crashes), "error": self.error,
                "meta": dict(self.meta),
                "payload": type(self.payload).__name__}


class _WakeChannel:
    """A self-pipe the scheduler sleeps on beside its workers.

    :meth:`set` writes one byte to the non-blocking write end and never
    blocks: a full pipe already holds a pending wake.  A byte written
    before the scheduler sleeps keeps the read end readable, so no wake
    is lost.  :meth:`clear` drains the pipe (one read takes a default
    pipe's whole capacity; a byte left over only wakes once more).
    """

    def __init__(self):
        self._read, self._write = os.pipe()
        os.set_blocking(self._read, False)
        os.set_blocking(self._write, False)

    def fileno(self) -> int:
        return self._read

    def set(self) -> None:
        if self._write is not None:
            with suppress(BlockingIOError):
                os.write(self._write, b"\0")

    def clear(self) -> None:
        with suppress(BlockingIOError):
            os.read(self._read, 1 << 16)

    def close(self) -> None:
        if self._write is not None:
            os.close(self._read)
            os.close(self._write)
            self._write = None


class JobQueue:
    """Supervised, deduplicating, bank-backed job executor.

    Parameters
    ----------
    bank:
        A :class:`~repro.jobs.bank.ResultBank`, a directory path for
        one, or ``None`` to run without durability (no dedupe across
        processes, no resume).
    max_workers:
        Concurrent supervised worker processes.
    retry:
        The :class:`RetryPolicy`; retries apply to worker crashes,
        watchdog kills and payload exceptions alike.
    job_timeout / heartbeat_timeout:
        Watchdog budgets handed to every
        :class:`~repro.jobs.supervisor.SupervisedWorker`.

    Use as a context manager (or call :meth:`close`) to stop the
    scheduler and reap workers deterministically.
    """

    def __init__(self, bank: ResultBank | str | os.PathLike | None = None,
                 *, max_workers: int = 2, retry: RetryPolicy | None = None,
                 job_timeout: float | None = 600.0,
                 heartbeat_timeout: float = 30.0,
                 start_method: str | None = None):
        if bank is not None and not isinstance(bank, ResultBank):
            bank = ResultBank(bank)
        self.bank = bank
        self.max_workers = max(1, int(max_workers))
        self.retry = retry if retry is not None else RetryPolicy()
        self.job_timeout = job_timeout
        self.heartbeat_timeout = heartbeat_timeout
        self.start_method = start_method

        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}           # id -> job
        self._by_key: dict[str, Job] = {}         # key -> live/terminal job
        self._pending: deque[Job] = deque()
        self._waiting: list[tuple[float, Job]] = []   # backoff room
        self._running: dict[str, SupervisedWorker] = {}  # job id -> worker
        self._cancelling: set[str] = set()
        self._sequence = itertools.count(1)
        # Written under the lock by submit, cancel and close; released
        # by close once the scheduler thread has exited.
        self._wake = _WakeChannel()
        self._shutdown = False
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, payload) -> Job:
        """Enqueue a payload; returns its (possibly pre-existing) job.

        Dedupe ladder: a live or succeeded job with the same canonical
        key is returned as-is; a banked result satisfies the submission
        immediately (``job.meta["bank_hit"]``); otherwise a fresh job is
        scheduled.  Failed or cancelled previous submissions do *not*
        block a resubmission — that is how a cancelled sweep is resumed,
        and the bank makes the resumed run skip completed units.
        """
        key = job_key(payload)
        with self._lock:
            existing = self._by_key.get(key)
            if existing is not None and existing.state not in (
                    JobState.FAILED, JobState.CANCELLED):
                return existing
            job = Job(id=f"j{next(self._sequence):04d}-{key[:10]}",
                      key=key, payload=payload, submitted_at=time.time())
            self._jobs[job.id] = job
            self._by_key[key] = job
            if self.bank is not None:
                banked = self.bank.get(key, with_meta=True)
                if banked is not None:
                    payload_value, meta = banked
                    job.result_payload = payload_value
                    job.meta = {**meta, "bank_hit": True}
                    job.state = JobState.SUCCEEDED
                    job.finished_at = time.time()
                    job.done.set()
                    return job
            self._pending.append(job)
            self._ensure_thread()
            self._wake.set()
        return job

    # ------------------------------------------------------------------ #
    # Introspection and control
    # ------------------------------------------------------------------ #
    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return list(self._jobs.values())

    def wait(self, job: Job, timeout: float | None = None) -> Job:
        """Block until ``job`` is terminal (or ``timeout`` elapses)."""
        job.done.wait(timeout)
        return job

    def join(self, timeout: float | None = None) -> bool:
        """Wait for every tracked job to reach a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for job in self.jobs():
            remaining = None if deadline is None \
                else max(0.0, deadline - time.monotonic())
            if not job.done.wait(remaining):
                return False
        return True

    def cancel(self, job: Job | str) -> bool:
        """Cancel a job: dequeue it, or kill its running worker.

        Returns ``False`` when the job is already terminal.  Cancelled
        jobs stay in the history; resubmitting the same payload later
        starts fresh (and resumes from the bank).
        """
        job_id = job if isinstance(job, str) else job.id
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state in JobState.TERMINAL:
                return False
            if job.state == JobState.PENDING:
                self._finish_locked(job, JobState.CANCELLED,
                                    error="cancelled before start")
                return True
            self._cancelling.add(job.id)
            self._wake.set()
        return True

    # ------------------------------------------------------------------ #
    # Scheduler
    # ------------------------------------------------------------------ #
    def _ensure_thread(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(target=self._loop, daemon=True,
                                            name="job-scheduler")
            self._thread.start()

    def _loop(self) -> None:
        while True:
            with self._lock:
                if self._shutdown:
                    self._abort_all_locked()
                    return
                # Wakes are written under the lock: each one drained here
                # shows in the state read below, and a later one stays
                # in the pipe for the next sleep.
                self._wake.clear()
                self._promote_waiting_locked()
                self._launch_locked()
                running = list(self._running.items())
                cancelling = set(self._cancelling)
            alive = []
            for job_id, worker in running:
                try:
                    if self._step(job_id, worker, job_id in cancelling):
                        alive.append((job_id, worker))
                except Exception:
                    self._stop(job_id, worker, JobState.FAILED,
                               _scheduler_error())
            self._sleep(alive)

    def _step(self, job_id: str, worker: SupervisedWorker,
              cancel: bool) -> bool:
        """Cancel, settle or keep one running attempt; ``True`` while
        it runs on."""
        if cancel:
            self._stop(job_id, worker, JobState.CANCELLED,
                       "cancelled while running")
            return False
        outcome = worker.check()
        if outcome is None:
            return True
        self._settle(job_id, worker, outcome)
        return False

    def _sleep(self, alive: list) -> None:
        """Block until a worker reports or exits, the wake channel is
        written, or the nearest watchdog or backoff deadline falls due."""
        with self._lock:
            if self._pending and len(self._running) < self.max_workers:
                return  # a settle freed a slot: launch before sleeping
            deadlines = [due for due, _ in self._waiting]
        deadlines += [worker.deadline() for _, worker in alive]
        timeout = (min(max(0.0, min(deadlines) - time.monotonic()),
                       _LONGEST_SLEEP) if deadlines else None)
        try:
            connection.wait([self._wake] + [
                handle for _, worker in alive
                for handle in worker.wait_handles()], timeout)
        except Exception:
            # Fail the job whose handles cannot be waited on, not the
            # scheduler.
            for job_id, worker in alive:
                try:
                    connection.wait(worker.wait_handles(), 0)
                except Exception:
                    self._stop(job_id, worker, JobState.FAILED,
                               _scheduler_error())

    def _stop(self, job_id: str, worker: SupervisedWorker, state: str,
              error: str) -> None:
        """Kill and reap a running attempt, and end its job ``state``."""
        with suppress(Exception):
            worker.kill()
            worker.close()
        with self._lock:
            self._running.pop(job_id, None)
            self._cancelling.discard(job_id)
            job = self._jobs[job_id]
            if job.state not in JobState.TERMINAL:
                self._finish_locked(job, state, error=error)

    def _promote_waiting_locked(self) -> None:
        now = time.monotonic()
        due = [entry for entry in self._waiting if entry[0] <= now]
        if due:
            self._waiting = [e for e in self._waiting if e[0] > now]
            for _, job in sorted(due, key=lambda e: e[0]):
                self._pending.append(job)

    def _launch_locked(self) -> None:
        while self._pending and len(self._running) < self.max_workers:
            job = self._pending.popleft()
            if job.state in JobState.TERMINAL:
                continue
            try:
                worker = SupervisedWorker(
                    job.payload, attempt=job.attempts,
                    degraded=job.degraded,
                    bank_dir=(None if self.bank is None
                              else self.bank.directory),
                    heartbeat_timeout=self.heartbeat_timeout,
                    job_timeout=self.job_timeout,
                    start_method=self.start_method)
            except Exception:
                self._finish_locked(job, JobState.FAILED,
                                    error=_scheduler_error())
                continue
            job.state = JobState.RUNNING
            job.attempts += 1
            self._running[job.id] = worker

    def _settle(self, job_id: str, worker: SupervisedWorker,
                outcome: str) -> None:
        """Apply one finished attempt's outcome to its job."""
        if outcome in (WorkerOutcome.STALLED, WorkerOutcome.TIMEOUT):
            worker.kill()
        worker.close()
        with self._lock:
            self._running.pop(job_id, None)
            job = self._jobs[job_id]
            if job.state in JobState.TERMINAL:
                return
            if outcome == WorkerOutcome.DONE:
                meta = {"degraded": job.degraded, "attempts": job.attempts,
                        "crashes": list(job.crashes)}
                if self.bank is not None:
                    self.bank.put(job.key, worker.result, meta=meta)
                job.result_payload = worker.result
                job.meta = meta
                self._finish_locked(job, JobState.SUCCEEDED)
                return
            job.error = worker.error
            if outcome in (WorkerOutcome.CRASH, WorkerOutcome.STALLED,
                           WorkerOutcome.TIMEOUT):
                job.crashes.append({
                    "outcome": outcome, "attempt": job.attempts - 1,
                    "signal": worker.signal, "error": worker.error,
                    "stack": worker.stack, "degraded": job.degraded})
            # Degradation ladder: a signal death on a non-degraded job
            # earns one quarantine retry with the native kernel disabled,
            # over and above the ordinary retry budget.
            if (outcome == WorkerOutcome.CRASH and worker.signal is not None
                    and not job.degraded):
                job.degraded = True
                self._requeue_locked(job)
                return
            if job.attempts <= self.retry.max_retries:
                self._requeue_locked(job)
                return
            self._finish_locked(job, JobState.FAILED)

    def _requeue_locked(self, job: Job) -> None:
        job.state = JobState.PENDING
        delay = self.retry.delay(job.key, job.attempts)
        self._waiting.append((time.monotonic() + delay, job))

    def _finish_locked(self, job: Job, state: str,
                       error: str | None = None) -> None:
        job.state = state
        if error is not None:
            job.error = error
        job.finished_at = time.time()
        job.done.set()

    def _abort_all_locked(self) -> None:
        for job_id, worker in list(self._running.items()):
            worker.kill()
            worker.close()
            self._finish_locked(self._jobs[job_id], JobState.CANCELLED,
                                error="queue shut down")
        self._running.clear()
        for job in list(self._pending) + [j for _, j in self._waiting]:
            if job.state not in JobState.TERMINAL:
                self._finish_locked(job, JobState.CANCELLED,
                                    error="queue shut down")
        self._pending.clear()
        self._waiting.clear()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop the scheduler; cancel whatever has not finished.

        A second call does nothing.
        """
        with self._lock:
            self._shutdown = True
            self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        # No scheduler ever started: settle the books directly.
        with self._lock:
            if self._pending or self._waiting or self._running:
                self._abort_all_locked()
            # A scheduler still alive after the join keeps its channel.
            if self._thread is None or not self._thread.is_alive():
                self._wake.close()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
