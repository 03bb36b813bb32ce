"""Supervised worker processes: one job attempt, one process.

The supervision model is deliberately boring: every job attempt gets a
fresh OS process, a one-way pipe back to the supervisor, and a heartbeat
thread.  A fresh process per attempt is what buys crash isolation — a
native kernel that SIGSEGVs, an allocator blow-up the OOM killer
resolves, a wedged extension loop: all of them take down *the worker*,
and the supervisor reads the verdict off ``exitcode`` instead of
sharing the corpse's address space.

Two watchdog clocks run in the parent (:meth:`SupervisedWorker.check`):

* a **heartbeat timeout** — the worker's daemon beat thread pings every
  :data:`HEARTBEAT_INTERVAL` seconds; silence means the *process* is wedged
  (stop-the-world native hang, livelocked GIL holder);
* a **job timeout** — a hard wall-clock budget per attempt, which also
  catches the case a beat thread would mask: Python-level loops that
  happily heartbeat forever while making no progress.

A worker that dies of a fatal signal leaves the stacks of all its
threads, as :mod:`faulthandler` dumps them, in a per-attempt file; the
supervisor reads it into :attr:`SupervisedWorker.stack`, so the dump
reaches the job's crash record instead of the submitting terminal.

Degraded attempts (the quarantine-retry after a signal death) call
:func:`repro.cache._native.disable_native` *first thing* in the child,
before any simulation code runs, so the retry runs on the object model
end to end — equivalent to ``REPRO_NATIVE=0`` for that process only.
Every ``backend="auto"`` cache then resolves to the object model, which
replays every policy bit for bit like the kernel, so a degraded result
equals the native one.
"""

from __future__ import annotations

import faulthandler
import multiprocessing as mp
import os
import signal
import tempfile
import threading
import time
import traceback
from contextlib import suppress

__all__ = ["SupervisedWorker", "WorkerOutcome", "resolve_start_method"]

_WORKER_START_ENV = "REPRO_JOBS_START"

#: Seconds between a worker's heartbeats.
HEARTBEAT_INTERVAL = 0.1


def resolve_start_method(method: str | None = None) -> str:
    """Pick the multiprocessing start method for workers.

    Explicit argument wins, then ``REPRO_JOBS_START``, then ``fork``
    where available (cheap, and degraded retries reset the inherited
    native-kernel state via :func:`~repro.cache._native.disable_native`),
    else ``spawn``.
    """
    method = method or os.environ.get(_WORKER_START_ENV)
    available = mp.get_all_start_methods()
    if method:
        if method not in available:
            raise ValueError(f"start method {method!r} not available here "
                             f"(have: {', '.join(available)})")
        return method
    return "fork" if "fork" in available else "spawn"


def _worker_main(conn, payload, attempt: int, degraded: bool,
                 bank_dir: str | None, stack_path: str) -> None:
    """Child entry point: execute one payload attempt, report by pipe."""
    # A fatal signal dumps every thread's stack into this attempt's file
    # (the file object stays open for the life of the process).
    faulthandler.enable(open(stack_path, "w"), all_threads=True)
    if degraded:
        # Before any cache code touches the kernel: this attempt is the
        # quarantine retry and must run on the object model.
        from ..cache._native import disable_native
        disable_native()

    lock = threading.Lock()

    def send(message) -> None:
        with lock:
            try:
                conn.send(message)
            except (BrokenPipeError, OSError):
                pass  # supervisor gone; nothing useful left to do

    stop = threading.Event()

    def beat_loop() -> None:
        while not stop.wait(HEARTBEAT_INTERVAL):
            send(("beat", None))

    threading.Thread(target=beat_loop, daemon=True,
                     name="job-heartbeat").start()

    from .bank import ResultBank
    from .payloads import JobContext
    context = JobContext(
        attempt=attempt, degraded=degraded,
        bank=ResultBank(bank_dir) if bank_dir else None,
        beat=lambda: send(("beat", None)),
        fault=getattr(payload, "fault", None))
    try:
        result = payload.execute(context)
    except BaseException:
        send(("error", traceback.format_exc()))
    else:
        send(("done", result))
    finally:
        stop.set()
        with lock:
            try:
                conn.close()
            except OSError:
                pass


class WorkerOutcome:
    """How one worker attempt ended — the supervisor's classification."""

    #: Payload returned a result (carried in :attr:`SupervisedWorker.result`).
    DONE = "done"
    #: Payload raised; traceback in :attr:`SupervisedWorker.error`.
    ERROR = "error"
    #: Process died without reporting — signal or bad exit.
    CRASH = "crash"
    #: Heartbeats stopped arriving for longer than ``heartbeat_timeout``.
    STALLED = "stalled"
    #: Attempt exceeded its hard wall-clock budget.
    TIMEOUT = "timeout"


class SupervisedWorker:
    """One supervised attempt of one job payload.

    The supervisor drives this with :meth:`check` from its scheduling
    loop, which sleeps on :meth:`wait_handles` until :meth:`deadline`;
    a non-``None`` return is the attempt's final classification
    (one of the :class:`WorkerOutcome` constants).  After ``CRASH`` the
    delivered signal, if any, is in :attr:`signal`, and the worker's
    fault-handler dump of every thread, if it wrote one, in
    :attr:`stack`.
    """

    def __init__(self, payload, *, attempt: int = 0, degraded: bool = False,
                 bank_dir: str | os.PathLike | None = None,
                 heartbeat_timeout: float = 30.0,
                 job_timeout: float | None = 600.0,
                 start_method: str | None = None):
        self.payload = payload
        self.attempt = attempt
        self.degraded = degraded
        self.heartbeat_timeout = heartbeat_timeout
        self.job_timeout = job_timeout
        context = mp.get_context(resolve_start_method(start_method))
        self._conn, child_conn = context.Pipe(duplex=False)
        fd, self._stack_path = tempfile.mkstemp(prefix="repro-worker-",
                                                suffix=".stack")
        os.close(fd)
        self.process = context.Process(
            target=_worker_main,
            args=(child_conn, payload, attempt, degraded,
                  None if bank_dir is None else str(bank_dir),
                  self._stack_path),
            daemon=True, name=f"job-worker-a{attempt}")
        self.result = None
        self.error: str | None = None
        self.signal: int | None = None
        self.stack: str | None = None
        self._reported: str | None = None
        self._eof = False
        try:
            self.process.start()
        except BaseException:
            self._conn.close()
            with suppress(OSError):
                os.unlink(self._stack_path)
            raise
        finally:
            child_conn.close()
        self.started = time.monotonic()
        self.last_beat = self.started

    # ------------------------------------------------------------------ #
    def _drain(self) -> None:
        try:
            while self._conn.poll(0):
                kind, value = self._conn.recv()
                self.last_beat = time.monotonic()
                if kind == "done":
                    self._reported = WorkerOutcome.DONE
                    self.result = value
                elif kind == "error":
                    self._reported = WorkerOutcome.ERROR
                    self.error = value
        except (EOFError, OSError):
            # Pipe closed; exitcode is now the source of truth.
            self._eof = True

    def check(self) -> str | None:
        """Classify the attempt, or ``None`` while it is still healthy.

        Order matters: a report that already arrived wins over the exit
        status (a worker that sent ``done`` and then got reaped is a
        success), and death wins over watchdog clocks.
        """
        self._drain()
        if self._reported is not None:
            return self._reported
        exitcode = self.process.exitcode
        if exitcode is not None:
            self._drain()  # the final report may race the exit
            if self._reported is not None:
                return self._reported
            with suppress(OSError), open(self._stack_path) as dump:
                self.stack = dump.read() or None
            if exitcode < 0:
                self.signal = -exitcode
                self.error = (f"worker killed by signal {self.signal} "
                              f"({signal.Signals(self.signal).name})")
            else:
                self.error = f"worker exited with status {exitcode} " \
                             f"without reporting a result"
            return WorkerOutcome.CRASH
        now = time.monotonic()
        if self.job_timeout is not None \
                and now - self.started > self.job_timeout:
            self.error = (f"job exceeded its {self.job_timeout:g}s "
                          f"wall-clock budget")
            return WorkerOutcome.TIMEOUT
        if now - self.last_beat > self.heartbeat_timeout:
            self.error = (f"no heartbeat for {now - self.last_beat:.1f}s "
                          f"(budget {self.heartbeat_timeout:g}s)")
            return WorkerOutcome.STALLED
        return None

    def wait_handles(self) -> list[int]:
        """The fds to sleep on while the attempt runs: the report pipe
        until it reaches EOF, and the process sentinel.

        A pipe at EOF is always readable, so from then on only the
        sentinel can say anything new: that the process is gone.
        """
        if self._eof:
            return [self.process.sentinel]
        return [self._conn.fileno(), self.process.sentinel]

    def deadline(self) -> float:
        """The ``time.monotonic()`` at which :meth:`check` next trips a
        watchdog if the worker reports nothing before then."""
        deadline = self.last_beat + self.heartbeat_timeout
        if self.job_timeout is not None:
            deadline = min(deadline, self.started + self.job_timeout)
        return deadline

    # ------------------------------------------------------------------ #
    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """Hard-stop the worker (SIGKILL); used by watchdog and cancel."""
        try:
            self.process.kill()
        except (ValueError, OSError):
            pass

    def close(self, join_timeout: float = 5.0) -> None:
        """Reap the process, release the pipe, delete the stack file."""
        try:
            self.process.join(timeout=join_timeout)
            if self.process.is_alive():
                self.kill()
                self.process.join(timeout=join_timeout)
            self.process.close()
        except (ValueError, OSError):
            pass
        try:
            self._conn.close()
        except OSError:
            pass
        with suppress(OSError):
            os.unlink(self._stack_path)
