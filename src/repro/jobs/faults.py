"""Deterministic fault injection for the supervised job runtime.

Every recovery path of the runtime — SIGKILLed workers, watchdog-killed
hangs, native-kernel crashes degraded to ``REPRO_NATIVE=0`` — must be
*provable*, which means faults have to fire at exact, repeatable points.
A :class:`FaultPlan` rides along on a job payload (excluded from the
canonical job key and from equality, like an inline trace's addresses)
and the payload calls :meth:`FaultPlan.maybe_fire` at its unit
boundaries; the plan decides, purely from ``(stage, unit index, attempt,
degraded)``, whether to die, hang, or raise right there.

Fault kinds
-----------
``"kill"``
    ``os.kill(self, signal)`` — default SIGKILL: the worker vanishes
    without a traceback, exactly like an OOM kill.
``"hang"``
    Sleep far beyond any watchdog budget; the supervisor must time the
    worker out and kill it.
``"native-crash"``
    SIGSEGV *unless the worker is degraded* — the deterministic stand-in
    for a native-kernel fault: the first attempt dies like a segfaulting
    kernel, the quarantine-retry under ``REPRO_NATIVE=0`` sails through.
``"exception"``
    An ordinary Python error (the boring failure class retries handle).

Plans fire on specific attempts (default: only the first), so a faulted
job's *retry* computes exactly what an unfaulted run computes — which is
what lets the fault suite assert bit-identical results.
"""

from __future__ import annotations

import os
import signal as _signal
import time
from dataclasses import dataclass

__all__ = ["FaultPlan", "FaultInjected", "FAULT_KINDS"]

#: Recognized fault kinds.
FAULT_KINDS = ("kill", "hang", "native-crash", "exception")


class FaultInjected(RuntimeError):
    """The error raised by an ``"exception"``-kind fault."""


@dataclass(frozen=True)
class FaultPlan:
    """When and how a worker should fail, as a pure function of progress.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    stage:
        The boundary label the plan listens on (a job reports
        ``"unit"`` before each of its units, and a churn stream
        ``"event"`` before each of its events).
    index:
        Unit index at which to fire.
    attempts:
        Job attempts (0-based) on which the plan fires; default: only
        the first, so retries recover.
    signal:
        Signal for ``"kill"`` (default SIGKILL).
    hang_seconds:
        Sleep length for ``"hang"`` — far beyond any sane watchdog.
    """

    kind: str
    stage: str = "unit"
    index: int = 0
    attempts: tuple[int, ...] = (0,)
    signal: int = int(_signal.SIGKILL)
    hang_seconds: float = 3600.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: "
                             f"{FAULT_KINDS}")
        object.__setattr__(self, "attempts", tuple(self.attempts))

    def maybe_fire(self, stage: str, index: int, attempt: int,
                   degraded: bool) -> None:
        """Fire the fault if this progress point matches the plan."""
        if stage != self.stage or index != self.index:
            return
        if attempt not in self.attempts:
            return
        if self.kind == "kill":
            os.kill(os.getpid(), self.signal)
            # A SIGKILL never returns; weaker signals may need a beat to
            # be delivered before the unit proceeds.
            time.sleep(5.0)
        elif self.kind == "hang":
            time.sleep(self.hang_seconds)
        elif self.kind == "native-crash":
            if not degraded:
                os.kill(os.getpid(), int(_signal.SIGSEGV))
                time.sleep(5.0)
        elif self.kind == "exception":
            raise FaultInjected(
                f"injected exception at {stage}[{index}] attempt {attempt}")
