"""Analytic core performance model: MPKI → IPC → execution time.

The paper measures IPC with detailed OOO core simulation.  Since Talus's
multi-programmed results (Figs. 11–13) are aggregates that depend on IPC
only through each application's miss rate, we use the standard analytic
CPI-stack substitute:

    CPI(mpki) = CPI_core + (mpki / 1000) * penalty
    IPC(mpki) = 1 / CPI(mpki)

``CPI_core`` is the application's compute-bound CPI (``1 / ipc_peak``) and
``penalty`` the average *exposed* stall cycles per LLC miss (memory latency
divided by the application's memory-level parallelism).  Both are per
:class:`~repro.workloads.spec_profiles.AppProfile` parameters.

This preserves monotonicity (fewer misses, more IPC), saturation (an app
with low memory intensity barely moves) and the relative magnitudes that
drive weighted/harmonic speedups — which is what the reproduction targets.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..workloads.spec_profiles import AppProfile

__all__ = ["ipc_from_mpki", "execution_time", "AppPerformance"]


def ipc_from_mpki(profile: AppProfile, mpki: float) -> float:
    """IPC of ``profile`` when its LLC miss rate is ``mpki``."""
    if mpki < 0:
        raise ValueError("mpki must be non-negative")
    cpi = 1.0 / profile.ipc_peak + (mpki / 1000.0) * profile.miss_penalty_cycles
    return 1.0 / cpi


def execution_time(profile: AppProfile, mpki: float,
                   instructions: float = 1e9) -> float:
    """Cycles to execute ``instructions`` at the given miss rate."""
    if instructions <= 0:
        raise ValueError("instructions must be positive")
    return instructions / ipc_from_mpki(profile, mpki)


@dataclass(frozen=True)
class AppPerformance:
    """Per-application outcome of a system-level experiment."""

    name: str
    allocation_mb: float
    mpki: float
    ipc: float
