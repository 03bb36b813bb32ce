"""Simulated system configuration (Table I of the paper), scaled.

The paper's systems: 1 (single-threaded) or 8 (multi-programmed) OOO cores,
32 KB L1s, 128 KB private L2s, and a shared non-inclusive LLC of 1 MB per
core (32-way with way partitioning, or a 4/52 zcache with Vantage), with
200-cycle main memory.

This reproduction keeps the *structure* (core count, LLC size per core, the
memory latency that anchors the IPC model) and scales capacities per
:mod:`repro.workloads.scale`.  The detailed OOO core is replaced by the
analytic model in :mod:`repro.sim.perf_model` (see DESIGN.md for the
substitution rationale).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..workloads.scale import paper_mb_to_lines

__all__ = ["SystemConfig", "SINGLE_THREADED", "MULTI_PROGRAMMED"]


@dataclass(frozen=True)
class SystemConfig:
    """Key parameters of the simulated system.

    Attributes mirror Table I where they matter to the reproduction; timing
    parameters feed the analytic IPC model.
    """

    name: str
    cores: int
    llc_mb_per_core: float
    llc_ways: int
    mem_latency_cycles: float
    vantage_unmanaged_fraction: float = 0.10
    reconfiguration_interval_accesses: int = 50_000
    notes: dict = field(default_factory=dict)

    @property
    def llc_mb(self) -> float:
        """Total LLC capacity in paper MB."""
        return self.cores * self.llc_mb_per_core

    @property
    def llc_lines(self) -> int:
        """Total LLC capacity in simulated lines."""
        return paper_mb_to_lines(self.llc_mb)


#: Single-threaded configuration of Table I (1 core, 1 MB LLC per core).
SINGLE_THREADED = SystemConfig(
    name="single-threaded",
    cores=1,
    llc_mb_per_core=1.0,
    llc_ways=32,
    mem_latency_cycles=200.0,
    notes={"core": "Silvermont-like OOO, replaced by analytic IPC model",
           "l2": "128KB private, modelled as trace filtering in the profiles"},
)

#: Multi-programmed configuration of Table I (8 cores, 8 MB shared LLC).
MULTI_PROGRAMMED = SystemConfig(
    name="multi-programmed",
    cores=8,
    llc_mb_per_core=1.0,
    llc_ways=32,
    mem_latency_cycles=200.0,
)
