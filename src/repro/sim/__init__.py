"""System-level simulation: drivers, performance model, multi-core experiments."""

from .config import MULTI_PROGRAMMED, SINGLE_THREADED, SystemConfig
from .engine import (lru_mpki_curve, simulate_policy_at_size,
                     simulated_mpki_curve, talus_simulated_mpki_curve)
from .sweep import SweepConfig, SweepResult, SweepSpec, run_sweep
from .metrics import (coefficient_of_variation, gmean, harmonic_speedup,
                      weighted_speedup)
from .mixsweep import (ALGORITHMS, MixRunRecord, MixSweepResult, MixSweepSpec,
                       mix_trace_seed, run_mix_sweep)
from .controller import (AccessBatch, AppArrive, AppDepart, BatchRecord,
                         ControllerResult, OnlineTalusController,
                         QosInfeasibleError, QosPolicy, QosUpdate,
                         ReplanRecord)
from .multicore import (SCHEMES, ChurnSpec, MixResult,
                        ReconfiguringSharedRun, SharedCacheExperiment,
                        SharedIntervalRecord, churn_events, run_churn,
                        shared_cache_equilibrium)
from .perf_model import AppPerformance, execution_time, ipc_from_mpki
from .reconfigure import SharedPlan, plan_shared_allocations

__all__ = [
    "SystemConfig",
    "SINGLE_THREADED",
    "MULTI_PROGRAMMED",
    "lru_mpki_curve",
    "simulated_mpki_curve",
    "simulate_policy_at_size",
    "talus_simulated_mpki_curve",
    "SweepSpec",
    "SweepConfig",
    "SweepResult",
    "run_sweep",
    "weighted_speedup",
    "harmonic_speedup",
    "coefficient_of_variation",
    "gmean",
    "ipc_from_mpki",
    "execution_time",
    "AppPerformance",
    "SharedCacheExperiment",
    "MixResult",
    "SCHEMES",
    "shared_cache_equilibrium",
    "ReconfiguringSharedRun",
    "SharedIntervalRecord",
    "MixSweepSpec",
    "MixRunRecord",
    "MixSweepResult",
    "run_mix_sweep",
    "mix_trace_seed",
    "ALGORITHMS",
    "OnlineTalusController",
    "ControllerResult",
    "QosPolicy",
    "QosInfeasibleError",
    "AppArrive",
    "AppDepart",
    "QosUpdate",
    "AccessBatch",
    "BatchRecord",
    "ReplanRecord",
    "ChurnSpec",
    "churn_events",
    "run_churn",
    "SharedPlan",
    "plan_shared_allocations",
]
