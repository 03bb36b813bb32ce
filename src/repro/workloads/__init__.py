"""Workloads: synthetic access streams and SPEC-CPU2006-like profiles."""

from .access import Trace, concatenate, interleave
from .generators import (hot_cold, mixture, scan_plus_random, sequential_scan,
                         strided_scan, uniform_random, zipfian)
from .mixes import WorkloadMix, homogeneous_mix, random_mixes
from .scale import (LINE_SIZE_BYTES, LINES_PER_PAPER_MB, lines_to_paper_mb,
                    paper_mb_to_lines)
from .spec_profiles import (FIG10_BENCHMARKS, FIG13_BENCHMARKS, AppProfile,
                            SPEC_PROFILES, get_profile,
                            memory_intensive_profiles, profile_names)
from .tracestore import TraceStore

__all__ = [
    "Trace",
    "concatenate",
    "interleave",
    "sequential_scan",
    "strided_scan",
    "uniform_random",
    "zipfian",
    "hot_cold",
    "mixture",
    "scan_plus_random",
    "LINE_SIZE_BYTES",
    "LINES_PER_PAPER_MB",
    "paper_mb_to_lines",
    "lines_to_paper_mb",
    "AppProfile",
    "SPEC_PROFILES",
    "get_profile",
    "profile_names",
    "memory_intensive_profiles",
    "FIG10_BENCHMARKS",
    "FIG13_BENCHMARKS",
    "WorkloadMix",
    "random_mixes",
    "homogeneous_mix",
    "TraceStore",
]
