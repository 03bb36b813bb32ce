"""Figure 8: Talus is agnostic to the partitioning scheme.

The paper runs Talus on LRU with three partitioning substrates — Vantage
(Talus+V), way partitioning (Talus+W) and idealized partitioning (Talus+I) —
on libquantum and gobmk, and shows that all three closely trace LRU's convex
hull.

This harness is fully trace-driven: for each target size a Talus cache is
built on the requested scheme, configured from the profile's measured LRU
curve (what the UMONs provide in hardware), and the profile's trace is
replayed through it.  Because each point is a real simulation, the default
size grid is coarser than the analytic harnesses.
"""

from __future__ import annotations

import numpy as np

from ..core.talus import talus_miss_curve
from ..sim.engine import talus_sweep_configs
from ..sim.sweep import run_sweep
from ..workloads.spec_profiles import get_profile
from .common import FigureResult, Series, fast_mode, trace_length

__all__ = ["run_fig8", "FIG8_SCHEMES"]

#: Scheme name -> label used in the paper's legend.
FIG8_SCHEMES = {"vantage": "Talus+V/LRU", "way": "Talus+W/LRU",
                "ideal": "Talus+I/LRU"}


def run_fig8(benchmark: str = "libquantum",
             max_mb: float | None = None,
             num_sizes: int | None = None,
             schemes: tuple[str, ...] = ("vantage", "way", "ideal"),
             safety_margin: float = 0.05,
             n_accesses: int | None = None,
             backend: str = "auto") -> FigureResult:
    """Reproduce one panel of Fig. 8 (default: libquantum).

    Returns one series per partitioning scheme plus the LRU curve and its
    convex hull (the target Talus should trace).  Each point is a
    declarative Talus spec; with the default "auto" backend every scheme
    replays on the native fast path when the kernel is available
    (bit-identical to the object model).
    """
    profile = get_profile(benchmark)
    if max_mb is None:
        max_mb = 40.0 if benchmark == "libquantum" else 8.0
    if num_sizes is None:
        num_sizes = 6 if fast_mode() else 11
    n = n_accesses if n_accesses is not None else trace_length()

    sizes_mb = np.linspace(max_mb / num_sizes, max_mb, num_sizes)
    lru = profile.lru_curve(max_mb=max_mb * 1.25, points=81, n_accesses=n)
    hull = talus_miss_curve(lru)

    series = [
        Series("LRU", tuple(float(s) for s in sizes_mb),
               tuple(float(lru(s)) for s in sizes_mb)),
        Series("LRU hull", tuple(float(s) for s in sizes_mb),
               tuple(float(hull(s)) for s in sizes_mb)),
    ]
    # One batched pass: the trace is materialized once and every planned
    # Talus cache of every scheme consumes it — in a single kernel call
    # per point where the scheme rides the array fast path, or in the
    # shared per-access streaming pass otherwise.
    trace = profile.trace(n_accesses=n)
    configs = []
    for scheme in schemes:
        configs.extend(talus_sweep_configs(
            sizes_mb, scheme=scheme, policy="LRU", planning_curve=lru,
            safety_margin=safety_margin, label=scheme, backend=backend))
    sweep = run_sweep(trace, configs)
    summary: dict[str, float] = {}
    for scheme in schemes:
        points = [(s, sweep.mpki((scheme, float(s)))) for s in sizes_mb]
        label = FIG8_SCHEMES.get(scheme, f"Talus+{scheme}")
        series.append(Series(label, tuple(float(s) for s, _ in points),
                             tuple(float(m) for _, m in points)))
        # Mean excess MPKI over the hull (should be small): the paper's
        # "closely traces LRU's convex hull" claim, quantified.
        excess = np.mean([max(0.0, m - float(hull(s))) for s, m in points])
        summary[f"mean_excess_over_hull_{scheme}"] = float(excess)
    summary["mean_lru_minus_hull"] = float(
        np.mean([float(lru(s)) - float(hull(s)) for s in sizes_mb]))
    return FigureResult(figure="Figure 8",
                        title=f"Talus on LRU across partitioning schemes ({benchmark})",
                        series=tuple(series), summary=summary)
