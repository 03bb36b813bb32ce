"""Ablations of the design choices the paper calls out.

Three knobs of the Talus implementation (Sec. VI) get dedicated sweeps:

* **Safety margin on rho** — the paper uses 5 % to keep interval-to-interval
  variation from "pushing beta up the performance cliff".  The ablation
  sweeps the margin and reports simulated miss rates at a mid-plateau size:
  too little margin risks falling off the convex hull, too much gives away
  part of the hull's benefit.
* **Monitor coverage** — the secondary, low-rate UMON extends curve coverage
  beyond the LLC (Sec. VI-C).  Without it Talus cannot see cliffs past the
  LLC size (libquantum) and degenerates to plain LRU there.
* **Vantage unmanaged fraction** — how much of the cache the partitioning
  scheme cannot manage; Futility-Scaling-style schemes make this 0.

A fourth harness checks Corollary 7 (optimal replacement is convex) by
measuring Belady's MIN on a cliffy workload.
"""

from __future__ import annotations

import numpy as np

from ..cache.replacement.belady import belady_miss_curve_points
from ..core.convexhull import convex_hull, is_convex
from ..core.misscurve import MissCurve
from ..core.talus import talus_miss_curve
from ..sim.engine import talus_sweep_configs
from ..sim.sweep import run_sweep
from ..workloads.generators import scan_plus_random
from ..workloads.scale import paper_mb_to_lines
from ..workloads.spec_profiles import get_profile
from .common import FigureResult, Series, trace_length

__all__ = [
    "run_safety_margin_ablation",
    "run_monitor_coverage_ablation",
    "run_unmanaged_fraction_ablation",
    "run_min_convexity_check",
]


def run_safety_margin_ablation(benchmark: str = "omnetpp",
                               target_mb: float = 1.5,
                               margins: tuple[float, ...] = (0.0, 0.02, 0.05,
                                                             0.10, 0.20),
                               n_accesses: int | None = None) -> FigureResult:
    """Sweep the sampling-rate safety margin at a mid-plateau cache size.

    All margin variants are planned up front and the trace is streamed once
    through every planned Talus cache (one batched
    :func:`repro.sim.sweep.run_sweep` pass).
    """
    profile = get_profile(benchmark)
    n = n_accesses if n_accesses is not None else trace_length()
    lru = profile.lru_curve(max_mb=4 * target_mb, points=65, n_accesses=n)
    hull = convex_hull(lru)
    configs = []
    for margin in margins:
        configs.extend(talus_sweep_configs(
            [target_mb], scheme="ideal", planning_curve=lru,
            safety_margin=margin, label=("margin", margin)))
    sweep = run_sweep(profile.trace(n_accesses=n), configs)
    simulated = [sweep.mpki((("margin", margin), float(target_mb)))
                 for margin in margins]
    predicted = [float(talus_miss_curve(lru, sizes=np.array([target_mb]),
                                        safety_margin=margin)(target_mb))
                 for margin in margins]
    x = tuple(float(m) for m in margins)
    series = (
        Series("Talus simulated MPKI", x, tuple(simulated)),
        Series("Talus predicted MPKI", x, tuple(predicted)),
        Series("LRU MPKI", x, tuple(float(lru(target_mb)) for _ in margins)),
        Series("Hull MPKI", x, tuple(float(hull(target_mb)) for _ in margins)),
    )
    summary = {
        "target_mb": float(target_mb),
        "lru_mpki": float(lru(target_mb)),
        "hull_mpki": float(hull(target_mb)),
        "best_margin": float(margins[int(np.argmin(simulated))]),
    }
    return FigureResult(figure="Ablation: safety margin",
                        title=f"{benchmark} at {target_mb:g} MB, margin sweep",
                        series=series, summary=summary)


def run_monitor_coverage_ablation(benchmark: str = "libquantum",
                                  target_mb: float = 8.0,
                                  coverages: tuple[float, ...] = (1.0, 2.0, 4.0),
                                  n_accesses: int | None = None) -> FigureResult:
    """Sweep the miss-curve coverage (as a multiple of the LLC size).

    With coverage 1x (no secondary monitor) the planner cannot see
    libquantum's 32 MB cliff from an 8 MB cache, so Talus has no hull
    segment to interpolate along and delivers LRU's plateau performance;
    with 4x coverage it recovers the proportional hull benefit.
    """
    profile = get_profile(benchmark)
    n = n_accesses if n_accesses is not None else trace_length()
    full = profile.lru_curve(max_mb=48.0, points=97, n_accesses=n)
    predicted = []
    for coverage in coverages:
        visible = full.restricted(target_mb * coverage)
        talus = talus_miss_curve(visible, sizes=np.array([target_mb]))
        predicted.append(float(talus(target_mb)))
    x = tuple(float(c) for c in coverages)
    series = (
        Series("Talus predicted MPKI", x, tuple(predicted)),
        Series("LRU MPKI", x, tuple(float(full(target_mb)) for _ in coverages)),
    )
    summary = {
        "lru_mpki_at_target": float(full(target_mb)),
        "talus_mpki_with_min_coverage": predicted[0],
        "talus_mpki_with_max_coverage": predicted[-1],
    }
    return FigureResult(figure="Ablation: monitor coverage",
                        title=f"{benchmark} at {target_mb:g} MB, coverage sweep",
                        series=series, summary=summary)


def run_unmanaged_fraction_ablation(benchmark: str = "omnetpp",
                                    target_mb: float = 1.5,
                                    fractions: tuple[float, ...] = (0.0, 0.05,
                                                                    0.10, 0.20),
                                    n_accesses: int | None = None) -> FigureResult:
    """Sweep Vantage's unmanaged fraction (0 == Futility-Scaling-like).

    All fraction variants ride one batched trace pass, exactly like the
    safety-margin ablation.
    """
    profile = get_profile(benchmark)
    n = n_accesses if n_accesses is not None else trace_length()
    lru = profile.lru_curve(max_mb=4 * target_mb, points=65, n_accesses=n)
    hull = convex_hull(lru)
    configs = []
    for fraction in fractions:
        if fraction == 0.0:
            scheme = "futility"
            scheme_kwargs = None
        else:
            scheme = "vantage"
            scheme_kwargs = {"unmanaged_fraction": fraction}
        configs.extend(talus_sweep_configs(
            [target_mb], scheme=scheme, planning_curve=lru,
            safety_margin=0.05, scheme_kwargs=scheme_kwargs,
            label=("unmanaged", fraction)))
    sweep = run_sweep(profile.trace(n_accesses=n), configs)
    simulated = [sweep.mpki((("unmanaged", fraction), float(target_mb)))
                 for fraction in fractions]
    x = tuple(float(f) for f in fractions)
    series = (
        Series("Talus simulated MPKI", x, tuple(simulated)),
        Series("Hull MPKI", x, tuple(float(hull(target_mb)) for _ in fractions)),
        Series("LRU MPKI", x, tuple(float(lru(target_mb)) for _ in fractions)),
    )
    summary = {
        "hull_mpki": float(hull(target_mb)),
        "lru_mpki": float(lru(target_mb)),
        "mpki_with_no_unmanaged": simulated[0],
        "mpki_with_max_unmanaged": simulated[-1],
    }
    return FigureResult(figure="Ablation: unmanaged fraction",
                        title=f"{benchmark} at {target_mb:g} MB, unmanaged sweep",
                        series=series, summary=summary)


def run_min_convexity_check(random_mb: float = 0.5, scan_mb: float = 1.0,
                            n_accesses: int = 40_000,
                            num_sizes: int = 8) -> FigureResult:
    """Corollary 7: Belady's MIN has a (near-)convex miss curve.

    LRU on a scan-plus-random workload has a cliff; MIN on the same trace
    does not — its measured curve's total convexity gap is a small fraction
    of LRU's.
    """
    trace = scan_plus_random(paper_mb_to_lines(random_mb),
                             paper_mb_to_lines(scan_mb),
                             n_accesses=n_accesses, random_fraction=0.5, seed=3)
    max_lines = paper_mb_to_lines(random_mb + scan_mb) + 64
    capacities = np.linspace(max_lines / num_sizes, max_lines, num_sizes,
                             dtype=int)
    min_points = belady_miss_curve_points(trace.addresses, capacities)
    min_curve = MissCurve.from_points([(c, m) for c, m in min_points])
    from ..monitor.stack_distance import lru_miss_curve
    lru_curve = lru_miss_curve(trace.addresses,
                               sizes=[float(c) for c in capacities])
    from ..core.convexity import total_convexity_gap
    min_gap = total_convexity_gap(min_curve)
    lru_gap = total_convexity_gap(lru_curve)
    x = tuple(float(c) for c in capacities)
    series = (
        Series("MIN misses", x, tuple(float(m) for _, m in min_points)),
        Series("LRU misses", x, tuple(float(lru_curve(c)) for c in capacities)),
    )
    summary = {
        "min_convexity_gap": float(min_gap),
        "lru_convexity_gap": float(lru_gap),
        "min_is_convex": float(is_convex(min_curve, tolerance=5e-3)),
    }
    return FigureResult(figure="Corollary 7",
                        title="Optimal replacement (MIN) is convex; LRU is not",
                        series=series, summary=summary)
