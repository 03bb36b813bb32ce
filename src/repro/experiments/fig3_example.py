"""Figures 2 and 3: the worked example of Section III.

An application accesses 2 MB of data at random and 3 MB sequentially, at
24 APKI.  Its LRU miss curve declines until the random set fits, stays flat
at 12 MPKI, and drops to 3 MPKI once everything fits at 5 MB.  At a 4 MB
cache Talus picks alpha = 2 MB, beta = 5 MB, rho = 1/3, shadow sizes
2/3 MB and 10/3 MB, and achieves 6 MPKI instead of 12 (Fig. 2c).

Two variants are provided:

* :func:`paper_example_curve` — the idealized curve with exactly the
  paper's numbers (used by the unit tests to check the math verbatim);
* :func:`run_fig3` — the same experiment end to end on a generated
  scan-plus-random trace, including a trace-driven simulation of the Talus
  cache at 4 MB, showing the 12 → ~6 MPKI reduction on a real access
  stream.
"""

from __future__ import annotations

import numpy as np

from ..core.misscurve import MissCurve
from ..core.talus import plan_shadow_partitions, predicted_miss, talus_miss_curve
from ..workloads.generators import scan_plus_random
from ..workloads.scale import paper_mb_to_lines
from .common import FigureResult, Series, trace_length

__all__ = ["paper_example_curve", "run_fig3"]


def paper_example_curve() -> MissCurve:
    """The idealized Sec. III miss curve: 24 MPKI at 0, 12 at 2 MB, 3 at 5 MB.

    Between 0 and 2 MB the curve declines linearly (the random component),
    it is flat from 2 to 5 MB (the plateau), and drops to 3 MPKI at 5 MB
    (the cliff), staying flat afterwards.
    """
    sizes = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0]
    misses = [24.0, 18.0, 12.0, 12.0, 12.0, 3.0, 3.0, 3.0, 3.0]
    return MissCurve(sizes, misses)


def run_fig3(target_mb: float = 4.0, apki: float = 24.0,
             n_accesses: int | None = None, seed: int = 0) -> FigureResult:
    """Reproduce the Sec. III example end to end.

    Returns the original LRU curve, the Talus curve (its convex hull), and a
    summary containing the planned configuration (alpha, beta, rho, shadow
    sizes) and both the predicted and the *simulated* MPKI of a Talus cache
    at ``target_mb``.
    """
    n = n_accesses if n_accesses is not None else trace_length()
    trace = scan_plus_random(random_lines=paper_mb_to_lines(2.0),
                             scan_lines=paper_mb_to_lines(3.0),
                             n_accesses=n, random_fraction=0.5,
                             apki=apki, seed=seed)
    from ..sim.engine import lru_mpki_curve
    sizes_mb = np.linspace(0.0, 10.0, 41)
    lru = lru_mpki_curve(trace, sizes_mb)
    talus = talus_miss_curve(lru)

    config = plan_shadow_partitions(lru, target_mb)
    predicted = predicted_miss(lru, config)

    # Trace-driven validation: program an ideal 2-partition cache with the
    # planned shadow sizes and replay the trace through the Talus wrapper,
    # going through the same sweep engine the figure harnesses use.
    from ..sim.engine import talus_sweep_configs
    from ..sim.sweep import run_sweep
    sweep = run_sweep(trace, talus_sweep_configs(
        [target_mb], scheme="ideal", planning_curve=lru, safety_margin=0.0))
    simulated_mpki = sweep.mpki(("talus", float(target_mb)))

    sizes = tuple(float(s) for s in lru.sizes)
    series = (
        Series("Original (LRU)", sizes, tuple(float(m) for m in lru.misses)),
        Series("Talus", sizes, tuple(float(m) for m in talus.misses)),
    )
    summary = {
        "alpha_mb": config.alpha,
        "beta_mb": config.beta,
        "rho": config.rho,
        "s1_mb": config.s1,
        "s2_mb": config.s2,
        "lru_mpki_at_target": float(lru(target_mb)),
        "talus_predicted_mpki_at_target": float(predicted),
        "talus_simulated_mpki_at_target": float(simulated_mpki),
    }
    return FigureResult(figure="Figure 3",
                        title="Sec. III worked example (scan + random, cliff at 5 MB)",
                        series=series, summary=summary)
