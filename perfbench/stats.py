"""Reducers that turn a run's unit and operation times into metrics.

Interference on a shared host only ever adds time, so the benchmark
reports each time at its fastest: the unit's fastest repetition, each
operation at its fastest across the run's units (every unit replays the
same operations in the same order), and the set-up of the fastest worker.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A reported percentile must have at least this many samples beyond it.
TAIL_SAMPLES = 10


def fastest(times: Sequence[float]) -> float:
    """The fastest of a run's unit times."""
    if not times:
        raise ValueError("no timed units")
    return min(times)


def setup_time(before_warmup: float, warmup: float,
               units: Sequence[float]) -> float:
    """One worker's set-up time.

    The time before its warm-up unit, plus the part of the warm-up unit
    beyond the worker's fastest unit: what filling first-use caches cost.
    The rest of the warm-up is one unit's work, which the timed units
    already price and which would only carry that unit's host noise into
    the set-up time.
    """
    return before_warmup + max(0.0, warmup - fastest(units))


def fastest_per_op(units: Sequence[Sequence[float]]) -> list[float]:
    """Each operation's fastest time across units.

    ``units[u][i]`` is the time of operation ``i`` in unit ``u``; every
    unit must hold the same number of operations.
    """
    if not units:
        raise ValueError("no timed units")
    counts = {len(ops) for ops in units}
    if len(counts) != 1:
        raise ValueError(f"units disagree on their operation count: "
                         f"{sorted(counts)}")
    return [min(times) for times in zip(*units)]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("no values")
    return float(statistics.median(values))


def tail_percentile(samples: Sequence[float], cap: float = 90.0
                    ) -> tuple[float, float, int]:
    """``(percentile, value, count)`` of the slow tail of ``samples``.

    The percentile is the highest nearest-rank percentile up to ``cap``
    that still has :data:`TAIL_SAMPLES` samples beyond it.  With fewer
    than ``TAIL_SAMPLES + 1`` samples no percentile qualifies, and the
    slowest sample is reported as the 100th percentile.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return 100.0, ordered[-1], n
    rank = math.ceil(cap / 100.0 * n)
    if rank <= n - TAIL_SAMPLES:
        return cap, ordered[rank - 1], n
    rank = n - TAIL_SAMPLES
    return 100.0 * rank / n, ordered[rank - 1], n
