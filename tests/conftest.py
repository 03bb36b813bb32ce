"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.cache._native import native_available
from repro.core import MissCurve
from repro.core.misscurve import mattson_misses

#: Marks a test that builds array caches (``Array*`` classes or
#: ``backend="array"``) directly: they have no replay path without the
#: native kernel.  Everything built with ``backend="auto"`` runs on the
#: object model instead and needs no mark.
needs_kernel = pytest.mark.skipif(
    not native_available(),
    reason="builds array caches directly, which need the native kernel")


@pytest.fixture
def example_curve() -> MissCurve:
    """The Sec. III worked-example curve (plateau at 12 MPKI, cliff at 5 MB)."""
    return MissCurve([0, 1, 2, 3, 4, 5, 6, 8, 10],
                     [24, 18, 12, 12, 12, 3, 3, 3, 3])


@pytest.fixture
def convex_curve() -> MissCurve:
    """A strictly convex miss curve."""
    sizes = np.linspace(0, 16, 33)
    misses = 20.0 * np.exp(-sizes / 4.0)
    return MissCurve(sizes, misses)


def miss_curves(min_points: int = 3, max_points: int = 12,
                max_size: float = 64.0, max_miss: float = 100.0):
    """Hypothesis strategy generating monotone non-increasing miss curves."""

    @st.composite
    def _curves(draw):
        n = draw(st.integers(min_points, max_points))
        # Sizes are quantized to a 1e-6 grid: raw unique floats can land
        # within float-rounding distance of each other, creating cliffs
        # narrower than the arithmetic error of the Eq. 1/2 emulated-size
        # computations the properties exercise (a measured curve's sample
        # spacing is many orders of magnitude wider than either).
        raw_sizes = draw(st.lists(
            st.floats(0.125, max_size, allow_nan=False,
                      allow_infinity=False).map(lambda v: round(v, 6)),
            min_size=n, max_size=n, unique=True))
        sizes = [0.0] + sorted(raw_sizes)
        drops = draw(st.lists(
            st.floats(0.0, max_miss / n, allow_nan=False, allow_infinity=False),
            min_size=n, max_size=n))
        start = draw(st.floats(1.0, max_miss, allow_nan=False,
                               allow_infinity=False))
        misses = [start]
        for d in drops:
            misses.append(max(0.0, misses[-1] - d))
        return MissCurve(sizes, misses)

    return _curves()


def per_half_combined_curve(combined, sizes=None) -> MissCurve:
    """:meth:`CombinedUMON.miss_curve` rebuilt from the Mattson oracle:
    each monitor's misses are :func:`mattson_misses` over its whole
    :meth:`IncrementalStackMonitor.histogram`, scaled by its rate, then
    the halves are spliced and enveloped.  The exact reference for the
    bounded reads (default grid when ``sizes`` is None)."""
    if sizes is None:
        sizes = np.linspace(0, combined.max_size,
                            2 * combined.primary.points)
    sizes = np.asarray(sizes, dtype=float)
    parts, misses = [], []
    for monitor, part in ((combined.primary,
                           sizes[sizes <= combined.llc_size]),
                          (combined.secondary,
                           sizes[sizes > combined.llc_size])):
        if not part.size:
            continue
        folded = monitor._folded()
        sampled = mattson_misses(folded.histogram(), folded.cold_misses,
                                 part * monitor.sampling_rate)
        scale = (1.0 / monitor.sampling_rate if monitor.sampled_accesses
                 else 1.0)
        parts.append(part)
        misses.append(np.minimum(sampled * scale, monitor.total_accesses))
    return MissCurve(np.concatenate(parts),
                     np.minimum.accumulate(np.concatenate(misses)))
