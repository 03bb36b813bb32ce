"""Miss-curve drift detection for the online controller.

The streaming controller (:mod:`repro.sim.controller`) needs a scalar
signal that says "this application's miss curve is changing" so it can
shorten its replanning interval during phase changes and lengthen it when
the workload is stable.  :func:`curve_drift` compares two miss-curve
snapshots on the union of their sample grids and returns the normalised
mean absolute difference; :class:`CurveDriftTracker` keeps the previous
snapshot per stream and turns successive snapshots into drift scores.

The score is deliberately simple and fully deterministic: it is a pure
function of the two curves, so native and pure-Python monitor paths that
produce identical curves produce identical drift (pinned by the monitor
parity tests).
"""

from __future__ import annotations

import numpy as np

from ..core.misscurve import MissCurve

__all__ = ["curve_drift", "CurveDriftTracker"]


def curve_drift(previous: MissCurve, current: MissCurve) -> float:
    """Normalised distance between two miss-curve snapshots.

    Both curves are evaluated on the union of their sample grids, one
    array call per curve (the same interpolation, value for value, as
    evaluating each grid point alone); snapshots on one grid (a
    monitor's successive reads) are compared sample by sample, which is
    the same thing evaluated.  The score is the mean absolute
    difference divided by the larger curve's maximum value (0 when both
    curves are identically zero).  The result is in ``[0, 1]`` for curves
    whose values share a scale: 0 means "the curve did not move", 1 means
    "the curve moved by its own full height on average".
    """
    if previous.sizes is current.sizes \
            or np.array_equal(previous.sizes, current.sizes):
        # A grid is its own union, and np.interp at a sample's own size
        # returns that sample exactly.
        prev, curr = previous.misses, current.misses
    else:
        grid = np.union1d(previous.sizes, current.sizes)
        prev = previous(grid)
        curr = current(grid)
    scale = max(float(prev.max(initial=0.0)), float(curr.max(initial=0.0)))
    if scale <= 0.0:
        return 0.0
    return float(np.mean(np.abs(curr - prev)) / scale)


class CurveDriftTracker:
    """Turns a stream of miss-curve snapshots into drift scores.

    ``update(curve)`` returns the drift between ``curve`` and the
    previously seen snapshot (0.0 for the first snapshot), and remembers
    ``curve`` for the next call.  One tracker per monitored stream.  A
    snapshot that *is* the previous one (a reader that memoises curves
    of an unchanged monitor) scores 0.0 without evaluating anything,
    which is what :func:`curve_drift` returns for any curve against
    itself.
    """

    def __init__(self) -> None:
        self._previous: MissCurve | None = None
        self.last_drift: float = 0.0

    def update(self, curve: MissCurve) -> float:
        if self._previous is None or curve is self._previous:
            self.last_drift = 0.0
        else:
            self.last_drift = curve_drift(self._previous, curve)
        self._previous = curve
        return self.last_drift

    def reset(self) -> None:
        """Forget the previous snapshot (e.g. after the stream restarts)."""
        self._previous = None
        self.last_drift = 0.0
