"""Lower convex hulls of miss curves.

Talus traces the *convex hull* of the underlying policy's miss curve
(Theorem 6 of the paper).  The hull of a miss curve is the smallest convex
curve lying on or below it — "the curve produced by stretching a taut rubber
band across the curve from below."

The paper computes hulls with the three-coins algorithm; here we use the
equivalent monotone-chain (Andrew) lower-hull scan, which is also a single
linear pass over the size-sorted points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .misscurve import MissCurve

__all__ = [
    "lower_convex_hull_points",
    "convex_hull",
    "hull_neighbors",
    "is_convex",
    "HullSegment",
    "hull_segments",
]


def _lower_hull(xs: Sequence[float], ys: Sequence[float],
                tolerance: float) -> List[int]:
    """Indices of the lower-hull points of ``(xs[i], ys[i])``, in order.

    One monotone-chain scan over points sorted by strictly increasing
    ``x``.  A point is popped while it is not strictly below the chord
    from the point before it to the new point, i.e. while the z component
    of the cross product ``OA x OB`` (O the second-to-last hull point, A
    the last, B the new point) is at most ``tolerance``; that cross
    product is written out inline.  The scan keeps O's and A's
    coordinates in locals, so a point that pops nothing costs one cross
    product.
    """
    n = len(xs)
    if n < 3:
        return list(range(n))
    hull = [0, 1]
    ox, oy, ax, ay = xs[0], ys[0], xs[1], ys[1]
    for i in range(2, n):
        x, y = xs[i], ys[i]
        while not (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > tolerance:
            hull.pop()
            ax, ay = ox, oy
            if len(hull) == 1:
                break
            o = hull[-2]
            ox, oy = xs[o], ys[o]
        hull.append(i)
        ox, oy, ax, ay = ax, ay, x, y
    return hull


def lower_convex_hull_points(points: Sequence[Tuple[float, float]],
                             tolerance: float = 0.0,
                             ) -> List[Tuple[float, float]]:
    """Return the lower convex hull of ``(x, y)`` points sorted by ``x``.

    The input must be sorted by strictly increasing ``x``.  The output is the
    subset of input points that lie on the lower hull, in increasing ``x``
    order, always including the first and last point.

    Parameters
    ----------
    points:
        ``(x, y)`` pairs with strictly increasing ``x``.
    tolerance:
        Points within ``tolerance`` of a hull edge (by cross-product measure)
        are dropped from the hull, which removes collinear points.  With the
        default ``0.0``, exactly-collinear interior points are removed but
        any point strictly below the chord is kept.
    """
    pts = list(points)
    if len(pts) < 2:
        return list(pts)
    xs = [p[0] for p in pts]
    if any(x2 <= x1 for x1, x2 in zip(xs, xs[1:])):
        raise ValueError("points must have strictly increasing x")
    keep = _lower_hull(xs, [p[1] for p in pts], tolerance)
    return [pts[i] for i in keep]


def convex_hull(curve: MissCurve, tolerance: float = 0.0) -> MissCurve:
    """Return the lower convex hull of a miss curve as a new :class:`MissCurve`.

    The hull is sampled only at its vertex points (the sizes where the
    original curve and the hull coincide); since :class:`MissCurve`
    interpolates linearly, evaluating the returned curve at any size yields
    the hull value there.  One scan over the curve's coordinates picks the
    vertices (the same scan as :func:`lower_convex_hull_points`), and the
    hull is built straight from them: the curve's sizes are already
    sorted.
    """
    keep = _lower_hull(curve.sizes.tolist(), curve.misses.tolist(), tolerance)
    return MissCurve(curve.sizes[keep], curve.misses[keep])


def hull_neighbors(curve: MissCurve, size: float,
                   hull: MissCurve | None = None) -> Tuple[float, float]:
    """Return hull vertices ``(alpha, beta)`` bracketing ``size``.

    ``alpha`` is the largest hull-vertex size that is ``<= size`` and ``beta``
    is the smallest hull-vertex size that is ``> size`` (Theorem 6).  If
    ``size`` is at or beyond the last hull vertex, both are that last vertex
    — the degenerate case where no interpolation is needed.

    ``hull`` is ``convex_hull(curve)`` when the caller already has it (a
    planner that hulls every curve before allocating); it is computed
    here otherwise, and the result is the same either way.

    Raises
    ------
    ValueError
        If ``size`` is below the curve's smallest sampled size.
    """
    if not size >= curve.min_size:      # NaN included: nothing brackets it
        raise ValueError(
            f"size {size} below curve's smallest sample {curve.min_size}")
    if hull is None:
        hull = convex_hull(curve)
    vertices = hull.sizes
    above = int(np.searchsorted(vertices, size, side="right"))
    if above == vertices.size:
        return float(vertices[-1]), float(vertices[-1])
    return float(vertices[above - 1]), float(vertices[above])


def is_convex(curve: MissCurve, tolerance: float = 1e-9) -> bool:
    """Whether a miss curve is convex (slopes non-decreasing), within tolerance.

    Tolerance is relative to the curve's miss-value range, so it is unit
    independent.
    """
    if len(curve) < 3:
        return True
    scale = max(float(curve.misses.max() - curve.misses.min()), 1.0)
    dx = np.diff(curve.sizes)
    dy = np.diff(curve.misses)
    slopes = dy / dx
    return bool(np.all(np.diff(slopes) >= -tolerance * scale))


@dataclass(frozen=True)
class HullSegment:
    """One linear segment of a convex hull.

    Attributes
    ----------
    start_size, end_size:
        Sizes of the two hull vertices the segment connects.
    start_misses, end_misses:
        Miss values at those vertices.
    """

    start_size: float
    end_size: float
    start_misses: float
    end_misses: float

    @property
    def slope(self) -> float:
        """Miss reduction per unit of size along this segment (usually <= 0)."""
        return (self.end_misses - self.start_misses) / (self.end_size - self.start_size)

    @property
    def span(self) -> float:
        """Length of the segment along the size axis."""
        return self.end_size - self.start_size

    def contains(self, size: float) -> bool:
        """Whether ``size`` falls within this segment (inclusive)."""
        return self.start_size <= size <= self.end_size

    def interpolate(self, size: float) -> float:
        """Hull miss value at ``size`` (must lie within the segment)."""
        if not self.contains(size):
            raise ValueError(f"size {size} outside segment "
                             f"[{self.start_size}, {self.end_size}]")
        return self.start_misses + self.slope * (size - self.start_size)


def hull_segments(curve: MissCurve) -> List[HullSegment]:
    """Return the convex hull of ``curve`` as a list of linear segments."""
    hull = convex_hull(curve)
    segments = []
    for i in range(len(hull) - 1):
        segments.append(HullSegment(
            start_size=float(hull.sizes[i]),
            end_size=float(hull.sizes[i + 1]),
            start_misses=float(hull.misses[i]),
            end_misses=float(hull.misses[i + 1]),
        ))
    return segments
