"""Unit and property tests for convex hulls and cliff diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (Cliff, MissCurve, convex_hull, convexity_gap,
                        find_cliffs, hull_neighbors, hull_segments, is_convex,
                        lower_convex_hull_points, total_convexity_gap)

from .conftest import miss_curves


def _cross(o, a, b):
    """Z component of the cross product of vectors OA and OB."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def pointwise_lower_hull(points, tolerance=0.0):
    """The monotone-chain scan over point tuples through :func:`_cross`,
    kept as the exact reference for the inlined scan."""
    hull = []
    for p in points:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= tolerance:
            hull.pop()
        hull.append(p)
    return hull


@st.composite
def piecewise_curves(draw):
    """Curves made of collinear runs (exact on a 1/4 grid, rounded on a
    0.1 or 1/3 grid) ending in a flat tail."""
    step = draw(st.sampled_from([0.1, 0.25, 1 / 3, 1.0]))
    runs = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 5)),
                         min_size=1, max_size=4))
    misses = [100.0]
    for slope, length in runs:
        for _ in range(length):
            misses.append(max(0.0, misses[-1] - slope * step))
    misses += [misses[-1]] * draw(st.integers(0, 4))
    return MissCurve([i * step for i in range(len(misses))], misses)


class TestLowerHullPoints:
    def test_trivial_cases(self):
        assert lower_convex_hull_points([(0, 1)]) == [(0, 1)]
        assert lower_convex_hull_points([(0, 1), (1, 0)]) == [(0, 1), (1, 0)]

    def test_removes_points_above_chord(self):
        pts = [(0, 10), (1, 10), (2, 0)]
        hull = lower_convex_hull_points(pts)
        assert hull == [(0, 10), (2, 0)]

    def test_keeps_points_below_chord(self):
        pts = [(0, 10), (1, 2), (2, 0)]
        hull = lower_convex_hull_points(pts)
        assert hull == [(0, 10), (1, 2), (2, 0)]

    def test_removes_collinear_interior_points(self):
        pts = [(0, 10), (1, 5), (2, 0)]
        assert lower_convex_hull_points(pts) == [(0, 10), (2, 0)]

    def test_rejects_unsorted_x(self):
        with pytest.raises(ValueError):
            lower_convex_hull_points([(1, 0), (0, 1)])


class TestConvexHull:
    def test_example_hull_vertices(self, example_curve):
        hull = convex_hull(example_curve)
        # The plateau (3, 4 MB) and the redundant tail points disappear.
        assert 2.0 in hull.sizes
        assert 5.0 in hull.sizes
        assert 3.0 not in hull.sizes
        assert 4.0 not in hull.sizes

    def test_hull_of_convex_curve_matches_curve(self, convex_curve):
        hull = convex_hull(convex_curve)
        for size in convex_curve.sizes:
            assert hull(size) == pytest.approx(convex_curve(size), abs=1e-9)

    def test_hull_is_convex_and_below(self, example_curve):
        hull = convex_hull(example_curve)
        assert is_convex(hull)
        for size in np.linspace(0, 10, 101):
            assert hull(size) <= example_curve(size) + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(curve=miss_curves())
    def test_hull_properties_hold_generally(self, curve):
        hull = convex_hull(curve)
        assert is_convex(hull, tolerance=1e-7)
        for size in curve.sizes:
            assert hull(size) <= curve(size) + 1e-7
        # Hull and curve agree at both ends.
        assert hull(curve.min_size) == pytest.approx(curve(curve.min_size))
        assert hull(curve.max_size) == pytest.approx(curve(curve.max_size))


class TestHullScanReference:
    """The inlined scan behind :func:`convex_hull` and
    :func:`lower_convex_hull_points` keeps exactly the points of the
    pointwise reference scan."""

    @pytest.mark.parametrize("points", [
        [(0, 10), (1, 8), (2, 6), (3, 4), (4, 2), (5, 0)],
        [(0, 9), (1, 6), (2, 3), (3, 3), (4, 3), (5, 3), (6, 3)],
        [(0, 16), (2, 4), (4, 4), (6, 1), (8, 1)],
        [(0.0, 1.0), (0.1, 0.9), (0.2, 0.8), (0.3, 0.7), (0.7, 0.3),
         (1.0, 0.0)],
    ], ids=["collinear-run", "flat-tail", "plateau-cliff-tail",
            "rounded-collinear"])
    @pytest.mark.parametrize("tolerance", [0.0, 1e-9, 0.5])
    def test_explicit_cases(self, points, tolerance):
        want = pointwise_lower_hull(points, tolerance)
        assert lower_convex_hull_points(points, tolerance) == want
        hull = convex_hull(MissCurve.from_points(points), tolerance)
        assert hull.points() == [(float(x), float(y)) for x, y in want]

    @settings(max_examples=150, deadline=None)
    @given(curve=st.one_of(miss_curves(), piecewise_curves()),
           tolerance=st.sampled_from([0.0, 1e-12, 1e-9, 0.5, 5.0]))
    def test_matches_pointwise_scan(self, curve, tolerance):
        points = curve.points()
        want = pointwise_lower_hull(points, tolerance)
        assert lower_convex_hull_points(points, tolerance) == want
        assert convex_hull(curve, tolerance).points() == want


class TestHullNeighbors:
    def test_bracketing_inside_cliff(self, example_curve):
        alpha, beta = hull_neighbors(example_curve, 4.0)
        assert alpha == 2.0
        assert beta == 5.0

    def test_at_vertex(self, example_curve):
        alpha, beta = hull_neighbors(example_curve, 2.0)
        assert alpha == 2.0
        assert beta == 5.0

    def test_beyond_curve(self, example_curve):
        alpha, beta = hull_neighbors(example_curve, 100.0)
        assert alpha == beta == example_curve.max_size

    def test_below_curve_raises(self):
        curve = MissCurve([1, 2], [5, 1])
        with pytest.raises(ValueError, match="below curve's smallest"):
            hull_neighbors(curve, 0.5)
        with pytest.raises(ValueError, match="below curve's smallest"):
            hull_neighbors(curve, float("nan"))

    @settings(max_examples=60, deadline=None)
    @given(curve=miss_curves(), fraction=st.floats(0.0, 1.2))
    def test_given_hull_changes_nothing(self, curve, fraction):
        size = fraction * curve.max_size
        assert hull_neighbors(curve, size, hull=convex_hull(curve)) == \
            hull_neighbors(curve, size)


class TestIsConvex:
    def test_convex_curve(self, convex_curve):
        assert is_convex(convex_curve)

    def test_cliffy_curve(self, example_curve):
        assert not is_convex(example_curve)

    def test_short_curves_are_convex(self):
        assert is_convex(MissCurve([0, 1], [5, 2]))
        assert is_convex(MissCurve([0], [5]))


class TestHullSegments:
    def test_segments_cover_range(self, example_curve):
        segments = hull_segments(example_curve)
        assert segments[0].start_size == example_curve.min_size
        assert segments[-1].end_size == example_curve.max_size
        for a, b in zip(segments, segments[1:]):
            assert a.end_size == b.start_size

    def test_segment_interpolation(self, example_curve):
        segments = hull_segments(example_curve)
        seg = next(s for s in segments if s.contains(4.0))
        assert seg.interpolate(4.0) == pytest.approx(6.0)
        with pytest.raises(ValueError):
            seg.interpolate(100.0)

    def test_slopes_non_decreasing(self, example_curve):
        segments = hull_segments(example_curve)
        slopes = [s.slope for s in segments]
        assert all(b >= a - 1e-12 for a, b in zip(slopes, slopes[1:]))


class TestCliffDetection:
    def test_example_cliff_found(self, example_curve):
        cliffs = find_cliffs(example_curve)
        assert len(cliffs) == 1
        cliff = cliffs[0]
        assert isinstance(cliff, Cliff)
        assert cliff.start_size == 2.0
        assert cliff.end_size == 5.0
        assert cliff.max_gap == pytest.approx(6.0)   # at 4 MB: 12 vs 6
        assert cliff.drop == pytest.approx(9.0)

    def test_convex_curve_has_no_cliffs(self, convex_curve):
        assert find_cliffs(convex_curve) == []

    def test_convexity_gap(self, example_curve, convex_curve):
        assert convexity_gap(example_curve, 4.0) == pytest.approx(6.0)
        assert convexity_gap(example_curve, 2.0) == pytest.approx(0.0)
        assert convexity_gap(convex_curve, 5.0) == pytest.approx(0.0, abs=1e-9)

    def test_total_gap_zero_iff_convex(self, example_curve, convex_curve):
        assert total_convexity_gap(convex_curve) == pytest.approx(0.0, abs=1e-6)
        assert total_convexity_gap(example_curve) > 1.0

    @settings(max_examples=40, deadline=None)
    @given(curve=miss_curves())
    def test_gap_nonnegative(self, curve):
        for size in curve.sizes:
            assert convexity_gap(curve, float(size)) >= -1e-9
