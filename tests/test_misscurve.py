"""Unit tests for repro.core.misscurve."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MissCurve

from .conftest import miss_curves


class TestConstruction:
    def test_basic_construction(self):
        curve = MissCurve([0, 1, 2], [10, 5, 1])
        assert len(curve) == 3
        assert curve.min_size == 0
        assert curve.max_size == 2

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match=r"same length \(2 != 3\)"):
            MissCurve([0, 1], [1, 2, 3])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="sizes must not be empty"):
            MissCurve([], [])

    def test_rejects_negative_sizes(self):
        with pytest.raises(ValueError, match="sizes must be non-negative"):
            MissCurve([-1, 0, 1], [3, 2, 1])
        # Negative and non-increasing: the sign is reported first.
        with pytest.raises(ValueError, match="sizes must be non-negative"):
            MissCurve([0, -2, -1], [3, 2, 1])

    def test_rejects_non_increasing_sizes(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            MissCurve([0, 2, 2], [3, 2, 1])
        with pytest.raises(ValueError, match="strictly increasing"):
            MissCurve([0, 3, 2], [3, 2, 1])

    def test_rejects_negative_misses(self):
        with pytest.raises(ValueError, match="misses must be non-negative"):
            MissCurve([0, 1], [1, -2])

    def test_rejects_nan(self):
        """NaN and +/-inf, in either array, are rejected as non-finite."""
        with pytest.raises(ValueError, match="sizes must contain only finite"):
            MissCurve([0, float("nan")], [1, 2])
        with pytest.raises(ValueError, match="sizes must contain only finite"):
            MissCurve([0, float("inf")], [1, 2])
        with pytest.raises(ValueError,
                           match="misses must contain only finite"):
            MissCurve([0, 1], [float("-inf"), 2])

    def test_rejects_two_dimensional(self):
        with pytest.raises(ValueError, match=r"sizes must be one-dimensional, "
                                             r"got shape \(1, 2\)"):
            MissCurve([[0, 1]], [1, 2])
        with pytest.raises(ValueError, match="misses must be one-dimensional"):
            MissCurve([0, 1], [[1], [2]])

    def test_from_points_sorts(self):
        curve = MissCurve.from_points([(4, 1), (0, 10), (2, 5)])
        assert list(curve.sizes) == [0, 2, 4]
        assert list(curve.misses) == [10, 5, 1]

    def test_from_points_rejects_duplicates(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            MissCurve.from_points([(0, 10), (0, 5)])


class TestStackDistanceConstruction:
    def test_simple_histogram(self):
        # 10 accesses at distance 0, 5 at distance 2, 3 cold misses.
        hist = [10, 0, 5]
        curve = MissCurve.from_stack_distances(hist, cold_misses=3)
        total = 18
        assert curve(0) == total                 # everything misses at size 0
        assert curve(1) == total - 10            # distance-0 accesses hit
        assert curve(3) == 3                     # only cold misses remain
        assert curve(100) == 3                   # flat beyond the histogram

    def test_explicit_sizes(self):
        hist = [4, 4, 4]
        curve = MissCurve.from_stack_distances(hist, cold_misses=0,
                                                sizes=[0, 1.5, 3])
        assert curve.sizes.tolist() == [0, 1.5, 3]
        assert curve(0) == 12
        assert curve(3) == 0

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError,
                           match="histogram counts must be non-negative"):
            MissCurve.from_stack_distances([1, -1])


class TestEvaluation:
    def test_interpolates_linearly(self, example_curve):
        assert example_curve(0.5) == pytest.approx(21.0)
        assert example_curve(4.5) == pytest.approx(7.5)

    def test_clamps_below_and_above(self, example_curve):
        assert example_curve(-0.0) == 24
        assert example_curve(1000) == 3

    def test_vectorized_evaluation(self, example_curve):
        values = example_curve(np.array([0.0, 2.0, 5.0]))
        assert values.tolist() == [24, 12, 3]

    def test_exact_at_sample_points(self, example_curve):
        for size, misses in example_curve:
            assert example_curve(size) == pytest.approx(misses)


class TestTransformations:
    def test_scaled(self, example_curve):
        scaled = example_curve.scaled(size_factor=2, miss_factor=0.5)
        assert scaled.max_size == 20
        assert scaled(4) == pytest.approx(example_curve(2) * 0.5)

    def test_scaled_rejects_bad_factors(self, example_curve):
        with pytest.raises(ValueError, match="size_factor must be positive"):
            example_curve.scaled(size_factor=0)
        with pytest.raises(ValueError,
                           match="miss_factor must be non-negative"):
            example_curve.scaled(miss_factor=-1)

    def test_resampled(self, example_curve):
        resampled = example_curve.resampled([0, 2.5, 7])
        assert len(resampled) == 3
        assert resampled(2.5) == pytest.approx(example_curve(2.5))

    def test_restricted(self, example_curve):
        restricted = example_curve.restricted(4.5)
        assert restricted.max_size == 4.5
        assert restricted(4.5) == pytest.approx(example_curve(4.5))

    def test_restricted_rejects_too_small(self, example_curve):
        with pytest.raises(ValueError, match="below smallest sample"):
            example_curve.restricted(-1.0)

    def test_monotone_envelope(self):
        noisy = MissCurve([0, 1, 2, 3], [10, 6, 7, 2])
        clean = noisy.monotone_envelope()
        assert clean.is_monotone()
        assert clean(2) == 6

    def test_shifted(self, example_curve):
        shifted = example_curve.shifted(1.0)
        assert shifted(0) == 25
        with pytest.raises(ValueError, match="would make miss values negative"):
            example_curve.shifted(-100.0)

    def test_addition(self):
        a = MissCurve([0, 2], [10, 0])
        b = MissCurve([0, 1, 2], [4, 2, 0])
        total = a + b
        assert total(0) == 14
        assert total(1) == pytest.approx(5 + 2)
        assert total(2) == 0

    def test_equality_and_hash(self, example_curve):
        clone = MissCurve(example_curve.sizes.copy(), example_curve.misses.copy())
        assert clone == example_curve
        assert hash(clone) == hash(example_curve)
        assert example_curve != MissCurve([0, 1], [1, 0])


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(curve=miss_curves())
    def test_generated_curves_monotone(self, curve):
        assert curve.is_monotone()

    @settings(max_examples=50, deadline=None)
    @given(curve=miss_curves(), frac=st.floats(0.0, 1.0))
    def test_interpolation_between_samples(self, curve, frac):
        # Any interpolated value lies between the bracketing sample values.
        lo, hi = curve.min_size, curve.max_size
        size = lo + frac * (hi - lo)
        value = curve(size)
        assert curve.misses.min() - 1e-9 <= value <= curve.misses.max() + 1e-9
