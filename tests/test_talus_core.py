"""Tests for Theorem 4 (sampling), the Talus planner and bypassing analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (MissCurve, TalusConfig, bypass_miss_value, convex_hull,
                        emulated_size, optimal_bypass, optimal_bypass_curve,
                        plan_shadow_partitions, predicted_miss,
                        sampled_miss_curve, sampled_miss_value,
                        shadow_miss_rate, talus_miss_curve)

from .conftest import miss_curves


class TestSamplingTheorem:
    def test_full_sampling_is_identity(self, example_curve):
        for size in example_curve.sizes:
            assert sampled_miss_value(example_curve, size, 1.0) == pytest.approx(
                example_curve(size))

    def test_proportional_sampling(self, example_curve):
        # A partition with rho of the accesses and rho of the capacity
        # behaves like the whole cache scaled by rho (Eq. 1).
        for rho in (0.25, 0.5, 0.75):
            for size in (2.0, 5.0, 8.0):
                assert sampled_miss_value(example_curve, rho * size, rho) == \
                    pytest.approx(rho * example_curve(size))

    def test_zero_rho_requires_zero_size(self, example_curve):
        assert sampled_miss_value(example_curve, 0.0, 0.0) == 0.0
        with pytest.raises(ValueError):
            sampled_miss_value(example_curve, 1.0, 0.0)

    def test_invalid_inputs(self, example_curve):
        with pytest.raises(ValueError):
            sampled_miss_value(example_curve, 1.0, 1.5)
        with pytest.raises(ValueError):
            sampled_miss_value(example_curve, -1.0, 0.5)

    def test_sampled_curve_shape(self, example_curve):
        sampled = sampled_miss_curve(example_curve, 0.5)
        assert sampled.max_size == pytest.approx(example_curve.max_size * 0.5)
        assert sampled(0) == pytest.approx(example_curve(0) * 0.5)

    def test_emulated_size(self):
        assert emulated_size(2.0, 0.5) == 4.0
        with pytest.raises(ValueError):
            emulated_size(2.0, 0.0)

    def test_shadow_miss_rate_matches_paper_example(self, example_curve):
        # rho = 1/3, s1 = 2/3 MB, total 4 MB -> 6 MPKI (Sec. IV).
        value = shadow_miss_rate(example_curve, 4.0, s1=2.0 / 3.0, rho=1.0 / 3.0)
        assert value == pytest.approx(6.0)

    def test_shadow_miss_rate_validation(self, example_curve):
        with pytest.raises(ValueError):
            shadow_miss_rate(example_curve, 4.0, s1=5.0, rho=0.5)
        with pytest.raises(ValueError):
            shadow_miss_rate(example_curve, -1.0, s1=0.0, rho=0.5)


class TestPlanner:
    def test_paper_worked_example(self, example_curve):
        config = plan_shadow_partitions(example_curve, 4.0)
        assert config.alpha == pytest.approx(2.0)
        assert config.beta == pytest.approx(5.0)
        assert config.rho == pytest.approx(1.0 / 3.0)
        assert config.s1 == pytest.approx(2.0 / 3.0)
        assert config.s2 == pytest.approx(10.0 / 3.0)
        assert not config.degenerate
        assert predicted_miss(example_curve, config) == pytest.approx(6.0)
        alpha_emulated, beta_emulated = config.emulated_sizes()
        assert alpha_emulated == pytest.approx(2.0)
        assert beta_emulated == pytest.approx(5.0)

    def test_degenerate_at_hull_vertex(self, example_curve):
        config = plan_shadow_partitions(example_curve, 5.0)
        assert config.degenerate
        assert config.rho == 0.0
        assert config.s2 == pytest.approx(5.0)
        assert predicted_miss(example_curve, config) == pytest.approx(3.0)

    def test_degenerate_beyond_curve(self, example_curve):
        config = plan_shadow_partitions(example_curve, 50.0)
        assert config.degenerate

    def test_convex_curve_always_degenerate(self, convex_curve):
        for size in (1.0, 4.0, 8.0):
            config = plan_shadow_partitions(convex_curve, size)
            # Hull vertices are dense on a convex curve, so interpolation can
            # only happen between adjacent sample points: the predicted miss
            # equals the curve's own value.
            assert predicted_miss(convex_curve, config) == pytest.approx(
                float(convex_curve(size)), rel=1e-6)

    def test_below_curve_raises(self):
        curve = MissCurve([2, 5], [10, 1])
        with pytest.raises(ValueError):
            plan_shadow_partitions(curve, 1.0)

    def test_safety_margin_increases_rho(self, example_curve):
        base = plan_shadow_partitions(example_curve, 4.0)
        margin = plan_shadow_partitions(example_curve, 4.0, safety_margin=0.05)
        assert margin.rho > base.rho
        assert margin.s1 + margin.s2 == pytest.approx(4.0)
        with pytest.raises(ValueError):
            plan_shadow_partitions(example_curve, 4.0, safety_margin=1.5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TalusConfig(total_size=4, alpha=2, beta=5, rho=1.5, s1=1, s2=3)
        with pytest.raises(ValueError):
            TalusConfig(total_size=4, alpha=2, beta=5, rho=0.5, s1=3, s2=3)

    @settings(max_examples=60, deadline=None)
    @given(curve=miss_curves(), frac=st.floats(0.0, 1.2),
           margin=st.sampled_from([0.0, 0.05]))
    def test_given_hull_changes_nothing(self, curve, frac, margin):
        """Passing the curve's hull only saves hulling it again."""
        size = curve.min_size + frac * (curve.max_size - curve.min_size)
        assert plan_shadow_partitions(curve, size, safety_margin=margin,
                                      hull=convex_hull(curve)) == \
            plan_shadow_partitions(curve, size, safety_margin=margin)

    def test_talus_curve_equals_hull(self, example_curve):
        talus = talus_miss_curve(example_curve)
        hull = convex_hull(example_curve)
        for size in example_curve.sizes:
            assert talus(size) == pytest.approx(hull(size), abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(curve=miss_curves(), frac=st.floats(0.0, 1.0))
    def test_lemma5_interpolation_property(self, curve, frac):
        """Talus's predicted miss linearly interpolates m(alpha)..m(beta)."""
        size = curve.min_size + frac * (curve.max_size - curve.min_size)
        config = plan_shadow_partitions(curve, size)
        predicted = predicted_miss(curve, config)
        if config.degenerate:
            assert predicted == pytest.approx(float(curve(size)), abs=1e-7)
        else:
            alpha_miss = float(curve(config.alpha))
            beta_miss = float(curve(config.beta))
            weight = (config.beta - size) / (config.beta - config.alpha)
            expected = weight * alpha_miss + (1 - weight) * beta_miss
            assert predicted == pytest.approx(expected, rel=1e-6, abs=1e-7)
            # Never worse than the original curve.
            assert predicted <= float(curve(size)) + 1e-7


class TestBypass:
    def test_eq6_formula(self, example_curve):
        value = bypass_miss_value(example_curve, 4.0, 0.8)
        assert value == pytest.approx(0.8 * example_curve(5.0)
                                      + 0.2 * example_curve(0.0))

    def test_no_bypass_is_identity(self, example_curve):
        assert bypass_miss_value(example_curve, 4.0, 1.0) == pytest.approx(12.0)

    def test_full_bypass(self, example_curve):
        assert bypass_miss_value(example_curve, 4.0, 0.0) == pytest.approx(24.0)

    def test_optimal_bypass_paper_example(self, example_curve):
        choice = optimal_bypass(example_curve, 4.0)
        assert choice.rho == pytest.approx(0.8)
        assert choice.misses == pytest.approx(7.2)
        assert choice.target_size == pytest.approx(5.0)
        assert choice.bypass_fraction == pytest.approx(0.2)

    def test_optimal_bypass_never_worse_than_original(self, example_curve):
        for size in example_curve.sizes:
            choice = optimal_bypass(example_curve, float(size))
            assert choice.misses <= float(example_curve(size)) + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(curve=miss_curves(), frac=st.floats(0.0, 1.0))
    def test_corollary8_bypass_never_beats_hull(self, curve, frac):
        size = curve.min_size + frac * (curve.max_size - curve.min_size)
        hull = convex_hull(curve)
        choice = optimal_bypass(curve, size)
        assert choice.misses >= float(hull(size)) - 1e-7

    def test_bypass_curve_between_curve_and_hull(self, example_curve):
        bypass = optimal_bypass_curve(example_curve)
        hull = convex_hull(example_curve)
        for size in example_curve.sizes:
            assert float(hull(size)) - 1e-9 <= float(bypass(size)) \
                <= float(example_curve(size)) + 1e-9

    def test_invalid_inputs(self, example_curve):
        with pytest.raises(ValueError):
            bypass_miss_value(example_curve, -1.0, 0.5)
        with pytest.raises(ValueError):
            bypass_miss_value(example_curve, 1.0, 2.0)
        with pytest.raises(ValueError):
            optimal_bypass(example_curve, -1.0)
