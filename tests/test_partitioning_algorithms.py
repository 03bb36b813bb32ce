"""Tests for the software partitioning algorithms and the Talus wrapper
(:func:`repro.sim.reconfigure.plan_shared_allocations`)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MissCurve, convex_hull
from repro.partitioning import (Allocation, PartitioningProblem, fair,
                                hill_climbing, lookahead, optimal_dp,
                                total_misses)
from repro.sim.reconfigure import plan_shared_allocations

from .conftest import miss_curves


def cliff_curve(plateau=10.0, cliff_at=4.0, after=1.0, max_size=8.0):
    """A flat plateau followed by a cliff."""
    return MissCurve([0, cliff_at - 0.01, cliff_at, max_size],
                     [plateau, plateau, after, after])


def convex_curve(scale=10.0, rate=2.0, max_size=8.0):
    sizes = [0, 1, 2, 3, 4, 6, 8]
    return MissCurve(sizes, [scale / (1 + rate * s) for s in sizes])


class TestProblemValidation:
    def test_rejects_bad_inputs(self):
        curve = convex_curve()
        with pytest.raises(ValueError):
            PartitioningProblem(curves=(), total_size=4, granularity=1)
        with pytest.raises(ValueError):
            PartitioningProblem(curves=(curve,), total_size=-1, granularity=1)
        with pytest.raises(ValueError):
            PartitioningProblem(curves=(curve,), total_size=4, granularity=0)
        with pytest.raises(ValueError):
            PartitioningProblem(curves=(curve, curve), total_size=4,
                                granularity=1, minimum=3)

    def test_total_misses_helper(self):
        curve = convex_curve()
        assert total_misses([curve, curve], [0, 0]) == pytest.approx(20.0)
        with pytest.raises(ValueError):
            total_misses([curve], [1, 2])


class TestHillClimbing:
    def test_optimal_on_convex_curves(self):
        curves = (convex_curve(10, 2), convex_curve(20, 1), convex_curve(5, 4))
        problem = PartitioningProblem(curves=curves, total_size=8,
                                      granularity=0.5)
        hill = hill_climbing(problem)
        optimal = optimal_dp(problem)
        assert hill.total_misses == pytest.approx(optimal.total_misses,
                                                  rel=1e-6, abs=1e-6)

    def test_stuck_on_plateau(self):
        # One app with a cliff at 4 MB, one convex app, 4 MB total: hill
        # climbing never crosses the plateau, Lookahead jumps it when that
        # is the better deal.
        curves = (cliff_curve(plateau=20.0, cliff_at=4.0, after=0.0),
                  convex_curve(scale=4.0, rate=0.5))
        problem = PartitioningProblem(curves=curves, total_size=4,
                                      granularity=0.5)
        hill = hill_climbing(problem)
        jump = lookahead(problem)
        assert jump.sizes[0] == pytest.approx(4.0)
        assert hill.sizes[0] < 4.0
        assert jump.total_misses < hill.total_misses

    def test_respects_budget(self):
        curves = (convex_curve(), convex_curve())
        problem = PartitioningProblem(curves=curves, total_size=3,
                                      granularity=0.25)
        result = hill_climbing(problem)
        assert sum(result.sizes) <= 3 + 1e-9


class TestLookahead:
    def test_jumps_cliffs(self):
        curves = (cliff_curve(plateau=30.0, cliff_at=3.0, after=1.0),
                  cliff_curve(plateau=10.0, cliff_at=6.0, after=1.0))
        problem = PartitioningProblem(curves=curves, total_size=6,
                                      granularity=0.5)
        result = lookahead(problem)
        # The high-plateau app's 3 MB jump is the best utility-per-byte.
        assert result.sizes[0] >= 3.0

    def test_matches_optimal_on_small_problems(self):
        curves = (cliff_curve(20, 2, 1, 8), cliff_curve(15, 3, 2, 8),
                  convex_curve(10, 1))
        problem = PartitioningProblem(curves=curves, total_size=6,
                                      granularity=1.0)
        la = lookahead(problem)
        opt = optimal_dp(problem)
        assert la.total_misses <= opt.total_misses * 1.25 + 1e-9


class TestFair:
    def test_equal_allocations(self):
        curves = (convex_curve(), convex_curve(), convex_curve(), convex_curve())
        problem = PartitioningProblem(curves=curves, total_size=8,
                                      granularity=0.5)
        result = fair(problem)
        assert all(s == pytest.approx(2.0) for s in result.sizes)

    def test_leftover_distribution(self):
        curves = (convex_curve(), convex_curve(), convex_curve())
        problem = PartitioningProblem(curves=curves, total_size=8,
                                      granularity=1.0)
        result = fair(problem)
        assert sum(result.sizes) <= 8
        assert max(result.sizes) - min(result.sizes) <= 1.0


class TestOptimalDP:
    def test_beats_or_matches_heuristics(self):
        curves = (cliff_curve(25, 2, 5), convex_curve(12, 1.5),
                  cliff_curve(8, 5, 0.5))
        problem = PartitioningProblem(curves=curves, total_size=7,
                                      granularity=1.0)
        opt = optimal_dp(problem)
        for algorithm in (hill_climbing, lookahead, fair):
            assert opt.total_misses <= algorithm(problem).total_misses + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(curve_a=miss_curves(max_size=16), curve_b=miss_curves(max_size=16))
    def test_dp_never_worse_than_hill(self, curve_a, curve_b):
        problem = PartitioningProblem(curves=(curve_a, curve_b), total_size=8,
                                      granularity=1.0)
        assert optimal_dp(problem).total_misses <= \
            hill_climbing(problem).total_misses + 1e-9


class TestTalusWrapper:
    def test_hill_on_hulls_matches_optimal_on_raw(self):
        # The headline simplification: with Talus, naive hill climbing is as
        # good as (or better than) exhaustive optimization of the raw curves.
        curves = (cliff_curve(25, 3, 1), cliff_curve(18, 5, 2),
                  convex_curve(12, 1.0))
        outcome = plan_shared_allocations(curves, 8, granularity=0.5,
                                          algorithm=hill_climbing)
        problem = PartitioningProblem(curves=curves, total_size=8,
                                      granularity=0.5)
        raw_optimal = optimal_dp(problem)
        assert outcome.total_expected_misses <= raw_optimal.total_misses + 1e-9

    def test_outcome_contents(self):
        curves = (cliff_curve(), convex_curve())
        outcome = plan_shared_allocations(curves, 6, granularity=0.5)
        assert len(outcome.configs) == 2
        assert len(outcome.expected_misses) == 2
        assert sum(outcome.sizes) <= 6 + 1e-9
        for curve, config in zip(curves, outcome.configs):
            assert config.total_size <= 6
        hulls = [convex_hull(c) for c in curves]
        for hull, size, expected in zip(hulls, outcome.sizes,
                                        outcome.expected_misses):
            assert expected == pytest.approx(float(hull(size)), abs=1e-9)

    def test_safety_margin_validation(self):
        with pytest.raises(ValueError):
            plan_shared_allocations((cliff_curve(),), 6, granularity=0.5,
                                    safety_margin=1.0)

    def test_allocation_validation(self):
        with pytest.raises(ValueError):
            Allocation(sizes=(-1.0,), total_misses=0.0, algorithm="x")
