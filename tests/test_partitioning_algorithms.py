"""Tests for the software partitioning algorithms and the Talus wrapper
(:func:`repro.sim.reconfigure.plan_shared_allocations`)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.convexhull as convexhull_module
import repro.core.talus as talus_module
import repro.sim.reconfigure as reconfigure_module
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


def per_step_hill_climbing(problem):
    """Hill climbing with one scalar curve evaluation per candidate step:
    the exact reference for :func:`hill_climbing`'s ladder evaluation."""
    if problem.minimums is not None:
        sizes = list(problem.minimums)
        budget = problem.total_size - sum(sizes)
    else:
        sizes = [problem.minimum] * problem.num_partitions
        budget = problem.total_size - problem.minimum * problem.num_partitions
    step = problem.granularity
    current_misses = [float(curve(size))
                      for curve, size in zip(problem.curves, sizes)]
    remaining_steps = int(budget / step + 1e-9)
    for _ in range(remaining_steps):
        best_index = -1
        best_gain = -1.0
        for i, curve in enumerate(problem.curves):
            gain = current_misses[i] - float(curve(sizes[i] + step))
            if gain > best_gain + 1e-15:
                best_gain = gain
                best_index = i
        if best_index < 0:
            break
        sizes[best_index] += step
        current_misses[best_index] = float(
            problem.curves[best_index](sizes[best_index]))
    return Allocation(sizes=tuple(sizes),
                      total_misses=total_misses(problem.curves, sizes),
                      algorithm="hill_climbing")


@st.composite
def raw_curves(draw, max_points=12, max_size=64.0):
    """Unconstrained measured curves: any non-negative misses, so cliffs,
    bumps and exact ties all occur."""
    n = draw(st.integers(2, max_points))
    sizes = draw(st.lists(
        st.floats(0.0, max_size).map(lambda v: round(v, 3)),
        min_size=n, max_size=n, unique=True))
    misses = draw(st.lists(
        st.one_of(st.floats(0.0, 100.0), st.integers(0, 4).map(float)),
        min_size=n, max_size=n))
    return MissCurve(sorted(sizes), misses)


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

    @settings(max_examples=150, deadline=None)
    @given(curves=st.lists(st.one_of(miss_curves(), raw_curves()),
                           min_size=1, max_size=5),
           step=st.sampled_from([0.1, 1 / 3, 0.25, 1, 32]),
           data=st.data())
    def test_matches_per_step_reference(self, curves, step, data):
        """Ladder evaluation allocates exactly like one scalar evaluation
        per candidate step: the same sizes (values and types) and the
        same total misses, on convex and cliffy curves, with floors."""
        floors = data.draw(st.one_of(st.none(), st.lists(
            st.sampled_from([0.0, 0.1, 0.3, 1.7, 5]),
            min_size=len(curves), max_size=len(curves))))
        steps = data.draw(st.integers(0, 60))
        slack = data.draw(st.floats(0.0, 0.999))
        total = (sum(floors) if floors else 0.0) + (steps + slack) * step
        problem = PartitioningProblem(
            curves=tuple(curves), total_size=total, granularity=step,
            minimums=None if floors is None else tuple(floors))
        got = hill_climbing(problem)
        want = per_step_hill_climbing(problem)
        assert got.sizes == want.sizes
        assert [type(s) for s in got.sizes] == [type(s) for s in want.sizes]
        assert got.total_misses == want.total_misses

    def test_ladder_rungs_are_running_sums(self):
        """Ten steps of 0.1 reach 0.9999999999999999, not 1.0: partition
        0's cliff sits between the two, so only a ladder built by
        repeated addition grants the eleventh step as the per-step loop
        does (``floor + k * step`` would hand it to partition 1)."""
        below = sum([0.1] * 10)
        assert below < 1.0 and 10 * 0.1 == 1.0
        curves = (MissCurve([0, below, 1.0, 3], [2.0, 1.99, 0.0, 0.0]),
                  MissCurve([0, 3], [1.0, 0.99]))
        problem = PartitioningProblem(curves=curves, total_size=1.1,
                                      granularity=0.1)
        result = hill_climbing(problem)
        assert result.sizes == (sum([0.1] * 11), 0.0)
        assert result == per_step_hill_climbing(problem)

    def test_near_tie_goes_to_lowest_index(self):
        """Partition 1's first gain beats partition 0's by less than the
        1e-15 tie margin: the step stays with partition 0, where a plain
        ``np.argmax`` over the gains would hand it to partition 1."""
        low = 0.5 - 5e-16
        curves = (MissCurve([0, 1], [1.0, 0.5]), MissCurve([0, 1], [1.0, low]))
        gains = [1.0 - 0.5, 1.0 - low]
        assert 0.0 < gains[1] - gains[0] < 1e-15
        assert int(np.argmax(gains)) == 1
        problem = PartitioningProblem(curves=curves, total_size=1,
                                      granularity=1)
        result = hill_climbing(problem)
        assert result.sizes == (1.0, 0.0)
        assert result == per_step_hill_climbing(problem)


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

    def test_hulls_each_curve_once(self, monkeypatch):
        """One plan hulls each curve exactly once: Theorem 6 reuses the
        hulls the allocation was planned on.  Given the hulls, the plan
        computes none and comes out the same."""
        hulled = []

        def counting_hull(curve, *args, **kwargs):
            hulled.append(curve)
            return convex_hull(curve, *args, **kwargs)

        for module in (convexhull_module, talus_module, reconfigure_module):
            monkeypatch.setattr(module, "convex_hull", counting_hull)
        curves = (cliff_curve(25, 3, 1), cliff_curve(18, 5, 2),
                  convex_curve(12, 1.0), cliff_curve(8, 6, 0.5))
        plan = plan_shared_allocations(curves, 8, granularity=0.5,
                                       safety_margin=0.05, conserve=True)
        assert [id(c) for c in hulled] == [id(c) for c in curves]
        assert sum(not config.degenerate for config in plan.configs) >= 1

        hulls = [convex_hull(curve) for curve in curves]
        hulled.clear()
        given = plan_shared_allocations(curves, 8, granularity=0.5,
                                        safety_margin=0.05, conserve=True,
                                        hulls=hulls)
        assert hulled == []
        assert given == plan
        with pytest.raises(ValueError, match="one to one"):
            plan_shared_allocations(curves, 8, granularity=0.5,
                                    hulls=hulls[:-1])

    def test_safety_margin_validation(self):
        with pytest.raises(ValueError):
            plan_shared_allocations((cliff_curve(),), 6, granularity=0.5,
                                    safety_margin=1.0)

    def test_allocation_validation(self):
        with pytest.raises(ValueError):
            Allocation(sizes=(-1.0,), total_misses=0.0, algorithm="x")
