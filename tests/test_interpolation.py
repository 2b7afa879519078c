import math

import numpy as np
import pytest

from smoothgame.interpolation import (
    DuplicateKnotError,
    SamplePoint,
    SampleSet,
    action_increment,
    eval_interpolant,
    feasible_reply_interval,
    h_potential,
    nearest_gap,
    q_action,
    slope_at,
)


def S(*pairs):
    return SampleSet.from_pairs(pairs)


class TestSampleSet:
    def test_insert_into_empty(self):
        s = SampleSet().insert(0.5, 0.3)
        assert list(s) == [(0.5, 0.3)]

    def test_insert_reorders(self):
        s = S((0.2, 0.0)).insert(0.1, 1.0)
        assert list(s) == [(0.1, 1.0), (0.2, 0.0)]

    def test_duplicate_u_rejected(self):
        with pytest.raises(DuplicateKnotError):
            S((0.2, 0.0)).insert(0.2, 5.0)

    def test_u_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            SamplePoint(1.5, 0.0)
        with pytest.raises(ValueError):
            SamplePoint(-0.1, 0.0)

    def test_nonfinite_v_rejected(self):
        with pytest.raises(ValueError):
            SamplePoint(0.5, math.inf)

    def test_from_pairs_sorts(self):
        s = S((0.9, 1.0), (0.1, 2.0), (0.5, 3.0))
        assert s.us == (0.1, 0.5, 0.9)


class TestEval:
    def test_segment_midpoint(self):
        assert eval_interpolant(S((0.25, 0.5), (0.75, 0.0)), 0.5) == pytest.approx(0.25)

    def test_constant_extension_right(self):
        assert eval_interpolant(S((0.3, 0.7)), 0.9) == 0.7

    def test_constant_extension_left(self):
        assert eval_interpolant(S((0.3, 0.7), (0.8, -1.0)), 0.1) == 0.7

    def test_empty_set_is_zero(self):
        assert eval_interpolant(SampleSet(), 0.4) == 0.0

    def test_domain_check(self):
        with pytest.raises(ValueError):
            eval_interpolant(SampleSet(), 1.2)

    def test_knots_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = rng.integers(1, 10)
            us = np.sort(rng.choice(np.linspace(0, 1, 1000), size=m, replace=False))
            vs = rng.normal(size=m)
            s = SampleSet(us, vs)
            for u, v in s:
                assert eval_interpolant(s, u) == v


class TestSlopeAndGap:
    def test_unit_segment(self):
        assert slope_at(S((0, 0), (1, 1)), 0.5) == 1.0

    def test_constant_extension_slope(self):
        assert slope_at(S((0.3, 0.7)), 0.1) == 0.0

    def test_hand_segment_slope(self):
        assert slope_at(S((0, 0), (0.5, 1), (1, 1)), 0.25) == pytest.approx(2.0)

    def test_knot_slope_errors(self):
        with pytest.raises(ValueError):
            slope_at(S((0.5, 1.0)), 0.5)

    def test_nearest_gap_values(self):
        assert nearest_gap(S((0, 0), (1, 1)), 0.25) == 0.25
        assert nearest_gap(S((0.5, 0)), 0.5) == 0.0
        assert nearest_gap(S((0.1, 0), (0.9, 0)), 0.3) == pytest.approx(0.2)

    def test_nearest_gap_empty_errors(self):
        with pytest.raises(ValueError):
            nearest_gap(SampleSet(), 0.5)


class TestAction:
    def test_unit_slope(self):
        assert q_action(S((0, 0), (1, 1)), 2) == pytest.approx(1.0)

    def test_total_variation_at_one(self):
        assert q_action(S((0, 0), (0.5, 0.5), (1, 0)), 1) == pytest.approx(1.0)

    def test_half_segment(self):
        assert q_action(S((0, 0), (0.5, 1)), 2) == pytest.approx(2.0)

    def test_small_sets_are_zero(self):
        assert q_action(SampleSet(), 2) == 0.0
        assert q_action(S((0.5, 3.0)), 2) == 0.0

    def test_sup_norm_marker(self):
        s = S((0, 0), (0.5, 1), (1, 1.2))
        assert q_action(s, math.inf) == pytest.approx(2.0)

    def test_riemann_oracle(self):
        # independent check: finite differences on a dense grid
        rng = np.random.default_rng(1)
        for _ in range(10):
            m = rng.integers(2, 8)
            us = np.sort(rng.uniform(0, 1, m))
            while np.min(np.diff(us)) < 0.02:
                us = np.sort(rng.uniform(0, 1, m))
            vs = rng.normal(size=m) * 0.5
            s = SampleSet(us, vs)
            q = float(rng.uniform(1, 3))
            grid = np.linspace(0, 1, 200_001)
            f = np.interp(grid, us, vs)
            riemann = np.sum(np.abs(np.diff(f)) ** q / (grid[1] - grid[0]) ** (q - 1))
            assert q_action(s, q) == pytest.approx(riemann, rel=1e-3, abs=1e-9)

    def test_increment_matches_full_recompute(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m = rng.integers(1, 8)
            us = np.sort(rng.choice(np.linspace(0, 1, 997), size=m, replace=False))
            vs = rng.normal(size=m)
            s = SampleSet(us, vs)
            q = float(rng.uniform(1, 4))
            x = float(rng.uniform())
            if s.contains_u(x):
                continue
            y = float(rng.normal())
            inc = action_increment(s, x, y, q)
            after = q_action(s.insert(x, y), q)
            full = after - q_action(s, q)
            # the full-recompute oracle loses digits subtracting large totals
            assert inc == pytest.approx(full, abs=1e-9 * max(1.0, after))

    def test_minimality_of_interpolant(self):
        # any denser set through the same points has at least this action
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = rng.integers(2, 6)
            us = np.sort(rng.choice(np.linspace(0.01, 0.99, 500), size=m, replace=False))
            vs = rng.normal(size=m) * 0.4
            s = SampleSet(us, vs)
            q = float(rng.uniform(1, 3))
            dense = s
            for _ in range(rng.integers(1, 6)):
                x = float(rng.uniform())
                if dense.contains_u(x):
                    continue
                dense = dense.insert(x, float(rng.normal() * 0.4))
            assert q_action(dense, q) >= q_action(s, q) - 1e-12

    def test_power_mean_nesting(self):
        # with support length <= 1, action^(1/q) grows with q
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = rng.integers(2, 8)
            us = np.sort(rng.uniform(0, 1, m))
            while np.min(np.diff(us)) < 0.01:
                us = np.sort(rng.uniform(0, 1, m))
            vs = rng.normal(size=m) * 0.3
            s = SampleSet(us, vs)
            q1 = float(rng.uniform(1, 2.5))
            q2 = q1 + float(rng.uniform(0.1, 2))
            a1 = q_action(s, q1) ** (1.0 / q1)
            a2 = q_action(s, q2) ** (1.0 / q2)
            assert a1 <= a2 + 1e-9

    def test_range_bound_in_unit_class(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = rng.integers(2, 8)
            us = np.sort(rng.uniform(0, 1, m))
            while np.min(np.diff(us)) < 0.01:
                us = np.sort(rng.uniform(0, 1, m))
            vs = rng.normal(size=m)
            s = SampleSet(us, vs)
            q = float(rng.uniform(1, 3))
            action = q_action(s, q)
            if action > 0:
                scale = (rng.uniform(0.2, 1.0) / action) ** (1.0 / q)
                s = SampleSet(us, vs * scale)
            assert q_action(s, q) <= 1 + 1e-12
            assert max(s.vs) - min(s.vs) <= 1 + 1e-9


class TestHPotential:
    def test_full_gap_zeroes_factor(self):
        assert h_potential(S((0, 0), (1, 1)), 2) == pytest.approx(0.0)

    def test_half_gap(self):
        assert h_potential(S((0, 0), (0.5, 0.5)), 2) == pytest.approx(0.25)

    def test_two_segments(self):
        assert h_potential(S((0, 0), (0.25, 0.25), (0.5, 0.5)), 2) == pytest.approx(0.375)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            h_potential(S((0.5, 1.0)), 2)

    def test_bounds_under_unit_variation(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            m = rng.integers(2, 10)
            us = np.sort(rng.uniform(0, 1, m))
            while np.min(np.diff(us)) < 0.001:
                us = np.sort(rng.uniform(0, 1, m))
            dv = rng.normal(size=m - 1)
            dv *= rng.uniform(0.1, 1.0) / np.sum(np.abs(dv))
            vs = np.concatenate([[0.0], np.cumsum(dv)])
            s = SampleSet(us, vs)
            assert q_action(s, 1) <= 1 + 1e-12
            p = float(rng.uniform(1, 4))
            assert -1e-12 <= h_potential(s, p) <= 1 + 1e-12


class TestFeasibleInterval:
    def test_far_point_unit_budget(self):
        box = feasible_reply_interval(S((0, 0)), 1.0, 2, 1.0)
        assert box.lo == pytest.approx(-1.0, abs=1e-9)
        assert box.hi == pytest.approx(1.0, abs=1e-9)

    def test_near_point_unit_budget(self):
        box = feasible_reply_interval(S((0, 0)), 0.25, 2, 1.0)
        assert box.lo == pytest.approx(-0.5, abs=1e-9)
        assert box.hi == pytest.approx(0.5, abs=1e-9)

    def test_empty_set_unbounded(self):
        box = feasible_reply_interval(SampleSet(), 0.5, 2, 1.0)
        assert not box.bounded

    def test_endpoints_exhaust_budget(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            m = rng.integers(1, 7)
            us = np.sort(rng.choice(np.linspace(0, 1, 499), size=m, replace=False))
            vs = rng.normal(size=m) * 0.3
            s = SampleSet(us, vs)
            q = float(rng.choice([1.0, 1.3, 2.0, 2.7, math.inf]))
            budget = q_action(s, q) + float(rng.uniform(0.05, 1.0))
            x = float(rng.uniform())
            if s.contains_u(x):
                continue
            base = q_action(s, q)
            box = feasible_reply_interval(s, x, q, budget, base_action=base)
            for y in (box.lo, box.hi):
                total = base + action_increment(s, x, y, q)
                assert abs(total - budget) <= 1e-9
            mid = 0.5 * (box.lo + box.hi)
            assert base + action_increment(s, x, mid, q) < budget

    def test_bisection_agrees_with_closed_form(self):
        # force the generic path at q=2 by perturbing q slightly
        s = S((0.2, 0.1), (0.7, -0.2))
        box_exact = feasible_reply_interval(s, 0.4, 2.0, 1.0)
        box_generic = feasible_reply_interval(s, 0.4, 2.0 + 1e-12, 1.0)
        assert box_generic.lo == pytest.approx(box_exact.lo, abs=1e-6)
        assert box_generic.hi == pytest.approx(box_exact.hi, abs=1e-6)

    def test_sup_norm_interval(self):
        box = feasible_reply_interval(S((0, 0), (1, 0)), 0.5, math.inf, 1.0)
        assert box.lo == pytest.approx(-0.5)
        assert box.hi == pytest.approx(0.5)

    def test_budget_below_action_errors(self):
        with pytest.raises(ValueError):
            feasible_reply_interval(S((0, 0), (1, 1)), 0.5, 2, 0.5)
