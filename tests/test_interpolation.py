import math
from bisect import bisect_left

import numpy as np
import pytest

from search_reference import SamplePoint, h_potential, nearest_gap, slope_at

from smoothgame import adversaries
from smoothgame.adversaries import GreedyAdversary, GreedyConfig
from smoothgame.interpolation import (
    DuplicateKnotError,
    SampleSet,
    action_increment,
    eval_interpolant,
    feasible_reply_interval,
    q_action,
)
from smoothgame.learners import LinintLearner


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
        assert s.us == [0.1, 0.5, 0.9]

    def test_nan_knot_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SampleSet([math.nan], [0.0])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SampleSet([0.1, math.nan, 0.5], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SampleSet.from_pairs([(math.nan, 0.1), (0.2, 0.3)])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SampleSet().add(math.nan, 0.0)
        with pytest.raises(ValueError, match="finite"):
            SampleSet([0.1, 0.5], [0.0, math.nan])

    def test_constructor_checks_the_knot_rule(self):
        with pytest.raises(ValueError, match="increasing"):
            SampleSet([0.5, 0.5], [0.0, 1.0])
        with pytest.raises(ValueError, match="increasing"):
            SampleSet([0.5, 0.1], [0.0, 1.0])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SampleSet([-0.1, 0.5], [0.0, 1.0])
        with pytest.raises(ValueError, match="equal length"):
            SampleSet([0.5], [])
        assert q_action(SampleSet([0.0, 1.0], [0.0, -2.0]), math.inf) == 2.0


class TestKnotStore:
    """``SampleSet`` as the game's knot store, grown in place by ``add``."""

    def test_add_keeps_order_and_checks(self):
        store = SampleSet()
        store.add(0.5, 0.3)
        store.add(0.1, 1.0)
        assert (store.us, store.vs) == ([0.1, 0.5], [1.0, 0.3])
        assert 0.5 in store.us and 0.3 not in store.us
        with pytest.raises(DuplicateKnotError):
            store.add(0.5, 2.0)
        with pytest.raises(ValueError):
            store.add(1.5, 0.0)
        with pytest.raises(ValueError):
            store.add(0.3, math.nan)
        assert len(store) == 2

    def test_copy_is_not_changed_by_later_adds(self):
        store = SampleSet()
        store.add(0.2, 0.1)
        store.add(0.7, -0.2)
        copied = store.copy()
        grown = store.insert(0.9, 0.0)
        store.add(0.4, 0.5)
        assert copied == S((0.2, 0.1), (0.7, -0.2))
        assert store == S((0.2, 0.1), (0.4, 0.5), (0.7, -0.2))
        assert grown == S((0.2, 0.1), (0.7, -0.2), (0.9, 0.0))


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
        # NaN fails the range test too
        for x, text in ((1.2, "1.2"), (-1e-300, "-1e-300"), (math.nan, "nan")):
            with pytest.raises(ValueError, match=rf"^x={text} outside \[0, 1\]$"):
                eval_interpolant(S((0.3, 0.7)), x)

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

    def test_overflowing_slope_power_is_inf(self):
        # the slope 1e150 cubed overflows a float
        s = SampleSet([0.0, 1e-150, 1.0], [0.0, 1.0, 0.0])
        assert q_action(s, 3.0) == math.inf
        assert action_increment(S((0.0, 0.0), (1.0, 0.0)), 1e-150, 1.0, 3.0) == math.inf
        assert action_increment(S((0.0, 0.0), (1.0, 0.0)), 1.0 - 1e-16, 1e120, 3.0) == math.inf
        assert action_increment(S((1e-150, 1.0)), 0.0, 0.0, 3.0) == math.inf  # left of the knots
        assert action_increment(S((0.0, 0.0)), 1e-150, 1.0, 3.0) == math.inf  # right of them
        assert action_increment(s, 0.5e-150, 0.5, 3.0) == math.inf  # the split segment
        assert action_increment(s, 0.5, 0.0, 3.0) == pytest.approx(3.0)

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
            q = math.inf if rng.uniform() < 0.3 else float(rng.uniform(1, 4))
            x = float(rng.uniform())
            if x in s.us:
                continue
            y = float(rng.normal())
            inc = action_increment(s, x, y, q)
            after = q_action(s.insert(x, y), q)
            full = after - q_action(s, q)
            # the full-recompute oracle loses digits subtracting large totals
            assert inc == pytest.approx(full, abs=1e-9 * max(1.0, after))
        for q in (2.0, math.inf):
            with pytest.raises(DuplicateKnotError):
                action_increment(S((0.2, 0.0), (0.6, 1.0)), 0.6, 0.3, q)

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
                if x in dense.us:
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
        lo, hi = feasible_reply_interval(S((0, 0)), 1.0, 2, 1.0)
        assert lo == pytest.approx(-1.0, abs=1e-9)
        assert hi == pytest.approx(1.0, abs=1e-9)

    def test_near_point_unit_budget(self):
        lo, hi = feasible_reply_interval(S((0, 0)), 0.25, 2, 1.0)
        assert lo == pytest.approx(-0.5, abs=1e-9)
        assert hi == pytest.approx(0.5, abs=1e-9)

    def test_empty_set_unbounded(self):
        lo, hi = feasible_reply_interval(SampleSet(), 0.5, 2, 1.0)
        assert (lo, hi) == (-math.inf, math.inf)

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
            if x in s.us:
                continue
            base = q_action(s, q)
            lo, hi = feasible_reply_interval(s, x, q, budget, base_action=base)
            for y in (lo, hi):
                total = base + action_increment(s, x, y, q)
                assert abs(total - budget) <= 1e-9
            mid = 0.5 * (lo + hi)
            assert base + action_increment(s, x, mid, q) < budget

    def test_bisection_agrees_with_closed_form(self):
        # force the generic path at q=2 by perturbing q slightly
        s = S((0.2, 0.1), (0.7, -0.2))
        exact = feasible_reply_interval(s, 0.4, 2.0, 1.0)
        generic = feasible_reply_interval(s, 0.4, 2.0 + 1e-12, 1.0)
        assert generic == pytest.approx(exact, abs=1e-6)

    def test_far_endpoint_stops_where_floats_cannot_split(self, monkeypatch):
        # ends ~1e5 from the centre have an ulp above 1e-12, so the bracket
        # stops at adjacent floats instead of narrowing to 1e-12
        s = S((0, 0), (1, 0))
        evals = []
        increment_at = SampleSet.increment_at

        def counted(self, *args):
            evals.append(args)
            assert len(evals) < 1000, "endpoint search does not stop"
            return increment_at(self, *args)

        monkeypatch.setattr(SampleSet, "increment_at", counted)
        lo, hi = feasible_reply_interval(s, 0.5, 1.5, 1e8)
        monkeypatch.undo()
        assert lo == -hi and hi > 1e5
        assert action_increment(s, 0.5, hi, 1.5) <= 1e8
        assert action_increment(s, 0.5, math.nextafter(hi, math.inf), 1.5) > 1e8

    def test_sup_norm_interval(self):
        lo, hi = feasible_reply_interval(S((0, 0), (1, 0)), 0.5, math.inf, 1.0)
        assert lo == pytest.approx(-0.5)
        assert hi == pytest.approx(0.5)

    def test_sup_norm_zero_slack_is_not_inverted(self):
        # the neighbours' bounds v -/+ budget * gap round apart at zero
        # slack; the only feasible reply is then the interpolant value
        s = S((1 / 512, 0.0), (67 / 512, 0.625))
        x = 1.5 / 512
        lo, hi = feasible_reply_interval(s, x, math.inf, q_action(s, math.inf))
        assert lo == hi == eval_interpolant(s, x)

    def test_budget_below_action_errors(self):
        with pytest.raises(ValueError):
            feasible_reply_interval(S((0, 0), (1, 1)), 0.5, 2, 0.5)


def _reference_boundary(overshoot, center: float, direction: float) -> float:
    # doubling from 1, then bisection to a 1e-12 bracket, written plainly
    step = 1.0
    while overshoot(center + direction * step) <= 0.0:
        step *= 2.0
        if step > 1e12:
            raise RuntimeError("feasible interval endpoint search diverged")
    inner, outer = 0.0, step
    while outer - inner > 1e-12:
        mid = 0.5 * (inner + outer)
        if overshoot(center + direction * mid) <= 0.0:
            inner = mid
        else:
            outer = mid
    return center + direction * inner


class TestEndpointSolver:
    """The solver, per solve, on every state the greedy games solve from.

    Whole games cannot be compared: at q = 1.1 the greedy adversary spends
    its slack at once, and the ~1e-12 the bisection leaves unspent grows in
    later replies. So each solve the games made is re-solved here.
    """

    @pytest.fixture(scope="class")
    def solves(self):
        # each state the adversary solves from: its truth set and running
        # action as they stand when it is asked to reveal
        states = []
        for q in (1.1, 1.5, 3.0):
            for policy in adversaries.QUERY_POLICIES:
                adv = GreedyAdversary(q, GreedyConfig(query_policy=policy), seed=1)
                learner = LinintLearner()
                for t in range(60):
                    x = adv.next_query(t)
                    if len(adv.truth_set):
                        states.append((adv.truth_set.copy(), x, q, adv._action))
                    prediction = learner.predict(x)
                    learner.observe(x, adv.reveal(x, prediction))
        assert len(states) > 500
        return states

    def test_endpoints_match_reference(self, solves):
        # the solver evaluates at x's position; a bisection through the
        # public action_increment looks x up at every step, to the same bits
        for s, x, q, base in solves:
            center = eval_interpolant(s, x)
            for slack in (1e-6, 1e-3, 0.3):
                budget = base + slack
                lo, hi = feasible_reply_interval(s, x, q, budget, base_action=base)
                spare = max(budget - base, 0.0)

                def overshoot(y):
                    return action_increment(s, x, y, q) - spare

                assert lo == _reference_boundary(overshoot, center, -1.0)
                assert hi == _reference_boundary(overshoot, center, +1.0)

    def test_endpoints_are_feasible_and_tight(self, solves):
        # independent of the solver: each end keeps the budget, and a reply
        # 2e-12 farther out (past any 1e-12 bracket) breaks it
        for s, x, q, base in solves:
            for slack in (1e-6, 1e-3, 0.3):
                budget = base + slack
                lo, hi = feasible_reply_interval(s, x, q, budget, base_action=base)
                for y, out in ((lo, -2e-12), (hi, 2e-12)):
                    assert base + action_increment(s, x, y, q) <= budget
                    assert base + action_increment(s, x, y + out, q) > budget

    def test_zero_slack_returns_center(self, solves):
        for s, x, q, base in solves:
            lo, hi = feasible_reply_interval(s, x, q, base, base_action=base)
            center = eval_interpolant(s, x)
            assert (lo, hi) == (center, center)


def _outcome(fn, *args):
    # the value's repr (bit-exact, NaN equal to NaN, -0.0 apart from 0.0)
    # or the error's type
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return type(exc)


class TestPositionMethods:
    """Each position method, given bisect_left(s.us, x), against its public function.

    The public functions look x up, check their arguments and call the
    method; the game's players call the methods with a position they found
    once. Both must give the same bits, errors included.
    """

    QS = (1.0, 1.1, 2.0, 3.0, math.inf)

    @staticmethod
    def cases():
        rng = np.random.default_rng(16)
        sets = [SampleSet(), SampleSet([0.4], [0.3])]
        for m in (2, 7, 40):
            us = np.sort(rng.choice(np.arange(1, 512), m, replace=False)) / 512.0
            sets.append(SampleSet(us * 0.8 + 0.1, rng.uniform(-0.5, 0.5, m)))
        # a 1e-150 gap: slopes whose q-th power overflows at q = 3
        sets.append(SampleSet([0.0, 1e-150, 1.0], [0.0, 1.0, 0.0]))
        for s in sets:
            us = s.us
            lo, hi = (us[0], us[-1]) if us else (0.0, 1.0)
            xs = [0.0, 0.5 * lo, *rng.uniform(lo, hi, 6), 0.5 * (hi + 1.0), 1.0]
            if us:
                xs += [us[0], us[len(us) // 2], us[-1]]
            if len(us) == 3 and us[1] == 1e-150:
                xs.append(5e-151)
            yield s, [float(x) for x in xs]

    def test_eval_at(self):
        for s, xs in self.cases():
            for x in xs:
                i = bisect_left(s.us, x)
                assert _outcome(s.eval_at, i, x) == _outcome(eval_interpolant, s, x)

    def test_increment_at(self):
        for s, xs in self.cases():
            for x in xs:
                if x in s.us:
                    continue
                i = bisect_left(s.us, x)
                centre = eval_interpolant(s, x)
                for q in self.QS:
                    for y in (centre, centre + 0.3, centre - 1.0, 1e3, 1.0):
                        for base in (None, q_action(s, q)):
                            assert (_outcome(s.increment_at, i, x, y, q, base)
                                    == _outcome(action_increment, s, x, y, q, base))

    def test_overflow_is_inf_on_both_paths(self):
        s = SampleSet([0.0, 1e-150, 1.0], [0.0, 1.0, 0.0])
        i = bisect_left(s.us, 5e-151)
        assert s.increment_at(i, 5e-151, 1.0, 3.0) == math.inf
        assert action_increment(s, 5e-151, 1.0, 3.0) == math.inf

    def test_reply_bounds(self):
        def public(s, x, q, budget, base):
            return feasible_reply_interval(s, x, q, budget, base)

        for s, xs in self.cases():
            for x in xs:
                if x in s.us:
                    continue
                i = bisect_left(s.us, x)
                for q in self.QS:
                    action = q_action(s, q)
                    # below the action (an error), at it, and above it
                    for budget in (action - 1e-6, action, action + 1e-6, action + 0.5):
                        for base in (None, action):
                            assert (_outcome(s.reply_bounds, i, x, q, budget, base)
                                    == _outcome(public, s, x, q, budget, base))

    def test_locate(self):
        for s, xs in self.cases():
            for x in xs:
                if x in s.us:
                    with pytest.raises(DuplicateKnotError):
                        s.locate(x)
                else:
                    assert s.locate(x) == bisect_left(s.us, x)

    def test_add_at_is_add(self):
        rng = np.random.default_rng(17)
        grown, reference = SampleSet(), SampleSet()
        for x, y in zip(rng.uniform(0.0, 1.0, 200), rng.uniform(-1.0, 1.0, 200)):
            grown.add_at(grown.locate(float(x)), float(x), float(y))
            reference.add(float(x), float(y))
            assert grown == reference
        with pytest.raises(ValueError):
            grown.add_at(0, 0.0, math.nan)
        with pytest.raises(ValueError):
            grown.add_at(len(grown), 1.5, 0.0)
