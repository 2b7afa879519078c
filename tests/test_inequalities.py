
import json
import math
import tracemalloc

import numpy as np
import pytest
from search_reference import (
    SamplePoint,
    _dichotomy_margins,
    check_cumulative,
    check_dichotomy,
    cumulative_slope_gap,
    gap_h_increment,
    h_potential,
    random_feasible_sequence,
    random_feasible_set,
    slope_at,
    step_by_step_sequences,
)

from smoothgame import inequalities
from smoothgame.inequalities import (
    _CHUNK,
    GAP_IDS,
    _dichotomy_batch,
    _dichotomy_gaps,
    _dichotomy_margin_arrays,
    _fresh_points,
    _h_increment_batch,
    _h_increment_gaps,
    _lockstep_sequences,
    _random_feasible_sets,
    _sample_out,
    gap_in,
    gap_out,
    gap_two_variable,
    search_near_violation,
)
from smoothgame.interpolation import (
    ACTION_TOL,
    SampleSet,
    action_increment,
    eval_interpolant,
    feasible_reply_interval,
    q_action,
)


def S(*pairs):
    return SampleSet.from_pairs(pairs)


class TestGapOut:
    def test_hand_value(self):
        # 0.25*2^1.5 - 0.5 - 0.5*0.25^1.5/3 evaluated directly
        expected = 0.25 * 2 ** 1.5 + 0.25 * 0.0 - 0.5 - 0.5 * 0.25 ** 1.5 / 3
        assert gap_out(0.25, 0.25, 1.5, 0.25) == pytest.approx(expected)
        assert expected == pytest.approx(0.18627, abs=1e-4)

    def test_near_upper_q(self):
        assert gap_out(0.5, 0.5, 1.999, 0.5) > 0

    def test_sum_exactly_one_allowed(self):
        assert gap_out(0.1, 0.9, 1.5, -0.1) > 0

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            gap_out(0.3, 0.2, 1.5, 0.5)  # a > b
        with pytest.raises(ValueError):
            gap_out(0.5, 0.6, 1.5, 0.6)  # a + b > 1
        with pytest.raises(ValueError):
            gap_out(0.25, 0.25, 2.5, 0.3)  # q outside (1, 2)
        with pytest.raises(ValueError):
            gap_out(0.25, 0.25, 1.5, 0.1)  # |x| < a


class TestGapIn:
    def test_zero_at_origin(self):
        assert gap_in(0.3, 0.9, 1.7, 0.0) == 0.0

    def test_hand_value(self):
        expected = 0.5 * 1.5 ** 1.5 + 0.5 * 0.5 ** 1.5 - 1 - 1.5 * 0.5 * 0.25 ** 2 / (3 * 0.5)
        assert gap_in(0.5, 0.5, 1.5, 0.25) == pytest.approx(expected)
        assert expected == pytest.approx(0.06409, abs=1e-5)

    def test_asymmetric(self):
        assert gap_in(0.1, 0.9, 1.2, 0.05) > 0

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            gap_in(0.5, 0.5, 1.5, 0.5)  # x not inside (-a, a)
        with pytest.raises(ValueError):
            gap_in(0.0, 0.5, 1.5, 0.0)


class TestGapTwoVariable:
    @pytest.mark.parametrize(
        "p,x,expected",
        [(2.0, 2.0, 1.0), (1.5, 2.0, 2 ** 1.5 - 2.5), (3.0, 2.0, 4.0)],
    )
    def test_hand_values(self, p, x, expected):
        assert gap_two_variable(p, x) == pytest.approx(expected)

    def test_domain(self):
        with pytest.raises(ValueError):
            gap_two_variable(1.0, 3.0)
        with pytest.raises(ValueError):
            gap_two_variable(2.0, 1.5)


class TestGapArrays:
    @pytest.mark.parametrize("fn,params,bad", [
        (gap_out, {"a": [0.25, 0.1], "b": [0.25, 0.9], "q": [1.5, 1.5], "x": [0.25, -0.1]},
         ("x", 1, 0.05)),
        (gap_in, {"a": [0.5, 0.1], "b": [0.5, 0.9], "q": [1.5, 1.2], "x": [0.25, 0.05]},
         ("x", 0, 0.5)),
        (gap_two_variable, {"p": [2.0, 1.5], "x": [2.0, 3.0]}, ("x", 1, 1.5)),
    ])
    def test_arrays_match_scalars_and_reject_one_bad_element(self, fn, params, bad):
        arrays = {k: np.array(v) for k, v in params.items()}
        scalars = [fn(**{k: v[i] for k, v in params.items()}) for i in range(2)]
        assert np.allclose(fn(**arrays), scalars, rtol=1e-14, atol=1e-15)
        name, i, value = bad
        arrays[name][i] = value
        with pytest.raises(ValueError):
            fn(**arrays)

    def test_out_sampler_keeps_a_plus_b_at_most_one(self):
        # every draw at the top of its range puts b within 2e-7 of 1
        class TopRng:
            def uniform(self, low=0.0, high=1.0, size=None):
                return np.full(size, low + (high - low) * (1.0 - 1e-12))

        params = _sample_out(TopRng(), 4)
        assert np.all(params["b"] > 1.0 - 2e-7)
        assert np.all(params["a"] + params["b"] <= 1.0)
        gap_out(**params)


class TestDichotomy:
    def test_exterior_point_first_branch(self):
        b1, b2 = check_dichotomy(S((0, 0)), SamplePoint(1.0, 0.5), 1.5)
        assert b1  # increment 0.5^1.5 clears (q-1)/3 of itself
        assert not b2  # zero slope with nonzero error

    def test_collinear_point_both_branches(self):
        s = S((0, 0), (1, 1))
        b1, b2 = check_dichotomy(s, SamplePoint(0.5, 0.5), 1.5)
        assert b1 and b2

    def test_interior_small_error_second_branch(self):
        s = S((0, 0), (1, 1))
        pt = SamplePoint(0.5, 0.5 + 1e-3)
        b1, b2 = check_dichotomy(s, pt, 1.5)
        assert b1 or b2
        assert b2

    def test_random_instances(self):
        rng = np.random.default_rng(10)
        for _ in range(2000):
            q = float(rng.uniform(1.0001, 1.9999))
            s = random_feasible_set(rng, q, int(rng.integers(1, 8)))
            x = float(rng.uniform())
            if x in s.us:
                continue
            y = eval_interpolant(s, x) + float(rng.normal()) * 10 ** rng.uniform(-5, 0.5)
            b1, b2 = check_dichotomy(s, SamplePoint(x, y), q)
            assert b1 or b2


class TestHIncrement:
    def test_hand_value_interior(self):
        assert gap_h_increment(S((0, 0), (1, 1)), SamplePoint(0.5, 0.5), 2) == pytest.approx(0.25)

    def test_left_of_all_knots(self):
        s = S((0.4, 0.2), (1, 0.5))
        pt = SamplePoint(0.1, -0.3)
        assert gap_h_increment(s, pt, 2) >= 0

    def test_zero_slope_case(self):
        assert gap_h_increment(S((0, 0), (1, 0)), SamplePoint(0.5, 0.3), 2) == pytest.approx(0.3)

    def test_random_feasible_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            s = random_feasible_set(rng, 1.0, int(rng.integers(2, 9)))
            x = float(rng.uniform())
            if x in s.us:
                continue
            y = eval_interpolant(s, x) + float(rng.normal()) * 10 ** rng.uniform(-5, 0.5)
            p = 1.0 + float(10 ** rng.uniform(-4, 0.5))
            assert gap_h_increment(s, SamplePoint(x, y), p) >= -1e-9


class TestCumulative:
    def test_hand_trace(self):
        pts = [SamplePoint(0, 0), SamplePoint(1, 1), SamplePoint(0.5, 0.75)]
        assert cumulative_slope_gap(pts, 2) == pytest.approx(0.25)
        assert check_cumulative(pts, 2)

    def test_two_points_sum_zero(self):
        pts = [SamplePoint(0.2, 0.4), SamplePoint(0.9, -0.4)]
        assert cumulative_slope_gap(pts, 2) == 0.0

    def test_infeasible_prefix_rejected(self):
        pts = [SamplePoint(0, 0), SamplePoint(0.5, 2.0)]
        with pytest.raises(ValueError):
            cumulative_slope_gap(pts, 2)

    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0])
    def test_random_sequences(self, p):
        rng = np.random.default_rng(12)
        for _ in range(50):
            seq = random_feasible_sequence(rng, 50)
            assert check_cumulative(seq, p)

    @pytest.mark.parametrize("p", [0.5, 1.0, math.nan, -math.inf])
    def test_p_not_above_one_rejected(self, p):
        pts = [SamplePoint(0.2, 0.4), SamplePoint(0.9, -0.4), SamplePoint(0.5, 0.1)]
        with pytest.raises(ValueError, match="must be > 1"):
            cumulative_slope_gap(pts, p)
        with pytest.raises(ValueError, match="must be > 1"):
            check_cumulative(pts, p)

    @pytest.mark.parametrize("length", [0, -3])
    def test_sequence_length_below_one_rejected(self, length):
        with pytest.raises(ValueError, match="at least 1"):
            random_feasible_sequence(np.random.default_rng(0), length)

    def test_sequence_of_length_one(self):
        assert len(random_feasible_sequence(np.random.default_rng(0), 1)) == 1


class TestSearch:
    @pytest.mark.parametrize("gap_id", GAP_IDS)
    def test_no_violations_small_budget(self, gap_id):
        budget = 200 if gap_id == "cumulative" else 5000
        rep = search_near_violation(gap_id, budget=budget, seed=3)
        assert rep.ok, rep.to_dict()
        assert rep.min_gap >= -1e-9
        assert rep.samples == budget

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_raises(self, budget):
        with pytest.raises(ValueError, match="must be at least 1"):
            search_near_violation("out", budget=budget)

    def test_deterministic(self):
        for gap_id in ("out", "h_increment", "dichotomy", "cumulative"):
            a = search_near_violation(gap_id, budget=2000, seed=9)
            b = search_near_violation(gap_id, budget=2000, seed=9)
            assert a.min_gap == b.min_gap and a.argmin == b.argmin
            assert a.violations == b.violations

    @pytest.mark.parametrize("budget", [1, 7, _CHUNK + 1])
    @pytest.mark.parametrize("gap_id", GAP_IDS)
    def test_point_set_budget_scores_every_draw_once(self, gap_id, budget, monkeypatch):
        # at a tolerance of -inf every finite gap is a violation, so the
        # count is the number of draws scored, all six searches alike; for
        # cumulative, a row past its length would have to add a sequence
        # to be counted twice
        monkeypatch.setattr(inequalities, "DEFAULT_TOL", -math.inf)
        rep = search_near_violation(gap_id, budget=budget, seed=5)
        assert rep.samples == budget
        assert rep.violations == budget

    @pytest.mark.parametrize("gap_id", ["h_increment", "dichotomy"])
    def test_argmin_rebuilds_the_minimum(self, gap_id):
        rep = search_near_violation(gap_id, budget=3000, seed=4)
        arg = rep.argmin
        s = SampleSet(arg["us"], arg["vs"])
        pt = SamplePoint(arg["x"], arg["y"])
        assert len(s) == arg["set_size"]
        if gap_id == "h_increment":
            gap, lhs = _h_increment_reference(s, pt, arg["p"])
        else:
            margins, lhs = _dichotomy_reference(s, pt, arg["q"])
            gap = max(margins)
        assert abs(rep.min_gap - gap) <= _diff_tol(lhs, lhs - gap)

    def test_cumulative_argmin_rebuilds_the_minimum(self):
        rep = search_near_violation("cumulative", budget=300, seed=4)
        arg = rep.argmin
        points = [SamplePoint(u, v) for u, v in zip(arg["us"], arg["vs"])]
        assert len(points) == arg["length"]
        lhs = 1.0 / (arg["p"] - 1.0)
        gap = lhs - cumulative_slope_gap(points, arg["p"])
        assert abs(rep.min_gap - gap) <= _diff_tol(lhs, lhs - gap)

    @pytest.mark.parametrize("gap_id", GAP_IDS)
    def test_report_is_plain_values_that_round_trip_through_json(self, gap_id):
        # every argmin value is a Python float, an int count or a list of
        # floats, so the report reads back from JSON as it was written
        d = search_near_violation(gap_id, budget=300, seed=4).to_dict()
        assert json.loads(json.dumps(d)) == d
        for key, v in d["argmin"].items():
            if key in ("set_size", "length"):
                assert type(v) is int, key
            elif isinstance(v, list):
                assert all(type(e) is float for e in v), key
            else:
                assert type(v) is float, key

    # gap id -> (right-hand side of the inequality, factor it is raised by)
    _MUTANTS = {
        "in": (lambda a, b, q, x: q * (q - 1.0) * x * x / (3.0 * a), 1.5),
        "two_variable": (lambda p, x: p - 1.0, 1.01),
        "out": (lambda a, b, q, x: (q - 1.0) * abs(x) ** q / 3.0, 1.5),
    }

    @pytest.mark.parametrize("gap_id", list(_MUTANTS))
    def test_scalar_search_detects_a_raised_right_hand_side(self, gap_id, monkeypatch):
        # the mutant's gap is the real one minus (factor - 1) times the
        # right-hand side, drawn and scored as the real one is
        rhs, factor = self._MUTANTS[gap_id]
        gap = getattr(inequalities, f"gap_{gap_id}")

        def mutant(**params):
            return gap(**params) - (factor - 1.0) * rhs(**params)

        sampler = getattr(inequalities, f"_sample_{gap_id}")
        monkeypatch.setitem(inequalities._SEARCHES, gap_id,
                            inequalities._scalar_draw(mutant, sampler))
        for seed in range(3):
            rep = search_near_violation(gap_id, budget=5000, seed=seed)
            assert rep.violations >= 10, (seed, rep.to_dict())

    def test_unknown_gap(self):
        with pytest.raises(ValueError):
            search_near_violation("nope", budget=10, seed=0)

    def test_report_serializes(self):
        rep = search_near_violation("two_variable", budget=1000, seed=1)
        d = rep.to_dict()
        assert d["gap_id"] == "two_variable"
        assert set(d) >= {"min_gap", "violations", "argmin", "ok"}


class TestFeasibleGenerators:
    def test_feasible_set_within_budget(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            q = float(rng.uniform(1, 3))
            s = random_feasible_set(rng, q, int(rng.integers(1, 9)))
            assert q_action(s, q) <= 1 + 1e-9

    def test_feasible_sequence_prefixes(self):
        rng = np.random.default_rng(14)
        seq = random_feasible_sequence(rng, 30)
        s = SampleSet()
        for pt in seq:
            s = s.insert(pt.u, pt.v)
            assert q_action(s, 1.0) <= 1 + 1e-9


def _diff_tol(lhs, rhs):
    # batched and one-set scores of an inequality lhs >= rhs agree this closely
    return 1e-12 * (1.0 + abs(lhs) + abs(rhs))


def _h_increment_reference(s, pt, p):
    """``gap_h_increment`` and its left-hand side dH."""
    lhs = h_potential(s.insert(pt.u, pt.v), p) - h_potential(s, p)
    return gap_h_increment(s, pt, p), lhs


def _dichotomy_reference(s, pt, q):
    """``_dichotomy_margins`` and their common left-hand side, the increment."""
    return _dichotomy_margins(s, pt, q), action_increment(s, pt.u, pt.v, q)


class TestBatchedPointSets:
    """The batched draws and scores against the one-set reference functions."""

    @staticmethod
    def _forced_batch(draw, seed):
        # make every tenth row flat, so interior points see slope 0, and put
        # every other one of those points on the interpolant
        batch = draw(np.random.default_rng(seed), 2000)
        flat = np.arange(0, 2000, 10)
        batch.vs[flat] = batch.vs[flat, :1]
        batch.y[flat[::2]] = batch.vs[flat[::2], 0]
        return batch

    @staticmethod
    def _rows(batch, q_of_set):
        """Each row rebuilt as a one-set case, with the branches it takes."""
        seen = set()
        for k in range(len(batch.x)):
            s = SampleSet(*batch.knots(k))
            pt = SamplePoint(float(batch.x[k]), float(batch.y[k]))
            e = float(batch.exponent[k])
            assert q_action(s, q_of_set(e)) <= 1.0 + ACTION_TOL
            assert len(s) == 1 or np.diff(s.us).min() > 1e-4
            inside = s.us[0] < pt.u < s.us[-1]
            seen.add("m = 1" if len(s) == 1 else "m > 1")
            seen.add("interior" if inside else "left" if pt.u < s.us[0] else "right")
            if pt.v == eval_interpolant(s, pt.u):
                seen.add("on the interpolant")
            if inside and slope_at(s, pt.u) == 0.0:
                seen.add("interior zero slope")
            yield k, s, pt, e
        assert seen >= {"m > 1", "interior", "left", "right", "on the interpolant",
                        "interior zero slope"}

    def test_h_increment_matches_reference(self):
        batch = self._forced_batch(_h_increment_batch, 21)
        gaps = _h_increment_gaps(batch)
        for k, s, pt, p in self._rows(batch, lambda p: 1.0):
            ref, lhs = _h_increment_reference(s, pt, p)
            assert abs(gaps[k] - ref) <= _diff_tol(lhs, lhs - ref), (k, gaps[k], ref)

    def test_dichotomy_matches_reference(self):
        batch = self._forced_batch(_dichotomy_batch, 22)
        margins = _dichotomy_margin_arrays(batch)
        gaps = _dichotomy_gaps(batch)
        sizes = set()
        for k, s, pt, q in self._rows(batch, lambda q: q):
            sizes.add(len(s))
            refs, inc = _dichotomy_reference(s, pt, q)
            for got, ref in zip((margins[0][k], margins[1][k], gaps[k]), (*refs, max(refs))):
                if math.isinf(ref):
                    assert got == ref, (k, got, ref)
                else:
                    assert abs(got - ref) <= _diff_tol(inc, inc - ref), (k, got, ref)
        assert 1 in sizes
        assert np.isneginf(margins[1]).any()


def _serial_cumulative_gaps(rng, n):
    """Gaps and p of n sequences drawn and scored one at a time by the references."""
    gaps, ps = np.empty(n), np.empty(n)
    for k in range(n):
        p = float(rng.choice([1.1, 1.5, 2.0, 1.0 + 10 ** rng.uniform(-3, 0.5)]))
        points = random_feasible_sequence(rng, int(rng.integers(5, 51)))
        gaps[k], ps[k] = 1.0 / (p - 1.0) - cumulative_slope_gap(points, p), p
    return gaps, ps


class TestLockstepSequences:
    """The lockstep sequences against ``random_feasible_sequence`` and
    ``cumulative_slope_gap``, which draw and score one sequence."""

    @pytest.mark.parametrize("seed", [41, 42])
    def test_matches_reference(self, seed):
        batch = _lockstep_sequences(np.random.default_rng(seed), 2000)
        seen = set()
        for k in range(2000):
            arg = batch.params(k)
            assert 5 <= arg["length"] <= 50
            assert np.isnan(batch.us[k, arg["length"]:]).all()
            points = [SamplePoint(u, v) for u, v in zip(arg["us"], arg["vs"])]
            s = SampleSet([points[0].u], [points[0].v])
            for pt in points[1:]:
                lo, hi = feasible_reply_interval(s, pt.u, 1.0, 1.0)
                tol = 1e-12 * (1.0 + abs(lo) + abs(hi))
                assert lo - tol <= pt.v <= hi + tol, (k, pt, lo, hi)
                seen.add("interior" if s.us[0] < pt.u < s.us[-1] else "outside")
                # an end hit counts only where the interval has room for others
                if hi - lo > 2 * tol and abs(pt.v - lo) <= tol:
                    seen.add("low end")
                if hi - lo > 2 * tol and abs(pt.v - hi) <= tol:
                    seen.add("high end")
                s.add(pt.u, pt.v)
            # re-checks every prefix's 1-action against 1 + ACTION_TOL
            ref = cumulative_slope_gap(points, arg["p"])
            lhs = 1.0 / (arg["p"] - 1.0)
            assert abs(batch.total[k] - ref) <= _diff_tol(lhs, lhs - ref), (k, batch.total[k], ref)
        assert seen == {"interior", "outside", "low end", "high end"}

    def test_gap_distribution_matches_serial(self):
        # two-sample Kolmogorov-Smirnov statistic against its asymptotic
        # critical value at level 0.001, c(0.001) * sqrt(2 / n) for n = 2000
        from scipy.stats import ks_2samp

        n, critical = 2000, 1.949 * math.sqrt(2 / 2000)
        batch = _lockstep_sequences(np.random.default_rng(43), n)
        gaps = 1.0 / (batch.p - 1.0) - batch.total
        ref_gaps, ref_p = _serial_cumulative_gaps(np.random.default_rng(44), n)
        # the fraction of the bound used isolates the sequences from the p draw
        used, ref_used = (batch.p - 1.0) * batch.total, 1.0 - (ref_p - 1.0) * ref_gaps
        for got, ref in ((gaps, ref_gaps), (used, ref_used)):
            assert ks_2samp(got, ref).statistic < critical

    def test_action_guard_raises(self, monkeypatch):
        # with the tolerance at -1 the guard fires at the first positive action
        monkeypatch.setattr(inequalities, "ACTION_TOL", -1.0)
        with pytest.raises(ValueError, match="1-action budget") as got:
            _lockstep_sequences(np.random.default_rng(0), 50)
        with pytest.raises(ValueError) as ref:
            step_by_step_sequences(np.random.default_rng(0), 50)
        assert str(got.value) == str(ref.value)

    def test_memory_stays_linear_in_the_points(self):
        # the draws, the neighbour links and the loop's arrays are a few
        # arrays the size of us each (3.9x the outputs when written); a
        # table over (row, step, knot), as one lookup for all steps at once
        # would build, is 25x the outputs at 50 steps on its own
        tracemalloc.start()
        try:
            batch = _lockstep_sequences(np.random.default_rng(5), 5000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * (batch.us.nbytes + batch.vs.nbytes)


def _assert_same_batch(got, ref):
    # bit for bit, NaN pads included
    for key in ("us", "vs", "p", "total"):
        a, b = getattr(got, key), getattr(ref, key)
        assert a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64)), key
    assert np.array_equal(got.length, ref.length)


class TestLockstepAgainstReference:
    """The lockstep sequences against ``step_by_step_sequences``, the same
    function drawing, locating and scoring one step at a time."""

    @pytest.mark.parametrize("n", [1, 2, 7, 25, 200, 2000])
    def test_batches_and_generator_equal_the_reference(self, n):
        for seed in range(100):
            rng, ref_rng = np.random.default_rng([seed, n]), np.random.default_rng([seed, n])
            _assert_same_batch(_lockstep_sequences(rng, n), step_by_step_sequences(ref_rng, n))
            assert rng.random() == ref_rng.random(), seed


class _DoubleStream:
    """A generator stand-in that serves every draw, of any size, from one
    array of doubles in order; ``pos`` counts the doubles served."""

    def __init__(self, doubles):
        self.doubles, self.pos = doubles, 0

    def _take(self, size):
        count = int(np.prod(size))
        out = self.doubles[self.pos:self.pos + count]
        assert len(out) == count, "the stream ran out"
        self.pos += count
        return out.reshape(size)

    def uniform(self, low=0.0, high=1.0, size=1):
        return low + (high - low) * self._take(size)

    def integers(self, low, high, size=1):
        return low + (self._take(size) * (high - low)).astype(np.int64)


class TestPlantedKnotCollisions:
    """x's planted on an earlier knot of their row, which both functions
    must move up one double at a time until they are on none; the stream's
    doubles are read as they are with no knot hit."""

    n = 6

    def _layout(self, seed):
        # the doubles, the lengths and the unplanted sequences; the stream
        # holds p's pick, p, the lengths, the first points, then per step
        # the growing rows' x's, fracs and picks
        doubles = np.random.default_rng(seed).random(4000)
        ref = step_by_step_sequences(_DoubleStream(doubles), self.n)
        live = [int(np.count_nonzero(ref.length > t)) for t in range(int(ref.length[0]))]
        return doubles, ref, live

    def _x_pos(self, live, t, k):
        # where step t's x for row k is read
        return 5 * self.n + 3 * sum(live[1:t]) + k

    def _run_both(self, doubles, live):
        stream, ref_stream = _DoubleStream(doubles.copy()), _DoubleStream(doubles.copy())
        got = _lockstep_sequences(stream, self.n)
        ref = step_by_step_sequences(ref_stream, self.n)
        _assert_same_batch(got, ref)
        assert stream.pos == ref_stream.pos == 5 * self.n + 3 * sum(live[1:])
        return got

    def test_unplanted_stream_draws_no_redraw(self):
        doubles, ref, live = self._layout(1)
        self._run_both(doubles, live)

    def test_two_rows_at_one_step_then_one_row_twice(self):
        doubles, ref, live = self._layout(2)
        assert live[3] >= 5 and live[6] >= 2
        # step 3: rows 2 and 4 land on their first and second knots
        doubles[self._x_pos(live, 3, 2)] = ref.us[2, 1]
        doubles[self._x_pos(live, 3, 4)] = ref.us[4, 0]
        # steps 5 and 6: row 1 lands on its first knot, then on where
        # step 5's x moved, so step 6's x moves up twice
        knot = ref.us[1, 0]
        doubles[self._x_pos(live, 5, 1)] = knot
        doubles[self._x_pos(live, 6, 1)] = np.nextafter(knot, 2.0)
        got = self._run_both(doubles, live)
        assert got.us[2, 3] == np.nextafter(ref.us[2, 1], 2.0)
        assert got.us[4, 3] == np.nextafter(ref.us[4, 0], 2.0)
        assert got.us[1, 5] == np.nextafter(knot, 2.0)
        assert got.us[1, 6] == np.nextafter(np.nextafter(knot, 2.0), 2.0)

    def test_a_hit_at_the_last_step_reads_no_double_past_the_block(self):
        # the longest row alone at its last step, where the block ends two
        # doubles after its x
        for seed in range(100):
            doubles, ref, live = self._layout(seed)
            if live[-1] == 1:
                break
        assert live[-1] == 1
        last = len(live) - 1
        doubles[self._x_pos(live, last, 0)] = ref.us[0, 0]
        got = self._run_both(doubles, live)
        assert got.us[0, last] == np.nextafter(ref.us[0, 0], 2.0)

    def test_one_knot_hit_at_two_steps(self):
        # row 0's first knot planted as its x at steps 2 and 3, so three of
        # its points are equal in the first layout
        doubles, ref, live = self._layout(4)
        knot = ref.us[0, 0]
        doubles[self._x_pos(live, 2, 0)] = knot
        doubles[self._x_pos(live, 3, 0)] = knot
        got = self._run_both(doubles, live)
        assert got.us[0, 2] == np.nextafter(knot, 2.0)
        assert got.us[0, 3] == np.nextafter(np.nextafter(knot, 2.0), 2.0)

    def test_a_point_set_draw_on_a_knot_moves_up_one_double(self):
        # the h_increment and dichotomy draws: rows 1 and 4 hold their first
        # x as a knot, and row 4 the double above it too
        us, vs = _random_feasible_sets(np.random.default_rng(8), np.ones(6), np.full(6, 3))
        x0 = np.random.default_rng(9).uniform(size=6)
        us[1, 1:4] = np.sort([us[1, 1], us[1, 2], x0[1]])
        us[4, 1:4] = np.sort([us[4, 1], x0[4], np.nextafter(x0[4], 2.0)])
        rng, plain = np.random.default_rng(9), np.random.default_rng(9)
        x, _ = _fresh_points(rng, us, vs, 0.3, 0.1)
        want = x0.copy()
        want[1] = np.nextafter(x0[1], 2.0)
        want[4] = np.nextafter(np.nextafter(x0[4], 2.0), 2.0)
        assert np.array_equal(x, want)
        # as many doubles as with no knot hit: x, the noise scale and sign,
        # and the exact-row pick
        plain.uniform(size=6), plain.uniform(size=6), plain.normal(size=6), plain.uniform(size=6)
        assert rng.random() == plain.random()

    def test_another_rows_knot_is_no_collision(self):
        doubles, ref, live = self._layout(3)
        doubles[self._x_pos(live, 2, 0)] = ref.us[1, 0]
        got = self._run_both(doubles, live)
        assert got.us[0, 2] == got.us[1, 0]
