
import numpy as np
import pytest

from smoothgame.inequalities import (
    GAP_IDS,
    _sample_out,
    check_cumulative,
    check_dichotomy,
    cumulative_slope_gap,
    gap_h_increment,
    gap_in,
    gap_out,
    gap_two_variable,
    random_feasible_sequence,
    random_feasible_set,
    search_near_violation,
)
from smoothgame.interpolation import SamplePoint, SampleSet, eval_interpolant, q_action


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
            if s.contains_u(x):
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
            if s.contains_u(x):
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


class TestSearch:
    @pytest.mark.parametrize("gap_id", GAP_IDS)
    def test_no_violations_small_budget(self, gap_id):
        budget = 200 if gap_id == "cumulative" else 5000
        rep = search_near_violation(gap_id, budget=budget, seed=3)
        assert rep.ok, rep.to_dict()
        assert rep.min_gap >= -1e-9
        assert rep.samples == budget

    def test_deterministic(self):
        a = search_near_violation("out", budget=2000, seed=9)
        b = search_near_violation("out", budget=2000, seed=9)
        assert a.min_gap == b.min_gap and a.argmin == b.argmin

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
