import math

import numpy as np
import pytest

from smoothgame.adversaries import (
    QUERY_POLICIES,
    GreedyAdversary,
    GreedyConfig,
    InsufficientInitAdversary,
    NoisyLowerBoundAdversary,
    RandomLiarAdversary,
    _farther_end,
    van_der_corput,
)
from smoothgame.interpolation import (
    DuplicateKnotError,
    SampleSet,
    action_increment,
    eval_interpolant,
    feasible_reply_interval,
    q_action,
)


RANDOM_QUERIES = GreedyConfig(query_policy="uniform-random")


def S(*pairs):
    return SampleSet.from_pairs(pairs)


def fresh_reply(s, x, prediction, q, cfg, base_action=None):
    """The greedy reply at x, with x looked up in ``s`` afresh."""
    lo, hi = feasible_reply_interval(s, x, q, cfg.budget, base_action)
    return _farther_end(lo, hi, prediction, cfg.tie_break)


def reply_after_origin(x, prediction, cfg=GreedyConfig()):
    """The q = 2 greedy adversary's reply at x once it has revealed (0, 0)."""
    adv = GreedyAdversary(2.0, cfg)
    assert adv.reveal(0.0, 0.0) == 0.0
    return adv.reveal(x, prediction)


class TestGreedyReveal:
    def test_picks_farther_endpoint(self):
        y = reply_after_origin(1.0, 0.2)
        assert y == pytest.approx(-1.0, abs=1e-9)

    def test_tie_breaks_lower(self):
        y = reply_after_origin(0.25, 0.0)
        assert y == pytest.approx(-0.5, abs=1e-9)

    def test_tie_breaks_upper_when_asked(self):
        y = reply_after_origin(0.25, 0.0, GreedyConfig(tie_break="upper"))
        assert y == pytest.approx(0.5, abs=1e-9)

    def test_empty_set_reveals_zero(self):
        assert GreedyAdversary(2.0).reveal(0.5, 0.0) == 0.0
        assert fresh_reply(SampleSet(), 0.5, 0.0, 2.0, GreedyConfig()) == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GreedyConfig(query_policy="nope")
        for budget in (-1, math.nan, True, "a", None):
            with pytest.raises(ValueError, match="budget must be a real number >= 0"):
                GreedyConfig(budget=budget)
        assert GreedyConfig(budget=0).budget == 0


class TestGreedyAdversary:
    @pytest.mark.parametrize("policy", ["widest-gap-midpoint", "uniform-random", "fixed-sequence"])
    def test_legality_over_long_run(self, policy):
        adv = GreedyAdversary(2.0, GreedyConfig(query_policy=policy), seed=5)
        for t in range(200):
            x = adv.next_query(t)
            adv.reveal(x, 0.1)
        assert q_action(adv.truth_set, 2.0) <= 1.0 + 1e-9
        disc = adv.finalize()
        assert disc.lie_count == 0

    def test_widest_gap_sequence(self):
        adv = GreedyAdversary(2.0, GreedyConfig())
        xs = []
        for t in range(7):
            x = adv.next_query(t)
            xs.append(x)
            adv.reveal(x, 0.0)
        assert xs == [0.5, 0.25, 0.75, 0.125, 0.375, 0.625, 0.875]

    def test_fixed_sequence_is_van_der_corput(self):
        adv = GreedyAdversary(2.0, GreedyConfig(query_policy="fixed-sequence"))
        xs = [adv.next_query(t) for t in range(4)]
        for x in xs:
            adv.truth_set.add(x, 0.0)
        assert xs == [van_der_corput(i) for i in range(4)]

    def test_finalize_discloses_a_snapshot(self):
        adv = GreedyAdversary(2.0, RANDOM_QUERIES, seed=2)
        for t in range(5):
            x = adv.next_query(t)
            adv.reveal(x, 0.0)
        truth = adv.finalize().truth
        before = (list(truth.us), list(truth.vs))  # values, not the set's own lists
        for t in range(5, 10):
            x = adv.next_query(t)
            adv.reveal(x, 0.0)
        assert isinstance(truth, SampleSet)
        assert (truth.us, truth.vs) == before and len(truth) == 5
        assert len(adv.finalize().truth) == 10

    def test_same_seed_same_queries(self):
        a = GreedyAdversary(2.0, GreedyConfig(query_policy="uniform-random"), seed=3)
        b = GreedyAdversary(2.0, GreedyConfig(query_policy="uniform-random"), seed=3)
        for t in range(20):
            xa, xb = a.next_query(t), b.next_query(t)
            assert xa == xb
            a.reveal(xa, 0.0)
            b.reveal(xb, 0.0)


class TestRevealPosition:
    """``reveal`` finds x once and serves the interval, increment and insert from it.

    Each reply, running action and truth set must equal a reference grown
    with the module-level functions, which look x up afresh every time,
    whatever order the queries and revelations come in.
    """

    @staticmethod
    def _reference_reveal(ref, x, prediction, q, cfg):
        s, action = ref
        y = fresh_reply(s, x, prediction, q, cfg, action)
        ref[1] = action + action_increment(s, x, y, q, action)
        s.add(x, y)
        return y

    def _check(self, adv, ref):
        assert adv.truth_set == ref[0]
        assert adv._action == ref[1]

    @pytest.mark.parametrize("q", [1.0, 1.1, 2.0, math.inf])
    @pytest.mark.parametrize("policy", QUERY_POLICIES)
    def test_asked_queries_match_fresh_lookups(self, policy, q):
        cfg = GreedyConfig(query_policy=policy, budget=0.9)
        adv, ref = GreedyAdversary(q, cfg, seed=3), [SampleSet(), 0.0]
        rng = np.random.default_rng(3)
        for t in range(150):
            x = adv.next_query(t)
            prediction = float(rng.uniform(-0.5, 0.5))
            assert adv.reveal(x, prediction) == self._reference_reveal(ref, x, prediction, q, cfg)
            self._check(adv, ref)

    @pytest.mark.parametrize("q", [1.1, 2.0, math.inf])
    def test_reveal_without_next_query(self, q):
        # as a test drives the adversary by hand: no query asked at all,
        # or another x than the one asked
        cfg = GreedyConfig(query_policy="uniform-random")
        adv, ref = GreedyAdversary(q, cfg, seed=4), [SampleSet(), 0.0]
        rng = np.random.default_rng(4)
        for t in range(150):
            if t % 3 == 0:
                adv.next_query(t)
            x = float(rng.uniform())
            assert adv.reveal(x, 0.2) == self._reference_reveal(ref, x, 0.2, q, cfg)
            self._check(adv, ref)

    @pytest.mark.parametrize("q", [1.1, 2.0, math.inf])
    @pytest.mark.parametrize("policy", QUERY_POLICIES)
    def test_two_queries_then_one_reveal(self, policy, q):
        # revealing the query asked before the last one
        cfg = GreedyConfig(query_policy=policy)
        adv, ref = GreedyAdversary(q, cfg, seed=6), [SampleSet(), 0.0]
        for t in range(100):
            first, second = adv.next_query(2 * t), adv.next_query(2 * t + 1)
            x = first if t % 2 else second
            assert adv.reveal(x, 0.1) == self._reference_reveal(ref, x, 0.1, q, cfg)
            self._check(adv, ref)

    @pytest.mark.parametrize("q", [1.1, 2.0, math.inf])
    def test_reveal_of_another_x_than_the_query(self, q):
        cfg = GreedyConfig(query_policy="uniform-random")
        adv, ref = GreedyAdversary(q, cfg, seed=7), [SampleSet(), 0.0]
        rng = np.random.default_rng(7)
        for t in range(150):
            asked = adv.next_query(t)
            x = asked if t % 3 else float(rng.uniform())
            if t % 3 == 0 and x in adv.truth_set.us:
                continue
            assert adv.reveal(x, -0.1) == self._reference_reveal(ref, x, -0.1, q, cfg)
            self._check(adv, ref)

    def test_set_grown_by_hand_after_the_query(self):
        # a knot added below the query moves its position
        cfg = GreedyConfig()
        adv, ref = GreedyAdversary(2.0, cfg, seed=8), [SampleSet(), 0.0]
        for x in (adv.next_query(0), adv.next_query(1)):
            assert adv.reveal(x, 0.3) == self._reference_reveal(ref, x, 0.3, 2.0, cfg)
        x = adv.next_query(2)
        assert x == 0.75
        adv.truth_set.add(0.6, 0.0)
        ref[0].add(0.6, 0.0)
        assert adv.reveal(x, 0.3) == self._reference_reveal(ref, x, 0.3, 2.0, cfg)
        self._check(adv, ref)
        assert adv.truth_set.us == [0.25, 0.5, 0.6, 0.75]

    def test_a_revealed_x_is_rejected(self):
        adv = GreedyAdversary(2.0, GreedyConfig(query_policy="uniform-random"), seed=5)
        for t in range(5):
            adv.reveal(adv.next_query(t), 0.0)
        x = adv.next_query(5)
        adv.reveal(x, 0.0)
        with pytest.raises(DuplicateKnotError):
            adv.reveal(x, 0.0)

    def test_a_known_x_is_rejected(self):
        adv = GreedyAdversary(2.0, GreedyConfig(), seed=5)
        adv.reveal(0.5, 0.0)
        adv.next_query(1)
        with pytest.raises(DuplicateKnotError):
            adv.reveal(0.5, 0.0)

    def test_widest_gap_skips_a_known_midpoint(self):
        adv = GreedyAdversary(2.0, GreedyConfig(), seed=5)
        adv.reveal(0.5, 0.0)
        x = adv.next_query(1)
        assert x == 0.25
        adv.reveal(x, 0.0)
        assert adv.truth_set.us == [0.25, 0.5]

    def test_invalid_q_rejected_at_construction(self):
        with pytest.raises(ValueError):
            GreedyAdversary(0.5)


def _van_der_corput_loop(i):
    # the reference digit loop, over an array of indices;
    # float64 array arithmetic rounds as Python floats do
    x = np.zeros(len(i))
    denom = 1.0
    i = i + 1
    while i.any():
        denom *= 2.0
        i, rem = np.divmod(i, 2)
        x += rem / denom
    return x


class TestVanDerCorput:
    def test_matches_the_digit_loop(self):
        n = 1 << 20
        want = _van_der_corput_loop(np.arange(n, dtype=np.int64))
        got = np.array([van_der_corput(i) for i in range(n)])
        assert np.array_equal(got, want)

    def test_scalar_loop_agrees_on_a_prefix(self):
        # the array loop against the scalar loop it transcribes
        def scalar(i):
            x, denom, i = 0.0, 1.0, i + 1
            while i:
                denom *= 2.0
                i, rem = divmod(i, 2)
                x += rem / denom
            return x

        idx = np.arange(5000, dtype=np.int64)
        assert _van_der_corput_loop(idx).tolist() == [scalar(i) for i in range(5000)]

    def test_first_values(self):
        assert [van_der_corput(i) for i in range(7)] == [0.5, 0.25, 0.75, 0.125, 0.625,
                                                          0.375, 0.875]


class TestNoisyLowerBound:
    def run_script(self, eta, p, predictions):
        adv = NoisyLowerBoundAdversary(eta, p)
        block = 2 * eta + 1
        t = 0
        reveals = []
        while not adv.done(t):
            x = adv.next_query(t)
            pred = 0.0 if t < block else predictions[t - block]
            reveals.append((x, adv.reveal(x, pred)))
            t += 1
        return adv, reveals

    def test_zero_predictions_forced_error(self):
        adv, reveals = self.run_script(1, 2.0, [0.0, 0.0, 0.0])
        disc = adv.finalize()
        # counted trials are the three at input 1; prediction 0 vs true sign
        total = sum(abs(0.0 - adv.sign) ** 2 for _ in range(3))
        assert total == pytest.approx(3.0)
        assert disc.lie_count == 1

    def test_all_minus_one_predictions(self):
        adv, _ = self.run_script(1, 2.0, [-1.0, -1.0, -1.0])
        assert adv.sign == 1.0
        total = sum(abs(-1.0 - 1.0) ** 2 for _ in range(3))
        assert total == pytest.approx(12.0)

    def test_exactly_eta_lies_and_unit_action(self):
        for eta in (1, 2, 3):
            adv, _ = self.run_script(eta, 2.0, [0.3] * (2 * eta + 1))
            disc = adv.finalize()
            assert disc.lie_count == eta
            assert q_action(disc.truth, 2.0) == pytest.approx(1.0)

    def test_per_trial_sum_identity(self):
        # |y+1|^p + |y-1|^p >= 2 for p >= 2, any prediction
        rng = np.random.default_rng(7)
        for p in (2.0, 2.5, 4.0):
            for y in rng.normal(size=200) * 3:
                assert abs(y + 1) ** p + abs(y - 1) ** p >= 2.0 - 1e-12

    def test_queries(self):
        adv = NoisyLowerBoundAdversary(2, 2.0)
        assert adv.next_query(0) == 0.0
        assert adv.next_query(4) == 0.0
        assert adv.next_query(5) == 1.0
        assert adv.done(10)


class TestInsufficientInit:
    def test_high_prediction_gets_zero_function(self):
        adv = InsufficientInitAdversary(1, swing=1e6)
        for t in range(2):
            adv.reveal(adv.next_query(t), 0.0)
        y = adv.reveal(adv.next_query(2), 600_000.0)
        assert adv.constant == 0.0 and y == 0.0
        assert abs(600_000.0 - y) >= 5e5

    def test_low_prediction_gets_swing_function(self):
        adv = InsufficientInitAdversary(1, swing=1e6)
        for t in range(2):
            adv.reveal(adv.next_query(t), 0.0)
        y = adv.reveal(adv.next_query(2), 0.0)
        assert adv.constant == 1e6 and y == 1e6

    def test_boundary_prediction_still_half_swing(self):
        adv = InsufficientInitAdversary(1, swing=1e6)
        for t in range(2):
            adv.reveal(adv.next_query(t), 0.0)
        y = adv.reveal(adv.next_query(2), 5e5)
        assert abs(5e5 - y) >= 5e5 - 1e-9

    def test_exactly_eta_lies(self):
        for eta in (1, 2, 3):
            adv = InsufficientInitAdversary(eta, swing=100.0)
            for t in range(2 * eta + 1):
                adv.reveal(adv.next_query(t), 7.0)
            disc = adv.finalize()
            assert disc.lie_count == eta
            assert q_action(disc.truth, 2.0) == 0.0


class TestVerifyLegality:
    class Rec:
        def __init__(self, x, revealed):
            self.x = x
            self.revealed = revealed

    def test_infeasible_truth_rejected(self):
        from smoothgame.adversaries import Disclosure, verify_legality

        trials = [self.Rec(0.0, 0.0), self.Rec(0.1, 1.0)]
        truth = SampleSet.from_pairs([(0.0, 0.0), (0.1, 1.0)])  # action 10 at q=2
        assert not verify_legality(trials, Disclosure([False, False], truth), 1, 2.0)

    def test_overflowing_truth_rejected(self):
        from smoothgame.adversaries import Disclosure, verify_legality

        trials = [self.Rec(0.0, 0.0), self.Rec(1e-150, 1.0), self.Rec(1.0, 0.0)]
        truth = SampleSet([0.0, 1e-150, 1.0], [0.0, 1.0, 0.0])  # slope^3 overflows
        assert not verify_legality(trials, Disclosure([False] * 3, truth), 1, 3.0)

    def test_lie_budget_overrun_rejected(self):
        from smoothgame.adversaries import Disclosure, verify_legality

        trials = [self.Rec(0.0, 0.5), self.Rec(0.5, 0.5), self.Rec(1.0, 0.5)]
        truth = SampleSet.from_pairs([(0.5, 0.0)])
        assert not verify_legality(trials, Disclosure([True, True, False], truth), 1, 2.0)

    def test_truthful_reveal_must_match_witness(self):
        from smoothgame.adversaries import Disclosure, verify_legality

        trials = [self.Rec(0.0, 0.2), self.Rec(1.0, 0.9)]
        truth = SampleSet.from_pairs([(0.0, 0.2), (1.0, 0.3)])
        assert not verify_legality(trials, Disclosure([False, False], truth), 1, 2.0)
        assert verify_legality(trials, Disclosure([False, True], truth), 1, 2.0)

    def test_truthful_nan_reveal_rejected(self):
        from smoothgame.adversaries import Disclosure, verify_legality

        # abs(nan - v) > tol is False, so a NaN must fail the match by itself
        trials = [self.Rec(0.0, 0.0), self.Rec(1.0, math.nan)]
        truth = SampleSet.from_pairs([(0.0, 0.0), (1.0, 0.5)])
        assert not verify_legality(trials, Disclosure([False, False], truth), 1, 2.0)

    def test_flag_count_must_match_trials(self):
        from smoothgame.adversaries import Disclosure, verify_legality

        trials = [self.Rec(0.0, 0.2), self.Rec(1.0, 0.3)]
        truth = SampleSet.from_pairs([(0.0, 0.2), (1.0, 0.3)])
        assert verify_legality(trials, Disclosure([False, False], truth), 1, 2.0)
        assert not verify_legality(trials, Disclosure([False], truth), 1, 2.0)
        assert not verify_legality(trials, Disclosure([False, False, False], truth), 1, 2.0)


class TestRandomLiar:
    def test_eta_zero_matches_greedy(self):
        # no lie schedule is drawn at eta = 0, so the liar asks the truthful
        # adversary's queries: the generator's first draws
        liar = RandomLiarAdversary(2.0, RANDOM_QUERIES, seed=11, eta=0, rounds=50)
        draws = np.random.default_rng(11).uniform(size=50)
        for t in range(50):
            x = liar.next_query(t)
            assert x == draws[t]
            want = fresh_reply(liar.truth_set, x, 0.2, 2.0, RANDOM_QUERIES)
            assert liar.reveal(x, 0.2) == want
        assert liar.finalize().lie_count == 0

    def test_random_liar_is_greedy(self):
        assert RandomLiarAdversary is GreedyAdversary

    def test_lie_budget_respected(self):
        for eta in (1, 2, 3):
            liar = RandomLiarAdversary(2.0, RANDOM_QUERIES, seed=4, eta=eta, rounds=100)
            for t in range(100):
                liar.reveal(liar.next_query(t), 0.0)
            disc = liar.finalize()
            assert disc.lie_count <= eta
            assert q_action(disc.truth, 2.0) <= 1.0 + 1e-12

    def test_zero_magnitude_means_no_lies(self):
        liar = RandomLiarAdversary(2.0, RANDOM_QUERIES, seed=4, eta=3, rounds=40, lie_magnitude=0.0)
        for t in range(40):
            liar.reveal(liar.next_query(t), 0.0)
        assert liar.finalize().lie_count == 0

    def test_draws_follow_one_scalar_stream(self):
        # queries and lie signs read the generator's doubles in game order,
        # across block ends, as one rng.random() call at a time would
        eta, rounds = 40, 700
        liar = RandomLiarAdversary(2.0, RANDOM_QUERIES, seed=12, eta=eta, rounds=rounds)
        rng = np.random.default_rng(12)
        lie_trials = set(rng.choice(rounds, size=eta, replace=False).tolist())
        for t in range(rounds):
            x = liar.next_query(t)
            assert x == rng.random()
            y = liar.reveal(x, 0.0)
            true_value = eval_interpolant(liar.truth_set, x)
            if t in lie_trials:
                sign = 1.0 if rng.random() < 0.5 else -1.0
                assert y == true_value + sign * 0.75
            else:
                assert y == true_value
        assert liar.finalize().lie_flags == [t in lie_trials for t in range(rounds)]

    def test_lies_differ_from_truth(self):
        liar = RandomLiarAdversary(2.0, RANDOM_QUERIES, seed=8, eta=2, rounds=60)
        reveals = []
        for t in range(60):
            x = liar.next_query(t)
            reveals.append((x, liar.reveal(x, 0.0)))
        disc = liar.finalize()
        lied = [abs(eval_interpolant(disc.truth, x) - y)
                for (x, y), f in zip(reveals, disc.lie_flags) if f]
        assert len(lied) == disc.lie_count
        assert all(d == pytest.approx(0.75) for d in lied)
