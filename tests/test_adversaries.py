import numpy as np
import pytest

from smoothgame.adversaries import (
    GreedyAdversary,
    GreedyConfig,
    InsufficientInitAdversary,
    NoisyLowerBoundAdversary,
    RandomLiarAdversary,
    greedy_reveal,
    van_der_corput,
)
from smoothgame.interpolation import SampleSet, q_action


RANDOM_QUERIES = GreedyConfig(query_policy="uniform-random")


def S(*pairs):
    return SampleSet.from_pairs(pairs)


class TestGreedyReveal:
    def test_picks_farther_endpoint(self):
        y = greedy_reveal(S((0, 0)), 1.0, 0.2, 2.0, GreedyConfig())
        assert y == pytest.approx(-1.0, abs=1e-9)

    def test_tie_breaks_lower(self):
        y = greedy_reveal(S((0, 0)), 0.25, 0.0, 2.0, GreedyConfig())
        assert y == pytest.approx(-0.5, abs=1e-9)

    def test_tie_breaks_upper_when_asked(self):
        cfg = GreedyConfig(tie_break="upper")
        y = greedy_reveal(S((0, 0)), 0.25, 0.0, 2.0, cfg)
        assert y == pytest.approx(0.5, abs=1e-9)

    def test_empty_set_reveals_zero(self):
        assert greedy_reveal(SampleSet(), 0.5, 0.0, 2.0, GreedyConfig()) == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GreedyConfig(query_policy="nope")
        with pytest.raises(ValueError):
            GreedyConfig(budget=-1)


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
            adv.truth_set = adv.truth_set.insert(x, 0.0)
        assert xs == [van_der_corput(i) for i in range(4)]

    def test_same_seed_same_queries(self):
        a = GreedyAdversary(2.0, GreedyConfig(query_policy="uniform-random"), seed=3)
        b = GreedyAdversary(2.0, GreedyConfig(query_policy="uniform-random"), seed=3)
        for t in range(20):
            xa, xb = a.next_query(t), b.next_query(t)
            assert xa == xb
            a.reveal(xa, 0.0)
            b.reveal(xb, 0.0)


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
            want = greedy_reveal(liar.truth_set, x, 0.2, 2.0, RANDOM_QUERIES)
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

    def test_lies_differ_from_truth(self):
        liar = RandomLiarAdversary(2.0, RANDOM_QUERIES, seed=8, eta=2, rounds=60)
        reveals = []
        for t in range(60):
            x = liar.next_query(t)
            reveals.append((x, liar.reveal(x, 0.0)))
        disc = liar.finalize()
        truth = disc.truth_function()
        lied = [abs(truth(x) - y) for (x, y), f in zip(reveals, disc.lie_flags) if f]
        assert len(lied) == disc.lie_count
        assert all(d == pytest.approx(0.75) for d in lied)
