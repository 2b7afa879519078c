import json
import math

import pytest

from smoothgame.adversaries import Disclosure, GreedyConfig
from smoothgame.engine import (
    CSV_HEADER,
    GameConfig,
    IllegalAdversaryError,
    DuplicateQueryError,
    register_adversary,
    run_game,
    run_noisy_game,
    run_standard_game,
    scale_transcript,
    total_error,
    write_outputs,
)
from smoothgame.interpolation import SampleSet, q_action


class ScriptAdversary:
    """Replays a fixed list of (query, reveal) pairs; truthful by default."""

    def __init__(self, moves, truth=None):
        self.moves = moves
        self.truth = truth
        self._i = 0

    def next_query(self, t):
        return self.moves[t][0]

    def reveal(self, x, prediction):
        y = self.moves[self._i][1]
        self._i += 1
        return y

    def done(self, t):
        return t >= len(self.moves)

    def finalize(self):
        truth = self.truth or SampleSet.from_pairs(
            [(x, y) for x, y in dict(self.moves).items()]
        )
        return Disclosure([False] * self._i, truth)


register_adversary("test-script", lambda cfg: ScriptAdversary(list(cfg.adversary_opts()["moves"])))


def cfg(**kw):
    defaults = dict(p=2.0, q=2.0, rounds=10, learner="linint", adversary="greedy")
    defaults.update(kw)
    return GameConfig.make(**defaults)


class TestStandardGame:
    def test_hand_trace_unit_error(self):
        config = cfg(rounds=2, adversary="test-script",
                     adversary_options={"moves": ((0.0, 0.0), (1.0, 1.0))})
        tr = run_standard_game(config)
        assert tr.trials[0].counted is False
        assert tr.trials[1].prediction == 0.0
        assert tr.counted_total == pytest.approx(1.0)
        assert tr.legality is True

    def test_greedy_respects_unit_value(self):
        tr = run_standard_game(cfg(rounds=500, seed=1))
        assert tr.counted_total <= 1.0 + 1e-9
        assert tr.legality and tr.lie_count == 0

    def test_zero_reveals_make_total_sum_of_powers(self):
        moves = tuple((x, 0.0) for x in (0.1, 0.4, 0.9, 0.6))
        config = cfg(rounds=4, adversary="test-script", adversary_options={"moves": moves})
        tr = run_standard_game(config)
        replay = math.fsum(abs(r.prediction) ** 2 for r in tr.trials if r.counted)
        assert tr.counted_total == pytest.approx(replay)

    def test_feasibility_abort(self):
        moves = ((0.0, 0.0), (0.1, 1.0))  # slope 10 over gap 0.1: action 10
        config = cfg(rounds=2, adversary="test-script", adversary_options={"moves": moves})
        with pytest.raises(IllegalAdversaryError):
            run_standard_game(config)

    def test_duplicate_reject(self):
        moves = ((0.5, 0.0), (0.5, 0.0))
        config = cfg(rounds=2, adversary="test-script", adversary_options={"moves": moves})
        with pytest.raises(DuplicateQueryError):
            run_standard_game(config)

    def test_duplicate_answer_known(self):
        moves = ((0.5, 0.25), (0.5, 0.25), (0.8, 0.3))
        config = cfg(rounds=3, adversary="test-script",
                     adversary_options={"moves": moves}, duplicate_policy="answer-known")
        tr = run_standard_game(config)
        assert tr.trials[1].raw_error == 0.0
        assert tr.trials[1].prediction == 0.25

    def test_action_monotone_and_bounded(self):
        tr = run_standard_game(cfg(rounds=120, seed=2))
        s = SampleSet()
        prev = 0.0
        for rec in tr.trials:
            s = s.insert(rec.x, rec.revealed)
            action = q_action(s, 2.0)
            assert action >= prev - 1e-12
            assert action <= 1.0 + 1e-9
            prev = action

    def test_requires_eta_zero(self):
        with pytest.raises(ValueError):
            run_standard_game(cfg(eta=1))

    def test_unknown_players(self):
        with pytest.raises(ValueError):
            run_game(cfg(learner="nope"))
        with pytest.raises(ValueError):
            run_game(cfg(adversary="nope"))


class TestNoisyGame:
    def test_counting_boundary(self):
        config = cfg(eta=2, rounds=40, learner="staged", adversary="random-liar", seed=3)
        tr = run_noisy_game(config)
        uncounted = [r for r in tr.trials if not r.counted]
        assert len(uncounted) == 2 * 2 + 1
        assert all(r.t < 5 for r in uncounted)

    def test_uncounted_override(self):
        config = cfg(eta=1, rounds=10, learner="linint", adversary="random-liar",
                     seed=3, uncounted_rounds=2)
        tr = run_noisy_game(config)
        assert sum(1 for r in tr.trials if not r.counted) == 2

    def test_uncounted_predictions_do_not_move_total(self):
        config = cfg(eta=1, rounds=30, learner="linint", adversary="random-liar", seed=4)
        tr = run_noisy_game(config)
        before = total_error(tr, 2.0)
        for r in tr.trials:
            if not r.counted:
                r.prediction += 100.0
        assert total_error(tr, 2.0) == before

    def test_totals_vs_ground_truth(self):
        config = cfg(eta=1, rounds=60, learner="staged", adversary="random-liar", seed=9)
        tr = run_noisy_game(config)
        assert tr.counted_total == pytest.approx(total_error(tr, 2.0), rel=1e-12)
        assert tr.legality is True
        assert tr.lie_count <= 1
        assert tr.stage_count is not None and tr.stage_count <= 1

    def test_perceived_differs_from_counted_with_lies(self):
        config = cfg(eta=3, rounds=300, learner="staged", adversary="random-liar", seed=17)
        tr = run_noisy_game(config)
        if tr.lie_count:
            assert tr.perceived_total != tr.counted_total

    def test_noisy_lower_bound_script(self):
        config = cfg(eta=1, rounds=50, learner="staged", adversary="noisy-lb")
        tr = run_noisy_game(config)
        assert tr.counted_total >= 3.0 - 1e-9
        assert tr.legality and tr.lie_count == 1

    def test_never_lying_adversary_certified(self):
        config = cfg(eta=1, rounds=50, learner="staged", adversary="random-liar",
                     seed=5, adversary_options={"lie_magnitude": 0.0})
        tr = run_noisy_game(config)
        assert tr.legality is True and tr.lie_count == 0
        assert tr.stage_count == 0

    def test_requires_eta_positive(self):
        with pytest.raises(ValueError):
            run_noisy_game(cfg(eta=0))


class TestDeterminism:
    def test_identical_configs_identical_csv(self):
        config = cfg(eta=2, rounds=150, learner="staged", adversary="random-liar", seed=21)
        a = run_game(config).to_csv()
        b = run_game(config).to_csv()
        assert a == b

    def test_different_seeds_differ(self):
        a = run_game(cfg(eta=1, rounds=60, learner="staged", adversary="random-liar", seed=1))
        b = run_game(cfg(eta=1, rounds=60, learner="staged", adversary="random-liar", seed=2))
        assert a.to_csv() != b.to_csv()


class TestTotals:
    def test_empty_counted_zero(self):
        config = cfg(rounds=1, adversary="test-script", adversary_options={"moves": ((0.3, 0.0),)})
        tr = run_standard_game(config)
        assert tr.counted_total == 0.0
        assert total_error(tr, 2.0) == 0.0

    def test_fractional_exponent(self):
        # errors 0.5 and 0.25 at p = 1.5
        expected = 0.5 ** 1.5 + 0.25 ** 1.5
        assert expected == pytest.approx(0.478553, abs=1e-6)
        # predictions: 0 at x=0.5 (constant extension), then 0.5 at x=0.75
        moves = ((0.0, 0.0), (0.5, 0.5), (0.75, 0.25))
        config = cfg(p=1.5, q=1.5, rounds=3, adversary="test-script",
                     adversary_options={"moves": moves})
        tr = run_standard_game(config)
        assert tr.trials[1].raw_error == pytest.approx(0.5)
        assert tr.trials[2].raw_error == pytest.approx(0.25)
        assert tr.counted_total == pytest.approx(expected)

    def test_total_error_requires_truth(self):
        config = cfg(eta=1, rounds=20, learner="linint", adversary="random-liar", seed=2)
        tr = run_noisy_game(config)
        tr.trials[3].true_value = None
        with pytest.raises(ValueError):
            total_error(tr, 2.0)

    def test_replay_total_non_increasing_in_p(self):
        # raw errors stay within 1, so larger exponents shrink the total
        tr = run_standard_game(cfg(p=1.5, q=1.5, rounds=300, seed=11))
        assert all(r.raw_error <= 1 + 1e-9 for r in tr.trials)
        totals = [total_error(tr, p) for p in (1.5, 2.0, 2.5, 3.5)]
        assert all(a >= b - 1e-12 for a, b in zip(totals, totals[1:]))

    def test_transcript_legality_recheck(self):
        from smoothgame.engine import verify_transcript_legality

        noisy = run_noisy_game(cfg(eta=2, rounds=80, learner="staged",
                                   adversary="random-liar", seed=5))
        assert verify_transcript_legality(noisy) is noisy.legality is True
        standard = run_standard_game(cfg(rounds=40, seed=5))
        assert verify_transcript_legality(standard)
        # corrupting a truthful trial's value breaks the witness
        for rec in noisy.trials:
            if rec.lie is False and rec.counted:
                rec.revealed += 0.5
                break
        assert verify_transcript_legality(noisy) is False


class TestScaleTranscript:
    def test_identity(self):
        tr = run_standard_game(cfg(rounds=50, seed=4))
        same = scale_transcript(tr, 1.0)
        assert same.counted_total == pytest.approx(tr.counted_total, rel=1e-15)

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_power_scaling(self, c):
        tr = run_standard_game(cfg(rounds=200, seed=4))
        scaled = scale_transcript(tr, c)
        assert scaled.counted_total == pytest.approx(c ** 2 * tr.counted_total, rel=1e-12)

    def test_revealed_action_scales(self):
        tr = run_standard_game(cfg(rounds=100, seed=6))
        c = 2.0
        s_orig = SampleSet.from_pairs([(r.x, r.revealed) for r in tr.trials])
        s_scaled = SampleSet.from_pairs([(r.x, r.revealed * c) for r in tr.trials])
        assert q_action(s_scaled, 2.0) == pytest.approx(c ** 2 * q_action(s_orig, 2.0), rel=1e-12)

    def test_positive_factor_required(self):
        tr = run_standard_game(cfg(rounds=5, seed=4))
        with pytest.raises(ValueError):
            scale_transcript(tr, 0.0)


class TestSerialization:
    def test_csv_schema(self, tmp_path):
        tr = run_game(cfg(rounds=20, seed=1))
        csv_path, json_path = write_outputs(tr, tmp_path)
        lines = open(csv_path).read().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 21
        summary = json.loads(open(json_path).read())
        assert summary["config"]["rounds"] == 20
        assert summary["counted_total"] == tr.counted_total
        assert summary["legality"] is True
        assert summary["tool"] == "smoothgame"

    def test_csv_round_trip_floats(self):
        tr = run_game(cfg(rounds=30, seed=8))
        lines = tr.to_csv().splitlines()[1:]
        for rec, line in zip(tr.trials, lines):
            fields = line.split(",")
            assert float(fields[1]) == rec.x
            assert float(fields[2]) == rec.prediction


class TestStagedOverflowGuard:
    def test_illegal_adversary_marks_transcript(self):
        # a liar with more lies than declared eta fails certification
        config = GameConfig.make(
            p=2.0, q=2.0, rounds=200, eta=1, learner="linint",
            adversary="random-liar", seed=13, adversary_options={},
        )
        from smoothgame.adversaries import RandomLiarAdversary
        from smoothgame import engine

        tr = run_noisy_game(config)
        assert tr.legality is True  # the declared liar stays within budget

        # forge extra lies in the disclosure path via a wrapper
        class OverLiar(RandomLiarAdversary):
            def finalize(self):
                disc = super().finalize()
                flags = list(disc.lie_flags)
                flipped = 0
                for i in range(len(flags)):
                    if not flags[i]:
                        flags[i] = True
                        flipped += 1
                    if flipped >= 2:
                        break
                return Disclosure(flags, disc.truth)

        queries = GreedyConfig(query_policy="uniform-random")
        engine.register_adversary(
            "over-liar",
            lambda c: OverLiar(c.q, queries, seed=c.seed, eta=c.eta, rounds=c.rounds),
        )
        bad = run_noisy_game(GameConfig.make(
            p=2.0, q=2.0, rounds=50, eta=1, learner="linint",
            adversary="over-liar", seed=13,
        ))
        assert bad.legality is False


class TestDisclosureLength:
    def test_short_disclosure_is_illegal(self):
        # a disclosure cut short used to be zipped against the trials, which
        # certified the game legal on the first 10 trials alone
        from smoothgame.adversaries import RandomLiarAdversary

        class ShortLiar(RandomLiarAdversary):
            def finalize(self):
                disc = super().finalize()
                return Disclosure(disc.lie_flags[:10], disc.truth)

        queries = GreedyConfig(query_policy="uniform-random")
        register_adversary(
            "short-liar",
            lambda c: ShortLiar(c.q, queries, seed=c.seed, eta=c.eta, rounds=c.rounds),
        )
        config = GameConfig.make(p=2.0, q=2.0, rounds=200, eta=1, learner="staged",
                                 adversary="short-liar", seed=3)
        with pytest.raises(IllegalAdversaryError, match="10 lie flags for 200 trials"):
            run_noisy_game(config)
