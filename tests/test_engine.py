import csv
import hashlib
import io
import json
import math

import numpy as np
import pytest
from transcript_reference import scale_transcript, total_error, verify_transcript_legality

from smoothgame.adversaries import (
    QUERY_POLICIES,
    Disclosure,
    GreedyAdversary,
    GreedyConfig,
    verify_legality,
)
from smoothgame.cli import CERTIFIED_BOUNDS, main
from smoothgame.engine import (
    CSV_HEADER,
    GameConfig,
    IllegalAdversaryError,
    DuplicateQueryError,
    TrialRecord,
    Transcript,
    register_adversary,
    register_learner,
    run_game,
    run_noisy_game,
    run_standard_game,
    write_outputs,
)
from smoothgame.interpolation import SampleSet, action_increment, q_action
from smoothgame.learners import ProtocolViolationError
from smoothgame.schema import REQUIRED, Count, ListOf, Real


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


register_adversary("test-script", lambda cfg, moves: ScriptAdversary(moves),
                   {"moves": (ListOf(ListOf(Real(None))), REQUIRED)})


class ScriptedLiar(ScriptAdversary):
    """Replays its moves and discloses the ones at ``lies`` as lies; the
    truth witness is the interpolant of the others."""

    def __init__(self, moves, lies):
        super().__init__(moves)
        self.lies = set(lies)

    def finalize(self):
        truthful = [m for t, m in enumerate(self.moves) if t not in self.lies]
        return Disclosure([t in self.lies for t in range(self._i)],
                          SampleSet.from_pairs(dict(truthful).items()))


register_adversary("test-liar", lambda cfg, moves, lies: ScriptedLiar(moves, lies),
                   {"moves": (ListOf(ListOf(Real(None))), REQUIRED),
                    "lies": (ListOf(Count(0)), REQUIRED)})


def cfg(**kw):
    defaults = dict(p=2.0, q=2.0, rounds=10, learner="linint", adversary="greedy")
    defaults.update(kw)
    return GameConfig.make(**defaults)


class TestStandardGame:
    def test_game_stops_at_the_first_done(self):
        # two moves and ten rounds: done(2) ends the game after two trials
        config = cfg(rounds=10, adversary="test-script",
                     adversary_options={"moves": ((0.0, 0.0), (1.0, 1.0))})
        tr = run_standard_game(config)
        assert [r.t for r in tr.trials] == [0, 1]

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
        assert tr.counted_total <= CERTIFIED_BOUNDS["standard_unit"].formula() + 1e-9
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

    @pytest.mark.parametrize("bad", [
        {"eta": 1.5}, {"eta": True}, {"eta": -1}, {"eta": None},
        {"uncounted_rounds": -3}, {"uncounted_rounds": 2.5}, {"uncounted_rounds": False},
    ])
    def test_config_rejects_non_count_eta_and_uncounted_rounds(self, bad):
        with pytest.raises(ValueError, match=f"{next(iter(bad))} must be an integer >= 0"):
            cfg(**bad)
        assert cfg(eta=np.int64(2), uncounted_rounds=0).eta == 2

    @pytest.mark.parametrize("bad", [
        {"rounds": True}, {"rounds": 2.5}, {"rounds": 0}, {"rounds": "3"},
        {"seed": True}, {"seed": 2.5}, {"seed": -1}, {"seed": None},
    ])
    def test_config_rejects_non_count_rounds_and_seed(self, bad):
        key = next(iter(bad))
        least = 1 if key == "rounds" else 0
        with pytest.raises(ValueError, match=f"{key} must be an integer >= {least}"):
            cfg(**bad)
        config = cfg(rounds=np.int64(3), seed=np.int64(4))
        assert (config.rounds, config.seed) == (3, 4)
        assert len(run_game(config).trials) == 3
        with pytest.raises(ValueError):
            run_game(cfg(adversary="nope"))


class TestRunningSup:
    """At q = inf each owner's running action is its running sup.

    The engine and the greedy adversary add each increment to the action
    they pass in. The sup of a set can fall by rounding when a new knot
    splits its steepest segment, which the running sup does not see, so it
    may sit an ulp above a scan of the set; over these games it is never
    below the scan.

    Nothing on the round path is watched. The engine's side is its
    transcript replayed through ``action_increment`` on a set of its own,
    which is the engine's arithmetic in the engine's order. The greedy
    adversary's side is a twin of the game's adversary, replayed with the
    transcript's predictions, whose own truth set and running action are
    read after each reveal.
    """

    REL_TOL = 4.5e-16

    @staticmethod
    def _engine_side(tr, q):
        # (owner, running action after the add, scan of the grown set)
        seen, revealed, running = [], SampleSet(), 0.0
        for rec in tr.trials:
            running += action_increment(revealed, rec.x, rec.revealed, q, running)
            revealed.add(rec.x, rec.revealed)
            seen.append(("engine", running, q_action(revealed, q)))
        return seen

    @staticmethod
    def _adversary_side(tr, adversary, q):
        seen = []
        for rec in tr.trials:
            assert adversary.next_query(rec.t) == rec.x
            assert adversary.reveal(rec.x, rec.prediction) == rec.revealed
            seen.append(("adversary", adversary._action, q_action(adversary.truth_set, q)))
        return seen

    @pytest.mark.parametrize("policy", QUERY_POLICIES)
    def test_running_sup_tracks_the_scan(self, policy):
        tr = run_standard_game(cfg(q=math.inf, rounds=300, seed=4,
                                   adversary_options={"query_policy": policy}))
        twin = GreedyAdversary(math.inf, GreedyConfig(query_policy=policy), seed=4)
        seen = self._engine_side(tr, math.inf) + self._adversary_side(tr, twin, math.inf)
        assert {owner for owner, _, _ in seen} == {"engine", "adversary"}
        assert len(seen) == 2 * 300
        for _, running, scanned in seen:
            assert scanned <= running <= scanned * (1.0 + self.REL_TOL)

    def test_rounding_drop_leaves_the_running_sup_an_ulp_above(self):
        # the split segment's slope rounds above both halves' slopes
        moves = ((0.09384515343330624, 0.1156618270926259 / 4),
                 (0.5706847858594991, -1.070544409695766 / 4),
                 (0.3209004331471949, -0.44917039442796297 / 4))
        tr = run_standard_game(cfg(q=math.inf, rounds=3, adversary="test-script",
                                   adversary_options={"moves": moves}))
        seen = self._engine_side(tr, math.inf)
        _, running, scanned = seen[-1]
        assert running == math.nextafter(scanned, math.inf)
        truth = SampleSet.from_pairs(moves)
        assert verify_legality(tr.trials, Disclosure([False] * 3, truth), 0, math.inf)


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
        assert tr.counted_total >= CERTIFIED_BOUNDS["forced_lower"].formula(1) - 1e-9
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

    def test_too_many_resets_name_their_trials_and_triggers(self):
        # one lie out of the band, then, at an experimental threshold far below
        # 1, a true value off the interpolant: two resets against eta = 1
        moves = ((0.1, 0.0), (0.12, 0.0), (0.14, 0.0),  # trials 0-2: the initial phase
                 (0.02, 0.0), (0.04, 0.0), (0.06, 0.0),  # 3-5: interval 1 gets a band
                 (0.08, 0.8),  # 6: the lie
                 (0.16, 0.0), (0.18, 0.0), (0.2, 0.0),  # 7-9: a new stage, a new band
                 (0.22, 0.01))  # 10: an error of 1e-4
        config = cfg(eta=1, rounds=len(moves), learner="staged", adversary="test-liar",
                     learner_options={"threshold": 1e-6},
                     adversary_options={"moves": moves, "lies": [6]})
        message = (r"2 stage resets against a certified-legal adversary with eta=1: "
                   r"trial 6 \(revealed value out of band\), trial 10 \(error budget\)$")
        with pytest.raises(ProtocolViolationError, match=message):
            run_noisy_game(config)
        # the same game with both errors disclosed as lies is illegal and not checked
        config = cfg(eta=1, rounds=len(moves), learner="staged", adversary="test-liar",
                     learner_options={"threshold": 1e-6},
                     adversary_options={"moves": moves, "lies": [6, 10]})
        tr = run_noisy_game(config)
        assert tr.legality is False and tr.stage_count == 2

    @pytest.mark.parametrize("q", [1.2, 1.5])
    def test_liars_below_q2_force_at_most_eta_stages(self, q):
        # with the band held at 1/2, 16 (q = 1.2) and 5 (q = 1.5) of these 50
        # games reset more than eta times, which run_noisy_game raises on
        for seed in range(50):
            tr = run_noisy_game(cfg(p=2.0, q=q, eta=1, rounds=2000, learner="staged",
                                    adversary="random-liar", seed=seed))
            assert tr.legality is True, seed
            assert tr.stage_count <= 1, seed


PROTOCOLS = {"learner": ("predict", "observe"),
             "adversary": ("next_query", "reveal", "done", "finalize")}


def players_lacking(role: str, missing: str, calls: list, none=False) -> tuple[str, str]:
    """Register a learner and an adversary whose every method call is logged
    in ``calls``; the ``role`` player, of class ``No<Missing>``, lacks
    ``missing`` (with ``none``, holds None there). Returns the registered
    (learner, adversary) names."""
    def logged(name):
        def method(self, *args):
            calls.append(name)
            return 0.5 if name != "done" else False
        return method

    names = {}
    for who, methods in PROTOCOLS.items():
        attrs = {m: logged(m) for m in methods if m != missing}
        if none and who == role:
            attrs[missing] = None
        cls = type(f"No{missing.title()}" if who == role else "Full", (), attrs)
        names[who] = f"protocol-{who}-{role}-lacks-{missing}"
        register = register_learner if who == "learner" else register_adversary
        register(names[who], lambda c, cls=cls: cls())
    return names["learner"], names["adversary"]


@pytest.mark.parametrize("role, missing", [
    ("learner", "observe"), ("adversary", "done"), ("adversary", "finalize"),
])
class TestProtocolCheck:
    """A player that lacks a protocol method is stopped when it is built."""

    @pytest.mark.parametrize("none", [False, True], ids=["absent", "none"])
    @pytest.mark.parametrize("eta", [0, 1])
    def test_run_game_raises_before_round_0(self, role, missing, eta, none):
        calls = []
        learner, adversary = players_lacking(role, missing, calls, none)
        message = rf"No{missing.title()} lacks {missing} of the {role.title()} protocol"
        with pytest.raises(ProtocolViolationError, match=message):
            run_game(cfg(eta=eta, rounds=8, learner=learner, adversary=adversary))
        assert calls == []

    def test_simulate_exit_4_before_any_output(self, tmp_path, capsys, role, missing):
        calls = []
        learner, adversary = players_lacking(role, missing, calls)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"p": 2, "q": 2, "eta": 1, "rounds": 8,
                                      "learner": learner, "adversary": adversary}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("internal fault: ProtocolViolationError: ")
        assert f"No{missing.title()}" in err and missing in err and "Traceback" not in err
        assert calls == [] and not out.exists()


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

    def test_transcript_legality_nan_disagreement(self):
        # a repeated query's true values must agree, and NaN agrees with nothing
        def transcript(first, second):
            tr = Transcript(cfg(eta=1))
            tr.trials = [TrialRecord(0, 0.5, 0.0, 1.0, True, first, 0.0, 0.0, False),
                         TrialRecord(1, 0.5, 0.0, 1.0, False, second, 0.0, 0.0, False)]
            return tr

        assert verify_transcript_legality(transcript(1.0, 1.0)) is True
        assert verify_transcript_legality(transcript(math.nan, 1.0)) is False
        assert verify_transcript_legality(transcript(1.0, math.nan)) is False

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_transcript_legality_non_finite_true_value(self, bad):
        # a non-finite true value is no witness: the check says False, not ValueError
        tr = Transcript(cfg(eta=1))
        tr.trials = [TrialRecord(0, 0.25, 0.0, 1.0, True, bad, 0.0, 0.0, False),
                     TrialRecord(1, 0.75, 0.0, 1.0, False, 1.0, 0.0, 0.0, False)]
        assert verify_transcript_legality(tr) is False

    @pytest.mark.parametrize("x", [math.nan, math.inf, 1.5, -0.25])
    def test_transcript_legality_query_outside_the_domain(self, x):
        # a recorded query off [0, 1] (NaN included) is no legal trial
        tr = Transcript(cfg(eta=1))
        tr.trials = [TrialRecord(0, 0.25, 0.0, 1.0, False, 1.0, 0.0, 0.0, False),
                     TrialRecord(1, x, 0.0, 1.0, True, 1.0, 0.0, 0.0, False)]
        assert verify_transcript_legality(tr) is False


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

    def test_every_field_of_a_noisy_record(self):
        config = GameConfig.make(p=2.0, q=2.0, rounds=60, eta=1, learner="staged",
                                 adversary="random-liar", seed=1)
        tr = run_game(config)
        assert any(r.lie for r in tr.trials)
        c = 2.0
        scaled = scale_transcript(tr, c)
        for r, s in zip(tr.trials, scaled.trials, strict=True):
            assert (s.t, s.x, s.lie, s.counted) == (r.t, r.x, r.lie, r.counted)
            assert (s.prediction, s.revealed, s.true_value) == (
                r.prediction * c, r.revealed * c, r.true_value * c)
            assert s.raw_error == r.raw_error * c and s.p_power == (r.raw_error * c) ** 2.0
        rows = list(csv.DictReader(io.StringIO(scaled.to_csv())))
        assert [row["lie"] for row in rows] == [str(int(r.lie)) for r in tr.trials]
        assert [float(row["true_value"]) for row in rows] == [s.true_value for s in scaled.trials]

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


def csv_writer_rendering(tr):
    """The csv.writer rendering that ``Transcript.to_csv`` reproduces."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in tr.trials:
        writer.writerow([
            r.t,
            repr(r.x),
            repr(r.prediction),
            repr(r.revealed),
            "" if r.true_value is None else repr(r.true_value),
            "" if r.lie is None else int(r.lie),
            repr(r.raw_error),
            repr(r.p_power),
            int(r.counted),
        ])
    return buf.getvalue()


class TestCsvRendering:
    def test_standard_sup_norm_game(self):
        tr = run_game(cfg(q=math.inf, rounds=300, seed=4,
                          adversary_options={"query_policy": "uniform-random"}))
        assert tr.to_csv() == csv_writer_rendering(tr)

    def test_noisy_game_with_lies(self):
        tr = run_game(cfg(eta=3, rounds=400, learner="staged", adversary="random-liar", seed=9))
        assert tr.lie_count == 3
        assert any(r.true_value != r.revealed for r in tr.trials)
        assert tr.to_csv() == csv_writer_rendering(tr)

    def test_answer_known_duplicate_row(self):
        moves = ((0.5, 0.25), (0.5, 0.25), (0.8, 0.3))
        tr = run_standard_game(cfg(rounds=3, adversary="test-script",
                                   adversary_options={"moves": moves},
                                   duplicate_policy="answer-known"))
        assert tr.trials[1].lie is None
        assert tr.to_csv() == csv_writer_rendering(tr)

    def test_unusual_floats(self):
        tr = Transcript(cfg())
        tr.trials.append(TrialRecord(0, 0.0, -0.0, math.inf, None, None, math.nan, 5e-324, False))
        tr.trials.append(TrialRecord(1, 1.0, 1e300, -math.inf, True, -1e-300, math.inf, 0.1, True))
        assert tr.to_csv() == csv_writer_rendering(tr)
        assert Transcript(cfg()).to_csv() == csv_writer_rendering(Transcript(cfg()))

    def test_values_equal_to_the_revealed_one(self):
        # the writer takes the revealed value's repr for an equal prediction
        # or true value only where that prints the same
        def twin(v):
            return float(repr(v))  # equal, and another object

        y = 0.1 + 0.2
        nan = math.nan
        rows = [
            (twin(y), y, twin(y)),  # equal but distinct objects
            (y, y, y),  # one object
            (-0.0, 0.0, -0.0), (0.0, -0.0, 0.0), (-0.0, -0.0, twin(-0.0)), (0.0, 0.0, 0.0),
            (math.inf, math.inf, -math.inf), (-math.inf, twin(-math.inf), -math.inf),
            (nan, nan, nan), (twin(nan), nan, math.nan), (1.0, nan, 1.0),
            (1, 1.0, 1), (1.0, 1, True), (np.float64(0.5), 0.5, 0.5), (0.5, np.float64(0.5), 0.5),
        ]
        tr = Transcript(cfg())
        for t, (prediction, revealed, true_value) in enumerate(rows):
            tr.trials.append(TrialRecord(t, 0.5, prediction, revealed, t % 2 == 0, true_value,
                                         0.0, -0.0, True))
        assert tr.to_csv() == csv_writer_rendering(tr)
        lines = tr.to_csv().splitlines()
        assert lines[3].split(",")[2:5] == ["-0.0", "0.0", "-0.0"]
        assert lines[12].split(",")[2:5] == ["1", "1.0", "1"]

    def test_values_repeated_across_rows(self):
        # a value printed in an earlier row comes back in a later one equal
        # to it but printed another way (a sign of zero, an int, a bool, a
        # numpy float, NaN), and as a later row's prediction or true value
        def twin(v):
            return float(repr(v))  # equal, and another object

        y = 0.1 + 0.2
        nan = math.nan
        rows = [
            (y, 1.0, twin(y)), (2.0, y, 1.0),  # the first prints of y, 1.0, 2.0
            (0.0, -0.0, 0.0), (-0.0, 0.0, -0.0), (-0.0, twin(0.0), 0.0),
            (1, 2.0, True), (True, 1, 1), (np.float64(1.0), 1.0, np.float64(y)),
            (np.float64(0.0), -0.0, 0.0), (-2.0, np.float64(-2.0), -2),
            (nan, twin(nan), float("nan")), (twin(nan), 3.0, nan), (3.0, nan, twin(3.0)),
            (twin(y), 2.0, y), (-y, twin(y), 2.0), (twin(2.0), -y, twin(-y)),
            (1.0, 1.0, 1.0), (twin(-y), twin(1.0), twin(y)),
        ]
        tr = Transcript(cfg())
        for t, (prediction, revealed, true_value) in enumerate(rows):
            tr.trials.append(TrialRecord(t, y if t % 3 else 0.5, prediction, revealed,
                                         t % 2 == 0, true_value, y, twin(y), t % 2 == 1))
        assert tr.to_csv() == csv_writer_rendering(tr)
        lines = tr.to_csv().splitlines()
        assert lines[6].split(",")[2:5] == ["1", "2.0", "True"]
        assert lines[9].split(",")[2:5] == ["np.float64(0.0)", "-0.0", "0.0"]
        assert lines[11].split(",")[2:5] == ["nan", "nan", "nan"]


def _blob(tr):
    return (tr.to_csv() + json.dumps(tr.summary(), sort_keys=True, indent=2) + "\n").encode()


def _digest(tr):
    return hashlib.sha256(_blob(tr)).hexdigest()


class TestGoldenTranscripts:
    """sha256 of the CSV and the summary JSON of five fixed games.

    Computed with the csv.writer rendering and ``Generator.uniform`` draws.
    A digest changes only with a game's arithmetic, its random stream, the
    output format or the package version the summary carries.
    """

    def test_standard_q2_widest_gap(self):
        tr = run_game(cfg(rounds=400, seed=3,
                          adversary_options={"query_policy": "widest-gap-midpoint"}))
        assert _digest(tr) == "8ae8840dac08fc6f268be616bfe40d973ea5d9aa8a6f9a7166eb6e74bce6d0a9"

    def test_standard_sup_norm_uniform_queries(self):
        # the queries come from the adversary's generator
        tr = run_game(cfg(q=math.inf, rounds=400, seed=5,
                          adversary_options={"query_policy": "uniform-random"}))
        assert _digest(tr) == "f187344b4fd5294d5bb36ab8a8bdb2179ad12ea0e0348f228c0f748064c4d403"

    def test_standard_generic_q_fixed_sequence(self):
        # q = 1.1 runs the bisection endpoint solver and its centre
        tr = run_game(cfg(p=1.1, q=1.1, rounds=400, seed=6,
                          adversary_options={"query_policy": "fixed-sequence"}))
        assert _digest(tr) == "6eeb54cb142bff6c98ded0754aaefdc3d0444c73befab4d92b2a6142ab0e37aa"

    def test_standard_q1_uniform_queries(self):
        # q = 1 takes the closed-form interval
        tr = run_game(cfg(q=1.0, rounds=400, seed=8,
                          adversary_options={"query_policy": "uniform-random"}))
        assert _digest(tr) == "a437e589ee4b08f86564e5cdd29513876621f8b5ae3a2cf41070c16fb62389ab"

    def test_noisy_random_liar(self):
        # so do the lie signs
        tr = run_game(cfg(eta=2, rounds=2000, learner="staged", adversary="random-liar", seed=7))
        assert tr.lie_count == 2
        assert _digest(tr) == "61b90f788ba54b3e91d5fe40b08d8a3bc00c219b28591b494906c88df26b7d02"

    def test_criterion_5_batch(self):
        # 30 of criterion 5's games, 60 lies and 59 stage resets among them:
        # the draws, lie signs and finalization over many lies and resets
        h = hashlib.sha256()
        lies = resets = 0
        for eta in (1, 2, 3):
            for seed in range(10):
                tr = run_game(GameConfig.make(p=2.0, q=2.0, rounds=2000, eta=eta, learner="staged",
                                              adversary="random-liar", seed=seed))
                lies += tr.lie_count
                resets += tr.stage_count
                h.update(_blob(tr))
        assert (lies, resets) == (60, 59)
        assert h.hexdigest() == "c3942ee116ce0ba51f3e20591d7df547c302bb62f5406d5b9c864ede5e92a484"

    def test_game_standard_grid_batch(self):
        # the game-standard benchmark's grid: q = p = 1.1 and q = inf at p = 2,
        # each query policy, the shortest and longest games of each range
        h = hashlib.sha256()
        for p, q, lengths in ((1.1, 1.1, (400, 1200)), (2.0, math.inf, (200, 500))):
            for rounds in lengths:
                for policy in QUERY_POLICIES:
                    tr = run_game(cfg(p=p, q=q, rounds=rounds, seed=rounds,
                                      adversary_options={"query_policy": policy}))
                    h.update(_blob(tr))
        assert h.hexdigest() == "014f1fed4a3eca414d01c23cd05e4ea7ebe216daebef4b7aa1ab5c3a8c9def3d"

    def test_linint_against_liars(self):
        # random-liar never repeats a query; noisy-lb asks 0 and 1 again and
        # again, which LinintLearner.observe answers by keeping the first value
        h = hashlib.sha256()
        h.update(_blob(run_game(cfg(eta=2, rounds=600, learner="linint",
                                    adversary="random-liar", seed=11))))
        h.update(_blob(run_game(cfg(eta=2, rounds=10, learner="linint", adversary="noisy-lb"))))
        assert h.hexdigest() == "6784ee407f97812978b8282f8190fe57414eda8bcec9a4d0da44415403b106d5"

    def test_answer_known_repeating_sequence(self):
        # every other entry repeats an earlier one, so the query chooser
        # skips it and the game takes each distinct x in order
        xs = [(2 * k + 1) / 64 for k in range(32)]
        seq = [u for k in range(32) for u in (xs[k], xs[k // 2])]
        tr = run_game(cfg(p=1.1, q=1.1, rounds=32, duplicate_policy="answer-known",
                          adversary_options={"query_policy": "fixed-sequence", "sequence": seq}))
        assert [r.x for r in tr.trials] == xs
        assert _digest(tr) == "4cf51755557106b9d85864fd1d0f8084dad9901f48a268025ad50a0adc8e358d"


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
