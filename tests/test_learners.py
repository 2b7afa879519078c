import math

import numpy as np
import pytest

from smoothgame.adversaries import GreedyAdversary, GreedyConfig
from smoothgame.engine import GameConfig, build_players
from smoothgame.interpolation import DuplicateKnotError, SampleSet, eval_interpolant
from smoothgame.learners import (
    BUDGET_BLOWN,
    PREDICTION_OUT,
    REVEALED_OUT,
    LinintLearner,
    ProtocolViolationError,
    StagedLearner,
    interval_of,
    median_center,
)


class TestLinint:
    def test_zero_before_feedback(self):
        assert LinintLearner().predict(0.7) == 0.0

    @pytest.mark.parametrize("x", [1.5, -0.1])
    def test_query_outside_the_unit_interval_raises(self, x):
        with pytest.raises(ValueError, match="outside"):
            LinintLearner().predict(x)

    def test_midpoint(self):
        lnr = LinintLearner()
        lnr.observe(0.0, 0.0)
        lnr.observe(1.0, 1.0)
        assert lnr.predict(0.5) == pytest.approx(0.5)

    def test_constant_extension(self):
        lnr = LinintLearner()
        lnr.observe(0.3, 0.7)
        assert lnr.predict(0.9) == 0.7

    def test_reconsistency(self):
        rng = np.random.default_rng(0)
        lnr = LinintLearner()
        seen = []
        for _ in range(30):
            x, y = float(rng.uniform()), float(rng.normal())
            lnr.observe(x, y)
            seen.append((x, y))
        for x, y in seen:
            assert lnr.predict(x) == y

    def test_repeated_input_keeps_first(self):
        lnr = LinintLearner()
        lnr.observe(0.5, 1.0)
        lnr.observe(0.5, -3.0)
        assert lnr.predict(0.5) == 1.0

    def test_prediction_scales_with_values(self):
        # interpolation is linear in the observed values
        rng = np.random.default_rng(1)
        pts = [(float(rng.uniform()), float(rng.normal())) for _ in range(10)]
        a, b = LinintLearner(), LinintLearner()
        for x, y in pts:
            a.observe(x, y)
            b.observe(x, 2.5 * y)
        for x in rng.uniform(0, 1, 20):
            assert b.predict(float(x)) == pytest.approx(2.5 * a.predict(float(x)))


def _add_reference(s, x, y):
    # SampleSet.add with a fresh lookup; a repeated x keeps its first value
    try:
        s.add(x, y)
    except DuplicateKnotError:
        pass


class TestObserveAfterPredict:
    """``observe`` grows the known set as ``SampleSet.add`` does, whichever x was predicted."""

    def test_observe_of_another_x_matches_a_fresh_lookup(self):
        rng = np.random.default_rng(21)
        lnr, reference = LinintLearner(), SampleSet()
        for _ in range(400):
            x = float(rng.uniform())
            if reference.us and rng.uniform() < 0.2:
                x = reference.us[int(rng.integers(len(reference)))]  # a repeat
            if rng.uniform() < 0.7:
                assert lnr.predict(x) == eval_interpolant(reference, x)
            # observe the predicted x, a fresh one, or one predicted earlier
            if rng.uniform() < 0.4:
                x = float(rng.uniform())
            y = float(rng.normal())
            lnr.observe(x, y)
            _add_reference(reference, x, y)
            assert lnr.known == reference

    def test_two_predicts_then_observe_the_first(self):
        lnr = LinintLearner()
        lnr.observe(0.5, 1.0)
        lnr.predict(0.2)
        lnr.predict(0.8)
        lnr.observe(0.2, -1.0)
        assert lnr.known == SampleSet([0.2, 0.5], [-1.0, 1.0])

    def test_second_observe_of_a_predicted_x_is_a_repeat(self):
        lnr = LinintLearner()
        lnr.observe(0.5, 1.0)
        lnr.predict(0.7)
        lnr.observe(0.3, 2.0)  # grows the set below 0.7
        lnr.observe(0.7, 3.0)
        lnr.observe(0.7, 4.0)
        assert lnr.known == SampleSet([0.3, 0.5, 0.7], [2.0, 1.0, 3.0])

    def test_repeat_with_a_bad_value_still_errors(self):
        lnr = LinintLearner()
        lnr.observe(0.5, 1.0)
        lnr.predict(0.5)
        with pytest.raises(ValueError):
            lnr.observe(0.5, float("nan"))

    def test_staged_inner_learner_across_resets(self):
        # the staged learner's set holds every staged-phase observation of its
        # stage, though it predicts from it only in mimicked rounds, and a
        # reset empties it
        lnr = StagedLearner(eta=3, p=2.0)
        adv = GreedyAdversary(2.0, GreedyConfig(query_policy="uniform-random"),
                              seed=0, eta=3, rounds=400)
        reference = SampleSet()
        for t in range(400):
            x = adv.next_query(t)
            y = adv.reveal(x, lnr.predict(x))
            staged, resets = lnr.global_center is not None, lnr.stage_resets
            lnr.observe(x, y)
            if lnr.stage_resets > resets:
                reference = SampleSet()
            elif staged:
                _add_reference(reference, x, y)
            assert lnr.known == reference
        assert lnr.stage_resets == 3


class TestIntervalOf:
    @pytest.mark.parametrize(
        "x,expected",
        [(0.0, 1), (0.2499, 1), (0.25, 2), (0.49, 2), (0.5, 3), (0.74, 3), (0.75, 4), (1.0, 4)],
    )
    def test_boundaries(self, x, expected):
        assert interval_of(x) == expected

    def test_domain(self):
        with pytest.raises(ValueError):
            interval_of(1.5)


class TestMedianCenter:
    def test_sorted_median(self):
        assert median_center([0.0, 5.0, 0.0], 1) == 0.0

    def test_all_equal(self):
        assert median_center([2.0, 2.0, 2.0], 1) == 2.0

    def test_five_values(self):
        assert median_center([-1.0, -1.0, 1.0, 1.0, 3.0], 2) == 1.0

    def test_count_check(self):
        with pytest.raises(ValueError):
            median_center([1.0, 2.0], 1)


def make_learner(eta=1, p=2.0):
    return StagedLearner(eta=eta, p=p)


def staged_round(lnr, x):
    """``predict(x)`` and whether the round is mimicked: x's interval has a band."""
    mimicked = lnr.bands[interval_of(x) - 1] is not None
    return lnr.predict(x), mimicked


def observe_resets(lnr, x, y) -> bool:
    """``observe(x, y)``, and whether it reset the stage."""
    resets = lnr.stage_resets
    lnr.observe(x, y)
    return lnr.stage_resets > resets


def feed_initial(lnr, values, xs=None):
    xs = xs if xs is not None else [0.01 * (i + 1) for i in range(len(values))]
    for x, y in zip(xs, values):
        assert lnr.predict(x) == 0.0
        lnr.observe(x, y)


class TestStagedInitialPhase:
    def test_center_is_median(self):
        lnr = make_learner(eta=1)
        feed_initial(lnr, [1.0, 5.0, 2.0])
        assert lnr.global_center == 2.0

    def test_staged_calls_before_init_error(self):
        # the initial phase takes values without a predict and adds no knot;
        # from the first staged trial on, observe needs its predict
        lnr = make_learner()
        for x in (0.3, 0.3, 0.5):
            lnr.observe(x, 0.0)
        assert len(lnr.known) == 0
        with pytest.raises(ProtocolViolationError):
            lnr.observe(0.3, 0.0)

    def test_certification_guard(self):
        with pytest.raises(ValueError):
            StagedLearner(eta=1, p=1.5)
        lnr = StagedLearner(eta=1, p=1.5, threshold=4.0)  # experimental mode
        assert lnr.threshold == 4.0


class TestStagedPrediction:
    def test_sparse_interval_predicts_center(self):
        lnr = make_learner(eta=1)
        feed_initial(lnr, [2.0, 2.0, 2.0])
        # two points in interval 2 is below the 2*eta+1 = 3 threshold
        for x in (0.3, 0.31):
            yhat, mimicked = staged_round(lnr, x)
            assert (yhat, mimicked) == (2.0, False)
            lnr.observe(x, 2.0)

    def test_full_interval_mimics_inner(self):
        lnr = make_learner(eta=1)
        feed_initial(lnr, [2.0, 2.0, 2.0])
        for x, y in [(0.3, 2.0), (0.31, 2.1), (0.32, 1.9)]:
            lnr.predict(x)
            lnr.observe(x, y)
        yhat, mimicked = staged_round(lnr, 0.35)
        assert mimicked
        # interval center is 2.0; the interpolant lies within the band
        assert 1.5 <= yhat <= 2.5
        assert lnr.bands[1] == (1.5, 2.5)

    def test_clamped_prediction_stays_in_band(self):
        lnr = make_learner(eta=1)
        feed_initial(lnr, [0.0, 0.0, 0.0])
        # the known points lie inside the interval band
        for x, y in [(0.3, 0.4), (0.31, 0.5), (0.32, 0.45)]:
            lnr.predict(x)
            lnr.observe(x, y)
        # interval center 0.45; the interpolant stays in its hull, already in band
        yhat, mimicked = staged_round(lnr, 0.33)
        lo, hi = lnr.bands[1]
        assert mimicked and lo <= yhat <= hi


class TestStagedBand:
    @pytest.mark.parametrize("q, w", [
        (2.0, 0.5), (3.0, 0.5), (math.inf, 0.5),
        (1.5, 0.25 ** (1.0 / 3.0)), (1.2, 0.25 ** (1.0 / 6.0)), (1.0, 1.0),
    ])
    def test_half_width(self, q, w):
        assert StagedLearner(eta=1, p=2.0, q=q).half_width == pytest.approx(w, rel=1e-15)

    def test_default_q_is_2(self):
        assert make_learner().half_width == 0.5

    def test_q_below_1_rejected(self):
        for q in (0.5, math.nan):
            with pytest.raises(ValueError, match=r"must be >= 1 or inf"):
                StagedLearner(eta=1, p=2.0, q=q)

    def test_engine_passes_q(self):
        config = GameConfig.make(p=2.0, q=1.5, eta=1, rounds=10, learner="staged",
                                 adversary="random-liar")
        learner, _ = build_players(config)
        assert learner.half_width == 0.25 ** (1.0 - 1.0 / 1.5)

    def test_band_fixed_with_the_center(self):
        lnr = StagedLearner(eta=1, p=2.0, q=1.5)
        feed_initial(lnr, [2.0, 2.0, 2.0])
        for x, y in [(0.3, 2.0), (0.31, 2.1)]:
            lnr.predict(x)
            lnr.observe(x, y)
        assert lnr.bands[1] is None
        lnr.predict(0.32)
        lnr.observe(0.32, 1.9)
        assert lnr.bands[1] == (2.0 - lnr.half_width, 2.0 + lnr.half_width)

    @pytest.mark.parametrize("q, resets", [(2.0, True), (1.5, False)])
    def test_widened_band_keeps_a_true_value(self, q, resets):
        # 0.55 above the centre is within (1/4)^(1/3) = 0.63 but not 1/2
        lnr = StagedLearner(eta=1, p=2.0, q=q)
        feed_initial(lnr, [2.0, 2.0, 2.0])
        for x, y in [(0.3, 2.0), (0.31, 2.0), (0.32, 2.0)]:
            lnr.predict(x)
            lnr.observe(x, y)
        assert staged_round(lnr, 0.33) == (2.0, True)
        assert observe_resets(lnr, 0.33, 2.55) is resets
        assert (lnr.bands[1] is None) is resets


class TestStagedEvents:
    def fill_interval(self, lnr, base=2.0):
        for x, y in [(0.3, base), (0.31, base + 0.1), (0.32, base - 0.1)]:
            lnr.predict(x)
            lnr.observe(x, y)

    def test_out_of_band_revelation_resets(self):
        lnr = make_learner(eta=1)
        feed_initial(lnr, [2.0, 2.0, 2.0])
        self.fill_interval(lnr)
        lnr.predict(0.35)
        reset = observe_resets(lnr, 0.35, 2.0 + 0.8)  # outside [c - 1/2, c + 1/2]
        assert reset
        assert lnr.resets == [(6, REVEALED_OUT)]
        assert lnr.first_values == [[], [], [], []]
        assert lnr.bands == [None, None, None, None]
        # immediately after a reset the prediction is the global center
        assert len(lnr.known) == 0
        yhat, mimicked = staged_round(lnr, 0.35)
        assert (yhat, mimicked) == (2.0, False)

    def test_perceived_budget_resets(self):
        lnr = make_learner(eta=1)
        feed_initial(lnr, [0.0, 0.0, 0.0])
        self.fill_interval(lnr, base=0.0)
        resets = 0
        # in-band lies force perceived error past the unit threshold
        rng = np.random.default_rng(3)
        for k in range(60):
            x = 0.26 + 0.2 * float(rng.uniform())
            if x in lnr.known.us:
                continue
            yhat, mimicked = staged_round(lnr, x)
            if not mimicked:
                lnr.observe(x, 0.0)
                continue
            lo, hi = lnr.bands[1]
            y = hi - 0.01 if (k % 2 == 0) else lo + 0.01
            if observe_resets(lnr, x, y):
                resets += 1
                break
        assert resets == 1
        assert lnr.resets[0][1] == BUDGET_BLOWN

    def test_stage_resets_counted(self):
        lnr = make_learner(eta=2)
        assert lnr.stage_resets == 0
        feed_initial(lnr, [1.0] * 5)
        assert lnr.stage_resets == 0

    def test_observe_must_match_predict(self):
        lnr = make_learner(eta=1)
        feed_initial(lnr, [0.0, 0.0, 0.0])
        lnr.predict(0.3)
        with pytest.raises(ProtocolViolationError):
            lnr.observe(0.9, 0.0)

    def test_non_mimicked_never_resets(self):
        lnr = make_learner(eta=1)
        feed_initial(lnr, [0.0, 0.0, 0.0])
        lnr.predict(0.8)
        assert not observe_resets(lnr, 0.8, 100.0)  # wild value, but not mimicked
        assert lnr.stage_resets == 0

    def test_resets_record_trial_and_trigger(self):
        # a scripted liar fires each trigger once, in a stage of its own
        script = [
            (0.1, 0.0), (0.12, 0.0), (0.14, 0.0),  # trials 0-2: the initial phase
            (0.3, 0.0), (0.31, 0.0), (0.32, 0.0),  # 3-5: interval 2 gets the band [-1/2, 1/2]
            (0.33, 0.8),  # 6: a lie out of the band
            (0.05, 3.0), (0.4, 0.0), (0.41, 0.0), (0.42, 0.0),  # 7-10: a new stage
            (0.26, 0.0),  # 11: the interpolant toward (0.05, 3) leaves the band
            (0.5, 0.0), (0.55, 0.0), (0.6, 0.0),  # 12-14: interval 3 gets its band
            (0.52, 0.45), (0.57, -0.45), (0.58, 0.45), (0.59, -0.45),  # 15-18: in-band errors
        ]
        lnr = make_learner(eta=1)
        for x, y in script:
            lnr.predict(x)
            lnr.observe(x, y)
        assert lnr.resets == [(6, REVEALED_OUT), (11, PREDICTION_OUT), (18, BUDGET_BLOWN)]
        assert lnr.stage_resets == 3

    def test_repeat_keeps_first_value_and_rejects_a_bad_one(self):
        lnr = make_learner(eta=1)
        feed_initial(lnr, [0.0, 0.0, 0.0])
        for y in (0.1, 0.2):
            lnr.predict(0.8)
            lnr.observe(0.8, y)
        assert lnr.known == SampleSet([0.8], [0.1])
        lnr.predict(0.8)
        with pytest.raises(ValueError, match="not finite"):
            lnr.observe(0.8, math.inf)
