"""Acceptance suite: every certified bound at its stated tolerance.

Each test prints one PASS line (run with ``pytest -s`` to see them all);
a failure prints the offending numbers. Random point sets for the
polynomial criteria are drawn with at most 6 knots, inter-knot gaps of at
least 0.12, segment slopes within +-0.7 and action at most 0.65 (inside
the <= 0.9 envelope), the regime the degree cap is sized for.
"""

import dataclasses
import time

import numpy as np
import pytest
from gram_action import gram_action
from search_reference import check_cumulative, random_feasible_sequence
from transcript_reference import scale_transcript

from smoothgame.bernstein import composite_rule_action, q_action_poly
from smoothgame.engine import GameConfig, run_game
from smoothgame.inequalities import search_near_violation
from smoothgame.interpolation import SampleSet, q_action
from smoothgame.learners import median_center
from smoothgame.polyapprox import approx_interpolant_poly, exact_interpolant_poly


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def random_action_set(rng, m_max=6, slope_cap=0.7, min_gap=0.12, action_cap=0.65, q=2.0):
    while True:
        m = int(rng.integers(2, m_max + 1))
        us = np.sort(rng.uniform(0, 1, m))
        if np.min(np.diff(us)) <= min_gap:
            continue
        slopes = rng.uniform(-slope_cap, slope_cap, m - 1)
        v0 = float(rng.uniform(-0.3, 0.3))
        vs = np.concatenate([[v0], v0 + np.cumsum(slopes * np.diff(us))])
        s = SampleSet(us, vs)
        if q_action(s, q) <= action_cap:
            return s


POLICIES = ("widest-gap-midpoint", "uniform-random", "fixed-sequence")


def test_criterion_1_linint_inverse_epsilon_bound():
    t0 = time.monotonic()
    worst = {}
    for eps in (0.1, 0.25, 0.5):
        bound = 6.0 / eps
        for policy in POLICIES:
            for seed in range(5):
                config = GameConfig.make(
                    p=1.0 + eps, q=1.0 + eps, rounds=5000, eta=0,
                    learner="linint", adversary="greedy", seed=seed,
                    adversary_options={"query_policy": policy},
                )
                tr = run_game(config)
                assert tr.counted_total <= bound + 1e-6, (eps, policy, seed, tr.counted_total)
                key = eps
                worst[key] = max(worst.get(key, 0.0), tr.counted_total)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds the 2 minute budget"
    summary = ", ".join(f"eps={e}: worst {w:.3f} <= {6/e:.0f}" for e, w in sorted(worst.items()))
    report(1, f"45 games of 5000 rounds in {elapsed:.0f}s; {summary}")


def test_criterion_2_unit_value_consistency():
    worst = 0.0
    for p, q in ((2.0, 2.0), (3.0, 2.0), (2.0, 3.0)):
        for seed in range(5):
            config = GameConfig.make(
                p=p, q=q, rounds=2000, eta=0,
                learner="linint", adversary="greedy", seed=seed,
                adversary_options={"query_policy": "uniform-random"},
            )
            tr = run_game(config)
            assert tr.counted_total <= 1.0 + 1e-9, (p, q, seed, tr.counted_total)
            worst = max(worst, tr.counted_total)
    report(2, f"15 games at p,q >= 2: worst total {worst:.6f} <= 1 + 1e-9")


def test_criterion_3_inequality_suites():
    t0 = time.monotonic()
    mins = {}
    for gap_id in ("out", "in", "two_variable", "h_increment", "dichotomy"):
        rep = search_near_violation(gap_id, budget=100_000, seed=2026)
        assert rep.ok and rep.min_gap >= -1e-9, rep.to_dict()
        mins[gap_id] = rep.min_gap
    rng = np.random.default_rng(77)
    for _ in range(1000):
        seq = random_feasible_sequence(rng, 50)
        for p in (1.1, 1.5, 2.0):
            assert check_cumulative(seq, p)
    elapsed = time.monotonic() - t0
    assert elapsed < 180.0, f"runtime {elapsed:.1f}s exceeds the 3 minute budget"
    gaps = ", ".join(f"{k}: {v:+.1e}" for k, v in mins.items())
    report(3, f"5 x 1e5 samples and 1000 x 3 cumulative sequences in {elapsed:.0f}s; "
              f"min gaps {gaps}")


def test_criterion_4_scripted_noisy_lower_bound():
    results = []
    for eta in (1, 2, 3):
        for learner in ("linint", "staged"):
            config = GameConfig.make(
                p=2.0, q=2.0, rounds=6 * eta + 10, eta=eta,
                learner=learner, adversary="noisy-lb", seed=0,
            )
            tr = run_game(config)
            floor = 2 * eta + 1
            assert tr.counted_total >= floor - 1e-9, (eta, learner, tr.counted_total)
            assert tr.legality is True
            assert tr.lie_count == eta
            results.append(f"eta={eta} {learner}: {tr.counted_total:.1f} >= {floor}")
    report(4, "; ".join(results))


def test_criterion_5_staged_noisy_upper_bound():
    t0 = time.monotonic()
    seeds_per_eta = (334, 333, 333)  # 1000 randomized liars total
    worst = {}
    for eta, n_seeds in zip((1, 2, 3), seeds_per_eta):
        ceiling = 12 * eta + 6
        for seed in range(n_seeds):
            config = GameConfig.make(
                p=2.0, q=2.0, rounds=2000, eta=eta,
                learner="staged", adversary="random-liar", seed=seed,
            )
            tr = run_game(config)
            assert tr.legality is True
            assert tr.counted_total <= ceiling, (eta, seed, tr.counted_total)
            assert tr.stage_count <= eta, (eta, seed, tr.stage_count)
            worst[eta] = max(worst.get(eta, 0.0), tr.counted_total)
        config = GameConfig.make(
            p=2.0, q=2.0, rounds=6 * eta + 10, eta=eta,
            learner="staged", adversary="noisy-lb", seed=0,
        )
        tr = run_game(config)
        assert tr.counted_total <= ceiling
        assert tr.stage_count <= eta
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds the 5 minute budget"
    summary = ", ".join(f"eta={e}: worst {w:.2f} <= {12*e+6}" for e, w in sorted(worst.items()))
    report(5, f"1000 liar games and 3 scripted games in {elapsed:.0f}s; {summary}")


def test_criterion_6_initial_round_boundaries():
    # with only 2*eta uncounted rounds the script forces a huge first error
    for eta in (1, 2, 3):
        for learner in ("linint", "staged"):
            config = GameConfig.make(
                p=2.0, q=2.0, rounds=2 * eta + 1, eta=eta,
                learner=learner, adversary="insufficient-init", seed=0,
                uncounted_rounds=2 * eta,
            )
            tr = run_game(config)
            first_counted = next(r for r in tr.trials if r.counted)
            assert first_counted.raw_error >= 5e5, (eta, learner, first_counted.raw_error)
            assert tr.legality is True and tr.lie_count == eta
    # with 2*eta+1 uncounted rounds the initial median traps every true value
    rng = np.random.default_rng(99)
    games = 0
    while games < 1000:
        eta = int(rng.integers(1, 4))
        seed = int(rng.integers(0, 2 ** 31))
        config = GameConfig.make(
            p=2.0, q=2.0, rounds=40, eta=eta,
            learner="linint", adversary="random-liar", seed=seed,
        )
        tr = run_game(config)
        if not tr.legality:
            continue
        games += 1
        center = median_center([r.revealed for r in tr.trials[: 2 * eta + 1]], eta)
        for r in tr.trials:
            assert center - 1.0 - 1e-9 <= r.true_value <= center + 1.0 + 1e-9, (
                eta, seed, r.t, r.true_value, center)
    report(6, "insufficient-init forces first counted error >= 5e5 for eta in {1,2,3}; "
              "1000 legal games keep every true value inside the initial median band")


def test_criterion_7_polynomial_pipeline():
    t0 = time.monotonic()
    rng = np.random.default_rng(2718)
    worst_resid = {0.1: 0.0, 0.01: 0.0}
    worst_excess = {0.1: -np.inf, 0.01: -np.inf}
    exact_worst_resid = 0.0
    exact_worst_action = 0.0
    oracle_checks = 0
    gram_checks = 0
    worst_gram = 0.0
    for i in range(200):
        q = (1.5, 2.0, 3.0)[i % 3]
        s = random_action_set(rng, q=q)
        base = q_action(s, q)
        assert base <= 0.9
        for eps in (0.1, 0.01):
            poly, plan = approx_interpolant_poly(s, q, eps)
            resid = max(abs(poly(u) - v) for u, v in s)
            action = q_action_poly(poly, q)
            assert resid < eps, (i, q, eps, resid)
            assert action < base + eps, (i, q, eps, action, base)
            if q == 2.0:
                worst_gram = max(worst_gram, abs(action - gram_action(poly)))
                assert worst_gram <= 1e-9, (i, eps, poly.degree, action)
                gram_checks += 1
            worst_resid[eps] = max(worst_resid[eps], resid)
            worst_excess[eps] = max(worst_excess[eps], action - base)
            if eps == 0.1 and i % 20 == 0 and poly.degree <= 128:
                oracle = composite_rule_action(poly, q, n_points=10 ** 6)
                assert abs(action - oracle) <= max(1e-6 * abs(oracle), 1e-12), (
                    i, q, action, oracle)
                oracle_checks += 1
        poly = exact_interpolant_poly(s, q)
        resid = max(abs(poly(u) - v) for u, v in s)
        action = q_action_poly(poly, q)
        assert resid <= 1e-8, (i, q, resid)
        assert action < 1.0, (i, q, action)
        if q == 2.0:
            worst_gram = max(worst_gram, abs(action - gram_action(poly)))
            assert worst_gram <= 1e-9, (i, "exact", poly.degree, action)
            gram_checks += 1
        exact_worst_resid = max(exact_worst_resid, resid)
        exact_worst_action = max(exact_worst_action, action)
    # analytic anchors for the quadrature oracle
    from smoothgame.bernstein import BernsteinPolynomial

    sq = BernsteinPolynomial([0.0, 0.0, 1.0])  # x^2
    assert q_action_poly(sq, 2) == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert composite_rule_action(sq, 2) == pytest.approx(4.0 / 3.0, rel=1e-9)
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"runtime {elapsed:.1f}s exceeds the 10 minute budget"
    assert oracle_checks >= 10
    assert gram_checks == 3 * 67
    report(7, f"200 sets in {elapsed:.0f}s; approx worst resid "
              f"{worst_resid[0.1]:.2e}/{worst_resid[0.01]:.2e}, worst action excess "
              f"{worst_excess[0.1]:+.2e}/{worst_excess[0.01]:+.2e}; exact worst resid "
              f"{exact_worst_resid:.2e}, worst action {exact_worst_action:.6f} < 1; "
              f"{oracle_checks} oracle cross-checks; {gram_checks} q = 2 builds "
              f"within {worst_gram:.1e} of the exact Gram action")


def test_criterion_8_transcript_scaling_identity():
    rng = np.random.default_rng(31)
    checked = replayed = 0
    while checked < 100:
        seed = int(rng.integers(0, 2 ** 31))
        eta = int(rng.integers(0, 3))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        if eta == 0:
            config = GameConfig.make(
                p=p, q=2.0, rounds=200, eta=0, learner="linint",
                adversary="greedy", seed=seed,
                adversary_options={"query_policy": "uniform-random"},
            )
        else:
            config = GameConfig.make(
                p=max(p, 2.0), q=2.0, rounds=200, eta=eta,
                learner="staged", adversary="random-liar", seed=seed,
            )
        tr = run_game(config)
        if tr.counted_total == 0.0:
            continue
        checked += 1
        for c in (0.5, 2.0):
            scaled = scale_transcript(tr, c)
            expect = c ** tr.config.p * tr.counted_total
            assert scaled.counted_total == pytest.approx(expect, rel=1e-12), (
                seed, c, scaled.counted_total, expect)
        if eta == 0:
            replay_at_half_scale(tr)
            replayed += 1
    for p in (1.5, 2.0, 3.0):
        replay_at_half_scale(run_game(GameConfig.make(
            p=p, q=2.0, rounds=200, eta=0, learner="linint", adversary="greedy",
            adversary_options={"query_policy": "widest-gap-midpoint"})))
        replayed += 1
    report(8, f"100 transcripts scale by c^p at c in {{0.5, 2}} to 1e-12 relative; "
              f"{replayed} standard games replay at budget 0.5^q to the scaled transcript")


def replay_at_half_scale(tr):
    """Play ``tr``'s standard game again against greedy at budget c^q, c = 1/2.

    The class-scaling identity as a game: every value either player computes
    is linear in the revealed values, so the replay is ``scale_transcript(tr,
    c)``, and halving a float is exact, so it is that bit for bit. The
    referee's unit budget rules out c > 1.
    """
    c = 0.5
    config = tr.config
    options = dict(config.adversary_options, budget=c ** config.q)
    replay = run_game(dataclasses.replace(
        config, adversary_options=tuple(sorted(options.items()))))
    want = scale_transcript(tr, c)

    def rows(t):
        return [(r.x, r.prediction, r.revealed, r.raw_error) for r in t.trials]

    assert rows(replay) == rows(want), config
    assert replay.counted_total == pytest.approx(want.counted_total, rel=1e-12), config
    assert replay.perceived_total == pytest.approx(want.perceived_total, rel=1e-12), config
