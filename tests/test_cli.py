import hashlib
import json
import math
import re

import pytest

from smoothgame import cli
from smoothgame.bernstein import DEGREE_CAP
from smoothgame.cli import BOUND_SLACK, CERTIFIED_BOUNDS, main
from smoothgame.schema import Real


def write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run(*argv):
    return main(list(argv))


class TestSimulate:
    def test_standard_game(self, tmp_path):
        cfg = write(tmp_path / "c.json", {
            "p": 2, "q": 2, "rounds": 100, "learner": "linint", "adversary": "greedy",
        })
        out = tmp_path / "out"
        assert run("simulate", "--config", cfg, "--out", str(out), "--seed", "3") == 0
        summary = json.loads((out / "game_summary.json").read_text())
        assert summary["counted_total"] <= CERTIFIED_BOUNDS["standard_unit"].formula() + 1e-9
        csv_text = (out / "game_transcript.csv").read_text()
        assert csv_text.splitlines()[0] == "t,x,prediction,revealed,true_value,lie,raw_error,p_power,counted"
        assert len(csv_text.splitlines()) == 101

    def test_noisy_game(self, tmp_path):
        cfg = write(tmp_path / "c.json", {
            "p": 2, "q": 2, "eta": 2, "rounds": 30,
            "learner": "staged", "adversary": "noisy-lb",
        })
        out = tmp_path / "out"
        assert run("simulate", "--config", cfg, "--out", str(out)) == 0
        summary = json.loads((out / "game_summary.json").read_text())
        assert summary["counted_total"] >= 5
        assert summary["legality"] is True
        assert summary["lie_count"] == 2

    def test_staged_below_q2(self, tmp_path):
        # with the band held at 1/2 this game reset 3 times and exited 4
        cfg = write(tmp_path / "c.json", {
            "p": 2, "q": 1.5, "eta": 1, "rounds": 2000,
            "learner": "staged", "adversary": "random-liar", "seed": 90,
        })
        out = tmp_path / "out"
        assert run("simulate", "--config", cfg, "--out", str(out)) == 0
        summary = json.loads((out / "game_summary.json").read_text())
        assert summary["legality"] is True
        assert summary["stage_count"] <= 1

    def test_short_disclosure_exit_2(self, tmp_path):
        from smoothgame.adversaries import Disclosure, GreedyConfig, RandomLiarAdversary
        from smoothgame.engine import register_adversary

        class ShortLiar(RandomLiarAdversary):
            def finalize(self):
                disc = super().finalize()
                return Disclosure(disc.lie_flags[:-1], disc.truth)

        queries = GreedyConfig(query_policy="uniform-random")
        register_adversary(
            "short-liar-cli",
            lambda c: ShortLiar(c.q, queries, seed=c.seed, eta=c.eta, rounds=c.rounds),
        )
        cfg = write(tmp_path / "c.json", {
            "p": 2, "q": 2, "eta": 1, "rounds": 40,
            "learner": "staged", "adversary": "short-liar-cli",
        })
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "out")) == 2

    def test_diverged_endpoint_search_exit_4(self, tmp_path, capsys):
        # a budget this large puts the q = 1.5 reply beyond any finite bracket
        cfg = write(tmp_path / "c.json", {
            "p": 1.5, "q": 1.5, "rounds": 5, "learner": "linint",
            "adversary": "greedy", "adversary_options": {"budget": 1e30},
        })
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "out")) == 4
        assert "endpoint search diverged" in capsys.readouterr().err

    def test_protocol_violation_exit_4(self, tmp_path, capsys):
        from smoothgame.engine import register_learner
        from smoothgame.learners import ProtocolViolationError

        class Broken:
            def predict(self, x):
                raise ProtocolViolationError("predict called out of order")

            def observe(self, x, y):
                pass

        register_learner("broken-cli", lambda c: Broken())
        cfg = write(tmp_path / "c.json", {
            "p": 2, "q": 2, "rounds": 5, "learner": "broken-cli", "adversary": "greedy",
        })
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "out")) == 4
        assert "ProtocolViolationError" in capsys.readouterr().err

    @pytest.mark.parametrize("change", [
        {"q": 0.5},
        {"adversary_options": {"query_policy": "fixed-sequence", "sequence": [0.1, 0.2]}},
        {"adversary_options": {"query_policy": "fixed-sequence",
                               "sequence": [0.1, 0.2, 1.5, 0.3, 0.4]}},
        {"rounds": 2.5}, {"rounds": True},
    ])
    def test_config_checked_before_the_run_exit_1(self, tmp_path, capsys, change):
        cfg = write(tmp_path / "c.json", {
            "p": 2, "q": 2, "rounds": 5, "learner": "linint", "adversary": "greedy", **change,
        })
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "out")) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad", [
        {"p": "a"}, {"p": None}, {"p": -1}, {"p": 0.5}, {"p": math.nan}, {"p": True},
        {"p": math.inf}, {"q": True}, {"q": "a"}, {"q": None}, {"q": math.nan},
    ])
    def test_bad_p_or_q_exit_1(self, tmp_path, capsys, bad):
        # "a" and null were TypeErrors mid-run, -1 a ZeroDivisionError; 0.5,
        # NaN and true ran to a meaningless total, and q = true ran as q = 1
        cfg = write(tmp_path / "c.json", {
            "p": 2, "q": 2, "rounds": 20, "learner": "linint", "adversary": "greedy", **bad,
        })
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {next(iter(bad))}") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("policy", [None, "widest-gap-midpoint", "uniform-random"])
    def test_sequence_needs_the_fixed_sequence_policy_exit_1(self, tmp_path, capsys, policy):
        # only fixed-sequence reads a sequence; the default policy would play
        # 0.5, 0.25, 0.75 and ignore it
        options = {"sequence": [0.9, 0.8, 0.7]}
        if policy is not None:
            options["query_policy"] = policy
        cfg = write(tmp_path / "c.json", {
            "p": 2, "q": 2, "rounds": 3, "learner": "linint", "adversary": "greedy",
            "adversary_options": options,
        })
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "config error: option 'sequence' needs query_policy 'fixed-sequence'" in err
        assert not (tmp_path / "out").exists()
        options["query_policy"] = "fixed-sequence"
        cfg = write(tmp_path / "c.json", {
            "p": 2, "q": 2, "rounds": 3, "learner": "linint", "adversary": "greedy",
            "adversary_options": options,
        })
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "out")) == 0
        rows = (tmp_path / "out" / "game_transcript.csv").read_text().splitlines()[1:]
        assert [float(r.split(",")[1]) for r in rows] == [0.9, 0.8, 0.7]

    @pytest.mark.parametrize("seed", [2.7, True, -1, "3"])
    def test_bad_seed_exit_1(self, tmp_path, capsys, seed):
        # 2.7 was a numpy SeedSequence error, true ran as seed 1, -1 did not name the key
        cfg = write(tmp_path / "c.json", {
            "p": 2, "q": 2, "rounds": 5, "learner": "linint", "adversary": "greedy", "seed": seed,
        })
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "out")) == 1
        assert "config error: seed must be an integer >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad", [
        {"eta": 1.5}, {"eta": True}, {"eta": -1}, {"eta": "2"},
        {"uncounted_rounds": -3}, {"uncounted_rounds": 2.5}, {"uncounted_rounds": True},
    ])
    def test_bad_eta_or_uncounted_rounds_exit_1(self, tmp_path, capsys, bad):
        # eta 1.5 and true were numpy errors from the lie-schedule draw that
        # did not name the key; uncounted_rounds -3 counted the opening
        # trial and 2.5 ran, both exiting 0
        cfg = write(tmp_path / "c.json", {
            "p": 2, "q": 2, "eta": 1, "rounds": 30,
            "learner": "staged", "adversary": "random-liar", **bad,
        })
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {next(iter(bad))} must be an integer >= 0")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("budget", [math.nan, "a", True, None])
    def test_bad_greedy_budget_exit_1(self, tmp_path, capsys, budget):
        # NaN ran to a total of 0.0; "a" was a TypeError that did not name the key
        cfg = write(tmp_path / "c.json", {
            "p": 2, "q": 2, "rounds": 20, "learner": "linint", "adversary": "greedy",
            "adversary_options": {"budget": budget},
        })
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err.startswith("config error: budget must be a real number >= 0")
        assert not (tmp_path / "out").exists()

    def test_integral_float_eta_and_uncounted_rounds_pass(self, tmp_path):
        cfg = write(tmp_path / "c.json", {
            "p": 2, "q": 2, "eta": 1.0, "rounds": 30, "uncounted_rounds": 3.0,
            "learner": "staged", "adversary": "random-liar",
        })
        out = tmp_path / "out"
        assert run("simulate", "--config", cfg, "--out", str(out)) == 0
        config = json.loads((out / "game_summary.json").read_text())["config"]
        assert (config["eta"], config["uncounted_rounds"]) == (1, 3)

    def test_integral_float_and_null_seed_pass(self, tmp_path):
        base = {"p": 2, "q": 2, "rounds": 5, "learner": "linint", "adversary": "greedy"}
        for seed, expected in [(4.0, 4), (None, 0)]:
            out = tmp_path / str(seed)
            assert run("simulate", "--config", write(tmp_path / "c.json", {**base, "seed": seed}),
                       "--out", str(out)) == 0
            assert json.loads((out / "game_summary.json").read_text())["config"]["seed"] == expected

    def test_value_error_during_the_run_exit_4(self, tmp_path, capsys):
        from smoothgame.adversaries import GreedyAdversary
        from smoothgame.engine import register_adversary

        class Faulty(GreedyAdversary):
            def reveal(self, x, prediction):
                if len(self.truth_set) == 3:
                    raise ValueError("reply computed from a broken state")
                return super().reveal(x, prediction)

        register_adversary("faulty-cli", lambda c: Faulty(c.q, seed=c.seed))
        cfg = write(tmp_path / "c.json", {
            "p": 2, "q": 2, "rounds": 10, "learner": "linint", "adversary": "faulty-cli",
        })
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "out")) == 4
        assert "internal fault: ValueError" in capsys.readouterr().err

    @pytest.mark.parametrize("config, counted_total", [
        # every trial is one of the 2*eta + 1 uncounted ones
        ({"p": 2, "q": 2, "eta": 1, "rounds": 3, "learner": "staged",
          "adversary": "insufficient-init", "adversary_options": {"swing": 1e300}}, 0.0),
        ({"p": 1e300, "q": 2, "eta": 1, "rounds": 6, "learner": "linint",
          "adversary": "noisy-lb"}, math.inf),
    ])
    def test_overflowing_error_power_is_inf(self, tmp_path, capsys, config, counted_total):
        # both were an OverflowError traceback from a float power
        out = tmp_path / "out"
        assert run("simulate", "--config", write(tmp_path / "c.json", config),
                   "--out", str(out)) == 0
        assert capsys.readouterr().err == ""
        summary = json.loads((out / "game_summary.json").read_text())
        assert summary["counted_total"] == counted_total
        rows = (out / "game_transcript.csv").read_text().splitlines()[1:]
        assert "inf" in [row.split(",")[7] for row in rows]

    def test_malformed_json_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("simulate", "--config", str(bad), "--out", str(tmp_path / "o")) == 1

    def test_unknown_key_exit_1(self, tmp_path):
        cfg = write(tmp_path / "c.json", {
            "p": 2, "q": 2, "rounds": 5, "learner": "linint",
            "adversary": "greedy", "mystery": True,
        })
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "o")) == 1

    def test_missing_key_exit_1(self, tmp_path):
        cfg = write(tmp_path / "c.json", {"p": 2, "q": 2})
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "o")) == 1

    def test_missing_config_exit_1(self, tmp_path):
        assert run("simulate", "--out", str(tmp_path / "o")) == 1

    def test_bad_learner_exit_1(self, tmp_path):
        cfg = write(tmp_path / "c.json", {
            "p": 2, "q": 2, "rounds": 5, "learner": "nope", "adversary": "greedy",
        })
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "o")) == 1


class TestSweeps:
    def test_epsilon_sweep_deterministic(self, tmp_path):
        cfg = write(tmp_path / "c.json", {
            "epsilons": [0.5], "rounds": 150, "seeds": [0, 1],
            "policies": ["widest-gap-midpoint"],
        })
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("sweep-epsilon", "--config", cfg, "--out", str(out1)) == 0
        assert run("sweep-epsilon", "--config", cfg, "--out", str(out2)) == 0
        assert (out1 / "sweep_epsilon.csv").read_bytes() == (out2 / "sweep_epsilon.csv").read_bytes()

    def test_epsilon_rows_within_bound(self, tmp_path):
        cfg = write(tmp_path / "c.json", {
            "epsilons": [0.25, 0.5], "rounds": 200, "seeds": [0],
            "policies": ["fixed-sequence"],
        })
        out = tmp_path / "out"
        assert run("sweep-epsilon", "--config", cfg, "--out", str(out)) == 0
        lines = [l for l in (out / "sweep_epsilon.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
        assert lines[0].split(",") == ["epsilon", "policy", "seed", "observed_total", "bound", "ratio"]
        for line in lines[1:]:
            assert float(line.split(",")[-1]) <= 1.0

    def test_eta_sweep(self, tmp_path):
        cfg = write(tmp_path / "c.json", {"etas": [0, 1], "rounds": 120, "liar_seeds": 2})
        out = tmp_path / "out"
        assert run("sweep-eta", "--config", cfg, "--out", str(out)) == 0
        text = (out / "sweep_eta.csv").read_text()
        assert "noisy-lb" in text and "random-liar" in text
        # the eta=0 row reports the standard-model total against the unit bound
        [row] = [r for r in text.splitlines() if r.startswith("0,linint,greedy")]
        assert row.split(",")[4:] == ["", "", "1.0"]

    def test_eta_zero_row_is_checked(self, tmp_path, monkeypatch):
        # a standard-model total above 1 fails both the sweep and the report
        real_run_game = cli.run_game

        def inflated(config):
            tr = real_run_game(config)
            if config.eta == 0:
                tr.counted_total = 1.5
            return tr

        monkeypatch.setattr(cli, "run_game", inflated)
        cfg = write(tmp_path / "c.json", {"etas": [0], "rounds": 50})
        out = tmp_path / "out"
        assert run("sweep-eta", "--config", cfg, "--out", str(out)) == 3
        assert run("report", "--config", str(out), "--out", str(tmp_path / "rep")) == 3

    # Each row's gate fails on a total planted 2 slacks beyond the bound and
    # passes one planted half a slack beyond it. sweep-epsilon gates the ratio
    # total / bound at 1 + BOUND_SLACK, so its slack is relative to the bound.
    PLANTED = [
        ("sweep-epsilon", {"epsilons": [0.5], "rounds": 50, "seeds": [0],
                           "policies": ["uniform-random"]}, "greedy",
         lambda k: CERTIFIED_BOUNDS["epsilon_ceiling"].formula(0.5) * (1 + k * BOUND_SLACK)),
        ("sweep-eta", {"etas": [1], "rounds": 50, "liar_seeds": 1}, "noisy-lb",
         lambda k: CERTIFIED_BOUNDS["forced_lower"].formula(1) - k * BOUND_SLACK),
        ("sweep-eta", {"etas": [1], "rounds": 50, "liar_seeds": 1}, "random-liar",
         lambda k: CERTIFIED_BOUNDS["staged_upper"].formula(1) + k * BOUND_SLACK),
    ]

    @pytest.mark.parametrize("slacks, code", [(2.0, 3), (0.5, 0)])
    @pytest.mark.parametrize("command, config, adversary, planted", PLANTED,
                             ids=["epsilon_ceiling", "forced_lower", "staged_upper"])
    def test_planted_total_meets_its_gate(self, tmp_path, monkeypatch, command, config,
                                          adversary, planted, slacks, code):
        real_run_game = cli.run_game

        def plant(game):
            tr = real_run_game(game)
            if game.adversary == adversary:
                tr.counted_total = planted(slacks)
            return tr

        monkeypatch.setattr(cli, "run_game", plant)
        out = tmp_path / "out"
        assert run(command, "--config", write(tmp_path / "c.json", config), "--out", str(out)) == code
        assert run("report", "--config", str(out), "--out", str(tmp_path / "rep")) == code

    def test_eta_sweep_certification_guard(self, tmp_path):
        cfg = write(tmp_path / "c.json", {"etas": [1], "p": 1.5})
        assert run("sweep-eta", "--config", cfg, "--out", str(tmp_path / "o")) == 1

    @pytest.mark.parametrize("bad", [
        {"rounds": 150.5}, {"rounds": True}, {"rounds": 0}, {"seeds": [0.5]},
        {"seeds": [-1]}, {"seeds": 3},
        # each of these used to fail inside a cell, with a traceback
        {"epsilons": [0]}, {"epsilons": [-0.5]}, {"epsilons": ["x"]}, {"epsilons": [math.inf]},
        {"epsilons": [True]}, {"policies": ["nope"]},
        # 6/epsilon is certified for epsilon <= 1 only
        {"epsilons": [10.0]}, {"epsilons": [1.5]},
    ])
    def test_epsilon_sweep_rejects_bad_counts_exit_1(self, tmp_path, capsys, bad):
        cfg = write(tmp_path / "c.json", {
            "epsilons": [0.5], "rounds": 20, "seeds": [0],
            "policies": ["widest-gap-midpoint"], **bad,
        })
        out = tmp_path / "out"
        assert run("sweep-epsilon", "--config", cfg, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {next(iter(bad))} ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [
        {"etas": [1.5]}, {"etas": [True]}, {"etas": [-1]}, {"etas": 1}, {"rounds": "120"},
        {"liar_seeds": 2.7}, {"liar_seeds": False}, {"liar_seeds": 0},
        # these were TypeErrors from the p, q >= 2 test, or failed inside a cell
        {"p": "a"}, {"q": None}, {"p": math.nan}, {"p": math.inf},
    ])
    def test_eta_sweep_rejects_bad_counts_exit_1(self, tmp_path, capsys, bad):
        cfg = write(tmp_path / "c.json", {"etas": [1], "rounds": 20, "liar_seeds": 1, **bad})
        out = tmp_path / "out"
        assert run("sweep-eta", "--config", cfg, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {next(iter(bad))} ") and "Traceback" not in err
        assert not out.exists()

    def test_integral_float_counts_pass(self, tmp_path):
        cfg = write(tmp_path / "c.json", {
            "epsilons": [0.5], "rounds": 20.0, "seeds": [1.0],
            "policies": ["widest-gap-midpoint"],
        })
        out = tmp_path / "out"
        assert run("sweep-epsilon", "--config", cfg, "--out", str(out)) == 0
        [row] = (out / "sweep_epsilon.csv").read_text().splitlines()[2:]
        assert row.startswith("0.5,widest-gap-midpoint,1,")


def test_each_certified_bound_is_pinned():
    # the one copy of each row outside CERTIFIED_BOUNDS, so a loosened row fails here
    rows = CERTIFIED_BOUNDS
    assert [rows["epsilon_ceiling"].formula(e) for e in (0.1, 0.25, 0.5, 1.0)] == [60, 24, 12, 6]
    assert rows["standard_unit"].formula() == 1
    assert [rows["forced_lower"].formula(eta) for eta in (0, 1, 3)] == [1, 3, 7]
    assert [rows["staged_upper"].formula(eta) for eta in (0, 1, 3)] == [6, 18, 42]
    assert [row.text for row in rows.values()] == ["6/epsilon", "1", "2*eta+1", "12*eta+6"]
    p_q = {"p": Real(2), "q": Real(2, finite=False)}
    assert {key: row.region for key, row in rows.items()} == {
        "epsilon_ceiling": {"epsilon": Real(0, 1, above=True)},
        "standard_unit": p_q, "forced_lower": {"p": Real(2)}, "staged_upper": p_q,
    }
    # each row names the PAPER.md claim it serves, and that claim's status
    for row in rows.values():
        assert re.match(r"\([a-e]\)( and \([a-e]\))?, (reproduced|partial|open): ", row.claim)


class TestVerifyLemmas:
    def test_small_budget_all_ok(self, tmp_path):
        out = tmp_path / "out"
        assert run("verify-lemmas", "--out", str(out), "--samples", "1500", "--seed", "2") == 0
        payload = json.loads((out / "gap_reports.json").read_text())
        assert len(payload["reports"]) == 6
        assert all(rep["ok"] for rep in payload["reports"])
        assert all(rep["min_gap"] >= -1e-9 for rep in payload["reports"])

    @pytest.mark.parametrize("config, flags", [
        (None, ["--samples", "0"]),
        ({"samples": {"h_incremnt": 100}}, []),
        ({"samples": {"out": -3}}, []),
        ({"samples": {"cumulative": 0}}, []),
    ])
    def test_bad_budget_exit_1(self, tmp_path, capsys, config, flags):
        out = tmp_path / "out"
        argv = ["verify-lemmas", "--out", str(out), "--seed", "2", *flags]
        if config is not None:
            argv += ["--config", write(tmp_path / "c.json", config)]
        assert run(*argv) == 1
        assert "config error" in capsys.readouterr().err
        assert not (out / "gap_reports.json").exists()

    @pytest.mark.parametrize("config, key", [
        ({"samples": {"out": 2.7}}, "samples[out]"),
        ({"samples": {"in": True}}, "samples[in]"),
        ({"samples": {"two_variable": "100"}}, "samples[two_variable]"),
        ({"default_samples": 1.5}, "default_samples"),
        ({"default_samples": -1}, "default_samples"),
    ])
    def test_non_integer_budget_exit_1(self, tmp_path, capsys, config, key):
        # a fraction or a bool used to be truncated by int() and run
        out = tmp_path / "out"
        cfg = write(tmp_path / "c.json", config)
        assert run("verify-lemmas", "--config", cfg, "--out", str(out)) == 1
        assert f"config error: {key} must be an integer >= 1" in capsys.readouterr().err
        assert not (out / "gap_reports.json").exists()

    @pytest.mark.parametrize("seed", [2.7, True, -1, "3"])
    def test_bad_seed_exit_1(self, tmp_path, capsys, seed):
        # 2.7 was a TypeError traceback, true ran as seed 1, -1 did not name the key
        out = tmp_path / "out"
        cfg = write(tmp_path / "c.json", {"seed": seed, "default_samples": 10})
        assert run("verify-lemmas", "--config", cfg, "--out", str(out)) == 1
        assert "config error: seed must be an integer >= 0" in capsys.readouterr().err
        assert not (out / "gap_reports.json").exists()

    def test_integral_float_budget_passes(self, tmp_path):
        out = tmp_path / "out"
        cfg = write(tmp_path / "c.json", {"default_samples": 50.0, "samples": {"out": 6e1}})
        assert run("verify-lemmas", "--config", cfg, "--out", str(out)) == 0
        reports = json.loads((out / "gap_reports.json").read_text())["reports"]
        assert {r["gap_id"]: r["samples"] for r in reports}["out"] == 60


class TestPolyBuild:
    def test_approx_mode(self, tmp_path):
        cfg = write(tmp_path / "c.json", {
            "points": [[0.0, 0.0], [0.5, 0.3], [1.0, 0.1]],
            "q": 2, "mode": "approx", "epsilon": 0.05,
        })
        out = tmp_path / "out"
        assert run("poly-build", "--config", cfg, "--out", str(out)) == 0
        data = json.loads((out / "poly_build.json").read_text())
        assert max(abs(r) for r in data["residuals"]) < 0.05
        assert data["action"] < data["sample_action"] + 0.05
        assert data["plan"]["degree"] == data["degree"]

    def test_exact_mode(self, tmp_path):
        cfg = write(tmp_path / "c.json", {
            "points": [[0.0, 0.0], [1.0, 0.9]], "q": 2, "mode": "exact",
        })
        out = tmp_path / "out"
        assert run("poly-build", "--config", cfg, "--out", str(out)) == 0
        data = json.loads((out / "poly_build.json").read_text())
        assert max(abs(r) for r in data["residuals"]) <= 1e-8
        assert data["action_certified_below_one"] is True
        if data["degree"] <= 60:
            assert data["power_coefficients"] is not None

    def test_exact_mode_rejects_unit_action(self, tmp_path):
        cfg = write(tmp_path / "c.json", {
            "points": [[0.0, 0.0], [1.0, 1.0]], "q": 2, "mode": "exact",
        })
        assert run("poly-build", "--config", cfg, "--out", str(tmp_path / "o")) == 1

    @pytest.mark.parametrize("mode", ["approx", "exact"])
    @pytest.mark.parametrize("bad", [
        {"q": 0.5}, {"q": "nan"}, {"q": float("inf")}, {"q": "two"}, {"epsilon": "nan"},
    ])
    def test_bad_q_or_epsilon_exit_1(self, tmp_path, capsys, mode, bad):
        # q = inf is rejected too: |P'|^inf integrates to 0 wherever |P'| < 1
        cfg = write(tmp_path / "c.json", {
            "points": [[0.0, 0.0], [1.0, 0.5]], "q": 2, "mode": mode, **bad,
        })
        out = tmp_path / "o"
        assert run("poly-build", "--config", cfg, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert f"{next(iter(bad))} " in err
        assert not (out / "poly_build.json").exists()

    @pytest.mark.parametrize("mode", ["approx", "exact"])
    @pytest.mark.parametrize("cap", [2.5, True, -1, 0, "64"])
    def test_bad_degree_cap_exit_1(self, tmp_path, capsys, mode, cap):
        cfg = write(tmp_path / "c.json", {
            "points": [[0.0, 0.0], [1.0, 0.5]], "q": 2, "mode": mode, "degree_cap": cap,
        })
        out = tmp_path / "o"
        assert run("poly-build", "--config", cfg, "--out", str(out)) == 1
        assert "config error: degree_cap must be an integer >= 1" in capsys.readouterr().err
        assert not (out / "poly_build.json").exists()

    @pytest.mark.parametrize("mode", ["approx", "exact"])
    def test_degree_cap_above_the_cap_exit_1(self, tmp_path, capsys, mode):
        # above DEGREE_CAP the action grid's basis outgrows its cache's entry bound
        for cap in (DEGREE_CAP + 1, 2 ** 15, float(2 ** 15)):
            cfg = write(tmp_path / "c.json", {
                "points": [[0.0, 0.0], [1.0, 0.5]], "q": 2, "mode": mode, "degree_cap": cap,
            })
            out = tmp_path / "o"
            assert run("poly-build", "--config", cfg, "--out", str(out)) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"config error: degree_cap must be an integer >= 1 and <= {DEGREE_CAP}")
            assert not (out / "poly_build.json").exists()
        cfg = write(tmp_path / "c.json", {
            "points": [[0.0, 0.0], [1.0, 0.5]], "q": 2, "mode": mode, "degree_cap": DEGREE_CAP,
        })
        assert run("poly-build", "--config", cfg, "--out", str(tmp_path / "o")) == 0

    def test_nan_knot_exit_1(self, tmp_path, capsys):
        # json.dumps writes the NaN literal, which json.loads reads back
        cfg = write(tmp_path / "c.json", {
            "points": [[float("nan"), 0.1]], "q": 2, "mode": "exact",
        })
        out = tmp_path / "o"
        assert run("poly-build", "--config", cfg, "--out", str(out)) == 1
        assert "[0, 1]" in capsys.readouterr().err
        assert not (out / "poly_build.json").exists()

    @pytest.mark.parametrize("points, q", [
        ([[0, 0], [1, 1e200]], 1.5),  # the degree estimate overflows
        ([[0, 0], [0.5, 1], [1, 0]], 2000),  # the slope's q-th power overflows
    ])
    def test_approx_budget_overflow_exit_1(self, tmp_path, capsys, points, q):
        cfg = write(tmp_path / "c.json", {"points": points, "q": q, "mode": "approx"})
        out = tmp_path / "o"
        assert run("poly-build", "--config", cfg, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert "overflow the tolerance budget" in err
        assert not (out / "poly_build.json").exists()

    def test_action_that_never_converges_exit_4(self, tmp_path, capsys, monkeypatch):
        from smoothgame import bernstein

        levels = []
        monkeypatch.setattr(bernstein, "_level_integral",
                            lambda deriv, q, panels, zeros: levels.extend(panels) or [float(n) for n in panels])
        cfg = write(tmp_path / "c.json", {
            "points": [[0.0, 0.0], [0.4, 0.25], [1.0, 0.1]], "q": 2, "mode": "exact",
        })
        out = tmp_path / "o"
        assert run("poly-build", "--config", cfg, "--out", str(out)) == 4
        err = capsys.readouterr().err
        assert err.startswith("internal fault: RuntimeError: ") and "did not converge" in err
        assert levels == [8 << k for k in range(8)]  # eight levels, then the fault
        assert not (out / "poly_build.json").exists()


class TestReport:
    def test_empty_dir_exit_1(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert run("report", "--config", str(empty), "--out", str(tmp_path / "o")) == 1

    def test_aggregates_and_passes(self, tmp_path):
        cfg = write(tmp_path / "c.json", {
            "p": 2, "q": 2, "rounds": 60, "learner": "linint", "adversary": "greedy",
        })
        data = tmp_path / "data"
        assert run("simulate", "--config", cfg, "--out", str(data)) == 0
        assert run("verify-lemmas", "--out", str(data), "--samples", "500") == 0
        assert run("report", "--config", str(data), "--out", str(tmp_path / "rep")) == 0
        text = (tmp_path / "rep" / "report.md").read_text()
        assert "total bound violations: 0" in text

    def test_violation_exit_3(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        (data / "fake_summary.json").write_text(json.dumps({
            "counted_total": 5.0, "legality": False,
        }))
        assert run("report", "--config", str(data), "--out", str(tmp_path / "rep")) == 3

    @pytest.mark.parametrize("name, text", [
        ("sweep_epsilon.csv",
         "epsilon,policy,seed,observed_total,bound,ratio\n0.1,uniform-random,0,nan,60.0,nan\n"),
        ("sweep_eta.csv",
         "eta,learner,adversary,observed_total,forced_lower_bound,lb_ratio,upper_bound\n"
         "1,staged,random-liar,nan,,,18.0\n"
         "1,staged,noisy-lb,nan,3.0,nan,\n"),
    ], ids=["epsilon", "eta"])
    def test_nan_total_is_a_violation(self, tmp_path, name, text):
        # NaN compares False both ways, so a plain "> bound" test lets it pass
        data = tmp_path / "data"
        data.mkdir()
        (data / name).write_text(text)
        assert run("report", "--config", str(data), "--out", str(tmp_path / "rep")) == 3

    @pytest.mark.parametrize("name, text", [
        ("game_summary.json", "{not json"),
        ("game_summary.json", "[1, 2]"),
        ("gap_reports.json", json.dumps({"reports": [{"min_gap": 0.0, "violations": 0}]})),
        ("sweep_epsilon.csv", "epsilon,policy,seed,observed_total,bound,ratio\n"
                              "0.1,uniform-random,0,1.0,60.0,one\n"),
        ("sweep_eta.csv", ""),
    ], ids=["summary-not-json", "summary-a-list", "gap-without-id", "ratio-not-a-number",
            "empty-sweep"])
    def test_malformed_input_exit_1(self, tmp_path, capsys, name, text):
        data = tmp_path / "data"
        data.mkdir()
        (data / name).write_text(text)
        assert run("report", "--config", str(data), "--out", str(tmp_path / "rep")) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and name in err and "Traceback" not in err
        assert not (tmp_path / "rep").exists()


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "c.json"],
        ["verify-lemmas", "--out", "o", "--samples", "abc"],
        ["frobnicate", "--out", "o"],
        [],
        ["simulate", "--out", "o"],
        ["poly-build", "--out", "o"],
        # each command takes only the flags it reads
        ["simulate", "--config", "c.json", "--out", "o", "--samples", "5"],
        ["simulate", "--config", "c.json", "--out", "o", "--workers", "2"],
        ["sweep-epsilon", "--out", "o", "--seed", "1"],
        ["sweep-eta", "--out", "o", "--seed", "1"],
        ["sweep-eta", "--out", "o", "--samples", "5"],
        ["verify-lemmas", "--out", "o", "--workers", "2"],
        ["poly-build", "--config", "c.json", "--out", "o", "--seed", "1"],
        ["report", "--config", "o", "--out", "r", "--seed", "1"],
        ["sweep-epsilon", "--out", "o", "--workers", "x"],
    ])
    def test_usage_error_exit_1(self, tmp_path, monkeypatch, capsys, argv):
        # argparse's own exit 2 is the code of an adversary illegality
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "c.json", {
            "p": 2, "q": 2, "rounds": 5, "learner": "linint", "adversary": "greedy",
        })
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: smoothgame") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    @pytest.mark.parametrize("command", ["sweep-epsilon", "sweep-eta"])
    def test_workers_is_a_count_exit_1(self, tmp_path, capsys, command, workers):
        out = tmp_path / "o"
        assert run(command, "--out", str(out), "--workers", workers) == 1
        assert capsys.readouterr().err.startswith("config error: workers must be an integer >= 1")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--version"], ["--help"], ["simulate", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as stop:
            run(*argv)
        assert stop.value.code == 0


class TestConfigEcho:
    """What the CLI writes for README's example configs, byte for byte.

    The game configs give ``p`` and ``q`` as JSON ints, which the summary
    echoes as ints; the digests were taken before the config schema.
    """

    EXACT = {"points": [[0.0, 0.0], [0.4, 0.25], [1.0, 0.1]], "q": 2, "mode": "exact"}

    @pytest.mark.parametrize("command, config, digests", [
        ("simulate",
         {"p": 2, "q": 2, "rounds": 500, "learner": "linint", "adversary": "greedy"},
         {"game_summary.json": "5bf2c8ca66326c2b0166d06f54b203818ea67421f211fee9fda9f111b80325dd",
          "game_transcript.csv": "3da95734513eba0299724183125bf02db436761b76bc5e199107197d73936e70"}),
        ("simulate",
         {"p": 2, "q": 2, "eta": 2, "rounds": 2000, "learner": "staged",
          "adversary": "random-liar", "adversary_options": {"lie_magnitude": 0.75}},
         {"game_summary.json": "5d57d26c71397210ed841980fde2be5d7c0403139274709bac24e37161e84ace",
          "game_transcript.csv": "43549c90f623d2593cd172c9922ce5b997171c274ef2c13c75c7dde6487986f6"}),
        ("poly-build", EXACT,
         {"poly_build.json": "00fdb12e51319b88fa3a1adc989972eaa060a04ef178c3464b843a952b11bc12"}),
    ])
    def test_readme_examples(self, tmp_path, command, config, digests):
        out = tmp_path / "out"
        assert run(command, "--config", write(tmp_path / "c.json", config), "--out", str(out)) == 0
        for name, digest in digests.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_readme_exact_build_fields(self, tmp_path):
        # the smallest gap is 0.4, so the first degree tried is 8, and it certifies
        out = tmp_path / "out"
        assert run("poly-build", "--config", write(tmp_path / "c.json", self.EXACT), "--out", str(out)) == 0
        data = json.loads((out / "poly_build.json").read_text())
        assert data["degree"] == 8
        assert max(abs(r) for r in data["residuals"]) <= 1e-8
        assert data["action"] == pytest.approx(0.2277, abs=5e-5)
        assert data["action_certified_below_one"] is True
