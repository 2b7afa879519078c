import json

import pytest

from smoothgame.cli import main


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
        assert summary["counted_total"] <= 1 + 1e-9
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
    ])
    def test_config_checked_before_the_run_exit_1(self, tmp_path, capsys, change):
        cfg = write(tmp_path / "c.json", {
            "p": 2, "q": 2, "rounds": 5, "learner": "linint", "adversary": "greedy", **change,
        })
        assert run("simulate", "--config", cfg, "--out", str(tmp_path / "out")) == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        from smoothgame import cli

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

    def test_eta_sweep_certification_guard(self, tmp_path):
        cfg = write(tmp_path / "c.json", {"etas": [1], "p": 1.5})
        assert run("sweep-eta", "--config", cfg, "--out", str(tmp_path / "o")) == 1


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

    def test_nan_knot_exit_1(self, tmp_path, capsys):
        # json.dumps writes the NaN literal, which json.loads reads back
        cfg = write(tmp_path / "c.json", {
            "points": [[float("nan"), 0.1]], "q": 2, "mode": "exact",
        })
        out = tmp_path / "o"
        assert run("poly-build", "--config", cfg, "--out", str(out)) == 1
        assert "[0, 1]" in capsys.readouterr().err
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
