"""Generated configs at the edges of the declared config schema.

Each example takes a valid base config of ``simulate``, a sweep or
``poly-build``, replaces one key (or one player option) with a value near
the edge of its declared kind, or with a value of the wrong kind, or adds an
unknown key, and runs the command. Every run must end with an exit code and
no traceback. Exit 1 prints ``config error: `` and a message naming the
replaced key, or, when the value is of its kind and the config breaks a rule
between keys, some key of the command. Exit 4 is allowed only with a greedy
``budget`` above 1 (``test_diverged_endpoint_search_exit_4`` pins one).

``report`` gets the same contract for its inputs: generated summaries, gap
reports and sweep CSVs that hold values of the wrong kinds end in exit 0, 1
or 3 and no traceback, and exit 1 names a file.
"""

import contextlib
import io
import json
import math
import pathlib
import re
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from smoothgame import engine  # noqa: E402
from smoothgame.cli import CONFIGS, main  # noqa: E402
from smoothgame.schema import Choice, ConfigError, Count, ListOf, Options, Real  # noqa: E402

BASES = [
    ("simulate", {"p": 2, "q": 2, "rounds": 3, "learner": "linint", "adversary": "greedy",
                  "adversary_options": {"query_policy": "fixed-sequence", "budget": 1,
                                        "tie_break": "upper", "sequence": [0.5, 0.25, 0.75]}}),
    ("simulate", {"p": 2, "q": 2, "eta": 1, "rounds": 4, "seed": 1, "uncounted_rounds": 3,
                  "duplicate_policy": "reject", "learner": "staged", "adversary": "random-liar",
                  "learner_options": {"threshold": 1},
                  "adversary_options": {"query_policy": "uniform-random", "budget": 1,
                                        "lie_magnitude": 0.5}}),
    ("simulate", {"p": 2, "q": 2, "eta": 1, "rounds": 3, "learner": "staged",
                  "adversary": "insufficient-init", "adversary_options": {"swing": 10}}),
    ("simulate", {"p": 2, "q": 2, "eta": 1, "rounds": 6, "learner": "linint",
                  "adversary": "noisy-lb"}),
    ("sweep-epsilon", {"epsilons": [0.5], "rounds": 5, "seeds": [0],
                       "policies": ["widest-gap-midpoint"]}),
    ("sweep-eta", {"etas": [1], "p": 2, "q": 2, "rounds": 5, "liar_seeds": 1}),
    ("poly-build", {"points": [[0.0, 0.0], [0.5, 0.2], [1.0, 0.1]], "q": 2, "mode": "approx",
                    "epsilon": 0.2, "degree_cap": 64}),
]

WRONG_KINDS = [None, True, False, "1", [1], {"a": 1}, math.nan, math.inf, -math.inf]


def edges(kind) -> list:
    """Values at and just past the edges of a declared kind."""
    if isinstance(kind, Count):
        near = [kind.least - 1, kind.least, kind.least + 0.5, float(kind.least)]
        return near if kind.most is None else near + [kind.most, kind.most + 1]
    if isinstance(kind, Real):
        if kind.lo is None:
            return []
        near = [kind.lo, math.nextafter(kind.lo, -math.inf), math.nextafter(kind.lo, math.inf)]
        if kind.hi < math.inf:
            near += [kind.hi, math.nextafter(kind.hi, math.inf)]
        return near
    if isinstance(kind, Choice):
        # a registry may hold players other tests registered to fail on purpose
        return ["nope"] if isinstance(kind.names, dict) else [kind.names[0], kind.names[-1], "nope"]
    if isinstance(kind, ListOf):
        return [[]] + [[v] for v in edges(kind.kind)]
    if isinstance(kind, Options):
        return [{}, {"mystery": 1}]
    raise AssertionError(kind)


def declared(command: str, config: dict) -> dict:
    """Every key the base config may take, with its kind: (where, key) -> kind."""
    kinds = {(None, k): kind for k, (kind, _) in CONFIGS[command].items()}
    if command == "simulate":
        for where, registry in (("learner", engine.LEARNERS), ("adversary", engine.ADVERSARIES)):
            for k, (kind, _) in registry[config[where]][1].items():
                kinds[(f"{where}_options", k)] = kind
    return kinds


@st.composite
def edge_configs(draw):
    command, base = draw(st.sampled_from(BASES))
    kinds = declared(command, base)
    where, key = draw(st.sampled_from(sorted(kinds, key=str) + [(None, "mystery")]))
    kind = kinds.get((where, key))
    value = draw(st.sampled_from((edges(kind) if kind else []) + WRONG_KINDS))
    config = json.loads(json.dumps(base))
    target = config if where is None else config.setdefault(where, {})
    target[key] = value
    return command, config, key, kind, value


def of_kind(kind, value) -> bool:
    try:
        kind.check("key", value, json=True)
    except ConfigError:
        return False
    return True


@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(edge_configs())
def test_edge_configs_exit_cleanly(case):
    command, config, key, kind, value = case
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "c.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(path), "--out", str(pathlib.Path(tmp) / "o")])
    err = err.getvalue()
    assert "Traceback" not in err
    options = config.get("adversary_options")
    budget = options.get("budget") if isinstance(options, dict) else None
    over_budget = isinstance(budget, (int, float)) and budget > 1
    assert code in ((0, 1, 2, 3, 4) if over_budget else (0, 1, 3)), (code, err)
    if code == 1:
        assert err.startswith("config error: "), err
        named = [key] if kind is None or not of_kind(kind, value) else [
            k for _, k in declared(command, config)]
        assert any(re.search(rf"\b{re.escape(k)}\b", err) for k in named), (key, value, err)


SWEEPS = {
    "sweep_epsilon.csv": (["epsilon", "policy", "seed", "observed_total", "bound", "ratio"],
                          ["0.5", "uniform-random", "0", "1.0", "12.0", "0.08"]),
    "sweep_eta.csv": (["eta", "learner", "adversary", "observed_total", "forced_lower_bound",
                       "lb_ratio", "upper_bound"], ["1", "staged", "noisy-lb", "4.0", "3.0", "1.3", ""]),
}


@st.composite
def report_inputs(draw):
    """A summary, a gap report and a sweep CSV as ``report`` reads them, each
    of which may have one value replaced by one of a wrong kind, one key or
    cell dropped, or be a value of a wrong kind as a whole."""
    wrong = st.sampled_from(WRONG_KINDS + ["", "x", -1, 2.5])

    def spoil(obj, keys):
        how = draw(st.sampled_from(["keep", "replace", "drop"]))
        if how != "keep":
            key = draw(st.sampled_from(keys))
            if how == "replace":
                obj[key] = draw(wrong) if isinstance(obj, dict) else str(draw(wrong))
            else:
                del obj[key]

    summary = {"counted_total": 0.5, "legality": True}
    entry = {"gap_id": "out", "min_gap": 0.1, "violations": 0, "ok": True}
    gaps = {"reports": [entry]}
    for obj in (summary, entry, gaps):
        spoil(obj, sorted(obj))
    files = {name: json.dumps(draw(st.one_of(st.just(obj), wrong)))
             for name, obj in (("game_summary.json", summary), ("gap_reports.json", gaps))}
    name = draw(st.sampled_from(sorted(SWEEPS)))
    header, row = (list(r) for r in SWEEPS[name])
    spoil(header, range(len(header)))
    spoil(row, range(len(row)))
    files[name] = draw(st.sampled_from(["", f"# comment\n{','.join(header)}\n{','.join(row)}\n"]))
    return files


@settings(max_examples=300, derandomize=True, deadline=None)
@given(report_inputs())
def test_report_inputs_of_wrong_kinds_exit_cleanly(files):
    with tempfile.TemporaryDirectory() as tmp:
        data = pathlib.Path(tmp) / "data"
        data.mkdir()
        for name, text in files.items():
            (data / name).write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["report", "--config", str(data), "--out", str(pathlib.Path(tmp) / "o")])
    err = err.getvalue()
    assert "Traceback" not in err
    assert code in (0, 1, 3), (code, err)
    if code == 1:
        assert err.startswith("config error: ") and any(name in err for name in files), err
