"""The README's bounds, claims table, tolerance table and player options against the code."""

import importlib
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys

from smoothgame.cli import CERTIFIED_BOUNDS

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# where README states each certified bound: the module list, the acceptance
# criteria and the sweep paragraph, each capturing the formula in backticks
BOUND_PLACES = {
    "epsilon_ceiling": (r"1\. the learner's `([^`]+)` error ceiling",
                        r"In `sweep_epsilon\.csv` each row's `bound` is `([^`]+)`"),
    "standard_unit": (r"2\. totals at most `([^`]+)`",
                      r"its `upper_bound` is the unit bound `([^`]+)` of criterion 2"),
    "forced_lower": (r"the scripted adversary forcing total error `>= ([^`]+)`",
                     r"4\. the scripted noisy adversary forcing at least `([^`]+)`",
                     r"checked against `forced_lower_bound` \(`([^`]+)`\)"),
    "staged_upper": (r"5\. the staged learner staying within `([^`]+)`",
                     r"checked against `upper_bound` \(`([^`]+)`\)"),
}


def test_readme_bounds_are_the_rows_text():
    text = " ".join(README.read_text().split())
    for key, places in BOUND_PLACES.items():
        for place in places:
            found = re.search(place, text)
            assert found, (key, place)
            assert re.sub(r"\s", "", found.group(1)) == CERTIFIED_BOUNDS[key].text, (key, place)


def test_claims_table_names_every_row():
    section = README.read_text().split("| Claim | Rows |", 1)[1].split("\n\n", 1)[0]
    rows = [[c.strip() for c in line.strip("|").split("|")]
            for line in section.splitlines()[2:]]
    assert [claim[:3] for claim, *_ in rows] == ["(a)", "(b)", "(c)", "(d)", "(e)"]
    named = {}
    for claim, keys, _witness, status, owner in rows:
        assert status.split(":")[0] in ("reproduced", "partial", "open"), claim
        assert owner.startswith("ROADMAP item"), claim
        for key in re.findall(r"`(\w+)`", keys):
            assert key in CERTIFIED_BOUNDS, (claim, key)
            # the row names the claims it serves
            assert claim[:3] in CERTIFIED_BOUNDS[key].claim, (claim, key)
            named[key] = claim
    assert sorted(named) == sorted(CERTIFIED_BOUNDS)


def _tolerance_rows():
    text = README.read_text()
    section = text.split("## Numerical conventions", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("|") and len(cells) == 4 and cells[1].startswith("`1e"):
            rows.append(cells)
    return rows


def test_every_tolerance_row_matches_its_home():
    rows = _tolerance_rows()
    assert len(rows) == 12
    for name, value, home, _ in rows:
        literal = value.strip("`")
        module, attr = re.fullmatch(r"`(\w+)\.(\w+)`", home).groups()
        target = getattr(importlib.import_module(f"smoothgame.{module}"), attr)
        if isinstance(target, float):
            # a named constant: the row names it and gives its value
            assert name == f"`{attr}`"
            assert target == float(literal)
        else:
            # a literal inside one function: the function compares at it
            assert re.search(rf"(?<![\w.]){re.escape(literal)}(?![\w.])",
                             inspect.getsource(target)), (home, literal)


def test_readme_player_options_are_the_declared_ones():
    # a fresh interpreter: other tests register players of their own
    script = ("import json; from smoothgame import engine; print(json.dumps({"
              "f'{role} {name}': sorted(options) for role, registry in "
              "(('learner', engine.LEARNERS), ('adversary', engine.ADVERSARIES)) "
              "for name, (_, options) in registry.items()}))")
    src = README.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    declared = json.loads(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                         capture_output=True, text=True).stdout)
    section = README.read_text().split("Registered players and the options", 1)[1]
    bullets = re.findall(r"^- (learner|adversary) `([\w-]+)`:(.*?)(?=^- |^$)", section,
                         flags=re.M | re.S)
    listed = {f"{role} {name}": sorted(set(re.findall(r"`(\w+)` \(", body)))
              for role, name, body in bullets}
    assert listed == declared


def test_readme_cache_bounds_are_the_code_s():
    # the basis cache's bound in all, and the bound on one level rule's window
    from smoothgame import bernstein

    text = " ".join(README.read_text().split())
    total = re.search(r"one cache bounded by the basis entries it holds \(2\^(\d+),", text)
    level = re.search(r"doubling levels whose window holds at most 2\^(\d+) basis entries", text)
    assert total and level
    assert 2 ** int(total.group(1)) == bernstein._CACHE_ENTRIES
    assert 2 ** int(level.group(1)) == bernstein._LEVEL_RULE_ENTRIES
