"""The README's tolerance table and player options against the code."""

import importlib
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


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
    assert len(rows) == 10
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
