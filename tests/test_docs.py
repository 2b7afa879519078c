"""The README's tolerance table against the values in the code."""

import importlib
import inspect
import pathlib
import re

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
    assert len(rows) == 11
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
