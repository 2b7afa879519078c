"""Every public name in the package has a caller, and every module imports alone.

The audit reads the source with ``ast``. A public name is any module-level
def, class or assignment, or any method or ``self.`` attribute of a public
class, whose name has no leading underscore, in every module but
``__init__`` and ``__main__``. It counts as used when code in
``src/smoothgame`` (the package ``__init__`` aside, whose re-exports are no
use) or ``bench/`` names it: a loaded name or attribute, an imported name,
or a string constant equal to it, as ``bench/layertrace.py`` names what it
patches. Docstrings are not code. A module-level name may be used under
any of these; a class member only as an attribute, an import or a string.
Names only tests call live in the tests. A module may import a name it
never reads only so that ``bench/layertrace.py`` can patch it there.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "smoothgame"
MODULES = ("interpolation", "learners", "adversaries", "engine", "inequalities",
           "bernstein", "polyapprox", "schema", "cli")

def _public(name: str) -> bool:
    return not name.startswith("_")


def public_names(tree: ast.Module):
    """(qualified name, is a class member) for each public definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if _public(node.name):
                yield node.name, False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and _public(target.id):
                    yield target.id, False
        if not (isinstance(node, ast.ClassDef) and _public(node.name)):
            continue
        members = set()
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members.add(item.name)
                for sub in ast.walk(item):
                    if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                        members.add(sub.attr)
        for member in sorted(filter(_public, members)):
            yield f"{node.name}.{member}", True


def references(trees):
    """(module-level uses, class-member uses) in the parsed ``trees``."""
    loose, member = set(), set()
    for tree in trees:
        docstrings = {id(node.value) for node in ast.walk(tree)
                      if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loose.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                member.add(node.attr)
            elif isinstance(node, ast.alias):
                member.update({node.name, node.asname} - {None})
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docstrings):
                member.add(node.value)
    return loose | member, member


def unused_public_names(modules, trees):
    """Qualified public names in ``modules`` (name -> tree) that ``trees`` never use."""
    loose, member = references(trees)
    unused = set()
    for module, tree in modules.items():
        for name, is_member in public_names(tree):
            uses = member if is_member else loose
            if name.rsplit(".", 1)[-1] not in uses:
                unused.add(f"{module}.{name}")
    return unused


def test_every_public_name_has_a_caller():
    modules = {m: ast.parse((PACKAGE / f"{m}.py").read_text()) for m in MODULES}
    callers = [f for f in PACKAGE.glob("*.py") if f.name != "__init__.py"]
    callers += (ROOT / "bench").glob("*.py")
    unused = unused_public_names(modules, [ast.parse(f.read_text()) for f in callers])
    assert not unused, f"public names nothing calls: {sorted(unused)}"


def patched_names(tracer: ast.Module) -> set[tuple[str, str]]:
    """(module, name) for each module-level name that ``_PATCHES`` patches."""
    for node in tracer.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_PATCHES" for t in node.targets):
            return {(owner.id, attr.value) for owner, attr, *_ in
                    (entry.elts for entry in node.value.elts)
                    if isinstance(owner, ast.Name)}
    raise AssertionError("no _PATCHES in the tracer")


def dead_imports(module: str, tree: ast.Module, patched) -> set[str]:
    """Names ``tree`` imports but never reads, bar those patched under ``module``."""
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return {name for name in imported - read if (module, name) not in patched}


def test_every_unread_import_is_one_the_tracer_patches():
    patched = patched_names(ast.parse((ROOT / "bench" / "layertrace.py").read_text()))
    dead = {f"{f.stem}.{name}" for f in PACKAGE.glob("*.py")
            for name in dead_imports(f.stem, ast.parse(f.read_text()), patched)}
    assert not dead, f"imports nothing reads or patches: {sorted(dead)}"


def test_the_import_guard_on_a_toy_module():
    toy = ast.parse('''
from __future__ import annotations
import os.path
from lib import dead, patched, read
import numpy as np

def f(x: np.ndarray):
    return read(os.path.join(x))
''')
    tracer = ast.parse('''
_PATCHES = (
    (toy, "patched", "span", None, None),
    (toy.Box, "dead", "span", None, None),
)
''')
    patched = patched_names(tracer)
    # a class member's patch does not excuse a module-level import
    assert patched == {("toy", "patched")}
    assert dead_imports("toy", toy, patched) == {"dead"}


def test_the_audit_rules_on_a_toy_module():
    toy = ast.parse('''
class Box:
    """grow and LIMIT are named here, which is no use."""

    def __init__(self):
        self.size = 1
        self.kept = 2
        self._hidden = 3

    def grow(self):
        return self.size + 1


def helper():
    pass


def patched():
    pass


LIMIT = 3
''')
    user = ast.parse('''
from toy import helper
box = Box()
box.kept
PATCHES = ((toy, "patched"),)
"""LIMIT"""
''')
    # size is stored and read only inside Box; grow and LIMIT are never used
    assert unused_public_names({"toy": toy}, [toy, user]) == {
        "toy.Box.grow", "toy.LIMIT"}


def _fresh_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_on_its_own(module):
    # the package __init__ imports nothing, so a cycle would show only here
    done = _fresh_python("-c", f"import smoothgame.{module}")
    assert done.returncode == 0, done.stderr


def test_version_from_the_command_line():
    from smoothgame import __version__

    done = _fresh_python("-m", "smoothgame", "--version")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == __version__
