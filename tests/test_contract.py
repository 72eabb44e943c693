"""The package has no runtime dependencies: pyproject declares none, and the
source imports nothing outside the standard library and itself.  It also
draws randomness only from ``random.Random`` instances, never from the
module-level generator, so its outputs do not depend on global state.

It has one public surface: every top-level function and class is read by
name somewhere in the package outside its own body, or is listed in
``qmackey.__all__``, and every name listed there resolves.

The classification computes its local pieces from restriction and induction
alone, so ``classify`` reads nothing of the Burnside ring.  Nor does the
subgroup lattice, which keeps the tables of marks that the ring reads."""

import ast
import re
import sys
from pathlib import Path

import pytest

import qmackey

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qmackey"


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.findall(r"^dependencies\s*=\s*(.*)$", text, re.M) == ["[]"]


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_source_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = {
        (path.name, name)
        for path in sources
        for name in _absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names | {"qmackey"}
    }
    assert not foreign


def _module_random_uses(source):
    """Names of the ``random`` module other than ``Random`` that the source uses."""
    tree = ast.parse(source)
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "random"
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            yield from (alias.name for alias in node.names if alias.name != "Random")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            if node.attr != "Random":
                yield node.attr


def test_module_random_use_is_detected():
    assert list(_module_random_uses("import random\nx = random.randint(1, 2)")) == ["randint"]
    assert list(_module_random_uses("import random as r\nf = r.shuffle")) == ["shuffle"]
    assert list(_module_random_uses("from random import choice, Random")) == ["choice"]
    assert not list(_module_random_uses("import random\nrng = random.Random(0)\nrng.randint(1, 2)"))


def test_source_draws_only_from_random_instances():
    used = {(path.name, name) for path in sorted(PACKAGE.glob("*.py")) for name in _module_random_uses(path.read_text())}
    assert not used


def _reads(tree, skip=()):
    """Every loaded name and every attribute in ``tree`` outside the nodes in ``skip``; an import is neither."""
    for node in ast.walk(tree):
        if node in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _unread(sources, exported):
    """``(module, name)`` of each top-level function or class that no module reads (``_reads``)
    outside its own body and that ``exported`` does not list."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    for module, tree in trees.items():
        for d in tree.body:
            if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and d.name not in exported:
                own = set(ast.walk(d))
                if not any(d.name in _reads(t, own) for t in trees.values()):
                    yield module, d.name


def test_unread_definition_is_detected():
    sources = {
        "a": "def f():\n    return f()\n\ndef g():\n    pass\n\nclass K:\n    pass\n",
        "b": "from a import f, g\nimport a\nx = a.K\n\ndef h():\n    return g()\n",
    }
    assert sorted(_unread(sources, {"h"})) == [("a", "f")]
    assert sorted(_unread(sources, set())) == [("a", "f"), ("b", "h")]


def test_every_top_level_name_is_read_in_the_package_or_exported():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    unread = list(_unread(sources, set(qmackey.__all__)))
    assert unread == []


def test_every_exported_name_resolves():
    assert [name for name in qmackey.__all__ if not hasattr(qmackey, name)] == []


@pytest.mark.parametrize("module", ["classify.py", "groups.py"])
def test_reads_nothing_of_the_burnside_ring(module):
    """No import from ``burnside``, no name that ``burnside`` defines, and no ``burnside_action``."""
    tree = ast.parse((PACKAGE / module).read_text())
    burnside = ast.parse((PACKAGE / "burnside.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = [getattr(node, "module", None) or "" for node in imports] + [a.name for node in imports for a in node.names]
    assert [m for m in modules if m.rpartition(".")[2] == "burnside"] == []
    defined = {d.name for d in burnside.body if isinstance(d, (ast.FunctionDef, ast.ClassDef))}
    assert defined and set(_reads(tree)) & (defined | {"burnside_action"}) == set()
