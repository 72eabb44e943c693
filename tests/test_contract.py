"""The package has no runtime dependencies: pyproject declares none, and the
source imports nothing outside the standard library and itself.  It also
draws randomness only from ``random.Random`` instances, never from the
module-level generator, so its outputs do not depend on global state."""

import ast
import re
import sys
from pathlib import Path

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
