"""The package has no runtime dependencies: pyproject declares none, and the
source imports nothing outside the standard library and itself.  It also
draws randomness only from ``random.Random`` instances, never from the
module-level generator, so its outputs do not depend on global state.

It has one public surface: every top-level function and class is read by
name somewhere in the package outside its own body, or is listed in
``qmackey.__all__``, and every name listed there resolves.

The classification computes its local pieces from restriction and induction
alone, so ``classify`` reads nothing of the Burnside ring.  Nor does the
subgroup lattice, which keeps the tables of marks that the ring reads.  Nor
does any function of ``mackey`` but ``burnside_mackey``, nor
``monoidal.box_unit_iso``, outside their annotations: ``idempotent_part``
reads only the marks of its idempotent, and both read the ring's action as
restriction followed by induction.

A map into or out of a zero level is the zero map, and ``mackey.build_functor``
is the one place that says so: in the package, only it, the JSON reader
``serialize.functor_from_json`` (which refuses a missing key, a zero map's
too, as ``test_serialize`` checks), the cached path of ``burnside_mackey`` and
``monoidal._box_product``, which wraps the tables ``build_functor`` assembles
for ``box`` and for the source of ``box_unit_iso`` in a ``BoxProduct``, call
``MackeyFunctor(...)`` or ``BoxProduct(...)``.

No function writes to a module-level name, so no call leaves state behind
for the next one, except the two module-level caches: ``mackey.burnside_mackey``'s
``_BURNSIDE_TABLES``, keyed weakly by an immutable lattice, and the argument
parser that ``cli.build_parser`` caches.  A functor's classification lives in
the value ``classify.split`` returns.

The sparse row format of a ``QMatrix`` is private to ``linalg``: no other
module imports an underscore name from it or reads a matrix's ``_rows`` or
``_unit_rows``; they build through ``QMatrix.sparse`` and read through
``entries``.  Inside ``linalg``, only the producers its module docstring names
pass unit rows to ``_new``: the premise of ``matmul``'s identity shortcut.

Every default order cap, of a function or of the CLI's ``--cap``, is the one
constant ``groups.DEFAULT_ORDER_CAP``.  The pytest settings refuse an
unregistered marker."""

import ast
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qmackey
from qmackey.cli import build_parser
from qmackey.groups import DEFAULT_ORDER_CAP
from qmackey.serialize import functor_from_json, group_from_json

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


def _burnside_names():
    """The top-level functions and classes of ``burnside``, and ``burnside_action``."""
    burnside = ast.parse((PACKAGE / "burnside.py").read_text())
    return {d.name for d in burnside.body if isinstance(d, (ast.FunctionDef, ast.ClassDef))} | {"burnside_action"}


def _annotations(tree):
    """Every node inside an annotation in ``tree``: of an argument, a return or an assignment."""
    notes = [getattr(node, attr, None) for node in ast.walk(tree) for attr in ("annotation", "returns")]
    return {sub for note in notes if note for sub in ast.walk(note)}


@pytest.mark.parametrize("module", ["classify.py", "groups.py"])
def test_reads_nothing_of_the_burnside_ring(module):
    """No import from ``burnside``, no name that ``burnside`` defines, and no ``burnside_action``."""
    tree = ast.parse((PACKAGE / module).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = [getattr(node, "module", None) or "" for node in imports] + [a.name for node in imports for a in node.names]
    assert [m for m in modules if m.rpartition(".")[2] == "burnside"] == []
    assert set(_reads(tree)) & _burnside_names() == set()


def test_functor_operations_read_nothing_of_the_burnside_ring():
    """``monoidal.box_unit_iso`` and every top-level function of ``mackey`` but ``burnside_mackey`` read,
    outside their annotations, no name that ``burnside`` defines, and no ``burnside_action``."""
    def top_level(module):
        return {d.name: d for d in ast.parse((PACKAGE / module).read_text()).body if isinstance(d, ast.FunctionDef)}

    mackey = top_level("mackey.py")
    del mackey["burnside_mackey"]
    functions = [*mackey.values(), top_level("monoidal.py")["box_unit_iso"]]
    assert "idempotent_part" in [d.name for d in functions] and len(functions) > 30
    assert [d.name for d in functions if set(_reads(d, _annotations(d))) & _burnside_names()] == []


def test_annotation_reads_are_skipped_and_body_reads_are_not():
    d = ast.parse("def f(e: BurnsideElement) -> BurnsideRing:\n    x: BurnsideError = burnside_ring(e)\n").body[0]
    assert set(_reads(d, _annotations(d))) & _burnside_names() == {"burnside_ring"}


def _functor_builders(sources):
    """``(module, top-level definition)`` for each call of ``MackeyFunctor`` or ``BoxProduct``, by name or attribute."""
    for module, text in sources.items():
        for d in ast.parse(text).body:
            for node in ast.walk(d):
                if isinstance(node, ast.Call) and ast.unparse(node.func).rpartition(".")[2] in ("MackeyFunctor", "BoxProduct"):
                    yield module, d.name


def test_functor_builders_are_found():
    sources = {"a": "def f(m):\n    return m.MackeyFunctor(1)\n\nclass K:\n    def g(self):\n        return BoxProduct()\n"}
    assert list(_functor_builders(sources)) == [("a", "f"), ("a", "K")]


def test_only_build_functor_the_reader_the_burnside_cache_and_box_make_functors():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert sorted(set(_functor_builders(sources))) == [
        ("mackey.py", "build_functor"),
        ("mackey.py", "burnside_mackey"),
        ("monoidal.py", "_box_product"),
        ("serialize.py", "functor_from_json"),
    ]


_MUTATORS = {"append", "update", "setdefault", "pop", "clear"}


def _is_cache(node):
    """True for ``cache`` or ``lru_cache``, by name or attribute, called or not."""
    return ast.unparse(node.func if isinstance(node, ast.Call) else node).rpartition(".")[2] in ("cache", "lru_cache")


def _module_state(source):
    """Each module-level name that a function writes to, by item or slice assignment or deletion, a mutating
    method call or a ``global`` statement; and each top-level function that is a ``cache`` or ``lru_cache``."""
    tree = ast.parse(source)
    names = {n.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
             for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and any(map(_is_cache, node.decorator_list)):
            yield node.name
        elif isinstance(node, ast.Assign) and _is_cache(node.value):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
    functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    for node in {sub for f in functions for sub in ast.walk(f)}:
        if isinstance(node, ast.Global):
            yield from node.names
        written = getattr(node, "targets", [getattr(node, "target", None)])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATORS:
            written = [node.func]
        yield from (t.value.id for t in written if isinstance(t, (ast.Subscript, ast.Attribute))
                    and isinstance(t.value, ast.Name) and t.value.id in names)


def test_module_state_is_detected():
    source = (
        "import functools\nT, L, D, C = {}, [], {}, {}\nK = (1,)\n"
        "def f(x):\n    T[x] = 1\n    L[:] = [x]\n    del D[x]\n    return K[0]\n"
        "g = lambda x: C.setdefault(x, [])\n"
        "@functools.lru_cache(maxsize=1)\ndef h(x):\n    global N\n    N = x\n"
        "memo = functools.cache(f)\n"
    )
    assert sorted(set(_module_state(source))) == ["C", "D", "L", "N", "T", "h", "memo"]
    assert not list(_module_state("T = {}\ndef f(T):\n    return T.get(1)\n\ndef g():\n    return [].append(1)\n"))


def test_only_the_burnside_tables_and_the_parser_are_module_state():
    found = {(path.name, name) for path in sorted(PACKAGE.glob("*.py")) for name in _module_state(path.read_text())}
    assert found == {("mackey.py", "_BURNSIDE_TABLES"), ("cli.py", "build_parser")}


def _linalg_internals(source):
    """Each underscore name imported from ``.linalg`` or ``qmackey.linalg``, and each ``_rows`` or ``_unit_rows`` read."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == "linalg":
            yield from (alias.name for alias in node.names if alias.name.startswith("_"))
        elif isinstance(node, ast.Attribute) and node.attr in ("_rows", "_unit_rows"):
            yield node.attr


def test_linalg_internals_are_detected():
    source = "from .linalg import QMatrix, _new\nfrom qmackey.linalg import _nf\nx = M._rows[0], M._unit_rows, M.cols\n"
    assert sorted(_linalg_internals(source)) == ["_new", "_nf", "_rows", "_unit_rows"]
    assert not list(_linalg_internals("from .groups import _x\nrows = M.entries()\n"))


def test_only_linalg_knows_the_row_format():
    found = {(path.name, name) for path in sorted(PACKAGE.glob("*.py")) if path.name != "linalg.py"
             for name in _linalg_internals(path.read_text())}
    assert found == set()


def _unit_row_producers(source):
    """Each function that passes unit rows to ``_new``: a fourth argument or a ``unit_rows`` keyword, other than None."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "_new":
                    units = call.args[3:] + [k.value for k in call.keywords if k.arg == "unit_rows"]
                    if any(not (isinstance(u, ast.Constant) and u.value is None) for u in units):
                        yield node.name


def test_unit_row_producers_are_detected():
    source = (
        "def f(m):\n    return _new(1, 1, [{0: 1}], (0,))\n"
        "def g(m):\n    return _new(1, 1, [], unit_rows=m)\n"
        "def h(m):\n    return _new(1, 1, [], None), _new(1, 1, [])\n"
    )
    assert sorted(set(_unit_row_producers(source))) == ["f", "g"]


def test_only_the_producers_the_linalg_docstring_names_keep_unit_rows():
    """``matmul`` returns the other factor of a square matrix that keeps unit rows, by the ``linalg`` docstring's proof
    that each producer it names lists them in increasing order; no other function may pass unit rows to ``_new``."""
    named = re.search(r"every producer \(([^)]*)\)", qmackey.linalg.__doc__)
    producers = set(_unit_row_producers((PACKAGE / "linalg.py").read_text()))
    assert named and producers == set(re.findall(r"``(\w+)``", named[1]))
    assert producers == {"identity", "kernel", "image", "selection_matrix"}


def _cap_defaults(tree):
    """(where, default) for every ``cap`` parameter with a default and every ``add_argument("--cap", default=...)``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.args + node.args.kwonlyargs
            defaults = [None] * (len(node.args.args) - len(node.args.defaults)) + node.args.defaults + node.args.kw_defaults
            yield from ((node.name, ast.unparse(d)) for a, d in zip(args, defaults) if a.arg == "cap" and d is not None)
        elif isinstance(node, ast.Call) and [ast.unparse(a) for a in node.args[:1]] == ["'--cap'"]:
            yield from (("--cap", ast.unparse(k.value)) for k in node.keywords if k.arg == "default")


def test_every_default_cap_is_the_one_constant():
    found = [(path.name, *d) for path in sorted(PACKAGE.glob("*.py")) for d in _cap_defaults(ast.parse(path.read_text()))]
    assert {("serialize.py", "group_from_json"), ("serialize.py", "functor_from_json"), ("cli.py", "--cap")} <= {f[:2] for f in found}
    assert [f for f in found if f[2].rpartition(".")[2] != "DEFAULT_ORDER_CAP"] == []
    defaults = [inspect.signature(f).parameters["cap"].default for f in (group_from_json, functor_from_json)]
    assert defaults + [build_parser().parse_args(["group", "info", "c6"]).cap] == [DEFAULT_ORDER_CAP] * 3


def test_a_misspelt_marker_fails_collection(tmp_path):
    """pyproject's pytest settings refuse an unregistered marker, so ``-m "not slow"`` cannot drop a misspelt one."""
    (tmp_path / "test_marker.py").write_text("import pytest\n\n\n@pytest.mark.slwo\ndef test_x():\n    pass\n")
    argv = ["-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "-p", "no:cacheprovider"]
    run = subprocess.run([sys.executable, *argv, "-m", "not slow", str(tmp_path)], capture_output=True, text=True, timeout=120)
    assert run.returncode == 2 and "'slwo' not found in `markers`" in run.stdout
