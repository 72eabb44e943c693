"""Fuzzed group and functor JSON through ``cli.main``.

Every run must end in an exit code, never in an escaped exception: 0 or 1
for input that parses, 2 with a one-line ``error:`` message for input that
does not.  A drawn JSON value passed as ``burnside restrict --element`` must
exit 0 or 2.  Mutations that make the input malformed (a removed key, a value
of the wrong JSON type, a ragged or misshapen matrix, a non-integer table
entry) must exit 2 on every command.  ``mackey new`` with a drawn kind and
group, and perhaps ``--dim`` in [-3, 3], ``--at`` and ``--module``, must exit
0, or 2 when the dimension is negative, a free functor has no ``--at``, or a
flag is one the kind would ignore.  The tests are derandomized and bounded to
a few seconds.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qmackey import cli, groups
from qmackey.groups import SubgroupLattice
from qmackey.mackey import burnside_mackey, constant
from qmackey.serialize import functor_to_json

# a cyclic group of order 4 generated by 3, so its JSON carries "generators"
_C4 = groups.FiniteGroup([[(i + j) % 4 for j in range(4)] for i in range(4)], name="C4", gens=[3])

BASES = {
    "burnside-s3": functor_to_json(burnside_mackey(SubgroupLattice(groups.symmetric(3)))),
    "constant-c4": functor_to_json(constant(SubgroupLattice(_C4), 2)),
    "group-s3": {"name": "S3", "degree": 3, "generators": ["(1 2)", "(1 2 3)"]},
}

FUZZ = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats(-4, 4, allow_nan=False) | st.text("01/()@<>C ", max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("abC1", max_size=3), inner, max_size=3),
    max_leaves=4,
)
NOT_AN_INT = st.sampled_from([1.5, 1.0, 0.0, True, False, "1", None, [], {}, [1]])
NOT_A_RATIONAL = st.sampled_from([1.5, 0.0, True, False, None, [], {}, "x", "1/0", "1.2.3"])


def _commands(path):
    if "group" not in json.loads(path.read_text()):
        return [
            ["group", "info", str(path)],
            ["group", "subgroups", str(path)],
            ["burnside", "restrict", str(path), "--to", "C1", "--idempotent", "C1"],
        ]
    return [
        ["mackey", "check", str(path)],
        ["mackey", "classify", str(path), "--certify"],
        ["mackey", "split", str(path)],
        ["mackey", "lewis", str(path)],
        ["mackey", "box", str(path), str(path)],
        ["mackey", "green-check", str(path), "burnside"],
    ]


def _run_all(path):
    """(argv, exit code, stderr) of every command on the document at ``path``."""
    out = []
    for argv in _commands(path):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        out.append((argv, code, err.getvalue()))
    return out


def _paths(node, prefix=()):
    """Every path to a value inside a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _matrices(doc):
    return [(table, key) for table in ("restriction", "induction", "conjugation") for key in doc.get(table, {})]


@st.composite
def generic_mutation(draw):
    """A base document with one to three arbitrary edits: replace, delete or rename."""
    doc = json.loads(json.dumps(BASES[draw(st.sampled_from(sorted(BASES)))]))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent, key = _at(doc, path[:-1]), path[-1]
        op = draw(st.sampled_from(["replace", "delete", "rename"]))
        if op == "replace":
            parent[key] = draw(JSON)
        elif op == "delete":
            del parent[key]
        elif isinstance(parent, dict):
            parent[draw(st.text("abC1>@<", max_size=4))] = parent.pop(key)
    return doc


@st.composite
def malformed(draw):
    """A base document with one edit that must be rejected, and the edit's kind."""
    base = draw(st.sampled_from(sorted(BASES)))
    doc = json.loads(json.dumps(BASES[base]))
    group = doc.get("group", doc)
    kinds = ["removed key", "wrong type"]
    if "table" in group:
        kinds.append("table entry")
    if "group" in doc:
        kinds += ["ragged matrix", "misshapen matrix"]
    kind = draw(st.sampled_from(kinds))
    if kind == "removed key":
        if "group" in doc:
            table = draw(st.sampled_from(["group", "table", "levels", "restriction", "induction", "conjugation"]))
            if table == "table":
                del group["table"]
            elif table == "group" or draw(st.booleans()):
                del doc[table]
            else:
                del doc[table][draw(st.sampled_from(sorted(doc[table])))]
        else:
            del doc["generators"]
    elif kind == "wrong type":
        if "group" not in doc:
            doc["generators"] = draw(st.sampled_from(["(1 2)", [1, 2], [["(1 2)"]], {}, None, 3]))
        else:
            where = draw(st.sampled_from(["group", "table", "table row", "level", "matrix", "row", "entry"]))
            if where == "group":
                doc["group"] = draw(st.sampled_from([[], "S3", None, 3]))
            elif where == "table":
                group["table"] = draw(st.sampled_from([{}, "0", None, 4]))
            elif where == "table row":
                group["table"][draw(st.integers(0, len(group["table"]) - 1))] = draw(st.sampled_from([{}, "0", None, 4]))
            elif where == "level":
                doc["levels"][draw(st.sampled_from(sorted(doc["levels"])))] = draw(st.sampled_from([-1, 1.5, 1.0, True, "1", None, []]))
            else:
                table, key = draw(st.sampled_from(_matrices(doc)))
                rows = doc[table][key]
                if where == "matrix" or not rows:
                    doc[table][key] = draw(st.sampled_from([{}, "1", None, 1]))
                else:
                    i = draw(st.integers(0, len(rows) - 1))
                    if where == "row" or not rows[i]:
                        rows[i] = draw(st.sampled_from([{}, "1", None, 1]))
                    else:
                        rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(NOT_A_RATIONAL)
    elif kind == "table entry":
        row = group["table"][draw(st.integers(0, len(group["table"]) - 1))]
        j = draw(st.integers(0, len(row) - 1))
        row[j] = draw(NOT_AN_INT | st.just(float(row[j])))
    else:
        table, key = draw(st.sampled_from([m for m in _matrices(doc) if doc[m[0]][m[1]] and doc[m[0]][m[1]][0]]))
        rows = doc[table][key]
        if kind == "ragged matrix":
            rows[draw(st.integers(0, len(rows) - 1))].append("0")
        elif draw(st.booleans()):
            del rows[draw(st.integers(0, len(rows) - 1))]
        else:
            rows.append(["0"] * len(rows[0]))
    return kind, doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _check_messages(results):
    for argv, code, err in results:
        assert code in (0, 1, 2), argv
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


@FUZZ
@given(doc=generic_mutation())
def test_mutated_json_never_escapes(workdir, doc):
    path = workdir / "generic.json"
    path.write_text(json.dumps(doc))
    _check_messages(_run_all(path))


@FUZZ
@given(case=malformed())
def test_malformed_json_exits_two(workdir, case):
    kind, doc = case
    path = workdir / "malformed.json"
    path.write_text(json.dumps(doc))
    results = _run_all(path)
    _check_messages(results)
    assert all(code == 2 for _, code, _ in results), (kind, [(argv[1], code, err) for argv, code, err in results])


@pytest.mark.parametrize("name", [["x"], 3, None])
def test_a_group_name_that_is_not_a_string_exits_two(workdir, name):
    """On a group file, a functor file embedding the group, and ``mackey new --group``, each with one line."""
    group = {"name": name, "table": [[0, 1], [1, 0]]}
    functor = {**BASES["burnside-s3"], "group": {**BASES["burnside-s3"]["group"], "name": name}}
    results = []
    for stem, doc in (("group", group), ("functor", functor)):
        path = workdir / f"named-{stem}.json"
        path.write_text(json.dumps(doc))
        results += _run_all(path)
    argv = ["mackey", "new", "burnside", "--group", str(workdir / "named-group.json")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        results.append((argv, cli.main(argv), err.getvalue()))
    expected = f"error: group name must be a string, not {name!r}\n"
    assert [(code, msg) for _, code, msg in results] == [(2, expected)] * len(results)


@FUZZ
@given(element=JSON)
def test_burnside_element_exits_zero_or_two(element):
    argv = ["burnside", "restrict", "c6", "--to", "C3", "--element", json.dumps(element)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    _check_messages([(argv, code, err.getvalue())])
    assert code in (0, 2), (argv, err.getvalue())


@FUZZ
@given(
    kind=st.sampled_from([*cli._FUNCTOR_KINDS, "free"]),
    group=st.sampled_from(["c2", "c6", "s3"]),
    dim=st.none() | st.integers(-3, 3),
    at=st.sampled_from([None, "C1", "C2"]),
    module=st.sampled_from([None, "trivial", "regular"]),
)
def test_mackey_new_exits_zero_or_two(kind, group, dim, at, module):
    argv = ["mackey", "new", kind, "--group", group]
    for flag, value in (("--dim", dim), ("--at", at), ("--module", module)):
        argv += [flag, str(value)] if value is not None else []
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    _check_messages([(argv, code, err.getvalue())])
    reads_dim = kind in ("constant", "coconstant") or kind == "free" and module != "regular"
    ignored = kind != "free" and (at or module) or dim is not None and not reads_dim
    refused = dim is not None and dim < 0 or ignored or kind == "free" and not at
    assert code == (2 if refused else 0), (argv, err.getvalue())
