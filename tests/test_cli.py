import itertools
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import NON_ASSOCIATIVE_LOOP
from corruptions import constant_with_identity_induction, scaled_restriction
from qmackey import cli
from qmackey.cli import build_parser, main, resolve_functor
from qmackey.groups import DEFAULT_ORDER_CAP, FiniteGroup, SubgroupLattice, cyclic, symmetric
from qmackey.mackey import MackeyError, burnside_mackey, check_axioms, constant, rebase
from qmackey.linalg import QMatrix
from qmackey.monoidal import burnside_green, green_check
from qmackey.serialize import FormatError, dump, functor_to_json, group_to_json, matrix_from_json, str_to_frac

GOLDEN = Path(__file__).parent / "golden"
README_GOLDEN = json.loads((GOLDEN / "cli_readme.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_unknown_group_is_usage_error(self, capsys):
        code, out, err = run(capsys, "group", "info", "nosuchgroup")
        assert code == 2
        assert "unknown group" in err

    def test_malformed_json_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out, err = run(capsys, "mackey", "check", str(bad))
        assert code == 2
        assert "malformed JSON" in err

    def test_cap_exceeded_is_usage_error(self, capsys):
        code, out, err = run(capsys, "--cap", "4", "group", "info", "s4")
        assert code == 2
        assert "cap" in err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["group", "explode"])
        assert exc.value.code == 2

    def test_check_failure_is_exit_one(self, capsys, tmp_path):
        lat = SubgroupLattice(cyclic(2))
        M, expected = constant_with_identity_induction(lat)
        path = tmp_path / "corrupt.json"
        path.write_text(dump(functor_to_json(M)))
        code, out, err = run(capsys, "mackey", "check", str(path))
        assert code == 1
        assert "double-coset" in out

    @pytest.mark.parametrize(
        "spec",
        [
            {"name": "C2", "table": [[0, 1.7], [1, 0]]},
            {"name": "C2", "order": 2.0, "table": [[0, 1], [1, 0]]},
            {"name": "C2", "table": [[0, True], [True, 0]]},
            {"name": "S3", "degree": "5", "generators": ["(1 2)", "(1 2 3)"]},
            {"name": "C2", "degree": True, "generators": ["(1 2)"]},
            {"name": "C1", "degree": -3, "generators": ["()"]},
            {"name": "C3", "degree": 1, "generators": ["(1 2 3)"]},
        ],
    )
    def test_group_json_of_wrong_type_is_usage_error(self, capsys, tmp_path, spec):
        path = tmp_path / "group.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "group", "info", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["mackey", "check", "nosuch:c6"], "unknown builtin functor kind 'nosuch'"),
            (["mackey", "check", "missing.json"], "unknown functor 'missing.json'"),
            (["mackey", "new", "burnside", "--group", "c6", "--save", "X"], "--save needs MACKEY_WORKSPACE to be set"),
            (["mackey", "new", "free", "--group", "s3"], "free functors need --at CLASS"),
            (["mackey", "new", "burnside", "--group", "c2", "--dim", "5"], "mackey new burnside ignores --dim"),
            (["mackey", "new", "zero", "--group", "c2", "--dim", "0"], "mackey new zero ignores --dim"),
            (["mackey", "new", "fixed", "--group", "s3", "--dim", "1"], "mackey new fixed ignores --dim"),
            (
                ["mackey", "new", "free", "--group", "s3", "--at", "C2", "--module", "regular", "--dim", "2"],
                "mackey new free ignores --dim with --module regular",
            ),
            (["mackey", "new", "constant", "--group", "c2", "--at", "C1"], "mackey new constant ignores --at"),
            (["mackey", "new", "burnside", "--group", "c2", "--module", "trivial"], "mackey new burnside ignores --module"),
            (["mackey", "new", "coconstant", "--group", "c2", "--module", "regular", "--dim", "2"], "mackey new coconstant ignores --module"),
            (["--pretty", "mackey", "new", "burnside", "--group", "c6"], "mackey new only writes json, not --pretty"),
            (["--pretty", "mackey", "box", "burnside:c2", "burnside:c2"], "mackey box only writes json, not --pretty"),
            (["burnside", "restrict", "c6", "--to", "C3"], "need --element JSON or --idempotent CLASS"),
            (["mackey", "green-check", "burnside:c2", "mult.json"], "multiplication data missing level C1"),
            (["mackey", "green-check", "burnside:c2", "nope.json"], "unknown mult level 'NOPE'"),
            (["group", "info", "empty.json"], "empty multiplication table"),
            (["group", "info", "row.json"], "multiplication table is not square"),
            (["group", "info", "range.json"], "table entry out of range"),
            (["group", "info", "list.json"], "group spec must be an object"),
        ],
        ids=lambda arg: " ".join(arg) if isinstance(arg, list) else None,
    )
    def test_refusal_is_one_line_and_exit_two(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.delenv("MACKEY_WORKSPACE", raising=False)
        monkeypatch.chdir(tmp_path)
        inputs = {
            "mult.json": {"mult": {"C2": [["1", "0", "0", "0"], ["0", "2", "2", "2"]]}, "unit": {"C2": [["0"], ["1"]]}},
            "nope.json": {  # A's own tables, which verify, and a level the lattice of C2 lacks
                "mult": {"C1": [["1"]], "C2": [["2", "1", "1", "0"], ["0", "0", "0", "1"]], "NOPE": [["1"]]},
                "unit": {"C1": [["1"]], "C2": [["0"], ["1"]]},
            },
            "empty.json": {"table": []},
            "row.json": {"table": [[0, 1]]},
            "range.json": {"table": [[0, 5], [5, 0]]},
            "list.json": [1, 2],
        }
        for name, data in inputs.items():
            (tmp_path / name).write_text(json.dumps(data))
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_a_level_larger_than_its_file_is_refused_before_any_map_is_read(self, capsys, tmp_path):
        """Level C1 claims dimension 10^12, and the empty 10^12 x 0 map C2>C1 comes before C1>C1: every command
        exits 2 with one line in under a second, rather than allocate the rows of that map."""
        data = functor_to_json(constant(SubgroupLattice(cyclic(2)), 0))
        data["levels"]["C1"] = 10**12
        data["restriction"] = {"C2>C1": [], "C1>C1": [], "C2>C2": []}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        for argv in (["check", str(path)], ["classify", str(path)], ["box", str(path), str(path)]):
            start = time.perf_counter()
            code, out, err = run(capsys, "mackey", *argv)
            assert time.perf_counter() - start < 1, argv
            assert (code, out, err) == (2, "", "error: restriction 'C1>C1' must be a list of 1000000000000 rows\n"), argv

    def test_non_associative_table_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "loop.json"
        path.write_text(json.dumps({"name": "loop", "table": NON_ASSOCIATIVE_LOOP}))
        code, out, err = run(capsys, "group", "info", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not associative" in err

    @pytest.mark.parametrize(
        "element",
        [
            "{bad",
            "[1]",
            '"x"',
            '{"C6/C1": "1e10000000"}',
            '{"C6/C1": "1e100000000000"}',
            '{"C6/C1": "0.5"}',
            '{"C6/C1": 1' + "0" * 5000 + "}",
            "[" * 100000,
        ],
        ids=lambda element: element if len(element) < 40 else f"{element[:12]}...({len(element)} chars)",
    )
    def test_malformed_burnside_element_is_usage_error(self, capsys, element):
        code, out, err = run(capsys, "burnside", "restrict", "c6", "--to", "C3", "--element", element)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("pretty", [(), ("--pretty",)])
    def test_answer_too_long_to_print_is_usage_error(self, capsys, pretty):
        # 4300 digits parse; restricting to C3 doubles the coefficient to 4301, past Python's int-to-str limit
        element = json.dumps({"C6/C1": "9" * 4300})
        code, out, err = run(capsys, *pretty, "burnside", "restrict", "c6", "--to", "C3", "--element", element)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["group", "info", "FILE"],
            ["mackey", "check", "FILE"],
            ["mackey", "green-check", "FILE", "burnside"],
            ["mackey", "green-check", "burnside:c2", "FILE"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    @pytest.mark.parametrize("kind", ["directory", "latin-1", "huge-integer", "deep-nesting"])
    def test_unreadable_input_is_usage_error(self, capsys, tmp_path, argv, kind):
        contents = {
            "latin-1": '{"name": "\u00e9"}'.encode("latin-1"),
            "huge-integer": b"[" + b"9" * 5000 + b"]",
            "deep-nesting": b"[" * 100000,
        }
        path = tmp_path
        if kind != "directory":
            path = tmp_path / "input.json"
            path.write_bytes(contents[kind])
        code, out, err = run(capsys, *[str(path) if arg == "FILE" else arg for arg in argv])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["group", "info", "c2"], ["mackey", "box", "burnside:c2", "burnside:c2"], ["mackey", "new", "burnside", "--group", "c2"]],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_out_into_a_missing_directory_is_usage_error(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "out.json"
        code, out, err = run(capsys, "--out", str(target), *argv)
        assert (code, out, err) == (2, "", f"error: cannot write {target}: No such file or directory\n")

    def test_save_into_a_workspace_that_is_a_file_is_usage_error(self, capsys, tmp_path, monkeypatch):
        workspace = tmp_path / "workspace"
        workspace.write_text("")
        monkeypatch.setenv("MACKEY_WORKSPACE", str(workspace))
        code, out, err = run(capsys, "mackey", "new", "burnside", "--group", "c2", "--save", "A")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {workspace}") and err.count("\n") == 1

    def test_check_success_is_exit_zero(self, capsys):
        code, out, err = run(capsys, "--pretty", "mackey", "check", "burnside:c6")
        assert code == 0
        assert "all axioms hold" in out


def _set_level(data, value):
    data["levels"]["C2"] = value


def _set_map(table, key, value):
    def mutate(data):
        data[table][key] = value

    return mutate


MALFORMED_FUNCTORS = {
    "fractional-level": lambda data: _set_level(data, "2.5"),
    "levels-as-list": lambda data: data.update(levels=[]),
    "matrix-as-string": _set_map("restriction", "C1>C1", "1"),
    "matrix-of-strings": _set_map("restriction", "C1>C1", ["1"]),
    "float-entry": _set_map("restriction", "C2>C1", [[1.5, "1"]]),
    "ragged-rows": _set_map("restriction", "C2>C2", [["1", "0"], ["0"]]),
    "name-not-a-string": lambda data: data.update(name=5),
    "alias-key-01": _set_map("conjugation", "01@C2", [["1", "0"], ["0", "1"]]),
    "alias-key-plus": _set_map("conjugation", "+1@C2", [["1", "0"], ["0", "1"]]),
    "alias-key-space": _set_map("conjugation", " 1@C2", [["1", "0"], ["0", "1"]]),
    "alias-key-trailing-space": _set_map("conjugation", "1@C2 ", [["1", "0"], ["0", "1"]]),
}


class TestMalformedFunctorJson:
    """Each malformed functor file exits 2 with a one-line message and no traceback."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_FUNCTORS))
    def test_exits_two(self, capsys, tmp_path, case):
        data = functor_to_json(burnside_mackey(SubgroupLattice(cyclic(2))))
        MALFORMED_FUNCTORS[case](data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "mackey", "check", str(path))
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and out == ""


class TestGroupCommands:
    def test_info_text(self, capsys):
        code, out, _ = run(capsys, "--pretty", "group", "info", "s4")
        assert code == 0
        assert "order: 24" in out
        assert "30 in 11 conjugacy classes" in out

    def test_info_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "group", "info", "c6")
        data = json.loads(out)
        assert data["order"] == 6 and data["abelian"] is True

    def test_subgroups_listing(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "group", "subgroups", "s3")
        data = json.loads(out)
        assert len(data["subgroups"]) == 6

    def test_group_from_file(self, capsys, tmp_path):
        path = tmp_path / "c5.json"
        path.write_text(json.dumps(group_to_json(cyclic(5))))
        code, out, _ = run(capsys, "--pretty", "group", "info", str(path))
        assert code == 0 and "order: 5" in out


class TestBurnsideCommands:
    def test_table_is_triangular(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "burnside", "table", "s4")
        data = json.loads(out)
        marks = data["marks"]
        for i, row in enumerate(marks):
            assert row[i] != 0
            assert all(v == 0 for v in row[i + 1 :])

    def test_idempotents_c6(self, capsys):
        code, out, _ = run(capsys, "--pretty", "burnside", "idempotents", "c6")
        assert code == 0
        assert "e[C3] = 1/2*[C6/C3] - 1/6*[C6/C1]" in out
        assert "routes agree: yes" in out

    def test_restrict_idempotent(self, capsys):
        code, out, _ = run(
            capsys, "--pretty", "burnside", "restrict", "c6", "--to", "C3", "--idempotent", "C3"
        )
        assert code == 0
        assert "[C3/C3] - 1/3*[C3/C1]" in out

    @pytest.mark.parametrize("group, to, cls, member", [("s3", "C3", "C2", "C2.0"), ("s4", "G8.0", "C4", "C4.1")])
    def test_restrict_idempotent_by_class_or_subgroup_name(self, capsys, group, to, cls, member):
        by_class = run(capsys, "burnside", "restrict", group, "--to", to, "--idempotent", cls)
        assert by_class[0] == 0
        assert by_class == run(capsys, "burnside", "restrict", group, "--to", to, "--idempotent", member)

    def test_restrict_unknown_idempotent_name(self, capsys):
        code, out, err = run(capsys, "burnside", "restrict", "s3", "--to", "C3", "--idempotent", "C5")
        assert (code, out, err) == (2, "", "error: no class or subgroup named 'C5'\n")

    @pytest.mark.parametrize("element", ["{}", '{"C2/C1": 1}'])
    def test_restrict_refuses_element_with_idempotent(self, capsys, element):
        argv = ["burnside", "restrict", "s4", "--to", "C2.0", "--element", element, "--idempotent", "C2"]
        assert run(capsys, *argv) == (2, "", "error: --element and --idempotent cannot be combined\n")

    @pytest.mark.parametrize(
        "flag, message",
        [("--element", "malformed JSON in --element: Expecting value: line 1 column 1 (char 0)"), ("--idempotent", "no class or subgroup named ''")],
    )
    def test_restrict_reads_an_empty_value(self, capsys, flag, message):
        """An empty value is read and refused, not taken for a missing flag."""
        assert run(capsys, "burnside", "restrict", "s3", "--to", "C3", flag, "") == (2, "", f"error: {message}\n")

    def test_restrict_element_json(self, capsys):
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "burnside",
            "restrict",
            "c6",
            "--to",
            "C3",
            "--element",
            '{"C6/C3": "1"}',
        )
        data = json.loads(out)
        assert data == {"C3/C3": "2"}


class TestMackeyCommands:
    def test_new_and_check_roundtrip(self, capsys, tmp_path):
        out_file = tmp_path / "A.json"
        code, out, _ = run(
            capsys, "--out", str(out_file), "mackey", "new", "burnside", "--group", "c6"
        )
        assert code == 0
        code, out, _ = run(capsys, "mackey", "check", str(out_file))
        assert code == 0

    def test_new_free_functor_by_class_name(self, capsys, tmp_path):
        out_file = tmp_path / "F.json"
        code, out, _ = run(
            capsys,
            "--out",
            str(out_file),
            "mackey",
            "new",
            "free",
            "--group",
            "s4",
            "--at",
            "C2",
            "--module",
            "regular",
        )
        assert code == 0
        code, out, _ = run(capsys, "mackey", "check", str(out_file))
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["constant", "--group", "c2", "--dim", "-1"],
            ["coconstant", "--group", "c2", "--dim", "-3"],
            ["free", "--group", "c2", "--at", "C1", "--dim", "-2"],
            ["burnside", "--group", "c2", "--dim", "-1"],
        ],
    )
    def test_new_with_negative_dim_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "mackey", "new", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: --dim must be at least 0, not {argv[-1]}\n"

    @pytest.mark.parametrize("argv", [["constant", "--group", "c2"], ["free", "--group", "c2", "--at", "C1"]])
    def test_new_with_dim_zero_is_the_zero_functor(self, capsys, argv):
        code, out, _ = run(capsys, "mackey", "new", *argv, "--dim", "0")
        assert code == 0
        assert json.loads(out)["levels"] == {"C1": 0, "C2": 0}

    def test_workspace_save_and_load(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MACKEY_WORKSPACE", str(tmp_path))
        code, out, _ = run(
            capsys, "mackey", "new", "constant", "--group", "s3", "--save", "cs3"
        )
        assert code == 0
        assert (tmp_path / "functors" / "cs3.json").exists()
        code, out, _ = run(capsys, "mackey", "check", "cs3")
        assert code == 0

    def test_split_output(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "mackey", "split", "burnside:c6")
        data = json.loads(out)
        assert {k: v["dim"] for k, v in data["pieces"].items()} == {
            "C1": 1,
            "C2": 1,
            "C3": 1,
            "C6": 1,
        }

    def test_classify_with_certificates(self, capsys):
        code, out, _ = run(capsys, "--pretty", "mackey", "classify", "burnside:c6", "--certify")
        assert code == 0
        assert "invertible at every level" in out
        assert "level C6: square of size 4, rank 4" in out

    def test_box_command(self, capsys, tmp_path):
        out_file = tmp_path / "box.json"
        code, out, _ = run(
            capsys, "mackey", "box", "burnside:c2", "burnside:c2"
        )
        data = json.loads(out)
        assert data["levels"] == {"C1": 1, "C2": 2}

    def test_green_check_builtin(self, capsys):
        code, out, _ = run(capsys, "--pretty", "mackey", "green-check", "burnside:s3", "burnside")
        assert code == 0
        assert "verified" in out

    def test_green_check_json_carries_checked(self, capsys):
        code, out, _ = run(capsys, "mackey", "green-check", "burnside:s3", "burnside")
        report = green_check(burnside_green(resolve_functor("burnside:s3", DEFAULT_ORDER_CAP).lattice))
        assert code == 0
        assert json.loads(out) == {"ok": True, "commutative": True, "violations": [], "checked": report.checked}
        assert report.checked["frobenius-left"] == 8  # the cover pairs of S3

    def test_green_check_burnside_tables_on_another_functor(self, capsys):
        """The Burnside tables are checked on the functor given, not on the Burnside functor."""
        code, out, _ = run(capsys, "--pretty", "mackey", "green-check", "constant:c6", "burnside")
        assert code == 1
        assert out == "green check FAILED for const(1):\n  [shape] at C2\n  [shape] at C3\n  [shape] at C6\n"

    @pytest.mark.parametrize("corrupt", ["scaled-constant", "scaled-burnside"])
    def test_green_check_burnside_tables_on_a_non_mackey_functor(self, capsys, tmp_path, corrupt):
        lat = SubgroupLattice(symmetric(3))
        if corrupt == "scaled-constant":
            M, _ = scaled_restriction(lat)
            rule = "shape"
        else:
            A = burnside_mackey(lat)
            key = (lat.top, lat.bottom)
            M = replace(A, res={**A.res, key: A.res[key].scale(2)})
            rule = "restriction-unit"
        path = tmp_path / "corrupt.json"
        path.write_text(dump(functor_to_json(M)))
        assert run(capsys, "mackey", "check", str(path))[0] == 1
        code, out, _ = run(capsys, "mackey", "green-check", str(path), "burnside")
        assert code == 1
        assert rule in {v["rule"] for v in json.loads(out)["violations"]}

    def test_classify_failure_is_a_json_report(self, capsys, tmp_path, monkeypatch):
        """A Mackey functor whose comparison fails to certify gets a JSON verdict, or the FAILED line with --pretty."""
        path = tmp_path / "A.json"
        path.write_text(dump(functor_to_json(burnside_mackey(SubgroupLattice(symmetric(3))))))
        message = "does not commute with restriction G6 > C2.0"

        def fail(M):
            raise MackeyError(message)

        monkeypatch.setattr(cli, "classify_iso", fail)
        code, out, err = run(capsys, "mackey", "classify", str(path))
        assert (code, err, json.loads(out)) == (1, "", {"functor": "A", "certified": False, "error": message})
        code, out, _ = run(capsys, "--pretty", "mackey", "classify", str(path))
        assert (code, out) == (1, f"classification FAILED: {message}\n")

    def test_split_and_classify_refuse_a_level_that_induction_misses(self, capsys, tmp_path):
        """The constant functor over C2 with I^C2_C1 = 0, and a functor over S3 with one restriction
        scaled, are no Mackey functors.  Both commands exit 1 with one line naming the first violation."""
        data = json.loads(dump(functor_to_json(constant(SubgroupLattice(cyclic(2)), 1))))
        data["induction"]["C1<C2"] = [["0"]]
        zero = tmp_path / "zero-induction.json"
        zero.write_text(dump(data))
        scaled = tmp_path / "scaled.json"
        scaled.write_text(dump(functor_to_json(scaled_restriction(SubgroupLattice(symmetric(3)))[0])))
        violations = {zero: "[double-coset] R^C2_C1 I^C2_C1 mismatch", scaled: "[restriction-transitivity] G6 > C2.0 > C1"}
        for path, violation in violations.items():
            for pretty, command in itertools.product(((), ("--pretty",)), ("split", "classify")):
                code, out, err = run(capsys, *pretty, "mackey", command, str(path))
                assert (code, out, err) == (1, "", f"verification error: {path} is not a Mackey functor: {violation}\n")

    def test_green_check_failure(self, capsys, tmp_path):
        lat = SubgroupLattice(cyclic(2))
        M = burnside_mackey(lat)
        path = tmp_path / "A.json"
        path.write_text(dump(functor_to_json(M)))
        mult = {
            "mult": {
                "C1": [["1"]],
                "C2": [["1", "0", "0", "0"], ["0", "2", "2", "2"]],
            },
            "unit": {"C1": [["1"]], "C2": [["0"], ["1"]]},
        }
        mpath = tmp_path / "mult.json"
        mpath.write_text(json.dumps(mult))
        code, out, _ = run(capsys, "--pretty", "mackey", "green-check", str(path), str(mpath))
        assert code == 1
        assert "FAILED" in out

    @pytest.mark.parametrize("mult", [[], {"mult": "C1C2", "unit": "C1C2"}, {"mult": {"C1": [["1"]]}, "unit": ["C1"]}])
    def test_green_check_malformed_multiplication_is_usage_error(self, capsys, tmp_path, mult):
        mpath = tmp_path / "mult.json"
        mpath.write_text(json.dumps(mult))
        code, out, err = run(capsys, "mackey", "green-check", "burnside:c2", str(mpath))
        assert (code, out) == (2, "")
        assert err == "error: multiplication data must hold 'mult' and 'unit' objects keyed by level\n"

    def test_lewis_dot_counts(self, capsys):
        code, out, _ = run(capsys, "mackey", "lewis", "burnside:c6", "--dot")
        assert code == 0
        lines = out.strip().splitlines()
        nodes = [l for l in lines if "label=" in l and "->" not in l]
        structure = [l for l in lines if "->" in l and "style=dashed" not in l]
        loops = [l for l in lines if "style=dashed" in l]
        assert len(nodes) == 4
        assert len(structure) == 8
        assert len(loops) == 3


class TestFunctorsAcrossGroups:
    def test_box_over_different_groups_is_usage_error(self, capsys):
        code, out, err = run(capsys, "mackey", "box", "burnside:s3", "burnside:c6")
        assert code == 2
        assert out == ""
        assert err == "error: cannot box functors over different groups (S3 and C6)\n"

    def test_rebase_needs_the_same_generators(self):
        # one table, generators listed in the other order: conjugation keys would swap
        G = symmetric(3)
        H = FiniteGroup(G._mul, name="S3", gens=list(reversed(G.gens)))
        with pytest.raises(MackeyError, match="different group"):
            rebase(burnside_mackey(SubgroupLattice(G)), SubgroupLattice(H))

    def test_functor_over_a_redundant_generator_loads_back(self, capsys, tmp_path):
        group = tmp_path / "g.json"
        group.write_text(json.dumps({"name": "D8b", "degree": 4, "generators": ["(1 2 3 4)", "(1 3)(2 4)", "(2 4)"]}))
        functor = tmp_path / "F.json"
        code, _, _ = run(capsys, "mackey", "new", "burnside", "--group", str(group), "--out", str(functor))
        assert code == 0
        code, out, err = run(capsys, "--pretty", "mackey", "check", str(functor))
        assert (code, err) == (0, "")
        assert out == "A: all axioms hold\n"


class TestGoldenDemos:
    @pytest.mark.parametrize("which", ["c6", "s4", "cp3"])
    def test_demo_matches_golden(self, capsys, which):
        code, out, _ = run(capsys, "demo", which)
        assert code == 0
        golden = (GOLDEN / f"demo_{which}.txt").read_text()
        assert out == golden

    def test_demo_c6_idempotent_lines(self, capsys):
        code, out, _ = run(capsys, "demo", "c6")
        assert "e[C1] = 1/6*[C6/C1]" in out
        assert "e[C2] = 1/3*[C6/C2] - 1/6*[C6/C1]" in out
        assert "e[C3] = 1/2*[C6/C3] - 1/6*[C6/C1]" in out
        assert "e[C6] = [C6/C6] - 1/2*[C6/C3] - 1/3*[C6/C2] + 1/6*[C6/C1]" in out

    def test_lewis_matches_golden(self, capsys):
        code, out, _ = run(capsys, "mackey", "lewis", "burnside:c6", "--dot")
        golden = (GOLDEN / "lewis_c6.dot").read_text()
        assert out == golden

    def test_box_s3_matches_golden(self, capsys):
        code, out, _ = run(capsys, "mackey", "box", "burnside:s3", "burnside:s3")
        assert code == 0
        assert out.encode() == (GOLDEN / "box_s3.json").read_bytes()

    @pytest.mark.parametrize("position", [0, 1])
    def test_box_refuses_a_non_mackey_input(self, capsys, tmp_path, position):
        M, axiom = scaled_restriction(SubgroupLattice(symmetric(3)))
        path = tmp_path / "corrupt.json"
        path.write_text(dump(functor_to_json(M)))
        specs = ["constant:s3", "constant:s3"]
        specs[position] = str(path)
        code, out, err = run(capsys, "mackey", "box", *specs)
        assert code == 1
        assert out == ""
        assert err.startswith(f"verification error: {path} is not a Mackey functor: [{axiom}] ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["table", "idempotents"])
    def test_burnside_s4_matches_golden(self, capsys, command):
        code, out, _ = run(capsys, "--format", "json", "burnside", command, "s4")
        assert code == 0
        assert out.encode() == (GOLDEN / f"burnside_{command}_s4.json").read_bytes()

    @pytest.mark.parametrize("command", ["table", "idempotents"])
    def test_burnside_c2x4_matches_golden(self, capsys, tmp_path, command):
        path = tmp_path / "c2x4.json"
        path.write_text(json.dumps({"name": "C2^4", "degree": 8, "generators": ["(1 2)", "(3 4)", "(5 6)", "(7 8)"]}))
        code, out, _ = run(capsys, "--format", "json", "burnside", command, str(path))
        assert code == 0
        assert out.encode() == (GOLDEN / f"burnside_{command}_c2x4.json").read_bytes()

    @pytest.mark.parametrize(
        "argv, golden",
        [(("mackey", "classify", "burnside:s4", "--certify"), "classify_s4.json"), (("mackey", "split", "burnside:s4"), "split_s4.json")],
    )
    def test_classification_s4_matches_golden(self, capsys, argv, golden):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.encode() == (GOLDEN / golden).read_bytes()

    def test_demo_deterministic_across_runs(self, capsys):
        _, first, _ = run(capsys, "demo", "c6")
        _, second, _ = run(capsys, "demo", "c6")
        assert first == second


class TestTextGoldens:
    """Text forms, ``--out`` and workspace lookups, pinned byte for byte."""

    @pytest.mark.parametrize(
        "argv, golden",
        [(("burnside", "table", "s4", "--pretty"), "burnside_table_s4.txt"), (("mackey", "split", "burnside:s4", "--pretty"), "split_s4.txt")],
    )
    def test_pretty_matches_golden(self, capsys, argv, golden):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.encode() == (GOLDEN / golden).read_bytes()

    @pytest.mark.parametrize("line", sorted(README_GOLDEN))
    def test_readme_command_matches_golden(self, capsys, tmp_path, monkeypatch, line):
        """The README's commands, JSON and ``--pretty``; ``A.json`` is written by ``mackey new`` first."""
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "mackey", "new", "burnside", "--group", "c6", "--out", "A.json")[0] == 0
        expected = README_GOLDEN[line]
        code, out, err = run(capsys, *line.split())
        assert (code, out, err) == (expected["exit"], expected["stdout"], "")

    def test_check_pretty_lists_violations(self, capsys, tmp_path):
        M, _ = scaled_restriction(SubgroupLattice(symmetric(3)))
        path = tmp_path / "corrupt.json"
        path.write_text(dump(functor_to_json(M)))
        code, out, err = run(capsys, "mackey", "check", str(path), "--pretty")
        assert (code, err) == (1, "")
        assert out.encode() == (GOLDEN / "check_scaled_restriction_s3.txt").read_bytes()

    def test_box_out_writes_what_stdout_would_show(self, capsys, tmp_path):
        code, out, err = run(capsys, "mackey", "box", "burnside:c2", "burnside:c2")
        assert (code, err) == (0, "")
        assert out.encode() == (GOLDEN / "box_c2.json").read_bytes()
        path = tmp_path / "F.json"
        code, note, err = run(capsys, "mackey", "box", "burnside:c2", "burnside:c2", "--out", str(path))
        assert (code, note, err) == (0, f"box product written to {path}\n", "")
        assert path.read_bytes() == out.encode()

    def test_group_found_in_workspace(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MACKEY_WORKSPACE", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "groups").mkdir()
        spec = {"name": "C2^4", "degree": 8, "generators": ["(1 2)", "(3 4)", "(5 6)", "(7 8)"]}
        (tmp_path / "groups" / "c2x4.json").write_text(json.dumps(spec))
        code, out, err = run(capsys, "--format", "json", "burnside", "table", "c2x4")
        assert (code, err) == (0, "")
        assert out.encode() == (GOLDEN / "burnside_table_c2x4.json").read_bytes()


class TestTrailingGlobalFlags:
    """--pretty, --out, --format and --cap also work after the subcommand."""

    def test_pretty_after_subcommand(self, capsys):
        code, trailing, err = run(capsys, "group", "subgroups", "c6", "--pretty")
        assert code == 0, err
        _, leading, _ = run(capsys, "--pretty", "group", "subgroups", "c6")
        assert trailing == leading

    def test_out_after_subcommand(self, capsys, tmp_path):
        path = tmp_path / "A.json"
        code, out, err = run(capsys, "mackey", "new", "burnside", "--group", "c6", "--out", str(path))
        assert code == 0, err
        code, out, _ = run(capsys, "mackey", "check", str(path))
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_classify_certify_pretty(self, capsys):
        code, trailing, err = run(capsys, "mackey", "classify", "burnside:c6", "--certify", "--pretty")
        assert code == 0, err
        _, leading, _ = run(capsys, "--pretty", "mackey", "classify", "burnside:c6", "--certify")
        assert trailing == leading

    def test_format_after_subcommand(self, capsys):
        code, out, _ = run(capsys, "group", "info", "c6", "--format", "text")
        assert code == 0
        assert out.startswith("group C6")

    def test_cap_after_subcommand(self, capsys):
        code, out, err = run(capsys, "group", "info", "s4", "--cap", "4")
        assert code == 2
        assert "cap" in err

    def test_trailing_flag_overrides_leading(self, capsys):
        code, out, err = run(capsys, "--cap", "4", "group", "info", "s4", "--cap", "64")
        assert code == 0, err

    def test_leading_flag_survives_subcommand(self, capsys):
        code, out, err = run(capsys, "--cap", "4", "group", "info", "s4")
        assert code == 2
        assert "cap" in err


class TestParserReuse:
    """One parser serves every ``main`` call in a process; no call sees another's flags."""

    def outcome(self, capsys, path, argv):
        if path.exists():
            path.unlink()
        code, out, err = run(capsys, *argv)
        return code, out, err, path.read_text() if path.exists() else None

    def test_calls_match_first_calls(self, capsys, tmp_path):
        path = tmp_path / "report.txt"
        calls = [
            ["--format", "text", "--out", str(path), "mackey", "check", "burnside:s3"],
            ["mackey", "check", "burnside:s3", "--format", "text", "--out", str(path)],
            ["mackey", "check", "burnside:s3"],
        ]
        first = []
        for argv in calls:
            build_parser.cache_clear()
            first.append(self.outcome(capsys, path, argv))
        assert first[0] == first[1] == (0, "", "", "A: all axioms hold\n")
        checked = check_axioms(resolve_functor("burnside:s3", DEFAULT_ORDER_CAP)).checked
        assert checked["double-coset"] > 0
        assert first[2][:2] == (0, dump({"functor": "A", "ok": True, "violations": [], "checked": checked}) + "\n")
        for _ in range(2):
            assert [self.outcome(capsys, path, argv) for argv in calls] == first
            with pytest.raises(SystemExit) as exc:
                main(["mackey", "check", "burnside:s3", "--format", "xml"])
            assert exc.value.code == 2
            capsys.readouterr()


class TestMatrixEntries:
    """Integer entries skip ``Fraction``; every entry reads as ``str_to_frac`` reads it."""

    @pytest.mark.parametrize(
        "entry",
        ["0", "-0", "007", "-12", "+3", " 3", "1_0", "1.5", "1e3", "3/4", "\u00b2", "-", "", "9" * 5000],
        ids=lambda entry: repr(entry) if len(entry) < 10 else f"{len(entry)}-digits",
    )
    def test_entry_reads_as_str_to_frac(self, capsys, tmp_path, entry):
        try:
            expected = QMatrix([[str_to_frac(entry)]])
        except FormatError as exc:
            with pytest.raises(FormatError) as got:
                matrix_from_json([[entry]], (1, 1))
            assert str(got.value) == str(exc)
            data = functor_to_json(burnside_mackey(SubgroupLattice(cyclic(2))))
            data["restriction"]["C1>C1"] = [[entry]]
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(data))
            code, out, err = run(capsys, "mackey", "check", str(path))
            assert (code, out, err) == (2, "", f"error: {exc}\n")
        else:
            assert matrix_from_json([[entry]], (1, 1)) == expected


DOT_REJECTED = [
    ["group", "info", "c6"],
    ["group", "subgroups", "c6"],
    ["burnside", "table", "c6"],
    ["burnside", "idempotents", "c6"],
    ["burnside", "restrict", "c6", "--to", "C3", "--idempotent", "C3"],
    ["mackey", "new", "burnside", "--group", "c6"],
    ["mackey", "check", "burnside:c6"],
    ["mackey", "split", "burnside:c6"],
    ["mackey", "classify", "burnside:c6"],
    ["mackey", "box", "burnside:c2", "burnside:c2"],
    ["mackey", "green-check", "burnside:c6", "burnside"],
    ["demo", "c6"],
]


class TestFormatDot:
    """Only ``mackey lewis`` writes DOT; every other command refuses ``--format dot``."""

    @pytest.mark.parametrize("argv", DOT_REJECTED, ids=lambda argv: " ".join(argv[:2]))
    @pytest.mark.parametrize("leading", [True, False])
    def test_rejected_outside_lewis(self, capsys, argv, leading):
        flag = ["--format", "dot"]
        code, out, err = run(capsys, *(flag + argv if leading else argv + flag))
        assert (code, out, err) == (2, "", "error: --format dot is only supported by mackey lewis\n")

    def test_lewis_writes_dot(self, capsys):
        code, out, _ = run(capsys, "--format", "dot", "mackey", "lewis", "burnside:c6")
        assert (code, out) == (0, (GOLDEN / "lewis_c6.dot").read_text())


class TestIgnoredOutputFlags:
    """An output flag a command cannot honour exits 2 instead of being ignored."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--pretty", "--format", "dot", "mackey", "lewis", "burnside:c2"], "--pretty conflicts with --format dot"),
            (["--pretty", "--format", "json", "group", "info", "c2"], "--pretty conflicts with --format json"),
            (["--format", "text", "mackey", "box", "burnside:c2", "burnside:c2"], "mackey box only writes json, not --format text"),
            (["--format", "text", "mackey", "new", "burnside", "--group", "c2"], "mackey new only writes json, not --format text"),
            (["--format", "json", "demo", "c6"], "demo only writes text, not --format json"),
            (["--format", "json", "mackey", "lewis", "burnside:c6"], "mackey lewis only writes text or dot, not --format json"),
            (["mackey", "lewis", "burnside:c6", "--format", "json"], "mackey lewis only writes text or dot, not --format json"),
            (["mackey", "lewis", "burnside:c6", "--pretty", "--dot"], "--pretty conflicts with --format dot"),
            (["--pretty", "mackey", "lewis", "burnside:c6", "--dot"], "--pretty conflicts with --format dot"),
        ],
        ids=lambda x: " ".join(x) if isinstance(x, list) else None,
    )
    def test_rejected(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "flags, argv",
        [
            (["--format", "json"], ["mackey", "box", "burnside:c2", "burnside:c2"]),
            (["--format", "json"], ["mackey", "new", "burnside", "--group", "c2"]),
            (["--format", "text"], ["demo", "c6"]),
            (["--pretty", "--format", "text"], ["group", "info", "c2"]),
        ],
    )
    def test_the_format_a_command_writes_is_accepted(self, capsys, flags, argv):
        code, out, err = run(capsys, *flags, *argv)
        assert (code, err) == (0, "")
        assert out == run(capsys, *(["--pretty"] if "--pretty" in flags else []), *argv)[1]


class TestRunAsModule:
    def test_python_dash_m_runs_the_cli(self, capsys):
        """``python -m qmackey`` works from a checkout and passes main's output and exit code through."""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        for argv in (["group", "subgroups", "c6"], ["group", "subgroups", "nosuch"]):
            proc = subprocess.run(
                [sys.executable, "-m", "qmackey", *argv], capture_output=True, text=True, env=env, timeout=120
            )
            code, out, err = run(capsys, *argv)
            assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)

    @pytest.mark.parametrize("gen", ["(1 2)(2 3)", "(1 2)(1 3)"])
    def test_cycles_sharing_a_point_exit_two(self, tmp_path, gen):
        """Such a generator is no permutation; rendering it once looped forever, hence the subprocess timeout."""
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"generators": [gen]}))
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "qmackey", "group", "info", str(path)], capture_output=True, text=True, env=env, timeout=60
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: bad cycle notation: {gen!r}\n")
