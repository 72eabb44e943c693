import json
from pathlib import Path

import pytest

from corruptions import constant_with_identity_induction
from qmackey.cli import main
from qmackey.groups import SubgroupLattice, cyclic
from qmackey.mackey import burnside_mackey
from qmackey.serialize import dump, functor_to_json, group_to_json

GOLDEN = Path(__file__).parent / "golden"


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

    def test_demo_deterministic_across_runs(self, capsys):
        _, first, _ = run(capsys, "demo", "c6")
        _, second, _ = run(capsys, "demo", "c6")
        assert first == second


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
