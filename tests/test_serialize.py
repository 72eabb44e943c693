import json
from fractions import Fraction

import pytest

from qmackey.groups import GroupError, SubgroupLattice, corpus, dihedral, from_permutations, load_group, symmetric
from qmackey.linalg import QMatrix
from qmackey.mackey import burnside_mackey, check_axioms
from qmackey.serialize import (
    FormatError,
    frac_to_str,
    functor_from_json,
    functor_to_json,
    group_to_json,
    lewis_dot,
    matrix_from_json,
    matrix_to_json,
    str_to_frac,
)


class TestFractions:
    def test_integer_renders_bare(self):
        assert frac_to_str(Fraction(3)) == "3"
        assert frac_to_str(Fraction(-2, 1)) == "-2"

    def test_proper_fraction(self):
        assert frac_to_str(Fraction(-1, 6)) == "-1/6"
        assert str_to_frac("-1/6") == Fraction(-1, 6)

    def test_round_trip(self):
        for x in (Fraction(0), Fraction(5, 3), Fraction(-7, 2), Fraction(10)):
            assert str_to_frac(frac_to_str(x)) == x

    def test_bad_input(self):
        with pytest.raises(FormatError):
            str_to_frac("one half")
        with pytest.raises(FormatError):
            str_to_frac("1/0")

    @pytest.mark.parametrize("s", ["0.5", " 1/2 ", "1_000", "1e3", "+3", "1/-2", "-1/+2", "1/", "\u0661", "1\n", 1.5, True, None])
    def test_only_integers_and_p_over_q(self, s):
        with pytest.raises(FormatError, match="expected an integer or a \"p/q\" string"):
            str_to_frac(s)


class TestMatrices:
    def test_round_trip(self):
        M = QMatrix([[Fraction(1, 2), 3], [0, Fraction(-5, 7)]])
        assert matrix_from_json(matrix_to_json(M), (2, 2)) == M

    def test_empty_shapes(self):
        assert matrix_from_json([], (0, 3)) == QMatrix.zeros(0, 3)
        assert matrix_from_json([], (2, 0)) == QMatrix.zeros(2, 0)

    def test_shape_mismatch(self):
        with pytest.raises(FormatError):
            matrix_from_json([["1", "2"]], (2, 2))

    @pytest.mark.parametrize(
        "rows",
        ["1", ["1"], [[1.5]], [[True]], [["1", "0"], ["0"]], []],
        ids=["string", "row-string", "float", "bool", "ragged", "empty"],
    )
    def test_malformed_rejected(self, rows):
        shape = (2, 2) if rows in ([["1", "0"], ["0"]], []) else (1, 1)
        with pytest.raises(FormatError):
            matrix_from_json(rows, shape)


class TestFunctorRoundTrip:
    @pytest.mark.parametrize("builder", [lambda: dihedral(8), lambda: symmetric(3)])
    def test_burnside_round_trip(self, builder):
        lat = SubgroupLattice(builder())
        A = burnside_mackey(lat)
        data = json.loads(json.dumps(functor_to_json(A)))
        B = functor_from_json(data)
        assert B.dims == A.dims
        assert B.res == A.res and B.ind == A.ind and B.cgen == A.cgen
        assert check_axioms(B).ok

    def test_primed_class_names_survive(self):
        lat = SubgroupLattice(dihedral(8))
        assert any("'" in n for n in lat.class_names)
        A = burnside_mackey(lat)
        data = functor_to_json(A)
        assert functor_from_json(data).dims == A.dims

    def test_missing_level_rejected(self):
        lat = SubgroupLattice(symmetric(3))
        data = functor_to_json(burnside_mackey(lat))
        data["levels"].popitem()
        with pytest.raises(FormatError, match="missing"):
            functor_from_json(data)

    def test_bad_restriction_key(self):
        lat = SubgroupLattice(symmetric(3))
        data = functor_to_json(burnside_mackey(lat))
        data["restriction"]["nonsense"] = [["1"]]
        with pytest.raises(FormatError):
            functor_from_json(data)

    def test_incomplete_maps_rejected(self):
        lat = SubgroupLattice(symmetric(3))
        data = functor_to_json(burnside_mackey(lat))
        key = next(iter(data["induction"]))
        del data["induction"][key]
        with pytest.raises(FormatError, match="comparable pair"):
            functor_from_json(data)


class TestGroupRoundTrip:
    def test_redundant_generator_survives(self):
        # (1 3)(2 4) is the square of (1 2 3 4); a bare table would yield only two generators
        G = from_permutations(["(1 2 3 4)", "(1 3)(2 4)", "(2 4)"], degree=4, name="D8b")
        data = json.loads(json.dumps(group_to_json(G)))
        assert data["generators"] == list(G.gens) == [1, 2, 3]
        assert load_group(data).gens == G.gens
        A = burnside_mackey(SubgroupLattice(G))
        B = functor_from_json(json.loads(json.dumps(functor_to_json(A))))
        assert B.group.gens == G.gens and B.cgen == A.cgen
        assert check_axioms(B).ok

    def test_generators_left_out_when_the_table_yields_them(self):
        for G in corpus().values():
            data = group_to_json(G)
            assert "generators" not in data
            assert load_group(data).gens == G.gens

    @pytest.mark.parametrize("gens", ["1", ["(1 2)"], [True], [-1], [6], [2, 4]])
    def test_bad_table_generators_rejected(self, gens):
        # [2, 4] lies in a subgroup of C6 and does not generate it
        data = {"name": "C6", "order": 6, "table": [[(i + j) % 6 for j in range(6)] for i in range(6)]}
        with pytest.raises(GroupError):
            load_group({**data, "generators": gens})


def test_lewis_dot_shape():
    lat = SubgroupLattice(symmetric(3))
    dot = lewis_dot(burnside_mackey(lat))
    assert dot.startswith("digraph lewis {")
    assert dot.rstrip().endswith("}")
    assert '"G6" [label="G6: 4"]' in dot
