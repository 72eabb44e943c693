import json
import random
from fractions import Fraction

import pytest

from dense_reference import dense_matrix_to_json
from qmackey.classify import random_functor
from qmackey import serialize
from qmackey.cli import main
from qmackey.groups import GroupError, SubgroupLattice, corpus, dihedral, from_permutations, load_group, symmetric
from qmackey.linalg import QMatrix
from qmackey.burnside import burnside_ring
from qmackey.mackey import basis_change, burnside_mackey, check_axioms, idempotent_part
from qmackey.serialize import (
    FormatError,
    dump,
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


def random_sparse_matrix(rng: random.Random, rows: int, cols: int) -> QMatrix:
    """About a third of the entries nonzero: integers and fractions of either sign."""
    def entry():
        return Fraction(rng.randint(-20, 20), rng.randint(1, 6)) if rng.random() < 0.35 else 0

    return QMatrix([[entry() for _ in range(cols)] for _ in range(rows)], rows=rows, cols=cols)


class TestSparseCodec:
    """The writer formats only the stored entries and the reader stores only the nonzero ones."""

    @pytest.mark.parametrize("seed", range(12))
    def test_writer_matches_the_dense_writer(self, seed):
        rng = random.Random(seed)
        for r, c in [(0, 0), (0, 3), (3, 0), (1, 1), (4, 6), (9, 2), (rng.randint(1, 12), rng.randint(1, 12))]:
            M = random_sparse_matrix(rng, r, c)
            rows = matrix_to_json(M)
            assert rows == dense_matrix_to_json(M)
            assert matrix_from_json(json.loads(json.dumps(rows)), (r, c)) == M

    def test_reader_stores_nonzero_entries_in_normal_form(self):
        M = matrix_from_json([["6/3", "0/5", "-0", "-1/2", 0, 7, "0"]], (1, 7))
        assert list(M.entries()) == [(0, 0, 2), (0, 3, Fraction(-1, 2)), (0, 5, 7)]
        assert [type(x) for _, _, x in M.entries()] == [int, Fraction, int]

    def test_identity_bodies_are_read_with_no_entry_parsed(self, monkeypatch):
        """Only a square body of the exact strings "1" and "0" skips the entry parser; "2/2" still reads as 1, and a
        float, "1.0" or a non-square body still goes through it and is refused or read as before."""
        parsed, parse = [], serialize._entry_from_json
        monkeypatch.setattr(serialize, "_entry_from_json", lambda x: parsed.append(x) or parse(x))
        for n in range(4):
            eye = matrix_from_json([["1" if i == j else "0" for j in range(n)] for i in range(n)], (n, n))
            assert eye == QMatrix.identity(n) and eye.matmul(QMatrix.scalar(n, 3)) == QMatrix.scalar(n, 3)
        assert parsed == []
        assert matrix_from_json([["2/2", "0"], ["0", "1"]], (2, 2)).is_identity() and parsed == ["2/2", "1"]
        assert matrix_from_json([["1", "0"]], (1, 2)) == QMatrix([[1, 0]])
        for bad in ("1.0", 1.0):
            with pytest.raises(FormatError):
                matrix_from_json([[bad, "0"], ["0", "1"]], (2, 2))

    @pytest.mark.parametrize("x", [10**4300, -(10**4300), Fraction(1, 10**4300)], ids=["big", "negative", "denominator"])
    def test_too_many_digits_is_a_format_error(self, x):
        M = QMatrix([[0, x], [1, 0]])
        for writer in (matrix_to_json, dense_matrix_to_json):
            with pytest.raises(FormatError, match="too many digits"):
                writer(M)


def test_random_functors_round_trip_map_by_map():
    """A random functor and a fractional basis change of it, on every corpus group, come back with equal maps."""
    signs = set()
    for G in corpus().values():
        R = random_functor(SubgroupLattice(G), random.Random(G.order))
        scale = [QMatrix([[i + 1 if i == j else 0 for j in range(d)] for i in range(d)]) for d in R.dims]
        for M in (R, basis_change(R, scale)):
            text = dump(functor_to_json(M))
            signs |= {mark for mark in ('"-', "/") if mark in text}
            B = functor_from_json(json.loads(text))
            assert (B.name, B.dims) == (M.name, M.dims)
            assert B.res == M.res and B.ind == M.ind and B.cgen == M.cgen
    assert signs == {'"-', "/"}


def test_writers_never_build_dense_data(monkeypatch, capsys):
    """``functor_to_json``, ``mackey new`` and ``mackey split --pretty`` format the stored rows only."""

    def refuse(self):
        raise AssertionError("QMatrix.data was read")

    monkeypatch.setattr(QMatrix, "data", property(refuse))
    functor_to_json(random_functor(SubgroupLattice(symmetric(3)), random.Random(1)))
    assert main(["mackey", "new", "fixed", "--group", "s3"]) == 0
    assert main(["--pretty", "mackey", "split", "burnside:s4"]) == 0
    capsys.readouterr()


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
        with pytest.raises(FormatError, match="^unknown restriction key 'nonsense'$"):
            functor_from_json(data)

    def test_incomplete_maps_rejected(self):
        """A missing key of any table is refused, also where the map is a zero map: e_G A(S3) is 0 below the top."""
        lat = SubgroupLattice(symmetric(3))
        A = burnside_mackey(lat)
        for M in (A, idempotent_part(A, burnside_ring(lat).idempotent(lat.top))):
            for field, every in (("restriction", "comparable pair"), ("induction", "comparable pair"), ("conjugation", "generator")):
                data = functor_to_json(M)
                del data[field][next(iter(data[field]))]
                with pytest.raises(FormatError, match=f"every {every}"):
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
