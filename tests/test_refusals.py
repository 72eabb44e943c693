"""Refusals that no other test reaches, each triggered once and matched by its message.

Every row names a call on small fixed input, the error class it must raise and
the exact message.  The groups are C2, C3, C4 and S3; the functors are constant
ones, and the one non-Mackey input is ``constant`` over C2 with C_s = -1 on
the bottom level, whose R^{C2}_{C1} = id misses the fixed vectors (there are
none).
"""

import re
from dataclasses import replace

import pytest

from qmackey import classify
from qmackey.burnside import BurnsideError, burnside_ring
from qmackey.groups import CapExceeded, FiniteGroup, GMap, GroupError, GSet, SubgroupLattice, _cycles, cyclic, symmetric
from qmackey.linalg import LinAlgError, QMatrix, SingularMatrixError, WModule, quotient_space
from qmackey.mackey import MackeyError, MackeyMorphism, constant, eps_lower, fp_functor, fp_unit, idempotent_part

C2, C3, C4, S3 = (SubgroupLattice(G) for G in (cyclic(2), cyclic(3), cyclic(4), symmetric(3)))


def _outside(lat, h):
    """A subgroup that is not contained in H."""
    return next(k for k in range(len(lat)) if not lat.leq(k, h))


def _twisted_constant():
    """``constant`` over C2 with C_s = -1 at C1: composable, but R^{C2}_{C1} does not land in fixed vectors."""
    M = constant(C2, 1)
    cgen = {key: QMatrix.scalar(1, -1) if key[1] == C2.bottom else m for key, m in M.cgen.items()}
    return replace(M, cgen=cgen)


def _short_gmap():
    X = GSet(C2.group, ((0, 1), (1, 0)))
    return GMap(X, X, (0,))


SUB = next(h for h in range(len(S3)) if h not in (S3.top, S3.bottom))  # a nontrivial proper subgroup
A3 = S3.subgroup_id(S3.group.closure([S3.group.gens[1]]))  # generated by (1 2 3), so normal
REFUSALS = {
    "BurnsideRing.element wrong length": (
        lambda: burnside_ring(S3).element([1, 2]), BurnsideError, "coefficient vector has wrong length"),
    "BurnsideRing.idempotent of a non-subgroup": (
        lambda: burnside_ring(S3, SUB).idempotent(_outside(S3, SUB)), BurnsideError,
        "idempotent index must be a subgroup of the ring's group"),
    "BurnsideRing.restrict of another ring's element": (
        lambda: burnside_ring(S3).restrict(burnside_ring(S3, SUB).unit(), S3.bottom), BurnsideError,
        "element belongs to another ring"),
    "BurnsideElement.__sub__ across rings": (
        lambda: burnside_ring(S3).unit() - burnside_ring(S3, SUB).unit(), BurnsideError, "cannot subtract across rings"),
    "_cycles on a non-integer point": (lambda: _cycles("(a b)"), GroupError, "bad cycle notation: '(a b)'"),
    "FiniteGroup past the cap": (
        lambda: FiniteGroup(C4.group._mul, cap=3), CapExceeded, "group order 4 exceeds cap 3"),
    "SubgroupLattice past the cap": (
        lambda: SubgroupLattice(C4.group, cap=3), CapExceeded, "group order 4 exceeds cap 3"),
    "GSet with a wrong number of rows": (
        lambda: GSet(C2.group, ((0, 1),)), GroupError, "action table must have one row per group element"),
    "GSet whose identity moves points": (
        lambda: GSet(C2.group, ((1, 0), (0, 1))), GroupError, "identity must act trivially"),
    "GMap of the wrong size": (_short_gmap, GroupError, "point map has wrong size"),
    "subgroup_id of a non-subgroup": (lambda: C4.subgroup_id((1, 0)), GroupError, "(0, 1) is not a subgroup"),
    "index with K outside H": (lambda: S3.index(S3.top, SUB), GroupError, "index requires K <= H"),
    "cosets with K outside the ambient": (
        lambda: S3.cosets(_outside(S3, SUB), SUB), GroupError, "cosets require K <= ambient"),
    "double_cosets with K outside the ambient": (
        lambda: S3.double_cosets(S3.bottom, _outside(S3, SUB), SUB), GroupError, "double cosets require K, L <= ambient"),
    "QMatrix.__add__ on a shape mismatch": (
        lambda: QMatrix.zeros(1, 2) + QMatrix.zeros(2, 1), LinAlgError, "shape mismatch in addition"),
    "QMatrix.solve on a shape mismatch": (
        lambda: QMatrix.scalar(2, 3).solve(QMatrix.zeros(3, 1)), LinAlgError, "shape mismatch in solve"),
    "QMatrix.inverse of a non-square matrix": (
        lambda: QMatrix.zeros(1, 2).inverse(), SingularMatrixError, "only square matrices can be inverted"),
    "quotient_space with relations in the wrong ambient space": (
        lambda: quotient_space(3, QMatrix([[1], [0]])), LinAlgError, "relations live in the wrong ambient space"),
    "fp_functor on a module over another group": (
        lambda: fp_functor(C2, WModule.trivial(C3.group)), MackeyError,
        "module must be a representation of the lattice's group"),
    "idempotent_part with an idempotent from a subgroup's ring": (
        lambda: idempotent_part(constant(S3), burnside_ring(S3, SUB).unit()), MackeyError,
        "idempotent must live in the top-level Burnside ring"),
    "MackeyMorphism between functors over different lattices": (
        lambda: MackeyMorphism(constant(C2), constant(C3), ()), MackeyError,
        "morphism endpoints live over different lattices"),
    "eps_lower over the wrong lattice": (
        lambda: eps_lower(constant(C2), S3, A3), MackeyError,
        "functor must live over the quotient lattice view"),
    "fp_unit when R^H_1 misses the fixed vectors": (
        lambda: fp_unit(_twisted_constant()), MackeyError, "restriction to the bottom level does not land in fixed vectors"),
    "certify_iso across lattices": (
        lambda: classify.certify_iso(constant(C2), constant(C3)), MackeyError, "functors live over different lattices"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_an_empty_cycle_among_cycles_is_skipped():
    assert _cycles("(1 2)()") == [[1, 2]]
