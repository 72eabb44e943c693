"""Exact computations with rational Mackey functors over finite groups.

The layers, bottom up:

- :mod:`qmackey.groups`: finite groups as multiplication tables, subgroup
  lattices, cosets, double cosets, Weyl quotients, Mobius values;
- :mod:`qmackey.linalg`: exact rational matrices and group representations;
- :mod:`qmackey.burnside`: the rational Burnside ring of every subgroup,
  marks, and the primitive idempotents by two independent routes;
- :mod:`qmackey.mackey`: the Mackey functor data model, the axiom checker,
  the standard constructions and the change-of-group functors;
- :mod:`qmackey.classify`: the equivalence with Weyl-group modules:
  free functors, local evaluations, certified splittings, and the diagonal
  decomposition of levels;
- :mod:`qmackey.monoidal`: the box product and Green-functor verification;
- :mod:`qmackey.serialize` / :mod:`qmackey.cli`: JSON formats, Lewis
  diagrams as DOT, and the command-line front end.
"""

from .burnside import BurnsideElement, BurnsideRing, burnside_ring
from .classify import (
    SplitData,
    assemble,
    certify_iso,
    classify_iso,
    comparison_map,
    diagonal_check,
    free_functor,
    random_functor,
    split,
    u_module,
)
from .groups import FiniteGroup, SubgroupLattice, corpus, load_group
from .linalg import QMatrix, WModule, averaging_projector, fixed_subspace, quotient_space
from .mackey import (
    MackeyFunctor,
    MackeyMorphism,
    burnside_mackey,
    check_axioms,
    coconstant,
    constant,
    contravariant_map,
    covariant_map,
    dual,
    eps_lower,
    eps_upper,
    fp_fq_iso,
    fp_functor,
    fp_unit,
    fq_functor,
    i_lower,
    i_transpose_down,
    i_transpose_up,
    i_upper,
    idempotent_part,
)
from .monoidal import GreenStructure, box, box_morphism, box_swap_iso, box_unit_iso, burnside_green, green_check

__version__ = "0.1.0"

__all__ = [
    "BurnsideElement",
    "BurnsideRing",
    "FiniteGroup",
    "GreenStructure",
    "MackeyFunctor",
    "MackeyMorphism",
    "QMatrix",
    "SplitData",
    "SubgroupLattice",
    "WModule",
    "assemble",
    "averaging_projector",
    "box",
    "box_morphism",
    "box_swap_iso",
    "box_unit_iso",
    "burnside_green",
    "burnside_mackey",
    "burnside_ring",
    "certify_iso",
    "check_axioms",
    "classify_iso",
    "coconstant",
    "comparison_map",
    "constant",
    "contravariant_map",
    "corpus",
    "covariant_map",
    "diagonal_check",
    "dual",
    "eps_lower",
    "eps_upper",
    "fixed_subspace",
    "fp_fq_iso",
    "fp_functor",
    "fp_unit",
    "fq_functor",
    "free_functor",
    "green_check",
    "i_lower",
    "i_transpose_down",
    "i_transpose_up",
    "i_upper",
    "idempotent_part",
    "load_group",
    "quotient_space",
    "random_functor",
    "split",
    "u_module",
]
