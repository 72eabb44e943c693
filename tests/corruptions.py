"""Deliberately broken Mackey functors; the axiom checker must reject each one.

Each fixture is a ``dataclasses.replace`` variant of a constant functor.
"""

from dataclasses import replace

from qmackey.linalg import QMatrix
from qmackey.mackey import constant


def _corrupt(lattice, name, **tables):
    """The constant functor of dimension 1 with some map entries overwritten.

    ``tables`` maps ``res``, ``ind`` or ``cgen`` to the entries that change.
    """
    M = constant(lattice, 1)
    return replace(M, name=name, **{table: {**getattr(M, table), **changed} for table, changed in tables.items()})


def constant_with_identity_induction(lattice):
    """Induction forced to the identity; the double-coset axiom then fails
    (restriction followed by induction must multiply by the index)."""
    M = constant(lattice, 1)
    return replace(M, name="bad-induction", ind=dict.fromkeys(M.ind, QMatrix.identity(1))), "double-coset"


def scaled_restriction(lattice):
    """One restriction scaled by 2 breaks transitivity through that level.

    Needs a subgroup strictly between the bottom and the top; returns None
    when the lattice has no such level.
    """
    top = lattice.top
    mids = [h for h in lattice.subgroups_of(top) if h not in (top, lattice.bottom)]
    if not mids:
        return None
    return _corrupt(lattice, "bad-restriction", res={(top, mids[0]): QMatrix.scalar(1, 2)}), "restriction-transitivity"


def non_identity_self_restriction(lattice):
    top = lattice.top
    return _corrupt(lattice, "bad-self-res", res={(top, top): QMatrix.scalar(1, 3)}), "identity-restriction"


def non_identity_self_induction(lattice):
    bottom = lattice.bottom
    return _corrupt(lattice, "bad-self-ind", ind={(bottom, bottom): QMatrix.scalar(1, -1)}), "identity-induction"


def broken_inner_conjugation(lattice):
    """A sign flip on a generator's conjugation violates C_h = id inside H."""
    return _corrupt(lattice, "bad-conj", cgen={(0, lattice.top): QMatrix.scalar(1, -1)}), "inner-conjugation"


def wrong_shape(lattice):
    return _corrupt(lattice, "bad-shape", res={(lattice.top, lattice.bottom): QMatrix.identity(2)}), "shape"


def axioms_violated(report):
    """The rules named by a report's violations."""
    return {v.axiom for v in report.violations}


def all_corruptions(lattice):
    builders = [
        constant_with_identity_induction,
        scaled_restriction,
        non_identity_self_restriction,
        non_identity_self_induction,
        broken_inner_conjugation,
        wrong_shape,
    ]
    return [built for b in builders if (built := b(lattice)) is not None]
