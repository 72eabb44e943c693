"""The double-coset Burnside arithmetic that ``qmackey.burnside`` replaced by marks.

The package multiplies and restricts through the integer table of marks.
These are the direct orbit decompositions, kept as referees for it:

- ``structure_constants(ring, i, j)``: [H/A][H/B] is the H-set H/A x H/B,
  whose orbits are indexed by the double cosets A x B, with stabilizer
  A meet xBx^-1;
- ``product(a, b)``: the bilinear expansion over those constants;
- ``restrict(a, to)``: [H/B] over K <= H splits into one K-orbit per double
  coset K x B, with stabilizer K meet xBx^-1;
- ``induce(ring, a)``: [A/K] -> [H/K] from the ring of a subgroup A <= H,
  the referee for the inductions of ``mackey.burnside_mackey``.

Nothing in the package imports this module.
"""

from __future__ import annotations

from fractions import Fraction

from qmackey.burnside import BurnsideElement, BurnsideError, burnside_ring


def structure_constants(ring, i: int, j: int) -> tuple[Fraction, ...]:
    """The coefficients of [H/A_i][H/A_j], counted over the double cosets A_i\\H/A_j."""
    lat = ring.lattice
    a, b = ring.reps[i], ring.reps[j]
    out = [Fraction(0)] * ring.size
    for x in lat.double_cosets(a, b, ring.top):
        out[ring.class_index[lat.meet(a, lat.conjugate(x, b))]] += 1
    return tuple(out)


def product(a: BurnsideElement, b: BurnsideElement) -> BurnsideElement:
    ring = a.ring
    out = [Fraction(0)] * ring.size
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        for j, cb in enumerate(b.coeffs):
            if cb == 0:
                continue
            prod = structure_constants(ring, i, j)
            for k in range(ring.size):
                if prod[k]:
                    out[k] += ca * cb * prod[k]
    return BurnsideElement(ring, tuple(out))


def restrict(a: BurnsideElement, to: int) -> BurnsideElement:
    """Orbit-decompose each H-set of a as a set over the subgroup ``to``."""
    ring, lat = a.ring, a.ring.lattice
    target = burnside_ring(lat, to)
    out = [Fraction(0)] * target.size
    for j, c in enumerate(a.coeffs):
        if c == 0:
            continue
        b = ring.reps[j]
        for x in lat.double_cosets(to, b, ring.top):
            out[target.class_index[lat.meet(to, lat.conjugate(x, b))]] += c
    return BurnsideElement(target, tuple(out))


def induce(ring, a: BurnsideElement) -> BurnsideElement:
    """Additive induction [A/K] -> [H/K] into ``ring``, the ring of H, from the ring of a subgroup A <= H."""
    src = a.ring
    lat = ring.lattice
    if src.lattice is not lat or not lat.leq(src.top, ring.top):
        raise BurnsideError("can only induce from a subgroup's ring")
    out = [Fraction(0)] * ring.size
    for j, c in enumerate(a.coeffs):
        if c == 0:
            continue
        out[ring.class_index[src.reps[j]]] += c
    return BurnsideElement(ring, tuple(out))
