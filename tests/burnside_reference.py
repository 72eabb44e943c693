"""The Burnside-ring product that ``qmackey.burnside.BurnsideRing.mul`` replaced.

It expands a * b as sum_(i, j) a_i b_j [H/A_i][H/A_j], each basis product
given by the double-coset structure constants of ``_mul_basis``.  The tests
use it as the referee for the product through the marks; nothing in the
package imports it.
"""

from __future__ import annotations

from fractions import Fraction

from qmackey.burnside import BurnsideElement


def product(a: BurnsideElement, b: BurnsideElement) -> BurnsideElement:
    ring = a.ring
    out = [Fraction(0)] * ring.size
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        for j, cb in enumerate(b.coeffs):
            if cb == 0:
                continue
            prod = ring._mul_basis(i, j)
            for k in range(ring.size):
                if prod[k]:
                    out[k] += ca * cb * prod[k]
    return BurnsideElement(ring, tuple(out))
