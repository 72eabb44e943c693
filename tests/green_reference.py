"""The bilinear Green-functor checker that ``qmackey.monoidal.green_check`` replaced.

It tests every rule one basis pair at a time: each product is a dense tuple,
and each map is applied to one column at a time.  The tests use it as the
referee for the matrix-identity checker; nothing in the package imports it.
"""

from __future__ import annotations

from itertools import product

from qmackey.linalg import QMatrix
from qmackey.mackey import comparable_pairs
from qmackey.monoidal import GreenReport, GreenStructure


def green_check(S: GreenStructure) -> GreenReport:
    """Exact verification of algebra, homomorphism and Frobenius conditions, pair by pair.

    Each rule is reported once per level, pair of levels or generator, at its
    first failure.  The map rules need well-shaped multiplications, so they
    run only when no level has a shape violation.  ``commutative`` is False
    when two basis vectors fail to commute at a level, among the pairs
    scanned before that level's first associativity failure.
    """
    M = S.base
    lat = M.lattice
    G = lat.group
    basis = [[tuple(int(t == i) for t in range(d)) for i in range(d)] for d in M.dims]
    products = {}  # h -> per basis pair a * d + b, the nonzero (t, value) entries of e_a e_b
    noncommuting = []

    def prod(h, u, v):
        # bilinear product of two coordinate vectors at level h
        d = M.dims[h]
        if h not in products:
            products[h] = [[(t, x) for t, x in enumerate(col) if x] for col in S.mult[h].transpose().data]
        table = products[h]
        out = [0] * d
        for a, ua in enumerate(u):
            if ua == 0:
                continue
            for b, vb in enumerate(v):
                if vb == 0:
                    continue
                for t, x in table[a * d + b]:
                    out[t] += ua * vb * x
        return tuple(out)

    def apply(m, v):
        return m.matmul(QMatrix([[x] for x in v])).col(0)

    def associates(h, ei, ej):
        # (e_i e_j) e_l == e_i (e_j e_l) for every l, noting on the way whether e_i and e_j commute
        ij = prod(h, ei, ej)
        if prod(h, ej, ei) != ij:
            noncommuting.append(h)
        return all(prod(h, ij, el) == prod(h, ei, prod(h, ej, el)) for el in basis[h])

    def multiplicative(m, h, t, cols):
        # m(e_i e_j) == m(e_i) m(e_j) for every pair, cols[i] being m(e_i)
        pairs = product(enumerate(basis[h]), repeat=2)
        return all(apply(m, prod(h, ei, ej)) == prod(t, cols[i], cols[j]) for (i, ei), (j, ej) in pairs)

    def level_rules():
        for h in range(len(lat)):
            d, E = M.dims[h], basis[h]
            mult, unit = S.mult[h], S.unit[h]
            if (mult.rows, mult.cols) != (d, d * d) or (unit.rows, unit.cols) != (d, 1):
                yield ("shape", lat.name(h))
                continue
            u = unit.col(0)
            if any(prod(h, u, e) != e or prod(h, e, u) != e for e in E):
                yield ("unit", lat.name(h))
            if not all(associates(h, ei, ej) for ei, ej in product(E, repeat=2)):
                yield ("associativity", lat.name(h))

    def map_rules():
        for h, k in comparable_pairs(lat):
            if k == h:
                continue
            r, ind = M.res[(h, k)], M.ind[(h, k)]
            rc = [r.col(i) for i in range(M.dims[h])]
            ic = [ind.col(y) for y in range(M.dims[k])]
            if r.matmul(S.unit[h]).col(0) != S.unit[k].col(0):
                yield ("restriction-unit", f"{lat.name(h)} > {lat.name(k)}")
            if not multiplicative(r, h, k, rc):
                yield ("restriction-homomorphism", f"{lat.name(h)} > {lat.name(k)}")
            # both Frobenius rules scan the pairs (x, y) in one order and are reported by first failure
            pairs = list(product(range(M.dims[h]), range(M.dims[k])))
            Eh, Ek = basis[h], basis[k]
            rules = (
                ("frobenius-left", lambda x, y: prod(h, Eh[x], ic[y]) == apply(ind, prod(k, rc[x], Ek[y]))),
                ("frobenius-right", lambda x, y: prod(h, ic[y], Eh[x]) == apply(ind, prod(k, Ek[y], rc[x]))),
            )
            first = sorted(
                (next((n for n, p in enumerate(pairs) if not holds(*p)), len(pairs)), rule) for rule, holds in rules
            )
            for n, rule in first:
                if n < len(pairs):
                    yield (rule, f"{lat.name(k)} < {lat.name(h)}")
        for pos, s in enumerate(G.gens):
            for h in range(len(lat)):
                t = lat.conjugate(s, h)
                c = M.cgen[(pos, h)]
                if c.matmul(S.unit[h]).col(0) != S.unit[t].col(0):
                    yield ("conjugation-unit", f"{G.elem_name(s)}@{lat.name(h)}")
                if not multiplicative(c, h, t, [c.col(i) for i in range(M.dims[h])]):
                    yield ("conjugation-homomorphism", f"{G.elem_name(s)}@{lat.name(h)}")

    violations = list(level_rules())
    if all(rule != "shape" for rule, _ in violations):
        violations += map_rules()
    return GreenReport(not violations, not noncommuting, violations)
