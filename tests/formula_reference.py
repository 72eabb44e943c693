"""The double-coset formula evaluated afresh at one triple: the referee for the
term table of ``mackey._formula_identities``, which builds each term once per
check.

``formula_holds_at(M, h, k, l)`` compares R^H_K I^H_L with the sum over x in
K\\H/L of I^K_{K n xLx^-1} C_x R^L_{L n x^-1Kx}, each term built from the
structure maps for this triple alone and added with one ``+``.
"""

from qmackey.linalg import QMatrix


def formula_holds_at(M, h, k, l) -> bool:
    lat, G = M.lattice, M.group
    lhs = M.res[(h, k)].matmul(M.ind[(h, l)])
    rhs = QMatrix.zeros(M.dims[k], M.dims[l])
    for x in lat.double_cosets(k, l, h):
        upper = lat.meet(k, lat.conjugate(x, l))  # K n xLx^-1
        lower = lat.conjugate(G.inv(x), upper)  # L n x^-1Kx
        rhs = rhs + M.ind[(k, upper)].matmul(M.conj(x, lower)).matmul(M.res[(l, lower)])
    return lhs == rhs
