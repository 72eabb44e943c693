"""JSON serialization for groups, Burnside elements and Mackey functors,
plus the Lewis-diagram DOT emitter.

Rationals travel as ``"p/q"`` strings with the denominator omitted when 1.
Matrices are row-major nested arrays of such strings; shapes are recovered
from the level dimensions.  Subgroups are addressed by their deterministic
lattice names, group elements by index.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .burnside import BurnsideElement
from .groups import FiniteGroup, GroupError, SubgroupLattice, load_group
from .linalg import QMatrix
from .mackey import MackeyFunctor


class FormatError(ValueError):
    pass


def frac_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def str_to_frac(s) -> Fraction:
    if isinstance(s, bool) or not isinstance(s, (int, str)):
        raise FormatError(f"bad rational {s!r}: expected an integer or a \"p/q\" string")
    if isinstance(s, int):
        return Fraction(s)
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {s!r}") from exc


def matrix_to_json(M: QMatrix) -> list:
    return [[frac_to_str(x) for x in row] for row in M.data]


def matrix_from_json(rows, shape: tuple[int, int]) -> QMatrix:
    """A matrix of the given shape from a list of rows; ``[]`` stands for any empty shape."""
    r, c = shape
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise FormatError("a matrix must be a list of rows, each a list of entries")
    if not rows and r * c == 0:
        return QMatrix.zeros(r, c)
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise FormatError("matrix has rows of different lengths")
    if (len(rows), width) != (r, c):
        raise FormatError(f"matrix has shape {len(rows)}x{width}, expected {r}x{c}")
    return QMatrix([[str_to_frac(x) for x in row] for row in rows])


# -- groups ---------------------------------------------------------------------


def group_to_json(G: FiniteGroup) -> dict:
    return {
        "name": G.name,
        "order": G.order,
        "table": [list(row) for row in G._mul],
    }


def group_from_json(data: dict, cap: int = 64) -> FiniteGroup:
    try:
        return load_group(data, cap=cap)
    except GroupError:
        raise
    except Exception as exc:
        raise FormatError(f"bad group data: {exc}") from exc


# -- Burnside elements -----------------------------------------------------------


def burnside_to_json(a: BurnsideElement) -> dict:
    ring = a.ring
    return {ring.class_name(ci): frac_to_str(c) for ci, c in enumerate(a.coeffs) if c != 0}


def burnside_from_json(data: dict, ring) -> BurnsideElement:
    coeffs = [Fraction(0)] * ring.size
    names = {ring.class_name(ci): ci for ci in range(ring.size)}
    for key, val in data.items():
        if key not in names:
            raise FormatError(f"unknown orbit class {key!r}")
        coeffs[names[key]] = str_to_frac(val)
    return ring.element(coeffs)


# -- Mackey functors --------------------------------------------------------------


def functor_to_json(M: MackeyFunctor) -> dict:
    lat = M.lattice
    G = lat.group
    out = {
        "group": group_to_json(G),
        "name": M.name,
        "levels": {lat.name(h): M.dims[h] for h in range(len(lat))},
        "restriction": {},
        "induction": {},
        "conjugation": {},
    }
    for (h, k), mat in sorted(M.res.items()):
        out["restriction"][f"{lat.name(h)}>{lat.name(k)}"] = matrix_to_json(mat)
    for (h, k), mat in sorted(M.ind.items()):
        out["induction"][f"{lat.name(k)}<{lat.name(h)}"] = matrix_to_json(mat)
    for (pos, h), mat in sorted(M.cgen.items()):
        out["conjugation"][f"{G.gens[pos]}@{lat.name(h)}"] = matrix_to_json(mat)
    return out


def functor_from_json(data: dict, cap: int = 64) -> MackeyFunctor:
    if not isinstance(data, dict) or "group" in data and not isinstance(data["group"], dict):
        raise FormatError("functor data must embed its group")
    for field in ("group", "levels", "restriction", "induction", "conjugation"):
        if field not in data:
            raise FormatError(f"functor data is missing {field!r}")
    G = group_from_json(data["group"], cap=cap)
    lat = SubgroupLattice(G, cap=cap)
    for field in ("levels", "restriction", "induction", "conjugation"):
        if not isinstance(data[field], dict):
            raise FormatError(f"{field!r} must be an object keyed by name")
    dims = [0] * len(lat)
    seen = set()
    for name, d in data["levels"].items():
        if isinstance(d, bool) or not isinstance(d, int) or d < 0:
            raise FormatError(f"level {name!r} has dimension {d!r}, expected a non-negative integer")
        h = lat.id_by_name(name)
        dims[h] = d
        seen.add(h)
    if len(seen) != len(lat):
        missing = [lat.name(h) for h in range(len(lat)) if h not in seen]
        raise FormatError(f"levels missing for subgroups: {', '.join(missing)}")
    res, ind, cgen = {}, {}, {}
    for key, rows in data["restriction"].items():
        try:
            hn, kn = key.split(">")
        except ValueError:
            raise FormatError(f"bad restriction key {key!r}") from None
        h, k = lat.id_by_name(hn), lat.id_by_name(kn)
        res[(h, k)] = matrix_from_json(rows, (dims[k], dims[h]))
    for key, rows in data["induction"].items():
        try:
            kn, hn = key.split("<")
        except ValueError:
            raise FormatError(f"bad induction key {key!r}") from None
        h, k = lat.id_by_name(hn), lat.id_by_name(kn)
        ind[(h, k)] = matrix_from_json(rows, (dims[h], dims[k]))
    gen_pos = {s: pos for pos, s in enumerate(G.gens)}
    for key, rows in data["conjugation"].items():
        try:
            elem_s, hn = key.split("@")
            s = int(elem_s)
        except ValueError:
            raise FormatError(f"bad conjugation key {key!r}") from None
        if s not in gen_pos:
            raise FormatError(f"element {s} is not a group generator")
        h = lat.id_by_name(hn)
        t = lat.conjugate(s, h)
        cgen[(gen_pos[s], h)] = matrix_from_json(rows, (dims[t], dims[h]))
    expected_pairs = {(h, k) for h in range(len(lat)) for k in lat.subgroups_of(h)}
    if set(res) != expected_pairs or set(ind) != expected_pairs:
        raise FormatError("restriction/induction maps must cover every comparable pair")
    expected_conj = {(pos, h) for pos in range(len(G.gens)) for h in range(len(lat))}
    if set(cgen) != expected_conj:
        raise FormatError("conjugation maps must cover every generator at every level")
    return MackeyFunctor(lat, tuple(dims), res, ind, cgen, name=data.get("name", "M"))


def dump(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


# -- Lewis diagrams -----------------------------------------------------------------


def lewis_dot(M: MackeyFunctor) -> str:
    """A DOT digraph of the levels at class representatives.

    One node per conjugacy class labeled with its dimension, a downward
    restriction edge and an upward induction edge for every covering pair of
    classes, and a loop label naming the Weyl group where it is nontrivial.
    """
    lat = M.lattice
    reps = lat.class_reps()
    lines = ["digraph lewis {", "  rankdir=TB;", "  node [shape=box];"]
    for h in reps:
        cname = lat.class_name_of(h)
        lines.append(f'  "{cname}" [label="{cname}: {M.dims[h]}"];')
    # covering pairs in the subconjugacy order on classes
    order = {h: i for i, h in enumerate(reps)}
    leq = {}
    for a in reps:
        for b in reps:
            leq[(a, b)] = lat.is_subconjugate(a, b)
    for b in reps:
        for a in reps:
            if a == b or not leq[(a, b)]:
                continue
            if any(c not in (a, b) and leq[(a, c)] and leq[(c, b)] for c in reps):
                continue
            na, nb = lat.class_name_of(a), lat.class_name_of(b)
            lines.append(f'  "{nb}" -> "{na}" [label="R"];')
            lines.append(f'  "{na}" -> "{nb}" [label="I"];')
    for h in reps:
        w = lat.weyl(h)
        if w.group.order > 1:
            cname = lat.class_name_of(h)
            lines.append(f'  "{cname}" -> "{cname}" [label="W={w.group.order}", style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
