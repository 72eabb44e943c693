"""JSON serialization for groups, Burnside elements and Mackey functors,
plus the Lewis-diagram DOT emitter.

Rationals travel as ``"p/q"`` strings with the denominator omitted when 1.
Matrices are row-major nested arrays of such strings, written from and read
into the sparse stored rows; shapes are recovered from the level dimensions.
Subgroups are addressed by their deterministic lattice names, group elements
by index, and the map keys of a functor come from one table, ``_map_keys``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .burnside import BurnsideElement
from .groups import DEFAULT_ORDER_CAP, FiniteGroup, GroupError, SubgroupLattice, load_group
from .linalg import QMatrix
from .mackey import MackeyFunctor


class FormatError(ValueError):
    pass


def frac_to_str(x) -> str:
    """An ``int`` or ``Fraction`` as ``"p/q"``, or as ``"p"`` when integral: ``str`` of either writes exactly that."""
    try:
        return str(x)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise FormatError("a rational in the result has too many digits to print") from None


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def str_to_frac(s) -> Fraction:
    """An integer, or an ASCII ``-?[0-9]+(/[0-9]+)?`` string: not ``Fraction``'s wider syntax, where ``"1e100000000000"`` hangs."""
    if type(s) is not int and not (type(s) is str and _RATIONAL.fullmatch(s)):
        raise FormatError(f"bad rational {s!r}: expected an integer or a \"p/q\" string")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {s!r}") from exc


def _entry_from_json(x):
    """A matrix entry: ``-?[0-9]+`` strings go straight to ``int``, the rest through ``str_to_frac``."""
    if type(x) is str:
        digits = x[1:] if x[:1] == "-" else x
        if digits.isascii() and digits.isdigit():
            try:
                return int(x)
            except ValueError:  # past int's digit limit; str_to_frac reports it
                pass
    return str_to_frac(x)


def matrix_to_json(M: QMatrix) -> list:
    """The rows of ``M`` as lists of strings; only the stored nonzero entries are formatted."""
    out = [["0"] * M.cols for _ in range(M.rows)]
    for i, j, x in M.entries():
        out[i][j] = frac_to_str(x)
    return out


def matrix_from_json(rows, shape: tuple[int, int]) -> QMatrix:
    """A matrix of the given shape from a list of rows; ``[]`` stands for any empty shape."""
    r, c = shape
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise FormatError("a matrix must be a list of rows, each a list of entries")
    width = len(rows[0]) if rows else 0
    if any(len(row) != width for row in rows):
        raise FormatError("matrix has rows of different lengths")
    if (len(rows), width) != (r, c) and (rows or r * c):
        raise FormatError(f"matrix has shape {len(rows)}x{width}, expected {r}x{c}")
    return QMatrix.sparse(r, c, [{j: _entry_from_json(x) for j, x in enumerate(row) if x != "0"} for row in rows] or [{}] * r)


# -- groups ---------------------------------------------------------------------


def group_to_json(G: FiniteGroup) -> dict:
    out = {"name": G.name, "order": G.order, "table": [list(row) for row in G._mul]}
    # functor data keys conjugations by generator, so generators that differ
    # from the ones a bare table yields must travel with the table
    if G.gens != G._normalize_gens(None):
        out["generators"] = list(G.gens)
    return out


def group_from_json(data: dict, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
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
    if not isinstance(data, dict):
        raise FormatError("a Burnside element must be an object of orbit class coefficients")
    coeffs = [Fraction(0)] * ring.size
    names = {ring.class_name(ci): ci for ci in range(ring.size)}
    for key, val in data.items():
        if key not in names:
            raise FormatError(f"unknown orbit class {key!r}")
        coeffs[names[key]] = str_to_frac(val)
    return ring.element(coeffs)


# -- Mackey functors --------------------------------------------------------------


def _map_keys(lat: SubgroupLattice, dims) -> dict[str, dict[str, tuple]]:
    """For each map table, every JSON key of a functor over ``lat`` with its table slot and the map's shape.

    The restriction from H to K <= H is keyed ``"H>K"``, the induction back
    ``"K<H"``, and the conjugation by the generator s at level H ``"s@H"``.
    The writer emits exactly these keys and the reader accepts no others.
    """
    name, gens = lat.name, lat.group.gens
    pairs = [(h, k) for h in range(len(lat)) for k in lat.subgroups_of(h)]
    return {
        "restriction": {f"{name(h)}>{name(k)}": ((h, k), (dims[k], dims[h])) for h, k in pairs},
        "induction": {f"{name(k)}<{name(h)}": ((h, k), (dims[h], dims[k])) for h, k in pairs},
        "conjugation": {
            f"{s}@{name(h)}": ((pos, h), (dims[lat.conjugate(s, h)], dims[h]))
            for pos, s in enumerate(gens)
            for h in range(len(lat))
        },
    }


def functor_to_json(M: MackeyFunctor) -> dict:
    lat = M.lattice
    out = {
        "group": group_to_json(lat.group),
        "name": M.name,
        "levels": {lat.name(h): M.dims[h] for h in range(len(lat))},
    }
    for (field, keys), table in zip(_map_keys(lat, M.dims).items(), (M.res, M.ind, M.cgen)):
        out[field] = {key: matrix_to_json(table[slot]) for key, (slot, _) in keys.items()}
    return out


def functor_from_json(data: dict, cap: int = DEFAULT_ORDER_CAP) -> MackeyFunctor:
    if not isinstance(data, dict) or "group" in data and not isinstance(data["group"], dict):
        raise FormatError("functor data must embed its group")
    for field in ("group", "levels", "restriction", "induction", "conjugation"):
        if field not in data:
            raise FormatError(f"functor data is missing {field!r}")
    functor_name = data.get("name", "M")
    if not isinstance(functor_name, str):
        raise FormatError(f"functor name must be a string, not {functor_name!r}")
    G = group_from_json(data["group"], cap=cap)
    lat = SubgroupLattice(G, cap=cap)
    for field in ("levels", "restriction", "induction", "conjugation"):
        if not isinstance(data[field], dict):
            raise FormatError(f"{field!r} must be an object keyed by name")
    levels = {}
    for name, d in data["levels"].items():
        if isinstance(d, bool) or not isinstance(d, int) or d < 0:
            raise FormatError(f"level {name!r} has dimension {d!r}, expected a non-negative integer")
        levels[lat.id_by_name(name)] = d
    if len(levels) != len(lat):
        missing = [lat.name(h) for h in range(len(lat)) if h not in levels]
        raise FormatError(f"levels missing for subgroups: {', '.join(missing)}")
    dims = tuple(levels[h] for h in range(len(lat)))
    for h, d in enumerate(dims):  # R^H_H lists d rows, so the file bounds every level before any map is read
        key = f"{lat.name(h)}>{lat.name(h)}"
        if key not in data["restriction"]:
            raise FormatError("restriction maps must cover every comparable pair")
        if not isinstance(rows := data["restriction"][key], list) or len(rows) != d:
            raise FormatError(f"restriction {key!r} must be a list of {d} rows")
    tables = {}
    for field, keys in _map_keys(lat, dims).items():
        table = tables[field] = {}
        for key, rows in data[field].items():
            if key not in keys:
                raise FormatError(f"unknown {field} key {key!r}")
            slot, shape = keys[key]
            table[slot] = matrix_from_json(rows, shape)
        if len(table) != len(keys):
            every = "generator at every level" if field == "conjugation" else "comparable pair"
            raise FormatError(f"{field} maps must cover every {every}")
    return MackeyFunctor(lat, dims, *tables.values(), name=functor_name)


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
    leq = {(a, b): lat.is_subconjugate(a, b) for a in reps for b in reps}
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
