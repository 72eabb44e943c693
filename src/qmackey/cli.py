"""Command-line front end.

Subcommands mirror the library layers: ``group`` for lattice inspection,
``burnside`` for ring computations, ``mackey`` for functor-level operations,
and ``demo`` to regenerate the worked examples end to end.  Exit codes: 0 on
success, 1 when a verification fails, 2 on usage errors (unknown input,
malformed JSON, cap exceeded).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import groups as grp
from .burnside import BurnsideError, burnside_ring
from .classify import SplitData, assemble, classify_iso, diagonal_check, free_functor, split
from .groups import CapExceeded, GroupError, SubgroupLattice
from .linalg import LinAlgError, WModule
from .mackey import (
    _require_mackey,
    MackeyError,
    burnside_mackey,
    check_axioms,
    coconstant,
    constant,
    fp_functor,
    rebase,
    zero_functor,
)
from .monoidal import GreenStructure, box, burnside_green, green_check
from .serialize import (
    FormatError,
    burnside_from_json,
    burnside_to_json,
    dump,
    frac_to_str,
    functor_from_json,
    functor_to_json,
    group_from_json,
    lewis_dot,
    matrix_from_json,
    matrix_to_json,
)

_BUILTIN_GROUPS = {
    "c1": lambda: grp.trivial(),
    "c2": lambda: grp.cyclic(2),
    "c3": lambda: grp.cyclic(3),
    "c4": lambda: grp.cyclic(4),
    "c6": lambda: grp.cyclic(6),
    "c8": lambda: grp.cyclic(8),
    "s3": lambda: grp.symmetric(3),
    "s4": lambda: grp.symmetric(4),
    "a4": lambda: grp.alternating(4),
    "d8": lambda: grp.dihedral(8),
    "d12": lambda: grp.dihedral(12),
    "q8": lambda: grp.quaternion(),
}


# builtin functor kinds: (lattice, dimension) -> functor
_FUNCTOR_KINDS = {
    "burnside": lambda lat, dim: burnside_mackey(lat),
    "constant": constant,
    "coconstant": coconstant,
    "zero": lambda lat, dim: zero_functor(lat),
    "fixed": lambda lat, dim: fp_functor(lat, WModule.regular(lat.group)),
}


class UsageError(ValueError):
    pass


def workspace_dir() -> str | None:
    return os.environ.get("MACKEY_WORKSPACE")


def _load_json(path: str, text: str | None = None):
    """The JSON in the file at ``path``, or in ``text`` when given; ``path`` names the input in messages."""
    try:
        if text is None:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, an integer past the digit limit, or nested too deeply
        raise UsageError(f"malformed JSON in {path}: {exc}") from None


def _write(path: str, text: str, makedirs: bool = False) -> None:
    try:
        if makedirs:
            os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _find(name: str, folder: str) -> str | None:
    """The path ``name`` as given, else ``<workspace>/<folder>/<name>.json``, whichever exists."""
    ws = workspace_dir()
    for path in (name, ws and os.path.join(ws, folder, f"{name}.json")):
        if path and os.path.exists(path):
            return path
    return None


def resolve_group(name: str, cap: int) -> grp.FiniteGroup:
    low = name.lower()
    if low in _BUILTIN_GROUPS:
        G = _BUILTIN_GROUPS[low]()
        if G.order > cap:
            raise CapExceeded(f"group order {G.order} exceeds cap {cap}")
        return G
    if (path := _find(name, "groups")) is None:
        raise UsageError(f"unknown group {name!r} (not builtin, not a file, not in workspace)")
    return group_from_json(_load_json(path), cap=cap)


def resolve_functor(spec: str, cap: int):
    """A functor argument: ``kind:group`` for builtins, else a JSON file."""
    if ":" in spec and not os.path.exists(spec):
        kind, _, gname = spec.partition(":")
        lat = SubgroupLattice(resolve_group(gname, cap), cap=cap)
        if kind not in _FUNCTOR_KINDS:
            raise UsageError(f"unknown builtin functor kind {kind!r}")
        return _FUNCTOR_KINDS[kind](lat, 1)
    if (path := _find(spec, "functors")) is None:
        raise UsageError(f"unknown functor {spec!r}")
    return functor_from_json(_load_json(path), cap=cap)


def _lattice(args) -> SubgroupLattice:
    return SubgroupLattice(resolve_group(args.group, args.cap), cap=args.cap)


def _fmt(args) -> str:
    return "text" if args.pretty else args.format or "json"


_FORMATS = {"mackey new": ("json",), "mackey box": ("json",), "mackey lewis": ("text", "dot"), "demo": ("text",)}


def _check_format(args) -> None:
    """Refuse output flags a command would ignore: ``_FORMATS`` commands write only the forms listed."""
    command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
    if args.format == "dot" and command != "mackey lewis":
        raise UsageError("--format dot is only supported by mackey lewis")
    if args.pretty and args.format not in (None, "text"):
        raise UsageError(f"--pretty conflicts with --format {args.format}")
    form = args.format or ("text" if args.pretty else None)
    only = _FORMATS.get(command, (form,))
    if form not in (None, *only):
        flag = f"--format {form}" if args.format else "--pretty"
        raise UsageError(f"{command} only writes {' or '.join(only)}, not {flag}")


def _emit(args, text: str) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)


def _report(args, data, lines: list[str], code: int = 0) -> int:
    """Write a command's answer, ``data`` as JSON or ``lines`` as text, and return its exit code."""
    _emit(args, dump(data) if _fmt(args) == "json" else "\n".join(lines))
    return code


# ---------------------------------------------------------------------------
# group commands
# ---------------------------------------------------------------------------


def cmd_group_info(args) -> int:
    lat = _lattice(args)
    G = lat.group
    data = {
        "name": G.name,
        "order": G.order,
        "abelian": G.is_abelian,
        "generators": [G.elem_name(s) for s in G.gens],
        "subgroups": len(lat),
        "conjugacy_classes": len(lat.classes),
    }
    lines = [
        f"group {G.name}",
        f"  order: {G.order}",
        f"  abelian: {'yes' if G.is_abelian else 'no'}",
        f"  generators: {', '.join(data['generators']) or '(none)'}",
        f"  subgroups: {len(lat)} in {len(lat.classes)} conjugacy classes",
    ]
    return _report(args, data, lines)


def cmd_group_subgroups(args) -> int:
    lat = _lattice(args)
    rows = [
        {
            "name": lat.name(h),
            "order": lat.order(h),
            "class": lat.class_name_of(h),
            "elements": list(lat.elements(h)),
            "normalizer": lat.name(lat.normalizers[h]),
            "weyl_order": lat.weyl(h).group.order,
            "normal": lat.is_normal(h),
        }
        for h in range(len(lat))
    ]
    lines = [f"subgroups of {lat.group.name}:"]
    for r in rows:
        flag = " normal" if r["normal"] else ""
        lines.append(
            f"  {r['name']:<8} order {r['order']:<3} class {r['class']:<5} "
            f"N={r['normalizer']:<8} |W|={r['weyl_order']}{flag}"
        )
    return _report(args, {"group": lat.group.name, "subgroups": rows}, lines)


# ---------------------------------------------------------------------------
# burnside commands
# ---------------------------------------------------------------------------


def cmd_burnside_table(args) -> int:
    lat = _lattice(args)
    ring = burnside_ring(lat)
    marks = [list(ring.marks_basis(j)) for j in range(ring.size)]
    names = [lat.class_name_of(rep) for rep in ring.reps]
    width = max(len(n) for n in names) + 1
    head = " " * (width + 2) + " ".join(f"{n:>{width}}" for n in names)
    lines = [f"table of marks for {lat.group.name} (rows: orbit classes, columns: fixing classes)", head]
    for n, row in zip(names, marks):
        lines.append(f"  {n:<{width}}" + " ".join(f"{x:>{width}}" for x in row))
    return _report(args, {"group": lat.group.name, "classes": names, "marks": marks}, lines)


def cmd_burnside_idempotents(args) -> int:
    lat = _lattice(args)
    ring = burnside_ring(lat)
    via_mobius = ring.idempotents()
    via_marks = ring.idempotents_via_marks()
    agree = via_mobius == via_marks
    data = {
        "group": lat.group.name,
        "idempotents": {
            f"e[{lat.class_name_of(rep)}]": burnside_to_json(e)
            for rep, e in zip(ring.reps, via_mobius)
        },
        "routes_agree": agree,
    }
    lines = [f"primitive idempotents of the rational Burnside ring of {lat.group.name}:"]
    for rep, e in zip(ring.reps, via_mobius):
        lines.append(f"  e[{lat.class_name_of(rep)}] = {e.render()}")
    lines.append(f"mobius and marks routes agree: {'yes' if agree else 'NO'}")
    return _report(args, data, lines, 0 if agree else 1)


def _class_rep_named(lat: SubgroupLattice, name: str) -> int:
    """The representative of the class called ``name``, or of the class of the subgroup called ``name``."""
    if name in lat.class_names:
        return lat.classes[lat.class_names.index(name)][0]
    if name in lat.subgroup_names:
        return lat.class_rep(lat.subgroup_names.index(name))
    raise UsageError(f"no class or subgroup named {name!r}")


def cmd_burnside_restrict(args) -> int:
    if args.element is not None and args.idempotent is not None:
        raise UsageError("--element and --idempotent cannot be combined")
    lat = _lattice(args)
    ring = burnside_ring(lat)
    target = lat.id_by_name(args.to)
    if args.element is not None:
        elem = burnside_from_json(_load_json("--element", args.element), ring)
    elif args.idempotent is not None:
        elem = ring.idempotent(_class_rep_named(lat, args.idempotent))
    else:
        raise UsageError("need --element JSON or --idempotent CLASS")
    down = ring.restrict(elem, target)
    return _report(args, burnside_to_json(down), [f"restriction to {args.to}: {down.render()}"])


# ---------------------------------------------------------------------------
# mackey commands
# ---------------------------------------------------------------------------


def cmd_mackey_new(args) -> int:
    if args.dim is not None and args.dim < 0:
        raise UsageError(f"--dim must be at least 0, not {args.dim}")
    free = args.kind == "free"
    reads_dim = args.kind in ("constant", "coconstant") or free and args.module != "regular"
    for flag, value, read in (("--dim", args.dim, reads_dim), ("--at", args.at, free), ("--module", args.module, free)):
        if value is not None and not read:  # refuse a flag this kind would ignore
            raise UsageError(f"mackey new {args.kind} ignores {flag}" + (" with --module regular" if free else ""))
    dim = 1 if args.dim is None else args.dim
    lat = _lattice(args)
    if args.kind in _FUNCTOR_KINDS:
        M = _FUNCTOR_KINDS[args.kind](lat, dim)
    elif not args.at:
        raise UsageError("free functors need --at CLASS")
    else:
        h = _class_rep_named(lat, args.at)
        W = lat.weyl(h).group
        V = WModule.regular(W) if args.module == "regular" else WModule.trivial(W, dim)
        M = free_functor(lat, h, V)
    payload = dump(functor_to_json(M))
    if args.save:
        ws = workspace_dir()
        if not ws:
            raise UsageError("--save needs MACKEY_WORKSPACE to be set")
        path = os.path.join(ws, "functors", f"{args.save}.json")
        _write(path, payload + "\n", makedirs=True)
        _emit(args, f"saved functor as {path}")
    else:
        _emit(args, payload)
    return 0


def cmd_mackey_check(args) -> int:
    M = resolve_functor(args.functor, args.cap)
    report = check_axioms(M)
    data = {
        "functor": M.name,
        "ok": report.ok,
        "violations": [{"axiom": v.axiom, "detail": v.detail} for v in report.violations],
        "checked": report.checked,
    }
    if report.ok:
        lines = [f"{M.name}: all axioms hold"]
    else:
        lines = [f"{M.name}: {len(report.violations)} violation(s)"]
        lines += [f"  {v}" for v in report.violations]
    return _report(args, data, lines, 0 if report.ok else 1)


def cmd_mackey_split(args) -> int:
    M = resolve_functor(args.functor, args.cap)
    _require_mackey(args.functor, M)
    lat = M.lattice
    pieces = {}
    lines = [f"splitting of {M.name} into Weyl-group modules:"]
    for h, V in split(M).modules.items():
        actions = [matrix_to_json(m) for m in V.gen_matrices]
        pieces[lat.class_name_of(h)] = {
            "dim": V.dim,
            "weyl_order": V.group.order,
            "action": {
                str(s): rows
                for s, rows in zip(V.group.gens, actions)
            },
        }
        lines.append(f"  class {lat.class_name_of(h)}: dim {V.dim} over a Weyl group of order {V.group.order}")
        for s, rows in zip(V.group.gens, actions):
            if V.dim:
                text = "; ".join(" ".join(row) for row in rows)
                lines.append(f"    action of generator {V.group.elem_name(s)}: [{text}]")
    return _report(args, {"functor": M.name, "pieces": pieces}, lines)


def cmd_mackey_classify(args) -> int:
    M = resolve_functor(args.functor, args.cap)
    _require_mackey(args.functor, M)
    lat = M.lattice
    try:
        S = split(M)
        iso = classify_iso(M)
    except MackeyError as exc:
        return _report(args, {"functor": M.name, "certified": False, "error": str(exc)}, [f"classification FAILED: {exc}"], 1)
    modules = S.modules
    data = {
        "functor": M.name,
        "levels": {lat.name(h): M.dims[h] for h in range(len(lat))},
        "pieces": {
            lat.class_name_of(h): V.dim for h, V in modules.items()
        },
        "certified": True,
    }
    lines = [f"{M.name} splits as a sum of free pieces:"]
    for h, V in modules.items():
        if V.dim:
            lines.append(f"  class {lat.class_name_of(h)}: module of dimension {V.dim}")
    lines.append("comparison morphism is invertible at every level")
    if args.certify:
        ranks = [iso.maps[h].rank() for h in range(len(lat))]
        data["certificates"] = {
            lat.name(h): f"rank {ranks[h]} of {M.dims[h]}" for h in range(len(lat))
        }
        for h in range(len(lat)):
            lines.append(f"  level {lat.name(h)}: square of size {iso.maps[h].rows}, rank {ranks[h]}")
    return _report(args, data, lines)


def cmd_mackey_box(args) -> int:
    M = resolve_functor(args.a, args.cap)
    N = resolve_functor(args.b, args.cap)
    try:
        N = rebase(N, M.lattice)
    except MackeyError:
        raise UsageError(f"cannot box functors over different groups ({M.group.name} and {N.group.name})") from None
    _require_mackey(args.a, M)
    _require_mackey(args.b, N)
    B = box(M, N)
    payload = dump(functor_to_json(B))
    if args.out:
        _write(args.out, payload + "\n")
        sys.stdout.write(f"box product written to {args.out}\n")
    else:
        sys.stdout.write(payload + "\n")
    return 0


def cmd_mackey_green_check(args) -> int:
    M = resolve_functor(args.functor, args.cap)
    lat = M.lattice
    if args.mult == "burnside":
        B = burnside_green(lat)
        mult, unit = B.mult, B.unit  # checked on M as the base, which need not be the Burnside functor
    else:
        doc = _load_json(args.mult)
        tables = [doc.get(key, {}) if isinstance(doc, dict) else None for key in ("mult", "unit")]
        if not all(isinstance(table, dict) for table in tables):
            raise UsageError("multiplication data must hold 'mult' and 'unit' objects keyed by level")
        names = {lat.name(h) for h in range(len(lat))}
        for field, table in zip(("mult", "unit"), tables):
            if unknown := set(table) - names:
                raise UsageError(f"unknown {field} level {min(unknown)!r}")
        mult, unit = {}, {}
        for h in range(len(lat)):
            name = lat.name(h)
            if any(name not in table for table in tables):
                raise UsageError(f"multiplication data missing level {name}")
            d = M.dims[h]
            mult[h] = matrix_from_json(tables[0][name], (d, d * d))
            unit[h] = matrix_from_json(tables[1][name], (d, 1))
    report = green_check(GreenStructure(M, mult, unit))
    data = {
        "ok": report.ok,
        "commutative": report.commutative,
        "violations": [{"rule": n, "at": d} for n, d in report.violations],
        "checked": report.checked,
    }
    if report.ok:
        lines = [f"green structure on {M.name} verified (commutative: {'yes' if report.commutative else 'no'})"]
    else:
        lines = [f"green check FAILED for {M.name}:"]
        lines += [f"  [{n}] at {d}" for n, d in report.violations]
    return _report(args, data, lines, 0 if report.ok else 1)


def cmd_mackey_lewis(args) -> int:
    M = resolve_functor(args.functor, args.cap)
    if _fmt(args) == "dot":
        _emit(args, lewis_dot(M))
        return 0
    lat = M.lattice
    lines = [f"levels of {M.name}:"]
    for h in lat.class_reps():
        w = lat.weyl(h).group.order
        lines.append(f"  {lat.class_name_of(h)}: dim {M.dims[h]} (Weyl order {w})")
    _emit(args, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# demos
# ---------------------------------------------------------------------------


def _demo_c6(out) -> int:
    G = grp.cyclic(6)
    lat = SubgroupLattice(G)
    ids = {lat.name(h): h for h in range(len(lat))}
    ring = burnside_ring(lat)
    b = {n: ring.basis(ids[n]) for n in ("C1", "C2", "C3", "C6")}
    w = out.append
    w("=== the rational Burnside ring of the cyclic group of order 6 ===")
    w("")
    w("products of the orbit classes:")
    pairs = [("C1", "C1"), ("C1", "C3"), ("C1", "C2"), ("C3", "C3"), ("C2", "C3"), ("C2", "C2")]
    for x, y in pairs:
        w(f"  [C6/{x}] * [C6/{y}] = {(b[x] * b[y]).render()}")
    w("")
    w("orthogonal idempotent decomposition of the unit:")
    for n in ("C1", "C2", "C3", "C6"):
        w(f"  e[{n}] = {ring.idempotent(ids[n]).render()}")
    es = ring.idempotents()
    total = ring.zero()
    for e in es:
        total = total + e
    w(f"  sum of idempotents equals the unit: {'yes' if total == ring.unit() else 'NO'}")
    orth = all((es[i] * es[j]).is_zero() for i in range(4) for j in range(4) if i != j)
    w(f"  pairwise products vanish: {'yes' if orth else 'NO'}")
    squares = all(e * e == e for e in es)
    w(f"  each is idempotent: {'yes' if squares else 'NO'}")
    agree = es == ring.idempotents_via_marks()
    w(f"  mobius formula agrees with marks inversion: {'yes' if agree else 'NO'}")
    w("")
    w("restriction to the subgroup of order 3:")
    sub3 = burnside_ring(lat, ids["C3"])
    w(f"  [C6/C3] restricts to {ring.restrict(b['C3'], ids['C3']).render()}")
    down = ring.restrict(ring.idempotent(ids["C3"]), ids["C3"])
    w(f"  e[C3] restricts to {down.render()}")
    w(f"    which equals e[C3] of the subring: {'yes' if down == sub3.idempotent(ids['C3']) else 'NO'}")
    w(f"  e[C2] restricts to {ring.restrict(ring.idempotent(ids['C2']), ids['C3']).render()}")
    w("")
    w("=== the Burnside Mackey functor and its splitting ===")
    w("")
    A = burnside_mackey(lat)
    dims = " ".join(f"{lat.name(h)}:{A.dims[h]}" for h in range(len(lat)))
    w(f"  level dimensions: {dims}")
    w(f"  axioms verified: {'yes' if check_axioms(A).ok else 'NO'}")
    S = split(A)
    piece = " ".join(f"{lat.class_name_of(h)}:{V.dim}" for h, V in S.modules.items())
    w(f"  class modules: {piece}")
    iso = classify_iso(A)
    w(f"  comparison onto the sum of free pieces is invertible: {'yes' if iso.is_levelwise_iso() else 'NO'}")
    w("")
    w("free functors on the trivial line (level dims, restriction, induction):")
    for n in ("C6", "C3", "C2", "C1"):
        h = ids[n]
        W = lat.weyl(h).group
        F = free_functor(lat, h, WModule.trivial(W, 1))
        dd = " ".join(f"{lat.name(k)}:{F.dims[k]}" for k in range(len(lat)))
        w(f"  F[{n}]: {dd}")
        for k in lat.subgroups_of(ids["C6"]):
            if k != ids["C6"] and F.dims[k] == 1 and F.dims[ids["C6"]] == 1:
                r = F.res[(ids["C6"], k)].entry(0, 0)
                i = F.ind[(ids["C6"], k)].entry(0, 0)
                w(f"      restriction C6>{lat.name(k)} = {frac_to_str(r)}, induction {lat.name(k)}<C6 = {frac_to_str(i)}")
    w("")
    w("free functor on the regular module at the order-3 class:")
    W3 = lat.weyl(ids["C3"]).group
    F3r = free_functor(lat, ids["C3"], WModule.regular(W3))
    dd = " ".join(f"{lat.name(k)}:{F3r.dims[k]}" for k in range(len(lat)))
    w(f"  dims: {dd}")
    rmat = F3r.res[(ids["C6"], ids["C3"])]
    imat = F3r.ind[(ids["C6"], ids["C3"])]
    w(f"  restriction C6>C3 columns: {matrix_to_json(rmat)}  (fixed-vector inclusion)")
    w(f"  induction C3<C6 rows: {matrix_to_json(imat)}  (augmentation)")
    w("")
    w("double-coset consequence on every built functor:")
    W2 = lat.weyl(ids["C2"]).group
    tests = [
        ("burnside", A),
        ("constant", constant(lat, 1)),
        ("coconstant", coconstant(lat, 1)),
        ("free at C2", free_functor(lat, ids["C2"], WModule.trivial(W2, 1))),
        ("fixed points of the regular module", fp_functor(lat, WModule.regular(G))),
    ]
    for name, M in tests:
        lhs = M.res[(ids["C6"], ids["C3"])].matmul(M.ind[(ids["C6"], ids["C2"])])
        rhs = M.ind[(ids["C3"], ids["C1"])].matmul(M.res[(ids["C2"], ids["C1"])])
        w(f"  R(C6>C3) o I(C2<C6) == I(C1<C3) o R(C2>C1) on {name}: {'yes' if lhs == rhs else 'NO'}")
    return 0


def _demo_s4(out) -> int:
    G = grp.symmetric(4)
    lat = SubgroupLattice(G)
    w = out.append
    k = lat.subgroup_id(G.closure([G.elem_names.index("(1 2)")]))
    h = lat.normalizers[k]
    w("=== diagonal decomposition inside the symmetric group on four letters ===")
    w("")
    w(f"K = subgroup generated by (1 2), named {lat.name(k)}")
    w(f"H = normalizer of K, named {lat.name(h)}, order {lat.order(h)}")
    W = lat.weyl(k)
    w(f"Weyl group of K has order {W.group.order}")
    fixed_kk = lat.fixed_cosets(k, k)
    fixed_hk = lat.fixed_cosets(h, k)
    w(f"K-fixed cosets of G/K: {len(fixed_kk)} (reps {list(fixed_kk)})")
    w(f"K-fixed cosets of G/H: {len(fixed_hk)} (reps {list(fixed_hk)})")
    w("")
    V = WModule.regular(W.group)
    F = free_functor(lat, k, V)
    w(f"free functor on the regular Weyl module: dim at G/K = {F.dims[k]}, dim at G/H = {F.dims[h]}")
    IR = F.ind[(h, k)].matmul(F.res[(h, k)])
    w(f"rank of induction-after-restriction at G/H: {IR.rank()}  (a single line survives)")
    rep = diagonal_check(F, k, h)
    w(
        f"upper piece dim {rep.dim_upper}, Weyl-fixed lower piece dim {rep.dim_fixed}, "
        f"restriction-induced map invertible: {'yes' if rep.ok else 'NO'}"
    )
    w("")
    w("the same identity across every subgroup pair of the lattice:")
    ok = True
    pairs = 0
    for hh in range(len(lat)):
        for kk in lat.subgroups_of(hh):
            pairs += 1
            if not diagonal_check(F, kk, hh).ok:
                ok = False
    w(f"  checked {pairs} pairs: {'all pass' if ok else 'FAILURES FOUND'}")
    return 0 if ok and rep.ok else 1


def _demo_cp3(out) -> int:
    G = grp.cyclic(8)
    lat = SubgroupLattice(G)
    w = out.append
    w("=== the cyclic 2-group tower of order 8 ===")
    w("")
    names = [lat.name(h) for h in range(len(lat))]
    w(f"subgroup tower: {' < '.join(names)}")
    modules = {}
    for h in lat.class_reps():
        W = lat.weyl(h).group
        modules[h] = WModule.regular(W)
    M = assemble(SplitData(lat, modules), name="tower")
    dims = " ".join(f"{lat.name(h)}:{M.dims[h]}" for h in range(len(lat)))
    w(f"assembled functor from regular Weyl modules at every class, level dims: {dims}")
    w("")
    w("each level decomposes into Weyl-fixed pieces of the lower local modules:")
    ok = True
    for h in range(len(lat)):
        parts = []
        total = 0
        for k in lat.subgroups_of(h):
            rep = diagonal_check(M, k, h)
            ok = ok and rep.ok
            total += rep.dim_fixed
            parts.append(f"{rep.dim_fixed} from {lat.name(k)}")
        w(f"  dim at {lat.name(h)} = {M.dims[h]} = {' + '.join(parts)}  (sum {total})")
        ok = ok and total == M.dims[h]
    w("")
    w(f"all decomposition maps certified: {'yes' if ok else 'NO'}")
    return 0 if ok else 1


_DEMOS = {"c6": _demo_c6, "s4": _demo_s4, "cp3": _demo_cp3}


def cmd_demo(args) -> int:
    out: list[str] = []
    code = _DEMOS[args.which](out)
    _emit(args, "\n".join(out))
    return code


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change it."""
    p = argparse.ArgumentParser(prog="qmackey", description=__doc__)
    p.add_argument("--cap", type=int, default=grp.DEFAULT_ORDER_CAP, help="largest allowed group order")
    p.add_argument("--pretty", action="store_true", help="prefer human-readable tables")
    p.add_argument("--out", help="write output to a file instead of stdout")
    p.add_argument("--format", choices=["text", "json", "dot"], help="output form (default json)")
    # the same flags after the subcommand; suppressed defaults keep the values given before it
    flags = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    flags.add_argument("--cap", type=int, help="largest allowed group order")
    flags.add_argument("--pretty", action="store_true", help="prefer human-readable tables")
    flags.add_argument("--out", help="write output to a file instead of stdout")
    flags.add_argument("--format", choices=["text", "json", "dot"])
    sub = p.add_subparsers(dest="command", required=True)

    def leaf(subs, name, func, **kwargs):
        sp = subs.add_parser(name, parents=[flags], **kwargs)
        sp.set_defaults(func=func)
        return sp

    g = sub.add_parser("group", help="inspect a finite group")
    gsub = g.add_subparsers(dest="subcommand", required=True)
    leaf(gsub, "info", cmd_group_info).add_argument("group")
    leaf(gsub, "subgroups", cmd_group_subgroups).add_argument("group")

    b = sub.add_parser("burnside", help="rational Burnside ring computations")
    bsub = b.add_subparsers(dest="subcommand", required=True)
    leaf(bsub, "table", cmd_burnside_table).add_argument("group")
    leaf(bsub, "idempotents", cmd_burnside_idempotents).add_argument("group")
    br = leaf(bsub, "restrict", cmd_burnside_restrict)
    br.add_argument("group")
    br.add_argument("--to", required=True, help="target subgroup name")
    br.add_argument("--element", help="element as JSON of class coefficients")
    br.add_argument("--idempotent", help="restrict the idempotent of this class: a class name (C2) or a subgroup name (C2.0)")

    m = sub.add_parser("mackey", help="Mackey functor operations")
    msub = m.add_subparsers(dest="subcommand", required=True)
    mn = leaf(msub, "new", cmd_mackey_new)
    mn.add_argument("kind", choices=[*_FUNCTOR_KINDS, "free"])
    mn.add_argument("--group", required=True)
    mn.add_argument("--dim", type=int, help="dimension of a constant, coconstant or trivial-module free functor (default 1)")
    mn.add_argument("--at", help="class of a free functor: a class name (C2) or a subgroup name (C2.0)")
    mn.add_argument("--module", choices=["trivial", "regular"], help="Weyl-group module of a free functor (default trivial)")
    mn.add_argument("--save", help="store under this name in the workspace")
    leaf(msub, "check", cmd_mackey_check).add_argument("functor")
    leaf(msub, "split", cmd_mackey_split).add_argument("functor")
    mcl = leaf(msub, "classify", cmd_mackey_classify)
    mcl.add_argument("functor")
    mcl.add_argument("--certify", action="store_true")
    mb = leaf(msub, "box", cmd_mackey_box)
    mb.add_argument("a")
    mb.add_argument("b")
    mg = leaf(msub, "green-check", cmd_mackey_green_check)
    mg.add_argument("functor")
    mg.add_argument("mult", help="multiplication data JSON, or 'burnside'")
    ml = leaf(msub, "lewis", cmd_mackey_lewis)
    ml.add_argument("functor")
    ml.add_argument("--dot", dest="format", action="store_const", const="dot", default=argparse.SUPPRESS, help="--format dot")

    d = leaf(sub, "demo", cmd_demo, help="regenerate the worked examples")
    d.add_argument("which", choices=_DEMOS)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_format(args)
        return args.func(args)
    except (UsageError, FormatError, GroupError, CapExceeded, BurnsideError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (MackeyError, LinAlgError) as exc:
        sys.stderr.write(f"verification error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
