"""The benchmark's four workloads: inputs made from a seed, and one check per job.

``setup(workload, seed, workdir)`` builds one round of jobs.  A job is one
user-level request together with the check of its answer; calling it returns
``OK``, ``KNOWN`` (``certify_iso`` found no certificate for one of the
repeated-summand pairs of ROADMAP item 4a, a documented defect), ``FAILED``
(the program gave no answer: it raised, refused the input or could not
certify) or ``WRONG`` (the program gave a definite answer that contradicts
what the benchmark knows to be true).  Every expected answer comes from
mathematics the benchmark states itself, never from a second call into the
program; a morphism the program returns is checked here, by exact products
of its components with the structure maps, not by the program's own
``validate``.

Library calls go through module attributes (``classify.split`` and so on) so
that the traced run sees them.

Why each workload exists:

- ``verify``: in-process ``qmackey.cli.main`` calls of ``mackey check`` on
  functor JSON written during set-up, and ``mackey green-check``.  The large
  checks spend their time in ``QMatrix.matmul`` without elimination; the small
  ones in the CLI, JSON parsing and lattice rebuilds.
- ``classify``: split / assemble / classify_iso / certify_iso on functors of
  level dimension at most 4: thousands of calls on tiny matrices, where
  per-call overhead dominates.
- ``box``: ``box(A, A)`` and the certified unit law, dominated by relation
  building and ``quotient_space`` / ``rref`` on relation matrices with 100+
  columns.
- ``lattice``: group loading, subgroup lattices, Burnside rings and both
  idempotent routes, including ``inverse`` on tables of marks up to 67x67.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from qmackey import burnside, classify, cli, groups, linalg, mackey, monoidal, serialize

OK, KNOWN, FAILED, WRONG = "ok", "known-4a", "failed", "wrong"

# Permutation generators (cycle notation, 1-based) and known subgroup counts.
GROUP_SPECS = {
    "C2": (["(1 2)"], 2),
    "C3": (["(1 2 3)"], 2),
    "C4": (["(1 2 3 4)"], 3),
    "V4": (["(1 2)", "(3 4)"], 5),
    "C5": (["(1 2 3 4 5)"], 2),
    "C6": (["(1 2 3 4 5 6)"], 4),
    "S3": (["(1 2)", "(1 2 3)"], 6),
    "C7": (["(1 2 3 4 5 6 7)"], 2),
    "C8": (["(1 2 3 4 5 6 7 8)"], 4),
    "D8": (["(1 2 3 4)", "(2 4)"], 10),
    "Q8": (["(1 3 2 4)(5 7 6 8)", "(1 5 2 6)(3 8 4 7)"], 6),
    "A4": (["(1 2 3)", "(2 3 4)"], 10),
    "D12": (["(1 2 3 4 5 6)", "(2 6)(3 5)"], 16),
    "S4": (["(1 2)", "(1 2 3 4)"], 30),
    "D16": (["(1 2 3 4 5 6 7 8)", "(2 8)(3 7)(4 6)"], 19),
    "C2^4": (["(1 2)", "(3 4)", "(5 6)", "(7 8)"], 67),
    "C4xC4": (["(1 2 3 4)", "(5 6 7 8)"], 15),
    "C2xD8": (["(1 2 3 4)", "(2 4)", "(5 6)"], 35),
    "D24": (["(1 2 3 4 5 6 7 8 9 10 11 12)", "(2 12)(3 11)(4 10)(5 9)(6 8)"], 34),
    "S3xS3": (["(1 2)", "(1 2 3)", "(4 5)", "(4 5 6)"], 60),
    "C2xS4": (["(1 2)", "(1 2 3 4)", "(5 6)"], 98),
}

CORPUS = ("C2", "C3", "C6", "C8", "S3", "D8", "Q8", "A4", "D12", "S4")
SMALL = ("C2", "C3", "C6", "C8", "S3", "D8", "Q8")  # the corpus groups of order <= 8
BOX_GROUPS = ("C2", "C3", "C4", "V4", "C5", "C6", "S3", "C7", "C8", "Q8")
LATTICE_GROUPS = CORPUS + ("D16", "C2^4", "C4xC4", "C2xD8", "D24", "S3xS3", "C2xS4")

# Split-data shapes of the classify panel come from this fixed seed, so that
# every --seed runs the same mix of shapes and job costs; --seed draws the
# basis changes that scramble each functor and its certify partner.
CLASSIFY_PANEL_SEED = 20040156
CLASSIFY_PANEL = 5  # functors per corpus group
LEVEL_CAP = 4

# ROADMAP item 4a: V = R + R over C2, conjugated by this integer matrix.
WITNESS_T = [[1, 1, 1, 1], [-1, 0, -2, -3], [2, 0, 5, 7], [0, -2, 3, 6]]


@dataclass
class Job:
    """One request: ``check(expected)`` runs it and grades the answer."""

    name: str
    check: Callable[[Any], str]
    expected: Any

    def __call__(self) -> str:
        return self.check(self.expected)


@dataclass
class Round:
    jobs: list[Job]
    digest: str  # sha256 of the canonical inputs the jobs receive


def setup(workload: str, seed: int, workdir: str, groups_: tuple[str, ...] | None = None) -> Round:
    """One round of the workload's jobs, built from ``seed`` alone."""
    build = {"verify": _verify, "classify": _classify, "box": _box, "lattice": _lattice}[workload]
    rng = random.Random(seed)
    jobs, inputs = build(rng, workdir, groups_)
    order = list(range(len(jobs)))
    rng.shuffle(order)
    digest = hashlib.sha256()
    for item in inputs:
        digest.update(item.encode())
        digest.update(b"\0")
    return Round([jobs[i] for i in order], digest.hexdigest())


# -- shared input helpers -------------------------------------------------------


def relabelled_spec(name: str, rng: random.Random) -> dict:
    """The group as permutation generators, with points renamed at random."""
    gens, _ = GROUP_SPECS[name]
    degree = max(int(p) for g in gens for p in g.replace("(", " ").replace(")", " ").split())
    image = list(range(1, degree + 1))
    rng.shuffle(image)

    def rename(cycles: str) -> str:
        parts = cycles.replace("(", " ( ").replace(")", " ) ").split()
        out = []
        for tok in parts:
            out.append(tok if tok in "()" else str(image[int(tok) - 1]))
        return " ".join(out).replace("( ", "(").replace(" )", ")")

    new = [rename(g) for g in gens]
    rng.shuffle(new)
    return {"name": name, "degree": degree, "generators": new}


def functor_text(M) -> str:
    """A canonical text of every structure map, for the input digest."""
    parts = [repr(M.dims)]
    for table in (M.res, M.ind, M.cgen):
        for key in sorted(table):
            parts.append(f"{key}:{table[key].data}")
    return "|".join(parts)


# -- verify ---------------------------------------------------------------------


def _verify(rng, workdir, groups_):
    """Axiom checks through the CLI on the criterion-8 family, corruptions and Green checks.

    Every corpus group gets the Burnside, constant and co-constant (dim 2)
    functors.  The groups of order <= 8 also get fixed points and
    coinvariants of the regular module, the dual of the Burnside functor,
    its part cut out by every primitive idempotent, seeded JSON corruptions
    of every kind in both the constant and the co-constant functor, and a
    Green check of the Burnside ring.  The seed changes where corruptions
    go, by how much, and the job order, not the mix of job sizes: a seeded
    mix moved the median job time by 10% from seed to seed.  Criterion 8
    also covers those extra functors for A4 and D12; they are left out to keep
    a round near 15 s (D12 fixed points alone take about 6.6 s).
    """
    corpus = groups.corpus()
    jobs, inputs = [], []
    for name in groups_ or CORPUS:
        G = corpus[name]
        lat = groups.SubgroupLattice(G)
        family = [mackey.burnside_mackey(lat), mackey.constant(lat, 1), mackey.coconstant(lat, 2)]
        if name in SMALL:
            R = linalg.WModule.regular(G)
            ring = burnside.burnside_ring(lat)
            family += [
                mackey.fp_functor(lat, R),
                mackey.fq_functor(lat, R),
                mackey.dual(mackey.burnside_mackey(lat)),
            ]
            family += [mackey.idempotent_part(family[0], ring.idempotent(k), name=f"e{j}A") for j, k in enumerate(ring.reps)]
        for i, M in enumerate(family):
            data = serialize.functor_to_json(M)
            jobs.append(_cli_check_job(workdir, f"{name}-{i}-{M.name}", data, (0, None), inputs))
        if name in SMALL:
            for kind in CORRUPTIONS:
                for label, base in (("const", family[1]), ("coconst", family[2])):
                    data = serialize.functor_to_json(base)
                    if corrupt(data, lat, kind, base is family[1], rng):
                        jobs.append(_cli_check_job(workdir, f"{name}-bad-{kind}-{label}", data, (1, kind), inputs))
            out = os.path.join(workdir, f"{name}-green.out.json")
            argv = ["--out", out, "mackey", "green-check", f"burnside:{name.lower()}", "burnside"]
            inputs.append(" ".join(argv[2:]))
            jobs.append(Job(f"{name}-green", _cli_checker(argv, out), (0, None)))
    return jobs, inputs


def _cli_check_job(workdir, label, data, expected, inputs):
    path = os.path.join(workdir, f"{label}.json")
    text = json.dumps(data, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text)
    inputs.append(text)
    out = os.path.join(workdir, f"{label}.out.json")
    return Job(label, _cli_checker(["--out", out, "mackey", "check", path], out), expected)


def _cli_checker(argv, out):
    """Run the CLI; expected is (exit code, axiom the report must name or None)."""

    def check(expected):
        code, axiom = expected
        if os.path.exists(out):  # a report left by an earlier round must not be read
            os.remove(out)
        rc = cli.main(argv)
        if rc == 2:
            return FAILED
        if rc != code:
            return WRONG
        with open(out) as fh:
            report = json.load(fh)
        if code == 0:
            return OK if report["ok"] and not report["violations"] else WRONG
        named = {v["axiom"] for v in report["violations"]}
        return OK if not report["ok"] and axiom in named else WRONG

    return check


CORRUPTIONS = (
    "double-coset",
    "restriction-transitivity",
    "identity-restriction",
    "identity-induction",
    "inner-conjugation",
)


def corrupt(data: dict, lat, kind: str, constant: bool, rng: random.Random) -> bool:
    """Break ``data`` (a constant functor, else a co-constant one) so that ``kind`` fails.

    Both functors have scalar structure maps that are never zero, which is
    what each argument below uses.  Returns False when the lattice has no
    place for the corruption (transitivity needs a subgroup strictly between
    the bottom and the top).
    """
    top = lat.name(lat.top)
    delta = rng.choice((Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3)))
    if kind == "double-coset":
        # R^G_1 I^G_1 must be the sum over |G| double cosets, i.e. |G| times
        # the identity; making every R (co-constant) or every I (constant)
        # the identity leaves R I = I.
        table = "induction" if constant else "restriction"
        for key, mat in data[table].items():
            data[table][key] = _identity(len(mat))
        return True
    if kind == "restriction-transitivity":
        # R^M_1 R^G_M = R^G_1 with all three invertible scalars; perturbing
        # R^G_M alone breaks the equation.
        mids = [h for h in lat.subgroups_of(lat.top) if h not in (lat.top, lat.bottom)]
        if not mids:
            return False
        _perturb(data["restriction"], f"{top}>{lat.name(rng.choice(mids))}", delta, rng)
        return True
    if kind == "identity-restriction":
        h = lat.name(rng.randrange(len(lat)))
        _perturb(data["restriction"], f"{h}>{h}", delta, rng)
        return True
    if kind == "identity-induction":
        h = lat.name(rng.randrange(len(lat)))
        _perturb(data["induction"], f"{h}<{h}", delta, rng)
        return True
    if kind == "inner-conjugation":
        # C_s on level H must be the identity for every generator s in H.
        G = lat.group
        choices = [(s, h) for h in range(len(lat)) for s in G.gens if s in lat.elements(h)]
        s, h = rng.choice(choices)
        _perturb(data["conjugation"], f"{s}@{lat.name(h)}", delta, rng)
        return True
    raise ValueError(kind)


def _identity(n):
    return [["1" if i == j else "0" for j in range(n)] for i in range(n)]


def _perturb(table, key, delta, rng):
    mat = table[key]
    i, j = rng.randrange(len(mat)), rng.randrange(len(mat[0]))
    mat[i][j] = serialize.frac_to_str(Fraction(mat[i][j]) + delta)


# -- classify -------------------------------------------------------------------


def _classify(rng, workdir, groups_):
    """Round trips on a fixed panel of split-data shapes, scrambled by the seed.

    Also the pairs with repeated Weyl summands of ROADMAP item 4a: the free
    functor on V = R + R over C2 against V conjugated by the witness matrix
    and by a seeded one, and seeded conjugates for R + R over C3 and for the
    regular module of S3 (whose 2-dimensional irreducible appears twice).
    """
    names = groups_ or CORPUS
    per_group = CLASSIFY_PANEL if groups_ is None else 1
    lats = {name: groups.SubgroupLattice(groups.corpus()[name]) for name in names}
    jobs, inputs = [], []
    for name in names:
        lat = lats[name]
        panel = random.Random(f"{CLASSIFY_PANEL_SEED}-{name}")
        for i in range(per_group):
            S = classify.random_split_data(lat, panel, LEVEL_CAP)
            M0 = classify.assemble(S)
            M = mackey.basis_change(M0, [classify.random_invertible(d, rng) for d in M0.dims], name="random")
            N = mackey.basis_change(M, [classify.random_invertible(d, rng) for d in M.dims])
            expected = ({h: V.dim for h, V in S.modules.items() if V.dim}, M.dims)
            inputs += [functor_text(M), functor_text(N)]
            jobs.append(Job(f"{name}-{i}", _classify_check(M, N), expected))
    repeated = [("C2", 2, WITNESS_T), ("C2", 2, None), ("C3", 2, None), ("S3", 1, None)]
    for name, copies, T in repeated:
        if name not in lats:
            continue
        lat = lats[name]
        R = linalg.WModule.regular(lat.group)
        V = R
        for _ in range(copies - 1):
            V = V.direct_sum(R)
        T = linalg.QMatrix(T) if T is not None else classify.random_invertible(V.dim, rng)
        M = classify.free_functor(lat, lat.bottom, V)
        N = classify.free_functor(lat, lat.bottom, V.conjugated(T))
        expected = ({lat.bottom: V.dim}, M.dims)
        inputs += [functor_text(M), functor_text(N)]
        jobs.append(Job(f"{name}-repeated-{copies}R", _classify_check(M, N, known_defect=True), expected))
    return jobs, inputs


def _classify_check(M, N, known_defect=False):
    """expected = (nonzero Weyl-module dims by class, level dims of M).

    N is a basis change of M, so the two are isomorphic: a ``None`` from
    ``certify_iso`` is a failure to certify a true isomorphism (``KNOWN`` on
    the repeated-summand pairs, ``FAILED`` elsewhere).
    """

    def check(expected):
        split_dims, dims = expected
        S = classify.split(M)
        if {h: V.dim for h, V in S.modules.items() if V.dim} != split_dims:
            return WRONG
        if classify.assemble(S).dims != dims:
            return WRONG
        to_free = classify.classify_iso(M)
        if to_free.source is not M or not is_iso(to_free, M, to_free.target):
            return WRONG
        iso = classify.certify_iso(M, N)
        if iso is None:
            return KNOWN if known_defect else FAILED
        return OK if iso.source is M and iso.target is N and is_iso(iso, M, N) else WRONG

    return check


# -- independent check of a returned morphism ------------------------------------

P = (1 << 61) - 1  # a prime; full rank modulo P implies full rank over Q
check_seconds = 0.0  # time spent in is_iso, so the traced run can set it apart


def is_iso(f, M, N) -> bool:
    """True when f: M -> N commutes with R, I and C and is invertible at every level.

    Commutation is checked on cover pairs and generator conjugations, which
    suffices when M and N satisfy the axioms, with exact sparse products of
    the components; invertibility by elimination modulo P, falling back to
    exact elimination when that is inconclusive.
    """
    global check_seconds
    t0 = time.perf_counter()
    try:
        return _is_iso(f, M, N)
    finally:
        check_seconds += time.perf_counter() - t0


def _is_iso(f, M, N) -> bool:
    lat = M.lattice
    if N.lattice is not lat or len(f.maps) != len(lat):
        return False
    for m, d, e in zip(f.maps, M.dims, N.dims):
        if (m.rows, m.cols) != (e, d) or d != e:
            return False
    sparse = {}

    def rows(m):
        if id(m) not in sparse:
            sparse[id(m)] = (m, [{j: x for j, x in enumerate(m.row(i)) if x} for i in range(m.rows)])
        return sparse[id(m)][1]

    def product(a, b):
        out = []
        for row in rows(a):
            acc = {}
            for k, x in row.items():
                for j, y in rows(b)[k].items():
                    acc[j] = acc.get(j, 0) + x * y
            out.append({j: v for j, v in acc.items() if v})
        return out

    F = f.maps
    for h, k in lat.cover_pairs():
        if product(F[k], M.res[(h, k)]) != product(N.res[(h, k)], F[h]):
            return False
        if product(F[h], M.ind[(h, k)]) != product(N.ind[(h, k)], F[k]):
            return False
    for pos, s in enumerate(lat.group.gens):
        for h in range(len(lat)):
            t = lat.conjugate(s, h)
            if product(F[t], M.cgen[(pos, h)]) != product(N.cgen[(pos, h)], F[h]):
                return False
    return all(_invertible([list(m.row(i)) for i in range(m.rows)]) for m in F)


def _invertible(rows) -> bool:
    """Whether a square matrix of Fractions is invertible."""
    if all(x.denominator % P for row in rows for x in row):
        if _full_rank([[x.numerator * pow(x.denominator, -1, P) % P for x in row] for row in rows], None):
            return True
    return _full_rank([[Fraction(x) for x in row] for row in rows], Fraction)


def _full_rank(rows, field) -> bool:
    """Gaussian elimination over Q (field=Fraction) or modulo P (field=None)."""
    rows = [list(row) for row in rows]
    n = len(rows)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            return False
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = Fraction(1) / rows[c][c] if field else pow(rows[c][c], -1, P)
        for r in range(c + 1, n):
            x = rows[r][c]
            if x:
                factor = x * inv if field else x * inv % P
                row_c, row_r = rows[c], rows[r]
                for j in range(c, n):
                    if row_c[j]:
                        row_r[j] = row_r[j] - factor * row_c[j] if field else (row_r[j] - factor * row_c[j]) % P
    return True


# -- box ------------------------------------------------------------------------


def _box(rng, workdir, groups_):
    """box(A, A) with A the Burnside functor (the unit, so A's dims come back),
    and, at every class H, building F = F_H(V) for V trivial of dimension 1
    and 2 and regular, and certifying the unit iso box(A, F) -> F.  The
    expected level dimensions of F come from the character count, independent
    of the construction.  The dimension-2 modules fill the job-time range
    around the tail percentile, which without them fell in a 30% gap between
    two jobs."""
    jobs, inputs = [], []
    for name in groups_ or BOX_GROUPS:
        spec = relabelled_spec(name, rng)
        inputs.append(json.dumps(spec, sort_keys=True))
        lat = groups.SubgroupLattice(groups.load_group(spec))
        A = mackey.burnside_mackey(lat)
        jobs.append(Job(f"{name}-AA", _box_check(A), A.dims))
        for h in lat.class_reps():
            W = lat.weyl(h).group
            modules = (
                ("triv", linalg.WModule.trivial(W, 1)),
                ("triv2", linalg.WModule.trivial(W, 2)),
                ("reg", linalg.WModule.regular(W)),
            )
            for label, V in modules:
                dims = classify.free_level_dims(lat, h, V)
                jobs.append(Job(f"{name}-unit-{lat.name(h)}-{label}", _unit_check(lat, h, V), dims))
    return jobs, inputs


def _box_check(A):
    def check(expected):
        return OK if monoidal.box(A, A).dims == expected else WRONG

    return check


def _unit_check(lat, h, V):
    def check(expected):
        F = classify.free_functor(lat, h, V)
        if F.dims != expected:
            return WRONG
        iso = monoidal.box_unit_iso(F)
        if iso.target is not F or iso.source.dims != expected:
            return WRONG
        return OK if is_iso(iso, iso.source, F) else WRONG

    return check


# -- lattice --------------------------------------------------------------------


def _lattice(rng, workdir, groups_):
    """Load, enumerate subgroups, build the Burnside ring, both idempotent routes."""
    jobs, inputs = [], []
    for name in groups_ or LATTICE_GROUPS:
        spec = relabelled_spec(name, rng)
        inputs.append(json.dumps(spec, sort_keys=True))
        jobs.append(Job(name, _lattice_check(spec), GROUP_SPECS[name][1]))
    return jobs, inputs


def _lattice_check(spec):
    """expected = the known number of subgroups."""

    def check(expected):
        lat = groups.SubgroupLattice(groups.load_group(spec))
        if len(lat) != expected:
            return WRONG
        ring = burnside.burnside_ring(lat)
        mobius = ring.idempotents()
        marks = ring.idempotents_via_marks()
        if [e.coeffs for e in mobius] != [e.coeffs for e in marks]:
            return WRONG
        return OK if all((e * e).coeffs == e.coeffs for e in mobius) else WRONG

    return check
