"""The full ordered violation lists of ``check_axioms`` and ``green_check``.

``golden/violations.json`` pins every ``(rule, detail)`` pair, in order, that
the two checkers report on the corruption fixtures of every corpus group
(with ``fail_fast`` off and on) and on a few corrupted Burnside Green
structures.  Regenerate it only from a commit whose checkers are known good.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from corruptions import all_corruptions
from qmackey.groups import SubgroupLattice, corpus
from qmackey.linalg import QMatrix, permutation_matrix
from qmackey.mackey import check_axioms
from qmackey.monoidal import GreenStructure, burnside_green, green_check

GOLDEN = Path(__file__).parent / "golden" / "violations.json"
GREEN_GROUPS = ("C2", "C6", "S3", "D8", "Q8")


def _middle(lat):
    """A subgroup strictly between the bottom and the top, else the bottom."""
    mids = [h for h in lat.subgroups_of(lat.top) if h not in (lat.top, lat.bottom)]
    return mids[0] if mids else lat.bottom


def _with_base(S, **maps):
    return GreenStructure(replace(S.base, **maps), S.mult, S.unit)


def green_corruptions(lat):
    """Named corruptions of the Burnside Green structure; each breaks a rule."""
    top, mid = lat.top, _middle(lat)
    out = {}

    S = burnside_green(lat)
    S.mult[mid] = S.mult[mid].scale(2)
    out["scaled-multiplication"] = S

    S = burnside_green(lat)
    S.unit[lat.bottom] = S.unit[lat.bottom].scale(3)
    out["scaled-unit"] = S

    # e_a * e_b := e_a e_b' for a cyclic shift ' of the basis: neither unital nor commutative
    S = burnside_green(lat)
    d = S.base.dims[top]
    S.mult[top] = S.mult[top].matmul(permutation_matrix([a * d + (b + 1) % d for a in range(d) for b in range(d)]))
    out["permuted-multiplication"] = S

    # e_(d-1) e_0 gains a term e_0 that e_0 e_(d-1) lacks: Frobenius fails on one side first
    S = burnside_green(lat)
    d = S.base.dims[mid]
    S.mult[mid] = S.mult[mid] + QMatrix([[int((t, c) == (0, (d - 1) * d)) for c in range(d * d)] for t in range(d)])
    out["one-sided-product"] = S

    S = burnside_green(lat)
    d = S.base.dims[mid]
    S.mult[mid] = QMatrix.zeros(d, d * d + 1)
    S.unit[top] = S.unit[top].scale(3)  # the level rules still run at the other levels
    out["wrong-shape"] = S

    S = burnside_green(lat)
    res = dict(S.base.res)
    res[(top, mid)] = res[(top, mid)].scale(2)
    out["scaled-restriction"] = _with_base(S, res=res)

    S = burnside_green(lat)
    cgen = dict(S.base.cgen)
    cgen[(0, top)] = cgen[(0, top)].scale(-1)
    out["negated-conjugation"] = _with_base(S, cgen=cgen)
    return out


def axiom_reports():
    out = {}
    for name, G in corpus().items():
        lat = SubgroupLattice(G)
        for M, _ in all_corruptions(lat):
            for fail_fast in (False, True):
                report = check_axioms(M, fail_fast=fail_fast)
                out[f"{name}/{M.name}/fail_fast={fail_fast}"] = [[v.axiom, v.detail] for v in report.violations]
    return out


def green_reports():
    out = {}
    groups = corpus()
    for name in GREEN_GROUPS:
        lat = SubgroupLattice(groups[name])
        for label, S in green_corruptions(lat).items():
            report = green_check(S)
            out[f"{name}/{label}"] = {
                "ok": report.ok,
                "commutative": report.commutative,
                "violations": [list(v) for v in report.violations],
            }
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def axioms():
    return axiom_reports()


def test_axiom_violation_lists_match_golden(golden, axioms):
    assert axioms == golden["check_axioms"]


def test_fail_fast_reports_the_first_violation(axioms):
    for key, full in axioms.items():
        if key.endswith("fail_fast=False"):
            assert full, key
            assert axioms[key.replace("False", "True")] == full[:1], key


def test_green_violation_lists_match_golden(golden):
    assert green_reports() == golden["green_check"]
