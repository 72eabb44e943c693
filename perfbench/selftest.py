#!/usr/bin/env python3
"""Smoke-size tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks, on small groups:

- a planted wrong answer, and a planted exception in the program, each make
  the run incorrect on every workload; so do a wrong morphism returned by
  ``certify_iso`` or ``box_unit_iso`` and a ``None`` from ``certify_iso`` on
  a pair without repeated summands;
- seeds 1 and 2 both run with no failures outside the known repeated-summand
  pairs of ``classify`` (ROADMAP item 4a);
- two traced runs with the same seed, in separate processes, give exactly
  equal call and operation counts;
- every traced layer records calls on the workload meant to stress it (this
  catches a name re-bound by import that the tracer missed);
- layer self times sum to the traced job wall time within 10%.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile

import run

run.import_program()

import tracer  # noqa: E402
import workloads  # noqa: E402
from qmackey import classify, linalg, mackey, monoidal  # noqa: E402

SMOKE = {
    "verify": ("C2", "S3"),
    "classify": ("C2", "S3"),
    "box": ("C2", "S3"),
    "lattice": ("C2", "S3", "D8"),
}

# The workload meant to stress each traced layer.
STRESS = {
    "verify": (
        "cli.main",
        "serialize.functor_from_json",
        "serialize.functor_to_json",
        "serialize.group_from_json",
        "groups.SubgroupLattice",
        "groups.double_cosets",
        "burnside.burnside_ring",
        "mackey.check_axioms",
        "mackey.construct",
        "monoidal.burnside_green",
        "monoidal.green_check",
        "linalg.matmul",
    ),
    "classify": (
        "classify.split",
        "classify.assemble",
        "classify.classify_iso",
        "classify.certify_iso",
        "classify.free_functor",
        "groups.weyl",
        "linalg.rref",
        "linalg.solve",
        "linalg.inverse",
        "linalg.tensor",
    ),
    "box": ("monoidal.box", "monoidal.box_unit_iso", "linalg.quotient_space", "linalg.tensor"),
    "lattice": (
        "groups.load_group",
        "burnside.idempotents",
        "burnside.idempotents_via_marks",
        "burnside.mul",
        "linalg.inverse",
    ),
}


def plant(workload: str, job: workloads.Job) -> None:
    """Give the job an expected answer that the program's correct output contradicts."""
    if workload == "verify":
        job.expected = (0, None)
    elif workload == "classify":
        split_dims, dims = job.expected
        job.expected = (split_dims, (dims[0] + 1,) + dims[1:])
    elif workload == "box":
        job.expected = (job.expected[0] + 1,) + tuple(job.expected[1:])
    else:
        job.expected += 1


def known_defect(job: workloads.Job) -> bool:
    return "-repeated-" in job.name


def planted_run(job: workloads.Job, owner, attr: str, replacement) -> tuple[dict, str]:
    """Run ``job`` once with ``owner.attr`` replaced; returns (run.outcome, job status)."""
    original = getattr(owner, attr)
    setattr(owner, attr, replacement(original))
    try:
        results = run.run_round([job])
    finally:
        setattr(owner, attr, original)
    return run.outcome(results), results[0][-1]


def raising(original):
    def fn(*args, **kwargs):
        raise linalg.LinAlgError("planted")

    return fn


def doubled(original):
    """The morphism with its component at one end of a nonzero restriction doubled.

    The restriction R: M(H) -> M(K) and the target's R' are nonzero and the
    components are invertible, so f_K R = R' (2 f_H) cannot hold.
    """

    def fn(*args, **kwargs):
        f = original(*args, **kwargs)
        M, N = f.source, f.target
        h = next(h for h, k in M.lattice.cover_pairs() if not N.res[(h, k)].matmul(f.maps[h]).is_zero())
        maps = list(f.maps)
        maps[h] = maps[h].scale(2)
        return mackey.MackeyMorphism(M, N, tuple(maps))

    return fn


def returns_none(original):
    return lambda *args, **kwargs: None


def smoke_round(workload: str, seed: int, workdir: str):
    rnd = workloads.setup(workload, seed, workdir, SMOKE[workload])
    return rnd, run.run_round(rnd.jobs)


def passing_jobs(workdir: str, workload: str):
    rnd, results = smoke_round(workload, 1, workdir)
    return [j for j, (*_, s) in zip(rnd.jobs, results) if s == workloads.OK]


def traced_counts(workload: str, seed: int) -> dict:
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=run.ROOT) as workdir:
        tr, _, _, _, coverage = run.traced_pass(workload, seed, workdir, SMOKE[workload])
    return {
        "calls": {k: v for k, v in tr.calls.items() if k in tracer.SPANS},
        "counts": dict(tr.counts),
        "coverage": coverage,
    }


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(traced_counts(sys.argv[2], int(sys.argv[3]))))
        return 0
    failures = []

    def check(ok: bool, what: str) -> None:
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    stressed = {name for names in STRESS.values() for name in names}
    check(stressed == set(tracer.SPANS), "every traced layer has a stress workload")
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=run.ROOT) as workdir:
        for workload in run.WORKLOADS:
            for seed in (1, 2):
                rnd, results = smoke_round(workload, seed, workdir)
                bad = [j.name for j, (*_, s) in zip(rnd.jobs, results) if s != workloads.OK and not known_defect(j)]
                check(not bad, f"{workload} seed {seed}: {len(results)} jobs, no failures outside 4a pairs {bad}")
            passing = [j for j, (*_, s) in zip(rnd.jobs, results) if s == workloads.OK]
            # for verify, a corrupted functor that will be labelled valid
            job = next(j for j in passing if workload != "verify" or j.expected[0] == 1)
            expected = job.expected
            plant(workload, job)
            summary = run.outcome(run.run_round([job]))
            check(summary["failed"] == 1 and not summary["correct"], f"{workload}: planted wrong answer in {job.name} fails")
            job.expected = expected
            summary, status = planted_run(job, linalg.QMatrix, "matmul", raising)
            check(status == workloads.FAILED and not summary["correct"], f"{workload}: planted exception in {job.name} fails")
        classify_job = next(j for j in passing_jobs(workdir, "classify") if not known_defect(j))
        for name, owner, attr, replacement, want in (
            ("wrong certify_iso morphism", classify, "certify_iso", doubled, workloads.WRONG),
            ("wrong classify_iso morphism", classify, "classify_iso", doubled, workloads.WRONG),
            ("certify_iso None off the 4a pairs", classify, "certify_iso", returns_none, workloads.FAILED),
        ):
            summary, status = planted_run(classify_job, owner, attr, replacement)
            check(status == want and not summary["correct"], f"classify: {name} in {classify_job.name} is {want}")
        unit_job = next(j for j in passing_jobs(workdir, "box") if "-unit-" in j.name and "-reg" in j.name)
        summary, status = planted_run(unit_job, monoidal, "box_unit_iso", doubled)
        check(status == workloads.WRONG and not summary["correct"], f"box: wrong box_unit_iso morphism in {unit_job.name} is wrong")
    for workload in run.WORKLOADS:
        runs = []
        for _ in range(2):
            child = subprocess.run(
                [sys.executable, __file__, "--child", workload, "1"], capture_output=True, text=True, check=True
            )
            runs.append(json.loads(child.stdout.splitlines()[-1]))
        a, b = runs
        check(a["calls"] == b["calls"] and a["counts"] == b["counts"], f"{workload}: two traced runs count alike")
        idle = [name for name in STRESS[workload] if not a["calls"].get(name)]
        check(not idle, f"{workload}: stressed layers record calls {idle}")
        check(0.9 <= a["coverage"] <= 1.1, f"{workload}: layer self time covers {a['coverage']:.3f} of job wall time")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
