#!/usr/bin/env python3
"""Closed-loop benchmark of qmackey: one process, one client, one job at a time.

Run from the root of a checkout::

    python3 perfbench/run.py --workload verify --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--workload all`` runs every workload in its own process, one after another.
The program is imported from ``src/`` of the checkout and nowhere else; the
run exits with code 1, printing no result, when it is missing.

A job is one user-level request plus the check of its answer (see
``workloads.py``).  A run sets up ``SETUP_REPEATS`` times from the seed,
then runs the last set-up's round of jobs a whole number of times, chosen
from ``--seconds`` and the round's nominal length on the reference machine,
so that every run of a workload does the same work.

Times are reported in seconds at the reference speed.  The shared machines
this runs on change speed by up to 2x within a second, for the program and
for any other pure-Python work alike.  So ``calibrate()``, a fixed
exact-rational matrix product that calls nothing of the program, is timed
around every job and set-up and every ``Sampler.INTERVAL`` seconds inside
them, and each measured time is multiplied by ``CALIB_REF_S`` over the
median of the calibrations during and next to it (``Sampler``).  The raw
wall times are printed too.

``--trace 0`` prints the end-to-end metrics:

- ``setup_s``: the median over the set-ups of a fresh ``import qmackey``
  (timed in a child interpreter) plus building groups, lattices and inputs;
- ``jobs_per_s``: jobs completed over the summed job time;
- ``job_p50_s``: median job time;
- ``job_tail_s``: the highest job-time percentile with at least ten jobs
  beyond it; the line above the result names the percentile and job count;
- ``peak_rss_mb``: peak resident memory of the process.

``fail_ratio`` (failed jobs over attempted) is printed as well; the result
line carries it as ``failed`` and ``attempted``.  ``correct`` is false when a
job got a wrong answer, raised, or gave no answer, except where
``certify_iso`` finds no certificate for a repeated-summand pair of ROADMAP
item 4a (status ``KNOWN``): that job counts as failed and the run stays
correct.

``--trace 1`` runs an untraced, a traced and an untraced pass, each of one
set-up and the rounds of a ``--trace 0`` run.  It prints the traced pass's
per-layer sums, the tracing overhead (traced time over the mean of the two untraced times, which
cancels a steady drift in machine speed; all three are scaled, with
calibrations between jobs only) and the share of job time, less the
benchmark's own morphism checks, covered by layer self time.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import signal
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("verify", "classify", "box", "lattice")
SETUP_REPEATS = 3
# Nominal seconds of one round: verify, classify and box run one round each
# (9 to 14 s at the reference speed), lattice whole rounds of about 1.85 s.
ROUND_SECONDS = {"verify": 15.0, "classify": 15.0, "box": 15.0, "lattice": 1.85}

# calibrate() on the reference machine in its fast state (see BASELINE.md).
CALIB_REF_S = 0.0015
CALIB_NEAR = 2  # samples on either side of a call that its scale also uses
_CALIB = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(8)] for i in range(8)]


def calibrate() -> float:
    """Seconds taken by a fixed 8x8 product of small rationals in plain lists."""
    t0 = time.perf_counter()
    [[sum(x * y for x, y in zip(row, col)) for col in zip(*_CALIB)] for row in _CALIB]
    return time.perf_counter() - t0


def import_program() -> None:
    """Import qmackey from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        qmackey = importlib.import_module("qmackey")
    except ImportError as exc:
        sys.exit(f"error: cannot import qmackey from {SRC}: {exc}")
    if not os.path.abspath(qmackey.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: qmackey was imported from {qmackey.__file__}, not from {SRC}")


def import_seconds() -> float:
    """Time a fresh ``import qmackey`` in a child interpreter."""
    code = "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); import qmackey; print(time.perf_counter() - t)"
    child = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, text=True, check=True)
    return float(child.stdout)


class Sampler:
    """Calibrations: around every timed call, and every ``INTERVAL`` seconds inside them.

    While active, a timer signal runs ``calibrate()`` in the main thread
    between two bytecodes of whatever is running, so a long job is sampled
    from the inside; ``spent`` sums the handler's time, which the job's time
    leaves out.  Off (``timer=False``), only the calibrations around calls
    are taken, as in the traced passes, whose spans must not contain them.
    Samples are kept in time order, and a call's time is scaled by the
    median of the samples taken during it and the ``CALIB_NEAR`` on either
    side of those.
    """

    INTERVAL = 0.05

    def __init__(self, timer: bool = True):
        self.samples: list[float] = []
        self.spent = 0.0
        self.timer = timer
        self._busy = False

    def calibrate(self) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            self.samples.append(calibrate())
        finally:
            self.spent += time.perf_counter() - t0
            self._busy = False

    def __enter__(self):
        if self.timer:
            self._old = signal.signal(signal.SIGALRM, lambda *_: self.calibrate())
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)

    def timed(self, fn):
        """Run ``fn`` between two calibrations; returns (result, raw seconds, its samples' span)."""
        self.calibrate()
        first, spent = len(self.samples) - 1, self.spent
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            raw = time.perf_counter() - t0 - (self.spent - spent)
        self.calibrate()
        return result, raw, (first, len(self.samples))

    def scaled(self, raw, span) -> float:
        """``raw`` seconds at the reference speed, once the samples after ``span`` are in."""
        first, end = span
        return raw * CALIB_REF_S / statistics.median(self.samples[max(0, first - CALIB_NEAR) : end + CALIB_NEAR])


def run_round(jobs, tracer=None, sampler=None):
    """Run each job once between calibrations; returns [(raw seconds, scaled seconds, status)]."""
    from workloads import FAILED

    sampler = sampler or Sampler(timer=False)

    def attempt(job):
        try:
            return tracer.root("job", job)[0] if tracer else job()
        except Exception:  # a job that raises gave no answer
            return FAILED

    timed = [sampler.timed(lambda: attempt(job)) for job in jobs]
    for _ in range(CALIB_NEAR):
        sampler.calibrate()
    return [(raw, sampler.scaled(raw, span), status) for status, raw, span in timed]


def tail(times):
    """(value, percentile, jobs beyond) of the highest percentile with >= 10 jobs beyond it."""
    ordered = sorted(times)
    i = max(0, len(ordered) - 11)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - i - 1


def outcome(results):
    from workloads import KNOWN, OK

    statuses = [s for *_, s in results]
    return {
        "correct": all(s in (OK, KNOWN) for s in statuses),
        "attempted": len(statuses),
        "failed": sum(s != OK for s in statuses),
    }


def emit(summary, metrics, lines):
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {unit}")
    result = dict(summary, metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    print(json.dumps(result))


def measure(workload, seed, seconds, workdir):
    import workloads

    setups, results = [], []
    rounds = max(1, round(seconds / ROUND_SECONDS[workload]))
    with Sampler() as sampler:
        for _ in range(SETUP_REPEATS):
            rnd = None  # let the previous set-up's objects go before timing the next
            (imported, rnd), raw, span = sampler.timed(
                lambda: (import_seconds(), workloads.setup(workload, seed, workdir))
            )
            setups.append((imported, raw, span))
        t0 = time.perf_counter()
        for _ in range(rounds):
            results += run_round(rnd.jobs, sampler=sampler)
        wall = time.perf_counter() - t0
    setups = [(imported, raw, sampler.scaled(raw, span)) for imported, raw, span in setups]
    raw = [t for t, _, _ in results]
    times = [t for _, t, _ in results]
    summary = outcome(results)
    tail_s, pct, beyond = tail(times)
    metrics = {
        "setup_s": (statistics.median(s for *_, s in setups), "s"),
        "jobs_per_s": (len(results) / sum(times), "1/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    lines = [
        f"workload {workload}  seed {seed}  inputs sha256 {rnd.digest}",
        f"  {len(rnd.jobs)} jobs per round x {rounds} round(s) = {len(results)} jobs in {wall:.3f} s wall"
        f" (calibrations included)",
        f"  raw: jobs_per_s {len(results) / sum(raw):.6g}  job_p50_s {statistics.median(raw):.6g}"
        f"  job_tail_s {tail(raw)[0]:.6g}  setup_s {statistics.median(r for _, r, _ in setups):.6g}",
        f"  machine speed against the reference: {sum(raw) / sum(times):.3f}x slower over the jobs",
        f"  setup_s is the median of {SETUP_REPEATS} set-ups (import + inputs), raw: "
        + ", ".join(f"{r:.4f} (import {i:.4f})" for i, r, _ in setups),
        f"  job_tail_s is p{pct:.1f} of {len(results)} jobs ({beyond} beyond it)",
        f"  fail_ratio {summary['failed']}/{summary['attempted']} = {summary['failed'] / summary['attempted']:.4f}"
        + ("" if summary["correct"] else "  (INCORRECT: a job failed or was wrong)"),
    ]
    named = list(zip(rnd.jobs * rounds, results))
    slowest = sorted(named, key=lambda item: -item[1][1])[:5]
    lines.append("  slowest jobs (scaled): " + ", ".join(f"{job.name} {t:.3f} s" for job, (_, t, _) in slowest))
    lines += [f"  failed job: {job.name} -> {s}" for job, (*_, s) in named if s != workloads.OK][:20]
    return summary, metrics, lines


def traced_pass(workload, seed, workdir, groups=None, rounds=1):
    """Set up and run ``rounds`` rounds under the tracer.

    Returns (tracer, round, results, scaled seconds, coverage), coverage being
    the layer self time inside jobs over the jobs' time less the benchmark's
    own morphism checks.
    """
    import tracer as tracing
    import workloads

    tr = tracing.Tracer()
    tr.install()
    try:
        sampler = Sampler(timer=False)
        (rnd, _), raw, span = sampler.timed(
            lambda: tr.root("setup", lambda: workloads.setup(workload, seed, workdir, groups))
        )
        in_setup = tr.layer_self_s()
        checks = workloads.check_seconds
        results = [r for _ in range(rounds) for r in run_round(rnd.jobs, tr, sampler)]
        setup_s = sampler.scaled(raw, span)
        checks = workloads.check_seconds - checks
    finally:
        tr.uninstall()
    coverage = (tr.layer_self_s() - in_setup) / (sum(t for t, _, _ in results) - checks)
    return tr, rnd, results, setup_s + sum(t for _, t, _ in results), coverage


def untraced_pass(workload, seed, workdir, rounds):
    """Set up and run ``rounds`` rounds untraced; returns scaled seconds."""
    import workloads

    sampler = Sampler(timer=False)
    rnd, raw, span = sampler.timed(lambda: workloads.setup(workload, seed, workdir))
    jobs_s = sum(t for _ in range(rounds) for _, t, _ in run_round(rnd.jobs, sampler=sampler))
    return sampler.scaled(raw, span) + jobs_s


def measure_traced(workload, seed, seconds, workdir):
    rounds = max(1, round(seconds / ROUND_SECONDS[workload]))
    before = untraced_pass(workload, seed, workdir, rounds)
    tr, rnd, results, traced, coverage = traced_pass(workload, seed, workdir, rounds=rounds)
    after = untraced_pass(workload, seed, workdir, rounds)
    untraced = (before + after) / 2
    wrapper = tr.wrapper_s()
    metrics = tr.metrics()
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.traced_wall_s"] = (traced, "s")
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    metrics["trace.counting_s"] = (tr.counting_s, "s")
    metrics["trace.wrapper_s"] = (wrapper, "s")
    metrics["trace.self_coverage"] = (coverage, "ratio")
    lines = [
        f"workload {workload}  seed {seed}  inputs sha256 {rnd.digest}  (traced: set-up + {rounds} round(s), {len(results)} jobs)",
        f"  tracing overhead: traced {traced:.3f} s / untraced mean of {before:.3f} and {after:.3f} s"
        f" = {traced / untraced:.3f}",
        f"  estimated wrapper and counting time in the traced pass: {wrapper:.3f} s (raw), counting {tr.counting_s:.3f} s;"
        f" differences within the calibration's few per cent cannot be resolved",
        f"  layer self time covers {100 * coverage:.1f}% of traced job time less checks"
        + ("" if 0.9 <= coverage <= 1.1 else "  (OUTSIDE 10%)"),
    ]
    return outcome(results), metrics, lines


def run_all(args) -> int:
    code = 0
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(argv, check=False).returncode)
    return code


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.workload == "all":
        return run_all(args)
    import_program()
    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        if args.trace:
            emit(*measure_traced(args.workload, args.seed, args.seconds, workdir))
        else:
            emit(*measure(args.workload, args.seed, args.seconds, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
