"""Spans and counters around qmackey's layer boundaries, installed from outside.

``Tracer.install()`` replaces each traced function or method with a wrapper
that records a span, and rebinds every name the package imported it under
(``monoidal.quotient_space`` is ``linalg.quotient_space`` re-bound by import,
for instance).  ``uninstall()`` puts the originals back.  Nothing in ``src/``
changes.

A span's self time is its duration minus the durations of the spans directly
inside it.  Spans are aggregated on exit into per-name call counts and self
times rather than stored, because one round makes millions of kernel calls.
Operation counts (scalar products, elimination cells, matrix constructions)
are computed outside the span they describe; the time spent computing them is
kept apart under ``counting_s`` so it inflates no layer.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from qmackey import burnside, classify, cli, groups, linalg, mackey, monoidal, serialize

_Q = linalg.QMatrix

# span name -> (owner, attribute names); a class owner means methods.
SPANS = {
    "cli.main": (cli, ("main",)),
    "serialize.functor_from_json": (serialize, ("functor_from_json",)),
    "serialize.functor_to_json": (serialize, ("functor_to_json",)),
    "serialize.group_from_json": (serialize, ("group_from_json",)),
    "groups.load_group": (groups, ("load_group",)),
    "groups.SubgroupLattice": (groups.SubgroupLattice, ("__init__",)),
    "groups.double_cosets": (groups.SubgroupLattice, ("double_cosets",)),
    "groups.weyl": (groups.SubgroupLattice, ("weyl",)),
    "burnside.burnside_ring": (burnside, ("burnside_ring",)),
    "burnside.idempotents": (burnside.BurnsideRing, ("idempotents",)),
    "burnside.idempotents_via_marks": (burnside.BurnsideRing, ("idempotents_via_marks",)),
    "burnside.mul": (burnside.BurnsideRing, ("mul",)),
    "mackey.check_axioms": (mackey, ("check_axioms",)),
    "mackey.construct": (
        mackey,
        (
            "burnside_mackey",
            "constant",
            "coconstant",
            "fp_functor",
            "fq_functor",
            "dual",
            "idempotent_part",
            "basis_change",
        ),
    ),
    "classify.split": (classify, ("split",)),
    "classify.assemble": (classify, ("assemble",)),
    "classify.classify_iso": (classify, ("classify_iso",)),
    "classify.certify_iso": (classify, ("certify_iso",)),
    "classify.free_functor": (classify, ("free_functor",)),
    "monoidal.box": (monoidal, ("box",)),
    "monoidal.box_unit_iso": (monoidal, ("box_unit_iso",)),
    "monoidal.burnside_green": (monoidal, ("burnside_green",)),
    "monoidal.green_check": (monoidal, ("green_check",)),
    "linalg.matmul": (_Q, ("matmul",)),
    "linalg.rref": (_Q, ("rref",)),
    "linalg.solve": (_Q, ("solve",)),
    "linalg.inverse": (_Q, ("inverse",)),
    "linalg.quotient_space": (linalg, ("quotient_space",)),
    "linalg.tensor": (linalg, ("tensor",)),
}

# Spans whose call count is reported next to their self time.
COUNTED = (
    "cli.main",
    "groups.load_group",
    "groups.SubgroupLattice",
    "groups.double_cosets",
    "groups.weyl",
    "burnside.burnside_ring",
    "burnside.idempotents",
    "burnside.idempotents_via_marks",
    "burnside.mul",
    "mackey.check_axioms",
    "linalg.matmul",
    "linalg.rref",
    "linalg.solve",
    "linalg.inverse",
    "linalg.quotient_space",
    "linalg.tensor",
)


def _nonzero_products(A, B) -> int:
    """Scalar products a_ik * b_kj with both factors nonzero, summed over i, j, k."""
    cols = [0] * A.cols
    for row in A.data:
        for k, x in enumerate(row):
            if x:
                cols[k] += 1
    return sum(c * sum(1 for x in row if x) for c, row in zip(cols, B.data) if c)


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.counting_s = 0.0
        self._stack: list[float] = []  # per open span: time covered by its children
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result, args)`` records counts."""
        stack = self._stack
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = stack.pop()
                calls[name] += 1
                self_s[name] += dur - child
                if stack:
                    stack[-1] += dur
            if after is not None:
                t1 = time.perf_counter()
                after(result, args)
                spent = time.perf_counter() - t1
                self.counting_s += spent
                if stack:
                    stack[-1] += spent
            return result

        return wrapper

    def root(self, name: str, fn):
        """Run ``fn`` as a top-level span; returns (result, wall seconds)."""
        t0 = time.perf_counter()
        result = self.span(name, fn)()
        return result, time.perf_counter() - t0

    # -- counters -------------------------------------------------------------

    def _after_matmul(self, result, args):
        A, B = args
        self.counts["linalg.matmul.mults"] += A.rows * A.cols * B.cols
        self.counts["linalg.matmul.nonzero"] += _nonzero_products(A, B)

    def _after_rref(self, result, args):
        (A,) = args
        self.counts["linalg.rref.cells"] += A.rows * A.cols

    def _after_certify(self, result, args):
        if result is None:
            self.counts["classify.certify_iso.none"] += 1

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        after = {
            "linalg.matmul": self._after_matmul,
            "linalg.rref": self._after_rref,
            "classify.certify_iso": self._after_certify,
        }
        for name, (owner, attrs) in SPANS.items():
            for attr in attrs:
                original = getattr(owner, attr)
                wrapped = self.span(name, original, after.get(name))
                if isinstance(owner, type):
                    self._set(owner, attr, wrapped)
                else:
                    self._rebind(original, wrapped)
        init = _Q.__init__
        counts = self.counts

        @functools.wraps(init)
        def counted_init(*args, **kwargs):
            counts["linalg.qmatrix.created"] += 1
            init(*args, **kwargs)

        self._set(_Q, "__init__", counted_init)

    def _rebind(self, original, wrapped) -> None:
        """Point every module-level name bound to ``original`` at ``wrapped``."""
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "")
            if modname != "qmackey" and not modname.startswith("qmackey.") and modname != "workloads":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- report ---------------------------------------------------------------

    def wrapper_s(self, samples: int = 20000) -> float:
        """Estimated time the wrappers and counters added to the traced pass.

        The cost of one span around a function that does nothing, less the
        bare call, times the number of spans, plus the ``QMatrix`` counter the
        same way, plus the measured ``counting_s``.
        """

        def noop(*args):
            return None

        def per_call(fn) -> float:
            t0 = time.perf_counter()
            for _ in range(samples):
                fn()
            return (time.perf_counter() - t0) / samples

        span = Tracer().span("noop", noop)
        bare = per_call(noop)
        spans = sum(self.calls[name] for name in SPANS)
        created = self.counts["linalg.qmatrix.created"]
        counter = per_call(lambda: noop()) - bare  # one extra Python-level call, as in counted_init
        return spans * max(0.0, per_call(span) - bare) + created * max(0.0, counter) + self.counting_s

    def layer_self_s(self) -> float:
        """Self time of every layer span, excluding the benchmark's own roots."""
        return sum(v for k, v in self.self_s.items() if k in SPANS)

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name in SPANS:
            if name in COUNTED:
                out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        mults = self.counts["linalg.matmul.mults"]
        out["linalg.matmul.mults"] = (mults, "count")
        out["linalg.matmul.nonzero_ratio"] = (self.counts["linalg.matmul.nonzero"] / mults if mults else 0.0, "ratio")
        out["linalg.rref.cells"] = (self.counts["linalg.rref.cells"], "count")
        out["linalg.qmatrix.created"] = (self.counts["linalg.qmatrix.created"], "count")
        out["classify.certify_iso.none"] = (self.counts["classify.certify_iso.none"], "count")
        return out
