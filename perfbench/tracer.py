"""Spans around hopfrb's public functions, installed from outside the package.

Tracer.install() replaces each listed function by a wrapper in every hopfrb
module that holds it (so cli.check_hopf is wrapped along with
hopf_core.check_hopf), and replaces the Scalar add and multiply methods by
counters.  Spans stay in memory as (job, span, parent, name, start_ns, end_ns)
until the run ends; Tracer.uninstall() puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# module -> public functions that get a span.  Helpers called once per
# identity (tensor_mul, mul_sparse, ...) get none, as a span would cost more
# than they do; micro.py times tensor_mul and tensor_apply_delta instead.
# family_aut_report has none either, so that family_aut_search's self time
# keeps the per-candidate work outside family() and the morphism checks.
SPANNED = {
    "hopf_core": ["check_hopf", "check_algebra", "check_coalgebra",
                  "check_bialgebra_compat", "check_antipode", "is_algebra_morphism",
                  "is_coalgebra_morphism", "is_hopf_morphism", "hopf_from_json",
                  "hopf_to_json"],
    "constructions": ["taft", "family", "group_algebra", "sweedler_h4",
                      "family_hypotheses", "family_aut_search"],
    "rb_group": ["enumerate_rb", "circ_from_rrb", "derived_group", "lemma_checks",
                 "check_rb", "check_rb_lambda", "power_star", "linearize_rb",
                 "group_from_json"],
    "rb_hopf": ["check_rrbo", "check_hopf_brace", "derived_hopf", "grbo_check",
                "exact_factorization_rrb", "rrb_from_json"],
    "rb_lie": ["check_rb_lie_weight", "check_lie", "lie_from_json"],
    "report": ["merge_reports"],
    "cli": ["main"],
}

# checkers whose own report counts the identities they decided
HOPF_CHECKERS = {"hopf_core.check_algebra", "hopf_core.check_coalgebra",
                 "hopf_core.check_bialgebra_compat", "hopf_core.check_antipode",
                 "hopf_core.is_algebra_morphism", "hopf_core.is_coalgebra_morphism"}

SAMPLE_STRIDE = 997   # keep every 997th scalar operand pair
SAMPLE_CAP = 256      # per field kind and operation


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.job = -1
        self.calls = {"mul": [0], "add": [0]}   # boxed for the counting closures
        self.identities_checked = 0
        self.operators_found = 0
        self.samples = {"mul": defaultdict(list), "add": defaultdict(list)}
        self._stack: list[int] = []
        self._next = 0
        self._saved: list[tuple] = []

    # -- spans

    def _wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next
            tracer._next += 1
            stack = tracer._stack
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.spans.append((tracer.job, sid, parent, name, t0, t1))
            if name in HOPF_CHECKERS:
                tracer.identities_checked += out.stats.get("identities_checked", 0)
            elif name == "rb_group.enumerate_rb":
                tracer.operators_found += len(out)
            return out

        return wrapper

    # -- scalar counters: counts only, no clock on the hot path

    def _counting(self, op: str, fn):
        buf = self.samples[op]
        box = self.calls[op]

        def counted(a, b):
            box[0] += 1
            n = box[0]
            if n % SAMPLE_STRIDE == 0:
                kind = buf[a.ctx.kind]
                if len(kind) < SAMPLE_CAP:
                    kind.append((a, b))
                else:
                    kind[(n // SAMPLE_STRIDE) % SAMPLE_CAP] = (a, b)
            return fn(a, b)

        return counted

    def install(self) -> None:
        from hopfrb.scalars import Scalar
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hopfrb" or name.startswith("hopfrb."))]
        for modname, names in SPANNED.items():
            home = importlib.import_module(f"hopfrb.{modname}")
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{modname}.{fname}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._saved.append((m, attr, orig))
                            setattr(m, attr, wrapper)
        for attr, op in (("__mul__", "mul"), ("__rmul__", "mul"),
                         ("__add__", "add"), ("__radd__", "add")):
            orig = Scalar.__dict__[attr]
            self._saved.append((Scalar, attr, orig))
            setattr(Scalar, attr, self._counting(op, orig))

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._saved):
            setattr(obj, attr, orig)
        self._saved.clear()

    # -- analysis

    def self_times(self) -> dict:
        """Seconds per span name: each span's duration minus its children's."""
        child = defaultdict(int)
        for _, _, parent, _, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict = defaultdict(float)
        for _, sid, _, name, t0, t1 in self.spans:
            out[name] += (t1 - t0 - child[sid]) / 1e9
        return out

    def total_times(self, names, jobs=None) -> float:
        """Inclusive seconds of the named spans, optionally within some jobs."""
        return sum(t1 - t0 for job, _, _, name, t0, t1 in self.spans
                   if name in names and (jobs is None or job in jobs)) / 1e9

    def to_json(self) -> list:
        return [{"job": j, "id": s, "parent": p, "name": n, "start_ns": t0, "end_ns": t1}
                for j, s, p, n, t0, t1 in self.spans]
