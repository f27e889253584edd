"""Untraced timings of the innermost kernels: scalar arithmetic on operands
captured by the tracer, and tensor operations on Taft m=5 tensors."""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

from hopfrb import constructions as cons
from hopfrb import hopf_core as hc
from hopfrb import scalars as sc

KINDS = ("cyclotomic", "rational", "prime")
MIN_BATCH_S = 0.01
BATCHES = 5


def per_call(fn, items) -> float:
    """Median over batches of the seconds per call of fn on each item."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            for item in items:
                fn(item)
        if time.perf_counter() - t0 >= MIN_BATCH_S:
            break
        reps *= 2
    times = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(reps):
            for item in items:
                fn(item)
        times.append((time.perf_counter() - t0) / (reps * len(items)))
    return statistics.median(times)


def fallback_operands(kind: str, rng) -> list:
    """Seeded operand pairs in Q(z5), Q or F3, for a workload that used none."""
    field = {"cyclotomic": "Q(z5)", "rational": "Q", "prime": "F3"}[kind]
    ctx = sc.parse_field(field)

    def draw():
        if kind == "prime":
            return ctx.from_int(rng.randrange(3))
        x = ctx.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        if kind == "cyclotomic":
            for power in range(1, 4):
                c = ctx.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                x = x + c * ctx.zeta ** power
        return x
    return [(draw(), draw()) for _ in range(64)]


def scalar_metrics(samples: dict, rng) -> dict:
    out = {}
    for op, fn in (("mul", lambda p: p[0] * p[1]), ("add", lambda p: p[0] + p[1])):
        for kind in KINDS:
            pairs = samples[op].get(kind) or fallback_operands(kind, rng)
            out[f"scalars.{op}_ns.{kind}"] = per_call(fn, pairs) * 1e9
    pairs = samples["mul"].get("cyclotomic") or fallback_operands("cyclotomic", rng)
    nonzero = [a for a, _ in pairs if not a.is_zero] or [p[0] for p in
                                                         fallback_operands("cyclotomic", rng)]
    out["scalars.inverse_ns.cyclotomic"] = per_call(lambda a: a.inverse(), nonzero) * 1e9
    return out


def tensor_metrics(rng) -> dict:
    ctx = sc.parse_field("Q(z5)")
    H = cons.taft(5, ctx)
    A, C = H.algebra, H.coalgebra
    deltas = [hc.iterated_delta(C, {i: ctx.one}, 2) for i in rng.sample(range(H.dim), 8)]
    pairs = list(zip(deltas, deltas[1:] + deltas[:1]))
    return {
        "hopf_core.tensor_mul_us": per_call(lambda p: hc.tensor_mul(A, p[0], p[1]), pairs) * 1e6,
        "hopf_core.tensor_apply_delta_us":
            per_call(lambda t: hc.tensor_apply_delta(C, t, 0), deltas) * 1e6,
    }
