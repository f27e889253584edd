"""Regenerate perfbench/known_answers.json, the benchmark's expected results.

Run from the repository root:  python3 perfbench/make_known.py

Nothing here imports hopfrb.  Operator lists come from groups.brute_force_rb
(every map, for orders up to 6) and groups.backtrack_rb (plain backtracking
without the propagation hopfrb uses); Lie-algebra verdicts come from the
Fraction arithmetic below.  Each entry names its source.  The run takes
about two minutes, most of it the Z2xS4 enumeration.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import groups  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, groups.KNOWN_FILE)


# (group, weight, store the full list?, source of the count)
OPERATOR_SETS = [
    ("Z3", 1, True, "brute force over all 27 maps; acceptance criterion 6 (3 operators)"),
    ("Z3", -1, True, "brute force over all 27 maps"),
    ("Z4", 1, True, "brute force over all 256 maps"),
    ("Z4", -1, True, "brute force over all 256 maps"),
    ("S3", 1, True, "brute force over all 46656 maps; acceptance criterion 7 (8 operators)"),
    ("S3", -1, True, "brute force over all 46656 maps"),
    ("D8", 1, True, "independent backtracking"),
    ("D8", -1, False, "independent backtracking"),
    ("Z4xZ2", 1, False, "independent backtracking"),
    ("Z4xZ2", -1, False, "independent backtracking"),
    ("Z2^3", 1, False, "independent backtracking"),
    ("Z2^3", -1, False, "independent backtracking"),
    ("S3xZ2", 1, False, "independent backtracking"),
    ("S3xZ2", -1, False, "independent backtracking"),
    ("S4", 1, False, "independent backtracking"),
    ("S4", -1, False, "independent backtracking"),
    ("F21", 2, True, "independent backtracking; acceptance criterion 11 (30 operators)"),
    ("S3xS3", 1, True, "independent backtracking; ROADMAP baseline (784 operators)"),
    ("Z2xS4", 1, False, "independent backtracking; ROADMAP baseline (1888 operators)"),
]


# ---------------------------------------------------------------------------
# sl2 Rota-Baxter verdicts in plain Fractions

SL2 = {(1, 0): {0: 2}, (1, 2): {2: -2}, (0, 2): {1: 1}}  # basis e, h, f


def sl2_bracket(u: list, v: list) -> list:
    out = [Fraction(0)] * 3
    for (i, j), terms in SL2.items():
        c = u[i] * v[j] - u[j] * v[i]
        if c:
            for k, ck in terms.items():
                out[k] += c * ck
    return out


def apply(cols: list, v: list) -> list:
    return [sum(cols[j][i] * v[j] for j in range(3)) for i in range(3)]


def rb_lie_holds(cols: list, lam: Fraction) -> bool:
    """[B u, B v] = B([B u, v] - [B v, u] + lam [u, v]) on basis pairs."""
    basis = [[Fraction(int(i == j)) for i in range(3)] for j in range(3)]
    for u in range(3):
        for v in range(3):
            bu, bv = cols[u], cols[v]
            lhs = sl2_bracket(bu, bv)
            a = sl2_bracket(bu, basis[v])
            b = sl2_bracket(bv, basis[u])
            c = sl2_bracket(basis[u], basis[v])
            if lhs != apply(cols, [a[i] - b[i] + lam * c[i] for i in range(3)]):
                return False
    return True


def sl2_cases(rng: random.Random, count: int) -> list:
    """Structured operators that pass (0, -lam id, -lam times the projections
    of the splittings sl2 = b (+) n into two subalgebras) and random ones."""
    cases = []
    ident = [[Fraction(int(i == j)) for i in range(3)] for j in range(3)]
    # projection onto the span of the listed basis indices along the rest
    proj = [[[Fraction(int(i == j and j in keep)) for i in range(3)] for j in range(3)]
            for keep in ((0, 1), (2,), (1, 2), (0,))]
    for lam in (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)):
        cases.append(([[Fraction(0)] * 3 for _ in range(3)], lam))
        cases.append(([[-lam * x for x in col] for col in ident], lam))
        for P in proj:
            cases.append(([[-lam * x for x in col] for col in P], lam))
    values = [Fraction(v) for v in (-2, -1, 0, 0, 0, 1, 2)] + [Fraction(1, 2), Fraction(-1, 3)]
    while len(cases) < count:
        cols = [[rng.choice(values) for _ in range(3)] for _ in range(3)]
        cases.append((cols, Fraction(rng.choice((-2, -1, 0, 1, 2)))))
    out = []
    for cols, lam in cases:
        rows = [[str(cols[j][i]) for j in range(3)] for i in range(3)]
        out.append({"rows": rows, "lambda": str(lam), "ok": rb_lie_holds(cols, lam)})
    return out


def main() -> int:
    tables = groups.group_tables(ROOT)
    known: dict = {
        "about": "Expected results for perfbench; regenerate with "
                 "python3 perfbench/make_known.py.  Group elements are numbered "
                 "as in perfbench/groups.py; table_sha256 pins that numbering.",
        "groups": {},
        "operators": {},
    }
    for name, t in tables.items():
        known["groups"][name] = {"order": len(t), "table_sha256": groups.table_digest(t)}
    for name, weight, store, source in OPERATOR_SETS:
        t = tables[name]
        t0 = time.perf_counter()
        ops = groups.backtrack_rb(t, weight)
        if len(t) <= 6:
            brute = groups.brute_force_rb(t, weight)
            if sorted(brute) != sorted(ops):
                raise SystemExit(f"{name} weight {weight}: brute force disagrees with backtracking")
        entry = {"count": len(ops), "sha256": groups.digest(ops), "source": source}
        if store:
            entry["maps"] = [groups.encode_map(B) for B in sorted(ops)]
        known["operators"][f"{name}@{weight}"] = entry
        print(f"{name} weight {weight}: {len(ops)} operators "
              f"({time.perf_counter() - t0:.1f} s)", flush=True)
    for name in ("S3", "Z4", "D8", "Z4xZ2", "Z2^3", "S3xZ2", "S4"):
        if known["operators"][f"{name}@1"]["count"] != known["operators"][f"{name}@-1"]["count"]:
            raise SystemExit(f"{name}: weight 1 and -1 counts differ; B(a^-1) is a bijection")
    known["sl2_rb_weight"] = {
        "source": "Fraction arithmetic in make_known.rb_lie_holds; basis e, h, f; "
                  "B given by rows",
        "cases": sl2_cases(random.Random(2311), 200),
    }
    known["rules"] = {
        "verify": "taft(m), h4, the F3 family and group algebras are Hopf algebras "
                  "(acceptance criteria 1-3): status pass",
        "mutant_antipode": "the antipode is the unique convolution inverse of id, so any "
                           "changed entry fails antipode_left or antipode_right",
        "mutant_counit": "the counit is unique for a given Delta, so any changed entry "
                         "fails a counit law in check_coalgebra",
        "mutant_mult": "changing e_i e_j by d*e_k changes eps(e_i e_j) by d*eps(e_k); "
                       "drawn only where eps(e_k) != 0 or i or j is the unit",
        "mutant_delta": "changing Delta(e_i) by d*e_j(x)e_k changes a counit law by "
                        "d*eps(e_j) or d*eps(e_k); drawn only where one is nonzero",
        "aut": "hits are exactly k = 1, c_1 a nonzero grid value, every other c_q = 0 "
               "(acceptance criterion 13 for h4 and Taft; for the F3 family x^3 and "
               "x^5 are not (g,1)-skew-primitive and c_1^4 = 1 for every c_1 in F3*)",
        "operator_verdicts": "every Rota-Baxter operator gives a skew brace, a derived "
                             "group and the lemma identities (acceptance criteria 7, 11)",
        "relative": "exact factorizations and linearized weight-1 operators pass "
                    "check_rrbo, check_hopf_brace, check_hopf(derived_hopf) and "
                    "grbo_check (acceptance criteria 9, 10); the h4 fixture passes "
                    "check-rrb --full (tools/make_fixtures.py)",
    }
    with open(OUT, "w") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote", OUT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
