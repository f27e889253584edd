"""Cayley tables and Rota-Baxter identities, written independently of hopfrb.

The benchmark builds its group inputs here, so the element numbering that the
known answers refer to does not depend on the program under test.  The same
module holds a plain backtracking enumerator of Rota-Baxter operators, used
only to produce the known answers (see make_known.py).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from math import gcd, lcm

KNOWN_FILE = "known_answers.json"
DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def cyclic(n: int) -> list:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def direct(A: list, B: list) -> list:
    """(a1, b1)(a2, b2) with (a, b) at index a * |B| + b."""
    m = len(B)
    return [[A[a1][a2] * m + B[b1][b2] for a2 in range(len(A)) for b2 in range(m)]
            for a1 in range(len(A)) for b1 in range(m)]


def permutations(n: int) -> list[tuple]:
    return list(itertools.permutations(range(n)))


def symmetric(n: int) -> list:
    """S_n on the permutations of range(n) in lexicographic order; p*q = p after q."""
    perms = permutations(n)
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms]


def dihedral(n: int) -> list:
    """The dihedral group of order 2n: r^a s^b at index 2a + b, s r = r^-1 s."""
    def mul(x, y):
        a, b = divmod(x, 2)
        c, d = divmod(y, 2)
        return 2 * ((a + (c if b == 0 else -c)) % n) + (b + d) % 2
    return [[mul(x, y) for y in range(2 * n)] for x in range(2 * n)]


def identity_of(t: list) -> int:
    return next(e for e in range(len(t)) if all(t[e][x] == x for x in range(len(t))))


def inverses(t: list) -> list[int]:
    e = identity_of(t)
    return [next(h for h in range(len(t)) if t[g][h] == e) for g in range(len(t))]


def power(t: list, g: int, k: int) -> int:
    if k < 0:
        g, k = inverses(t)[g], -k
    out = identity_of(t)
    for _ in range(k):
        out = t[out][g]
    return out


def exponent(t: list) -> int:
    e = identity_of(t)
    orders = []
    for g in range(len(t)):
        k, acc = 1, g
        while acc != e:
            acc = t[acc][g]
            k += 1
        orders.append(k)
    return lcm(*orders)


def to_json(t: list, name: str) -> dict:
    return {"name": name, "table": t}


def rb_arg_table(t: list, weight: int) -> list:
    """arg[g][v][h] with B(g)B(h) = B(arg[g][B(g)][h]) the Rota-Baxter identity.

    Weight 1: g v h v^-1.  Weight -1: v h v^-1 g.  Weight lambda:
    (g^lambda v h^lambda v^-1)^mu with lambda mu = 1 modulo the exponent.
    """
    n = len(t)
    inv = inverses(t)
    if weight == 1:
        return [[[t[t[t[g][v]][h]][inv[v]] for h in range(n)] for v in range(n)]
                for g in range(n)]
    if weight == -1:
        return [[[t[t[t[v][h]][inv[v]]][g] for h in range(n)] for v in range(n)]
                for g in range(n)]
    ex = exponent(t)
    if gcd(weight % ex, ex) != 1:
        raise ValueError(f"weight {weight} is not invertible modulo {ex}")
    mu = pow(weight % ex, -1, ex)
    plam = [power(t, g, weight % ex) for g in range(n)]
    mu_pow = [power(t, x, mu) for x in range(n)]
    return [[[mu_pow[t[t[t[plam[g]][v]][plam[h]]][inv[v]]] for h in range(n)]
             for v in range(n)] for g in range(n)]


def is_rb(t: list, arg: list, B) -> bool:
    n = len(t)
    return all(t[B[g]][B[h]] == B[arg[g][B[g]][h]] for g in range(n) for h in range(n))


def brute_force_rb(t: list, weight: int) -> list[tuple]:
    """Every map G -> G, tested against the identity: n^n candidates."""
    arg = rb_arg_table(t, weight)
    n = len(t)
    return [B for B in itertools.product(range(n), repeat=n) if is_rb(t, arg, B)]


def backtrack_rb(t: list, weight: int) -> list[tuple]:
    """Assign images in element order; after each assignment test every pair
    whose three images are all assigned.  No propagation, unlike hopfrb."""
    arg = rb_arg_table(t, weight)
    n = len(t)
    B = [-1] * n
    out: list[tuple] = []

    def consistent(x: int) -> bool:
        # pairs that became decidable with x: x among g, h or arg(g, h)
        for g in range(x + 1):
            vg = B[g]
            row = arg[g][vg]
            for h in range(x + 1):
                k = row[h]
                if k <= x and (g == x or h == x or k == x):
                    if t[vg][B[h]] != B[k]:
                        return False
        return True

    def dfs(x: int) -> None:
        if x == n:
            out.append(tuple(B))
            return
        for v in range(n):
            B[x] = v
            if consistent(x):
                dfs(x + 1)
        B[x] = -1

    dfs(0)
    return out


def digest(maps) -> str:
    """sha256 of the sorted operator list as compact JSON."""
    text = json.dumps(sorted(list(m) for m in maps), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def encode_map(B) -> str:
    """One base-36 digit per element, for groups of order at most 36."""
    return "".join(DIGITS[v] for v in B)


def decode_map(text: str) -> tuple:
    return tuple(DIGITS.index(ch) for ch in text)


def table_digest(t: list) -> str:
    return hashlib.sha256(json.dumps(t, separators=(",", ":")).encode()).hexdigest()


def group_tables(root: str) -> dict:
    """Every group the benchmark hands to the program, by name."""
    s3, z2, z4 = symmetric(3), cyclic(2), cyclic(4)
    with open(os.path.join(root, "fixtures", "f21.json")) as fh:
        f21 = json.load(fh)["table"]
    return {
        "Z3": cyclic(3),
        "Z4": z4,
        "S3": s3,
        "D8": dihedral(4),
        "Z4xZ2": direct(z4, z2),
        "Z2^3": direct(direct(z2, z2), z2),
        "S3xZ2": direct(s3, z2),
        "S4": symmetric(4),
        "F21": f21,
        "S3xS3": direct(s3, s3),
        "Z2xS4": direct(z2, symmetric(4)),
    }
