"""Helpers that only the tests and tools/make_witnesses.py use: the
automorphisms of a small group, the weight flip of an operator, a group
transported through a bijection, the quantum binomial by expansion, and two
root-of-unity helpers."""

import itertools

from hopfrb.rb_group import GroupTable
from hopfrb.scalars import FieldCtx, Scalar, multiplicative_order


def automorphisms(G: GroupTable) -> list[tuple]:
    """All automorphisms of G, by filtering permutations; fine for n <= 8."""
    out = []
    for p in itertools.permutations(range(G.n)):
        if p[G.e] != G.e:
            continue
        if all(p[G.table[a][b]] == G.table[p[a]][p[b]] for a in range(G.n) for b in range(G.n)):
            out.append(p)
    return out


def weight_flip(B, G: GroupTable) -> tuple:
    """C(a) = B(a^-1); swaps the weight +1 and -1 identities."""
    return tuple(B[G.inv[a]] for a in range(G.n))


def transport_group(G: GroupTable, f) -> GroupTable:
    """Pull the multiplication back through a bijection: a*b = f^-1(f(a)f(b))."""
    f = tuple(f)
    if sorted(f) != list(range(G.n)):
        raise ValueError("transport requires a bijection")
    finv = [0] * G.n
    for i, v in enumerate(f):
        finv[v] = i
    return GroupTable([[finv[G.table[f[a]][f[b]]] for b in range(G.n)] for a in range(G.n)])


def qbinom_oracle(p: int, q: int, zeta: Scalar) -> Scalar:
    """Coefficient of u^(p-q) v^q in (u+v)^p with v u = zeta u v.

    Expands by repeated right multiplication, normal-ordering so that every
    monomial is u^a v^b; v^b * u = zeta^b u v^b.
    """
    ctx = zeta.ctx
    if q < 0 or q > p:
        return ctx.zero
    acc = {(0, 0): ctx.one}
    for _ in range(p):
        nxt: dict = {}
        for (a, b), c in acc.items():
            cu = c * zeta ** b
            k = (a + 1, b)
            nxt[k] = nxt.get(k, ctx.zero) + cu
            k = (a, b + 1)
            nxt[k] = nxt.get(k, ctx.zero) + c
        acc = nxt
    return acc.get((p - q, q), ctx.zero)


def is_primitive_root(z: Scalar, m: int) -> bool:
    """True when z has multiplicative order exactly m."""
    if m < 1:
        raise ValueError(f"order must be positive, got {m}")
    return multiplicative_order(z, m) == m


def zeta_power(ctx: FieldCtx, n: int, k: int = 1) -> Scalar:
    """k-th power of the designated order-n root of unity in ctx."""
    z = ctx.root_of_unity(n)
    return z ** (k % n)
