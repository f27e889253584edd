"""Concrete Hopf algebras: group algebras, the Sweedler algebra, Taft
algebras, and the family H_{m,zeta,l,f} with relations g^m = 1, x^l = f(x),
x g = zeta g x, and the search for its Hopf automorphisms.  Quantum
binomial coefficients live here too.  Their oracle, which expands (u+v)^p in
the rank-2 skew polynomial ring, the Cauchy identity they satisfy, the
closed-form automorphism criteria and the antipode's closed form are test
helpers.
"""

from __future__ import annotations

import itertools

from .hopf_core import (MAX_DIM, AlgebraData, CoalgebraData, HopfData, LinearMap,
                        is_algebra_morphism, is_coalgebra_morphism, lincomb, tensor_mul)
from .report import VerificationReport, first_failure, labelled, merge_reports
from .rb_group import GroupTable
from .scalars import FieldCtx, Scalar

# ---------------------------------------------------------------------------
# quantum binomial coefficients


def _qbinom_rows(top: int, zeta: Scalar) -> list[list[Scalar]]:
    """rows[p][q] = {p choose q} at zeta for 0 <= q <= p <= top, from the
    recurrence {p+1 choose q} = zeta^q {p choose q} + {p choose q-1}."""
    one = zeta.ctx.one
    rows = [[one]]
    for _ in range(top):
        prev, zt, row = rows[-1], one, [one]
        for t in range(1, len(prev)):
            zt = zt * zeta
            row.append(zt * prev[t] + prev[t - 1])
        row.append(prev[-1])
        rows.append(row)
    return rows


def qbinom(p: int, q: int, zeta: Scalar) -> Scalar:
    """Gaussian binomial {p choose q} at zeta."""
    if not 0 <= q <= p:
        raise ValueError(f"qbinom needs 0 <= q <= p, got p={p}, q={q}")
    return _qbinom_rows(p, zeta)[p][q]


# ---------------------------------------------------------------------------
# group algebras and the Sweedler algebra


def group_algebra(G: GroupTable, ctx: FieldCtx) -> HopfData:
    """k[G]: basis the group elements, all of them group-like, S(g) = g^-1."""
    n = G.n
    one = ctx.one
    labels = [f"g{i}" for i in range(n)]
    mult = {(i, j): {G.table[i][j]: one} for i in range(n) for j in range(n)}
    alg = AlgebraData(ctx, n, {G.e: one}, mult, labels)
    delta = {i: {(i, i): one} for i in range(n)}
    coalg = CoalgebraData(ctx, n, delta, [one] * n, labels)
    S = LinearMap(ctx, [{G.inv[i]: one} for i in range(n)], n)
    return HopfData(alg, coalg, S)


def sweedler_h4(ctx: FieldCtx) -> HopfData:
    """The 4-dimensional algebra on {1, g, x, gx} with g^2 = 1, x^2 = 0,
    x g = -g x; needs 2 invertible."""
    if ctx.kind == "prime" and ctx.p == 2:
        raise ValueError("the Sweedler algebra degenerates in characteristic 2")
    one = ctx.one
    labels = ["1", "g", "x", "gx"]
    mult = {
        (0, 0): {0: one}, (0, 1): {1: one}, (0, 2): {2: one}, (0, 3): {3: one},
        (1, 0): {1: one}, (1, 1): {0: one}, (1, 2): {3: one}, (1, 3): {2: one},
        (2, 0): {2: one}, (2, 1): {3: -one},
        (3, 0): {3: one}, (3, 1): {2: -one},
    }
    alg = AlgebraData(ctx, 4, {0: one}, mult, labels)
    delta = {
        0: {(0, 0): one},
        1: {(1, 1): one},
        2: {(2, 0): one, (1, 2): one},
        3: {(3, 1): one, (0, 3): one},
    }
    coalg = CoalgebraData(ctx, 4, delta, [one, one, ctx.zero, ctx.zero], labels)
    S = LinearMap(ctx, [{0: one}, {1: one}, {3: -one}, {2: one}], 4)
    return HopfData(alg, coalg, S)


# ---------------------------------------------------------------------------
# the family H_{m, zeta, l, f}


class FamilyParams:
    """Parameters m, zeta, l, f for g^m = 1, x^l = f(x), x g = zeta g x.

    f_coeffs lists the coefficients of f by degree 0..l-1.  Construction
    enforces zeta^m = 1, the grading constraint f(zeta x) = zeta^l f(x)
    coefficient-wise and the cap MAX_DIM on the dimension m*l, so that no
    product is formed for an algebra that AlgebraData would reject.
    """

    __slots__ = ("m", "zeta", "l", "f_coeffs")

    def __init__(self, m: int, zeta: Scalar, l, f_coeffs=None):
        if not isinstance(m, int) or m < 1:
            raise ValueError("m must be a positive integer")
        if not isinstance(l, int) or l < 1:
            raise ValueError("l must be a finite positive integer; "
                             "the infinite-dimensional algebra A_inf is out of scope")
        ctx = zeta.ctx
        if zeta ** m != ctx.one:
            raise ValueError(f"zeta^{m} != 1 in {ctx.name()}")
        coeffs = list(f_coeffs) if f_coeffs else []
        if len(coeffs) > l:
            raise ValueError("f must have degree below l")
        coeffs = [c if isinstance(c, Scalar) else ctx.from_fraction(c) for c in coeffs]
        coeffs += [ctx.zero] * (l - len(coeffs))
        zl = zeta ** l
        for p, a in enumerate(coeffs):
            if not a.is_zero and a * zeta ** p != zl * a:
                raise ValueError(f"f(zeta x) != zeta^l f(x): fails at degree {p}")
        if m * l > MAX_DIM:
            raise ValueError(f"dimension {m * l} exceeds cap {MAX_DIM}")
        self.m = m
        self.zeta = zeta
        self.l = l
        self.f_coeffs = coeffs

    @property
    def ctx(self) -> FieldCtx:
        return self.zeta.ctx

    def index(self, a: int, b: int) -> int:
        return (a % self.m) * self.l + b

    def __repr__(self):
        f = ", ".join(str(c) for c in self.f_coeffs)
        return f"FamilyParams(m={self.m}, zeta={self.zeta}, l={self.l}, f=[{f}])"


def _family_xreduce(params: FamilyParams) -> list[dict]:
    """xreduce[N] writes x^N as a sparse combination of x^b with b < l."""
    ctx, l = params.ctx, params.l
    table = [{N: ctx.one} for N in range(l)]
    for N in range(l, max(2 * l - 1, l + 1)):
        table.append(lincomb((a, table[p + N - l])
                             for p, a in enumerate(params.f_coeffs) if not a.is_zero))
    return table


def _family_algebra(params: FamilyParams) -> AlgebraData:
    ctx, m, l = params.ctx, params.m, params.l
    dim = m * l
    labels = [f"g^{a}*x^{b}" for a in range(m) for b in range(l)]
    xreduce = _family_xreduce(params)
    zpow = [ctx.one]
    for _ in range(m * l):
        zpow.append(zpow[-1] * params.zeta)
    mult: dict = {}
    for a in range(m):
        for b in range(l):
            for c in range(m):
                for d in range(l):
                    # x^b g^c = zeta^(b c) g^c x^b
                    co = zpow[b * c]
                    g = (a + c) % m
                    terms = {params.index(g, e): co * ce
                             for e, ce in xreduce[b + d].items()}
                    mult[(params.index(a, b), params.index(c, d))] = terms
    return AlgebraData(ctx, dim, {0: ctx.one}, mult, labels)


def _family_parts(params: FamilyParams):
    """The algebra, x as a reduced vector (it can collapse when l = 1), and
    the tensors Delta(x)^b for b = 0..l, with Delta(x) = x (x) 1 + g (x) x."""
    ctx = params.ctx
    alg = _family_algebra(params)
    i1 = params.index(0, 0)
    ig = params.index(1, 0)
    if params.l > 1:
        xs = {params.index(0, 1): ctx.one}
    else:
        a0 = params.f_coeffs[0]
        xs = {} if a0.is_zero else {i1: a0}
    dx = lincomb([(ctx.one, {(i, i1): c for i, c in xs.items()}),
                  (ctx.one, {(ig, i): c for i, c in xs.items()})])
    dx_pow = [{(i1, i1): ctx.one}]
    for _ in range(params.l):
        dx_pow.append(tensor_mul(alg, dx_pow[-1], dx))
    return alg, xs, dx_pow


def family_hypotheses(params: FamilyParams) -> VerificationReport:
    """The existence conditions for the Hopf structure.

    Conditions 1-4 are the closed-form criteria: a_0 = 0, (l - p) % m = 0 at
    every term a_p x^p of f, and {l choose q} = 0 and {p choose q} = 0 at
    those p, for 0 < q < l and 0 < q < p.  The direct tensor computation
    Delta(x)^l - Delta(f(x)) = 0 is authoritative.  Each witness labels the
    term x^p or the binomial it decides.
    """
    return family_with_hypotheses(params)[1]


def family_with_hypotheses(params: FamilyParams) -> tuple[HopfData | None, VerificationReport]:
    """family(params) and family_hypotheses(params) from one build of the
    algebra; None in place of the Hopf algebra when the hypotheses fail."""
    ctx, m, l, zeta = params.ctx, params.m, params.l, params.zeta
    alg, xs, dx_pow = _family_parts(params)
    f = params.f_coeffs
    terms = labelled([[f"x^{p}" for p in range(l)]])
    difference = lincomb([(ctx.one, dx_pow[l])] + [(-a, dx_pow[p]) for p, a in enumerate(f)])
    binoms = _qbinom_rows(l, zeta)

    def binomial(identity, indices, lhs, rhs) -> dict:   # labels x^p and {p choose q}
        return {**terms(identity, indices, lhs, rhs),
                "labels": [f"x^{indices[0]}", "{%d choose %d}" % tuple(indices)]}

    hyp = merge_reports({
        "constant_term": first_failure("constant_term", [((0,), f[0], ctx.zero)], terms),
        "degree_congruence": first_failure(
            "degree_congruence",
            (((p,), 0 if a.is_zero else (l - p) % m, 0) for p, a in enumerate(f)), terms),
        "top_binomials": first_failure(
            "top_binomials", (((q,), binoms[l][q], ctx.zero) for q in range(1, l)),
            labelled([[f"{{{l} choose {q}}}" for q in range(l)]])),
        "f_term_binomials": first_failure(
            "f_term_binomials",
            (((p, q), binoms[p][q], ctx.zero)
             for p, a in enumerate(f) if not a.is_zero for q in range(1, p)), binomial),
        "delta_relation": first_failure("delta_relation", [((), difference, {})],
                                        labelled([], alg.labels)),
    })
    if not hyp.ok:
        return None, hyp
    delta: dict = {}
    for a in range(m):
        ga = params.index(a, 0)
        for b in range(l):
            delta[params.index(a, b)] = tensor_mul(alg, {(ga, ga): ctx.one}, dx_pow[b])
    counit = [ctx.one if b == 0 else ctx.zero for a in range(m) for b in range(l)]
    coalg = CoalgebraData(ctx, m * l, delta, counit, alg.labels)

    # S(x) = -g^-1 x, S(g) = g^-1, extended as an antihomomorphism:
    # S(g^a x^b) = S(x)^b S(g)^a
    sg_vec = {params.index((-1) % m, 0): ctx.one}
    sx_vec = lincomb((-c, alg.mul_basis(params.index((-1) % m, 0), i)) for i, c in xs.items())
    sx_pow = [{params.index(0, 0): ctx.one}]
    for _ in range(l - 1):
        sx_pow.append(alg.mul_sparse(sx_pow[-1], sx_vec))
    sg_pow = [{params.index(0, 0): ctx.one}]
    for _ in range(m - 1):
        sg_pow.append(alg.mul_sparse(sg_pow[-1], sg_vec))
    cols = [alg.mul_sparse(sx_pow[b], sg_pow[a]) for a in range(m) for b in range(l)]
    return HopfData(alg, coalg, LinearMap(ctx, cols, m * l)), hyp


def family(params: FamilyParams, ctx: FieldCtx) -> HopfData:
    """The Hopf algebra on g^a x^b (a major), given the hypotheses hold."""
    if ctx != params.ctx:
        raise ValueError("ctx does not match the context of the parameters")
    H, hyp = family_with_hypotheses(params)
    if H is None:
        raise ValueError(f"family hypotheses fail at {hyp.identity}: {hyp.witness}")
    return H


def taft(m: int, ctx: FieldCtx) -> HopfData:
    """The m^2-dimensional algebra with g^m = 1, x^m = 0, x g = zeta_m g x."""
    zeta = ctx.root_of_unity(m)
    return family(FamilyParams(m, zeta, m, None), ctx)


# ---------------------------------------------------------------------------
# automorphisms of the family


def _aut_candidate_map(params: FamilyParams, H: HopfData, k: int, c: list) -> LinearMap:
    """The linear extension of psi(g) = g^k, psi(x) = sum_q c_q x^q over the
    basis g^a x^b, via psi(g^a x^b) = psi(g)^a psi(x)^b."""
    ctx, m, l = params.ctx, params.m, params.l
    alg = H.algebra
    psix = {params.index(0, q): cq for q, cq in enumerate(c) if not cq.is_zero}
    psix_pow = [{params.index(0, 0): ctx.one}]
    for _ in range(l - 1):
        psix_pow.append(alg.mul_sparse(psix_pow[-1], psix))
    cols = [alg.mul_sparse({params.index((k * a) % m, 0): ctx.one}, psix_pow[b])
            for a in range(m) for b in range(l)]
    return LinearMap(ctx, cols, m * l)


def _aut_validate(params: FamilyParams, k: int, c) -> list:
    if not isinstance(k, int):
        raise ValueError("k must be an integer")
    c = list(c)
    if len(c) != params.l:
        raise ValueError(f"coefficient list must have length l = {params.l}")
    c = [x if isinstance(x, Scalar) else params.ctx.from_fraction(x) for x in c]
    for q, cq in enumerate(c):
        if not cq.is_zero and q % params.m != k % params.m:
            raise ValueError(f"nonzero coefficient at degree {q} violates q = k (mod m)")
    return c


def _aut_verdict(params: FamilyParams, H: HopfData, k: int, c: list) -> VerificationReport:
    """The morphism-plus-invertibility verdict for a validated candidate,
    decided against H = family(params)."""
    psi = _aut_candidate_map(params, H, k, c)
    return merge_reports({
        "algebra_morphism": is_algebra_morphism(psi, H, H),
        "coalgebra_morphism": is_coalgebra_morphism(psi, H, H),
        "invertible": first_failure(
            "invertible",
            [((), "bijective" if psi.is_invertible() else "rank deficient", "bijective")],
            labelled([])),
    })


def family_aut_report(params: FamilyParams, k: int, c) -> VerificationReport:
    """Full verdict for the candidate psi(g) = g^k, psi(x) = sum c_q x^q:
    psi must be an algebra and a coalgebra morphism, and bijective."""
    c = _aut_validate(params, k, c)
    return _aut_verdict(params, family(params, params.ctx), k, c)


def _aut_candidates(params: FamilyParams, grid: list):
    """The candidates (k, c) of family_aut_search in its order, one at a time."""
    ctx, m, l = params.ctx, params.m, params.l
    for k in range(m):
        positions = range(k or m, l, m)  # every q = k (mod m) with 1 <= q < l
        for values in itertools.product(grid, repeat=len(positions)):
            c = [ctx.zero] * l
            for q, v in zip(positions, values):
                c[q] = v
            yield k, c


def family_aut_search(params: FamilyParams, grid) -> list:
    """All (k, c) from the grid whose family_aut_report passes.

    Candidates place grid values at the degrees q = k (mod m), 1 <= q < l,
    zero elsewhere; output keeps the deterministic generation order (k
    ascending, grid order per position).  family(params) is built once,
    before any candidate is formed, and raises when the hypotheses fail;
    the search forms one candidate at a time."""
    grid = [x if isinstance(x, Scalar) else params.ctx.from_fraction(x) for x in grid]
    H = family(params, params.ctx)
    return [(k, c) for k, c in _aut_candidates(params, grid) if _aut_verdict(params, H, k, c).ok]
