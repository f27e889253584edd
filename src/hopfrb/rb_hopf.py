"""Relative Rota-Baxter operators B: H -> G between Hopf algebras.

The data is a module-algebra action Phi of G on H plus the operator B;
checks cover the four defining conditions, the circle product a o b =
a_(1) * Phi_{B(a_(2))}(b), the derived Hopf algebra with antipode
S_B(a) = Phi_{S_G(B(a_(1)))}(S_H(a_(2))) and the Hopf-brace identity.  The
group-flavoured case (the adjoint action, grbo_check) and the H^op case
(hrbo_check) are check_rrbo on an action fixed by H.  Both fixed actions
satisfy the module-algebra laws (condition 2) on any Hopf algebra, and on a
cocommutative H also condition 3 once condition 1 holds, so each checker
decides check_hopf(H) and decides a condition case by case only where a
premise fails; grbo_check decides Goncharov's definition: B a coalgebra map
with B(1) = 1 and the Rota-Baxter identity.  The docstrings carry the
proofs.  The exact-factorization construction gives operators on group
algebras.  A RelRBHopf keeps one table of basis circle products, read by
condition 4, the brace and the derived product.  The action laws that act
by a product of G are decided on a generating set of G, and the brace
identity on one of H, each under premises decided in the same call (see
check_action and check_hopf_brace).  Vectors and tensors are sparse dicts
(see hopf_core), and each side of an identity is one lincomb over Sweedler
terms, over vectors formed once ahead of the cases: Phi_{B(e_j)}(e_k) for
condition 3, (e_(1) o b) S(e_(2)) for the brace.
"""

from __future__ import annotations

import os

from .constructions import group_algebra
from .hopf_core import (ActionData, AlgebraData, HopfData, LinearMap, _check_action_dims,
                        _check_map_dims, _hopf_from_json_in, _table_from_json, check_algebra,
                        check_antipode, check_bialgebra_compat, check_coalgebra, check_hopf,
                        hopf_from_json, hopf_to_json, is_coalgebra_morphism, iterated_delta,
                        lincomb, opposite_hopf)
from .rb_group import GroupTable, is_subgroup
from .report import VerificationReport, decide_on, first_failure, labelled, merge_reports
from .scalars import FieldCtx, _json_shape, _load_json, parse_field


def action_from_json(obj: list, ctx: FieldCtx, dim_g: int, dim_h: int) -> ActionData:
    return ActionData(ctx, dim_g, dim_h, _table_from_json(obj, ctx, "ghi"))


class RelRBHopf:
    """The quadruple (H, G, Phi, B); construction checks fields and
    dimensions only, no identity.  The basis circle products e_i o e_j are
    kept on the object as they are first needed, so condition 4, the Hopf
    brace and the derived product share one table; the four fields are not
    to be reassigned once it is built."""

    __slots__ = ("H", "G", "phi", "B", "_circ")

    def __init__(self, H: HopfData, G: HopfData, phi: ActionData, B: LinearMap):
        if not H.ctx == G.ctx == phi.ctx == B.ctx:
            raise ValueError("H, G, phi and B use different scalar fields")
        _check_action_dims(phi, G, H, "G x H")
        _check_map_dims(B, H, G, "B")
        self.H = H
        self.G = G
        self.phi = phi
        self.B = B
        self._circ = {}

    def _circle(self, i: int, j: int) -> dict:
        """e_i o e_j, computed by circle on first use."""
        out = self._circ.get((i, j))
        if out is None:
            one = self.H.ctx.one
            out = self._circ[(i, j)] = circle(self, {i: one}, {j: one})
        return out


def check_action(phi: ActionData, G: HopfData, H: HopfData) -> VerificationReport:
    """The four module-algebra laws, first failure witnessed.

    The two laws that act by a product of G are decided for g in the
    generating set of G's algebra only, which is exact under premises about
    G decided here; if one fails, the law takes every g.  Either way a
    failing report is the one every g gives.

    action_composition, Phi_g Phi_h = Phi_gh for every h, given that G's
    algebra passes and Phi_1 is the identity: the g at which it holds form a
    subspace that holds 1 and is closed under products, as Phi_gg' Phi_h =
    Phi_g Phi_g'h = Phi_(gg')h.  So it is G.

    action_multiplicative, Phi_g(ab) = Phi_g1(a) Phi_g2(b) for every a and
    b, given also that action_composition passes and Delta is an algebra
    morphism of G (check_bialgebra_compat on the same generators): the g at
    which it holds form a subspace that holds 1 (Delta(1) = 1 (x) 1) and is
    closed under products, as Phi_gg'(ab) = Phi_g(Phi_g'1(a) Phi_g'2(b)) =
    Phi_(gg')1(a) Phi_(gg')2(b).  So it is G.  Each proof needs the law at
    every a and b, so H is not reduced as well.
    """
    _check_action_dims(phi, G, H, "G x H")
    one = H.ctx.one
    unit_g, unit_h = G.unit, H.unit

    def composition(gs):
        for g in gs:
            for h in range(G.dim):
                gh = G.algebra.mul_basis(g, h)
                for a in range(H.dim):
                    yield ((g, h, a), phi.apply({g: one}, phi.apply_basis(h, a)),
                           phi.apply(gh, {a: one}))

    def multiplicative(gs):
        for g in gs:
            dg = G.coalgebra.delta_basis(g)
            for a in range(H.dim):
                for b in range(H.dim):
                    rhs = lincomb((c, H.algebra.mul_sparse(phi.apply_basis(g1, a),
                                                           phi.apply_basis(g2, b)))
                                  for (g1, g2), c in dg.items())
                    yield (g, a, b), phi.apply({g: one}, H.algebra.mul_basis(a, b)), rhs

    def on_unit():
        for g in range(G.dim):
            yield ((g,), phi.apply({g: one}, unit_h),
                   lincomb([(G.coalgebra.counit[g], unit_h)]))

    unit = first_failure(
        "unit_acts_trivially",
        (((a,), phi.apply(unit_g, {a: one}), {a: one}) for a in range(H.dim)),
        labelled([H.labels], H.labels))
    gens = check_algebra(G).generators if unit.ok else None
    composed = decide_on(first_failure, "action_composition", composition, gens, G.dim,
                         labelled([G.labels, G.labels, H.labels], H.labels))
    gens = composed.generators
    if gens is not None and not check_bialgebra_compat(G, generators=gens).ok:
        gens = None
    return merge_reports({
        "unit_acts_trivially": unit,
        "action_composition": composed,
        "action_multiplicative": decide_on(
            first_failure, "action_multiplicative", multiplicative, gens, G.dim,
            labelled([G.labels, H.labels, H.labels], H.labels)),
        "action_on_unit": first_failure("action_on_unit", on_unit(),
                                        labelled([G.labels], H.labels)),
    })


def adjoint_action(H: HopfData) -> ActionData:
    """Phi_a(b) = a_(1) b S(a_(2)), the conjugation-style action of H on itself.

    It is a module-algebra action once check_hopf(H) passes.  Delta(1) =
    1 (x) 1 and S(1) = 1 give Phi_1(b) = b; S(ab) = S(b)S(a) and Delta(ab) =
    Delta(a)Delta(b) give Phi_a Phi_c(b) = a_(1) c_(1) b S(c_(2)) S(a_(2)) =
    Phi_ac(b); a_(2) S(a_(3)) = e(a_(2)) 1 gives Phi_a1(b) Phi_a2(c) =
    a_(1) b S(a_(2)) a_(3) c S(a_(4)) = Phi_a(bc); and a_(1) S(a_(2)) =
    e(a) 1 gives Phi_a(1) = e(a) 1.
    """
    A, S = H.algebra, H.antipode
    phi = {(g, h): lincomb((c, A.mul_sparse(A.mul_basis(g1, h), S.cols[g2]))
                           for (g1, g2), c in H.coalgebra.delta_basis(g).items())
           for g in range(H.dim) for h in range(H.dim)}
    return ActionData(H.ctx, H.dim, H.dim, phi)


def _cond3_cases(data: RelRBHopf):
    """Both sides of the compatibility equation at every basis pair (a, b)
    as Sweedler sums: with u = Phi_{B(a_(2))}(b),

        sum u_(1) (x) a_(1) u_(2) = sum Phi_{B(a_(1))}(b_(1)) (x) a_(2) Phi_{B(a_(3))}(b_(2)).

    Each Phi_{B(e_j)}(e_k) is formed once per call, Delta^2(e_a) once per a."""
    H, phi, B = data.H, data.phi, data.B
    A, C, one = H.algebra, H.coalgebra, H.ctx.one
    act = {(j, k): phi.apply(B.cols[j], {k: one}) for j in range(H.dim) for k in range(H.dim)}

    def outer(v: dict, w: dict) -> dict:
        return {(p, r): x * y for p, x in v.items() for r, y in w.items()}

    for a in range(H.dim):
        da, d2a = C.delta_basis(a), iterated_delta(C, {a: one}, 3)
        for b in range(H.dim):
            db = C.delta_basis(b)
            lhs = lincomb((c * x * d, outer({u1: one}, A.mul_basis(a1, u2)))
                          for (a1, a2), c in da.items() for u, x in act[a2, b].items()
                          for (u1, u2), d in C.delta_basis(u).items())
            rhs = lincomb((c * d, outer(act[a1, b1], A.mul_sparse({a2: one}, act[a3, b2])))
                          for (a1, a2, a3), c in d2a.items() for (b1, b2), d in db.items())
            yield (a, b), lhs, rhs


def circle(data: RelRBHopf, a: dict, b: dict) -> dict:
    """a o b = a_(1) * Phi_{B(a_(2))}(b) for sparse vectors a, b."""
    H, phi, B = data.H, data.phi, data.B
    one = H.ctx.one
    return lincomb((ai * c, H.algebra.mul_sparse({a1: one}, phi.apply(B.cols[a2], b)))
                   for i, ai in a.items() for (a1, a2), c in H.coalgebra.delta_basis(i).items())


def check_rrbo(data: RelRBHopf, full: bool = False) -> VerificationReport:
    """Conditions 1-4 in order, stopping at the first failure unless full.

    Condition 2 is decided by check_action, and condition 3 in its
    compatibility form, on every basis pair.
    """
    return _check_rrbo(data, full, None)


def _check_rrbo(data: RelRBHopf, full: bool,
                hopf: VerificationReport | None) -> VerificationReport:
    """check_rrbo, given hopf = check_hopf(H) when Phi is an action fixed by
    H (adjoint_action with G = H, or hrbo_action with G = H^op), and None
    for any other Phi.

    Condition 2 passes by proof once hopf passes, as both fixed actions are
    module-algebra actions on any Hopf algebra (see adjoint_action and
    hrbo_action).  Its part keeps hopf as hopf.

    Condition 3 passes by proof once also both condition-1 parts pass and H
    is cocommutative (Delta = tau Delta, decided on the basis).  Then Phi is
    a module-coalgebra action, Delta Phi_x(b) = Phi_x1(b_(1)) (x)
    Phi_x2(b_(2)): by Delta S = (S (x) S) tau Delta, Delta Phi_x(b) is
    x_(1) b_(1) S(x_(4)) (x) x_(2) b_(2) S(x_(3)) for the adjoint action and
    S(x_(2)) b_(1) x_(3) (x) S(x_(1)) b_(2) x_(4) for hrbo_action, and
    cocommutativity reorders the legs of x.  H^op has H's coalgebra, so
    either way B is a coalgebra map H -> H, and the left side, with
    u = Phi_B(a_(2))(b), is Phi_B(a_(2))(b_(1)) (x) a_(1) Phi_B(a_(3))(b_(2)):
    the right side with the legs a_(1) and a_(2) swapped, which
    cocommutativity allows.  Its part keeps the cocommutativity cases as
    cocommutative.

    A part passed by proof is the merged report of the premises decided for
    it, so its count is theirs.  Where a premise fails, as when a full run
    reaches condition 3 past a failing condition 1, the condition is decided
    case by case, as check_rrbo decides it.  So every report is check_rrbo's
    on the same data, up to the counts and details of a part that passed by
    proof.
    """
    H, G, B = data.H, data.G, data.B
    proved = hopf is not None and hopf.ok
    pairs = [(a, b) for a in range(H.dim) for b in range(H.dim)]
    parts = {"condition_1_coalgebra": is_coalgebra_morphism(B, H, G),
             "condition_1_unit": first_failure(
                 "condition_1_unit", [((), B.apply(H.unit), G.unit)], labelled([], G.labels))}

    def done() -> bool:
        return not full and any(not p.ok for p in parts.values())

    if not done():
        parts["condition_2_action"] = (merge_reports({"hopf": hopf}) if proved
                                       else check_action(data.phi, G, H))

    if not done():
        # conditions 1 and 2 pass here unless the run is full
        if proved and all(p.ok for p in parts.values()) and (co := _cocommutative(H)).ok:
            parts["condition_3_compat"] = merge_reports({"cocommutative": co})
        else:
            parts["condition_3_compat"] = first_failure(
                "condition_3_compat", _cond3_cases(data), labelled([H.labels, H.labels], H.labels))

    if not done():
        images = B.cols

        def condition_4():
            for a, b in pairs:
                yield ((a, b), G.algebra.mul_sparse(images[a], images[b]),
                       B.apply(data._circle(a, b)))

        parts["condition_4_rb"] = first_failure(
            "condition_4_rb", condition_4(), labelled([H.labels, H.labels], G.labels))

    return merge_reports(parts)


def derived_hopf(data: RelRBHopf) -> HopfData:
    """(H, o, Delta_H, eps_H, S_B): the Hopf algebra induced by the operator."""
    rep = check_rrbo(data)
    if not rep.ok:
        raise ValueError(f"not a relative Rota-Baxter operator: fails {rep.identity}")
    H, G, phi, B = data.H, data.G, data.phi, data.B
    ctx = H.ctx
    n = H.dim
    # condition 4 passed, so the circle table holds every basis pair
    alg = AlgebraData(ctx, n, H.unit, data._circ, H.labels)
    cols = [lincomb((c, phi.apply(G.antipode.apply(B.cols[a1]), H.antipode.cols[a2]))
                    for (a1, a2), c in H.coalgebra.delta_basis(a).items())
            for a in range(n)]
    return HopfData(alg, H.coalgebra, LinearMap(ctx, cols, n))


def _brace_generators(data: RelRBHopf) -> list | None:
    """The generating set that decides the Hopf brace identity, or None
    when a premise of check_hopf_brace fails."""
    H = data.H
    gens = check_algebra(H).generators
    if gens is None or not (check_coalgebra(H).ok and check_antipode(H).ok):
        return None
    for a in range(H.dim):   # a o 1 = a
        if lincomb((c, data._circle(a, k)) for k, c in H.unit.items()) != {a: H.ctx.one}:
            return None
    return gens


def check_hopf_brace(data: RelRBHopf) -> VerificationReport:
    """a o (b*c) = (a_(1) o b) * S_H(a_(2)) * (a_(3) o c) for every basis a
    and c and b in the generating set of H's algebra.  Delta^2(a) is
    (Delta (x) id) Delta(a), so the right side is the sum over a' (x) a_3 in
    Delta(a) of rho(b, a') * (a_3 o c), rho(b, a') = (a'_(1) o b) * S(a'_(2)).

    The premises, decided here, are that H's algebra, coalgebra and antipode
    pass and that a o 1 = a for every basis a; if one fails, b takes every
    basis element, and a failure on the generators is rerun on every b, so
    a failing report is the one every b gives.  Given them, the b at which
    the identity holds for every a and c form a subspace.  It holds 1: by
    a o 1 = a and a_(1) S(a_(2)) (x) a_(3) = 1 (x) a, the right side at b = 1
    is a o c.  It is closed under products: expanding a o (bb'c) at b and
    then at b' at a_(3), and (a_(1) o bb') at b with c = b', gives one
    expression by coassociativity.  So it is H.

    Phi_g is invertible for each group-like g of G once check_hopf(G) and
    condition 2 of check_rrbo pass: g S(g) = S(g) g = e(g) 1 = 1, so Phi_g
    Phi_S(g) = Phi_S(g) Phi_g = Phi_1 = id by action_composition and
    unit_acts_trivially.  The tests, not this check, decide it.
    """
    H = data.H
    n, circ, mul = H.dim, data._circle, H.algebra.mul_sparse

    def brace_cases(bs):
        rho = {(b, a): lincomb((c, mul(circ(x, b), H.antipode.cols[y]))
                               for (x, y), c in H.coalgebra.delta_basis(a).items())
               for b in bs for a in range(n)}
        for a in range(n):
            da = H.coalgebra.delta_basis(a)
            for b in bs:
                for c in range(n):
                    # a o (b*c) by linearity of o in its right argument
                    lhs = lincomb((ck, circ(a, k)) for k, ck in H.algebra.mul_basis(b, c).items())
                    rhs = lincomb((ct, mul(rho[b, a1], circ(a3, c)))
                                  for (a1, a3), ct in da.items())
                    yield (a, b, c), lhs, rhs

    return merge_reports({"hopf_brace": decide_on(
        first_failure, "hopf_brace", brace_cases, _brace_generators(data), n,
        labelled([H.labels] * 3, H.labels))})


# ---------------------------------------------------------------------------
# constructions


def exact_factorization_rrb(G: GroupTable, A, L, ctx: FieldCtx) -> RelRBHopf:
    """From a group factoring uniquely as A*L: H = k[G], the G-side is
    k[L]^op, Phi_l(h) = l^-1 h l, B(a l) = l."""
    A = sorted(set(A))
    L = sorted(set(L))
    if not is_subgroup(G, A):
        raise ValueError("A is not a subgroup")
    if not is_subgroup(G, L):
        raise ValueError("L is not a subgroup")
    factor: dict = {}
    for a in A:
        for l in L:
            g = G.table[a][l]
            factor.setdefault(g, []).append((a, l))
    for g in range(G.n):
        fs = factor.get(g, [])
        if len(fs) != 1:
            raise ValueError(f"factorization not exact: element {g} has "
                             f"{len(fs)} factorizations {fs}")
    H = group_algebra(G, ctx)
    lpos = {l: i for i, l in enumerate(L)}
    sub = GroupTable([[lpos[G.table[a][b]] for b in L] for a in L], name="L")
    Gside = opposite_hopf(group_algebra(sub, ctx))
    phi: dict = {}
    for i, l in enumerate(L):
        linv = G.inv[l]
        for h in range(G.n):
            phi[(i, h)] = {G.table[G.table[linv][h]][l]: ctx.one}
    act = ActionData(ctx, len(L), G.n, phi)
    B = LinearMap(ctx, [{lpos[factor[g][0][1]]: ctx.one} for g in range(G.n)], len(L))
    return RelRBHopf(H, Gside, act, B)


def _cocommutative(H: HopfData) -> VerificationReport:
    """Delta = tau Delta on every basis element."""
    C = H.coalgebra

    def cases():
        for i in range(H.dim):
            d = C.delta_basis(i)
            yield (i,), d, {(k, j): c for (j, k), c in d.items()}

    return first_failure("cocommutative", cases(), labelled([H.labels], H.labels))


def grbo_check(H: HopfData, B: LinearMap) -> VerificationReport:
    """B: H -> H as a relative operator on the adjoint action
    Phi_a(b) = a_(1) b S(a_(2)): check_rrbo under the part name rrbo, with
    conditions 2 and 3 proved where H's Hopf axioms prove them (see
    _check_rrbo).  On a cocommutative H it decides Goncharov's definition:
    B a coalgebra map with B(1) = 1 and the Rota-Baxter identity."""
    data = RelRBHopf(H, H, adjoint_action(H), B)
    return merge_reports({"rrbo": _check_rrbo(data, False, check_hopf(H))})


def hrbo_action(H: HopfData) -> ActionData:
    """Phi_a(b) = S(a_(1)) b a_(2), an action of H^op on H.

    It is a module-algebra action once check_hopf(H) passes; H^op has H's
    unit, coproduct and counit, and a*c in H^op is ca.  S(1) = 1 gives
    Phi_1(b) = b; S(ca) = S(a)S(c) and Delta(ca) = Delta(c)Delta(a) give
    Phi_a Phi_c(b) = S(a_(1)) S(c_(1)) b c_(2) a_(2) = Phi_ca(b);
    a_(2) S(a_(3)) = e(a_(2)) 1 gives Phi_a1(b) Phi_a2(c) =
    S(a_(1)) b a_(2) S(a_(3)) c a_(4) = Phi_a(bc); and S(a_(1)) a_(2) =
    e(a) 1 gives Phi_a(1) = e(a) 1.
    """
    A, S, one = H.algebra, H.antipode, H.ctx.one
    phi = {(g, h): lincomb((c, A.mul_sparse(A.mul_sparse(S.cols[g1], {h: one}), {g2: one}))
                           for (g1, g2), c in H.coalgebra.delta_basis(g).items())
           for g in range(H.dim) for h in range(H.dim)}
    return ActionData(H.ctx, H.dim, H.dim, phi)


def hrbo_check(H: HopfData, B: LinearMap) -> VerificationReport:
    """B: H -> H^op as a relative operator on Phi_a(b) = S(a_(1)) b a_(2):
    check_rrbo(full=True) under the part name rrbo, with conditions 2 and 3
    proved where H's Hopf axioms prove them (see _check_rrbo)."""
    data = RelRBHopf(H, opposite_hopf(H), hrbo_action(H), B)
    return merge_reports({"rrbo": _check_rrbo(data, True, check_hopf(H))})


# ---------------------------------------------------------------------------
# serialization


def rrb_to_json(data: RelRBHopf) -> dict:
    return {"H": hopf_to_json(data.H), "G": hopf_to_json(data.G),
            "phi": data.phi.to_json(), "B": data.B.to_json()}


def rrb_from_json(obj: dict, base_dir: str = ".") -> RelRBHopf:
    """The H and G entries may be inline Hopf data or a path string.  G, phi
    and B are parsed in H's field context, so that products mixing them
    share its zero and one."""
    _json_shape(obj, "relative operator", dict,
                {"H": (dict, str), "G": (dict, str), "phi": list, "B": list})
    h, g = (_load_json(os.path.join(base_dir, side)) if isinstance(side, str) else side
            for side in (obj["H"], obj["G"]))
    H = hopf_from_json(h)
    g = _json_shape(g, "Hopf data", dict, {"field": str})
    if parse_field(g["field"]) != H.ctx:
        raise ValueError("H and G use different scalar fields")
    G = _hopf_from_json_in(g, H.ctx)
    act = action_from_json(obj["phi"], H.ctx, G.dim, H.dim)
    B = LinearMap.from_json(obj["B"], H.ctx)
    return RelRBHopf(H, G, act, B)
