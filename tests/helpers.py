"""Helpers that only the tests and tools/make_witnesses.py use: dense
polynomial arithmetic over Scalars, the automorphisms of a small group,
whether a group is abelian, the semidirect product and the graph criterion
for relative Rota-Baxter operators, the weight flip of an operator, the
argument of the weight-lambda Rota-Baxter identity, a group transported
through a bijection, the quantum binomial by expansion, the
Cauchy identity for quantum binomials, the closed forms of the antipode
of the family H_{m,zeta,l,f} and of the criteria for its automorphisms,
two root-of-unity helpers, a call counter, an in-process stand-in for the
worker pools, the operator search that checks every pair of assigned
elements, the antipode identities that the convolution laws imply
on a bialgebra, the operator B(a) = e(a)1, a Lie bracket rescaled
by lambda, the invertibility of Phi at group-likes that check_hopf(G) and
check_action imply, and the Sweedler-leg toolkit.

The leg toolkit (tensor_apply_counit, tensor_apply_map, tensor_mul_legs,
tensor_permute, _action_join) belongs to the oracles: the library forms
each side of an identity as one Sweedler sum, and the oracles compose leg
operations on rank-2 to rank-7 tensors instead, so they compute the same
sides a second, independent way.  cond3_leg_sides, coalgebra_leg_form,
brace_leg_sides, antipode_leg_form and coalgebra_morphism_leg_form are the
leg forms of condition 3, the Hopf brace, check_coalgebra, check_antipode and
is_coalgebra_morphism."""

import functools
import itertools
import os
from concurrent.futures import Future
from math import gcd

from hopfrb import constructions, rb_group
from hopfrb.constructions import FamilyParams, qbinom
from hopfrb.hopf_core import (ActionData, AlgebraData, CoalgebraData, LinearMap,
                              check_algebra, check_antipode, check_bialgebra_compat,
                              check_coalgebra, check_hopf, is_group_like, iterated_delta,
                              lincomb, tensor_apply_delta, tensor_outer)
from hopfrb.rb_group import GroupAction, GroupTable, is_subgroup
from hopfrb.rb_hopf import check_action, circle
from hopfrb.rb_lie import LieData
from hopfrb.report import VerificationReport, first_failure, labelled, merge_reports
from hopfrb.scalars import FieldCtx, Scalar, multiplicative_order

# dense polynomials over Scalars, coefficients low degree first


def _poly_trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [a[0] - a[0]] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_divmod(num: list, den: list) -> tuple[list, list]:
    num = list(num)
    assert den, "division by zero polynomial"
    lead = den[-1]
    q = [lead - lead] * max(0, len(num) - len(den) + 1)
    lead_inv = lead ** -1
    for k in range(len(num) - len(den), -1, -1):
        coef = num[k + len(den) - 1] * lead_inv
        if coef:
            q[k] = coef
            for i, di in enumerate(den):
                num[k + i] -= coef * di
    return _poly_trim(q), _poly_trim(num)


def _poly_sub(a: list, b: list) -> list:
    if not a and not b:
        return []
    x = (a or b)[0]
    zero = x - x
    out = [(a[i] if i < len(a) else zero) - (b[i] if i < len(b) else zero)
           for i in range(max(len(a), len(b)))]
    return _poly_trim(out)


def automorphisms(G: GroupTable) -> list[tuple]:
    """All automorphisms of G, by filtering permutations; fine for n <= 8."""
    out = []
    for p in itertools.permutations(range(G.n)):
        if p[G.e] != G.e:
            continue
        if all(p[G.table[a][b]] == G.table[p[a]][p[b]] for a in range(G.n) for b in range(G.n)):
            out.append(p)
    return out


def is_abelian(G: GroupTable) -> bool:
    return all(G.table[a][b] == G.table[b][a] for a in range(G.n) for b in range(a))


def semidirect(H: GroupTable, G: GroupTable, psi: GroupAction) -> GroupTable:
    """H x| G with (h1,g1)(h2,g2) = (h1 Psi_{g1}(h2), g1 g2); pair (h,g) at
    index h*|G| + g."""
    act = psi.check(H, G)
    if not act.ok:
        raise ValueError(f"invalid action: {act.identity} witness {act.witness}")
    n = H.n * G.n
    table = [[0] * n for _ in range(n)]
    for h1 in range(H.n):
        for g1 in range(G.n):
            for h2 in range(H.n):
                for g2 in range(G.n):
                    h = H.table[h1][psi.apply(g1, h2)]
                    table[h1 * G.n + g1][h2 * G.n + g2] = h * G.n + G.table[g1][g2]
    return GroupTable(table, name=f"{H.name}:{G.name}")


def graph_is_subgroup(H: GroupTable, G: GroupTable, psi: GroupAction, B) -> bool:
    """Is {(h, B(h))} a subgroup of the semidirect product H x| G?  B is a
    relative Rota-Baxter operator exactly when it is: the criterion that
    rb_group.relative_rb_check is compared against."""
    B = rb_group._validate_map(H, B, codomain=G)
    return is_subgroup(semidirect(H, G, psi), [h * G.n + B[h] for h in range(H.n)])


def weight_flip(B, G: GroupTable) -> tuple:
    """C(a) = B(a^-1); swaps the weight +1 and -1 identities."""
    return tuple(B[G.inv[a]] for a in range(G.n))


def rb_argument(G: GroupTable, lam: int, g: int, v: int, h: int) -> int:
    """(g^lam v h^lam v^-1)^mu with lam*mu = 1 modulo exp(G), written out
    with G.power: the element whose image must be B(g)B(h) when B(g) = v."""
    ex = G.exponent()
    mu = pow(lam % ex, -1, ex)
    t = G.table
    return G.power(t[t[t[G.power(g, lam)][v]][G.power(h, lam)]][G.inv[v]], mu)


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


def cauchy_check(q: int, zeta: Scalar) -> VerificationReport:
    """prod_{t<q} (1 + zeta^t u) = sum_t {q choose t} zeta^(t(t-1)/2) u^t."""
    ctx = zeta.ctx
    lhs = [ctx.one]
    zt = ctx.one
    for _ in range(q):
        lhs = _poly_mul(lhs, [ctx.one, zt])
        zt = zt * zeta
    rhs = [qbinom(q, t, zeta) * zeta ** (t * (t - 1) // 2) for t in range(q + 1)]
    lhs = lhs + [ctx.zero] * (q + 1 - len(lhs))
    return first_failure("cauchy_binomial", (((q, t), lhs[t], rhs[t]) for t in range(q + 1)),
                         labelled([]))


def antipode_closed_form(params: FamilyParams, p: int, q: int) -> tuple[Scalar, int]:
    """Coefficient and basis index of S(g^p x^q): the sign-and-power formula
    (-1)^q zeta^(-pq - q(q-1)/2) on g^(-p-q) x^q."""
    if not (0 <= p < params.m and 0 <= q < params.l):
        raise ValueError(f"basis exponents out of range: p={p}, q={q}")
    zeta = params.zeta
    coeff = (-params.ctx.one) ** q * zeta ** (-(p * q) - q * (q - 1) // 2)
    return coeff, params.index((-p - q) % params.m, q)


def aut_theorem_conditions(params: FamilyParams, k: int, c) -> dict:
    """The closed-form criteria for psi(g) = g^k, psi(x) = sum_q c_q x^q to
    be a Hopf automorphism: k prime to m, vanishing binomials {q choose t}
    for 0 < t < q at every nonzero c_q, k^2 = 1 modulo the order d of zeta,
    and u^l - f(u) dividing psi_x(u)^l - f(psi_x(u)).  The tests show that
    on the candidates of family_aut_search, family_aut_report passes exactly
    when all four hold and c_1 != 0."""
    ctx, m, l = params.ctx, params.m, params.l
    c = [x if isinstance(x, Scalar) else ctx.from_fraction(x) for x in c]
    binoms_ok = all(qbinom(q, t, params.zeta).is_zero
                    for q, cq in enumerate(c) if not cq.is_zero for t in range(1, q))
    pu_pow = [[ctx.one]]
    for _ in range(l):
        pu_pow.append(_poly_mul(pu_pow[-1], c))
    num = pu_pow[l]
    for p, a in enumerate(params.f_coeffs):
        if not a.is_zero:
            num = _poly_sub(num, [a * x for x in pu_pow[p]])
    den = [-a for a in params.f_coeffs] + [ctx.one]
    _, rem = _poly_divmod(num, den)
    d = multiplicative_order(params.zeta, m)
    return {
        "k_coprime_to_m": gcd(k, m) == 1 or m == 1,
        "vanishing_binomials": binoms_ok,
        "k_squared_mod_d": (k * k) % d == 1 % d,
        "relation_divisibility": not rem,
    }


def is_primitive_root(z: Scalar, m: int) -> bool:
    """True when z has multiplicative order exactly m."""
    if m < 1:
        raise ValueError(f"order must be positive, got {m}")
    return multiplicative_order(z, m) == m


def zeta_power(ctx: FieldCtx, n: int, k: int = 1) -> Scalar:
    """k-th power of the designated order-n root of unity in ctx."""
    z = ctx.root_of_unity(n)
    return z ** (k % n)


def counting(monkeypatch, module, name: str) -> list:
    """Replace module.name by a wrapper that appends to the returned list."""
    calls = []
    fn = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return fn(*args)
    monkeypatch.setattr(module, name, wrapper)
    return calls


class InlinePool:
    """ProcessPoolExecutor as the searches use it, running every task at once
    in this process; it records the worker count it was asked for and takes
    no notice of the start method."""

    def __init__(self, started: list, max_workers: int, mp_context=None):
        started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = Future()
        try:
            fut.set_result(fn(*args))
        except Exception as e:
            fut.set_exception(e)
        return fut

    def map(self, fn, *iterables):
        return list(map(fn, *iterables))


def inline_pools(monkeypatch, cores: int) -> list:
    """Run the pools of enumerate_rb and family_aut_search inline on a host
    of this many cores; the returned list receives each pool's worker count."""
    started = []
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    for module in (rb_group, constructions):
        monkeypatch.setattr(module, "ProcessPoolExecutor", functools.partial(InlinePool, started))
    return started


def all_pairs_search(G: GroupTable, weight: int, seeds, cap: int):
    """rb_group._search_partition as it was before it checked only the rows
    of decided elements: (hits, count) by the same depth-first search, with
    every element taken from the queue paired, both ways round, with itself
    and every element assigned before it."""
    n, t = G.n, G.table
    row = rb_group._relative_rows(rb_group._power_table(G, weight), G._conj)
    arg = [[row(g, v) for v in range(n)] for g in range(n)]
    img = [-1] * n
    order: list[int] = []
    count = 0

    def force(k: int, rhs: int) -> bool:
        nonlocal count
        cur = img[k]
        if cur == -1:
            count += 1
            if count > cap:
                raise rb_group.CapExceeded(count, cap)
            img[k] = rhs
            order.append(k)
            return True
        return cur == rhs

    def assign(x: int, v: int) -> bool:
        nonlocal count
        count += 1
        if count > cap:
            raise rb_group.CapExceeded(count, cap)
        img[x] = v
        order.append(x)
        qi = len(order) - 1
        while qi < len(order):
            a = order[qi]
            va = img[a]
            for b in order[:qi + 1]:
                vb = img[b]
                if not (force(arg[a][va][b], t[va][vb]) and force(arg[b][vb][a], t[vb][va])):
                    return False
            qi += 1
        return True

    for x, v in seeds:
        if not (assign(x, v) if img[x] == -1 else img[x] == v):
            return [], count
    hits: list[tuple] = []
    stack: list[list[int]] = []  # frames [element, next image to try, len(order) on entry]

    def descend():
        if -1 in img:
            stack.append([img.index(-1), 0, len(order)])
        else:
            hits.append(tuple(img))

    descend()
    while stack:
        frame = stack[-1]
        x, v, mark = frame
        while len(order) > mark:
            img[order.pop()] = -1
        if v == n:
            stack.pop()
            continue
        frame[1] = v + 1
        if assign(x, v):
            descend()
    return hits, count


def antipode_implied(H) -> VerificationReport:
    """S(1) = 1, e S = e, S(ab) = S(b)S(a) and Delta S = (S (x) S) tau Delta,
    on every basis element and pair: what the convolution laws imply on a
    bialgebra (Sweedler, Hopf Algebras, Prop. 4.0.1), decided on its own."""
    A, C, S = H.algebra, H.coalgebra, H.antipode
    images = S.cols

    def cases():
        yield ("antipode_unit",), S.apply(A.unit), A.unit
        for i in range(A.dim):
            yield ("antipode_counit", i), C.counit_sparse(images[i]), C.counit[i]
        for i in range(A.dim):
            for j in range(A.dim):
                yield (("antipode_antihom_mult", i, j), S.apply(A.mul_basis(i, j)),
                       A.mul_sparse(images[j], images[i]))
        for i in range(A.dim):
            twisted = tensor_apply_map(S, tensor_apply_map(S, C.delta_basis(i), 0), 1)
            yield (("antipode_antihom_comult", i), iterated_delta(C, images[i], 2),
                   tensor_permute(twisted, [1, 0]))

    return first_failure("antipode_implied", cases(), labelled([A.labels] * 2, A.labels))


def antipode_with_implied(H) -> VerificationReport:
    """The convolution laws of check_antipode, then antipode_implied, as one
    identity named antipode: count, witness and failing identity are those
    of first_failure over both case lists in turn."""
    conv = check_antipode(H)
    if not conv.ok:
        return conv
    rest = antipode_implied(H)
    checked = conv.stats["identities_checked"] + rest.stats["identities_checked"]
    if rest.ok:
        return VerificationReport.passing("antipode", identities_checked=checked)
    rest.stats["identities_checked"] = checked
    return rest


def check_hopf_with_implied(H) -> VerificationReport:
    """check_hopf with every multiplicative identity on every basis pair and
    the antipode part antipode_with_implied."""
    return merge_reports({
        "algebra": check_algebra(H),
        "coalgebra": check_coalgebra(H),
        "bialgebra_compat": check_bialgebra_compat(H),
        "antipode": antipode_with_implied(H),
    })


def counit_unit_operator(H) -> LinearMap:
    """B(a) = eps(a) 1, a relative Rota-Baxter operator for any adjoint action."""
    cols = []
    for i in range(H.dim):
        eps = H.coalgebra.counit[i]
        cols.append({k: eps * c for k, c in H.unit.items()})
    return LinearMap(H.ctx, cols, H.dim)


def rescale_bracket(L: LieData, lam: Scalar) -> LieData:
    """The bracket lambda*[u, v]: with the adjoint action, the relative
    identity over it is the weight-lambda identity of check_rb_lie_weight."""
    scaled = {ij: {k: lam * c for k, c in terms.items()}
              for ij, terms in L.brackets.items()}
    return LieData(L.ctx, L.dim, scaled, L.labels)


def action_at(phi: ActionData, v: dict) -> LinearMap:
    """Phi_v on H, for a sparse vector v of G."""
    one = phi.ctx.one
    return LinearMap(phi.ctx, [phi.apply(v, {h: one}) for h in range(phi.dim_h)], phi.dim_h)


def group_likes_act_invertibly(phi: ActionData, G, H, group_likes) -> bool | None:
    """Is Phi_v invertible at each group-like vector v of G?  None when
    check_hopf(G) or check_action fails; when both pass it must be True, as
    v S(v) = S(v) v = 1 gives Phi_v Phi_S(v) = Phi_S(v) Phi_v = Phi_1 = id."""
    if not (check_hopf(G).ok and check_action(phi, G, H).ok):
        return None
    assert group_likes and all(is_group_like(G, v) for v in group_likes)
    return all(action_at(phi, v).is_invertible() for v in group_likes)


# ---------------------------------------------------------------------------
# the Sweedler-leg toolkit of the oracles
#
# Each operation acts on one or two legs of a sparse tensor {index tuple:
# scalar}.  The library forms the sides of its identities as Sweedler sums;
# the oracles below and in the test modules compose these operations
# instead, so they are a second, independent computation of the same sides.


def tensor_apply_counit(coalg: CoalgebraData, t: dict, leg: int) -> dict:
    return lincomb((coalg.counit[tup[leg]], {tup[:leg] + tup[leg + 1:]: c})
                   for tup, c in t.items())


def tensor_apply_map(f: LinearMap, t: dict, leg: int) -> dict:
    return lincomb((c, {tup[:leg] + (k,) + tup[leg + 1:]: x
                        for k, x in f.cols[tup[leg]].items()})
                   for tup, c in t.items())


def tensor_mul_legs(alg: AlgebraData, t: dict, leg: int) -> dict:
    """Multiply legs leg and leg+1 together, lowering the rank by one."""
    return lincomb((c, {tup[:leg] + (k,) + tup[leg + 2:]: d
                        for k, d in alg.mul_basis(tup[leg], tup[leg + 1]).items()})
                   for tup, c in t.items())


def tensor_permute(t: dict, perm: list[int]) -> dict:
    """Output slot s takes the source leg perm[s]."""
    rank = len(next(iter(t), perm))  # an empty tensor takes any permutation
    if sorted(perm) != list(range(rank)):
        raise ValueError(f"{perm} is not a permutation of {rank} legs")
    return {tuple(tup[p] for p in perm): c for tup, c in t.items()}


def _action_join(phi: ActionData, t: dict, gleg: int, hleg: int) -> dict:
    """Consume legs (gleg, hleg) into Phi_{e_g}(e_h); the result sits where
    hleg was, with gleg removed."""
    if gleg == hleg:
        raise ValueError(f"leg {gleg} cannot act on itself")

    def joined(tup: tuple, k: int) -> tuple:
        lst = list(tup)
        lst[hleg] = k
        del lst[gleg]
        return tuple(lst)

    return lincomb((c, {joined(tup, k): ck
                        for k, ck in phi.apply_basis(tup[gleg], tup[hleg]).items()})
                   for tup, c in t.items())


def cond3_leg_sides(data):
    """The cases of rb_hopf._cond3_cases by leg operations: the a-only
    tensors once per a, then per b an action join, a coproduct of the
    joined leg and a leg product on the left, two joins and a leg product
    on the right."""
    H, phi, B = data.H, data.phi, data.B
    C, one = H.coalgebra, H.ctx.one
    for a in range(H.dim):
        left = tensor_apply_map(B, C.delta_basis(a), 1)              # [a1, B(a2)]
        right = iterated_delta(C, {a: one}, 3)
        right = tensor_apply_map(B, tensor_apply_map(B, right, 0), 2)  # [Ba1, a2, Ba3]
        for b in range(H.dim):
            t = _action_join(phi, tensor_outer(left, {(b,): one}), 1, 2)  # [a1, u]
            t = tensor_apply_delta(C, t, 1)                  # [a1, u1, u2]
            t = tensor_permute(t, [1, 0, 2])                 # [u1, a1, u2]
            lhs = tensor_mul_legs(H.algebra, t, 1)           # [u1, a1*u2]
            t = tensor_outer(right, C.delta_basis(b))        # [Ba1, a2, Ba3, b1, b2]
            t = _action_join(phi, t, 0, 3)                   # [a2, Ba3, u, b2]
            t = _action_join(phi, t, 1, 3)                   # [a2, u, w]
            t = tensor_permute(t, [1, 0, 2])                 # [u, a2, w]
            yield (a, b), lhs, tensor_mul_legs(H.algebra, t, 1)   # [u, a2*w]


def brace_leg_sides(data):
    """The cases of rb_hopf.check_hopf_brace at every basis b by leg
    operations: on Delta^2(a), the maps x -> x o b and x -> x o c on the
    outer legs, S on the middle one and two leg products; on the left,
    circle at a and the product b*c."""
    H = data.H
    A, n, one = H.algebra, H.dim, H.ctx.one
    right = [LinearMap(H.ctx, [circle(data, {x: one}, {b: one}) for x in range(n)], n)
             for b in range(n)]
    for a in range(n):
        t = tensor_apply_map(H.antipode, iterated_delta(H.coalgebra, {a: one}, 3), 1)
        for b in range(n):
            tb = tensor_apply_map(right[b], t, 0)             # [a1 o b, S(a2), a3]
            for c in range(n):
                t3 = tensor_apply_map(right[c], tb, 2)        # [a1 o b, S(a2), a3 o c]
                rhs = tensor_mul_legs(A, tensor_mul_legs(A, t3, 0), 0)
                lhs = circle(data, {a: one}, A.mul_basis(b, c))
                yield (a, b, c), lhs, {k: x for (k,), x in rhs.items()}


def coalgebra_leg_form(C) -> VerificationReport:
    """check_coalgebra with the counit laws as counit legs of rank-2
    tensors, compared with e_i as a rank-1 tensor."""
    one = C.ctx.one
    deltas = [C.delta_basis(i) for i in range(C.dim)]

    def cases():
        for i, t in enumerate(deltas):
            yield ("coassociativity", i), tensor_apply_delta(C, t, 0), tensor_apply_delta(C, t, 1)
        for i, t in enumerate(deltas):
            e_i = {(i,): one}
            yield ("counit_left", i), tensor_apply_counit(C, t, 0), e_i
            yield ("counit_right", i), tensor_apply_counit(C, t, 1), e_i

    return first_failure("coalgebra", cases(), labelled([C.labels], C.labels))


def antipode_leg_form(H) -> VerificationReport:
    """check_antipode with S applied to one leg of Delta(e_i) and the two
    legs multiplied together."""
    A, C, S = H.algebra, H.coalgebra, H.antipode

    def product(t: dict) -> dict:
        return {k: c for (k,), c in tensor_mul_legs(A, t, 0).items()}

    def cases():
        for i in range(A.dim):
            t = C.delta_basis(i)
            target = lincomb([(C.counit[i], A.unit)])
            yield ("antipode_left", i), product(tensor_apply_map(S, t, 0)), target
            yield ("antipode_right", i), product(tensor_apply_map(S, t, 1)), target

    return first_failure("antipode", cases(), labelled([A.labels], A.labels))


def coalgebra_morphism_leg_form(f: LinearMap, C, D) -> VerificationReport:
    """is_coalgebra_morphism with (f (x) f)(Delta(a)) as f on each leg in turn."""
    images = f.cols

    def cases():
        for i in range(C.dim):
            yield (("morphism_comult", i), iterated_delta(D, images[i], 2),
                   tensor_apply_map(f, tensor_apply_map(f, C.delta_basis(i), 0), 1))
            yield ("morphism_counit", i), D.counit_sparse(images[i]), C.counit[i]

    return first_failure("coalgebra_morphism", cases(), labelled([C.labels], D.labels))
