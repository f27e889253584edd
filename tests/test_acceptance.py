"""Acceptance suite: one test per criterion, one printed verdict line each.

Every comparison is exact; there are no tolerances anywhere.  Run with -s
to see the verdict lines.
"""

import random
import time
from itertools import product

from hopfrb.constructions import (FamilyParams, family, family_aut_report, family_aut_search,
                                  family_hypotheses, group_algebra, qbinom, sweedler_h4, taft)
from hopfrb.hopf_core import LinearMap, check_hopf, is_hopf_morphism, iterated_delta
from hopfrb.rb_group import (GroupAction, GroupTable, automorphisms, check_rb, check_rb_lambda,
                             check_star_compat, circ_from_rrb, derived_group, enumerate_rb,
                             lemma_checks, linearize_rb, power_star, relative_rb_check)
from hopfrb.rb_hopf import (RelRBHopf, adjoint_action, check_hopf_brace, check_rrbo,
                            circle, derived_hopf, exact_factorization_rrb, grbo_check)
from hopfrb.rb_lie import (adjoint_lie_action, check_rb_lie_weight,
                           check_relative_rb_lie, sl2)
from hopfrb.scalars import FieldCtx
from helpers import (antipode_closed_form, cauchy_check, graph_is_subgroup, qbinom_oracle,
                     quaternion_table, rescale_bracket, tensor_apply_map, tensor_mul_legs,
                     weight_flip)
from test_rb_hopf import compat_failing_pairs, cond3_remark_sides, failing_pairs

Q = FieldCtx.rationals()
F3 = FieldCtx.prime(3)


def run_criterion(n: int, body):
    t0 = time.monotonic()
    try:
        detail = body()
    except BaseException:
        print(f"criterion {n}: FAIL")
        raise
    dt = time.monotonic() - t0
    print(f"criterion {n}: PASS ({dt:.2f}s) {detail}")
    return dt


def test_criterion_1_sweedler_antipode_order():
    def body():
        H = sweedler_h4(Q)
        assert check_hopf(H).ok
        S = H.antipode
        s2 = S.compose(S)
        assert s2.compose(s2).cols == LinearMap.identity(Q, 4).cols
        assert s2.cols != LinearMap.identity(Q, 4).cols
        g = {1: Q.one}
        for i in range(4):
            conj = H.algebra.mul_sparse(g, H.algebra.mul_sparse({i: Q.one}, g))
            assert s2.cols[i] == conj
        return "S^4 = id, S^2 != id, S^2 = conjugation by g"

    assert run_criterion(1, body) < 1.0


def test_criterion_2_taft_suite():
    def body():
        for m in range(2, 6):
            ctx = FieldCtx.cyclotomic(m)
            H = taft(m, ctx)
            assert H.dim == m * m
            assert check_hopf(H).ok
        return "Taft algebras m = 2..5, dim m^2, all Hopf axioms"

    assert run_criterion(2, body) < 5.0


def test_criterion_3_family_generality():
    def body():
        plain = FamilyParams(2, F3.from_int(-1), 6, None)
        curled = FamilyParams(2, F3.from_int(-1), 6, [F3.zero, F3.zero, F3.one])
        for params in (plain, curled):
            rep = family_hypotheses(params)
            assert rep.ok
            assert rep.details["delta_relation"]["status"] == "pass"
            assert family(params, F3).dim == 12
        return "x^6 = 0 and x^6 = x^2 members over F_3, tensor check included"

    assert run_criterion(3, body) < 5.0


def test_criterion_4_quantum_binomials():
    def body():
        checked = 0
        for n in range(2, 9):
            ctx = FieldCtx.cyclotomic(n)
            zeta = ctx.root_of_unity(n)
            for p in range(11):
                for q in range(p + 1):
                    v = qbinom(p, q, zeta)
                    assert v == qbinom_oracle(p, q, zeta)
                    assert v == qbinom(p, p - q, zeta)
                    checked += 1
            for q in range(9):
                assert cauchy_check(q, zeta).ok
        return f"{checked} binomials against the skew-polynomial oracle"

    assert run_criterion(4, body) < 10.0


def test_criterion_5_antipode_closed_form():
    def body():
        instances = [FamilyParams(2, Q.from_int(-1), 2, None)]
        for m in range(2, 6):
            ctx = FieldCtx.cyclotomic(m)
            instances.append(FamilyParams(m, ctx.root_of_unity(m), m, None))
        instances.append(FamilyParams(2, F3.from_int(-1), 6, None))
        instances.append(FamilyParams(2, F3.from_int(-1), 6,
                                      [F3.zero, F3.zero, F3.one]))
        entries = 0
        for params in instances:
            ctx = params.ctx
            H = family(params, ctx)
            for a in range(params.m):
                for b in range(params.l):
                    coeff, idx = antipode_closed_form(params, a, b)
                    col = H.antipode.cols[params.index(a, b)]
                    assert col == {idx: coeff}
                    entries += 1
            # the antipode axiom on x^q vanishes on both sides, and the
            # underlying alternating binomial sum is zero term by term
            for q in range(1, params.l):
                s = ctx.zero
                for t in range(q + 1):
                    s = s + ((-ctx.one) ** t * params.zeta ** (t * (t - 1) // 2)
                             * qbinom(q, t, params.zeta))
                assert s.is_zero
                xq = {params.index(0, q): ctx.one}
                cut = iterated_delta(H.coalgebra, xq, 2)
                for leg in (0, 1):
                    side = tensor_mul_legs(H.algebra,
                                           tensor_apply_map(H.antipode, cut, leg), 0)
                    assert not side
        return f"{entries} antipode matrix entries match the closed form"

    run_criterion(5, body)


def test_criterion_6_group_enumeration():
    def body():
        # order 2 and 3: brute force over all maps equals the enumeration
        # equals the endomorphism monoid
        for n, expected in ((2, 2), (3, 3)):
            G = GroupTable.cyclic(n)
            brute = {B for B in product(range(n), repeat=n)
                     if check_rb(G, B, 1).ok}
            endos = {B for B in product(range(n), repeat=n)
                     if all(B[G.table[a][b]] == G.table[B[a]][B[b]]
                            for a in range(n) for b in range(n))}
            found = set(enumerate_rb(G, 1))
            assert found == brute == endos
            assert len(found) == expected

        groups = [GroupTable.cyclic(k) for k in range(2, 9)]
        groups.append(GroupTable.direct_product(GroupTable.cyclic(2),
                                                GroupTable.cyclic(2)))
        groups.append(GroupTable.symmetric(3))
        groups.append(GroupTable.direct_product(GroupTable.cyclic(4),
                                                GroupTable.cyclic(2)))
        groups.append(GroupTable.direct_product(
            GroupTable.direct_product(GroupTable.cyclic(2), GroupTable.cyclic(2)),
            GroupTable.cyclic(2)))
        groups.append(GroupTable.metacyclic(4, 2, 3))  # dihedral of order 8
        groups.append(quaternion_table())
        small_elapsed = 0.0
        for G in groups:
            t0 = time.monotonic()
            ops = set(enumerate_rb(G, 1))
            neg = set(enumerate_rb(G, -1))
            if G.n <= 6:
                small_elapsed += time.monotonic() - t0
            assert tuple([G.e] * G.n) in ops
            assert tuple(G.inv) in ops
            assert {weight_flip(B, G) for B in ops} == neg
        assert small_elapsed < 60.0
        return f"{len(groups)} groups through order 8 under the default cap"

    run_criterion(6, body)


def test_criterion_7_derived_structures():
    def body():
        G = GroupTable.symmetric(3)
        star = power_star(G, 1)
        ops = enumerate_rb(G, 1)
        assert len(ops) == 8
        for B in ops:
            Gd, rep = derived_group(G, B)
            assert rep.ok
            for a in range(6):
                for b in range(6):
                    assert B[Gd.table[a][b]] == G.table[B[a]][B[b]]
            lem = lemma_checks(G, B)
            assert lem.ok
            # the five consequence identities, with the two subgroup claims
            # split out into their own parts
            assert set(lem.details) == {
                "b_of_identity", "b_inverse_pairing", "b_iteration",
                "kernel_translation", "b_of_twisted_inverse",
                "kernel_subgroup", "image_subgroup"}
            _, verdicts = circ_from_rrb(G, star, B)
            assert verdicts.ok
            for key in ("circ_group", "star_circ_brace", "dot_circ_brace"):
                assert verdicts.details[key]["status"] == "pass"
        return "8 operators on S_3: derived group, lemma identities, brace verdicts"

    assert run_criterion(7, body) < 30.0


def all_actions(H: GroupTable, G: GroupTable) -> list:
    """Every homomorphism G -> Aut(H), found by propagating partial images."""
    autos = automorphisms(H)
    aidx = {a: i for i, a in enumerate(autos)}
    comp = [[aidx[tuple(a[b[h]] for h in range(H.n))] for b in autos]
            for a in autos]
    out = []

    def propagate(assign):
        changed = True
        while changed:
            changed = False
            for a in range(G.n):
                if assign[a] is None:
                    continue
                for b in range(G.n):
                    if assign[b] is None:
                        continue
                    c = G.table[a][b]
                    want = comp[assign[a]][assign[b]]
                    if assign[c] is None:
                        assign[c] = want
                        changed = True
                    elif assign[c] != want:
                        return False
        return True

    def extend(assign):
        if None not in assign:
            out.append(GroupAction([autos[k] for k in assign]))
            return
        i = assign.index(None)
        for k in range(len(autos)):
            trial = list(assign)
            trial[i] = k
            if propagate(trial):
                extend(trial)

    start = [None] * G.n
    start[G.e] = aidx[tuple(range(H.n))]
    if propagate(start):
        extend(start)
    return out


def test_criterion_8_graph_criterion():
    def body():
        agreements = 0
        positives = 0

        def check(H, G, psi, B):
            nonlocal agreements, positives
            sub = graph_is_subgroup(H, G, psi, B)
            rel = relative_rb_check(H, G, psi, B)
            assert sub == rel.ok
            agreements += 1
            positives += sub

        small = [GroupTable.cyclic(k) for k in (1, 2, 3)]
        for H in small:
            for G in small:
                for psi in all_actions(H, G):
                    for B in product(range(G.n), repeat=H.n):
                        check(H, G, psi, B)

        pool = [GroupTable.cyclic(k) for k in range(2, 7)]
        pool.append(GroupTable.symmetric(3))
        pool.append(GroupTable.direct_product(GroupTable.cyclic(2),
                                              GroupTable.cyclic(2)))
        rng = random.Random(17)
        cache = {}
        for _ in range(100):
            H = rng.choice(pool)
            G = rng.choice(pool)
            key = (id(H), id(G))
            if key not in cache:
                cache[key] = all_actions(H, G)
            psi = rng.choice(cache[key])
            B = tuple(rng.randrange(G.n) for _ in range(H.n))
            check(H, G, psi, B)
        assert positives > 0
        return f"{agreements} instances, {positives} graphs were subgroups"

    run_criterion(8, body)


def test_criterion_9_rrb_hopf_end_to_end():
    def body():
        S3 = GroupTable.symmetric(3)
        data = exact_factorization_rrb(S3, [0, 3, 4], [0, 2], Q)
        rep = check_rrbo(data, full=True)
        assert rep.ok
        for key in ("condition_1_coalgebra", "condition_1_unit", "condition_2_action",
                    "condition_3_compat", "condition_4_rb"):
            assert rep.details[key]["status"] == "pass"
        # the remark form of condition 3 holds on all 36 pairs, as the
        # compatibility form does pair by pair
        assert data.H.dim ** 2 == 36
        assert failing_pairs(data, cond3_remark_sides) == compat_failing_pairs(data) == []
        dim = data.H.dim
        vecs = [{i: Q.one} for i in range(dim)]
        triples = 0
        for a in range(dim):
            ab = [circle(data, vecs[a], vecs[b]) for b in range(dim)]
            for b in range(dim):
                for c in range(dim):
                    lhs = circle(data, ab[b], vecs[c])
                    rhs = circle(data, vecs[a], circle(data, vecs[b], vecs[c]))
                    assert lhs == rhs
                    triples += 1
        assert triples == 216
        assert check_hopf(derived_hopf(data)).ok
        assert check_hopf_brace(data).ok
        return "k[S_3] with A = <(123)>, L = <(12)>: all conditions, 216 triples"

    assert run_criterion(9, body) < 10.0


def test_criterion_10_group_to_hopf_bridge():
    def body():
        checked = 0
        for G in (GroupTable.symmetric(3), GroupTable.cyclic(4)):
            for op in enumerate_rb(G, 1):
                H, B = linearize_rb(G, op, Q)
                assert grbo_check(H, B).ok
                data = RelRBHopf(H, H, adjoint_action(H), B)
                for g in range(G.n):
                    bg = op[g]
                    for h in range(G.n):
                        want = G.table[G.table[G.table[g][bg]][h]][G.inv[bg]]
                        got = circle(data, {g: Q.one}, {h: Q.one})
                        assert got == {want: Q.one}
                checked += 1
        return f"{checked} operators linearized, circle matches gB(g)hB(g)^-1"

    run_criterion(10, body)


def test_criterion_11_weight_two_f21():
    def body():
        F21 = GroupTable.metacyclic(7, 3, 2)
        star = power_star(F21, 2)
        compat = check_star_compat(F21, star)
        assert compat.ok
        for key in ("group_axioms", "shared_unit", "conjugation_compatible"):
            assert compat.details[key]["status"] == "pass"
        assert check_rb_lambda(F21, [0] * 21, 2).ok
        ops = enumerate_rb(F21, 2)
        assert tuple([0] * 21) in set(ops)
        assert len(ops) == 30
        for op in ops:
            _, verdicts = circ_from_rrb(F21, star, op)
            assert verdicts.ok
        return f"{len(ops)} weight-2 operators, every skew-brace verdict passes"

    run_criterion(11, body)


def test_criterion_12_lie_layer():
    def body():
        g = sl2(Q)
        zero = LinearMap(Q, [{}] * 3, 3)
        for k in (1, -1, 2):
            lam = Q.from_int(k)
            assert check_rb_lie_weight(g, zero, lam).ok
            minus = LinearMap(Q, [{j: -lam} for j in range(3)], 3)
            assert check_rb_lie_weight(g, minus, lam).ok
        rng = random.Random(12)
        agree = 0
        for _ in range(50):
            cols = [[Q.from_int(rng.randint(-2, 2)) for _ in range(3)]
                    for _ in range(3)]
            B = LinearMap(Q, [dict(enumerate(c)) for c in cols], 3)
            lam = Q.from_int(rng.randint(-2, 2))
            direct = check_rb_lie_weight(g, B, lam)
            relative = check_relative_rb_lie(g, rescale_bracket(g, lam),
                                             adjoint_lie_action(g), B, Q.one)
            assert direct.ok == relative.ok
            agree += 1
        return f"B = 0 and B = -lambda id pass; {agree} verdicts agree both ways"

    assert run_criterion(12, body) < 5.0


def test_criterion_13_automorphism_search():
    def body():
        params = FamilyParams(2, Q.from_int(-1), 2, None)
        H = family(params, Q)
        grid = [Q.one, -Q.one, Q.from_int(2), Q.one / Q.from_int(3), Q.from_int(5)]
        hits = family_aut_search(params, grid)
        assert len(hits) == len(grid)
        assert all(k == 1 for k, _ in hits)
        assert all(c[0].is_zero and not c[1].is_zero for _, c in hits)
        assert {str(c[1]) for _, c in hits} == {str(x) for x in grid}

        def diag_map(c1):
            cols = [{params.index(a, b): c1 ** b} for a in range(2) for b in range(2)]
            return LinearMap(Q, cols, 4)

        for _, ca in hits:
            assert is_hopf_morphism(diag_map(ca[1]), H, H).ok
            for _, cb in hits:
                prod = ca[1] * cb[1]
                composed = diag_map(ca[1]).compose(diag_map(cb[1]))
                assert composed.cols == diag_map(prod).cols
                assert family_aut_report(params, 1, [Q.zero, prod]).ok
        return "hits are exactly k = 1, c1 in grid; composition stays in the family"

    run_criterion(13, body)
