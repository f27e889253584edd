"""Verdicts do not depend on the basis: structure constants transported to a
seeded random basis over Q still pass check_hopf, check_rrbo, check_lie and
check_hopf_brace, one-entry mutants still fail, at the same part, and the
derived Hopf algebra moves with its operator.

The transport uses dense test-only arithmetic.  The change of basis P is a
product of random elementary matrices, so its inverse is known exactly
without elimination."""

import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

from hopfrb.constructions import group_algebra, sweedler_h4
from hopfrb.hopf_core import (AlgebraData, CoalgebraData, HopfData, LinearMap, check_hopf,
                              hopf_from_json, hopf_to_json)
from hopfrb.rb_group import GroupTable
from hopfrb.rb_hopf import (ActionData, RelRBHopf, check_hopf_brace, check_rrbo, derived_hopf,
                            exact_factorization_rrb, rrb_from_json)
from hopfrb.rb_lie import LieData, check_lie, sl2
from hopfrb.scalars import FieldCtx

Q = FieldCtx.rationals()
ROOT = Path(__file__).resolve().parent.parent


def random_basis_change(n: int, rng: random.Random):
    """(P, P^-1) as dense rows: P's column a is the new basis vector f_a
    written in the old basis."""
    P = [[Q.one if i == j else Q.zero for j in range(n)] for i in range(n)]
    Pinv = [row[:] for row in P]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = Q.from_fraction(rng.choice([Fraction(-1), Fraction(1), Fraction(2), Fraction(1, 2)]))
        if rng.random() < 0.3:
            # column j of P scaled by c, row j of P^-1 by 1/c
            for r in range(n):
                P[r][j] = P[r][j] * c
            Pinv[j] = [x * c.inverse() for x in Pinv[j]]
        else:
            # column j of P plus c times column i, row i of P^-1 minus c times row j
            for r in range(n):
                P[r][j] = P[r][j] + c * P[r][i]
            Pinv[i] = [x - c * y for x, y in zip(Pinv[i], Pinv[j])]
    for i in range(n):
        for j in range(n):
            s = Q.zero
            for k in range(n):
                s = s + P[i][k] * Pinv[k][j]
            assert s == (Q.one if i == j else Q.zero)
    assert any(not P[i][j].is_zero for i in range(n) for j in range(n) if i != j)
    return P, Pinv


def dense_apply(M, v: dict) -> dict:
    out = {}
    for r, row in enumerate(M):
        s = Q.zero
        for i, c in v.items():
            s = s + row[i] * c
        if not s.is_zero:
            out[r] = s
    return out


def sum_terms(terms) -> dict:
    """The sum of c*v over (scalar, sparse dict) pairs, zeros dropped."""
    out = {}
    for c, v in terms:
        for k, x in v.items():
            out[k] = out.get(k, Q.zero) + c * x
    return {k: x for k, x in out.items() if not x.is_zero}


def transport_hopf(H: HopfData, P, Pinv) -> HopfData:
    """H's structure constants on the basis f_a = sum_i P[i][a] e_i."""
    n = H.dim
    A, C, S = H.algebra, H.coalgebra, H.antipode

    def image(f, a: int) -> dict:
        # f(f_a) in the old basis, from the values f(e_i)
        return sum_terms((P[i][a], f(i)) for i in range(n))

    mult = {(a, b): dense_apply(Pinv, sum_terms((P[i][a] * P[j][b], A.mul_basis(i, j))
                                                for i in range(n) for j in range(n)))
            for a in range(n) for b in range(n)}
    delta = {}
    for a in range(n):
        delta[a] = sum_terms((c, {(x, y): Pinv[x][j] * Pinv[y][k]
                                  for x in range(n) for y in range(n)})
                             for (j, k), c in image(C.delta_basis, a).items())
    counit = [image(lambda i: {0: C.counit[i]}, a).get(0, Q.zero) for a in range(n)]
    cols = [dense_apply(Pinv, image(lambda i: S.cols[i], a)) for a in range(n)]
    alg = AlgebraData(Q, n, dense_apply(Pinv, A.unit), mult)
    return HopfData(alg, CoalgebraData(Q, n, delta, counit), LinearMap(Q, cols, n))


def transport_rrb(data: RelRBHopf, PH, PHinv, PG, PGinv) -> RelRBHopf:
    """(H, G, Phi, B) moved together: H to the basis given by PH, G to the
    one given by PG."""
    H, G = data.H, data.G
    phi = {(g, h): dense_apply(PHinv, sum_terms((PG[i][g] * PH[j][h], data.phi.apply_basis(i, j))
                                                for i in range(G.dim) for j in range(H.dim)))
           for g in range(G.dim) for h in range(H.dim)}
    cols = [dense_apply(PGinv, sum_terms((PH[j][h], data.B.cols[j]) for j in range(H.dim)))
            for h in range(H.dim)]
    return RelRBHopf(transport_hopf(H, PH, PHinv), transport_hopf(G, PG, PGinv),
                     ActionData(Q, G.dim, H.dim, phi), LinearMap(Q, cols, G.dim))


def failing_parts(rep) -> list:
    return [name for name, part in rep.details.items() if part["status"] == "fail"]


def one_entry_mutants(H: HopfData):
    spec = importlib.util.spec_from_file_location("make_witnesses",
                                                  ROOT / "tools" / "make_witnesses.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return list(tool.one_entry_mutants(hopf_to_json(H)))


def test_hopf_verdicts_survive_a_change_of_basis():
    rng = random.Random(20261018)
    bases = {"h4": sweedler_h4(Q),
             "kS3": group_algebra(GroupTable.symmetric(3), Q),
             "kZ4": group_algebra(GroupTable.cyclic(4), Q)}
    for name, H in bases.items():
        P, Pinv = random_basis_change(H.dim, rng)
        moved = transport_hopf(H, P, Pinv)
        assert moved.algebra.mult != H.algebra.mult, name
        rep = check_hopf(moved)
        assert rep.ok, name
        # decided on a generating set: below the count of every basis
        # triple and pair, d^3 + 3d^2 + 9d + 3
        d = H.dim
        assert rep.stats["identities_checked"] < d ** 3 + 3 * d * d + 9 * d + 3, name
        mutant_name, mutant = rng.choice(one_entry_mutants(H))
        broken = hopf_from_json(mutant)
        assert not check_hopf(broken).ok, (name, mutant_name)
        assert not check_hopf(transport_hopf(broken, P, Pinv)).ok, (name, mutant_name)


def test_relative_operator_verdicts_survive_a_change_of_basis():
    rng = random.Random(20261018)
    obj = json.loads((ROOT / "fixtures" / "h4-rrb-exact-factorization.json").read_text())
    data = rrb_from_json(obj, str(ROOT / "fixtures"))
    bases = (*random_basis_change(data.H.dim, rng), *random_basis_change(data.G.dim, rng))
    moved = transport_rrb(data, *bases)
    assert moved.B.cols != data.B.cols and moved.phi.phi != data.phi.phi
    assert check_rrbo(moved, full=True).ok
    obj["B"][2][2] = "2"
    broken = rrb_from_json(obj, str(ROOT / "fixtures"))
    for full in (False, True):
        before = check_rrbo(broken, full=full)
        after = check_rrbo(transport_rrb(broken, *bases), full=full)
        assert not before.ok and not after.ok
        assert failing_parts(before)[0] == failing_parts(after)[0] == "condition_3_compat"
        assert failing_parts(before) == failing_parts(after)


def test_hopf_brace_and_derived_hopf_survive_a_change_of_basis():
    rng = random.Random(20261019)
    S3 = GroupTable.symmetric(3)
    for A, L in (([0, 3, 4], [0, 2]), ([0, 2], [0, 3, 4])):
        data = exact_factorization_rrb(S3, A, L, Q)
        PH, PHinv = random_basis_change(data.H.dim, rng)
        moved = transport_rrb(data, PH, PHinv, *random_basis_change(data.G.dim, rng))
        assert moved.B.cols != data.B.cols, (A, L)
        assert check_hopf_brace(moved).status == check_hopf_brace(data).status == "pass"
        assert (hopf_to_json(derived_hopf(moved))
                == hopf_to_json(transport_hopf(derived_hopf(data), PH, PHinv))), (A, L)


def test_a_failing_brace_still_fails_in_a_random_basis():
    # the h4 fixture with the coefficient of phi[5] set to 2: Phi_g(g) = 2g
    # breaks the action laws and the brace identity, in every basis
    obj = json.loads((ROOT / "fixtures" / "h4-rrb-exact-factorization.json").read_text())
    obj["phi"][5]["terms"][0]["c"] = "2"
    broken = rrb_from_json(obj, str(ROOT / "fixtures"))
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        bases = (*random_basis_change(broken.H.dim, rng), *random_basis_change(broken.G.dim, rng))
        moved = transport_rrb(broken, *bases)
        assert moved.phi.phi != broken.phi.phi, seed
        for data in (broken, moved):
            assert check_hopf_brace(data).identity == "hopf_brace", seed
            assert failing_parts(check_rrbo(data, full=True))[0] == "condition_2_action", seed


def test_lie_verdict_survives_a_change_of_basis():
    g = sl2(Q)
    P, Pinv = random_basis_change(g.dim, random.Random(7))
    brackets = {}
    for a in range(g.dim):
        for b in range(g.dim):
            old = sum_terms((P[i][a] * P[j][b], g.bracket_basis(i, j))
                            for i in range(g.dim) for j in range(g.dim))
            brackets[(a, b)] = dense_apply(Pinv, old)
    moved = LieData(Q, g.dim, brackets)
    assert moved.brackets != g.brackets
    assert check_lie(moved).ok
