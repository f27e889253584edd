"""Quantum binomials, the Sweedler and Taft algebras, the g,x family, automorphisms."""

import itertools
import random
from math import gcd

import pytest

from hopfrb import constructions
from hopfrb.constructions import (FamilyParams, family, family_aut_report, family_aut_search,
                                  family_hypotheses,
                                  family_with_hypotheses, group_algebra, qbinom, sweedler_h4,
                                  taft)
from hopfrb.hopf_core import LinearMap, check_hopf, is_hopf_morphism
from hopfrb.rb_group import GroupTable
from hopfrb.scalars import FieldCtx, Scalar, parse_field

from helpers import (antipode_closed_form, aut_theorem_conditions, cauchy_check, counting,
                     qbinom_oracle)

Q = FieldCtx.rationals()


def test_qbinom_frozen_oracle_values():
    # computed once with the skew-polynomial oracle, then frozen here
    assert qbinom_oracle(3, 1, Q.one) == Q.from_int(3)
    z3 = FieldCtx.cyclotomic(3)
    assert qbinom_oracle(2, 1, z3.zeta) == z3.one + z3.zeta
    assert qbinom(2, 1, Q.from_int(-1)).is_zero
    z4 = FieldCtx.cyclotomic(4)
    assert qbinom(4, 2, z4.zeta).is_zero
    # {6 choose 2} at -1 is the ordinary binomial C(3,1)
    assert qbinom(6, 2, Q.from_int(-1)) == Q.from_int(3)


def test_qbinom_matches_oracle():
    for ctx, zeta in ((Q, Q.one), (Q, Q.from_int(-1)),
                      (FieldCtx.cyclotomic(3), FieldCtx.cyclotomic(3).zeta),
                      (FieldCtx.prime(5), FieldCtx.prime(5).root_of_unity(4))):
        for p in range(0, 9):
            for q in range(0, p + 1):
                assert qbinom(p, q, zeta) == qbinom_oracle(p, q, zeta)


def test_qbinom_answers_in_the_context_of_zeta():
    # two equal contexts: each gets scalars of its own, none kept from the other
    for _ in range(2):
        ctx = parse_field("Q(z3)")
        assert qbinom(3, 1, ctx.root_of_unity(3)).ctx is ctx


def test_qbinom_range_behaviour():
    with pytest.raises(ValueError):
        qbinom(3, 4, Q.one)
    with pytest.raises(ValueError):
        qbinom(3, -1, Q.one)
    assert qbinom_oracle(3, 4, Q.one).is_zero
    assert qbinom_oracle(3, -1, Q.one).is_zero


def test_qbinom_endpoint_and_ordinary_specialization():
    for p in range(7):
        assert qbinom(p, 0, Q.one) == Q.one
        assert qbinom(p, p, Q.one) == Q.one
    # at zeta = 1 the table is Pascal's triangle
    assert qbinom(6, 3, Q.one) == Q.from_int(20)


def test_cauchy_identity():
    assert cauchy_check(4, Q.from_int(-1)).ok
    z5 = FieldCtx.cyclotomic(5)
    assert cauchy_check(5, z5.zeta).ok
    f7 = FieldCtx.prime(7)
    assert cauchy_check(6, f7.root_of_unity(6)).ok


def test_group_algebra_antipode_is_inversion():
    G = GroupTable.symmetric(3)
    H = group_algebra(G, Q)
    for i in range(6):
        assert H.antipode.cols[i] == {G.inv[i]: Q.one}


def test_sweedler_h4_table_frozen():
    H = sweedler_h4(Q)
    one = Q.one
    assert H.labels == ["1", "g", "x", "gx"]
    assert H.algebra.mul_basis(1, 1) == {0: one}          # g^2 = 1
    assert H.algebra.mul_basis(2, 2) == {}                # x^2 = 0
    assert H.algebra.mul_basis(1, 2) == {3: one}          # g x = gx
    assert H.algebra.mul_basis(2, 1) == {3: -one}         # x g = -gx
    assert H.coalgebra.delta_basis(2) == {(2, 0): one, (1, 2): one}
    assert H.coalgebra.delta_basis(3) == {(3, 1): one, (0, 3): one}
    assert [str(c) for c in H.coalgebra.counit] == ["1", "1", "0", "0"]
    assert H.antipode.cols[2] == {3: -one}
    assert H.antipode.cols[3] == {2: one}
    assert check_hopf(H).ok


def test_sweedler_h4_rejects_characteristic_two():
    with pytest.raises(ValueError):
        sweedler_h4(FieldCtx.prime(2))


def test_family_reproduces_sweedler():
    params = FamilyParams(2, Q.from_int(-1), 2, None)
    H = family(params, Q)
    assert H.labels == ["g^0*x^0", "g^0*x^1", "g^1*x^0", "g^1*x^1"]
    H4 = sweedler_h4(Q)
    # family orders the basis 1, x, g, gx; permute into the Sweedler order
    perm = [0, 2, 1, 3]
    iso = LinearMap(Q, [{perm[j]: Q.one} for j in range(4)], 4)
    assert is_hopf_morphism(iso, H4, H).ok
    assert iso.is_invertible()


def test_family_params_validation():
    with pytest.raises(ValueError):
        FamilyParams(2, Q.from_int(-1), 0, None)
    with pytest.raises(ValueError) as exc:
        FamilyParams(2, Q.from_int(-1), None, None)
    assert "A_inf" in str(exc.value)
    with pytest.raises(ValueError):
        FamilyParams(3, Q.from_int(2), 3, None)  # 2 is not a root of unity in Q


def test_family_hypotheses_negative_cases():
    # l = 3 with zeta = -1: {3 choose 2} = 1 does not vanish
    rep = family_hypotheses(FamilyParams(2, Q.from_int(-1), 3, None))
    assert not rep.ok
    assert rep.identity == "top_binomials"
    assert rep.witness["labels"] == ["{3 choose 1}"]
    # nonzero constant term
    rep = family_hypotheses(FamilyParams(2, Q.from_int(-1), 2, [Q.one]))
    assert rep.identity == "constant_term"
    # a degree breaking the grading is rejected at construction time already
    f3 = FieldCtx.prime(3)
    with pytest.raises(ValueError):
        FamilyParams(2, f3.from_int(-1), 6, [f3.zero, f3.zero, f3.zero, f3.one])
    # f = x^4 keeps the grading but {4 choose 2} = 2 != 0 mod 3 survives
    rep = family_hypotheses(FamilyParams(2, f3.from_int(-1), 6,
                                         [f3.zero, f3.zero, f3.zero, f3.zero, f3.one]))
    assert rep.identity == "f_term_binomials"
    assert rep.witness["indices"] == [4, 2]
    assert rep.witness["labels"] == ["x^4", "{4 choose 2}"]


def test_delta_relation_is_authoritative():
    # m = 1, l = 2 over Q: Delta(x)^2 keeps the cross term {2 choose 1} x (x) x
    # = 2 x (x) x, and the closed form for q = 1 names that coefficient
    rep = family_hypotheses(FamilyParams(1, Q.one, 2, None))
    assert not rep.ok
    assert rep.identity == "top_binomials"
    assert rep.witness["labels"] == ["{2 choose 1}"]
    assert rep.witness["lhs"] == "2"
    assert rep.details["delta_relation"]["witness"]["lhs"] == "(2)*g^0*x^1(x)g^0*x^1"


def test_closed_forms_agree_with_the_delta_relation():
    # a seeded sweep over roots of unity zeta of order d in seven fields,
    # m = d or 2d, l = 1..7 and f with random coefficients at the degrees p
    # with zeta^p = zeta^l: the four closed forms pass together exactly when
    # Delta(x)^l = Delta(f(x)) does
    rng = random.Random(20261018)
    roots = []
    for name, n in (("Q", 2), ("Q(z3)", 3), ("Q(z4)", 4), ("Q(z6)", 6), ("F3", 2), ("F5", 4),
                    ("F7", 6)):
        w = parse_field(name).root_of_unity(n)
        roots.append((-w, 6) if n == 3 else (w, n))    # -z3 has order 6
    closed = ("constant_term", "degree_congruence", "top_binomials", "f_term_binomials")
    disagree = []
    for _ in range(250):
        w, n = rng.choice(roots)
        k = rng.randrange(n)
        zeta, ctx = w ** k, w.ctx
        m = n // gcd(n, k) * rng.choice((1, 2))
        l = rng.randint(1, 7)
        f = [ctx.from_int(rng.choice((0, 0, 1, -1, 2))) if zeta ** p == zeta ** l
             else ctx.zero for p in range(l)]
        if rng.random() < 0.5:
            f[0] = ctx.zero
        params = FamilyParams(m, zeta, l, f)
        rep = family_hypotheses(params)
        by_closed_forms = all(rep.details[name]["status"] == "pass" for name in closed)
        if by_closed_forms != (rep.details["delta_relation"]["status"] == "pass"):
            disagree.append(params)
    assert disagree == []


def test_family_f3_instances():
    f3 = FieldCtx.prime(3)
    flat = FamilyParams(2, f3.from_int(-1), 6, None)
    assert family_hypotheses(flat).ok
    H = family(flat, f3)
    assert H.dim == 12
    assert check_hopf(H).ok
    curled = FamilyParams(2, f3.from_int(-1), 6, [f3.zero, f3.zero, f3.from_int(4)])
    assert family_hypotheses(curled).ok
    H2 = family(curled, f3)
    assert check_hopf(H2).ok
    # x^6 = 4x^2 = x^2 in the table
    x_idx = flat.index(0, 1)
    top = H2.algebra.mul_basis(flat.index(0, 5), x_idx)
    assert top == {flat.index(0, 2): f3.one}


def test_family_errors():
    f3 = FieldCtx.prime(3)
    params = FamilyParams(2, f3.from_int(-1), 6, None)
    with pytest.raises(ValueError):
        family(params, Q)  # field mismatch
    with pytest.raises(ValueError) as exc:
        family(FamilyParams(2, Q.from_int(-1), 3, None), Q)
    assert "top_binomials" in str(exc.value)


def test_taft_instances():
    for m in (2, 3):
        ctx = FieldCtx.cyclotomic(m) if m > 2 else Q
        H = taft(m, ctx)
        assert H.dim == m * m
        assert check_hopf(H).ok


def test_taft_6_over_a_modulus_with_negative_coefficients():
    # Phi_6 = 1 - x + x^2, so the integer rows of x^k mod Phi_6 have negative
    # entries; dimension 36 and 2990 identities, all of which must hold
    # (multiplicative identities on the generators x and g: 49502 on every
    # basis triple and pair)
    ctx = FieldCtx.cyclotomic(6)
    rep = check_hopf(taft(6, ctx))
    assert rep.ok
    assert rep.stats["identities_checked"] == 2990


def antipode_matrix_matches_closed_form(params, H):
    ctx = H.ctx
    for p in range(params.m):
        for q in range(params.l):
            coeff, idx = antipode_closed_form(params, p, q)
            col = H.antipode.cols[params.index(p, q)]
            expect = {idx: coeff} if not coeff.is_zero else {}
            assert col == expect
    return True


def test_antipode_closed_form():
    z3 = FieldCtx.cyclotomic(3)
    params = FamilyParams(3, z3.zeta, 3, None)
    assert antipode_matrix_matches_closed_form(params, family(params, z3))
    f3 = FieldCtx.prime(3)
    curled = FamilyParams(2, f3.from_int(-1), 6, [f3.zero, f3.zero, f3.one])
    assert antipode_matrix_matches_closed_form(curled, family(curled, f3))
    with pytest.raises(ValueError):
        antipode_closed_form(params, 3, 0)


def test_aut_reports():
    params = FamilyParams(2, Q.from_int(-1), 2, None)
    good = family_aut_report(params, 1, [Q.zero, Q.from_int(5)])
    assert good.ok
    assert "theorem_conditions" not in good.details
    cond = aut_theorem_conditions(params, 1, [Q.zero, Q.from_int(5)])
    assert cond == {"k_coprime_to_m": True, "vanishing_binomials": True,
                    "k_squared_mod_d": True, "relation_divisibility": True}
    # psi(x) = 0 is not invertible
    zero = family_aut_report(params, 1, [Q.zero, Q.zero])
    assert not zero.ok
    with pytest.raises(ValueError):
        family_aut_report(params, 1, [Q.one, Q.one])  # c_0 with wrong congruence
    with pytest.raises(ValueError):
        family_aut_report(params, 1, [Q.zero])  # wrong length


def test_aut_taft3_lower_triangle():
    z3 = FieldCtx.cyclotomic(3)
    params = FamilyParams(3, z3.zeta, 3, None)
    bad = family_aut_report(params, 2, [z3.zero, z3.zero, z3.one])
    assert not bad.ok
    assert aut_theorem_conditions(
        params, 2, [z3.zero, z3.zero, z3.one])["vanishing_binomials"] is False
    hits = family_aut_search(params, [z3.zero, z3.one, z3.zeta])
    assert [(k, tuple(str(x) for x in c)) for k, c in hits] == [
        (1, ("0", "1", "0")), (1, ("0", "z3", "0"))]


def test_aut_search_h4_grid():
    params = FamilyParams(2, Q.from_int(-1), 2, None)
    grid = [Q.zero, Q.one, Q.from_int(-1), Q.from_int(2)]
    hits = family_aut_search(params, grid)
    assert all(k == 1 for k, _ in hits)
    assert sorted(str(c[1]) for _, c in hits) == ["-1", "1", "2"]


def test_aut_search_builds_one_algebra(monkeypatch):
    params = FamilyParams(2, Q.from_int(-1), 2, None)
    grid = [Q.zero, Q.one, -Q.one, Q.from_int(2), Q.one / Q.from_int(3)]
    builds = counting(monkeypatch, constructions, "family")
    algebras = counting(monkeypatch, constructions, "_family_algebra")
    hits = family_aut_search(params, grid)
    assert (len(builds), len(algebras)) == (1, 1)
    assert [str(c[1]) for _, c in hits] == ["1", "-1", "2", "1/3"]
    # a report builds its own algebra, once
    builds.clear()
    algebras.clear()
    assert family_aut_report(params, 1, [Q.zero, Q.one]).ok
    assert (len(builds), len(algebras)) == (1, 1)


def test_family_inputs_are_exact():
    # a float would enter as its binary expansion: 0.1 is
    # 3602879701896397/36028797018963968, and that grid value is a hit
    params = FamilyParams(2, Q.from_int(-1), 2, None)
    for call in (lambda: family_aut_search(params, [0.1, 1]),
                 lambda: family_aut_search(params, [True]),
                 lambda: family_aut_report(params, 1, [0, 0.5]),
                 lambda: FamilyParams(2, Q.from_int(-1), 2, [0.0, 0.0])):
        with pytest.raises(ValueError, match="exact"):
            call()
    hits = family_aut_search(params, [0, 1, "1/2"])
    assert [str(c[1]) for _, c in hits] == ["1", "1/2"]


def test_taft_aut_search_inverts_no_scalar(monkeypatch):
    # every candidate map sends basis elements to multiples of basis
    # elements, and the echelon kernel drops a one-term pivot without dividing
    z4 = FieldCtx.cyclotomic(4)
    params = FamilyParams(4, z4.root_of_unity(4), 4, None)
    inverses = counting(monkeypatch, Scalar, "inverse")
    hits = family_aut_search(params, [z4.zero, z4.one, -z4.one, z4.zeta])
    assert [(k, str(c[1])) for k, c in hits] == [(1, "1"), (1, "-1"), (1, "z4")]
    assert inverses == []


def test_family_with_hypotheses_builds_once(monkeypatch):
    algebras = counting(monkeypatch, constructions, "_family_algebra")
    good = FamilyParams(2, Q.from_int(-1), 2, None)
    H, hyp = family_with_hypotheses(good)
    assert hyp.ok and check_hopf(H).ok and len(algebras) == 1
    assert hyp.to_json() == family_hypotheses(good).to_json()
    bad = FamilyParams(2, Q.from_int(-1), 3, None)
    H, hyp = family_with_hypotheses(bad)
    assert H is None and hyp.identity.startswith("top_binomials")
    assert hyp.to_json() == family_hypotheses(bad).to_json()


def test_aut_search_raises_when_the_hypotheses_fail():
    # {3 choose 2}_-1 = 1 is not zero, so x^3 = 0 admits no Hopf structure
    params = FamilyParams(2, Q.from_int(-1), 3, None)
    assert not family_hypotheses(params).ok
    for grid in ([], [Q.one]):
        with pytest.raises(ValueError, match="family hypotheses fail at top_binomials"):
            family_aut_search(params, grid)


def test_aut_search_forms_no_candidate_before_the_hypotheses_fail(monkeypatch):
    # {8 choose q} at zeta = 1 is not zero over Q; the grid would make 2^7 candidates
    formed, product = [], itertools.product

    def spy(*args, **kwargs):
        for values in product(*args, **kwargs):
            formed.append(values)
            yield values
    monkeypatch.setattr(itertools, "product", spy)
    with pytest.raises(ValueError, match="family hypotheses fail at top_binomials"):
        family_aut_search(FamilyParams(1, Q.one, 8, None), [Q.zero, Q.one])
    assert formed == []


def test_aut_verdicts_agree_with_the_closed_form_criteria(monkeypatch):
    # every candidate of the searches: passes exactly when the closed-form
    # criteria hold and psi(x) has a nonzero linear term
    f3 = FieldCtx.prime(3)
    z2, z3, z4 = (FieldCtx.cyclotomic(n) for n in (2, 3, 4))
    cases = [
        (FamilyParams(2, Q.from_int(-1), 2, None),
         [Q.zero, Q.one, -Q.one, Q.from_int(2), Q.one / Q.from_int(3)]),
        (FamilyParams(2, z2.root_of_unity(2), 2, None),
         [z2.zero, z2.one, -z2.one, z2.from_int(5)]),
        (FamilyParams(3, z3.zeta, 3, None), [z3.zero, z3.one, z3.zeta, -z3.zeta]),
        (FamilyParams(4, z4.zeta, 4, None), [z4.zero, z4.zeta]),
        (FamilyParams(2, f3.from_int(-1), 6, None), [f3.zero, f3.one]),
        (FamilyParams(2, f3.from_int(-1), 6, [f3.zero, f3.zero, f3.one]),
         [f3.zero, f3.from_int(2)]),
    ]
    verdicts = []
    verdict = constructions._aut_verdict

    def recording(params, H, k, c):
        rep = verdict(params, H, k, c)
        verdicts.append((params, k, c, rep.ok))
        return rep
    monkeypatch.setattr(constructions, "_aut_verdict", recording)
    for params, grid in cases:
        family_aut_search(params, grid)
    monkeypatch.undo()
    assert len(verdicts) == 6 + 5 + 9 + 7 + 12 + 12
    passed = 0
    for params, k, c, ok in verdicts:
        assert family_aut_report(params, k, c).ok == ok
        assert ok == (all(aut_theorem_conditions(params, k, c).values())
                      and not c[1].is_zero), (params, k, [str(x) for x in c])
        passed += ok
    assert passed == 4 + 3 + 3 + 1 + 1 + 1
