"""Relative Rota-Baxter operators between Hopf algebras."""

import copy
import json
import random
from itertools import permutations, product
from operator import ne
from pathlib import Path

import pytest

from hopfrb import rb_hopf
from hopfrb.constructions import group_algebra, sweedler_h4
from hopfrb.hopf_core import (AlgebraData, LinearMap, check_algebra, check_hopf, hopf_to_json,
                              iterated_delta, opposite_hopf, tensor_outer)
from hopfrb.rb_group import GroupTable, enumerate_rb, linearize_rb
from hopfrb.rb_hopf import (ActionData, RelRBHopf, action_from_json, adjoint_action,
                            check_action, check_hopf_brace, check_rrbo, circle,
                            derived_hopf, exact_factorization_rrb, grbo_check,
                            hrbo_action, hrbo_check, rrb_from_json, rrb_to_json,
                            _cond3_cases)
from hopfrb.scalars import FieldCtx
from helpers import (_action_join, counting, counit_unit_operator, tensor_apply_map,
                     tensor_mul_legs, tensor_permute)

Q = FieldCtx.rationals()
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def sparse(v: list) -> dict:
    return {i: c for i, c in enumerate(v) if not c.is_zero}


def _delta_tensor(H, i: int, legs: int) -> dict:
    return iterated_delta(H.coalgebra, {i: H.ctx.one}, legs)


def h4_rrb_json() -> dict:
    return json.loads((FIXTURES / "h4-rrb-exact-factorization.json").read_text())


def test_unit_condition_is_decided_on_vectors():
    # B(h) = e(h)g is a coalgebra map, since g is group-like, with B(1) = g
    obj = h4_rrb_json()
    obj["B"] = [["0"] * 4, obj["H"]["counit"], ["0"] * 4, ["0"] * 4]
    rep = check_rrbo(rrb_from_json(obj))
    assert rep.details["condition_1_coalgebra"]["status"] == "pass"
    assert rep.identity == "condition_1_unit"
    assert rep.witness == {"identity": "condition_1_unit", "indices": [], "labels": [],
                           "lhs": "(1)*g", "rhs": "(1)*1"}


def test_invalid_input_is_rejected_with_its_reason():
    S3 = GroupTable.symmetric(3)
    with pytest.raises(ValueError, match="L is not a subgroup"):
        exact_factorization_rrb(S3, [0, 2], [0, 3], Q)
    obj = h4_rrb_json()
    obj["G"]["field"] = "F5"
    with pytest.raises(ValueError, match="H and G use different scalar fields"):
        rrb_from_json(obj)


def cond3_remark_sides(data: RelRBHopf, a: int, b: int) -> tuple[dict, dict]:
    """Oracle for condition 3, the antipode-expanded form: Delta(Phi_{B(a)}(b))
    against the four-leg expansion Phi_{B(a2)}(b1) (x) S(a1) * a3 * Phi_{B(a4)}(b2)."""
    H, phi, B = data.H, data.phi, data.B
    lhs = iterated_delta(H.coalgebra, phi.apply(B.cols[a], {b: H.ctx.one}), 2)
    t = tensor_outer(_delta_tensor(H, a, 4), _delta_tensor(H, b, 2))  # [a1..a4, b1, b2]
    t = tensor_apply_map(B, t, 1)
    t = tensor_apply_map(B, t, 3)
    t = tensor_apply_map(H.antipode, t, 0)           # [S(a1), B(a2), a3, B(a4), b1, b2]
    t = _action_join(phi, t, 1, 4)                   # [S(a1), a3, B(a4), u, b2]
    t = _action_join(phi, t, 2, 4)                   # [S(a1), a3, u, w]
    t = tensor_permute(t, [2, 0, 1, 3])              # [u, S(a1), a3, w]
    t = tensor_mul_legs(H.algebra, t, 1)
    rhs = tensor_mul_legs(H.algebra, t, 1)           # [u, S(a1)*a3*w]
    return lhs, rhs


def grbo_display_sides(data: RelRBHopf, a: int, b: int) -> tuple[dict, dict]:
    """Oracle for the adjoint-action case, the one-line circle-associativity
    display.  The compact form nests Sweedler subscripts inside operator
    arguments; both sides are rank-7 tensors with the inner legs flattened
    into one iterated coproduct."""
    H, B = data.H, data.B
    SB = H.antipode.compose(B)
    t0 = tensor_outer(_delta_tensor(H, a, 5), _delta_tensor(H, b, 2))  # [t1..t5, b1, b2]
    # lhs: B(t2) b1 S(B(t5)) (x) t1 B(t3) b2 S(B(t4))
    t = tensor_apply_map(B, t0, 1)
    t = tensor_apply_map(B, t, 2)
    t = tensor_apply_map(SB, t, 3)
    t = tensor_apply_map(SB, t, 4)
    t = tensor_permute(t, [1, 5, 4, 0, 2, 6, 3])
    for _ in range(2):
        t = tensor_mul_legs(H.algebra, t, 0)
    for _ in range(3):
        t = tensor_mul_legs(H.algebra, t, 1)
    lhs = t
    # rhs: B(t1) b1 S(B(t2)) (x) t3 B(t4) b2 S(B(t5))
    t = tensor_apply_map(B, t0, 0)
    t = tensor_apply_map(SB, t, 1)
    t = tensor_apply_map(B, t, 3)
    t = tensor_apply_map(SB, t, 4)
    t = tensor_permute(t, [0, 5, 1, 2, 3, 6, 4])
    for _ in range(2):
        t = tensor_mul_legs(H.algebra, t, 0)
    for _ in range(3):
        t = tensor_mul_legs(H.algebra, t, 1)
    return lhs, t


def hrbo_display_sides(data: RelRBHopf, a: int, b: int) -> tuple[dict, dict]:
    """Oracle for the H^op case, the one-line condition-3 form: b stays
    unsplit, the left side uses three a-legs and the right side five."""
    H, B = data.H, data.B
    SB = H.antipode.compose(B)
    bt = _delta_tensor(H, b, 1)
    # lhs: S(B(a2)) b B(a3) (x) S(B(a1))
    t = tensor_outer(_delta_tensor(H, a, 3), bt)     # [a1, a2, a3, b]
    t = tensor_apply_map(SB, t, 0)
    t = tensor_apply_map(SB, t, 1)
    t = tensor_apply_map(B, t, 2)
    t = tensor_permute(t, [1, 3, 2, 0])              # [SB(a2), b, B(a3), SB(a1)]
    t = tensor_mul_legs(H.algebra, t, 0)
    lhs = tensor_mul_legs(H.algebra, t, 0)
    # rhs: S(B(a2)) b B(a3) (x) S(a1) a4 S(B(a5))
    t = tensor_outer(_delta_tensor(H, a, 5), bt)     # [a1..a5, b]
    t = tensor_apply_map(H.antipode, t, 0)
    t = tensor_apply_map(SB, t, 1)
    t = tensor_apply_map(B, t, 2)
    t = tensor_apply_map(SB, t, 4)
    t = tensor_permute(t, [1, 5, 2, 0, 3, 4])        # [SB(a2), b, B(a3), S(a1), a4, SB(a5)]
    t = tensor_mul_legs(H.algebra, t, 0)
    t = tensor_mul_legs(H.algebra, t, 0)
    t = tensor_mul_legs(H.algebra, t, 1)
    rhs = tensor_mul_legs(H.algebra, t, 1)
    return lhs, rhs


def grbo_data(H, B) -> RelRBHopf:
    return RelRBHopf(H, H, adjoint_action(H), B)


def hrbo_data(H, B) -> RelRBHopf:
    return RelRBHopf(H, opposite_hopf(H), hrbo_action(H), B)


def failing_pairs(data: RelRBHopf, sides) -> list:
    """The basis pairs (a, b) where sides(data, a, b) returns two unequal sides."""
    n = data.H.dim
    return [(a, b) for a in range(n) for b in range(n) if ne(*sides(data, a, b))]


def compat_failing_pairs(data: RelRBHopf) -> list:
    """The basis pairs where condition 3 fails in the compatibility form
    that check_rrbo decides."""
    return [p for p, lhs, rhs in _cond3_cases(data) if ne(lhs, rhs)]


def test_adjoint_action_is_conjugation_on_group_algebra():
    G = GroupTable.symmetric(3)
    H = group_algebra(G, Q)
    act = adjoint_action(H)
    for g in range(6):
        for h in range(6):
            assert act.apply_basis(g, h) == {G.conjugate(g, h): Q.one}
    assert check_action(act, H, H).ok


def test_check_action_negative():
    H = group_algebra(GroupTable.cyclic(3), Q)
    # constant action through a non-automorphism: not multiplicative
    phi = {(g, h): {0: Q.one} for g in range(3) for h in range(3)}
    act = ActionData(Q, 3, 3, phi)
    rep = check_action(act, H, H)
    assert not rep.ok
    assert rep.witness is not None


def test_check_rrbo_counit_unit_operator():
    H4 = sweedler_h4(Q)
    data = RelRBHopf(H4, H4, adjoint_action(H4), counit_unit_operator(H4))
    rep = check_rrbo(data, full=True)
    assert rep.ok
    expected = {"condition_1_coalgebra", "condition_1_unit", "condition_2_action",
                "condition_3_compat", "condition_4_rb"}
    assert set(rep.details) == expected
    # the remark form holds on all 16 pairs
    assert failing_pairs(data, cond3_remark_sides) == []


def test_check_rrbo_stops_at_first_failure():
    H4 = sweedler_h4(Q)
    B = counit_unit_operator(H4)
    cols = [dict(c) for c in B.cols]
    cols[2][1] = Q.one  # B(x) = g: breaks the coalgebra condition
    bad = LinearMap(Q, cols, 4)
    data = RelRBHopf(H4, H4, adjoint_action(H4), bad)
    rep = check_rrbo(data)
    assert not rep.ok
    assert rep.identity.startswith("condition_1_coalgebra")
    assert "condition_4_rb" not in rep.details
    full = check_rrbo(data, full=True)
    assert "condition_4_rb" in full.details


def test_condition_3_failure_with_valid_coalgebra_map():
    H4 = sweedler_h4(Q)
    # kill x and gx: still a coalgebra map fixing the unit, but the
    # compatibility equation breaks on (x, x)
    cols = [{0: Q.one}, {1: Q.one}, {}, {}]
    data = RelRBHopf(H4, H4, adjoint_action(H4), LinearMap(Q, cols, 4))
    rep = check_rrbo(data, full=True)
    assert not rep.ok
    assert rep.details["condition_1_coalgebra"]["status"] == "pass"
    assert rep.details["condition_2_action"]["status"] == "pass"
    assert rep.details["condition_3_compat"]["status"] == "fail"
    # the antipode-expanded form fails in the same places
    compat = compat_failing_pairs(data)
    assert compat and failing_pairs(data, cond3_remark_sides) == compat
    assert rep.details["condition_3_compat"]["witness"]["indices"] == list(compat[0])


def test_condition_4_failure_identity_operator():
    H = group_algebra(GroupTable.symmetric(3), Q)
    data = RelRBHopf(H, H, adjoint_action(H), LinearMap.identity(Q, 6))
    rep = check_rrbo(data)
    assert not rep.ok
    assert rep.identity.startswith("condition_4_rb")


def test_circle_is_bilinear():
    G = GroupTable.symmetric(3)
    H = group_algebra(G, Q)
    B = LinearMap(Q, [{G.inv[i]: Q.one} for i in range(6)], 6)
    data = RelRBHopf(H, H, adjoint_action(H), B)
    random.seed(3)
    for _ in range(5):
        a = [Q.from_int(random.randint(-2, 2)) for _ in range(6)]
        b = [Q.from_int(random.randint(-2, 2)) for _ in range(6)]
        direct = circle(data, sparse(a), sparse(b))
        expanded = [Q.zero] * 6
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                term = circle(data, {i: Q.one}, {j: Q.one})
                expanded = [s + ai * bj * term.get(k, Q.zero) for k, s in enumerate(expanded)]
        assert direct == sparse(expanded)


def test_exact_factorization_s3():
    S3 = GroupTable.symmetric(3)
    data = exact_factorization_rrb(S3, [0, 3, 4], [0, 2], Q)
    rep = check_rrbo(data, full=True)
    assert rep.ok
    # B sends a*l to l: the image of any rotation is the trivial coset rep
    assert data.B.cols[3] == {0: Q.one}
    assert data.B.cols[2] == {1: Q.one}
    D = derived_hopf(data)
    assert check_hopf(D).ok
    brace = check_hopf_brace(data)
    assert brace.ok
    assert all(brace.details["phi_invertibility"].values())


def test_exact_factorization_flipped_and_trivial():
    S3 = GroupTable.symmetric(3)
    data = exact_factorization_rrb(S3, [0, 2], [0, 3, 4], Q)
    assert check_rrbo(data, full=True).ok
    whole = exact_factorization_rrb(S3, [0], list(range(6)), Q)
    assert check_rrbo(whole).ok
    assert whole.G.dim == 6


def test_exact_factorization_errors():
    S3 = GroupTable.symmetric(3)
    with pytest.raises(ValueError):
        exact_factorization_rrb(S3, [0, 3], [0, 2], Q)  # A not closed
    with pytest.raises(ValueError) as exc:
        exact_factorization_rrb(S3, [0, 3, 4], [0, 3, 4], Q)
    assert "factorization" in str(exc.value)


def test_derived_hopf_requires_valid_operator():
    H = group_algebra(GroupTable.symmetric(3), Q)
    data = RelRBHopf(H, H, adjoint_action(H), LinearMap.identity(Q, 6))
    with pytest.raises(ValueError):
        derived_hopf(data)


def test_hopf_brace_negative():
    H4 = sweedler_h4(Q)
    # B(x) = g is not even a coalgebra map and the brace identity sees it
    cols = [{0: Q.one}, {1: Q.one}, {1: Q.one}, {}]
    data = RelRBHopf(H4, H4, adjoint_action(H4), LinearMap(Q, cols, 4))
    rep = check_hopf_brace(data)
    assert not rep.ok
    assert rep.identity == "hopf_brace"
    assert rep.witness["labels"] == ["x", "1", "1"]


def test_hopf_brace_witness_text_is_pinned():
    # both sides print as labelled terms in basis order
    S3 = GroupTable.symmetric(3)
    data = exact_factorization_rrb(S3, [0, 3, 4], [0, 2], Q)
    cases = [
        ([[1, 0, 0, 1, 1, -1], [0, 1, 1, 0, 0, 1]], [5, 0, 1],
         "(1)*g0 + (-1)*g4", "0"),
        ([[1, 0, 0, 1, 2, 0], [0, 1, 1, 0, -1, 1]], [4, 1, 1],
         "(1)*g4", "(-2)*g0 + (-2)*g3 + (5)*g4"),
    ]
    for rows, indices, lhs, rhs in cases:
        B = LinearMap.from_rows(Q, [[Q.from_int(c) for c in row] for row in rows])
        rep = check_hopf_brace(RelRBHopf(data.H, data.G, data.phi, B))
        assert rep.witness == {"identity": "hopf_brace", "indices": indices, "lhs": lhs,
                               "rhs": rhs, "labels": [f"g{i}" for i in indices]}


def test_condition_4_witness_text_is_pinned():
    # both sides print as labelled terms in basis order
    H = group_algebra(GroupTable.symmetric(3), Q)
    rows = [[0, 0, -1, 1, 0, 0], [-1, 0, -1, -1, -1, 0], [1, 0, 0, 0, 0, 0],
            [-1, -1, 1, 0, 0, -1], [1, 0, 0, -1, 0, -1], [0, 0, 0, 0, 0, 1]]
    B = LinearMap.from_rows(Q, [[Q.from_int(c) for c in row] for row in rows])
    rep = hrbo_check(H, B)
    assert rep.details["rrbo"]["details"]["condition_4_rb"]["witness"] == {
        "identity": "condition_4_rb", "indices": [0, 1], "labels": ["g0", "g1"],
        "lhs": "(-1)*g0 + (1)*g2 + (1)*g4 + (-1)*g5",
        "rhs": "(1)*g0 + (1)*g1 + (-2)*g3 + (-2)*g4 + (2)*g5"}


def test_grbo_check_linearized_operators():
    for G in (GroupTable.cyclic(4), GroupTable.symmetric(3)):
        for op in enumerate_rb(G, 1):
            H, B = linearize_rb(G, op, Q)
            rep = grbo_check(H, B)
            assert rep.ok
            data = grbo_data(H, B)
            # grbo_check is check_rrbo on the adjoint action and nothing more
            inner = check_rrbo(data)
            assert rep.details == {"rrbo": inner.to_json()} and rep.stats == inner.stats
            for g in range(G.n):
                for h in range(G.n):
                    want = G.mul(G.mul(G.mul(g, op[g]), h), G.inverse(op[g]))
                    got = circle(data, {g: Q.one}, {h: Q.one})
                    assert got == {want: Q.one}


def test_grbo_display_holds_for_any_map_when_cocommutative():
    # the associativity display needs no operator axioms on a cocommutative
    # algebra: the Sweedler legs can be permuted freely
    G = GroupTable.symmetric(3)
    H = group_algebra(G, Q)
    random.seed(8)
    cols = [[Q.from_int(random.randint(-2, 2)) for _ in range(6)] for _ in range(6)]
    data = grbo_data(H, LinearMap(Q, [sparse(c) for c in cols], 6))
    assert not check_rrbo(data).ok
    assert failing_pairs(data, grbo_display_sides) == []


def test_display_forms_agree_wherever_check_rrbo_passes():
    # each display restates an identity that check_rrbo decides, so both of
    # its sides agree on every basis pair of a relative operator
    h4, kZ4 = sweedler_h4(Q), group_algebra(GroupTable.cyclic(4), Q)
    cases = [(grbo_display_sides, grbo_data(*linearize_rb(G, op, Q)))
             for G in (GroupTable.cyclic(4), GroupTable.symmetric(3))
             for op in enumerate_rb(G, 1)]
    assert len(cases) == 4 + 8
    for H, B in ((h4, counit_unit_operator(h4)), (kZ4, counit_unit_operator(kZ4)),
                 (kZ4, LinearMap.identity(Q, 4)), (kZ4, kZ4.antipode)):
        cases += [(grbo_display_sides, grbo_data(H, B)), (hrbo_display_sides, hrbo_data(H, B))]
    cases.append((hrbo_display_sides, hrbo_data(h4, LinearMap.identity(Q, 4))))
    for sides, data in cases:
        assert check_rrbo(data, full=True).ok
        assert failing_pairs(data, sides) == []
    # the H^op display decides less than check_rrbo: on k[S3] with the
    # antipode it holds on every pair although condition 4 fails
    kS3 = group_algebra(GroupTable.symmetric(3), Q)
    data = hrbo_data(kS3, kS3.antipode)
    assert check_rrbo(data, full=True).identity == "condition_4_rb"
    assert failing_pairs(data, hrbo_display_sides) == []


def test_grbo_check_negative():
    H = group_algebra(GroupTable.cyclic(4), Q)
    constant = LinearMap(Q, [{1: Q.one}] * 4, 4)
    rep = grbo_check(H, constant)
    assert not rep.ok
    assert rep.identity.startswith("rrbo.condition_1")


def test_hrbo_check():
    H4 = sweedler_h4(Q)
    assert hrbo_check(H4, counit_unit_operator(H4)).ok
    # the identity is an operator of this kind on any Hopf algebra
    assert hrbo_check(H4, LinearMap.identity(Q, 4)).ok
    Z4 = group_algebra(GroupTable.cyclic(4), Q)
    assert hrbo_check(Z4, Z4.antipode).ok
    S3 = group_algebra(GroupTable.symmetric(3), Q)
    rep = hrbo_check(S3, S3.antipode)
    assert not rep.ok
    assert rep.identity == "rrbo.condition_4_rb"
    # hrbo_check is check_rrbo with every condition decided
    assert rep.details == {"rrbo": check_rrbo(hrbo_data(S3, S3.antipode), full=True).to_json()}
    # the antipode of H4 is no coalgebra map into H4^op
    assert hrbo_check(H4, H4.antipode).identity == "rrbo.condition_1_coalgebra.morphism_comult"


def test_rrb_json_round_trip(tmp_path):
    S3 = GroupTable.symmetric(3)
    data = exact_factorization_rrb(S3, [0, 3, 4], [0, 2], Q)
    obj = rrb_to_json(data)
    back = rrb_from_json(obj)
    assert rrb_to_json(back) == obj
    assert check_rrbo(back, full=True).ok
    # H given as a file reference instead of inline
    hpath = tmp_path / "h.json"
    hpath.write_text(json.dumps(hopf_to_json(data.H)))
    obj_ref = dict(obj)
    obj_ref["H"] = "h.json"
    again = rrb_from_json(obj_ref, base_dir=str(tmp_path))
    assert rrb_to_json(again) == obj


def test_action_json_round_trip():
    H = sweedler_h4(Q)
    act = adjoint_action(H)
    back = action_from_json(act.to_json(), Q, 4, 4)
    assert back.phi == act.phi


def test_relative_operator_shapes_and_fields_are_checked():
    H4, kZ3 = sweedler_h4(Q), group_algebra(GroupTable.cyclic(3), Q)
    act = adjoint_action(H4)
    with pytest.raises(ValueError, match="B maps dim 4 to dim 3"):
        RelRBHopf(H4, H4, act, LinearMap(Q, [{}] * 4, 3))
    with pytest.raises(ValueError, match="phi has dims 4 x 4"):
        RelRBHopf(kZ3, kZ3, act, counit_unit_operator(kZ3))
    with pytest.raises(ValueError, match="phi has dims 4 x 4"):
        check_action(act, kZ3, kZ3)
    with pytest.raises(ValueError, match="different scalar fields"):
        RelRBHopf(H4, H4, act, LinearMap.identity(FieldCtx.prime(5), 4))
    with pytest.raises(ValueError, match=r"phi entry \(4,0\)"):
        ActionData(Q, 4, 4, {(4, 0): {0: Q.one}})


def test_hopf_brace_reads_its_left_side_from_the_circle_table(monkeypatch):
    # a o (b*c) = sum_k c_k (a o e_k): only the n^2 table entries call circle
    def s3():
        return exact_factorization_rrb(GroupTable.symmetric(3), [0, 3, 4], [0, 2], Q)

    calls = []
    monkeypatch.setattr("hopfrb.rb_hopf.circle",
                        lambda *args: calls.append(args) or circle(*args))
    data = s3()
    assert check_hopf_brace(data).ok
    assert len(calls) == data.H.dim ** 2 == 36
    # condition 4, the brace and the derived product share one table
    calls.clear()
    data = s3()
    assert check_rrbo(data, full=True).ok
    assert check_hopf_brace(data).ok
    derived_hopf(data)
    assert len(calls) == 36


def test_hopf_brace_multiplies_n_squared_times_each_generator(monkeypatch):
    # b runs over generating_set(H) = [1, 2]: (a_(1) o b) * S(a_(2)) is formed
    # once per (a, b) and multiplied by a_(3) o c once per c; on a group
    # algebra each a has one Delta^2 term.  The premise check_algebra(H)
    # makes the other products.
    data = exact_factorization_rrb(GroupTable.symmetric(3), [0, 3, 4], [0, 2], Q)
    assert check_rrbo(data, full=True).ok  # fills the circle table
    calls = []
    mul_sparse = AlgebraData.mul_sparse
    monkeypatch.setattr(AlgebraData, "mul_sparse",
                        lambda self, *args: calls.append(args) or mul_sparse(self, *args))
    assert check_algebra(data.H).ok
    premise = len(calls)
    calls.clear()
    assert check_hopf_brace(data).ok
    n, gens = data.H.dim, 2
    assert len(calls) - premise == n * gens * n + n * gens == 84


def s4_factorization() -> RelRBHopf:
    """k[S4] = k[Stab(3)] k[<(0 1 2 3)>], as in the relative-rb benchmark."""
    S4 = GroupTable.symmetric(4)
    perms = list(permutations(range(4)))
    A = [i for i, p in enumerate(perms) if p[3] == 3]
    L = [perms.index(q) for q in ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2))]
    return exact_factorization_rrb(S4, A, L, Q)


def test_s4_counts_fall_to_the_generator_cases():
    # generating_set(k[S4]) has 3 elements and that of k[Z4]^op one
    data = s4_factorization()
    n, m = data.H.dim, data.G.dim
    assert (n, m) == (24, 4)
    rep = check_rrbo(data, full=True)
    assert rep.ok
    action = rep.details["condition_2_action"]["details"]
    counts = {part: action[part]["stats"]["identities_checked"] for part in action}
    # g runs over one generator of G, not all 4: 96 of 384 and 576 of 2304
    assert counts == {"unit_acts_trivially": n, "action_composition": 1 * m * n,
                      "action_multiplicative": 1 * n * n, "action_on_unit": m}
    assert (counts["action_composition"], counts["action_multiplicative"]) == (96, 576)
    brace = check_hopf_brace(data)
    assert brace.ok
    # b runs over three generators of H, not all 24: 1728 of 13,824 triples
    assert brace.details["hopf_brace"]["stats"]["identities_checked"] == n * 3 * n == 1728


def test_check_rrbo_catches_every_one_entry_change_of_the_h4_fixture():
    # +1 on each of the 16 entries of B and on each of the 64 coefficients
    # of Phi, zero or not
    path = FIXTURES / "h4-rrb-exact-factorization.json"
    data = rrb_from_json(json.loads(path.read_text()), str(FIXTURES))
    H, G, phi, B = data.H, data.G, data.phi, data.B
    assert check_rrbo(data, full=True).ok
    mutants = []
    for h, g in product(range(H.dim), range(G.dim)):
        cols = [dict(c) for c in B.cols]
        cols[h][g] = cols[h].get(g, Q.zero) + Q.one
        mutants.append((("B", g, h), RelRBHopf(H, G, phi, LinearMap(Q, cols, G.dim))))
    for g, h, k in product(range(G.dim), range(H.dim), range(H.dim)):
        table = {key: dict(t) for key, t in phi.phi.items()}
        terms = table.setdefault((g, h), {})
        terms[k] = terms.get(k, Q.zero) + Q.one
        mutants.append((("phi", g, h, k), RelRBHopf(H, G, ActionData(Q, G.dim, H.dim, table), B)))
    assert len(mutants) == 16 + 64
    for name, bad in mutants:
        rep = check_rrbo(bad, full=True)
        assert not rep.ok and rep.witness is not None, name


def test_failing_check_rrbo_leaves_the_coproduct_tables_unchanged():
    # condition 3 reads the stored Delta(e_a) and Delta(e_b) in place
    obj = json.loads((FIXTURES / "h4-rrb-exact-factorization.json").read_text())
    obj["B"][2][2] = "2"
    data = rrb_from_json(obj, str(FIXTURES))
    before = copy.deepcopy((data.H.coalgebra.delta, data.G.coalgebra.delta))
    rep = check_rrbo(data, full=True)
    assert not rep.ok and "condition_3_compat" in rep.details
    assert (data.H.coalgebra.delta, data.G.coalgebra.delta) == before


def test_action_join_needs_two_legs():
    act = adjoint_action(sweedler_h4(Q))
    assert _action_join(act, {(1, 2): Q.one}, 0, 1) == {(2,): -Q.one}  # g x g^-1 = -x
    with pytest.raises(ValueError, match="cannot act on itself"):
        _action_join(act, {(1, 2): Q.one}, 1, 1)


def test_condition_3_acts_once_per_basis_pair(monkeypatch):
    # Phi_{B(e_j)}(e_k) is formed once per (j, k), with no per-leg action
    path = FIXTURES / "h4-rrb-exact-factorization.json"
    data = rrb_from_json(json.loads(path.read_text()), str(FIXTURES))
    applied = counting(monkeypatch, ActionData, "apply")
    per_leg = counting(monkeypatch, ActionData, "apply_basis")
    cases = list(_cond3_cases(data))
    assert len(cases) == 16 and all(lhs == rhs for _, lhs, rhs in cases)
    assert 0 < len(applied) <= data.H.dim ** 2 and per_leg == []


def test_condition_3_splits_each_a_once(monkeypatch):
    # Delta^2(e_a) is formed once per a, not once per pair (a, b)
    path = FIXTURES / "h4-rrb-exact-factorization.json"
    data = rrb_from_json(json.loads(path.read_text()), str(FIXTURES))
    calls = counting(monkeypatch, rb_hopf, "iterated_delta")
    assert check_rrbo(data, full=True).ok
    assert data.H.dim == 4 and len(calls) == 4
