"""Rota-Baxter operators on Lie algebras."""

import random
from itertools import product

import pytest

from hopfrb.hopf_core import ActionData, LinearMap
from hopfrb.rb_lie import (LieData, adjoint_lie_action,
                           check_derivation_action, check_lie,
                           check_rb_lie_weight, check_relative_rb_lie,
                           lie_from_json, lie_to_json, sl2)
from hopfrb.scalars import FieldCtx

from helpers import rescale_bracket

Q = FieldCtx.rationals()


def solvable_2dim(ctx=Q) -> LieData:
    """[x, y] = x."""
    return LieData(ctx, 2, {(0, 1): {0: ctx.one}}, labels=["x", "y"])


def test_bracket_mirror_is_filled_in():
    g = solvable_2dim()
    assert g.brackets[(1, 0)] == {0: -Q.one}
    assert check_lie(g).ok


def test_check_lie_sl2():
    g = sl2(Q)
    assert g.labels == ["e", "h", "f"]
    assert g.brackets[(1, 0)] == {0: Q.from_int(2)}
    assert g.brackets[(0, 2)] == {1: Q.one}
    assert check_lie(g).ok


def test_check_lie_negative():
    # [x,y] = z, [y,z] = x, [x,z] = x is not Jacobi
    bad = LieData(Q, 3, {(0, 1): {2: Q.one}, (1, 2): {0: Q.one},
                         (0, 2): {0: Q.one}})
    rep = check_lie(bad)
    assert not rep.ok
    assert rep.identity == "jacobi"
    assert rep.witness is not None


def test_check_lie_antisymmetry_negative():
    bad = LieData(Q, 2, {(0, 1): {0: Q.one}, (1, 0): {0: Q.one}})
    rep = check_lie(bad)
    assert not rep.ok
    assert rep.identity == "antisymmetry"


def test_adjoint_action_is_derivation_action():
    g = sl2(Q)
    rep = check_derivation_action(adjoint_lie_action(g), g, g)
    assert rep.ok
    assert set(rep.details) == {"derivation", "lie_morphism"}
    # one case per (i, j, u): phi([e_i,e_j]) e_u against the commutator
    assert rep.details["lie_morphism"]["stats"]["identities_checked"] == 3 * 3 * 3


def test_check_derivation_action_negative():
    g = solvable_2dim()
    # phi(x) = phi(y) = identity: the identity is not a derivation of [x,y]=x
    ident = LinearMap.identity(Q, 2)
    rep = check_derivation_action(ActionData.from_matrices(Q, [ident, ident]), g, g)
    assert not rep.ok
    assert rep.identity.startswith("derivation")


def test_relative_rb_zero_operator():
    g = sl2(Q)
    B = LinearMap(Q, [{}] * 3, 3)
    rep = check_relative_rb_lie(g, g, adjoint_lie_action(g), B, Q.zero)
    assert rep.ok


def test_relative_rb_rejects_invalid_action():
    g = solvable_2dim()
    ident = LinearMap.identity(Q, 2)
    with pytest.raises(ValueError) as exc:
        check_relative_rb_lie(g, g, ActionData.from_matrices(Q, [ident, ident]),
                              ident, Q.zero)
    assert "invalid derivation action" in str(exc.value)


def test_weight_operators_on_sl2():
    g = sl2(Q)
    zero = LinearMap(Q, [{}] * 3, 3)
    for lam in (Q.zero, Q.one, Q.from_int(2)):
        assert check_rb_lie_weight(g, zero, lam).ok
    for k in (1, -1, 2):
        lam = Q.from_int(k)
        minus = LinearMap(Q, [{j: -lam} for j in range(3)], 3)
        assert check_rb_lie_weight(g, minus, lam).ok
    rep = check_rb_lie_weight(g, LinearMap.identity(Q, 3), Q.zero)
    assert not rep.ok
    assert rep.witness is not None


def test_weight_zero_grid_on_solvable_2dim():
    # exhaustive {-1,0,1} matrix grid, counted independently beforehand
    g = solvable_2dim()
    vals = [Q.from_int(k) for k in (-1, 0, 1)]
    hits = []
    for a, b, c, d in product(vals, repeat=4):
        B = LinearMap(Q, [{0: a, 1: b}, {0: c, 1: d}], 2)
        if check_rb_lie_weight(g, B, Q.zero).ok:
            hits.append((str(a), str(b), str(c), str(d)))
    assert len(hits) == 15
    assert ("0", "0", "1", "0") in hits  # B(x) = 0, B(y) = x
    assert ("1", "0", "0", "1") not in hits  # the identity is not one


def test_weight_form_matches_relative_form():
    # the weight form on g is the relative form over the lambda-rescaled
    # bracket with the adjoint action: verdicts and witnesses must agree
    g = sl2(Q)
    ad = adjoint_lie_action(g)
    cases = []
    for k in (-2, -1, 0, 1, 2):
        lam = Q.from_int(k)
        # B = 0 and B = -lambda*id are operators of weight lambda
        cases.append((LinearMap(Q, [{}] * 3, 3), lam))
        cases.append((LinearMap(Q, [{j: -lam} for j in range(3)], 3), lam))
    random.seed(28)
    for _ in range(20):
        cols = [[Q.from_int(random.randint(-2, 2)) for _ in range(3)]
                for _ in range(3)]
        cases.append((LinearMap(Q, [dict(enumerate(c)) for c in cols], 3),
                      Q.from_int(random.randint(-2, 2))))
    verdicts = []
    for B, lam in cases:
        weight = check_rb_lie_weight(g, B, lam)
        relative = check_relative_rb_lie(g, rescale_bracket(g, lam), ad, B, Q.one)
        assert weight.ok == relative.ok
        if not weight.ok:
            for key in ("indices", "lhs", "rhs"):
                assert weight.witness[key] == relative.witness[key]
        verdicts.append(weight.ok)
    assert all(verdicts[:10])
    assert not all(verdicts[10:])


def test_rescale_bracket():
    g = sl2(Q)
    doubled = rescale_bracket(g, Q.from_int(2))
    assert doubled.brackets[(0, 2)] == {1: Q.from_int(2)}
    assert check_lie(doubled).ok
    assert rescale_bracket(g, Q.zero).brackets == {}


def test_lie_json_round_trip():
    g = sl2(Q)
    obj = lie_to_json(g)
    assert obj["labels"] == ["e", "h", "f"]
    back = lie_from_json(obj)
    assert back.brackets == g.brackets
    assert lie_to_json(back) == obj


def test_lie_over_finite_field():
    F5 = FieldCtx.prime(5)
    g = sl2(F5)
    assert check_lie(g).ok
    B = LinearMap(F5, [{j: -F5.one} for j in range(3)], 3)
    assert check_rb_lie_weight(g, B, F5.one).ok


def test_derivation_actions_and_operators_are_checked():
    g, s = sl2(Q), solvable_2dim()
    ident2, ident3 = LinearMap.identity(Q, 2), LinearMap.identity(Q, 3)
    with pytest.raises(ValueError, match="one matrix per basis element"):
        ActionData.from_matrices(Q, [])
    with pytest.raises(ValueError, match="different scalar fields"):
        ActionData.from_matrices(Q, [LinearMap.identity(FieldCtx.prime(5), 2)])
    with pytest.raises(ValueError, match="expected 2 x 2"):
        ActionData.from_matrices(Q, [ident2, ident3])
    with pytest.raises(ValueError, match="expected g x h = 3 x 3"):
        check_derivation_action(ActionData.from_matrices(Q, [ident2, ident2]), g, g)
    with pytest.raises(ValueError, match="B maps dim 2 to dim 2, expected dim 3 to dim 3"):
        check_relative_rb_lie(g, g, adjoint_lie_action(g), ident2, Q.zero)
    with pytest.raises(ValueError, match="B maps dim 3 to dim 3, expected dim 2 to dim 2"):
        check_rb_lie_weight(s, ident3, Q.zero)
    with pytest.raises(ValueError, match="out of range"):
        LieData(Q, 2, {(0, 2): {0: Q.one}})
