"""Rota-Baxter operators on Lie algebras."""

import json
import random
from itertools import combinations, product
from math import comb
from pathlib import Path

import pytest

from hopfrb import rb_lie
from hopfrb.cli import main
from hopfrb.hopf_core import ActionData, LinearMap
from hopfrb.rb_lie import (LieData, adjoint_lie_action,
                           check_derivation_action, check_lie,
                           check_rb_lie_weight, check_relative_rb_lie,
                           lie_from_json, lie_to_json, sl2)
from hopfrb.scalars import FieldCtx

from helpers import (counting, derivation_action_oracle, lie_oracle, rb_lie_weight_oracle,
                     relative_rb_lie_oracle, rescale_bracket)

Q = FieldCtx.rationals()
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GL2 = lie_from_json(json.loads((FIXTURES / "gl2.json").read_text()))


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
    # one case per (i < j, u): phi([e_i,e_j]) e_u against the commutator
    assert rep.details["lie_morphism"]["stats"]["identities_checked"] == 3 * 3


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


def one_entry_mutants(L: LieData, rng: random.Random, count: int) -> list:
    """count seeded copies of L, each with one structure constant c^k_ij
    (i != j) or c^k_ii moved by a nonzero step.  In every third copy c^k_ji
    moves by the opposite step, so antisymmetry holds there; in the others
    it breaks, unless the step clears an entry that LieData then fills in
    as the mirror."""
    out = []
    for t in range(count):
        i, j = rng.sample(range(L.dim), 2)
        k, step = rng.randrange(L.dim), Q.from_int(rng.choice([-2, -1, 1, 2, 3]))
        moves = {0: [((i, j), step), ((j, i), -step)], 1: [((i, j), step)],
                 2: [((i, i), step)]}[t % 3]
        table = {ij: dict(terms) for ij, terms in L.brackets.items()}
        for key, c in moves:
            entry = table.setdefault(key, {})
            entry[k] = entry.get(k, Q.zero) + c
        out.append(LieData(Q, L.dim, table, L.labels))
    return out


def assert_reduced(rep, oracle, sorted_tuples: dict) -> None:
    """rep is the oracle's report decided on fewer cases: the same JSON but
    for the counts.  sorted_tuples maps each part (None: an unmerged report)
    to the tuples it decides, a part counting them up to its first failing
    one, or all when it passes; a part mapped to None counts as the oracle."""
    want = json.loads(json.dumps(oracle.to_json()))
    parts = want.get("details") or {None: want}
    for name, part in parts.items():
        tuples = sorted_tuples[name]
        if tuples is not None:
            part["stats"]["identities_checked"] = (
                len(tuples) if part["status"] == "pass"
                else tuples.index(tuple(part["witness"]["indices"])) + 1)
    want["stats"]["identities_checked"] = sum(
        p["stats"]["identities_checked"] for p in parts.values())
    assert rep.to_json() == want


def antisymmetric(L: LieData) -> bool:
    return all(L.bracket_basis(j, i) == {k: -c for k, c in L.bracket_basis(i, j).items()}
               and not L.bracket_basis(i, i) for i in range(L.dim) for j in range(L.dim))


def mutant_inputs() -> list:
    """sl2 and gl2, each with 16 of its seeded one-entry mutants."""
    rng = random.Random(40)
    return [(base, L) for base in (sl2(Q), GL2)
            for L in [base] + one_entry_mutants(base, rng, 16)]


def test_the_reduced_lie_checks_match_the_oracle_on_mutants():
    seen = set()
    for base, L in mutant_inputs():
        n = L.dim
        anti = antisymmetric(L)
        rep = check_lie(L)
        assert_reduced(rep, lie_oracle(L), {
            "antisymmetry": None, "jacobi": list(combinations(range(n), 3)) if anti else None})
        seen.add((anti, rep.ok))
        ad = adjoint_lie_action(L)
        pairs = list(combinations(range(n), 2))
        assert_reduced(check_derivation_action(ad, L, L), derivation_action_oracle(ad, L, L), {
            "derivation": [(i,) + p for i in range(n) for p in pairs] if anti else None,
            "lie_morphism": [p + (u,) for p in pairs for u in range(n)] if anti else None})
    # the mutants break antisymmetry, keep it but break Jacobi, or stay Lie
    assert seen == {(False, False), (True, False), (True, True)}


def test_the_reduced_operator_checks_match_the_oracle_on_mutants():
    rng = random.Random(41)
    seen, raised = set(), 0
    for base, L in mutant_inputs():
        n = L.dim
        pairs = list(combinations(range(n), 2))
        zero = ActionData(Q, n, n, {})
        for lam in map(Q.from_int, (0, 1, -1, 2)):
            ops = [LinearMap(Q, [{}] * n, n), LinearMap(Q, [{j: -lam} for j in range(n)], n),
                   LinearMap(Q, [{r: Q.from_int(rng.randint(-1, 1)) for r in range(n)}
                                 for _ in range(n)], n)]
            for B in ops:
                rep = check_rb_lie_weight(L, B, lam)
                assert_reduced(rep, rb_lie_weight_oracle(L, B, lam),
                               {None: pairs if antisymmetric(L) else None})
                seen.add((antisymmetric(L), rep.ok))
                # relative: L acting on itself rescaled by lam (a derivation
                # action when L passes check_lie), and the zero action between
                # L and its base both ways round
                for g, h, phi in ((L, rescale_bracket(L, lam), adjoint_lie_action(L)),
                                  (L, base, zero), (base, L, zero)):
                    try:
                        want = relative_rb_lie_oracle(g, h, phi, B, Q.one)
                    except ValueError as e:
                        with pytest.raises(ValueError, match=str(e)):
                            check_relative_rb_lie(g, h, phi, B, Q.one)
                        raised += 1
                        continue
                    assert_reduced(check_relative_rb_lie(g, h, phi, B, Q.one), want,
                                   {None: pairs if antisymmetric(g) and antisymmetric(h)
                                    else None})
    assert seen == {(False, False), (False, True), (True, False), (True, True)}
    assert raised > 0


def test_jacobi_forms_one_cyclic_sum_per_sorted_triple(monkeypatch):
    # on gl2 the Jacobi cyclic sum, three bracket_sparse calls, is formed
    # C(4, 3) = 4 times, not 4^3 = 64
    calls = counting(monkeypatch, LieData, "bracket_sparse")
    rep = check_lie(GL2)
    assert rep.ok and rep.details["jacobi"]["stats"]["identities_checked"] == comb(4, 3)
    assert len(calls) == 3 * comb(4, 3)
    calls.clear()
    assert lie_oracle(GL2).ok and len(calls) == 3 * 4 ** 3


def test_antisymmetry_is_decided_once_per_algebra(monkeypatch, capsys):
    # LieData decides antisymmetry when it is built; check_lie, the weight
    # check, the derivation action and the relative check only read it
    calls = counting(monkeypatch, rb_lie, "_antisymmetry")
    g, h = sl2(Q), sl2(Q)
    minus_id = LinearMap(Q, [{i: -Q.one} for i in range(3)], 3)
    assert check_lie(g).ok and check_rb_lie_weight(g, minus_id, Q.one).ok
    ad = adjoint_lie_action(g)
    for target in (g, h):
        assert check_derivation_action(ad, g, target).ok
        assert check_relative_rb_lie(g, target, ad, minus_id, Q.one).ok
    assert calls == [(g,), (h,)]
    # the check-lie --b path reads one algebra and decides it once
    calls.clear()
    assert main(["check-lie", "--input", str(FIXTURES / "sl2.json"),
                 "--b", str(FIXTURES / "sl2-minus-identity.json"), "--weight", "1"]) == 0
    capsys.readouterr()
    assert len(calls) == 1
