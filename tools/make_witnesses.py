"""Regenerate tests/data/witnesses.json, the golden verdicts of failing inputs.

Every checker that reports a first counterexample is run here on fixed inputs,
all but four of them failing (four of the sixteen one-entry changes of the
identity map of H4 are still algebra or coalgebra morphisms): one-entry
mutants of three Hopf algebras, wrong morphisms, maps
that are not Rota-Baxter operators, broken actions, a corrupted relative
operator file, broken Lie data and family parameters that violate each
hypothesis.  For each input the file keeps the status, the failing identity
and the witness, and the same for every failing sub-report under details.
tests/test_witness_stability.py recomputes them and compares byte for byte.

Run from the repository root:  python3 tools/make_witnesses.py
"""

import json
import os
import random
import sys
from fractions import Fraction

from hopfrb.constructions import (FamilyParams, family_aut_report, family_hypotheses,
                                  group_algebra, sweedler_h4, taft)
from hopfrb.hopf_core import (AlgebraData, HopfData, LinearMap, check_hopf, hopf_from_json,
                              hopf_to_json, is_algebra_morphism, is_coalgebra_morphism)
from hopfrb.rb_group import (GroupAction, GroupTable, check_group, check_rb, check_rb_lambda,
                             check_star_compat, relative_rb_check, skew_brace_check)
from hopfrb.rb_hopf import (ActionData, check_action, check_hopf_brace, check_rrbo,
                            grbo_check, hrbo_check, rrb_from_json)
from hopfrb.rb_lie import (LieData, adjoint_lie_action,
                           check_derivation_action, check_lie, check_rb_lie_weight,
                           check_relative_rb_lie, sl2)
from hopfrb.scalars import FieldCtx

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))
from helpers import transport_group  # noqa: E402  (a test helper, not the library)

OUT = os.path.join(ROOT, "tests", "data", "witnesses.json")
FIXTURES = os.path.join(ROOT, "fixtures")

Q = FieldCtx.rationals()


def verdict(obj: dict) -> dict:
    """Status, identity and witness of a report's JSON, recursing into the
    failing sub-reports under details.  A passing report keeps its status only."""
    if obj["status"] == "pass":
        return {"status": "pass"}
    out = {"status": "fail", "identity": obj.get("identity", ""), "witness": obj["witness"]}
    parts = {name: verdict(d) for name, d in obj.get("details", {}).items()
             if isinstance(d, dict) and d.get("status") == "fail"}
    if parts:
        out["parts"] = parts
    return out


# ---------------------------------------------------------------------------
# Hopf algebras: every structure constant shifted by one, one at a time


def shift(c):
    """A serialized scalar plus one."""
    if isinstance(c, str):
        return str(Fraction(c) + 1)
    if "coeffs" in c:
        return {**c, "coeffs": [str(Fraction(c["coeffs"][0]) + 1)] + c["coeffs"][1:]}
    return {**c, "value": (c["value"] + 1) % c["p"]}


def one_entry_mutants(obj: dict):
    """(name, mutated JSON) for every entry of unit, mult, delta, counit, antipode."""
    def copy():
        return json.loads(json.dumps(obj))
    for k in range(obj["dim"]):
        out = copy()
        out["unit"][k] = shift(out["unit"][k])
        yield f"unit[{k}]", out
        out = copy()
        out["counit"][k] = shift(out["counit"][k])
        yield f"counit[{k}]", out
    for kind in ("mult", "delta"):
        for e, entry in enumerate(obj[kind]):
            for t in range(len(entry["terms"])):
                out = copy()
                term = out[kind][e]["terms"][t]
                term["c"] = shift(term["c"])
                yield f"{kind}[{e}][{t}]", out
    for r, row in enumerate(obj["antipode"]):
        for c in range(len(row)):
            out = copy()
            out["antipode"][r][c] = shift(out["antipode"][r][c])
            yield f"antipode[{r}][{c}]", out


def x_squared_one(H: HopfData, g: int, x: int, gx: int) -> HopfData:
    """x^2 = 1 in place of x^2 = 0, given the basis indices of g, x and gx:
    still an algebra, with H's coalgebra, but Delta is no longer
    multiplicative, so the bialgebra part fails first."""
    A = H.algebra
    one = A.ctx.one
    mult = dict(A.mult)
    mult.update({(x, x): {0: one}, (gx, x): {g: one}, (x, gx): {g: -one}, (gx, gx): {0: -one}})
    alg = AlgebraData(A.ctx, A.dim, A.unit, mult, A.labels)
    return HopfData(alg, H.coalgebra, H.antipode)


def hopf_cases(out: dict) -> None:
    h4 = sweedler_h4(Q)
    bases = {
        "h4": h4,
        "taft2": taft(2, FieldCtx.cyclotomic(4)),
        "kZ4": group_algebra(GroupTable.cyclic(4), FieldCtx.prime(5)),
    }
    for base, H in bases.items():
        obj = hopf_to_json(H)
        for name, mutant in one_entry_mutants(obj):
            rep = check_hopf(hopf_from_json(mutant))
            out[f"check_hopf/{base}/{name}"] = verdict(rep.to_json())
    for base, gxgx in (("h4", (1, 2, 3)), ("taft2", (2, 1, 3))):
        out[f"check_hopf/{base}/x_squared_one"] = verdict(
            check_hopf(x_squared_one(bases[base], *gxgx)).to_json())

    ident = LinearMap.identity(Q, 4)
    for r in range(4):
        for c in range(4):
            cols = [dict(col) for col in ident.cols]
            cols[c][r] = cols[c].get(r, Q.zero) + Q.one
            f = LinearMap(Q, cols, 4)
            out[f"is_algebra_morphism/h4/id+E{r}{c}"] = verdict(
                is_algebra_morphism(f, h4, h4).to_json())
            out[f"is_coalgebra_morphism/h4/id+E{r}{c}"] = verdict(
                is_coalgebra_morphism(f, h4, h4).to_json())

    z3 = FieldCtx.cyclotomic(3)
    p3 = FamilyParams(3, z3.root_of_unity(3), 3, None)
    for k, c in ((0, [0, 0, 0]), (1, [0, 0, 0]), (2, [0, 0, 1])):
        out[f"family_aut_report/taft3/k{k}/c{c}"] = verdict(family_aut_report(p3, k, c).to_json())
    ph4 = FamilyParams(2, Q.from_int(-1), 2, None)
    out["family_aut_report/h4/k1/c[0, 0]"] = verdict(family_aut_report(ph4, 1, [0, 0]).to_json())


# ---------------------------------------------------------------------------
# finite groups


def group_cases(out: dict) -> None:
    rng = random.Random(20231116)
    S3 = GroupTable.symmetric(3)
    Z4 = GroupTable.cyclic(4)
    F21 = GroupTable.metacyclic(7, 3, 2)
    for G, weights in ((S3, (1, -1)), (Z4, (1, -1))):
        for w in weights:
            for t in range(6):
                B = tuple(rng.randrange(G.n) for _ in range(G.n))
                out[f"check_rb/{G.name}/w{w}/{t}"] = verdict(check_rb(G, B, w).to_json())
    for t in range(4):
        B = tuple(rng.randrange(F21.n) for _ in range(F21.n))
        out[f"check_rb_lambda/F21/w2/{t}"] = verdict(check_rb_lambda(F21, B, 2).to_json())

    tables = {
        "not_associative": [[0, 1, 2], [1, 0, 0], [2, 0, 1]],
        "no_identity": [[1, 1], [1, 1]],
        "no_inverse": [[0, 1], [1, 1]],
    }
    for name, table in tables.items():
        out[f"is_group/{name}"] = verdict(check_group(table)[1].to_json())

    Z3 = GroupTable.cyclic(3)
    Z2 = GroupTable.cyclic(2)
    actions = {
        "unit_moves": GroupAction([[0, 2, 1], [0, 2, 1]]),
        "not_bijective": GroupAction([[0, 1, 2], [0, 0, 1]]),
        "not_automorphism": GroupAction([[0, 1, 2], [1, 2, 0]]),
        # Z4 on Z3 with every non-unit inverting: g1 g1 = g2 would have to act trivially
        "not_homomorphism": GroupAction([[0, 1, 2], [0, 2, 1], [0, 2, 1], [0, 2, 1]]),
    }
    for name, act in actions.items():
        G = Z4 if name == "not_homomorphism" else Z2
        out[f"GroupAction.check/{name}"] = verdict(act.check(Z3, G).to_json())

    for t in range(3):
        perm = [0] + rng.sample(range(1, 6), 5)
        star = transport_group(S3, perm)
        out[f"check_star_compat/S3/{t}"] = verdict(check_star_compat(S3, star).to_json())
        out[f"skew_brace_check/S3/{t}"] = verdict(skew_brace_check(S3, star).to_json())
    shifted = transport_group(S3, [1, 0, 2, 3, 4, 5])
    out["check_star_compat/S3/moved_unit"] = verdict(check_star_compat(S3, shifted).to_json())

    trivial = GroupAction.trivial(Z3, Z2)
    out["relative_rb_check/Z3-Z2/trivial/0,1,1"] = verdict(
        relative_rb_check(Z3, Z2, trivial, (0, 1, 1)).to_json())
    inversion = GroupAction([[0, 1, 2], [0, 2, 1]])
    out["relative_rb_check/Z3-Z2/inversion/0,1,0"] = verdict(
        relative_rb_check(Z3, Z2, inversion, (0, 1, 0)).to_json())


# ---------------------------------------------------------------------------
# relative operators between Hopf algebras


def rrb_cases(out: dict) -> None:
    path = os.path.join(FIXTURES, "h4-rrb-exact-factorization.json")
    with open(path) as fh:
        fixture = json.load(fh)
    data = rrb_from_json(fixture, FIXTURES)
    G, H = data.G, data.H

    phi_bad = dict(data.phi.phi)
    phi_bad[(0, 2)] = {2: Q.from_int(2)}
    out["check_action/h4-fixture/phi(1,x)=2x"] = verdict(
        check_action(ActionData(Q, G.dim, H.dim, phi_bad), G, H).to_json())
    phi_bad = dict(data.phi.phi)
    phi_bad[(1, 2)] = {3: Q.one}
    out["check_action/h4-fixture/phi(g,x)=gx"] = verdict(
        check_action(ActionData(Q, G.dim, H.dim, phi_bad), G, H).to_json())
    phi_bad = dict(data.phi.phi)
    phi_bad[(2, 0)] = {0: Q.one}
    out["check_action/h4-fixture/phi(x,1)=1"] = verdict(
        check_action(ActionData(Q, G.dim, H.dim, phi_bad), G, H).to_json())
    kZ3 = group_algebra(GroupTable.cyclic(3), Q)
    const = ActionData(Q, 3, 3, {(g, h): {0: Q.one} for g in range(3) for h in range(3)})
    out["check_action/kZ3/constant"] = verdict(check_action(const, kZ3, kZ3).to_json())

    for r, c, v in ((0, 2, "1"), (2, 2, "2"), (3, 1, "1"), (2, 3, "1")):
        name = f"B[{r}][{c}]={v}"
        obj = json.loads(json.dumps(fixture))
        obj["B"][r][c] = v
        bad = rrb_from_json(obj, FIXTURES)
        out[f"check_rrbo/full/{name}"] = verdict(check_rrbo(bad, full=True).to_json())
        out[f"check_rrbo/{name}"] = verdict(check_rrbo(bad).to_json())
    obj = json.loads(json.dumps(fixture))
    obj["phi"][5]["terms"][0]["c"] = "2"
    bad = rrb_from_json(obj, FIXTURES)
    out["check_rrbo/full/phi[5]=2"] = verdict(check_rrbo(bad, full=True).to_json())
    out["check_hopf_brace/phi[5]=2"] = verdict(check_hopf_brace(bad).to_json())

    h4 = sweedler_h4(Q)
    S3 = GroupTable.symmetric(3)
    kS3 = group_algebra(S3, Q)
    for name, (H, images) in {"kZ3/0,1,1": (kZ3, (0, 1, 1)),
                              "kS3/0,1,2,3,4,5": (kS3, tuple(range(6))),
                              "kS3/0,0,0,1,1,1": (kS3, (0, 0, 0, 1, 1, 1))}.items():
        cols = [{images[j]: Q.one} for j in range(H.dim)]
        out[f"grbo_check/{name}"] = verdict(grbo_check(H, LinearMap(Q, cols, H.dim)).to_json())
    cols = [{}, {}, {2: Q.one}, {}]
    out["grbo_check/h4/E22"] = verdict(grbo_check(h4, LinearMap(Q, cols, 4)).to_json())
    out["hrbo_check/h4/E22"] = verdict(hrbo_check(h4, LinearMap(Q, cols, 4)).to_json())
    # k[S3] is cocommutative, but condition 3 passes by proof only once
    # condition 1 passes: the first and last fail condition 1, and the full
    # run decides condition 3 case by case; the antipode fails condition 4
    ident = [{j: Q.one} for j in range(6)]
    for name, cols in {"2g1": ident[:1] + [{1: Q.from_int(2)}] + ident[2:],
                       "antipode": list(kS3.antipode.cols),
                       "id+g1@g2": ident[:2] + [{1: Q.one, 2: Q.one}] + ident[3:]}.items():
        out[f"hrbo_check/kS3/{name}"] = verdict(hrbo_check(kS3, LinearMap(Q, cols, 6)).to_json())


# ---------------------------------------------------------------------------
# Lie algebras


def lie_cases(out: dict) -> None:
    g = sl2(Q)
    two = Q.from_int(2)
    one = Q.one
    not_antisym = LieData(Q, 2, {(0, 1): {0: one}, (1, 0): {0: one}})
    out["check_lie/not_antisymmetric"] = verdict(check_lie(not_antisym).to_json())
    self_bracket = LieData(Q, 2, {(0, 0): {1: one}})
    out["check_lie/self_bracket"] = verdict(check_lie(self_bracket).to_json())
    # [h,e] = 2e, [h,f] = -2f, [e,f] = 2h: Jacobi fails
    not_jacobi = LieData(Q, 3, {(1, 0): {0: two}, (1, 2): {2: -two}, (0, 2): {1: two, 0: one}},
                         ["e", "h", "f"])
    out["check_lie/not_jacobi"] = verdict(check_lie(not_jacobi).to_json())

    ident = LinearMap.identity(Q, 3)
    identities = ActionData.from_matrices(Q, [ident, ident, ident])
    out["check_derivation_action/sl2/identity"] = verdict(
        check_derivation_action(identities, g, g).to_json())
    ad = adjoint_lie_action(g)
    # ad(e), ad(h) and ad(h) again: each a derivation, but not a Lie morphism
    mixed = ActionData.from_matrices(Q, [ad.matrix_for(0), ad.matrix_for(1), ad.matrix_for(1)])
    out["check_derivation_action/sl2/ad_e,ad_h,ad_h"] = verdict(
        check_derivation_action(mixed, g, g).to_json())

    rng = random.Random(7)
    vals = [Fraction(-1), Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2)]
    for t in range(4):
        B = LinearMap(Q, [{i: Q.from_fraction(rng.choice(vals)) for i in range(3)}
                          for _ in range(3)], 3)
        lam = Q.from_fraction(rng.choice(vals))
        out[f"check_rb_lie_weight/sl2/{t}"] = verdict(check_rb_lie_weight(g, B, lam).to_json())
        out[f"check_relative_rb_lie/sl2/{t}"] = verdict(
            check_relative_rb_lie(g, g, ad, B, lam).to_json())
    out["check_rb_lie_weight/sl2/identity/0"] = verdict(
        check_rb_lie_weight(g, ident, Q.zero).to_json())


# ---------------------------------------------------------------------------
# the family's hypotheses


def family_cases(out: dict) -> None:
    m1 = Q.from_int(-1)
    f5 = FieldCtx.prime(5)
    z3 = FieldCtx.cyclotomic(3)
    cases = {
        "constant_term": FamilyParams(2, m1, 2, [1]),
        "degree_congruence": FamilyParams(4, m1, 3, [0, 1]),
        "top_binomials": FamilyParams(2, m1, 4, None),
        "f_term_binomials": FamilyParams(1, f5.one, 5, [0, 0, 0, 1]),
        # {2 choose 1} = 1 + zeta, the one binomial of the l = 2 and p = 2 cases
        "top_binomials_l2": FamilyParams(3, z3.root_of_unity(3), 2, None),
        "f_term_binomials_p2": FamilyParams(1, f5.one, 5, [0, 0, 1]),
    }
    for name, params in cases.items():
        out[f"family_hypotheses/{name}"] = verdict(family_hypotheses(params).to_json())


def witnesses() -> dict:
    out: dict = {}
    hopf_cases(out)
    group_cases(out)
    rrb_cases(out)
    lie_cases(out)
    family_cases(out)
    return out


def main() -> int:
    out = witnesses()
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    # one input per line, so that a changed witness shows as a one-line diff
    lines = [f" {json.dumps(name)}: {json.dumps(out[name], sort_keys=True)}"
             for name in sorted(out)]
    with open(OUT, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    fails = sum(v["status"] == "fail" for v in out.values())
    print(f"wrote {OUT}: {len(out)} inputs, {fails} failing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
