"""rb_hopf decides the action laws and the Hopf brace on generating sets.

The full-basis evaluation is the oracle.  rb_hopf reads its generating sets
from the reports of check_algebra, which calls hopf_core.generating_set; with
that replaced by "every basis index", check_action, check_rrbo and
check_hopf_brace decide every case.  On relative operators and their seeded
one-entry mutants (of Phi, B, H.mult, H.delta, H.antipode and G.mult) both
paths must give the same status, identity and witness, part by part, and a
failing part the same report byte for byte.  A premise that fails makes its
law take every case, as the full path does, so the count is the full one."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hopfrb import hopf_core, rb_hopf
from hopfrb.constructions import group_algebra, sweedler_h4
from hopfrb.hopf_core import (ActionData, AlgebraData, CoalgebraData, HopfData, LinearMap,
                              check_algebra, check_bialgebra_compat, opposite_hopf)
from hopfrb.rb_group import GroupTable, enumerate_rb, linearize_rb
from hopfrb.rb_hopf import (RelRBHopf, _cond3_cases, adjoint_action, check_action,
                            check_hopf_brace, check_rrbo, exact_factorization_rrb, hrbo_action,
                            rrb_from_json)
from hopfrb.report import VerificationReport
from hopfrb.scalars import FieldCtx
from helpers import cond3_leg_sides, counit_unit_operator

Q = FieldCtx.rationals()
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
S3, Z2, Z3, Z4 = (GroupTable.symmetric(3), GroupTable.cyclic(2), GroupTable.cyclic(3),
                  GroupTable.cyclic(4))
SHIFTS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3)]
KINDS = ("phi", "B", "H.mult", "H.delta", "H.antipode", "G.mult")
ACTION_PARTS = ("unit_acts_trivially", "action_composition", "action_multiplicative",
                "action_on_unit")


def relative_operators() -> list:
    """(name, RelRBHopf): both exact factorizations of S3, the h4 fixture,
    grbo_check's data on every weight-1 operator of S3 and Z4, and
    hrbo_check's data on h4."""
    out = [(f"S3 {A} {L}", exact_factorization_rrb(S3, A, L, Q))
           for A, L in (([0, 3, 4], [0, 2]), ([0, 2], [0, 3, 4]))]
    fixture = FIXTURES / "h4-rrb-exact-factorization.json"
    out.append(("h4 fixture", rrb_from_json(json.loads(fixture.read_text()), str(FIXTURES))))
    for G in (S3, Z4):
        for op in enumerate_rb(G, 1):
            H, B = linearize_rb(G, op, Q)
            out.append((f"grbo {G.name} {op}", RelRBHopf(H, H, adjoint_action(H), B)))
    h4 = sweedler_h4(Q)
    for name, B in (("identity", LinearMap.identity(Q, 4)),
                    ("counit-unit", counit_unit_operator(h4))):
        out.append((f"hrbo h4 {name}", RelRBHopf(h4, opposite_hopf(h4), hrbo_action(h4), B)))
    return out


def bumped(vec: dict, key, d) -> dict:
    out = dict(vec)
    out[key] = out.get(key, Q.zero) + d
    return out


def with_mult(A: HopfData, key: tuple, k: int, d) -> HopfData:
    mult = dict(A.algebra.mult)
    mult[key] = bumped(A.algebra.mul_basis(*key), k, d)
    return HopfData(AlgebraData(Q, A.dim, A.unit, mult, A.labels), A.coalgebra, A.antipode)


def mutant(rng: random.Random, data: RelRBHopf, kind: str) -> tuple:
    """(site, RelRBHopf) with one entry of one table changed by a shift."""
    H, G, phi, B = data.H, data.G, data.phi, data.B
    n, m = H.dim, G.dim
    d = Q.from_fraction(rng.choice(SHIFTS))
    if kind == "phi":
        site = (rng.randrange(m), rng.randrange(n), rng.randrange(n))
        table = dict(phi.phi)
        table[site[:2]] = bumped(phi.apply_basis(*site[:2]), site[2], d)
        return site, RelRBHopf(H, G, ActionData(Q, m, n, table), B)
    if kind == "B":
        site = (rng.randrange(n), rng.randrange(m))
        cols = list(B.cols)
        cols[site[0]] = bumped(cols[site[0]], site[1], d)
        return site, RelRBHopf(H, G, phi, LinearMap(Q, cols, m))
    if kind in ("H.mult", "G.mult"):
        A = H if kind == "H.mult" else G
        site = (rng.randrange(A.dim), rng.randrange(A.dim), rng.randrange(A.dim))
        A = with_mult(A, site[:2], site[2], d)
        return site, (RelRBHopf(A, G, phi, B) if kind == "H.mult" else RelRBHopf(H, A, phi, B))
    if kind == "H.delta":
        C = H.coalgebra
        site = (rng.randrange(n), rng.randrange(n), rng.randrange(n))
        delta = dict(C.delta)
        delta[site[0]] = bumped(C.delta_basis(site[0]), site[1:], d)
        coalg = CoalgebraData(Q, n, delta, C.counit, C.labels)
        return site, RelRBHopf(HopfData(H.algebra, coalg, H.antipode), G, phi, B)
    site = (rng.randrange(n), rng.randrange(n))
    cols = list(H.antipode.cols)
    cols[site[0]] = bumped(cols[site[0]], site[1], d)
    return site, RelRBHopf(HopfData(H.algebra, H.coalgebra, LinearMap(Q, cols, n)), G, phi, B)


def seeded_inputs() -> list:
    rng = random.Random(20261019)
    out = []
    for name, data in relative_operators():
        out.append((f"{name} base", data))
        for kind in KINDS:
            for _ in range(2):
                site, M = mutant(rng, data, kind)
                out.append((f"{name} {kind} {site}", M))
    return out


def full_basis(monkeypatch, check, *args):
    """check with every basis index as each generating set."""
    with monkeypatch.context() as mp:
        mp.setattr(hopf_core, "generating_set", lambda A: list(range(A.dim)))
        return check(*args)


def count(part: dict) -> int:
    return part["stats"]["identities_checked"]


def assert_same_verdicts(fast: dict, full: dict, where) -> int:
    """fast and full agree part by part: the same status, identity and
    witness, a failing part byte for byte and a passing one on no more
    cases.  Returns the number of parts that fast decided on fewer."""
    assert ((fast["status"], fast.get("identity"), fast.get("witness"))
            == (full["status"], full.get("identity"), full.get("witness"))), where
    assert count(fast) <= count(full), where
    details = full.get("details", {})
    if not any(isinstance(v, dict) and "status" in v for v in details.values()):
        if full["status"] == "fail":
            assert json.dumps(fast) == json.dumps(full), where
        return int(count(fast) < count(full))
    assert list(fast["details"]) == list(details), where
    reduced = 0
    for part, want in details.items():
        got = fast["details"][part]
        if isinstance(want, dict) and "status" in want:
            reduced += assert_same_verdicts(got, want, (where, part))
        else:
            assert got == want, (where, part)
    return reduced


def test_generator_paths_agree_with_the_full_basis(monkeypatch):
    inputs = seeded_inputs()
    assert len(inputs) == 17 * 13
    failing = reduced = 0
    for name, M in inputs:
        for check in (lambda d: check_rrbo(d, full=True), check_hopf_brace):
            fast, full = check(M).to_json(), full_basis(monkeypatch, check, M).to_json()
            reduced += assert_same_verdicts(fast, full, name)
            failing += fast["status"] == "fail"
        action = check_action(M.phi, M.G, M.H)
        assert action.to_json() == check_rrbo(M, full=True).details["condition_2_action"]
    # the draws fail often, and the generators decide many passing parts
    assert failing > len(inputs) // 2 and reduced > len(inputs)


def test_condition_3_sweedler_sums_agree_with_the_leg_pipeline():
    # _cond3_cases against helpers.cond3_leg_sides, pair by pair
    inputs = seeded_inputs()
    assert len(inputs) == 17 * 13
    pairs = differing = 0
    for name, M in inputs:
        got, want = list(_cond3_cases(M)), list(cond3_leg_sides(M))
        assert [p for p, _, _ in got] == [p for p, _, _ in want], name
        for (p, lhs, rhs), (_, leg_lhs, leg_rhs) in zip(got, want):
            assert lhs == leg_lhs and rhs == leg_rhs, (name, p)
            pairs += 1
            differing += lhs != rhs
    # many pairs fail condition 3, so both forms agree on failing sides too
    assert differing > 0 and pairs > differing


# ---------------------------------------------------------------------------
# one broken premise each: the law passes and takes every case


def trivial_action(G: HopfData, H: HopfData) -> ActionData:
    """Phi_g(a) = e(g) a: its laws ask only that e be a unital algebra map."""
    return ActionData(Q, G.dim, H.dim, {(g, a): {a: G.coalgebra.counit[g]}
                                        for g in range(G.dim) for a in range(H.dim)})


def action_counts(phi: ActionData, G: HopfData, H: HopfData) -> dict:
    rep = check_action(phi, G, H).to_json()["details"]
    return {part: (rep[part]["status"], count(rep[part])) for part in ACTION_PARTS[1:3]}


def test_action_laws_take_one_generator_of_g_when_the_premises_hold():
    kZ3, H = group_algebra(Z3, Q), group_algebra(S3, Q)
    assert action_counts(trivial_action(kZ3, H), kZ3, H) == {
        "action_composition": ("pass", 1 * 3 * 6), "action_multiplicative": ("pass", 1 * 6 * 6)}


def test_a_non_associative_g_leaves_both_laws_on_every_g():
    kZ3, H = group_algebra(Z3, Q), group_algebra(S3, Q)
    # e1 e1 = e0 in place of e2: still unital, no longer associative
    G = with_mult(kZ3, (1, 1), 0, Q.one)
    G = with_mult(G, (1, 1), 2, -Q.one)
    assert G.algebra.mul_basis(1, 1) == {0: Q.one}
    assert check_algebra(G).identity == "associativity"
    assert action_counts(trivial_action(G, H), G, H) == {
        "action_composition": ("pass", 3 * 3 * 6), "action_multiplicative": ("pass", 3 * 6 * 6)}


def test_an_action_with_phi_1_not_the_identity_takes_every_g():
    kZ3, H = group_algebra(Z3, Q), group_algebra(S3, Q)
    zero = ActionData(Q, 3, 6, {})
    rep = check_action(zero, kZ3, H)
    assert rep.details["unit_acts_trivially"]["status"] == "fail"
    assert action_counts(zero, kZ3, H) == {
        "action_composition": ("pass", 3 * 3 * 6), "action_multiplicative": ("pass", 3 * 6 * 6)}


def test_a_failing_composition_law_leaves_the_multiplicative_law_on_every_g():
    kZ2, H = group_algebra(Z2, Q), group_algebra(S3, Q)
    # Phi_e1(a) = e(a)1 is an algebra map with Phi_e1 Phi_e1 != Phi_e0; the
    # failure is found on the generators and reported as every g finds it
    phi = ActionData(Q, 2, 6, {**{(0, a): {a: Q.one} for a in range(6)},
                               **{(1, a): {0: Q.one} for a in range(6)}})
    assert action_counts(phi, kZ2, H) == {
        "action_composition": ("fail", 20), "action_multiplicative": ("pass", 2 * 6 * 6)}


def test_a_non_multiplicative_coproduct_of_g_leaves_that_law_on_every_g():
    kZ3, H = group_algebra(Z3, Q), group_algebra(S3, Q)
    # Delta(e1) = e1 (x) e2 keeps every counit law the trivial action asks for
    C = kZ3.coalgebra
    coalg = CoalgebraData(Q, 3, {**C.delta, 1: {(1, 2): Q.one}}, C.counit, C.labels)
    G = HopfData(kZ3.algebra, coalg, kZ3.antipode)
    assert check_algebra(G).ok
    assert not check_bialgebra_compat(G, generators=[1]).ok
    assert action_counts(trivial_action(G, H), G, H) == {
        "action_composition": ("pass", 1 * 3 * 6), "action_multiplicative": ("pass", 3 * 6 * 6)}


def s3_factorization() -> RelRBHopf:
    return exact_factorization_rrb(S3, [0, 3, 4], [0, 2], Q)


def brace_count(data: RelRBHopf) -> int:
    rep = check_hopf_brace(data)
    assert rep.ok
    return count(rep.details["hopf_brace"])


def test_the_brace_takes_two_generators_of_k_s3_when_the_premises_hold(monkeypatch):
    data = s3_factorization()
    assert brace_count(data) == 6 * 2 * 6
    assert full_basis(monkeypatch, brace_count, data) == 6 ** 3


def test_an_operator_with_a_o_1_not_a_takes_every_b():
    # B = 0 makes a o b = 0, so the brace identity holds and a o 1 = a fails
    data = s3_factorization()
    zero = RelRBHopf(data.H, data.G, data.phi, LinearMap(Q, [{}] * 6, 2))
    assert brace_count(zero) == 6 ** 3


def test_a_non_unital_h_takes_every_b():
    # twice the product of k[S3] with its unit kept, half its antipode and
    # half of B: 1 * a = 2a, while S(a_(1)) a_(2) = e(a)1, a o 1 = a and the
    # brace identity (both sides twice the old ones) still hold
    data = s3_factorization()
    H, half, two = data.H, Q.from_fraction(Fraction(1, 2)), Q.from_int(2)
    mult = {key: {k: two * c for k, c in t.items()} for key, t in H.algebra.mult.items()}
    S = LinearMap(Q, [{k: half * c for k, c in col.items()} for col in H.antipode.cols], 6)
    H2 = HopfData(AlgebraData(Q, 6, H.unit, mult, H.labels), H.coalgebra, S)
    B = LinearMap(Q, [{k: half * c for k, c in col.items()} for col in data.B.cols], 2)
    assert check_algebra(H2).identity == "unit"
    assert brace_count(RelRBHopf(H2, data.G, data.phi, B)) == 6 ** 3


@pytest.mark.parametrize("premise", ["check_algebra", "check_coalgebra", "check_antipode"])
def test_a_failing_check_of_h_takes_every_b(monkeypatch, premise):
    # k[S3] passes all three; each is replaced by a failing report in turn
    failing = VerificationReport.failing(premise, {"identity": premise})
    monkeypatch.setattr(rb_hopf, premise, lambda H: failing)
    assert brace_count(s3_factorization()) == 6 ** 3
