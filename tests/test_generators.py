"""check_hopf decides its multiplicative identities on a generating set.

The full-basis evaluation is the oracle: with generating_set replaced by
"every basis index", check_hopf takes the whole basis everywhere.  On seeded
one-entry mutants (the mutation kinds of the hopf-verify benchmark, rebuilt
here) both paths must give the same status, identity and witness, part by
part, and a failing part the same report byte for byte.

The antipode part decides the convolution laws only; helpers.antipode_implied
decides what they imply on a bialgebra, and on the same mutants and on the
opposite and derived algebras check_hopf keeps the verdict of the check that
also decides it."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hopfrb import hopf_core
from hopfrb.constructions import FamilyParams, family, group_algebra, sweedler_h4, taft
from hopfrb.hopf_core import (LinearMap, check_antipode, check_bialgebra_compat,
                              check_coalgebra, check_hopf, hopf_from_json, hopf_to_json,
                              is_coalgebra_morphism, opposite_hopf)
from hopfrb.rb_group import GroupTable
from hopfrb.rb_hopf import derived_hopf, exact_factorization_rrb, rrb_from_json
from hopfrb.scalars import FieldCtx, Scalar
from helpers import (antipode_implied, antipode_leg_form, check_hopf_with_implied,
                     coalgebra_leg_form, coalgebra_morphism_leg_form)

Q, QZ5, F5 = FieldCtx.rationals(), FieldCtx.cyclotomic(5), FieldCtx.prime(5)
F3 = FieldCtx.prime(3)
ROOT = Path(__file__).resolve().parent.parent
RATIONAL_SHIFTS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3)]
PARTS = ("algebra", "coalgebra", "bialgebra_compat", "antipode")


def f3_family():
    return family(FamilyParams(2, F3.from_int(-1), 6, None), F3)


# base name -> (Hopf algebra, mutants drawn)
def oracle_bases() -> dict:
    return {
        "h4/Q": (sweedler_h4(Q), 16),
        "h4/Q(z5)": (sweedler_h4(QZ5), 12),
        "h4/F5": (sweedler_h4(F5), 12),
        "taft2/Q": (taft(2, Q), 12),
        "taft2/F5": (taft(2, F5), 12),
        "taft3/Q(z3)": (taft(3, FieldCtx.cyclotomic(3)), 8),
        "taft4/F5": (taft(4, F5), 6),
        "taft5/Q(z5)": (taft(5, QZ5), 4),
        "kS3/Q": (group_algebra(GroupTable.symmetric(3), Q), 16),
        "kS3/F5": (group_algebra(GroupTable.symmetric(3), F5), 12),
        "F3 family": (f3_family(), 8),
    }


def shifted(c, d):
    """A serialized scalar plus d (an int for prime fields)."""
    if isinstance(c, str):
        return str(Fraction(c) + d)
    if "coeffs" in c:
        return {**c, "coeffs": [str(Fraction(c["coeffs"][0]) + d)] + c["coeffs"][1:]}
    return {**c, "value": (c["value"] + d) % c["p"]}


def mutation_sites(obj: dict) -> list:
    """(kind, site) of every antipode, counit, mult and delta entry."""
    dim = obj["dim"]
    sites = [("antipode", (r, c)) for r in range(dim) for c in range(dim)]
    sites += [("counit", (k,)) for k in range(dim)]
    for kind in ("mult", "delta"):
        sites += [(kind, (e, t)) for e, entry in enumerate(obj[kind])
                  for t in range(len(entry["terms"]))]
    return sites


def mutate(obj: dict, kind: str, site: tuple, d) -> dict:
    out = json.loads(json.dumps(obj))
    if kind == "antipode":
        r, c = site
        out["antipode"][r][c] = shifted(out["antipode"][r][c], d)
    elif kind == "counit":
        out["counit"][site[0]] = shifted(out["counit"][site[0]], d)
    else:
        e, t = site
        term = out[kind][e]["terms"][t]
        term["c"] = shifted(term["c"], d)
    return out


def draw_mutants(rng: random.Random, H, count: int) -> list:
    obj = hopf_to_json(H)
    shifts = [1, -1] if H.ctx.kind == "prime" else RATIONAL_SHIFTS
    out = []
    for kind, site in rng.sample(mutation_sites(obj), count):
        d = rng.choice(shifts)
        out.append((f"{kind} {site} {d}", hopf_from_json(mutate(obj, kind, site, d))))
    return out


def full_basis_check_hopf(H, monkeypatch):
    """check_hopf with every basis index as the generating set: the
    multiplicative identities on every basis triple and pair."""
    with monkeypatch.context() as mp:
        mp.setattr(hopf_core, "generating_set", lambda A: list(range(A.dim)))
        return check_hopf(H)


def verdict(obj: dict) -> tuple:
    return obj["status"], obj.get("identity"), obj.get("witness")


def assert_same_verdicts(fast, full, name) -> None:
    fj, oj = fast.to_json(), full.to_json()
    assert verdict(fj) == verdict(oj), name
    assert list(fj["details"]) == list(oj["details"]) == list(PARTS), name
    for part in PARTS:
        got, want = fj["details"][part], oj["details"][part]
        if want["status"] == "fail":
            assert got == want, (name, part)
        else:
            assert got["status"] == "pass", (name, part)
            assert (got["stats"]["identities_checked"]
                    <= want["stats"]["identities_checked"]), (name, part)


def seeded_inputs() -> list:
    """(name, Hopf data) of every base of oracle_bases and its seeded mutants."""
    rng = random.Random(20261018)
    return [(f"{base} {label}", M) for base, (H, count) in oracle_bases().items()
            for label, M in [("base", H)] + draw_mutants(rng, H, count)]


def test_generator_path_agrees_with_the_full_basis(monkeypatch):
    drawn = failing = algebra_failures = 0
    for name, M in seeded_inputs():
        rep = check_hopf(M)
        assert_same_verdicts(rep, full_basis_check_hopf(M, monkeypatch), name)
        drawn += 1
        failing += not rep.ok
        if not rep.details["algebra"]["status"] == "pass":
            # associativity unknown: Delta and e are decided on every pair
            algebra_failures += 1
            assert rep.details["bialgebra_compat"] == check_bialgebra_compat(M).to_json()
            assert rep.details["antipode"] == check_antipode(M).to_json()
    assert failing > drawn // 2 and algebra_failures > 0


def derived_and_opposite_inputs() -> list:
    """(name, Hopf data): the opposite_hopf and derived_hopf outputs that
    the other tests check."""
    S3 = GroupTable.symmetric(3)
    fixture = ROOT / "fixtures" / "h4-rrb-exact-factorization.json"
    out = [(f"op {name}", opposite_hopf(H)) for name, H in (
        ("h4/Q", sweedler_h4(Q)), ("kS3/Q", group_algebra(S3, Q)),
        ("taft3/Q(z3)", taft(3, FieldCtx.cyclotomic(3))))]
    out += [(f"derived S3 {A}{L}", derived_hopf(exact_factorization_rrb(S3, A, L, Q)))
            for A, L in (([0, 3, 4], [0, 2]), ([0, 2], [0, 3, 4]))]
    data = rrb_from_json(json.loads(fixture.read_text()), base_dir=str(fixture.parent))
    return out + [("derived h4 fixture", derived_hopf(data))]


def test_the_convolution_laws_keep_every_check_hopf_verdict():
    """check_antipode decides the convolution laws only.  check_hopf keeps
    the status, identity and witness of the check that also decides every
    identity they imply, and those identities hold wherever check_hopf
    passes: it decides the bialgebra before the antipode."""
    passing = implied_only = 0
    for name, M in seeded_inputs() + derived_and_opposite_inputs():
        rep, ref = check_hopf(M), check_hopf_with_implied(M)
        assert verdict(rep.to_json()) == verdict(ref.to_json()), name
        antipode = rep.details["antipode"]
        assert antipode["stats"]["identities_checked"] <= 2 * M.dim, name
        if rep.ok:
            passing += 1
            assert antipode_implied(M).ok, name
        elif antipode["status"] == "pass" and ref.details["antipode"]["status"] == "fail":
            # an earlier part fails, and an implied identity, no longer
            # decided, would fail too
            implied_only += 1
    # every base, opposite and derived algebra passes
    assert passing >= len(oracle_bases()) + 6 and implied_only > 0


def test_sweedler_sums_agree_with_the_leg_forms():
    """check_coalgebra, check_antipode and is_coalgebra_morphism (with the
    identity and the antipode as maps of M to itself) give the report of
    their leg forms in helpers: the same status, identity, witness and
    count."""
    inputs = seeded_inputs() + derived_and_opposite_inputs()
    assert len(inputs) == 135
    failing = {}
    for name, M in inputs:
        C = M.coalgebra
        pairs = [(check_coalgebra(M), coalgebra_leg_form(C)),
                 (check_antipode(M), antipode_leg_form(M))]
        pairs += [(is_coalgebra_morphism(f, M, M), coalgebra_morphism_leg_form(f, C, C))
                  for f in (LinearMap.identity(M.ctx, M.dim), M.antipode)]
        for got, want in pairs:
            assert got.to_json() == want.to_json(), name
            if not got.ok:
                failing[got.identity] = failing.get(got.identity, 0) + 1
    # failing reports of every identity the Sweedler sums form
    assert {"counit_left", "counit_right", "antipode_left",
            "morphism_comult"} <= set(failing), failing


def test_passing_counts_fall_to_the_generator_cases(monkeypatch):
    H = taft(3, FieldCtx.cyclotomic(3))
    fast, full = check_hopf(H), full_basis_check_hopf(H, monkeypatch)
    assert fast.ok and full.ok
    d, gens = H.dim, 2
    counts = {p: fast.details[p]["stats"]["identities_checked"] for p in PARTS}
    assert counts == {"algebra": 2 * d + d * gens * d, "coalgebra": 3 * d,
                      "bialgebra_compat": 2 + 2 * gens * d,
                      "antipode": 2 * d}
    assert full.stats["identities_checked"] == d ** 3 + 2 * d * d + 7 * d + 2


def test_monomial_algebras_never_invert(monkeypatch):
    algebras = [sweedler_h4(Q), f3_family(), group_algebra(GroupTable.symmetric(3), Q)]
    algebras += [taft(m, FieldCtx.cyclotomic(m)) for m in range(2, 6)]
    calls = []
    inverse = Scalar.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(Scalar, "inverse", counted)
    for H in algebras:
        assert check_hopf(H).ok
    assert calls == []


def test_taft_12_passes():
    H = taft(12, FieldCtx.cyclotomic(12))
    assert H.dim == 144
    assert check_hopf(H).ok


@pytest.mark.parametrize("p", [5, 7])
def test_p_integral_structures_keep_their_verdict_over_f_p(p):
    """Integer structure constants that pass over Q also pass over F_p, and
    a one-entry mutant fails over both."""
    rng = random.Random(p)
    bases = {"h4": sweedler_h4(Q), "kS3": group_algebra(GroupTable.symmetric(3), Q),
             "kZ4": group_algebra(GroupTable.cyclic(4), Q)}
    for name, H in bases.items():
        obj = hopf_to_json(H)
        reduced = hopf_from_json({**obj, "field": f"F{p}"})
        assert reduced.ctx == FieldCtx.prime(p)
        rep = check_hopf(reduced)
        assert rep.ok, name
        d = H.dim
        assert rep.stats["identities_checked"] < d ** 3 + 2 * d * d + 7 * d + 2, name
        kind, site = rng.choice(mutation_sites(obj))
        mutant = mutate(obj, kind, site, rng.choice([1, -1]))
        assert not check_hopf(hopf_from_json(mutant)).ok, (name, kind, site)
        assert not check_hopf(hopf_from_json({**mutant, "field": f"F{p}"})).ok, (name, kind, site)
