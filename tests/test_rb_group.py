"""Rota-Baxter operators on finite groups: tables, checks, enumeration."""

import gc
import itertools
import json
import os
import pickle
import random
import threading
import warnings
from pathlib import Path

import pytest

from hopfrb import cli, rb_group
from hopfrb.constructions import FamilyParams, family_aut_search
from hopfrb.rb_group import (DEFAULT_CAP, CapExceeded, GroupAction, GroupTable, check_group,
                             check_rb, check_rb_lambda, check_star_compat, circ_from_rrb,
                             derived_group, enumerate_rb, group_from_json, image_indices,
                             is_subgroup, ker_indices, lemma_checks, linearize_rb,
                             operator_from_json, operator_to_json, power_star,
                             relative_rb_check, skew_brace_check)
from hopfrb.scalars import FieldCtx
from hopfrb.report import VerificationReport, first_failure, first_row_failure

from helpers import (all_pairs_search, automorphisms, counting, graph_is_subgroup,
                     inline_pools, is_abelian, rb_argument, semidirect, transport_group,
                     weight_flip)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_table_validation():
    with pytest.raises(ValueError):
        GroupTable([[0, 1], [0]])
    with pytest.raises(ValueError):
        GroupTable([[1, 0], [0, 0]])  # no two-sided identity
    with pytest.raises(ValueError):
        # identity exists but 1 has no inverse
        GroupTable([[0, 1, 2], [1, 1, 1], [2, 1, 0]])
    # Z5 with one entry swapped: associativity breaks
    t = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    t[2][3] = 1
    with pytest.raises(ValueError):
        GroupTable(t)


def test_basic_constructors():
    Z6 = GroupTable.cyclic(6)
    assert Z6.n == 6 and is_abelian(Z6) and Z6.exponent() == 6
    S3 = GroupTable.symmetric(3)
    assert S3.n == 6 and not is_abelian(S3) and S3.exponent() == 6
    V4 = GroupTable.direct_product(GroupTable.cyclic(2), GroupTable.cyclic(2))
    assert V4.n == 4 and V4.exponent() == 2
    F21 = GroupTable.metacyclic(7, 3, 2)
    assert F21.n == 21 and not is_abelian(F21) and F21.exponent() == 21
    with pytest.raises(ValueError):
        GroupTable.metacyclic(7, 3, 3)  # 3^3 != 1 mod 7


def test_element_helpers():
    S3 = GroupTable.symmetric(3)
    for g in range(6):
        assert S3.mul(g, S3.inverse(g)) == S3.e
        assert S3.power(g, S3.order_of(g)) == S3.e
        assert S3.power(g, -1) == S3.inverse(g)
    a, b = 1, 3
    assert S3.commutator(a, b) == S3.mul(S3.mul(S3.inverse(a), S3.inverse(b)),
                                         S3.mul(a, b))
    assert S3.conjugate(a, b) == S3.mul(S3.mul(a, b), S3.inverse(a))


def test_binop_group_detection():
    Z3 = GroupTable.cyclic(3)
    G, rep = check_group(Z3.table)
    assert rep.ok
    assert G.n == 3
    G, rep = check_group([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert rep.ok
    G, rep = check_group([[0, 1, 2], [1, 0, 0], [2, 0, 1]])
    assert not rep.ok and G is None
    assert rep.witness is not None


def is_group_reference(table) -> VerificationReport:
    """The group check of the old second group type: associativity first,
    decided here case by case, then a two-sided identity and inverses."""
    t = tuple(tuple(row) for row in table)
    n = len(t)
    assoc = first_failure("group", ((("associativity", a, b, c), t[t[a][b]][c], t[a][t[b][c]])
                                    for a, b, c in itertools.product(range(n), repeat=3)))
    if not assoc.ok:
        return assoc

    def cases():
        e = next((c for c in range(n)
                  if all(t[c][x] == x and t[x][c] == x for x in range(n))), None)
        found = "identity element" if e is not None else "no two-sided identity"
        yield ("identity",), found, "identity element"
        for g, col in enumerate(zip(*t)):
            inverse = f"inverse of {g}"
            has = (e, e) in zip(t[g], col)
            yield ("inverses", g), inverse if has else "no inverse", inverse

    rep = first_failure("group", cases())
    rep.stats["identities_checked"] += assoc.stats["identities_checked"]
    return rep


def group_table_reference(table) -> tuple:
    """The old GroupTable validation: (identity, inverses), or ValueError
    naming the first failing axiom in the order identity, inverses,
    associativity."""
    t = tuple(tuple(row) for row in table)
    n = len(t)
    cols = tuple(zip(*t))
    ident = tuple(range(n))
    e = next((c for c in range(n) if t[c] == ident and cols[c] == ident), None)
    if e is None:
        raise ValueError("no two-sided identity element")
    inv = []
    for g in range(n):
        try:  # the first h with gh = hg = e
            inv.append(list(zip(t[g], cols[g])).index((e, e)))
        except ValueError:
            raise ValueError(f"element {g} has no inverse") from None
    for a, b, c in itertools.product(range(n), repeat=3):
        if t[t[a][b]][c] != t[a][t[b][c]]:
            raise ValueError(f"associativity fails at ({a},{b},{c})")
    return e, tuple(inv)


def test_check_group_matches_the_two_type_reference():
    rng = random.Random(6)
    tables = [[[0, 1, 2], [1, 0, 0], [2, 0, 1]], [[1, 1], [1, 1]], [[0, 1], [1, 1]],
              [[1, 0], [0, 0]], [[0, 1, 2], [1, 1, 0], [2, 2, 1]]]
    tables += [[[rng.randrange(n) for _ in range(n)] for _ in range(n)]
               for n in (2, 3, 4, 5) for _ in range(5)]
    for G in (GroupTable.symmetric(3), GroupTable.metacyclic(4, 2, 3),
              GroupTable.metacyclic(7, 3, 2)):
        tables.append(G.table)
        for _ in range(25):
            t = [list(row) for row in G.table]
            a, b = rng.randrange(G.n), rng.randrange(G.n)
            t[a][b] = rng.choice([v for v in range(G.n) if v != t[a][b]])
            tables.append(t)
    single = several = 0
    for t in tables:
        ref = is_group_reference(t)
        G, rep = check_group(t)
        try:
            e_inv, message = group_table_reference(t), None
        except ValueError as err:
            e_inv, message = None, str(err)
        if message is None:
            assert G is not None and (G.e, G.inv) == e_inv and G.axioms is rep, t
        else:
            with pytest.raises(ValueError) as exc:
                GroupTable(t)
            assert str(exc.value) == message and G is None, t
        if ref.identity == "associativity" and not message.startswith("associativity"):
            # identity or inverses fail as well, and the n^2 check names them
            several += 1
            assert rep.identity == ("identity" if message.startswith("no two-sided")
                                    else "inverses"), t
        else:
            single += 1
            if ref.ok:
                # a group decides associativity on its generating set only:
                # |gens| n^2 cases where the reference takes n^3
                n = len(t)
                ref.stats["identities_checked"] -= (n - len(G.gens)) * n * n
            assert rep.to_json() == ref.to_json(), t
    assert single > 40 and several > 20


def test_circ_and_derived_group_decide_each_table_once(monkeypatch, capsys):
    S3 = GroupTable.symmetric(3)
    star = power_star(S3, 1)
    passes = []
    rows = rb_group._associativity_rows
    monkeypatch.setattr(rb_group, "_associativity_rows",
                        lambda *args: passes.append(args) or rows(*args))
    assert circ_from_rrb(S3, star, S3.inv)[1].ok
    assert derived_group(S3, S3.inv)[1].ok
    # one pass for circ, one for the derived star; the star above was
    # decided when power_star built it
    assert len(passes) == 2

    # enum-rb, one path at every weight: the star, its precondition and the
    # brace (G, ., *) once per command, then one circle table per operator;
    # at weight 1 the star has G's table, so the two braces are one
    calls = {"group_from_json": [], "power_star": [], "check_star_compat": [],
             "skew_brace_check": [], "derived_group": []}

    def logged(fn, log):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            log.append((args, out))
            return out
        return call

    for name, log in calls.items():
        wrapper = logged(getattr(rb_group, name), log)
        for module in (rb_group, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    built = []
    missing = rb_group._ConjugationRows.__missing__
    monkeypatch.setattr(rb_group._ConjugationRows, "__missing__",
                        lambda rows, v: built.append(rows) or missing(rows, v))

    def enum_rb(*extra):
        for log in (*calls.values(), passes, built):
            log.clear()
        assert cli.main(["enum-rb", "--group", str(FIXTURES / "s3.json"), *extra]) == 0
        return json.loads(capsys.readouterr().out)["operators"]

    for weight, braces in ((1, 1), (-1, 2)):
        operators = enum_rb(f"--weight={weight}")
        assert len(operators) == 8
        keys = ("skew_brace", "derived_group") + (("lemma",) if weight == 1 else ())
        assert all(row[key] == "pass" for row in operators for key in keys)
        [(_, G)] = calls["group_from_json"]
        [(_, star)] = calls["power_star"]
        assert [args for args, _ in calls["check_star_compat"]] == [(G, star)]
        brace_args = [args for args, _ in calls["skew_brace_check"]]
        assert sum(args[0] is G and args[1] is star for args in brace_args) == 1
        assert len(brace_args) == 1 + braces * len(operators)
        assert calls["derived_group"] == []
        # the group read from the file and the star, then one circle table
        # per operator
        assert len(passes) == 2 + len(operators)
        # the search, the star facts, the circle tables and the lemmas all
        # read G's own conjugation rows
        assert built and all(rows is G._conj for rows in built)


def test_commands_decide_the_weight_one_identity_once_per_operator(monkeypatch, capsys):
    # check-group-rb on a passing operator: the identity once, its rows on
    # to the lemma parts and the derived group, and rb_on_star; enum-rb: only
    # the star identity of circ_from_rrb, as the search has decided the rest
    calls = counting(monkeypatch, rb_group, "_relative_identity")
    S3 = GroupTable.symmetric(3)
    s3 = str(FIXTURES / "s3.json")
    B = ",".join(map(str, S3.inv))
    assert cli.main(["check-group-rb", "--group", s3, "--map", B]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "pass" and set(out["details"]) == {"rb", "lemma", "derived_group"}
    assert len(calls) == 2
    calls.clear()
    assert cli.main(["enum-rb", "--group", s3]) == 0
    assert len(json.loads(capsys.readouterr().out)["operators"]) == len(calls) == 8
    # the public checkers keep their preconditions
    calls.clear()
    assert lemma_checks(S3, S3.inv).ok and derived_group(S3, S3.inv)[1].ok
    assert len(calls) == 3


def test_each_power_table_is_built_once_per_group(monkeypatch, capsys):
    S3 = GroupTable.symmetric(3)
    S3xS3, F21 = GroupTable.direct_product(S3, S3), GroupTable.metacyclic(7, 3, 2)
    built = counting(monkeypatch, rb_group, "_lambda_root")
    for G, weights in ((S3xS3, (-1, 5)), (F21, (-1, 2, 5))):
        assert rb_group._power_table(G, 1) is G.table
        for lam in weights:
            assert rb_group._power_table(G, lam) is rb_group._power_table(G, lam)
        # -1 is the formula at mu = -1: the transpose
        assert rb_group._power_table(G, -1) == tuple(zip(*G.table))
        assert sorted(G._powers) == sorted({1, *weights})
    assert len(built) == 5
    for _ in range(2):  # a weight with no root is refused each time and never kept
        with pytest.raises(ValueError, match="not invertible"):
            rb_group._power_table(S3xS3, 2)
    assert 2 not in S3xS3._powers
    # a --jobs worker receives G pickled, and its tables with it
    assert pickle.loads(pickle.dumps(F21))._powers == F21._powers

    # enum-rb: the early weight check, the search and the star read one table
    built.clear()
    assert cli.main(["enum-rb", "--group", str(FIXTURES / "f21.json"), "--weight", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] > 0
    assert len(built) == 1


def test_descendent_groups_are_built_once_by_one_builder(monkeypatch):
    S3 = GroupTable.symmetric(3)
    stars = {lam: power_star(S3, lam) for lam in (1, -1)}
    builds = counting(monkeypatch, rb_group, "_descendent_group")
    tables = []
    init = GroupTable.__init__
    monkeypatch.setattr(GroupTable, "__init__",
                        lambda G, table, name="": tables.append(table) or init(G, table, name))
    cases = [(lambda B: derived_group(S3, B), 1), (lambda B: circ_from_rrb(S3, stars[1], B), 1),
             (lambda B: circ_from_rrb(S3, stars[-1], B), -1)]
    for call, weight in cases:
        for B in enumerate_rb(S3, weight):
            builds.clear()
            tables.clear()
            group, _ = call(B)
            assert len(builds) == 1 and list(map(tuple, tables)) == [group.table], (weight, B)
            # a circle group keeps only its own table among the power tables
            assert group._powers == {1: group.table}


def test_circ_from_rrb_keeps_the_star_facts_on_the_group(monkeypatch):
    D8 = GroupTable.metacyclic(4, 2, 3)
    decided = []
    compat = rb_group.check_star_compat
    monkeypatch.setattr(rb_group, "check_star_compat",
                        lambda G, star: decided.append(star) or compat(G, star))
    star = power_star(D8, 1)
    operators = enumerate_rb(D8, 1)[:10]
    assert len(operators) == 10
    for B in operators:
        _, rep = circ_from_rrb(D8, star, B)
        assert rep.ok
        assert rep.details["dot_circ_brace"] == rep.details["star_circ_brace"]
    assert decided == [star]
    # a second star on the same group gets facts of its own
    opposite = power_star(D8, -1)
    for B in enumerate_rb(D8, -1)[:3]:
        assert circ_from_rrb(D8, opposite, B)[1].ok
    assert decided == [star, opposite]
    # a star that fails the precondition fails the same way on every call
    S3, Z6 = GroupTable.symmetric(3), GroupTable.cyclic(6)
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError, match="star precondition fails") as exc:
            circ_from_rrb(S3, Z6, (0,) * 6)
        messages.append(str(exc.value))
    assert messages[0] == messages[1] and decided[2:] == [Z6]


def test_groups_of_different_orders_are_an_input_error():
    S3, Z4, Z8 = GroupTable.symmetric(3), GroupTable.cyclic(4), GroupTable.cyclic(8)
    for call, orders in ((lambda: check_star_compat(S3, Z4), (6, 4)),
                         (lambda: check_star_compat(S3, Z8), (6, 8)),
                         (lambda: skew_brace_check(S3, Z4), (6, 4)),
                         (lambda: skew_brace_check(Z4, S3), (4, 6)),
                         (lambda: circ_from_rrb(S3, Z4, S3.inv), (6, 4))):
        with pytest.raises(ValueError) as exc:
            call()
        assert type(exc.value) is ValueError
        assert str(exc.value) == "groups of different orders: {} and {}".format(*orders)


def test_circle_group_at_weight_one_is_the_derived_group():
    # enum-rb reads the derived group of a weight-1 operator as its circle
    # group over the star G itself; derived_group builds it on its own path
    # and decides that B is again Rota-Baxter on it
    S3 = GroupTable.symmetric(3)
    groups = [S3, GroupTable.metacyclic(4, 2, 3),
              GroupTable.direct_product(GroupTable.cyclic(4), GroupTable.cyclic(2))]
    cases = [(G, enumerate_rb(G, 1)) for G in groups]
    S3xS3 = GroupTable.direct_product(S3, S3)
    cases.append((S3xS3, random.Random(20).sample(enumerate_rb(S3xS3, 1), 20)))
    for G, operators in cases:
        star = power_star(G, 1)
        for B in operators:
            circ, _ = circ_from_rrb(G, star, B)
            derived, rep = derived_group(G, B)
            assert circ.table == derived.table, (G, B)
            assert rep.details["rb_on_star"]["status"] == "pass", (G, B)


def test_group_action_check():
    S3 = GroupTable.symmetric(3)
    conj = GroupAction.conjugation(S3)
    assert conj.check(S3, S3).ok
    Z2 = GroupTable.cyclic(2)
    assert GroupAction.trivial(S3, Z2).check(S3, Z2).ok
    # constant non-identity map is not an automorphism
    broken = GroupAction([tuple(range(6)), (0, 0, 0, 0, 0, 0)])
    rep = broken.check(S3, Z2)
    assert not rep.ok


def test_group_action_check_rejects_bad_entries():
    Z3, Z2 = GroupTable.cyclic(3), GroupTable.cyclic(2)
    for maps, message in (([[0, 1, 2], [0, 5, 2]], "out of range"),
                          ([[0, 1, 2], [0, -1, 2]], "out of range"),
                          ([[0, 1, 2], [0, 2.0, 1]], "integers"),
                          ([[0, 1, 2], [0, True, 2]], "integers")):
        act = GroupAction(maps)
        for call in (lambda: act.check(Z3, Z2),
                     lambda: relative_rb_check(Z3, Z2, act, (0, 0, 0)),
                     lambda: graph_is_subgroup(Z3, Z2, act, (0, 0, 0))):
            with pytest.raises(ValueError, match=message):
                call()


def test_automorphism_counts():
    # |Aut|: Z2 -> 1, Z3 -> 2, Z4 -> 2, V4 -> 6, S3 -> 6
    assert len(automorphisms(GroupTable.cyclic(2))) == 1
    assert len(automorphisms(GroupTable.cyclic(3))) == 2
    assert len(automorphisms(GroupTable.cyclic(4))) == 2
    V4 = GroupTable.direct_product(GroupTable.cyclic(2), GroupTable.cyclic(2))
    assert len(automorphisms(V4)) == 6
    assert len(automorphisms(GroupTable.symmetric(3))) == 6


def test_check_rb_weights():
    Z4 = GroupTable.cyclic(4)
    assert check_rb(Z4, (0, 0, 0, 0), 1).ok
    assert check_rb(Z4, (0, 3, 2, 1), 1).ok
    rep = check_rb(Z4, (0, 1, 1, 1), 1)
    assert not rep.ok and rep.witness is not None
    with pytest.raises(ValueError):
        check_rb(Z4, (0, 0, 0, 0), 2)
    with pytest.raises(ValueError):
        check_rb(Z4, (0, 0, 0), 1)


def check_rb_two_branches(G: GroupTable, B, weight: int) -> VerificationReport:
    """Reference: the weight +1 and -1 identities with one argument formula
    each, gB(g)hB(g)^-1 and B(g)hB(g)^-1 g, gathered a row at a time."""
    t, inv = G.table, G.inv
    cols = tuple(zip(*t))
    gets = [rb_group._gather(row) for row in t]
    get_b = rb_group._gather(B)

    def rows():
        for g in range(G.n):
            bg = B[g]
            if weight == 1:
                arg = gets[t[g][bg]](cols[inv[bg]])
            else:
                arg = rb_group._gather(gets[bg](cols[inv[bg]]))(cols[g])
            yield (g,), get_b(t[bg]), rb_group._gather(arg)(B)

    return first_row_failure(f"rb_weight_{weight}", rows())


def test_check_rb_matches_the_two_branch_reference():
    rng = random.Random(13)
    cases = []
    for G in (GroupTable.symmetric(3), GroupTable.metacyclic(4, 2, 3), GroupTable.cyclic(6),
              GroupTable.cyclic(1)):
        for w in (1, -1):
            for op in enumerate_rb(G, w):
                cases.append((G, w, op))
                near = list(op)
                near[rng.randrange(G.n)] = rng.randrange(G.n)
                cases.append((G, w, tuple(near)))
            for _ in range(10):
                B = [rng.randrange(G.n) for _ in range(G.n)]
                cases.append((G, w, tuple(B)))
                B[G.e] = G.e
                cases.append((G, w, tuple(B)))
    verdicts = []
    for G, w, B in cases:
        rep = check_rb(G, B, w)
        assert rep.to_json() == check_rb_two_branches(G, B, w).to_json(), (G, w, B)
        verdicts.append(rep.ok)
    assert 100 < sum(verdicts) < len(verdicts) - 100


def test_argument_rows_at_b_are_the_descendent_group():
    # (g^lam B(g) h^lam B(g)^-1)^mu over h is row g of the circle table of
    # the lam-power star, and at lam = 1 of the derived group's table
    S3, D8 = GroupTable.symmetric(3), GroupTable.metacyclic(4, 2, 3)
    F21, Z5 = GroupTable.metacyclic(7, 3, 2), GroupTable.cyclic(5)
    operators = 0
    for G, lam in ((S3, 1), (S3, -1), (D8, 1), (D8, -1), (F21, 1), (F21, -1), (F21, 2),
                   (Z5, 2), (Z5, 3), (Z5, 4)):
        star = power_star(G, lam)
        for B in enumerate_rb(G, lam):
            rows = tuple(tuple(rb_argument(G, lam, g, B[g], h) for h in range(G.n))
                         for g in range(G.n))
            assert circ_from_rrb(G, star, B)[0].table == rows, (G, lam, B)
            if lam == 1:
                assert derived_group(G, B)[0].table == rows, (G, B)
            operators += 1
    assert operators == 2 * (8 + 56 + 30) + 30 + 3 * 5


def brute_force_rb(G: GroupTable, weight: int) -> set:
    """Independent oracle: try every map."""
    hits = set()
    for img in itertools.product(range(G.n), repeat=G.n):
        if check_rb(G, img, weight).ok:
            hits.add(img)
    return hits


def count_endomorphisms(G: GroupTable) -> int:
    count = 0
    for img in itertools.product(range(G.n), repeat=G.n):
        if all(img[G.mul(a, b)] == G.mul(img[a], img[b])
               for a in range(G.n) for b in range(G.n)):
            count += 1
    return count


def test_enumeration_matches_brute_force():
    for G in (GroupTable.cyclic(2), GroupTable.cyclic(3), GroupTable.cyclic(4),
              GroupTable.direct_product(GroupTable.cyclic(2), GroupTable.cyclic(2))):
        assert set(enumerate_rb(G, 1)) == brute_force_rb(G, 1)
        assert set(enumerate_rb(G, -1)) == brute_force_rb(G, -1)


def test_abelian_enumeration_equals_endomorphisms():
    # on abelian groups the weight-1 identity reduces to B(gh) = B(g)B(h)
    for G in (GroupTable.cyclic(2), GroupTable.cyclic(3)):
        assert len(enumerate_rb(G, 1)) == count_endomorphisms(G)


def test_s3_enumeration_against_brute_force():
    S3 = GroupTable.symmetric(3)
    found = enumerate_rb(S3, 1)
    assert set(found) == brute_force_rb(S3, 1)
    assert len(found) == len(set(found))


def test_trivial_and_inversion_always_present():
    for G in (GroupTable.cyclic(n) for n in (2, 3, 4, 5, 6)):
        ops = set(enumerate_rb(G, 1))
        assert tuple([G.e] * G.n) in ops
        assert tuple(G.inv) in ops
    S3 = GroupTable.symmetric(3)
    ops = set(enumerate_rb(S3, 1))
    assert tuple([S3.e] * 6) in ops
    assert tuple(S3.inv) in ops


def test_weight_flip_bijection():
    S3 = GroupTable.symmetric(3)
    plus = enumerate_rb(S3, 1)
    minus = enumerate_rb(S3, -1)
    assert sorted(weight_flip(B, S3) for B in plus) == minus
    assert sorted(weight_flip(B, S3) for B in minus) == plus
    for B in minus:
        assert check_rb(S3, B, -1).ok


def test_lemma_checks():
    S3 = GroupTable.symmetric(3)
    for B in enumerate_rb(S3, 1):
        rep = lemma_checks(S3, B)
        assert rep.ok
        assert set(rep.details) >= {"b_of_identity", "b_inverse_pairing", "b_iteration",
                                    "kernel_translation", "b_of_twisted_inverse",
                                    "kernel_subgroup", "image_subgroup"}
    with pytest.raises(ValueError):
        lemma_checks(S3, (0, 1, 1, 1, 1, 1))


def test_kernel_image_helpers():
    S3 = GroupTable.symmetric(3)
    B = tuple(S3.inv)
    assert ker_indices(S3, B) == [0]
    assert sorted(image_indices(S3, B)) == list(range(6))
    assert is_subgroup(S3, [0, 3, 4])
    assert not is_subgroup(S3, [0, 3])


def test_derived_group():
    S3 = GroupTable.symmetric(3)
    for B in enumerate_rb(S3, 1):
        star, rep = derived_group(S3, B)
        assert rep.ok
        for g in range(6):
            for h in range(6):
                want = S3.mul(S3.mul(S3.mul(g, B[g]), h), S3.inverse(B[g]))
                assert star.mul(g, h) == want
    # B is a homomorphism (G, *) -> (G, .): B(g*h) = B(g)B(h)
    operators = 0
    for G in (S3, GroupTable.metacyclic(4, 2, 3), GroupTable.metacyclic(7, 3, 2)):
        for B in enumerate_rb(G, 1):
            star, _ = derived_group(G, B)
            assert all(B[star.mul(g, h)] == G.mul(B[g], B[h])
                       for g in range(G.n) for h in range(G.n)), (G, B)
            operators += 1
    assert operators == 8 + 56 + 30
    with pytest.raises(ValueError):
        derived_group(S3, (0, 1, 1, 1, 1, 1))


def all_actions(H: GroupTable, G: GroupTable):
    """Every homomorphism G -> Aut(H), by brute force."""
    auts = automorphisms(H)
    for choice in itertools.product(range(len(auts)), repeat=G.n):
        maps = [auts[i] for i in choice]
        act = GroupAction(maps)
        if act.check(H, G).ok:
            yield act


def test_graph_criterion_exhaustive_small():
    groups = [GroupTable.cyclic(2), GroupTable.cyclic(3)]
    for H in groups:
        for G in groups:
            for psi in all_actions(H, G):
                for B in itertools.product(range(G.n), repeat=H.n):
                    rel = relative_rb_check(H, G, psi, B).ok
                    graph = graph_is_subgroup(H, G, psi, B)
                    assert rel == graph


def test_graph_criterion_random():
    random.seed(11)
    pool = [GroupTable.cyclic(n) for n in (2, 3, 4, 5, 6)]
    pool += [GroupTable.symmetric(3),
             GroupTable.direct_product(GroupTable.cyclic(2), GroupTable.cyclic(2))]
    cases = 0
    while cases < 100:
        H = random.choice(pool)
        G = random.choice(pool)
        auts = automorphisms(H)
        maps = [auts[random.randrange(len(auts))] for _ in range(G.n)]
        act = GroupAction(maps)
        if not act.check(H, G).ok:
            continue
        B = tuple(random.randrange(G.n) for _ in range(H.n))
        assert relative_rb_check(H, G, act, B).ok == graph_is_subgroup(H, G, act, B)
        cases += 1


def test_relative_rb_rejects_invalid_action():
    S3 = GroupTable.symmetric(3)
    Z2 = GroupTable.cyclic(2)
    broken = GroupAction([tuple(range(6)), (0, 0, 0, 0, 0, 0)])
    with pytest.raises(ValueError):
        relative_rb_check(S3, Z2, broken, (0,) * 6)


S3, Z3, Z2 = GroupTable.symmetric(3), GroupTable.cyclic(3), GroupTable.cyclic(2)


@pytest.mark.parametrize("call, message", [
    (lambda: circ_from_rrb(S3, power_star(S3, 1), tuple(range(6))),
     r"B does not satisfy the star RB identity at \(1,2\): 4 != 3"),
    (lambda: group_from_json(dict(Z3.to_json(), identity=1)),
     "declared identity does not match table"),
    (lambda: GroupAction([[0, 1, 2]]).check(Z3, Z2), "action shape does not match group orders"),
    (lambda: semidirect(Z3, Z2, GroupAction([(0, 1, 2), (0, 0, 0)])),
     "invalid action: bijective witness"),
    (lambda: linearize_rb(S3, tuple(range(6)), FieldCtx.rationals()),
     "linearize_rb requires a verified weight-1 operator"),
], ids=["circ_from_rrb", "group_from_json", "action_shape", "semidirect", "linearize_rb"])
def test_invalid_input_is_rejected_with_its_reason(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_semidirect():
    Z3 = GroupTable.cyclic(3)
    Z2 = GroupTable.cyclic(2)
    inv_action = GroupAction([(0, 1, 2), (0, 2, 1)])
    assert inv_action.check(Z3, Z2).ok
    D3 = semidirect(Z3, Z2, inv_action)
    assert D3.n == 6 and not is_abelian(D3) and D3.exponent() == 6
    direct = semidirect(Z3, Z2, GroupAction.trivial(Z3, Z2))
    assert is_abelian(direct)


def test_transport_group():
    Z4 = GroupTable.cyclic(4)
    f = (0, 3, 2, 1)  # inversion is an automorphism, transport is Z4 again
    moved = transport_group(Z4, f)
    assert moved.axioms.ok
    assert moved.exponent() == 4


def test_power_star():
    F21 = GroupTable.metacyclic(7, 3, 2)
    star = power_star(F21, 2)
    rep = check_star_compat(F21, star)
    assert rep.ok
    # lambda = 1 reproduces the group itself
    assert power_star(F21, 1).table == F21.table
    with pytest.raises(ValueError):
        power_star(F21, 0)
    with pytest.raises(ValueError):
        power_star(F21, 7)  # gcd(7, 21) != 1


def test_power_star_is_transport_by_power_map():
    F21 = GroupTable.metacyclic(7, 3, 2)
    sq = tuple(F21.mul(g, g) for g in range(21))
    assert power_star(F21, 2).table == transport_group(F21, sq).table


def test_check_rb_lambda_reduces_to_weight_one():
    S3 = GroupTable.symmetric(3)
    random.seed(5)
    for _ in range(40):
        B = tuple(random.randrange(6) for _ in range(6))
        assert check_rb_lambda(S3, B, 1).ok == check_rb(S3, B, 1).ok
        assert check_rb_lambda(S3, B, -1).ok == check_rb(S3, B, -1).ok


def rb_cases(G: GroupTable, B, lam: int):
    """The weight-lambda identity one pair at a time, with the argument
    formula of each weight written out: g B(g) h B(g)^-1 at 1,
    B(g) h B(g)^-1 g at -1 and rb_argument otherwise."""
    t, inv = G.table, G.inv
    for g in range(G.n):
        bg = B[g]
        for h in range(G.n):
            if lam == 1:
                arg = t[t[t[g][bg]][h]][inv[bg]]
            elif lam == -1:
                arg = t[t[t[bg][h]][inv[bg]]][g]
            else:
                arg = rb_argument(G, lam, g, bg, h)
            yield (g, h), t[bg][B[h]], B[arg]


def relative_rb_cases(H: GroupTable, G: GroupTable, psi: GroupAction, B):
    """B(h1)B(h2) = B(h1 Psi_{B(h1)}(h2)) one pair at a time."""
    for h1 in range(H.n):
        acts = psi.maps[B[h1]]
        for h2 in range(H.n):
            yield (h1, h2), G.table[B[h1]][B[h2]], B[H.table[h1][acts[h2]]]


def test_every_weight_is_the_relative_identity_on_the_power_star():
    # check_rb, check_rb_lambda and relative_rb_check on (G_lam, G,
    # conjugation) give the reports of the case-by-case identities
    rng = random.Random(15)
    S3, D8 = GroupTable.symmetric(3), GroupTable.metacyclic(4, 2, 3)
    F21, Z5 = GroupTable.metacyclic(7, 3, 2), GroupTable.cyclic(5)
    verdicts = []
    for G, lam in ((S3, 1), (S3, -1), (D8, 1), (D8, -1), (F21, 2), (F21, 5),
                   (Z5, 2), (Z5, 3), (Z5, 4)):
        maps = []
        for op in enumerate_rb(G, lam):
            maps.append(op)
            near = list(op)
            x = rng.randrange(G.n)
            near[x] = (near[x] + rng.randrange(1, G.n)) % G.n
            maps.append(tuple(near))
        for _ in range(10):
            B = [rng.randrange(G.n) for _ in range(G.n)]
            maps.append(tuple(B))
            B[G.e] = G.e
            maps.append(tuple(B))
        star, conj = power_star(G, lam), GroupAction.conjugation(G)
        for B in maps:
            want = first_failure("rb_weight_lambda", rb_cases(G, B, lam)).to_json()
            assert check_rb_lambda(G, B, lam).to_json() == want, (G, lam, B)
            if lam in (1, -1):
                want_pm = first_failure(f"rb_weight_{lam}", rb_cases(G, B, lam)).to_json()
                assert check_rb(G, B, lam).to_json() == want_pm, (G, lam, B)
            rel = relative_rb_check(star, G, conj, B).to_json()
            assert rel == first_failure("relative_rb", rb_cases(G, B, lam)).to_json()
            assert rel == first_failure("relative_rb",
                                        relative_rb_cases(star, G, conj, B)).to_json()
            verdicts.append(rel["status"] == "pass")
    assert 200 < sum(verdicts) < len(verdicts) - 200


def test_check_rb_lambda_identity_map():
    F21 = GroupTable.metacyclic(7, 3, 2)
    assert check_rb_lambda(F21, tuple([F21.e] * 21), 2).ok
    # B(e) != e never passes
    bad = [F21.e] * 21
    bad[0] = 1
    assert not check_rb_lambda(F21, tuple(bad), 2).ok


def check_rb_lambda_per_case(G: GroupTable, B, lam: int):
    """Reference: the weight-lambda identity decided one pair at a time,
    with a square-and-multiply power for every pair."""
    ex = G.exponent()
    mu = pow(lam % ex, -1, ex)
    t, inv = G.table, G.inv
    plam = [G.power(g, lam) for g in range(G.n)]

    def cases():
        for g in range(G.n):
            bg = B[g]
            for h in range(G.n):
                arg = G.power(t[t[t[plam[g]][bg]][plam[h]]][inv[bg]], mu)
                yield (g, h), t[bg][B[h]], B[arg]

    return first_failure("rb_weight_lambda", cases())


def test_check_rb_lambda_matches_per_case_reference():
    rng = random.Random(22)
    F21, Z5 = GroupTable.metacyclic(7, 3, 2), GroupTable.cyclic(5)
    cases = []
    for G, lam in ((F21, 2), (Z5, 2), (Z5, 3), (Z5, 4)):
        for op in enumerate_rb(G, lam):
            cases.append((G, lam, op))
            for _ in range(2):
                near = list(op)
                near[rng.randrange(G.n)] = rng.randrange(G.n)
                cases.append((G, lam, tuple(near)))
        cases += [(G, lam, (G.e,) + tuple(rng.randrange(G.n) for _ in range(G.n - 1)))
                  for _ in range(10)]
    verdicts = []
    for G, lam, B in cases:
        rep = check_rb_lambda(G, B, lam)
        assert rep.to_json() == check_rb_lambda_per_case(G, B, lam).to_json(), (G, lam, B)
        verdicts.append(rep.ok)
    assert 30 < sum(verdicts) < len(verdicts)


def test_skew_brace_check():
    S3 = GroupTable.symmetric(3)
    B = tuple(S3.inv)
    star, _ = derived_group(S3, B)
    # (S3, ., *) with the derived operation: the brace identity holds
    # for circ built from the operator
    circ, rep = circ_from_rrb(S3, S3, B)
    assert rep.ok
    assert skew_brace_check(S3, circ).ok
    # a random non-brace pairing fails
    Z6 = GroupTable.cyclic(6)
    bad = skew_brace_check(S3, Z6)
    assert not bad.ok
    with pytest.raises(ValueError):
        skew_brace_check(GroupTable([[0, 1], [1, 1]]), GroupTable.cyclic(2))


def test_circ_from_rrb_f21():
    F21 = GroupTable.metacyclic(7, 3, 2)
    star = power_star(F21, 2)
    circ, rep = circ_from_rrb(F21, star, tuple([F21.e] * 21))
    assert rep.ok
    assert rep.details["dot_circ_brace"]["stats"].get("skipped") == 1
    with pytest.raises(ValueError):
        circ_from_rrb(F21, GroupTable.cyclic(21), tuple([F21.e] * 21))


def test_enumerate_parallel_and_cap():
    S3 = GroupTable.symmetric(3)
    assert enumerate_rb(S3, 1, jobs=2) == enumerate_rb(S3, 1)
    with pytest.raises(CapExceeded) as exc:
        enumerate_rb(S3, 1, cap=3)
    assert exc.value.cap == 3
    assert exc.value.evaluations > 3


def test_parallel_searches_fork_no_process(monkeypatch):
    # both --jobs pools start their workers by spawn while another thread
    # runs: os.fork is never called, so Python 3.12 and later do not warn
    # that a fork of this multi-threaded process may deadlock in the child
    S3, Q = GroupTable.symmetric(3), FieldCtx.rationals()
    params = FamilyParams(2, Q.from_int(-1), 2, None)
    grid = [Q.zero, Q.one, Q.from_int(-1), Q.from_int(2)]
    serial = enumerate_rb(S3, 1), family_aut_search(params, grid)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    forks = counting(monkeypatch, os, "fork")
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            parallel = enumerate_rb(S3, 1, jobs=2), family_aut_search(params, grid, jobs=2)
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive() and parallel == serial
    assert forks == [] and not [w for w in seen if "fork()" in str(w.message)]


@pytest.mark.parametrize("jobs, cores, workers", [(100_000, 64, 6), (3, 64, 3), (100_000, 2, 2),
                                                  (4, 1, None)])
def test_enumeration_starts_no_more_workers_than_partitions_or_cores(monkeypatch, jobs, cores,
                                                                     workers):
    # S3 splits into six partitions; one worker runs in process
    S3 = GroupTable.symmetric(3)
    serial = enumerate_rb(S3, 1)
    started = inline_pools(monkeypatch, cores)
    assert enumerate_rb(S3, 1, jobs=jobs) == serial
    assert started == ([] if workers is None else [workers])


def test_enumeration_rejects_jobs_below_one(capsys):
    for G in (GroupTable.symmetric(3), GroupTable.cyclic(1)):
        for jobs in (0, -1):
            with pytest.raises(ValueError, match=f"jobs must be at least 1, not {jobs}"):
                enumerate_rb(G, 1, jobs=jobs)
    for command in ("enum-rb", "aut"):
        where = (["--group", str(FIXTURES / "s3.json")] if command == "enum-rb"
                 else ["--construction", "h4", "--grid", "0,1"])
        assert cli.main([command, *where, "--jobs", "0"]) == 2
        assert capsys.readouterr().err == "error: jobs must be at least 1, not 0\n"


def test_search_on_decided_rows_finds_what_the_all_pairs_search_finds():
    # the same hits in the same order: serially, in every partition on the
    # first free image, and from seeds that assign every element (operators
    # and one-image near misses, in both orders)
    def fixture(name):
        return group_from_json(json.loads((FIXTURES / f"{name}.json").read_text()))

    S3, Z2 = fixture("s3"), GroupTable.cyclic(2)
    groups = {"S3": S3, "Z4": fixture("z4"), "D8": GroupTable.metacyclic(4, 2, 3),
              "F21": fixture("f21"), "S3xZ2": GroupTable.direct_product(S3, Z2),
              "Z2^3": GroupTable.direct_product(GroupTable.direct_product(Z2, Z2), Z2),
              "S3xS3": GroupTable.direct_product(S3, S3), "S4": GroupTable.symmetric(4),
              "S3xZ4": GroupTable.direct_product(S3, GroupTable.cyclic(4))}
    rng = random.Random(22)
    for name, G in groups.items():
        first = next(i for i in range(G.n) if i != G.e)
        for weight in (1, -1) + ((2, -2) if name == "F21" else ()):
            seedings = [[(G.e, G.e)]]
            if name in ("S3xS3", "F21"):
                seedings += [[(G.e, G.e), (first, v)] for v in range(G.n)]
            if name in ("S3", "D8", "F21"):
                for op in rng.sample(enumerate_rb(G, weight), 6):
                    x = rng.randrange(G.n)
                    near = op[:x] + ((op[x] + rng.randrange(1, G.n)) % G.n,) + op[x + 1:]
                    seedings += [order for B in (op, near)
                                 for order in (list(enumerate(B)), list(enumerate(B))[::-1])]
            for seeds in seedings:
                hits, _ = rb_group._search_partition(G, weight, seeds, DEFAULT_CAP)
                assert hits == all_pairs_search(G, weight, seeds, DEFAULT_CAP)[0], (name, weight,
                                                                                    seeds)


def test_serial_search_checks_each_decided_pair_once():
    # assignments, forced ones included, at weight 1: each pair of a decided
    # element and an assigned one is checked or forced in one place, and the
    # tree is smaller here than with a second pass over the row of each
    # decision (98,661 and 501,097 assignments)
    S3 = GroupTable.symmetric(3)
    for G, count in ((GroupTable.direct_product(S3, S3), 67_425),
                     (GroupTable.direct_product(GroupTable.cyclic(2), GroupTable.symmetric(4)),
                      191_479)):
        assert rb_group._search_partition(G, 1, [(G.e, G.e)], DEFAULT_CAP)[1] == count


def test_parallel_enumeration_keeps_one_budget(monkeypatch):
    # S3 x S3 at weight 1: the serial search makes 67,425 assignments, forced
    # ones included, and the 36 partitions on the first free image 67,460, at
    # most 10,792 each; the search stops once the finished partitions
    # together pass the cap
    S3 = GroupTable.symmetric(3)
    G = GroupTable.direct_product(S3, S3)
    first = next(i for i in range(G.n) if i != G.e)
    counts = [rb_group._search_partition(G, 1, [(G.e, G.e), (first, v)], DEFAULT_CAP)[1]
              for v in range(G.n)]
    assert (sum(counts), max(counts)) == (67_460, 10_792)
    cap = 20_000
    with pytest.raises(CapExceeded) as exc:
        enumerate_rb(G, 1, cap=cap, jobs=2)
    assert cap < exc.value.evaluations <= cap + max(counts)
    # a partition over the cap on its own comes back from its worker
    with pytest.raises(CapExceeded) as exc:
        enumerate_rb(S3, 1, cap=3, jobs=2)
    assert exc.value.evaluations > 3
    # in process, partition by partition, the same bound holds
    inline_pools(monkeypatch, 4)
    with pytest.raises(CapExceeded) as exc:
        enumerate_rb(G, 1, cap=cap, jobs=4)
    assert cap < exc.value.evaluations <= cap + max(counts)


def test_operator_json_round_trip():
    S3 = GroupTable.symmetric(3)
    B = tuple(S3.inv)
    obj = operator_to_json(S3, B, 1)
    name, weight, back = operator_from_json(obj)
    assert (weight, back) == (1, B)
    G2 = group_from_json(S3.to_json())
    assert G2.table == S3.table and G2.e == S3.e


def test_group_json_rejects_mismatched_metadata():
    obj = GroupTable.cyclic(3).to_json()
    obj["order"] = 4
    with pytest.raises(ValueError):
        group_from_json(obj)
    # 3.0 == 3 and False == 0, so the declared fields must be ints to match
    for group, key, value in ((3, "order", 3.0), (2, "identity", False), (2, "identity", 0.0)):
        obj = GroupTable.cyclic(group).to_json()
        obj[key] = value
        with pytest.raises(ValueError, match=f"^{key} must be an integer"):
            group_from_json(obj)


def brute_force_rb_lambda(G: GroupTable, lam: int) -> set:
    """Independent oracle for general weights: every map with B(e) = e.

    B(e)B(e) = B(e) at g = h = e, so B(e) = e for every operator."""
    others = [g for g in range(G.n) if g != G.e]
    hits = set()
    for images in itertools.product(range(G.n), repeat=len(others)):
        B = [G.e] * G.n
        for g, v in zip(others, images):
            B[g] = v
        if check_rb_lambda(G, B, lam).ok:
            hits.add(tuple(B))
    return hits


def test_general_weight_enumeration_matches_brute_force():
    Z4, Z5, Z6 = (GroupTable.cyclic(n) for n in (4, 5, 6))
    cases = [(Z5, 2), (Z5, 3), (Z5, 4), (Z4, 3), (Z6, 5), (GroupTable.symmetric(3), 5)]
    for G, lam in cases:
        assert set(enumerate_rb(G, lam)) == brute_force_rb_lambda(G, lam), (G, lam)


def test_search_leaves_no_reference_cycles():
    # the library call, not the CLI: argparse makes cycles of its own
    S3 = GroupTable.symmetric(3)
    gc.collect()
    gc.disable()
    try:
        assert len(enumerate_rb(S3, 1)) == 8
        assert gc.collect() == 0
        try:
            enumerate_rb(S3, 1, cap=3)
        except CapExceeded:
            pass
        else:
            pytest.fail("cap 3 did not stop the search")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_trivial_group_through_the_row_checks():
    # a one-entry row: itemgetter(*row) alone would return a bare element
    Z1 = GroupTable.cyclic(1)
    assert (Z1.e, Z1.inv) == (0, (0,))
    # e alone generates Z1, so no associativity or conjugation case is left
    assert Z1.gens == [] and Z1.axioms.stats["identities_checked"] == 2
    assert check_star_compat(Z1, power_star(Z1, 1)).stats["identities_checked"] == 3
    assert skew_brace_check(Z1, Z1).stats["identities_checked"] == 1
    for w in (1, -1):
        assert check_rb(Z1, (0,), w).stats["identities_checked"] == 1
    star, rep = derived_group(Z1, (0,))
    assert rep.ok and star.table == ((0,),)
    circ, rep = circ_from_rrb(Z1, Z1, (0,))
    assert rep.ok and circ.table == ((0,),)
    assert rep.stats["identities_checked"] == 4
    for w in (1, -1, 2):
        assert enumerate_rb(Z1, w) == [(0,)]


def test_passing_counts_on_s3():
    S3 = GroupTable.symmetric(3)
    star = power_star(S3, 1)

    def count(rep):
        assert rep.ok
        return rep.stats["identities_checked"]

    # on the generators [1, 2]: 1 + 6 + 2*36 group cases, 2*36 conjugation
    # rows and 6*2*6 brace cases (rows b in the generators)
    assert S3.gens == [1, 2]
    assert count(check_group(S3.table)[1]) == 79
    assert count(check_star_compat(S3, power_star(S3, 1))) == 152
    assert count(skew_brace_check(S3, star)) == 72
    assert count(circ_from_rrb(S3, star, S3.inv)[1]) == 223
    assert count(derived_group(S3, S3.inv)[1]) == 115
