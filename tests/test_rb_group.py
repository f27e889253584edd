"""Rota-Baxter operators on finite groups: tables, checks, enumeration."""

import gc
import itertools
import json
import math
import random
from pathlib import Path

import pytest

from hopfrb import cli, rb_group
from hopfrb.rb_group import (DEFAULT_CAP, CapExceeded, GroupAction, GroupTable, automorphisms,
                             check_group, check_rb, check_rb_lambda, check_star_compat,
                             circ_from_rrb, derived_group, enumerate_rb, group_from_json,
                             image_indices, is_subgroup, ker_indices, lemma_checks,
                             linearize_rb, operator_from_json, operator_to_json, power_star,
                             relative_rb_check, skew_brace_check)
from hopfrb.scalars import FieldCtx
from hopfrb.report import VerificationReport, first_failure, first_row_failure, merge_reports

import helpers
from helpers import (all_pairs_search, counting, graph_is_subgroup, is_abelian, moved_operator,
                     orbit_representatives, per_operator_verdicts, quaternion_table, rb_argument,
                     semidirect, transport_group, weight_flip)

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


def _test_groups() -> list[GroupTable]:
    """Every group the tests build, fixtures included."""
    S3, Z2, Z4 = GroupTable.symmetric(3), GroupTable.cyclic(2), GroupTable.cyclic(4)
    V4 = GroupTable.direct_product(Z2, Z2)
    groups = [GroupTable.cyclic(n) for n in range(1, 9)]
    groups += [V4, GroupTable.direct_product(Z4, Z2), GroupTable.direct_product(V4, Z2),
               GroupTable.direct_product(V4, V4), S3, GroupTable.metacyclic(4, 2, 3),
               quaternion_table(), GroupTable.metacyclic(7, 3, 2), GroupTable.symmetric(4),
               GroupTable.direct_product(S3, S3), GroupTable.direct_product(Z2, S3),
               GroupTable.direct_product(S3, Z4),
               GroupTable.direct_product(Z2, GroupTable.symmetric(4)),
               GroupTable.direct_product(GroupTable.direct_product(GroupTable.cyclic(3),
                                                                   GroupTable.cyclic(3)),
                                         GroupTable.cyclic(3))]
    groups += [group_from_json(json.loads((FIXTURES / f"{name}.json").read_text()))
               for name in ("s3", "f21", "z2", "z3", "z4")]
    return groups


def _one_entry_mutants(G: GroupTable, rng: random.Random, per_axiom: int) -> list[list]:
    """Tables of G with one entry changed: per_axiom in e's row or column
    (no identity), at (g, g^-1) for g != e (an element with no inverse), and
    at (a, b) with a, b, ab != e to a value other than e (not a Latin square,
    so associativity fails), and per_axiom at random entries."""
    n, e, t = G.n, G.e, G.table
    others = [g for g in range(n) if g != e]
    plain = [(a, b) for a in others for b in others if t[a][b] != e]
    positions = ([rng.choice([(e, b) for b in range(n)] + [(a, e) for a in range(n)])
                  for _ in range(per_axiom)]
                 + [(g, G.inv[g]) for g in rng.choices(others, k=per_axiom)]
                 + rng.choices(plain, k=per_axiom)
                 + [(rng.randrange(n), rng.randrange(n)) for _ in range(per_axiom)])
    tables = []
    for k, (a, b) in enumerate(positions):
        m = [list(row) for row in t]
        m[a][b] = rng.choice([v for v in range(n) if v != t[a][b]
                              and (v != e or not 2 <= k // per_axiom < 3)])
        tables.append(m)
    return tables


def _random_loop(n: int, rng: random.Random) -> list[list]:
    """A random Latin square on range(n) with 0 a two-sided identity: a loop,
    for n >= 5 most often one that is not a group."""
    t = [[a if b == 0 else b if a == 0 else -1 for b in range(n)] for a in range(n)]
    cells = [(a, b) for a in range(1, n) for b in range(1, n)]

    def fill(i):
        if i == len(cells):
            return True
        a, b = cells[i]
        used = set(t[a]) | {row[b] for row in t}
        for v in rng.sample(range(n), n):
            if v not in used:
                t[a][b] = v
                if fill(i + 1):
                    return True
        t[a][b] = -1
        return False

    fill(0)
    return t


def _times_cyclic(t: list, k: int) -> list[list]:
    """The product of the table t and Z_k, (x, z) at index x*k + z.  Index 1
    is (0, 1), which associates with every pair when 0 is t's identity, so
    G.gens starts at a middle where (ab)c = a(bc) holds for every a and c."""
    n = len(t)
    return [[t[x][y] * k + (z + w) % k for y in range(n) for w in range(k)]
            for x in range(n) for z in range(k)]


def _decided(build, table) -> tuple:
    """group_by_cases's tuple for the group build(table) makes."""
    try:
        G = build(table)
    except rb_group._NotAGroup as err:
        return "not a group", str(err), err.report.to_json()
    return G.e, G.inv, G.gens, G.axioms.to_json()


def test_group_axioms_agree_with_the_case_by_case_oracle():
    # a group passes on whole-table comparisons; every table, group or one
    # entry off one, gets the identity, inverses, generators and report (or
    # the error text) of deciding every case in turn
    rng = random.Random(34)
    tables = [[list(row) for row in G.table] for G in _test_groups()]
    S3, Z2 = GroupTable.symmetric(3), GroupTable.cyclic(2)
    for G in (S3, GroupTable.metacyclic(4, 2, 3), GroupTable.metacyclic(7, 3, 2),
              GroupTable.direct_product(S3, S3)):
        mutants = _one_entry_mutants(G, rng, 6)
        failed = [helpers.group_by_cases(m)[2]["witness"]["identity"] for m in mutants
                  if helpers.group_by_cases(m)[0] == "not a group"]
        assert all(failed.count(axiom) >= 5 for axiom in
                   ("identity", "inverses", "associativity")), (G, failed)
        tables += mutants
    # loops that are not groups fail at inverses or at associativity on
    # every row, and times Z2 or Z3, at some generator but the first
    loops = [_random_loop(n, rng) for n in (5, 6, 7) for _ in range(12)]
    failed = [want[-1].get("witness", {}).get("identity")
              for want in map(helpers.group_by_cases, loops)]
    assert failed.count("inverses") >= 5 and failed.count("associativity") >= 5
    tables += loops + [_times_cyclic(t, k) for t, axiom in zip(loops, failed)
                       if axiom == "associativity" for k in (2, 3)]
    tables += [[[0, 1], [1, 1]], [[1, 0], [0, 1]], [[0]], []]
    groups = 0
    for table in tables:
        want = helpers.group_by_cases(table)
        assert _decided(GroupTable, table) == want, table
        assert _decided(lambda t: GroupTable._gathered(map(tuple, t)), table) == want, table
        G, rep = check_group(table)
        assert rep.to_json() == want[-1] and (G is None) == (want[0] == "not a group"), table
        if G is not None:
            assert (G.e, G.inv, G.gens) == want[:3] and G.axioms is rep
            groups += 1
    assert groups > 20
    # the derived, circle and power-star groups, built on gathered rows
    for G, weight in ((S3, 1), (S3, -1), (GroupTable.direct_product(Z2, S3), 1),
                      (GroupTable.metacyclic(7, 3, 2), 2)):
        star = power_star(G, weight)
        assert _decided(GroupTable._gathered, star.table) == helpers.group_by_cases(star.table)
        for B in enumerate_rb(G, weight)[:10]:
            if weight == 1:
                Gstar, _ = derived_group(G, B)
                assert (Gstar.e, Gstar.inv, Gstar.gens, Gstar.axioms.to_json()) == \
                    helpers.group_by_cases(Gstar.table)
            circ, _ = circ_from_rrb(G, star, B)
            assert (circ.e, circ.inv, circ.gens, circ.axioms.to_json()) == \
                helpers.group_by_cases(circ.table)


def test_a_group_is_decided_without_the_case_by_case_path(monkeypatch):
    cases = counting(monkeypatch, rb_group, "first_failure")
    rows = counting(monkeypatch, rb_group, "_associativity_rows")
    for G in _test_groups():
        table = [list(row) for row in G.table]
        assert GroupTable(table).axioms.ok and check_group(table)[1].ok
        assert GroupTable._gathered(G.table).axioms.ok
        group_from_json(G.to_json())
    power_star(GroupTable.symmetric(3), -1)
    assert cases == [] and rows == []
    # a table that fails takes it, for the witness and count of its report
    t = [list(row) for row in GroupTable.symmetric(3).table]
    t[1][2] = 5 if t[1][2] != 5 else 4
    assert not check_group(t)[1].ok and len(cases) == 1 and rows


def test_int_rows_errors_keep_their_precedence():
    # the whole table is checked at once, and a table that fails names the
    # first failing row's error, as a row-by-row check did
    def error(call):
        with pytest.raises(ValueError) as err:
            call()
        return str(err.value)

    integers, out_of_range = "table entries must be integers", "table entries are out of range"
    for table, message in (([[0, 2], [1, "x"]], out_of_range),
                           ([[0, 1.0], [1, 2]], integers),
                           ([[0, 1], [1, 0.0]], integers),
                           ([[0, True], [True, 0]], integers),
                           ([[False, 1], [1, 0]], integers),
                           ([[0, 1], [1, -1]], out_of_range),
                           ([[0, -1], [1, None]], out_of_range),
                           ([[0, 1], [1, 2]], out_of_range),
                           ([[0, 1], [1]], "table shape does not match its row count")):
        assert error(lambda: GroupTable(table)) == message, table
        assert error(lambda: check_group(table)) == message, table
    # the empty table has the shape of its row count and no identity
    assert rb_group._int_rows([], 0, 0, 0, "table", "its row count") == ()
    assert error(lambda: GroupTable([])) == "no two-sided identity element"
    assert check_group([])[1].witness["identity"] == "identity"
    Z1 = GroupTable.cyclic(1)
    assert rb_group._validate_map(Z1, [0]) == (0,)
    for B, message in (([1], "operator map entries are out of range"),
                       ([-1], "operator map entries are out of range"),
                       ([True], "operator map entries must be integers"),
                       ([0.0], "operator map entries must be integers"),
                       (["0"], "operator map entries must be integers"),
                       ([0, 0], "operator map shape does not match group order"),
                       ([], "operator map shape does not match group order")):
        assert error(lambda: rb_group._validate_map(Z1, B)) == message, B


def test_circ_and_derived_group_decide_each_table_once(monkeypatch, capsys, tmp_path):
    S3 = GroupTable.symmetric(3)
    star = power_star(S3, 1)
    decided = []  # the table of each group whose axioms are decided
    decide = GroupTable._decide
    monkeypatch.setattr(GroupTable, "_decide",
                        lambda G, t, name: decided.append(t) or decide(G, t, name))
    assert circ_from_rrb(S3, star, S3.inv)[1].ok
    assert derived_group(S3, S3.inv)[1].ok
    # one table for circ, one for the derived star; the star above was
    # decided when power_star built it
    assert len(decided) == 2

    # enum-rb, one path at every weight: power_star builds a star, decides
    # its precondition and the brace (G, ., *) once per command where the
    # weight's table is not G's, as at -1 on S3; where it is G's, at weight
    # 1 and at -1 on the abelian Z4xZ2, the star is G itself, with no star
    # facts, and the two braces are one.  Then one circle table per orbit of
    # Aut(G) on the operators, decided on its first operator
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

    def enum_rb(path, *extra):
        for log in (*calls.values(), decided, built):
            log.clear()
        assert cli.main(["enum-rb", "--group", str(path), *extra]) == 0
        return json.loads(capsys.readouterr().out)["operators"]

    s3, z4xz2 = FIXTURES / "s3.json", tmp_path / "z4xz2.json"
    Z4xZ2 = GroupTable.direct_product(GroupTable.cyclic(4), GroupTable.cyclic(2))
    z4xz2.write_text(json.dumps(Z4xZ2.to_json()))
    for path, weight, stars, braces, count, want in ((s3, 1, 0, 1, 8, 4), (s3, -1, 1, 2, 8, 4),
                                                     (z4xz2, -1, 0, 1, 32, 14)):
        operators = enum_rb(path, f"--weight={weight}")
        assert len(operators) == count
        keys = ("skew_brace", "derived_group") + (("lemma",) if weight == 1 else ())
        assert all(row[key] == "pass" for row in operators for key in keys)
        [(_, G)] = calls["group_from_json"]
        [((_, lam), star)] = calls["power_star"]
        assert lam == weight and (star is not G) == stars
        maps = [tuple(row["map"]) for row in operators]
        orbits = len(orbit_representatives(maps, helpers.automorphisms(G)))
        assert orbits == want
        assert [args for args, _ in calls["check_star_compat"]] == [(G, star)] * stars
        brace_args = [args for args, _ in calls["skew_brace_check"]]
        assert sum(args[0] is G and args[1] is star for args in brace_args) == stars
        assert len(brace_args) == stars + braces * orbits
        assert calls["derived_group"] == []
        # the group read from the file and the star at -1 on S3, then one
        # circle table per orbit
        assert len(decided) == 1 + stars + orbits
        # the search, the star facts, the circle tables and the lemmas all
        # read G's own conjugation rows
        assert built and all(rows is G._conj for rows in built)


def test_commands_decide_the_weight_one_identity_once_per_operator(monkeypatch, capsys):
    # check-group-rb on a passing operator: the identity once, its rows on
    # to the lemma parts and the derived group, and rb_on_star; enum-rb: none,
    # as the search has decided each operator's identity on the rows that
    # are its circle table
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
    assert len(json.loads(capsys.readouterr().out)["operators"]) == 8 and calls == []
    # the public checkers keep their preconditions
    calls.clear()
    assert lemma_checks(S3, S3.inv).ok and derived_group(S3, S3.inv)[1].ok
    assert len(calls) == 3


def test_enum_rb_builds_each_circle_table_once_from_the_search_rows(monkeypatch, capsys):
    # at weights 1, -1 and 2: no relative identity after the search, the
    # shape check of the group file only, and the axioms of the group, its
    # star unless the weight is 1 (the star is G itself), and then one
    # circle table per Aut(G)-orbit, circ_from_rrb's table of its first
    # operator
    identities = counting(monkeypatch, rb_group, "_relative_identity")
    shapes = counting(monkeypatch, rb_group, "_int_rows")
    decided = []
    decide = GroupTable._decide
    monkeypatch.setattr(GroupTable, "_decide",
                        lambda G, t, name: decided.append(t) or decide(G, t, name))
    for name, weight in (("s3", 1), ("s3", -1), ("f21", 2)):
        path = FIXTURES / f"{name}.json"
        for log in (identities, shapes, decided):
            log.clear()
        assert cli.main(["enum-rb", "--group", str(path), f"--weight={weight}"]) == 0
        operators = [tuple(row["map"])
                     for row in json.loads(capsys.readouterr().out)["operators"]]
        assert operators and identities == [] and len(shapes) == 1
        tables = decided[:]
        G = group_from_json(json.loads(path.read_text()))
        star = power_star(G, weight)
        firsts = orbit_representatives(operators, automorphisms(G))
        assert len(firsts) == {"s3": 4, "f21": 6}[name]
        stars = [star.table] if weight != 1 else []
        assert tables == [G.table, *stars] + [circ_from_rrb(G, star, B)[0].table
                                              for B in firsts]


def group_file(tmp_path, G: GroupTable) -> str:
    path = tmp_path / f"{G.name}.json"
    path.write_text(json.dumps(G.to_json()))
    return str(path)


def enum_rb_rows(path: str, weight: int, capsys) -> list[dict]:
    assert cli.main(["enum-rb", "--group", path, f"--weight={weight}"]) == 0
    return json.loads(capsys.readouterr().out)["operators"]


def statuses(row: dict) -> dict:
    return {k: row[k] for k in ("skew_brace", "derived_group", "lemma") if k in row}


def test_enum_rb_statuses_match_the_per_operator_oracle(tmp_path, capsys):
    # enum-rb decides the first operator of each Aut(G)-orbit; the oracle
    # decides every operator itself
    S3, Z2, F21 = GroupTable.symmetric(3), GroupTable.cyclic(2), GroupTable.metacyclic(7, 3, 2)
    cases = [(G, w) for G in (S3, GroupTable.metacyclic(4, 2, 3), F21,
                              GroupTable.direct_product(S3, S3)) for w in (1, -1)]
    cases += [(F21, 2), (GroupTable.direct_product(GroupTable.direct_product(Z2, Z2), Z2), 1)]
    for G, weight in cases:
        rows = enum_rb_rows(group_file(tmp_path, G), weight, capsys)
        ops = [tuple(row["map"]) for row in rows]
        assert ops == enumerate_rb(G, weight)
        assert list(map(statuses, rows)) == per_operator_verdicts(G, weight, ops), (G, weight)


def test_enum_rb_builds_one_circle_group_per_orbit(tmp_path, monkeypatch, capsys):
    S3, Z2 = GroupTable.symmetric(3), GroupTable.cyclic(2)
    cases = [(GroupTable.direct_product(S3, S3), 1, 784, 52),
             (GroupTable.direct_product(GroupTable.direct_product(Z2, Z2), Z2), 1, 512, 14),
             (GroupTable.metacyclic(4, 2, 3), 1, 56, 18),
             (GroupTable.direct_product(Z2, GroupTable.symmetric(4)), 1, 1888, 126),
             (GroupTable.metacyclic(7, 3, 2), 2, 30, 6)]
    circles = counting(monkeypatch, rb_group, "_circle")
    lemmas = counting(monkeypatch, rb_group, "_lemma_parts")
    for G, weight, count, orbits in cases:
        path = group_file(tmp_path, G)
        circles.clear()
        lemmas.clear()
        rows = enum_rb_rows(path, weight, capsys)
        assert len(rows) == count
        assert all(status == "pass" for row in rows for status in statuses(row).values())
        assert len(circles) == orbits, G
        assert len(lemmas) == (orbits if weight == 1 else 0), G


@pytest.mark.parametrize("weight, key", [(1, "lemma"), (-1, "skew_brace")])
def test_a_failing_orbit_copies_the_statuses_of_its_first_operator(tmp_path, monkeypatch,
                                                                   capsys, weight, key):
    # a check made to fail on the first operator of an orbit fails every
    # member of that orbit and no other operator: each orbit is decided once,
    # on its first operator, and its statuses are copied pass or fail.  F21
    # has a trivial centre, so each operator has a circle table of its own.
    F21 = GroupTable.metacyclic(7, 3, 2)
    ops, auts = enumerate_rb(F21, weight), automorphisms(F21)
    firsts = orbit_representatives(ops, auts)
    first = next(B for B in firsts if len({moved_operator(phi, B) for phi in auts}) > 2)
    orbit = {moved_operator(phi, first) for phi in auts}
    row = rb_group._relative_rows(rb_group._power_table(F21, weight), F21._conj)
    operator_at = {tuple(row(g, v) for g, v in enumerate(B)): B for B in ops}
    assert len(operator_at) == len(ops)
    circle, lemma = rb_group._circle, rb_group._lemma_parts
    broken = first_failure(key, [((0,), 1, 0)])
    circles, lemmas = [], []

    def failing_circle(G, star, rows):
        B = operator_at[tuple(rows)]
        circles.append(B)
        circ, rep = circle(G, star, rows)
        if key == "skew_brace" and B == first:
            rep = merge_reports({"circ_group": circ.axioms, "star_circ_brace": broken})
        return circ, rep

    monkeypatch.setattr(rb_group, "_circle", failing_circle)
    monkeypatch.setattr(rb_group, "_lemma_parts",
                        lambda G, B: lemmas.append(B) or (broken if B == first else lemma(G, B)))
    rows = enum_rb_rows(group_file(tmp_path, F21), weight, capsys)
    assert [tuple(row["map"]) for row in rows] == ops
    assert {tuple(row["map"]) for row in rows if row[key] == "fail"} == orbit
    assert all(status == "pass" for row in rows for k, status in statuses(row).items()
               if k != key)
    # one call per orbit, on its first operator
    assert circles == firsts and lemmas == (firsts if weight == 1 else [])


def test_an_operator_missing_from_its_orbit_is_an_error():
    D8 = GroupTable.metacyclic(4, 2, 3)
    ops = enumerate_rb(D8, 1)
    auts = automorphisms(D8)
    B = next(B for B in ops if len({moved_operator(phi, B) for phi in auts}) > 1)
    moved = max(moved_operator(phi, B) for phi in auts)
    kept = [op for op in ops if op != moved]
    with pytest.raises(RuntimeError, match="out of the list"):
        rb_group._orbit_verdicts(D8, kept, 1, auts)


def test_weight_one_lists_are_closed_under_the_twisted_inverse():
    # B~(g) = g^-1 B(g^-1) is again an operator of weight 1 (Guo-Lang-Sheng),
    # and B~~ = B
    S3, Z2 = GroupTable.symmetric(3), GroupTable.cyclic(2)
    for G in (S3, GroupTable.metacyclic(4, 2, 3), GroupTable.metacyclic(7, 3, 2),
              GroupTable.direct_product(S3, S3),
              GroupTable.direct_product(Z2, GroupTable.symmetric(4))):
        ops = enumerate_rb(G, 1)
        t, inv = G.table, G.inv
        assert {tuple(t[inv[g]][B[inv[g]]] for g in range(G.n)) for B in ops} == set(ops), G


def test_automorphisms_keep_each_operator_list():
    # the premise of enum-rb's orbit rule: phi B phi^-1 is in the search's
    # list for every operator B and every automorphism phi
    S3, Z2 = GroupTable.symmetric(3), GroupTable.cyclic(2)
    F21 = GroupTable.metacyclic(7, 3, 2)
    cases = [(G, w) for G in (S3, GroupTable.metacyclic(4, 2, 3), F21,
                              GroupTable.direct_product(S3, S3)) for w in (1, -1)]
    cases += [(F21, 2), (GroupTable.direct_product(GroupTable.direct_product(Z2, Z2), Z2), 1),
              (GroupTable.direct_product(Z2, GroupTable.symmetric(4)), 1)]
    for G, weight in cases:
        ops, auts = set(enumerate_rb(G, weight)), automorphisms(G)
        assert all(moved_operator(phi, B) in ops for phi in auts for B in ops), (G, weight)


def test_gathered_tables_decide_the_group_axioms():
    # circle rows of near misses (one image changed) are square, with
    # entries in range, and often no group: the gathered path fails as the
    # shape-checked constructor does, or builds the same group
    rng = random.Random(30)
    S3, D8 = GroupTable.symmetric(3), GroupTable.metacyclic(4, 2, 3)
    plan = [(S3, 1), (S3, -1), (D8, 1), (D8, -1), (GroupTable.metacyclic(7, 3, 2), 2),
            (GroupTable.direct_product(S3, S3), 1)]
    failed = {"identity": 0, "inverses": 0, "associativity": 0}
    for G, lam in plan:
        row = rb_group._relative_rows(rb_group._power_table(G, lam), G._conj)
        operators = enumerate_rb(G, lam)
        for _ in range(25):
            B = list(rng.choice(operators))
            x = rng.randrange(G.n)
            B[x] = (B[x] + rng.randrange(1, G.n)) % G.n
            rows = [row(g, v) for g, v in enumerate(B)]
            outcomes = []
            for build in (GroupTable, GroupTable._gathered):
                try:
                    H = build(rows)
                    outcomes.append((H.table, H.e, H.inv, H.gens, H.axioms.to_json()))
                except rb_group._NotAGroup as exc:
                    outcomes.append((str(exc), exc.report.to_json()))
            assert outcomes[0] == outcomes[1], (G, lam, B)
            if len(outcomes[0]) == 2:
                failed[outcomes[0][1]["identity"]] += 1
    assert min(failed.values()) > 5, failed


def test_each_power_table_is_built_once_per_group(monkeypatch, capsys):
    # weight 1 is G's own table; any other weight is built by the call that
    # reads it
    S3 = GroupTable.symmetric(3)
    S3xS3, F21 = GroupTable.direct_product(S3, S3), GroupTable.metacyclic(7, 3, 2)
    for G in (S3xS3, F21):
        assert rb_group._power_table(G, 1) is G.table
        # -1 is the formula at mu = -1: the transpose
        assert rb_group._power_table(G, -1) == tuple(zip(*G.table))
    with pytest.raises(ValueError, match="not invertible"):
        rb_group._power_table(S3xS3, 2)

    # enum-rb builds one table, its star's, at a weight other than 1 and
    # none at weight 1; check-group-rb builds one for the identity
    calls = counting(monkeypatch, rb_group, "_power_table")
    f21, s3 = str(FIXTURES / "f21.json"), str(FIXTURES / "s3.json")
    runs = [(["enum-rb", "--group", f21, "--weight", "2"], 1), (["enum-rb", "--group", f21], 0),
            (["check-group-rb", "--group", s3, "--weight=-1", "--map", "0,3,4,3,4,0"], 1)]
    for argv, built in runs:
        calls.clear()
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)
        assert len([lam for _, lam in calls if lam != 1]) == built, argv


def test_descendent_groups_are_built_once_by_one_builder(monkeypatch):
    # one table per build, gathered from rows, so with no shape check
    S3 = GroupTable.symmetric(3)
    stars = {lam: power_star(S3, lam) for lam in (1, -1)}
    builds = counting(monkeypatch, rb_group, "_descendent_group")
    tables, shaped = [], []
    init, gathered = GroupTable.__init__, GroupTable._gathered
    monkeypatch.setattr(GroupTable, "__init__",
                        lambda G, table, name="": shaped.append(table) or init(G, table, name))
    monkeypatch.setattr(GroupTable, "_gathered", classmethod(
        lambda cls, rows, name="": tables.append(rows) or gathered(rows, name)))
    cases = [(lambda B: derived_group(S3, B), 1), (lambda B: circ_from_rrb(S3, stars[1], B), 1),
             (lambda B: circ_from_rrb(S3, stars[-1], B), -1)]
    for call, weight in cases:
        for B in enumerate_rb(S3, weight):
            builds.clear()
            tables.clear()
            group, _ = call(B)
            assert len(builds) == 1 and list(map(tuple, tables)) == [group.table], (weight, B)
            assert shaped == []


def test_circ_from_rrb_keeps_the_star_facts_on_the_group(monkeypatch):
    D8 = GroupTable.metacyclic(4, 2, 3)
    decided = []
    compat = rb_group.check_star_compat
    monkeypatch.setattr(rb_group, "check_star_compat",
                        lambda G, star: decided.append(star) or compat(G, star))
    # a star with G's own table needs no facts, and its two braces are one:
    # power_star(D8, 1) is D8 itself, and a second group on its table counts
    # as the same star
    assert power_star(D8, 1) is D8
    for star in (D8, GroupTable(D8.table)):
        for B in enumerate_rb(D8, 1)[:3]:
            _, rep = circ_from_rrb(D8, star, B)
            assert rep.ok
            assert rep.details["dot_circ_brace"] == rep.details["star_circ_brace"]
    assert decided == [] and D8._stars == {}
    # any other star's facts are decided on the first call with its table
    # and kept on G under that table, however many star objects carry it
    operators = enumerate_rb(D8, -1)
    stars = [power_star(D8, -1) for _ in range(50)]
    for star, B in zip(stars, itertools.cycle(operators)):
        assert circ_from_rrb(D8, star, B)[1].ok
    assert decided == [stars[0]] and list(D8._stars) == [stars[0].table]
    # the star of weight 3, which is -1 modulo exp(D8) = 4, has the same
    # table and shares those facts
    other = power_star(D8, 3)
    assert other.table == stars[0].table
    for B in enumerate_rb(D8, 3)[:3]:
        assert circ_from_rrb(D8, other, B)[1].ok
    # and so do enum-rb's verdicts, run after run
    for _ in range(2):
        rb_group._orbit_verdicts(D8, operators, -1, automorphisms(D8))
    assert decided == [stars[0]] and len(D8._stars) == 1
    # a star that fails the precondition is decided once and fails the
    # same way on every call
    S3, Z6 = GroupTable.symmetric(3), GroupTable.cyclic(6)
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError, match="star precondition fails") as exc:
            circ_from_rrb(S3, Z6, (0,) * 6)
        messages.append(str(exc.value))
    assert messages[0] == messages[1] and decided[1:] == [Z6]


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
    # group over the star G itself: circ_from_rrb forms B's rows on the star
    # and derived_group on G, both build through _descendent_group, and
    # derived_group also decides that B is again Rota-Baxter on it
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
    # the backtrack over images of generators finds exactly the permutations
    # that respect the table, on every test group of order at most 8
    Z2, Z4 = GroupTable.cyclic(2), GroupTable.cyclic(4)
    V4 = GroupTable.direct_product(Z2, Z2)
    groups = {"Z1": (GroupTable.cyclic(1), 1), "Z5": (GroupTable.cyclic(5), 4),
              "Z6": (GroupTable.cyclic(6), 2), "Z7": (GroupTable.cyclic(7), 6),
              "Z8": (GroupTable.cyclic(8), 4),
              "Z2": (Z2, 1), "Z3": (GroupTable.cyclic(3), 2), "Z4": (Z4, 2), "V4": (V4, 6),
              "S3": (GroupTable.symmetric(3), 6), "D8": (GroupTable.metacyclic(4, 2, 3), 8),
              "Q8": (quaternion_table(), 24), "Z4xZ2": (GroupTable.direct_product(Z4, Z2), 8),
              "Z2^3": (GroupTable.direct_product(V4, Z2), 168)}
    for name, (G, order) in groups.items():
        auts = automorphisms(G)
        assert auts == helpers.automorphisms(G), name
        assert len(auts) == order, name


def test_automorphisms_backtrack_over_few_generators_of_higher_order():
    S3, Z2 = GroupTable.symmetric(3), GroupTable.cyclic(2)
    S3xS3 = GroupTable.direct_product(S3, S3)
    for G in (S3xS3, GroupTable.direct_product(Z2, GroupTable.symmetric(4)),
              GroupTable.symmetric(4), GroupTable.direct_product(S3, Z2)):
        orders = [G.order_of(g) for g in range(G.n)]
        gens = rb_group._aut_generators(G, orders)
        assert len(gens) == 2 and rb_group._closure(G.table, {G.e}, gens) == set(range(G.n)), G
        assert orders[gens[0]] == max(orders), G
    assert rb_group._aut_generators(S3xS3, [S3xS3.order_of(g) for g in range(36)]) == [9, 19]
    # the group's own generating set, which decides its table, is unchanged
    assert S3xS3.gens == [1, 2, 6, 12]


def test_automorphism_group_orders_and_closure():
    S3, Z2 = GroupTable.symmetric(3), GroupTable.cyclic(2)
    S3xS3 = GroupTable.direct_product(S3, S3)
    V4 = GroupTable.direct_product(Z2, Z2)
    for G, order in ((S3xS3, 72), (GroupTable.direct_product(Z2, GroupTable.symmetric(4)), 48),
                     (GroupTable.direct_product(V4, Z2), 168),
                     (GroupTable.direct_product(V4, V4), 20160),
                     (GroupTable.metacyclic(7, 3, 2), 42), (GroupTable.cyclic(1), 1)):
        auts = automorphisms(G)
        assert len(auts) == len(set(auts)) == order, G
        assert all(sorted(phi) == list(range(G.n)) and phi[G.e] == G.e for phi in auts), G
        assert tuple(range(G.n)) in auts
    # Aut(S3xS3) is a group: closed under composition and inverses, and
    # every member respects the table
    auts = automorphisms(S3xS3)
    members, t = set(auts), S3xS3.table
    for phi in auts:
        assert all(phi[t[a][b]] == t[phi[a]][phi[b]] for a in range(36) for b in range(36))
        assert tuple(sorted(range(36), key=phi.__getitem__)) in members
        assert all(tuple(phi[x] for x in psi) in members for psi in auts)


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
    S3, S4, Z2 = GroupTable.symmetric(3), GroupTable.symmetric(4), GroupTable.cyclic(2)
    # every power star shares G's unit and is compatible with conjugation
    for G in (S3, GroupTable.metacyclic(4, 2, 3), F21, S4,
              GroupTable.direct_product(GroupTable.cyclic(4), Z2),
              GroupTable.direct_product(S3, Z2)):
        ex = G.exponent()
        for lam in range(-ex, ex + 1):
            if math.gcd(lam, ex) == 1:
                assert check_star_compat(G, power_star(G, lam)).ok, (G, lam)
    # (G, ., *) need not be a skew brace, so circ_from_rrb can skip
    # dot_circ_brace
    for G, lam, ok in ((F21, 2, False), (S4, 5, False), (S4, 11, True)):
        assert skew_brace_check(G, power_star(G, lam)).ok is ok, (G, lam)
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


def test_enumerate_cap():
    S3 = GroupTable.symmetric(3)
    with pytest.raises(CapExceeded) as exc:
        enumerate_rb(S3, 1, cap=3)
    assert exc.value.cap == 3
    assert exc.value.evaluations > 3
    # exact away from weight 1 too: the search stops at its first
    # assignment past the cap, and a cap of the whole count is enough
    for G, weight in ((GroupTable.metacyclic(7, 3, 2), 2), (GroupTable.symmetric(4), -1)):
        ops, a = rb_group._enumerate(G, weight, DEFAULT_CAP)
        assert enumerate_rb(G, weight, cap=a) == ops
        with pytest.raises(CapExceeded) as exc:
            enumerate_rb(G, weight, cap=a - 1)
        assert (exc.value.evaluations, exc.value.cap) == (a, a - 1)


def test_enumeration_rejects_a_negative_cap(capsys):
    # a negative cap is bad input, where cap 0 is hit by the first assignment
    for G in (GroupTable.symmetric(3), GroupTable.cyclic(1)):
        for cap in (-1, -5):
            with pytest.raises(ValueError, match=f"cap must be at least 0, not {cap}"):
                enumerate_rb(G, 1, cap=cap)
        with pytest.raises(CapExceeded):
            enumerate_rb(G, 1, cap=0)
    s3 = str(FIXTURES / "s3.json")
    assert cli.main(["enum-rb", "--group", s3, "--cap=-5"]) == 2
    assert capsys.readouterr().err == "error: cap must be at least 0, not -5\n"
    assert cli.main(["enum-rb", "--group", s3, "--cap=0"]) == 3


def test_search_on_decided_rows_finds_what_the_all_pairs_search_finds():
    # the same hits in the same order: serially, in every partition on the
    # first free image, from seeds that fix part of Aut(G), from seeds
    # that assign every element (operators and one-image near misses, in
    # both orders), and from seeds without (e, e), so that the first
    # decision meets no assigned point
    def fixture(name):
        return group_from_json(json.loads((FIXTURES / f"{name}.json").read_text()))

    S3, Z2 = fixture("s3"), GroupTable.cyclic(2)
    V4 = GroupTable.direct_product(Z2, Z2)
    groups = {"S3": S3, "Z4": fixture("z4"), "D8": GroupTable.metacyclic(4, 2, 3),
              "F21": fixture("f21"), "S3xZ2": GroupTable.direct_product(S3, Z2),
              "Z2^3": GroupTable.direct_product(V4, Z2),
              "S3xS3": GroupTable.direct_product(S3, S3), "S4": GroupTable.symmetric(4),
              "S3xZ4": GroupTable.direct_product(S3, GroupTable.cyclic(4)),
              "Q8": quaternion_table(), "Z4xZ2": GroupTable.direct_product(fixture("z4"), Z2),
              "D8xZ2": GroupTable.direct_product(GroupTable.metacyclic(4, 2, 3), Z2),
              "Z2^4": GroupTable.direct_product(V4, V4)}
    rng, free = random.Random(22), random.Random(1)
    for name, G in groups.items():
        first, auts = next(i for i in range(G.n) if i != G.e), automorphisms(G)
        for weight in (1, -1) + ((2, -2) if name == "F21" else ()):
            # the search runs at weight 1: a seed B(x) = v at this weight is
            # C(p(x)) = v for C = B o p^-1, and its hits C read back as C o p
            p = [G.power(g, weight) for g in range(G.n)]
            relabel = rb_group._gather(p)
            seedings = [[(G.e, G.e)]]
            if name in ("S3xS3", "F21"):
                seedings += [[(G.e, G.e), (first, v)] for v in range(G.n)]
            if name in ("Q8", "Z4xZ2", "D8xZ2", "Z2^4"):
                # an operator's image at the first free element, at the last
                # and at both, and a random image at the first
                op, last = rng.choice(enumerate_rb(G, weight)), G.n - 1
                seedings += [[(G.e, G.e), (first, op[first])], [(G.e, G.e), (last, op[last])],
                             [(G.e, G.e), (first, op[first]), (last, op[last])],
                             [(G.e, G.e), (first, rng.randrange(G.n))]]
            if name in ("S3", "D8", "F21"):
                for op in rng.sample(enumerate_rb(G, weight), 6):
                    x = rng.randrange(G.n)
                    near = op[:x] + ((op[x] + rng.randrange(1, G.n)) % G.n,) + op[x + 1:]
                    seedings += [order for B in (op, near)
                                 for order in (list(enumerate(B)), list(enumerate(B))[::-1])]
            if name in ("S3", "D8", "Z4xZ2"):
                # 1-3 points of an operator off e, 1-3 random points other
                # than (e, e), and B(e) != e, which no operator has
                op = free.choice(enumerate_rb(G, weight))
                points = [(x, v) for x in range(G.n) for v in range(G.n) if (x, v) != (G.e, G.e)]
                for _ in range(4):
                    xs = free.sample([x for x in range(G.n) if x != G.e], free.randint(1, 3))
                    seedings += [[(x, op[x]) for x in xs], free.sample(points, free.randint(1, 3))]
                moved = [(G.e, next(v for v in range(G.n) if v != G.e))]
                assert rb_group._search_partition(G, moved, DEFAULT_CAP, auts)[0] == []
                seedings.append(moved)
            for seeds in seedings:
                hits, _ = rb_group._search_partition(G, [(p[x], v) for x, v in seeds],
                                                     DEFAULT_CAP, auts)
                want = all_pairs_search(G, weight, seeds, DEFAULT_CAP)[0]
                assert sorted(map(relabel, hits)) == want, (name, weight, seeds)


def test_the_column_pass_closes_a_subgroup_and_one_point_into_their_subgroup():
    # the lemma behind _search_partition's single pass (README): for a
    # subgroup K and a point t outside it, the least set N with t in N,
    # KN in N and tN in N u K has |K| + |N| = |<K, t>|.  Checked for every
    # cyclic and 2-generated K and every t outside it; closing N under t
    # alone is not enough
    def least(G, K, t, under_k=True):
        tab, N, todo = G.table, {t}, [t]
        while todo:
            y = todo.pop()
            for z in [tab[t][y]] + ([tab[k][y] for k in K] if under_k else []):
                if z not in N and z not in K:
                    N.add(z)
                    todo.append(z)
        return N

    def pairs(G):
        """(K, t, <K, t>) per cyclic or 2-generated K and t outside it."""
        subgroups = {}
        for a, b in itertools.combinations_with_replacement(range(G.n), 2):
            subgroups.setdefault(frozenset(rb_group._closure(G.table, {G.e}, [a, b])), (a, b))
        for K, gens in subgroups.items():
            for t in set(range(G.n)) - K:
                yield K, t, rb_group._closure(G.table, {G.e}, [*gens, t])

    S3, Z2 = GroupTable.symmetric(3), GroupTable.cyclic(2)
    checked = 0
    for G in (GroupTable.symmetric(4), GroupTable.metacyclic(7, 3, 2),
              GroupTable.metacyclic(4, 2, 3), GroupTable.direct_product(S3, Z2),
              GroupTable.metacyclic(5, 4, 2)):
        for K, t, L in pairs(G):
            assert len(K) + len(least(G, K, t)) == len(L), (G, sorted(K), t)
            checked += 1
    assert checked == 1132
    # on S3 (permutations in lexicographic order), K = <(0 1)> and the
    # 3-cycle t = (1 2 0) generate S3, but closing under t alone stops at
    # {t, t^2}, and the check fails
    K, t = {0, 2}, 3
    assert least(S3, K, t) == {1, 3, 4, 5}
    assert least(S3, K, t, under_k=False) == {3, 4}
    assert not all(len(K) + len(least(S3, K, t, under_k=False)) == len(L)
                   for K, t, L in pairs(S3))


def test_every_invertible_weight_matches_the_search_at_that_weight():
    # enumerate_rb reads weight lambda through p(g) = g^lambda from the
    # weight-1 search; the all-pairs search runs on the power star of
    # lambda itself, so it checks that relabelling
    S3 = GroupTable.symmetric(3)
    groups = [S3, GroupTable.metacyclic(4, 2, 3), GroupTable.metacyclic(7, 3, 2),
              GroupTable.direct_product(GroupTable.cyclic(4), GroupTable.cyclic(2)),
              GroupTable.cyclic(9), GroupTable.symmetric(4)]
    pairs = [(G, lam) for G in groups for lam in range(-G.exponent(), G.exponent() + 1)
             if math.gcd(lam, G.exponent()) == 1]
    S3xS3 = GroupTable.direct_product(S3, S3)
    pairs += [(S3xS3, 1), (S3xS3, -1)]
    assert len(pairs) == 58
    for G, lam in pairs:
        want = all_pairs_search(G, lam, [(G.e, G.e)], DEFAULT_CAP)[0]
        assert enumerate_rb(G, lam) == want, (G, lam)


def test_serial_search_checks_each_decided_pair_once():
    # assignments, forced ones included, at weight 1: each pair of a decided
    # element and an assigned one is checked or forced in one place, and each
    # branch tries one value per orbit of its automorphisms and no value v
    # whose square x o_v x is assigned an image other than v v.  Trying every
    # value took 67,425 and 191,479 assignments; a second pass over the row
    # of each decision as well took 98,661 and 501,097; also dropping each v
    # with x o_v x = a o x for a decided a with B(a) != v took 26,407 and
    # 98,545
    S3 = GroupTable.symmetric(3)
    for G, count in ((GroupTable.direct_product(S3, S3), 29_343),
                     (GroupTable.direct_product(GroupTable.cyclic(2), GroupTable.symmetric(4)),
                      99_025)):
        assert rb_group._search_partition(G, [(G.e, G.e)], DEFAULT_CAP)[1] == count


def test_search_tries_one_value_per_stabilizer_orbit_that_its_square_keeps():
    # at the root of S3xS3 only e is decided and the search branches on
    # x = 1.  The identity at (x, x) sends x o x = x v x v^-1 to v v, so with
    # img[e] = e it refutes each v that commutes with x and has v v != e.
    # The search tries the least member of each Stab(x)-orbit of the other
    # values and nothing else: its count is 1 for (e, e) plus what each of
    # those branches counts from its seed
    S3 = GroupTable.symmetric(3)
    G = GroupTable.direct_product(S3, S3)
    t, e, x = G.table, G.e, 1
    stab = [phi for phi in automorphisms(G) if phi[x] == x]
    assert len(stab) == 12
    refuted = {v for v in range(G.n) if t[x][G.conjugate(v, x)] == e and t[v][v] != e}
    assert len(refuted) == 4
    tried = [v for v in range(G.n) if v not in refuted
             and v == min(phi[v] for phi in stab)]
    assert len(tried) < G.n - len(refuted)
    branches = [rb_group._search_partition(G, [(e, e), (x, v)], DEFAULT_CAP)[1] - 1
                for v in tried]
    assert rb_group._search_partition(G, [(e, e)], DEFAULT_CAP)[1] == 1 + sum(branches)


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
    # rows and 3*2*6 brace cases (rows a in [e, 1, 2], b in the generators);
    # circ_from_rrb's circle group (the opposite group) has the generators
    # [1, 2] as well, and one brace report stands for both
    assert S3.gens == [1, 2]
    assert count(check_group(S3.table)[1]) == 79
    assert count(check_star_compat(S3, power_star(S3, 1))) == 152
    assert count(skew_brace_check(S3, star)) == 36
    assert count(circ_from_rrb(S3, star, S3.inv)[1]) == 79 + 2 * 36
    assert count(derived_group(S3, S3.inv)[1]) == 115
