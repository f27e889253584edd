"""Cayley-table identities decided on generating sets, against full rows.

GroupTable decides associativity for middles in G.gens only, check_star_compat
the conjugations by G.gens only, and skew_brace_check the rows (a, b) at a in
[circ.e] + circ.gens and b in dot.gens or [dot.e] only.  The oracles here
take every row.  On seeded inputs a failing report must have the oracle's
status, identity, witness and count, and a passing one must be matched by a
passing oracle (see agree)."""

import random
from math import gcd

from hopfrb.rb_group import (GroupTable, check_group, check_star_compat, circ_from_rrb,
                             enumerate_rb, power_star, skew_brace_check)
from hopfrb.report import VerificationReport, first_failure, merge_reports

from helpers import transport_group


def group_oracle(table) -> VerificationReport:
    """The group check over every associativity triple, case by case:
    identity and inverses first, with the count of deciding associativity
    first."""
    t = tuple(tuple(row) for row in table)
    n = len(t)
    cols = tuple(zip(*t))
    ident = tuple(range(n))
    e = next((c for c in range(n) if t[c] == ident and cols[c] == ident), None)

    def cases():
        yield ("identity",), "identity element" if e is not None else "no two-sided identity", \
            "identity element"
        for g in range(n):
            inverse = f"inverse of {g}"
            has = (e, e) in zip(t[g], cols[g])
            yield ("inverses", g), inverse if has else "no inverse", inverse

    rep = first_failure("group", cases())
    assoc = first_failure("group", ((("associativity", a, b, c), t[t[a][b]][c], t[a][t[b][c]])
                                    for a in range(n) for b in range(n) for c in range(n)))
    if rep.ok and not assoc.ok:
        return assoc
    rep.stats["identities_checked"] += assoc.stats["identities_checked"]
    return rep


def star_compat_oracle(G: GroupTable, star: GroupTable) -> VerificationReport:
    """check_star_compat with the conjugation by every g."""
    t, inv, st = G.table, G.inv, star.table

    def cases():
        for g in range(G.n):
            conj = [t[t[g][x]][inv[g]] for x in range(G.n)]
            for h1 in range(G.n):
                for h2 in range(G.n):
                    yield (g, h1, h2), conj[st[h1][h2]], st[conj[h1]][conj[h2]]

    return merge_reports({
        "group_axioms": star.axioms,
        "shared_unit": first_failure("shared_unit", [((), star.e, G.e)]),
        "conjugation_compatible": first_failure("conjugation_compatible", cases()),
    })


def skew_brace_oracle(dot: GroupTable, circ: GroupTable) -> VerificationReport:
    """The skew brace identity on every row (a, b), case by case."""
    d, ct, inv, n = dot.table, circ.table, dot.inv, dot.n
    return first_failure("skew_brace", (
        ((a, b, c), ct[a][d[b][c]], d[d[ct[a][b]][inv[a]]][ct[a][c]])
        for a in range(n) for b in range(n) for c in range(n)))


def agree(rep: VerificationReport, oracle: VerificationReport, where) -> bool:
    """A passing report has a passing oracle.  A failing one has the
    oracle's status, identity and witness, and its count when it is one
    identity; a merged report has the oracle's part verdicts, and each
    failing part is the oracle's part (its count included).  A passing part
    of a failing merged report counts the cases it decided, which may be
    fewer than the oracle's."""
    if rep.ok:
        assert oracle.ok, where
        return True
    assert (rep.status, rep.identity, rep.witness) == (
        oracle.status, oracle.identity, oracle.witness), where
    if not rep.details:
        assert rep.stats == oracle.stats, where
    assert {k: d["status"] for k, d in rep.details.items()} == {
        k: d["status"] for k, d in oracle.details.items()}, where
    for k, d in rep.details.items():
        if d["status"] == "fail":
            assert d == oracle.details[k], (where, k)
    return False


def groups() -> dict:
    S3, Z2 = GroupTable.symmetric(3), GroupTable.cyclic(2)
    return {"S3": S3, "D8": GroupTable.metacyclic(4, 2, 3),
            "Z2^3": GroupTable.direct_product(GroupTable.direct_product(Z2, Z2), Z2),
            "F21": GroupTable.metacyclic(7, 3, 2),
            "S3xS3": GroupTable.direct_product(S3, S3)}


def test_generating_sets():
    gens = {name: G.gens for name, G in groups().items()}
    assert gens == {"S3": [1, 2], "D8": [1, 2], "Z2^3": [1, 2, 4], "F21": [1, 3],
                    "S3xS3": [1, 2, 6, 12]}
    Z2xS4 = GroupTable.direct_product(GroupTable.cyclic(2), GroupTable.symmetric(4))
    assert Z2xS4.gens == [1, 2, 6, 24]
    assert GroupTable.cyclic(1).gens == []


def test_group_table_matches_the_full_row_oracle_on_corrupted_tables():
    rng = random.Random(12)
    failed = {"identity": 0, "inverses": 0, "associativity": 0}
    for name, G in groups().items():
        rep = check_group(G.table)[1]
        assert agree(rep, group_oracle(G.table), name)
        n = G.n
        assert rep.stats["identities_checked"] == 1 + n + len(G.gens) * n * n
        for _ in range(30):
            t = [list(row) for row in G.table]
            a, b = rng.randrange(n), rng.randrange(n)
            t[a][b] = rng.choice([v for v in range(n) if v != t[a][b]])
            H, rep = check_group(t)
            assert not agree(rep, group_oracle(t), (name, a, b)) and H is None
            failed[rep.identity] += 1
    # every kind of failure, associativity among them when e and the
    # inverses survive the change, so that the generator pass fails first
    assert min(failed.values()) > 5, failed


def transports(G: GroupTable, rng: random.Random) -> list:
    """Groups on G's carrier: seeded transports that fix e or move it, and
    transports by inner automorphisms and power maps, which keep the
    conjugation compatibility."""
    n = G.n
    out = []
    for _ in range(4):
        rest = [g for g in range(n) if g != G.e]
        rng.shuffle(rest)
        perm = rest[:G.e] + [G.e] + rest[G.e:]
        out.append(transport_group(G, perm))
        out.append(transport_group(G, rng.sample(range(n), n)))
    g = rng.randrange(n)
    out.append(transport_group(G, [G.conjugate(g, x) for x in range(n)]))
    ex = G.exponent()
    lam = next(k for k in range(2, ex + 2) if gcd(k, ex) == 1)
    out.append(transport_group(G, [G.power(x, lam) for x in range(n)]))
    return out


def test_star_compat_and_brace_match_the_full_row_oracles_on_transports():
    rng = random.Random(7)
    verdicts = {"compat": [], "brace": []}
    pairs = [(name, G, star) for name, G in groups().items() for star in transports(G, rng)]
    # S3xS3 moved along its first factor only: conjugation by the generators
    # 1 and 2 of the second factor stays compatible, by 6 and 12 it need not
    G = groups()["S3xS3"]
    for _ in range(3):
        sigma = [0] + rng.sample(range(1, 6), 5)
        pairs.append(("S3xS3", G, transport_group(G, [sigma[x // 6] * 6 + x % 6
                                                      for x in range(36)])))
    for name, G, star in pairs:
        where = (name, star.table[1])
        verdicts["compat"].append(
            agree(check_star_compat(G, star), star_compat_oracle(G, star), where))
        for dot, circ in ((G, star), (star, G)):
            verdicts["brace"].append(
                agree(skew_brace_check(dot, circ), skew_brace_oracle(dot, circ), where))
    for kind, oks in verdicts.items():
        assert 5 <= sum(oks) <= len(oks) - 10, (kind, sum(oks), len(oks))


def test_brace_matches_the_full_row_oracle_on_circle_groups():
    # the braces that enum-rb decides: (G, *, circ) passes, and (G, ., circ)
    # or (circ, ., G) may fail
    verdicts = []
    for G, lam in ((GroupTable.symmetric(3), 1), (GroupTable.symmetric(3), -1),
                   (GroupTable.metacyclic(4, 2, 3), 1), (GroupTable.metacyclic(7, 3, 2), 2)):
        star = power_star(G, lam)
        for B in enumerate_rb(G, lam)[:12]:
            circ, rep = circ_from_rrb(G, star, B)
            assert rep.details["star_circ_brace"]["status"] == "pass"
            for dot, other in ((star, circ), (G, circ), (circ, G)):
                verdicts.append(agree(skew_brace_check(dot, other),
                                      skew_brace_oracle(dot, other), (G, lam, B)))
    assert 20 < sum(verdicts) < len(verdicts) - 10, (sum(verdicts), len(verdicts))


def test_brace_on_circle_generators_matches_the_full_row_oracle():
    # skew_brace_check decides rows at a in [circ.e] + circ.gens only, on the
    # pairs enum-rb decides: (G, *, circ) and (G, ., circ) for every operator
    rng = random.Random(30)
    G = groups()
    plan = [(G[name], lam) for name in ("S3", "D8", "Z2^3") for lam in (1, -1)]
    plan += [(G["F21"], lam) for lam in (1, -1, 2)]
    cases = [(H, lam, B) for H, lam in plan for B in enumerate_rb(H, lam)]
    S3xS3 = G["S3xS3"]
    cases += rng.sample([(S3xS3, lam, B) for lam in (1, -1) for B in enumerate_rb(S3xS3, lam)],
                        50)
    oracles = {}

    def oracle(dot, circ):
        key = dot.table, circ.table
        if key not in oracles:
            oracles[key] = skew_brace_oracle(dot, circ)
        return oracles[key]

    verdicts, relabelled = [], []
    for H, lam, B in cases:
        star = power_star(H, lam)
        circ = circ_from_rrb(H, star, B)[0]
        for dot in (star, H):
            verdicts.append(agree(skew_brace_check(dot, circ), oracle(dot, circ), (H, lam, B)))
        # circ^s(a, b) = s^-1(s a circ s b): a group on the carrier that is
        # mostly no brace with either operation
        if rng.random() < 0.1:
            sigma = rng.sample(range(H.n), H.n)
            moved = transport_group(circ, sigma)
            for dot in (star, H):
                rep = skew_brace_check(dot, moved)
                if not agree(rep, skew_brace_oracle(dot, moved), (H, lam, B, sigma)):
                    a, b, _ = rep.witness["indices"]
                    relabelled.append((a in [moved.e] + moved.gens, b in dot.gens))
    assert len(oracles) < len(verdicts) and sum(verdicts) > len(verdicts) // 2
    # The first failing a is always one of the reduced rows: the a whose rows
    # hold form a subgroup of (G, circ), so the least a outside it is not in
    # the circ-closure of the generators picked before it.  Its first failing
    # b need not be, and then only the rerun over every row gives the witness.
    assert len(relabelled) > 20 and all(a for a, _ in relabelled)
    assert not all(b for _, b in relabelled)
