"""Rota-Baxter operators on finite groups, given by Cayley tables.

Groups are index tables (elements 0..n-1); operators are image tuples.
Every Rota-Baxter identity here is one relative identity
B(h1)B(h2) = B(h1 Psi_{B(h1)}(h2)), for B from a group H to a group G
acting on H by automorphisms Psi.  An operator of weight lambda on G is a
relative operator on (G_lambda, G, conjugation), with G_lambda the power
star g*h = (g^lambda h^lambda)^mu, lambda*mu = 1 modulo the group exponent:
G itself at weight 1 and its opposite at weight -1; G keeps each it builds.
_relative_rows forms the argument rows of that identity for the checks and
the search, and _descendent_group the derived and circle groups on them.
Enumeration is a depth-first search over images with constraint
propagation through those rows, which checks only the rows of decided
elements (see _search_partition); the cap bounds its image assignments,
forced ones included, and CapExceeded reports going past it.

The Rota-Baxter identities, associativity, conjugation compatibility and
the skew brace identity go a row at a time: _gather builds a C-level
operator.itemgetter over one table row, both sides of a row of cases become
tuples, and report.first_row_failure compares them whole.  The last three
are decided on rows at a generating set (GroupTable.gens); a failure there
reruns every row.  The identity and inverse axioms, GroupAction.check and
the lemma parts go case by case.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from math import gcd, lcm
from operator import itemgetter

from .hopf_core import LinearMap
from .report import (VerificationReport, decide_on, first_failure, first_row_failure,
                     merge_reports)
from .scalars import _json_shape

DEFAULT_CAP = 10 ** 8
# the --jobs pools start their workers by spawn: a fork copies one thread of
# a process that may run others (a pool's own), and the child can deadlock
_SPAWN = multiprocessing.get_context("spawn")


class CapExceeded(RuntimeError):
    def __init__(self, evaluations: int, cap: int):
        super().__init__(f"enumeration budget exhausted: {evaluations} evaluations > cap {cap}")
        self.evaluations = evaluations
        self.cap = cap

    def __reduce__(self):
        # a worker process hands the exception back pickled
        return CapExceeded, (self.evaluations, self.cap)


def pool_size(jobs: int, tasks: int) -> int:
    """The worker processes for --jobs over this many tasks: never more than
    the tasks or the cores.  ValueError for jobs < 1."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    # os.cpu_count reads the system's cpu list, which a serial search skips
    return 1 if jobs == 1 else min(jobs, tasks, os.cpu_count() or 1)


def _gather(row):
    """seq -> tuple(seq[i] for i in row), as operator.itemgetter(*row).

    itemgetter with one index returns a bare item, so a one-entry row (the
    trivial group) gets a getter that still returns a tuple.
    """
    if len(row) == 1:
        i = row[0]
        return lambda seq: (seq[i],)
    return itemgetter(*row)


def _int_rows(rows, count: int, width: int, bound: int, what: str, shape: str) -> tuple:
    """rows as a tuple of row tuples; ValueError unless count rows of width
    integers in range(bound).  Errors name the rows what and their sizes shape."""
    t = tuple(map(tuple, rows))
    if len(t) != count or any(len(row) != width for row in t):
        raise ValueError(f"{what} shape does not match {shape}")
    for row in t:
        if not set(map(type, row)) <= {int}:
            raise ValueError(f"{what} entries must be integers")
        if min(row) < 0 or max(row) >= bound:
            raise ValueError(f"{what} entries are out of range")
    return t


def _associativity_rows(t, middles):
    """Rows of (ab)c = a(bc) for b in middles: row ("associativity", a, b)
    runs over c."""
    gets = [(b, _gather(t[b])) for b in middles]
    return ((("associativity", a, b), t[ta[b]], get(ta))
            for a, ta in enumerate(t) for b, get in gets)


def _generators(t, e: int) -> list[int]:
    """Elements S, picked in index order, such that the closure of e under
    right multiplication by S is every element: s is picked when it lies
    outside the closure so far, and then joins it as e s."""
    gens: list[int] = []
    reached = {e}
    for s in range(len(t)):
        if s not in reached:
            gens.append(s)
            new = reached
            while new:
                new = {t[x][g] for x in new for g in gens} - reached
                reached |= new
    return gens


class _ConjugationRows(dict):
    """rows[v][h] = v h v^-1 for a group table, each row built when first read."""

    __slots__ = ("table", "inv")

    def __init__(self, table, inv):
        super().__init__()
        self.table, self.inv = table, inv

    def __missing__(self, v):
        t, vinv = self.table, self.inv[v]
        self[v] = row = tuple(t[x][vinv] for x in t[v])
        return row


class _NotAGroup(ValueError):
    """A square table that fails a group axiom; report is check_group's."""

    def __init__(self, report: VerificationReport):
        text = {"identity": "no two-sided identity element",
                "inverses": "element {} has no inverse",
                "associativity": "associativity fails at ({},{},{})"}[report.identity]
        super().__init__(text.format(*report.witness["indices"]))
        self.report = report


class GroupTable:
    """A finite group as a validated Cayley table.

    The constructor decides the axioms (see check_group), keeps the report
    as axioms and the generating set that decided associativity as gens,
    and raises ValueError if one fails.  _conj, the conjugation rows, _stars,
    circ_from_rrb's facts per star, and _powers, the power tables, fill lazily.
    """

    __slots__ = ("n", "table", "e", "inv", "name", "axioms", "gens", "_conj", "_stars", "_powers")

    def __init__(self, table, name: str = ""):
        self.n = n = len(table)
        self.table = t = _int_rows(table, n, n, n, "table", "its row count")
        self.name = name
        cols = tuple(zip(*t))
        ident = tuple(range(n))
        self.e = e = next((c for c in range(n) if t[c] == ident and cols[c] == ident), None)
        inv = []

        def cases():
            found = "no two-sided identity" if e is None else "identity element"
            yield ("identity",), found, "identity element"
            for g in range(n):
                pairs = list(zip(t[g], cols[g]))
                has = (e, e) in pairs
                if has:  # the inverse is the first h with gh = hg = e
                    inv.append(pairs.index((e, e)))
                inverse = f"inverse of {g}"
                yield ("inverses", g), inverse if has else "no inverse", inverse

        # The n^2 checks run first, so a table that also fails associativity
        # is named by them. The count is that of deciding associativity first.
        # With a two-sided identity the middles b at which (ab)c = a(bc) holds
        # for every a and c hold e and are closed under products, and e times
        # products of gens is every element, so middles from gens decide every
        # triple (Light's associativity test).
        rep = first_failure("group", cases())
        self.gens = _generators(t, e) if rep.ok else None
        assoc = decide_on(first_row_failure, "group",
                          lambda middles: _associativity_rows(t, middles), self.gens, n)
        if rep.ok and not assoc.ok:
            rep = assoc
        else:
            rep.stats["identities_checked"] += assoc.stats["identities_checked"]
        self.inv = tuple(inv)
        self.axioms = rep
        if not rep.ok:
            raise _NotAGroup(rep)
        self._conj, self._stars, self._powers = _ConjugationRows(t, self.inv), {}, {1: t}

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def conjugate(self, g: int, h: int) -> int:
        return self.table[self.table[g][h]][self.inv[g]]

    def commutator(self, a: int, b: int) -> int:
        # [a, b] = a^-1 b^-1 a b
        return self.table[self.table[self.table[self.inv[a]][self.inv[b]]][a]][b]

    def power(self, g: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv[g], -k)
        out = self.e
        base = g
        while k:
            if k & 1:
                out = self.table[out][base]
            base = self.table[base][base]
            k >>= 1
        return out

    def order_of(self, g: int) -> int:
        k, acc = 1, g
        while acc != self.e:
            acc = self.table[acc][g]
            k += 1
        return k

    def exponent(self) -> int:
        return lcm(*(self.order_of(g) for g in range(self.n)))

    # -- constructors

    @classmethod
    def cyclic(cls, n: int) -> "GroupTable":
        return cls([[(a + b) % n for b in range(n)] for a in range(n)], name=f"Z{n}")

    @classmethod
    def direct_product(cls, A: "GroupTable", B: "GroupTable") -> "GroupTable":
        n, m = A.n, B.n
        table = [[0] * (n * m) for _ in range(n * m)]
        for a1 in range(n):
            for b1 in range(m):
                for a2 in range(n):
                    for b2 in range(m):
                        table[a1 * m + b1][a2 * m + b2] = A.table[a1][a2] * m + B.table[b1][b2]
        return cls(table, name=f"{A.name}x{B.name}")

    @classmethod
    def symmetric(cls, n: int) -> "GroupTable":
        """S_n with elements the permutations of range(n) in lexicographic order."""
        perms = list(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        table = [[index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms]
        return cls(table, name=f"S{n}")

    @classmethod
    def metacyclic(cls, m: int, n: int, r: int) -> "GroupTable":
        """Z/m semidirect Z/n with b a b^-1 = a^r; elements a^i b^j at index i*n + j."""
        if pow(r, n, m) != 1 % m:
            raise ValueError(f"r^n = {r}^{n} is not 1 mod {m}")
        table = [[0] * (m * n) for _ in range(m * n)]
        for i1 in range(m):
            for j1 in range(n):
                for i2 in range(m):
                    for j2 in range(n):
                        i = (i1 + i2 * pow(r, j1, m)) % m
                        table[i1 * n + j1][i2 * n + j2] = i * n + (j1 + j2) % n
        return cls(table, name=f"Z{m}:Z{n}")

    def __repr__(self):
        return f"GroupTable({self.name or 'order ' + str(self.n)})"

    def to_json(self) -> dict:
        return {"name": self.name, "order": self.n,
                "table": [list(r) for r in self.table], "identity": self.e}


def group_from_json(obj: dict) -> GroupTable:
    _json_shape(obj, "group", dict, {"table": list}, {"name": str, "order": int, "identity": int})
    G = GroupTable([_json_shape(row, "table row", list) for row in obj["table"]],
                   name=obj.get("name", ""))
    if obj.get("order", G.n) != G.n:
        raise ValueError("declared order does not match table size")
    if obj.get("identity", G.e) != G.e:
        raise ValueError("declared identity does not match table")
    return G


def check_group(table, name: str = "") -> tuple[GroupTable | None, VerificationReport]:
    """Decide the group axioms of a square table: (the group, report) when
    they hold, (None, report) when one fails.

    The report is identity "group" over the cases associativity (a, b, c),
    the identity element and the inverse of each g; its witness names the
    first failing one, but a failing identity or inverse is named before
    associativity. ValueError unless the table is square with int entries
    in range.
    """
    try:
        G = GroupTable(table, name)
    except _NotAGroup as e:
        return None, e.report
    return G, G.axioms


class GroupAction:
    """Action of G on H: maps[g] is the permutation of H's elements."""

    __slots__ = ("maps",)

    def __init__(self, maps):
        self.maps = tuple(tuple(m) for m in maps)

    def apply(self, g: int, h: int) -> int:
        return self.maps[g][h]

    @classmethod
    def conjugation(cls, G: GroupTable) -> "GroupAction":
        return cls([G._conj[v] for v in range(G.n)])

    @classmethod
    def trivial(cls, H: GroupTable, G: GroupTable) -> "GroupAction":
        return cls([list(range(H.n)) for _ in range(G.n)])

    def check(self, H: GroupTable, G: GroupTable) -> VerificationReport:
        maps, t = _int_rows(self.maps, G.n, H.n, H.n, "action", "group orders"), H.table
        ident = list(range(H.n))
        perm = "a permutation"
        bijective = (((g,), perm if sorted(m) == ident else list(m), perm)
                     for g, m in enumerate(maps))
        automorphism = (((g, a, b), m[t[a][b]], t[m[a]][m[b]])
                        for g, m in enumerate(maps) for a in range(H.n) for b in range(H.n))
        homomorphism = (((g1, g2), list(maps[G.table[g1][g2]]), [maps[g1][x] for x in maps[g2]])
                        for g1 in range(G.n) for g2 in range(G.n))
        return merge_reports({
            "unit_acts_trivially": first_failure(
                "unit_acts_trivially", [((G.e,), list(maps[G.e]), ident)]),
            "bijective": first_failure("bijective", bijective),
            "automorphism": first_failure("automorphism", automorphism),
            "action_homomorphism": first_failure("action_homomorphism", homomorphism),
        })


def _validate_map(G: GroupTable, B, codomain: GroupTable | None = None) -> tuple:
    return _int_rows((B,), 1, G.n, (codomain or G).n, "operator map", "group order")[0]


# ---------------------------------------------------------------------------
# RB identities


def _relative_rows(table, maps):
    """row(h, v): the tuple over h2 of h Psi_v(h2), for table the Cayley
    table of H and maps[v] the permutation Psi_v of H.

    With v = B(h) that is the argument whose image must be B(h)B(h2) in the
    relative identity B(h)B(h2) = B(h Psi_{B(h)}(h2)).  maps[v] is read when
    v first comes up, so a check reads only the maps at the images it reaches.
    """
    gets = {}

    def row(h, v):
        if v not in gets:
            gets[v] = _gather(maps[v])
        return gets[v](table[h])
    return row


def _relative_identity(table, maps, B: tuple, cod, identity: str) -> tuple:
    """The relative identity of B into the group with table cod, row h over
    h2: the report and the rows row(h, B(h)) formed for it, every row when
    the report passes."""
    row, get_b, rows = _relative_rows(table, maps), _gather(B), []

    def cases():
        for h, v in enumerate(B):
            rows.append(row(h, v))
            yield (h,), get_b(cod[v]), _gather(rows[-1])(B)

    return first_row_failure(identity, cases()), rows


def _rb_weight(G: GroupTable, B: tuple, lam: int, identity: str) -> VerificationReport:
    """The weight-lam identity of a validated map B: the relative identity
    on (G_lam, G, conjugation)."""
    return _relative_identity(_power_table(G, lam), G._conj, B, G.table, identity)[0]


def check_rb(G: GroupTable, B, weight: int) -> VerificationReport:
    """Weight +1 or -1 Rota-Baxter identity over all pairs."""
    B = _validate_map(G, B)
    if weight not in (1, -1):
        raise ValueError("weight must be +1 or -1; use check_rb_lambda for general weights")
    return _rb_weight(G, B, weight, f"rb_weight_{weight}")


def ker_indices(G: GroupTable, B) -> list[int]:
    return [g for g in range(G.n) if B[g] == G.e]


def image_indices(G: GroupTable, B) -> list[int]:
    return sorted(set(B))


def is_subgroup(G: GroupTable, elems) -> bool:
    s = set(elems)
    if G.e not in s:
        return False
    get = _gather(sorted(s))
    return s.issuperset(get(G.inv)) and all(s.issuperset(get(G.table[a])) for a in s)


def _lemma_parts(G: GroupTable, B: tuple) -> VerificationReport:
    """lemma_checks on a validated map B already known to pass the weight-1
    identity."""
    t, inv, n = G.table, G.inv, G.n
    ker = ker_indices(G, B)
    image = image_indices(G, B)
    return merge_reports({
        "b_of_identity": first_failure("b_of_identity", [((G.e,), B[G.e], G.e)]),
        "b_inverse_pairing": first_failure(
            "b_inverse_pairing", (((g,), t[B[g]][B[inv[g]]], B[G.commutator(inv[g], inv[B[g]])])
                                  for g in range(n))),
        "b_iteration": first_failure(
            "b_iteration", (((g,), t[B[g]][B[B[g]]], B[t[g][B[g]]]) for g in range(n))),
        "kernel_translation": first_failure(
            "kernel_translation", (((g, h), B[h], B[t[g][h]]) for g in ker for h in range(n))),
        "b_of_twisted_inverse": first_failure(
            "b_of_twisted_inverse", (((g,), inv[B[g]], B[t[t[inv[B[g]]][inv[g]]][B[g]]])
                                     for g in range(n))),
        "kernel_subgroup": first_failure(
            "kernel_subgroup", [((), "a subgroup" if is_subgroup(G, ker) else ker, "a subgroup")]),
        "image_subgroup": first_failure(
            "image_subgroup", [((), "a subgroup" if is_subgroup(G, image) else image,
                                "a subgroup")]),
    })


def _descendent_group(G: GroupTable, table, B: tuple, identity: str) -> tuple:
    """The relative identity of a validated B on (table, conjugation) into G,
    and the descendent group G* on its rows, or None when it fails.  That is
    a group when conjugation acts on table by automorphisms; GroupTable still
    decides its axioms."""
    rep, rows = _relative_identity(table, G._conj, B, G.table, identity)
    return rep, GroupTable(rows, (G.name + "*") if G.name else "star") if rep.ok else None


def _derived_parts(Gstar: GroupTable, B: tuple) -> VerificationReport:
    """derived_group's report on Gstar, the derived group of B."""
    return merge_reports({"group_axioms": Gstar.axioms,
                          "rb_on_star": _rb_weight(Gstar, B, 1, "rb_weight_1")})


def _group_rb_report(G: GroupTable, B, weight: int) -> VerificationReport:
    """check-group-rb's report on a map: the identity of the weight as "rb",
    and at weight 1, when it passes, "lemma" and "derived_group" on its rows."""
    B = _validate_map(G, B)
    if weight != 1:
        identity = "rb_weight_-1" if weight == -1 else "rb_weight_lambda"
        return merge_reports({"rb": _rb_weight(G, B, weight, identity)})
    rb, Gstar = _descendent_group(G, G.table, B, "rb_weight_1")
    if not rb.ok:
        return merge_reports({"rb": rb})
    return merge_reports({"rb": rb, "lemma": _lemma_parts(G, B),
                          "derived_group": _derived_parts(Gstar, B)})


def lemma_checks(G: GroupTable, B) -> VerificationReport:
    """The elementary consequences of the weight-1 identity, plus the
    subgroup property of kernel and image."""
    B = _validate_map(G, B)
    if not _rb_weight(G, B, 1, "rb_weight_1").ok:
        raise ValueError("lemma_checks requires a verified weight-1 operator")
    return _lemma_parts(G, B)


def derived_group(G: GroupTable, B) -> tuple[GroupTable, VerificationReport]:
    """The star operation g*h = gB(g)hB(g)^-1: a group on which B is again
    Rota-Baxter, with B a homomorphism back to (G, .).  That B(g*h) = B(g)B(h)
    is the weight-1 identity itself, so the precondition already decides it.
    On G's own table this is the circle operation of circ_from_rrb.
    """
    B = _validate_map(G, B)
    rb, Gstar = _descendent_group(G, G.table, B, "rb_weight_1")
    if not rb.ok:
        raise ValueError("derived_group requires a verified weight-1 operator")
    return Gstar, _derived_parts(Gstar, B)


def relative_rb_check(H: GroupTable, G: GroupTable, psi: GroupAction, B) -> VerificationReport:
    """B(h1)B(h2) = B(h1 . Psi_{B(h1)}(h2)) over all pairs of H."""
    act = psi.check(H, G)
    if not act.ok:
        raise ValueError(f"invalid action: {act.identity} witness {act.witness}")
    B = _validate_map(H, B, codomain=G)
    return _relative_identity(H.table, psi.maps, B, G.table, "relative_rb")[0]


# ---------------------------------------------------------------------------
# weight lambda


def _lambda_root(G: GroupTable, lam: int) -> int:
    """mu with lam*mu = 1 modulo exp(G); ValueError when lam is not invertible."""
    if lam == 0:
        raise ValueError("weight 0 has no root map")
    ex = G.exponent()
    if gcd(lam % ex, ex) != 1:
        raise ValueError(f"lambda = {lam} is not invertible modulo exp(G) = {ex}")
    return pow(lam % ex, -1, ex)


def _power_table(G: GroupTable, lam: int) -> tuple:
    """The table of g*h = (g^lam h^lam)^mu, kept on G from G's own at
    lam = 1.  Any other weight, -1 included, is built once with
    _lambda_root's errors: row g is the row kernel on the table (xy)^mu and
    the one map y -> y^lam, at x = g^lam."""
    table = G._powers.get(lam)
    if table is None:
        mu = _lambda_root(G, lam)
        plam = [G.power(g, lam) for g in range(G.n)]
        pmu = [G.power(x, mu) for x in range(G.n)]
        row = _relative_rows([_gather(r)(pmu) for r in G.table], [plam])
        table = G._powers[lam] = tuple(row(x, 0) for x in plam)
    return table


def power_star(G: GroupTable, lam: int) -> GroupTable:
    """g*h = (g^lam h^lam)^mu, the lambda-transported operation."""
    return GroupTable(_power_table(G, lam))


def _same_order(G: GroupTable, H: GroupTable) -> None:
    if G.n != H.n:
        raise ValueError(f"groups of different orders: {G.n} and {H.n}")


def check_star_compat(G: GroupTable, star: GroupTable) -> VerificationReport:
    """star, a group on G's carrier, shares G's unit, and conjugation by the
    original operation distributes over it; its group axioms are the report
    kept when star was built.  ValueError unless the orders agree.

    The g whose conjugation is a star-homomorphism hold e and are closed
    under products, so g in G.gens decides every g.
    """
    _same_order(G, star)
    conj, star_gets = G._conj, [_gather(row) for row in star.table]
    row = _relative_rows(star.table, conj)

    def conjugation_rows(gs):
        # row (g, h1) runs over h2: g(h1*h2)g^-1 = (g h1 g^-1)*(g h2 g^-1)
        for g in gs:
            c = conj[g]
            for h1 in range(G.n):
                yield (g, h1), star_gets[h1](c), row(c[h1], g)

    return merge_reports({
        "group_axioms": star.axioms,
        "shared_unit": first_failure("shared_unit", [((), star.e, G.e)]),
        "conjugation_compatible": decide_on(first_row_failure, "conjugation_compatible",
                                            conjugation_rows, G.gens, G.n),
    })


def check_rb_lambda(G: GroupTable, B, lam: int) -> VerificationReport:
    """B(g)B(h) = B((g^lam B(g) h^lam B(g)^-1)^mu) over all pairs."""
    B = _validate_map(G, B)
    return _rb_weight(G, B, lam, "rb_weight_lambda")


def skew_brace_check(dot: GroupTable, circ: GroupTable) -> VerificationReport:
    """a circ (b dot c) = (a circ b) dot a^- dot (a circ c), a^- the dot-inverse.

    With l_a(b) = a^- dot (a circ b) the identity is l_a(bc) = l_a(b)l_a(c).
    Row (a, e) holds iff a circ e = a, and then the b whose row holds are
    closed under products; the row at any b implies a circ e = a (take
    c = e), so rows at b in dot.gens decide every row, and the row at e
    alone does when dot.gens is empty.  ValueError unless the orders agree.
    """
    _same_order(dot, circ)
    n, d, ct, inv = dot.n, dot.table, circ.table, dot.inv
    dot_gets = [_gather(row) for row in d]

    def rows(bs):
        # row (a, b) runs over c
        for a in range(n):
            ca, ainv = ct[a], inv[a]
            get_ca = _gather(ca)
            for b in bs:
                yield (a, b), dot_gets[b](ca), get_ca(d[d[ca[b]][ainv]])

    return decide_on(first_row_failure, "skew_brace", rows, dot.gens or [dot.e], n)


def circ_from_rrb(G: GroupTable, star: GroupTable, B) -> tuple[GroupTable, VerificationReport]:
    """g1 circ g2 = g1 * B(g1) g2 B(g1)^-1 with conjugation in (G, .).

    Verifies: circ is a group; (G, *, circ) is a skew brace; and when
    (G, ., *) is itself a skew brace, so is (G, ., circ).  The facts
    check_star_compat(G, star) and, when it passes, skew_brace_check(G, star)
    are decided on the first call with star and kept on G.  When star has
    G's own table (weight 1) the two braces are one identity on the same
    tables, so one report stands for both.
    """
    B = _validate_map(G, B)
    if star not in G._stars:
        pre = check_star_compat(G, star)
        G._stars[star] = pre, skew_brace_check(G, star) if pre.ok else None
    pre, dot_star_brace = G._stars[star]
    if not pre.ok:
        raise ValueError(f"star precondition fails: {pre.identity} witness {pre.witness}")
    star_rb, circ = _descendent_group(G, star.table, B, "star_rb")
    if not star_rb.ok:
        w = star_rb.witness
        g1, g2 = w["indices"]
        raise ValueError(f"B does not satisfy the star RB identity at ({g1},{g2}):"
                         f" {w['lhs']} != {w['rhs']}")
    parts = {"circ_group": circ.axioms,
             "star_circ_brace": skew_brace_check(star, circ)}
    if star.table == G.table:
        parts["dot_circ_brace"] = parts["star_circ_brace"]
    elif dot_star_brace.ok:
        parts["dot_circ_brace"] = skew_brace_check(G, circ)
    else:
        # only meaningful when (G, ., *) is itself a skew brace
        parts["dot_circ_brace"] = VerificationReport.passing(skipped=1)
    return circ, merge_reports(parts)


# ---------------------------------------------------------------------------
# enumeration


def _search_partition(G: GroupTable, weight: int, seeds, cap: int):
    """DFS over operator images of the group G with constraint propagation.

    seeds is a list of (index, value) preassignments. Returns (hits, count)
    where count is the number of image assignments performed, forced ones
    included. Write a o s = a * Psi_{B(a)}(s) for the power star * of the
    weight and Psi conjugation, so that the identity reads
    B(a o s) = B(a)B(s); it forces an image whenever a and s are assigned,
    so the tree collapses quickly, and candidates with B(e) != e never
    appear.  The identity is checked only at pairs (a, s) with a in the
    set A of decided elements (the seeds and the branch choices): by
    assign's column pass when s is assigned from the decision of a on, and
    by the leaf pass, at a leaf, when s was assigned before it.

    Lemma: let S be closed under a o . for every a in A, with
    B(a o s) = B(a)B(s) for a in A and s in S.  Then S is closed under o
    and the identity holds on all of S x S.  Proof: let T be the x in S
    whose whole row holds on S; A lies in T.  Every other element of S was
    forced as a o s, with a in A and s assigned earlier.  Psi_{B(a)} is a
    *-automorphism and Psi a homomorphism, so (a o s) o y = a o (s o y),
    and B((a o s) o y) = B(a)B(s)B(y) = B(a o s)B(y); induction on the
    order of assignment gives S in T.  Every check is an instance of the
    identity, so no operator with the seeded images is pruned and each
    image forced on its path is its own; at a leaf the two passes have
    checked A x G, so the lemma with S = G makes it an operator.  So the
    hits are exactly those operators, in lexicographic order, as each
    branch decides the least unassigned element at its images in order.
    The DFS runs on an explicit stack: a recursive closure would refer to
    itself and keep every search's tables alive until a full GC pass.
    """
    n, t = G.n, G.table
    row = _relative_rows(_power_table(G, weight), G._conj)
    arg = [[row(g, v) for v in range(n)] for g in range(n)]
    img = [-1] * n
    order: list[int] = []
    rows: list[tuple] = []  # (arg[a][B(a)], t[B(a)], len(order) before a) per decided a
    count = 0

    def assign(x: int, v: int) -> bool:
        """Decide B(x) = v and propagate; False on a contradiction.  The
        column pass: each element from x on is checked or forced in its
        column under every decided element, x included."""
        nonlocal count
        count += 1
        if count > cap:
            raise CapExceeded(count, cap)
        img[x] = v
        qi = len(order)
        order.append(x)
        rows.append((arg[x][v], t[v], qi))
        while qi < len(order):
            s = order[qi]
            vs = img[s]
            for arg_a, ta, _ in rows:
                k, rhs = arg_a[s], ta[vs]
                cur = img[k]
                if cur == -1:
                    count += 1
                    if count > cap:
                        raise CapExceeded(count, cap)
                    img[k] = rhs
                    order.append(k)
                elif cur != rhs:
                    return False
            qi += 1
        return True

    for x, v in seeds:
        if not (assign(x, v) if img[x] == -1 else img[x] == v):
            return [], count
    hits: list[tuple] = []
    # frames [element, next image to try, len(order) and len(rows) on entry]
    stack: list[list[int]] = []

    def descend():
        if -1 in img:
            stack.append([img.index(-1), 0, len(order), len(rows)])
        # the leaf pass: each decided row at the elements assigned before it
        elif all(img[arg_a[s]] == ta[img[s]] for arg_a, ta, mark in rows for s in order[:mark]):
            hits.append(tuple(img))

    descend()
    while stack:
        frame = stack[-1]
        x, v, mark, decided = frame
        while len(order) > mark:
            img[order.pop()] = -1
        del rows[decided:]
        if v == n:
            stack.pop()
            continue
        frame[1] = v + 1
        if assign(x, v):
            descend()
    return hits, count


def enumerate_rb(G: GroupTable, weight: int, cap: int = DEFAULT_CAP, jobs: int = 1) -> list[tuple]:
    """All operators of the given weight, lexicographically sorted.

    cap limits the total number of image assignments the search performs,
    the forced ones included (CapExceeded beyond); jobs > 1 partitions on
    the first free image, and the search stops once the finished partitions
    together pass cap."""
    _power_table(G, weight)  # raises early on a bad weight; the search reads this table
    n = G.n
    seeds = [(G.e, G.e)]
    first = next((i for i in range(n) if i != G.e), None)
    workers = pool_size(jobs, n)
    if first is None or workers == 1:
        return _search_partition(G, weight, seeds, cap)[0]  # hits come sorted
    results: list[tuple] = []
    total = 0
    with ProcessPoolExecutor(max_workers=workers, mp_context=_SPAWN) as pool:
        futs = [pool.submit(_search_partition, G, weight, seeds + [(first, v)], cap)
                for v in range(n)]
        for f in as_completed(futs):
            try:
                hits, cnt = f.result()
            except CapExceeded as e:
                hits, cnt = [], e.evaluations
            results.extend(hits)
            total += cnt
            if total > cap:
                for g in futs:
                    g.cancel()  # the partitions not yet started
                raise CapExceeded(total, cap)
    # partitions fix distinct images of first, so no hit repeats
    return sorted(results)


def linearize_rb(G: GroupTable, B, ctx):
    """The group algebra of G with B extended linearly; a weight-1 operator
    becomes a group Rota-Baxter operator on k[G]."""
    B = _validate_map(G, B)
    if not _rb_weight(G, B, 1, "rb_weight_1").ok:
        raise ValueError("linearize_rb requires a verified weight-1 operator")
    from .constructions import group_algebra  # constructions imports this module
    H = group_algebra(G, ctx)
    return H, LinearMap(ctx, [{B[j]: ctx.one} for j in range(G.n)], G.n)


def operator_to_json(G: GroupTable, B, weight: int) -> dict:
    return {"group": G.name, "weight": weight, "map": list(B)}


def operator_from_json(obj: dict) -> tuple[str, int, tuple]:
    _json_shape(obj, "operator", dict, {"weight": int, "map": list}, {"group": str})
    return obj.get("group", ""), obj["weight"], tuple(obj["map"])
