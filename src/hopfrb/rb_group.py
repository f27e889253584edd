"""Rota-Baxter operators on finite groups, given by Cayley tables.

Groups are index tables (elements 0..n-1); operators are image tuples.
Every Rota-Baxter identity here is one relative identity
B(h1)B(h2) = B(h1 Psi_{B(h1)}(h2)), for B from a group H to a group G
acting on H by automorphisms Psi.  An operator of weight lambda on G is a
relative operator on (G_lambda, G, conjugation), with G_lambda the power
star g*h = (g^lambda h^lambda)^mu, lambda*mu = 1 modulo the group exponent:
G itself at weight 1 and its opposite at weight -1.
_relative_rows forms the argument rows of that identity for the checks and
the search, and _descendent_group the derived and circle groups on them
with no shape check (_gathered).  Enumeration is a depth-first search over
weight-1 images with constraint propagation through G's rows, which checks
only the rows of decided elements (see _search_partition); weight lambda
reads its hits through g -> g^lambda (_enumerate).  The cap bounds the
search's image assignments, forced ones included, and CapExceeded reports
going past it.

The Rota-Baxter identities, associativity, conjugation compatibility and
the skew brace identity go a row at a time: _gather builds a C-level
operator.itemgetter over one table row, both sides of a row of cases become
tuples, and report.first_row_failure compares them whole.  The last three
are decided on rows at a generating set (GroupTable.gens; the skew brace at
generators of both groups); a failure there reruns every row.  A group's
axioms go a table at a time, one comparison for its inverses and one per
middle in gens; a table that fails them is decided case by case for its
report.  GroupAction.check and the lemma parts go case by case.

enum-rb decides its statuses once per Aut(G)-orbit, on its first operator,
and copies them to the orbit, pass or fail (_orbit_verdicts).  An
automorphism phi of (G, .) commutes with powers and conjugation, so it is
one of each power star, B' = phi B phi^-1 is an operator of B's weight, and
phi carries B's circle group, skew braces and lemma parts (identities in the
product, the inverse, B, its kernel and image) onto those of B'.  The
search uses the same action (see _search_partition): it branches once per
orbit of the automorphisms that fix its decisions and moves each hit onto
the rest of the orbit.  automorphisms backtracks over images, of the same
orders, of its own generating set (_aut_generators: few elements, of
higher order first; G.gens, which decides the table, is not changed);
_extend takes a node's map on the closure of e under the generators chosen
so far and sets phi(x s) = phi(x) phi(s) over x reached and s in them (each
pair once along the path), so a leaf with no clash or repeated image is a
bijection with phi(xb) = phi(x) phi(b), by induction on the length of b as a
word in those generators.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm
from operator import itemgetter

from .hopf_core import LinearMap
from .report import (VerificationReport, decide_on, first_failure, first_row_failure,
                     merge_reports)
from .scalars import _json_shape

DEFAULT_CAP = 10 ** 8


class CapExceeded(RuntimeError):
    def __init__(self, evaluations: int, cap: int):
        super().__init__(f"enumeration budget exhausted: {evaluations} evaluations > cap {cap}")
        self.evaluations = evaluations
        self.cap = cap


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
    flat = list(itertools.chain.from_iterable(t))
    # on exact ints, membership in range(bound) is the range check
    if flat and set(map(type, flat)) <= {int} and set(range(bound)).issuperset(flat):
        return t
    for row in t:  # the first failing row names the error
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


def _closure(t, reached: set, gens) -> set:
    """reached, closed in place under right multiplication by gens."""
    new = reached
    while new:
        new = {t[x][g] for x in new for g in gens} - reached
        reached |= new
    return reached


def _generators(t, e: int) -> list[int]:
    """Elements S, picked in index order, such that the closure of e under
    right multiplication by S is every element: s is picked when it lies
    outside the closure so far, and then joins it as e s."""
    gens: list[int] = []
    reached = {e}
    for s in range(len(t)):
        if s not in reached:
            gens.append(s)
            _closure(t, reached, gens)
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
    and raises ValueError if one fails.  A group passes on whole-table
    comparisons; any other table is decided again case by case, so its
    witness and count are check_group's.  _conj, the conjugation rows, and
    _stars, circ_from_rrb's facts keyed by each star table other than G's
    own (a star with G's table needs none; see _circle), fill lazily.
    """

    __slots__ = ("n", "table", "e", "inv", "name", "axioms", "gens", "_conj", "_stars")

    def __init__(self, table, name: str = ""):
        n = len(table)
        self._decide(_int_rows(table, n, n, n, "table", "its row count"), name)

    @classmethod
    def _gathered(cls, rows, name: str = "") -> "GroupTable":
        """The group on rows gathered from a validated table: no shape check."""
        G = cls.__new__(cls)
        G._decide(tuple(rows), name)
        return G

    def _decide(self, t: tuple, name: str) -> None:
        self.n = n = len(t)
        self.table, self.name = t, name
        cols = tuple(zip(*t))
        ident = tuple(range(n))
        self.e = e = next((c for c in range(n) if t[c] == ident and cols[c] == ident), None)
        # A group passes on whole-table comparisons: g's inverse is the h
        # with gh = e when also hg = e, and at each middle b in gens one
        # comparison decides (ab)c = a(bc) for every a and c (Light's test,
        # below).  Any failure reruns the cases below for its report.
        inv = [row.index(e) for row in t] if e is not None and all(e in r for r in t) else None
        if inv is not None and [col[h] for col, h in zip(cols, inv)] == [e] * n:
            self.gens = gens = _generators(t, e)
            if all(_gather(cols[b])(t) == tuple(map(_gather(t[b]), t)) for b in gens):
                self._group(inv, VerificationReport.passing(
                    "group", identities_checked=1 + n + n * n * len(gens)))
                return
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
        self._group(inv, rep)

    def _group(self, inv, axioms: VerificationReport) -> None:
        self.inv, self.axioms = tuple(inv), axioms
        if not axioms.ok:
            raise _NotAGroup(axioms)
        self._conj, self._stars = _ConjugationRows(self.table, self.inv), {}

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


def _extend(t, gens: list, node: tuple, c: int) -> tuple | None:
    """The child of a backtrack node (images, phi, phi^-1, reached) that maps
    the next generator s of gens to c, or None on a clash or repeated image.
    phi (-1 off reached) is given on reached, the closure of e under the
    generators before s; the child sets phi(x g) = phi(x) phi(g) for x it
    reaches and g among those generators and s, at s alone on the parent's
    reached, where the parent has set the rest."""
    images, phi, pre, queue = node[0] + (c,), node[1][:], node[2][:], node[3][:]
    pairs, held = list(zip(gens, images)), len(queue)
    for i, x in enumerate(queue):
        for g, image in (pairs[-1:] if i < held else pairs):
            y, want = t[x][g], t[phi[x]][image]
            if phi[y] == -1 and pre[want] == -1:
                phi[y], pre[want] = want, y
                queue.append(y)
            elif phi[y] != want:
                return None
    return images, phi, pre, queue


def _aut_generators(G: GroupTable, orders: list) -> list[int]:
    """automorphisms' generating set: elements of higher order first, each
    pick the first that completes the group with those already chosen, or,
    when none does, the first outside their closure.  The first pick is an
    element of the highest order, which generates G alone if any does."""
    t, n = G.table, G.n
    ranked = sorted(range(n), key=lambda g: -orders[g])
    gens, reached = [], {G.e}
    while len(reached) < n:
        pick = None
        for s in ranked:
            if s not in reached:
                grown = _closure(t, set(reached), gens + [s])
                if pick is None or len(grown) == n:
                    pick = s, grown
                if len(grown) == n or not gens:
                    break
        gens.append(pick[0])
        reached = pick[1]
    return gens


def automorphisms(G: GroupTable) -> list[tuple]:
    """Every automorphism of G as an image tuple, sorted: a backtrack over
    images of _aut_generators(G) of the same element orders, each node's map
    extended from its parent's (see the module docstring)."""
    orders = [G.order_of(g) for g in range(G.n)]
    gens = _aut_generators(G, orders)
    root = [-1] * G.n
    root[G.e] = G.e
    out, stack = [], [((), root, root[:], [G.e])]
    while stack:
        node = stack.pop()
        images, phi, pre, _ = node
        if len(images) == len(gens):
            out.append(tuple(phi))
            continue
        s = gens[len(images)]
        children = (_extend(G.table, gens, node, c) for c in range(G.n)
                    if orders[c] == orders[s] and pre[c] == -1)
        stack += filter(None, children)
    return sorted(out)


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


def _descendent_group(G: GroupTable, rows) -> GroupTable:
    """The descendent group on the rows of a relative identity into G that holds."""
    return GroupTable._gathered(rows, (G.name + "*") if G.name else "star")


def _derived_parts(G: GroupTable, rows, B: tuple) -> tuple:
    """derived_group on the rows of B's weight-1 identity, which holds."""
    Gstar = _descendent_group(G, rows)
    return Gstar, merge_reports({"group_axioms": Gstar.axioms,
                                 "rb_on_star": _rb_weight(Gstar, B, 1, "rb_weight_1")})


def _group_rb_report(G: GroupTable, B, weight: int) -> VerificationReport:
    """check-group-rb's report on a map: the identity of the weight as "rb",
    and at weight 1, when it passes, "lemma" and "derived_group" on its rows."""
    B = _validate_map(G, B)
    if weight != 1:
        identity = "rb_weight_-1" if weight == -1 else "rb_weight_lambda"
        return merge_reports({"rb": _rb_weight(G, B, weight, identity)})
    rb, rows = _relative_identity(G.table, G._conj, B, G.table, "rb_weight_1")
    if not rb.ok:
        return merge_reports({"rb": rb})
    return merge_reports({"rb": rb, "lemma": _lemma_parts(G, B),
                          "derived_group": _derived_parts(G, rows, B)[1]})


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
    rb, rows = _relative_identity(G.table, G._conj, B, G.table, "rb_weight_1")
    if not rb.ok:
        raise ValueError("derived_group requires a verified weight-1 operator")
    return _derived_parts(G, rows, B)


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
    """The table of g*h = (g^lam h^lam)^mu: G's own at lam = 1.  Any other
    weight, -1 included, is built on each call with _lambda_root's errors:
    row g is the row kernel on the table (xy)^mu and the one map
    y -> y^lam, at x = g^lam."""
    if lam == 1:
        return G.table
    mu = _lambda_root(G, lam)
    plam = [G.power(g, lam) for g in range(G.n)]
    pmu = [G.power(x, mu) for x in range(G.n)]
    row = _relative_rows([_gather(r)(pmu) for r in G.table], [plam])
    return tuple(row(x, 0) for x in plam)


def power_star(G: GroupTable, lam: int) -> GroupTable:
    """g*h = (g^lam h^lam)^mu, the lambda-transported operation: G itself
    where that is G's own table (lam = 1 modulo exp(G), or any lam on an
    abelian group), so that no second group is built or decided."""
    table = _power_table(G, lam)
    return G if table == G.table else GroupTable._gathered(table)


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
    c = e), so rows at b in dot.gens (e when there are none) decide row a.
    The a with l_a a dot-endomorphism are closed under circ: l_a keeps
    inverses, so l_a l_a'(x) = l_a(a'^-) l_a(a' circ x) = l_{a circ a'}(x)
    by associativity of circ, and the circ-closure of circ.e under circ.gens
    is every element, so rows at a in [circ.e] + circ.gens decide every row,
    and a failure reruns them all.  ValueError unless the orders agree.
    """
    _same_order(dot, circ)
    n, d, ct, inv = dot.n, dot.table, circ.table, dot.inv
    dot_gets = [_gather(row) for row in d]

    def rows(As, bs):
        # row (a, b) runs over c
        for a in As:
            ca, ainv = ct[a], inv[a]
            get_ca = _gather(ca)
            for b in bs:
                yield (a, b), dot_gets[b](ca), get_ca(d[d[ca[b]][ainv]])

    rep = first_row_failure("skew_brace", rows([circ.e] + circ.gens, dot.gens or [dot.e]))
    return rep if rep.ok else first_row_failure("skew_brace", rows(range(n), range(n)))


def circ_from_rrb(G: GroupTable, star: GroupTable, B) -> tuple[GroupTable, VerificationReport]:
    """g1 circ g2 = g1 * B(g1) g2 B(g1)^-1 with conjugation in (G, .).

    Verifies: circ is a group; (G, *, circ) is a skew brace; and when
    (G, ., *) is itself a skew brace, so is (G, ., circ).  The facts
    check_star_compat(G, star) and, when it passes, skew_brace_check(G, star)
    are decided on the first call with a star of that table and kept on G,
    unless star has G's own table, where they hold (see _circle).
    """
    B = _validate_map(G, B)
    _same_order(G, star)
    star_rb, rows = _relative_identity(star.table, G._conj, B, G.table, "star_rb")
    if not star_rb.ok:
        w = star_rb.witness
        raise ValueError("B does not satisfy the star RB identity at ({},{}): {} != {}".format(
            *w["indices"], w["lhs"], w["rhs"]))
    return _circle(G, star, rows)


def _circle(G: GroupTable, star: GroupTable, rows) -> tuple[GroupTable, VerificationReport]:
    """circ_from_rrb on the rows of B's star identity, known to hold.

    A star whose table is not G's has its facts, check_star_compat(G, star)
    and then skew_brace_check(G, star), decided once per star table and
    kept in G._stars under that table.
    A star with G's table needs none: it shares G's unit, conjugation by g
    is an automorphism of G, and (G, ., .) is the trivial skew brace, as
    a(bc) = (ab)a^-1(ac).  There the two braces (G, *, circ) and
    (G, ., circ) are one identity, so one report stands for both."""
    if star.table != G.table:
        if star.table not in G._stars:
            pre = check_star_compat(G, star)
            G._stars[star.table] = pre, skew_brace_check(G, star) if pre.ok else None
        pre, dot_star_brace = G._stars[star.table]
        if not pre.ok:
            raise ValueError(f"star precondition fails: {pre.identity} witness {pre.witness}")
    circ = _descendent_group(G, rows)
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


def _conjugators(auts, n: int) -> list:
    """(get, phi) per phi in auts, get the getter at phi^-1: B -> phi B phi^-1
    is B -> _gather(get(B))(phi), applied inline with no call of its own."""
    return [(_gather(sorted(range(n), key=phi.__getitem__)), phi) for phi in auts]


def _orbit_verdicts(G: GroupTable, ops: list, weight: int, auts: list) -> list[dict]:
    """enum-rb's statuses of each operator in ops, the search's full list at
    weight: decided on the first operator of each orbit of auts, which is
    Aut(G), and copied to every member of that orbit, pass or fail (see the
    module docstring); RuntimeError if an orbit leaves ops.  The star is
    power_star's, G itself where the weight's table is G's, so _circle
    decides no star facts there."""
    star = power_star(G, weight)
    row = _relative_rows(star.table, G._conj)  # B's circle rows, on the star
    moves = _conjugators(auts, G.n)
    index, verdicts = {B: i for i, B in enumerate(ops)}, [None] * len(ops)
    for i, B in enumerate(ops):
        if verdicts[i] is None:
            _, rep = _circle(G, star, [row(g, v) for g, v in enumerate(B)])
            first = {"skew_brace": rep.status,
                     "derived_group": rep.details["circ_group"]["status"]}
            if weight == 1:  # the search has decided the identity
                first["lemma"] = _lemma_parts(G, B).status
            for get_inv, phi in moves:
                j = index.get(_gather(get_inv(B))(phi))
                if j is None:
                    raise RuntimeError(f"an automorphism of {G!r} moves {B} out of the list")
                verdicts[j] = first
    return verdicts


# ---------------------------------------------------------------------------
# enumeration


def _search_partition(G: GroupTable, seeds, cap: int, auts=None):
    """DFS over weight-1 operator images of G with constraint propagation.

    seeds is a list of (index, value) preassignments. Returns (hits, count)
    where count is the number of image assignments performed, forced ones
    included (moving hits assigns nothing). Write a o s = a Psi_{B(a)}(s)
    for Psi conjugation, so that the identity reads B(a o s) = B(a)B(s); it
    forces an image whenever a and s are assigned, so the tree collapses
    quickly, and candidates with B(e) != e never appear.  The identity is
    checked only at pairs (a, s) with a in the set A of decided elements
    (the seeds and the branch choices), by assign's column pass, for each s
    assigned from the decision of a on.

    Invariant: after each assign that succeeds, the assigned points
    (x, B(x)) form the subgroup that the decided points generate in
    M = G x| G, (a, u)(s, w) = (a u s u^-1, u w).  The identity at (a, s)
    says that (a, B(a))(s, B(s)) is the graph's point at a o s, so B is an
    operator iff its graph is a subgroup of M.  Proof, by induction: let P
    be the points assigned before the decision t = (x, v).  The pass adds
    the least set N with t in N, dN in N for each earlier decided d (so
    PN in N) and tN in N u P, and compares the points that land in P; with
    P empty, N = <t>.  Then P u N = <P, t> = L (README): N is a union of
    cosets Py, those that Pt reaches without passing P in the digraph on the
    cosets Py in L with arcs Py -> Ptky, k in P.  Right multiplication by L
    makes it vertex-transitive, t not in P loopless, and <tP> = L strongly
    connected.  With out-degree 1 it is one cycle; otherwise it has no cut
    vertex (Hamidoune's atoms: the images of a least fragment partition the
    vertices, which forces out-degree 1), so Pt reaches every coset but P.
    So the graph at a leaf is a subgroup, an operator.  Every check is an
    instance of the identity, so no operator with the seeded images is
    pruned and each image forced on its path is its own.  So the hits are
    exactly those operators, as each branch decides the least unassigned
    element x at its images in order, less the two cuts below; they are
    sorted once at the end.

    Square cut: x is not tried at a value v whose square refutes it, that
    is, x o_v x is assigned with an image other than v v.  An operator
    extending the decisions with B(x) = v has B(x o x) = v v, so such a v
    extends to no operator.

    Orbit cut: each frame carries K, the automorphisms given in auts (Aut(G),
    computed when None) that fix every seed and branch decision, both the
    element and its image.  Sending B to phi B phi^-1 maps the operators
    onto themselves (module docstring), and for phi in K it keeps
    every decision, so it maps the completions of the frame's decisions onto
    themselves.  phi in Stab_K(x) maps the completions with B(x) = v
    bijectively onto those with B(x) = phi(v), and these sets are disjoint
    for distinct values.  So at x the search tries one value v per
    Stab_K(x)-orbit, the least that the square cut keeps (a value it drops
    has no completions, so neither has its orbit); the child frame gets the
    stabilizer of v in Stab_K(x); and when the search moves past v, the hits
    added since it assigned v, exactly the completions with B(x) = v, are
    moved by one phi per other member w of the orbit, with phi(v) = w.
    Inner frames move their hits first, so the moves compose on one flat
    list, and every operator appears exactly once.  A trivial stabilizer
    skips the orbit work.

    The DFS runs on an explicit stack: a recursive closure would refer to
    itself and keep every search's tables alive until a full GC pass.
    """
    n, t = G.n, G.table
    row = _relative_rows(t, G._conj)
    arg = [[row(g, v) for v in range(n)] for g in range(n)]
    img = [-1] * n
    order: list[int] = []
    rows: list[tuple] = []  # (arg[a][B(a)], t[B(a)]) per decided a
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
        rows.append((arg[x][v], t[v]))
        while qi < len(order):
            s = order[qi]
            vs = img[s]
            for arg_a, ta in rows:
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
    points = tuple(itertools.chain.from_iterable(seeds))  # K fixes each seed and its image
    K = [phi for phi in (automorphisms(G) if auts is None else auts)
         if tuple(map(phi.__getitem__, points)) == points]
    # x o_v x per (x, v), whose image the identity at (x, x) sets to v v
    squares = [[arg_v[x] for arg_v in arg[x]] for x in range(n)]
    vv = [t[v][v] for v in range(n)]

    def branches(x: int, K: list) -> list:
        """(v, moves, K') per value tried at x, last first: the least value
        of each Stab_K(x)-orbit that its square does not refute, the moves
        B -> phi B phi^-1 onto the orbit's other members, and K', the
        stabilizer of v in Stab_K(x)."""
        live = [v for v, k in enumerate(squares[x]) if img[k] == -1 or img[k] == vv[v]]
        stab = [phi for phi in K if phi[x] == x]
        if len(stab) == 1:
            return [(v, (), stab) for v in reversed(live)]
        out, seen = [], set()
        for v in live:
            if v not in seen:
                orbit = {}
                for phi in stab:
                    orbit.setdefault(phi[v], phi)
                seen.update(orbit)
                moves = _conjugators([phi for w, phi in orbit.items() if w != v], n)
                out.append((v, moves, [phi for phi in stab if phi[v] == v]))
        return out[::-1]

    hits: list[tuple] = []
    # frames [element, branches left, len(order) and len(rows) on entry,
    #         moves of the value last tried, len(hits) before it]
    stack: list[list] = []

    def descend(K: list) -> None:
        if -1 in img:
            x = img.index(-1)
            stack.append([x, branches(x, K), len(order), len(rows), (), 0])
        else:
            hits.append(tuple(img))

    descend(K)
    while stack:
        frame = stack[-1]
        x, todo, mark, decided, moves, since = frame
        if moves:
            hits += [_gather(get_inv(B))(phi) for B in hits[since:] for get_inv, phi in moves]
        while len(order) > mark:
            img[order.pop()] = -1
        del rows[decided:]
        if not todo:
            stack.pop()
            continue
        v, frame[4], child = todo.pop()
        frame[5] = len(hits)
        if assign(x, v):
            descend(child)
    hits.sort()
    return hits, count


def enumerate_rb(G: GroupTable, weight: int, cap: int = DEFAULT_CAP) -> list[tuple]:
    """All operators of the given weight, lexicographically sorted.

    cap limits the total number of image assignments the search performs,
    the forced ones included (CapExceeded beyond).  ValueError for cap < 0."""
    return _enumerate(G, weight, cap)[0]


def _enumerate(G: GroupTable, weight: int, cap: int, auts=None) -> tuple[list[tuple], int]:
    """enumerate_rb's operators and the weight-1 search's assignment count,
    with auts as Aut(G) (computed when None)."""
    _lambda_root(G, weight)  # raises early on a bad weight
    if cap < 0:
        raise ValueError(f"cap must be at least 0, not {cap}")
    hits, count = _search_partition(G, [(G.e, G.e)], cap, auts)
    if weight != 1:  # the weight's operators are the C o p, p(g) = g^weight (README)
        hits = sorted(map(_gather([G.power(g, weight) for g in range(G.n)]), hits))
    return hits, count


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
