"""Finite-dimensional Hopf algebras presented by structure constants.

A vector is a sparse dict {basis index: nonzero scalar}, a tensor a sparse
dict {index tuple: nonzero scalar}, and lincomb is the one kernel that forms
linear combinations of either.  No zero entry reaches the kernel from
outside: AlgebraData, CoalgebraData, ActionData and LinearMap, and the JSON
readers through them, drop the zeros of their input.  lincomb relies on it:
over a field, c*x with x nonzero is zero only when c is, so it filters zeros
only when some coefficient is zero or some key receives a second term, and
_bilinear reads the product of two one-term vectors straight from the table
entry.  A LinearMap stores one such vector per column
and is inverted by _reduce, the one elimination kernel, which generating_set
runs on as well.  An algebra is a sparse multiplication table plus a
unit vector, a coalgebra a sparse comultiplication table plus one counit
scalar per basis element, and a Hopf algebra the pair together with an
antipode map.  Checkers decide the defining identities on basis elements
and return the first counterexample in lexicographic basis order; each
side is one lincomb over the Sweedler terms a_(1) (x) a_(2) of the stored
coproducts, as in sum S(a_(1))a_(2) for the antipode.  An
identity that is multiplicative in its first argument (associativity,
Delta and the counit as morphisms) is decided on the elements of a
generating set only, which is exact once the unit law (and, for the last
two, associativity) holds; a check that fails there is rerun on the whole
basis, so a failing report is the whole basis's.  The antipode is decided
by its definition, the two convolution laws, which on a bialgebra imply
every other antipode identity.

Everything is exact (see scalars); dimensions are capped at MAX_DIM.
"""

from __future__ import annotations

from .report import VerificationReport, decide_on, first_failure, labelled, merge_reports
from .scalars import FieldCtx, Scalar, _json_shape, parse_field, scalar_from_json

MAX_DIM = 256


# ---------------------------------------------------------------------------
# sparse vectors and linear maps


def lincomb(terms) -> dict:
    """The sum of c*v over (c, v) pairs of a scalar and a sparse vector.

    Entries that sum to zero are dropped; the other keys keep the order in
    which they first appear.  The vectors must be sparse, with no zero entry:
    over a field c*x is then zero only when c is, so the zero filter runs
    only when some coefficient c is zero or some key receives a second term.
    """
    out: dict = {}
    filter_zeros = False
    for c, v in terms:
        # not c.is_zero: a number coefficient must still raise TypeError at c * x
        if not c:
            filter_zeros = True
        for k, x in v.items():
            prev = out.get(k)
            if prev is None:
                out[k] = c * x
            else:
                out[k] = prev + c * x
                filter_zeros = True
    return {k: x for k, x in out.items() if not x.is_zero} if filter_zeros else out


def _nonzero(v: dict) -> dict:
    return {k: c for k, c in v.items() if not c.is_zero}


def _check_keys(keys, dim: int, what: str) -> None:
    for k in keys:
        if not 0 <= k < dim:
            raise ValueError(f"{what} {k} out of range for dim {dim}")


def _reduce(rows: dict, v: dict, one: Scalar) -> dict:
    """v less a combination of the echelon rows, with a least key that is
    no pivot of theirs: empty exactly when v lies in their span.

    rows maps each pivot to a vector whose least key is that pivot.  A row
    with one term clears its pivot by dropping it, so only a collision with
    a row of several terms divides.  This is the one elimination kernel:
    LinearMap.inverse, LinearMap.is_invertible and generating_set run on it.
    """
    v = dict(v)
    while v:
        p = min(v)
        row = rows.get(p)
        if row is None:
            break
        if len(row) == 1:
            del v[p]
        else:
            v = lincomb([(one, v), (-(v[p] * row[p].inverse()), row)])
    return v


class LinearMap:
    """Matrix stored by sparse columns: cols[j] is the image of e_j, with
    zero entries dropped."""

    __slots__ = ("ctx", "cols", "domain_dim", "codomain_dim")

    def __init__(self, ctx: FieldCtx, cols: list, codomain_dim: int):
        self.ctx = ctx
        self.cols = [_nonzero(c) for c in cols]
        self.domain_dim = len(self.cols)
        self.codomain_dim = codomain_dim
        for c in self.cols:
            _check_keys(c, codomain_dim, "matrix row")

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "LinearMap":
        return cls(ctx, [{i: ctx.one} for i in range(n)], n)

    @classmethod
    def from_rows(cls, ctx: FieldCtx, rows: list) -> "LinearMap":
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("matrix rows differ in length")
        return cls(ctx, [dict(enumerate(col)) for col in zip(*rows)], len(rows))

    def to_rows(self) -> list:
        zero = self.ctx.zero
        return [[c.get(i, zero) for c in self.cols] for i in range(self.codomain_dim)]

    def apply(self, v: dict) -> dict:
        return lincomb((c, self.cols[j]) for j, c in v.items())

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        if other.codomain_dim != self.domain_dim:
            raise ValueError(f"cannot compose: codomain dimension {other.codomain_dim} "
                             f"!= domain dimension {self.domain_dim}")
        return LinearMap(self.ctx, [self.apply(c) for c in other.cols], self.codomain_dim)

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return self.codomain_dim == other.codomain_dim and self.cols == other.cols

    def _echelon(self, tagged: bool) -> dict | None:
        """The columns as echelon rows {pivot: row} (see _reduce), or None
        when the map is not square or a column lies in the span of those
        before it.  tagged adds the key n + j to column j, so that the keys
        from n up of a row say which combination of columns it is."""
        n = self.domain_dim
        if n != self.codomain_dim:
            return None
        one = self.ctx.one
        rows: dict = {}
        for j, col in enumerate(self.cols):
            r = _reduce(rows, {**col, n + j: one} if tagged else col, one)
            if not r or min(r) >= n:
                return None
            rows[min(r)] = r
        return rows

    def is_invertible(self) -> bool:
        return self._echelon(tagged=False) is not None

    def inverse(self) -> "LinearMap":
        """Exact inverse; ValueError if singular.

        The tagged echelon rows are back-substituted from the largest pivot
        down: cleared of its other keys below n and scaled, the row at pivot
        p is e_p plus, in its tags, column p of the inverse.
        """
        if self.domain_dim != self.codomain_dim:
            raise ValueError("only square maps can be inverted")
        rows = self._echelon(tagged=True)
        if rows is None:
            raise ValueError("singular matrix")
        n, one = self.domain_dim, self.ctx.one
        for p in reversed(range(n)):
            r = rows[p]
            r = lincomb([(one, r)] + [(-r[q], rows[q]) for q in r if p < q < n])
            rows[p] = r if r[p] == one else lincomb([(r[p].inverse(), r)])
        return LinearMap(self.ctx, [{k - n: x for k, x in sorted(rows[p].items()) if k >= n}
                                    for p in range(n)], n)

    def to_json(self):
        return [[c.to_json() for c in row] for row in self.to_rows()]

    @classmethod
    def from_json(cls, obj, ctx: FieldCtx) -> "LinearMap":
        rows = [[scalar_from_json(c, ctx) for c in _json_shape(row, "matrix row", list)]
                for row in _json_shape(obj, "matrix", list)]
        return cls.from_rows(ctx, rows)


# ---------------------------------------------------------------------------
# structure-constant data


def _labels(labels, dim: int) -> list[str]:
    """labels as a list (e0, e1, ... when None); ValueError on a bad dim."""
    if dim < 1:
        raise ValueError(f"dimension {dim} must be at least 1")
    if dim > MAX_DIM:
        raise ValueError(f"dimension {dim} exceeds cap {MAX_DIM}")
    out = list(labels) if labels is not None else [f"e{i}" for i in range(dim)]
    if len(out) != dim:
        raise ValueError(f"{len(out)} labels for dim {dim}")
    if any(type(label) is not str for label in out):
        raise ValueError("labels must be strings")
    return out


def _table(entries: dict, dims: tuple, what: str) -> dict:
    """A structure-constant table {(i, j): sparse vector}, validated: i and j
    below dims[0] and dims[1], every key of a vector below dims[2].  Zero
    terms and the entries left empty are dropped."""
    di, dj, dk = dims
    out = {}
    for (i, j), terms in entries.items():
        if not 0 <= i < di or not 0 <= j < dj:
            raise ValueError(f"{what} entry ({i},{j}) out of range for dims {di} x {dj}")
        _check_keys(terms, dk, f"{what} ({i},{j}) term index")
        t = _nonzero(terms)
        if t:
            out[(i, j)] = t
    return out


def _bilinear(table: dict, sa: dict, sb: dict) -> dict:
    """The bilinear extension of a structure table to sparse vectors.

    Two one-term operands c*e_i and d*e_j read the entry t at (i, j) alone:
    a copy of t when c*d is one, {} when c*d is zero, else t scaled by c*d,
    which has no zero entry since t has none.  These are the entries lincomb
    would give, with no sum and no zero filter.  Other operands sum through
    lincomb."""
    if len(sa) == 1 == len(sb):
        (i, ca), = sa.items()
        (j, cb), = sb.items()
        t = table.get((i, j))
        if not t:
            return {}
        c = ca * cb
        if c is c.ctx.one:
            return dict(t)
        if c.is_zero:
            return {}
        return {k: c * x for k, x in t.items()}
    return lincomb((ca * cb, t) for i, ca in sa.items() for j, cb in sb.items()
                   if (t := table.get((i, j))))


class AlgebraData:
    """Unital associative algebra by structure constants.

    unit is a sparse vector; mult maps a basis pair (i, j) to the sparse
    expansion of e_i * e_j, and missing pairs multiply to zero.  Ranges are
    validated at construction time, the axioms by check_algebra.
    """

    __slots__ = ("ctx", "dim", "labels", "unit", "mult")

    def __init__(self, ctx: FieldCtx, dim: int, unit: dict, mult: dict,
                 labels: list[str] | None = None):
        self.labels = _labels(labels, dim)
        self.ctx = ctx
        self.dim = dim
        self.unit = _nonzero(unit)
        _check_keys(self.unit, dim, "unit index")
        self.mult = _table(mult, (dim, dim, dim), "mult")

    def mul_basis(self, i: int, j: int) -> dict:
        return self.mult.get((i, j), {})

    def mul_sparse(self, sa: dict, sb: dict) -> dict:
        return _bilinear(self.mult, sa, sb)


class CoalgebraData:
    """Coalgebra by structure constants: delta[i] expands e_i sparsely in
    the tensor square; the counit is a list of one scalar per basis element."""

    __slots__ = ("ctx", "dim", "labels", "delta", "counit")

    def __init__(self, ctx: FieldCtx, dim: int, delta: dict, counit: list,
                 labels: list[str] | None = None):
        self.labels = _labels(labels, dim)
        if len(counit) != dim:
            raise ValueError(f"counit has {len(counit)} entries for dim {dim}")
        self.ctx = ctx
        self.dim = dim
        self.counit = list(counit)
        self.delta = {}
        for i, terms in delta.items():
            _check_keys([i], dim, "delta source")
            for j, k in terms:
                if not 0 <= j < dim or not 0 <= k < dim:
                    raise ValueError(f"delta target ({j},{k}) out of range for dim {dim}")
            t = _nonzero(terms)
            if t:
                self.delta[i] = t

    def delta_basis(self, i: int) -> dict:
        return self.delta.get(i, {})

    def counit_sparse(self, sv: dict) -> Scalar:
        out = self.ctx.zero
        for i, c in sv.items():
            out = out + c * self.counit[i]
        return out


class HopfData:
    """Algebra + coalgebra + antipode over one basis."""

    __slots__ = ("algebra", "coalgebra", "antipode")

    def __init__(self, algebra: AlgebraData, coalgebra: CoalgebraData, antipode: LinearMap):
        dims = (algebra.dim, coalgebra.dim, antipode.domain_dim, antipode.codomain_dim)
        if len(set(dims)) != 1:
            raise ValueError(f"algebra, coalgebra and antipode dimensions disagree: {dims}")
        if not algebra.ctx == coalgebra.ctx == antipode.ctx:
            raise ValueError("algebra, coalgebra and antipode use different scalar fields")
        self.algebra = algebra
        self.coalgebra = coalgebra
        self.antipode = antipode

    @property
    def ctx(self) -> FieldCtx:
        return self.algebra.ctx

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def labels(self) -> list[str]:
        return self.algebra.labels

    @property
    def unit(self) -> dict:
        return self.algebra.unit


class ActionData:
    """An action by structure constants: phi[(g, h)] is the sparse expansion
    of Phi_{e_g}(e_h).  It is a module-algebra action of a Hopf algebra G
    on H (rb_hopf) or a derivation action of a Lie algebra g on h (rb_lie)."""

    __slots__ = ("ctx", "dim_g", "dim_h", "phi")

    def __init__(self, ctx: FieldCtx, dim_g: int, dim_h: int, phi: dict):
        self.ctx = ctx
        self.dim_g = dim_g
        self.dim_h = dim_h
        self.phi = _table(phi, (dim_g, dim_h, dim_h), "phi")

    @classmethod
    def from_matrices(cls, ctx: FieldCtx, mats: list) -> "ActionData":
        """The action with Phi_{e_g} = mats[g]; the inverse of matrix_for."""
        if not mats:
            raise ValueError("an action needs one matrix per basis element")
        n = mats[0].domain_dim
        for m in mats:
            if m.ctx != ctx:
                raise ValueError("action matrices use different scalar fields")
            if not m.domain_dim == m.codomain_dim == n:
                raise ValueError(f"action matrix is {m.codomain_dim} x {m.domain_dim},"
                                 f" expected {n} x {n}")
        return cls(ctx, len(mats), n, {(g, h): col for g, m in enumerate(mats)
                                       for h, col in enumerate(m.cols)})

    def apply_basis(self, g: int, h: int) -> dict:
        return self.phi.get((g, h), {})

    def apply(self, sg: dict, sh: dict) -> dict:
        """Phi of a sparse G-vector on a sparse H-vector."""
        return _bilinear(self.phi, sg, sh)

    def matrix_for(self, g: int) -> LinearMap:
        return LinearMap(self.ctx, [self.apply_basis(g, h) for h in range(self.dim_h)],
                         self.dim_h)

    def to_json(self) -> list:
        return _table_to_json(self.phi, "ghi")


def _check_action_dims(phi: ActionData, G, H, names: str) -> None:
    """ValueError unless phi acts by G on H; names is "G x H" or "g x h"."""
    if (phi.dim_g, phi.dim_h) != (G.dim, H.dim):
        raise ValueError(f"phi has dims {phi.dim_g} x {phi.dim_h},"
                         f" expected {names} = {G.dim} x {H.dim}")


def _algebra_of(x) -> AlgebraData:
    return x.algebra if isinstance(x, HopfData) else x


def _coalgebra_of(x) -> CoalgebraData:
    return x.coalgebra if isinstance(x, HopfData) else x


# ---------------------------------------------------------------------------
# sparse tensors
#
# An element of a tensor power is what a coproduct already is: a sparse dict
# {index tuple: nonzero scalar}, one index per leg.  Every operation sums its
# terms through lincomb, and two tensors are equal when their dicts are.  A
# checker forms each side of an identity as one lincomb over the Sweedler
# terms of the stored coproducts; these four build the tensors it compares.


def tensor_outer(a: dict, b: dict) -> dict:
    return lincomb((ca, {ta + tb: cb for tb, cb in b.items()}) for ta, ca in a.items())


def tensor_apply_delta(coalg: CoalgebraData, t: dict, leg: int) -> dict:
    """Replace one leg by its comultiplication, raising the rank by one."""
    return lincomb((c, {tup[:leg] + jk + tup[leg + 1:]: d
                        for jk, d in coalg.delta_basis(tup[leg]).items()})
                   for tup, c in t.items())


def tensor_mul(alg: AlgebraData, a: dict, b: dict) -> dict:
    """Componentwise product of two equal-rank tensors over one algebra."""
    def terms():
        # e_ta * e_tb leg by leg: each choice of one term from the products
        # of the leading legs, with the product of the last legs as a whole
        for ta, ca in a.items():
            for tb, cb in b.items():
                prods = [alg.mul_basis(ia, ib) for ia, ib in zip(ta, tb, strict=True)]
                heads = {(): ca * cb}
                for p in prods[:-1]:
                    heads = {h + (k,): c * d for h, c in heads.items() for k, d in p.items()}
                for h, c in heads.items():
                    yield c, {h + (k,): d for k, d in prods[-1].items()}

    return lincomb(terms())


def iterated_delta(coalg: CoalgebraData, sv: dict, legs: int) -> dict:
    """Sweedler legs of a sparse vector: legs=1 is the vector itself,
    legs=2 is Delta, legs=3 is (Delta (x) id) Delta, and so on."""
    if legs < 1:
        raise ValueError(f"a tensor has at least one leg, not {legs}")
    t = {(i,): c for i, c in sv.items() if not c.is_zero}
    for _ in range(legs - 1):
        t = tensor_apply_delta(coalg, t, 0)
    return t


# ---------------------------------------------------------------------------
# generating sets


def generating_set(A) -> list[int]:
    """Basis indices S, picked in index order, such that the closure of the
    unit under right multiplication by the e_s, s in S, spans A.

    An index is picked when e_s lies outside the closure so far.  Under the
    unit law e_s = 1 * e_s then joins it, so the closure ends up A.  Its
    span is kept as sparse echelon rows (see _reduce): where basis products
    are multiples of basis elements (Taft algebras, the family, group
    algebras) no row has two terms and nothing is inverted.  ValueError if
    the closure under every basis element is a proper subspace, which
    breaks the unit law.
    """
    A = _algebra_of(A)
    one = A.ctx.one
    rows: dict = {}
    found: list = []   # the rows in the order they were found
    gens: list = []

    def extend(v: dict) -> None:
        r = _reduce(rows, v, one)
        if r:
            rows[min(r)] = r
            found.append(r)

    extend(A.unit)
    closed = 0   # found[:closed] times every picked e_s lies in the span
    for s in range(A.dim):
        if len(rows) == A.dim:
            break
        if not _reduce(rows, {s: one}, one):
            continue
        for r in found[:closed]:
            extend(A.mul_sparse(r, {s: one}))
        gens.append(s)
        while closed < len(found):
            r = found[closed]
            closed += 1
            for t in gens:
                extend(A.mul_sparse(r, {t: one}))
    if len(rows) < A.dim:
        raise ValueError("the right-multiplication closure of the unit vector is a "
                         "proper subspace, so it is not a unit")
    return gens


# ---------------------------------------------------------------------------
# axiom checkers


def check_algebra(A) -> VerificationReport:
    """Two-sided unit, then associativity (e_i e_s) e_k = e_i (e_s e_k) for
    s in generating_set(A).

    Given the unit law, the middles s at which the identity holds for every
    i and k form a subspace that holds 1 and is closed under products, so
    it is A: the generating set decides every basis triple (Light's
    associativity test).  A passing report keeps that set as its
    generators, for the checks that reduce on it next.
    """
    A = _algebra_of(A)
    one = A.ctx.one
    su = A.unit

    def cases(middles):
        for i in range(A.dim):
            e_i = {i: one}
            yield ("unit", i), A.mul_sparse(su, e_i), e_i
            yield ("unit", i), A.mul_sparse(e_i, su), e_i
        for i in range(A.dim):
            for j in middles:
                ij = A.mul_basis(i, j)
                for k in range(A.dim):
                    yield (("associativity", i, j, k), A.mul_sparse(ij, {k: one}),
                           A.mul_sparse({i: one}, A.mul_basis(j, k)))

    try:
        middles = generating_set(A)
    except ValueError:   # no unit, so a unit case fails
        middles = None
    return decide_on(first_failure, "algebra", cases, middles, A.dim,
                     labelled([A.labels] * 3, A.labels))


def check_coalgebra(C) -> VerificationReport:
    """Coassociativity and the two counit laws on every basis element."""
    C = _coalgebra_of(C)
    one, eps = C.ctx.one, C.counit
    deltas = [C.delta_basis(i) for i in range(C.dim)]

    def cases():
        for i, t in enumerate(deltas):
            yield ("coassociativity", i), tensor_apply_delta(C, t, 0), tensor_apply_delta(C, t, 1)
        for i, t in enumerate(deltas):
            e_i = {i: one}
            yield ("counit_left", i), lincomb((eps[j], {k: c}) for (j, k), c in t.items()), e_i
            yield ("counit_right", i), lincomb((eps[k], {j: c}) for (j, k), c in t.items()), e_i

    return first_failure("coalgebra", cases(), labelled([C.labels], C.labels))


def check_bialgebra_compat(H: HopfData, *, generators=None) -> VerificationReport:
    """Delta and the counit are algebra morphisms; Delta(1) = 1 (x) 1.

    generators, when given, is a generating set (see generating_set) of an
    algebra already known to be associative and unital.  Once Delta(1) =
    1 (x) 1 and e(1) = 1 hold, the first arguments a at which Delta(ab) =
    Delta(a)Delta(b) and e(ab) = e(a)e(b) hold for every b form a
    subalgebra, so pairs (s, j) with s among the generators decide every
    basis pair.  None decides every basis pair.
    """
    A, C = H.algebra, H.coalgebra
    one = A.ctx.one
    su = A.unit
    deltas = [C.delta_basis(i) for i in range(A.dim)]

    def cases(firsts):
        unit = iterated_delta(C, su, 1)
        yield ("delta_unit",), iterated_delta(C, su, 2), tensor_outer(unit, unit)
        yield ("counit_unit",), C.counit_sparse(su), one
        for i in firsts:
            for j in range(A.dim):
                prod = A.mul_basis(i, j)
                yield (("delta_multiplicative", i, j), iterated_delta(C, prod, 2),
                       tensor_mul(A, deltas[i], deltas[j]))
                yield (("counit_multiplicative", i, j), C.counit_sparse(prod),
                       C.counit[i] * C.counit[j])

    return decide_on(first_failure, "bialgebra_compat", cases, generators, A.dim,
                     labelled([A.labels] * 2, A.labels))


def check_antipode(H: HopfData) -> VerificationReport:
    """The definition of an antipode: S(a_(1))a_(2) = e(a)1 = a_(1)S(a_(2))
    on every basis element.

    On a bialgebra these convolution laws imply S(1) = 1, e S = e, S(ab) =
    S(b)S(a) and Delta S = (S (x) S) tau Delta (Sweedler, Hopf Algebras,
    Prop. 4.0.1), and S is the unique convolution inverse of the identity,
    so a changed entry of S fails them.
    """
    A, C, images = H.algebra, H.coalgebra, H.antipode.cols

    def cases():
        for i in range(A.dim):
            t = C.delta_basis(i)
            target = lincomb([(C.counit[i], A.unit)])
            yield ("antipode_left", i), lincomb(
                (c * x, A.mul_basis(s, k)) for (j, k), c in t.items()
                for s, x in images[j].items()), target
            yield ("antipode_right", i), lincomb(
                (c * x, A.mul_basis(j, s)) for (j, k), c in t.items()
                for s, x in images[k].items()), target

    return first_failure("antipode", cases(), labelled([A.labels], A.labels))


def check_hopf(H: HopfData) -> VerificationReport:
    """Full Hopf-algebra verification; reports the first failing identity.

    Once the algebra part passes, the algebra is associative and unital,
    so the generating set it was decided on decides the multiplicative
    identities of the bialgebra part; otherwise it takes every basis pair.
    """
    algebra = check_algebra(H)
    return merge_reports({
        "algebra": algebra,
        "coalgebra": check_coalgebra(H),
        "bialgebra_compat": check_bialgebra_compat(H, generators=algebra.generators),
        "antipode": check_antipode(H),
    })


# ---------------------------------------------------------------------------
# constructions and structural predicates


def opposite_hopf(H: HopfData) -> HopfData:
    """(H, m^op, Delta, epsilon, S^-1); raises if the antipode is singular."""
    A = H.algebra
    mult_op = {(j, i): dict(t) for (i, j), t in A.mult.items()}
    try:
        s_inv = H.antipode.inverse()
    except ValueError:
        raise ValueError("antipode is not invertible; opposite Hopf algebra undefined")
    alg = AlgebraData(A.ctx, A.dim, A.unit, mult_op, labels=A.labels)
    return HopfData(alg, H.coalgebra, s_inv)


def _check_map_dims(f: LinearMap, src, dst, name: str) -> None:
    if (f.domain_dim, f.codomain_dim) != (src.dim, dst.dim):
        raise ValueError(f"{name} maps dim {f.domain_dim} to dim {f.codomain_dim},"
                         f" expected dim {src.dim} to dim {dst.dim}")


def is_algebra_morphism(f: LinearMap, src, dst) -> VerificationReport:
    """f(1) = 1 and f(ab) = f(a)f(b) on basis pairs."""
    A, B = _algebra_of(src), _algebra_of(dst)
    _check_map_dims(f, A, B, "f")
    images = f.cols

    def cases():
        yield ("morphism_unit",), f.apply(A.unit), B.unit
        for i in range(A.dim):
            for j in range(A.dim):
                yield (("morphism_mult", i, j), f.apply(A.mul_basis(i, j)),
                       B.mul_sparse(images[i], images[j]))

    return first_failure("algebra_morphism", cases(), labelled([A.labels] * 2, B.labels))


def is_coalgebra_morphism(f: LinearMap, src, dst) -> VerificationReport:
    """Delta(f(a)) = f(a_(1)) (x) f(a_(2)) and counit preservation."""
    C, D = _coalgebra_of(src), _coalgebra_of(dst)
    _check_map_dims(f, C, D, "f")
    images = f.cols

    def cases():
        for i in range(C.dim):
            yield (("morphism_comult", i), iterated_delta(D, images[i], 2),
                   lincomb((c * x, {(s, t): y for t, y in images[k].items()})
                           for (j, k), c in C.delta_basis(i).items()
                           for s, x in images[j].items()))
            yield ("morphism_counit", i), D.counit_sparse(images[i]), C.counit[i]

    return first_failure("coalgebra_morphism", cases(), labelled([C.labels], D.labels))


def is_hopf_morphism(f: LinearMap, src: HopfData, dst: HopfData) -> VerificationReport:
    return merge_reports({
        "algebra_morphism": is_algebra_morphism(f, src, dst),
        "coalgebra_morphism": is_coalgebra_morphism(f, src, dst),
    })


def is_group_like(H, v: dict) -> bool:
    """Nonzero sparse v with Delta(v) = v (x) v and counit 1."""
    C = _coalgebra_of(H)
    if not v:
        return False
    t = iterated_delta(C, v, 1)
    if iterated_delta(C, v, 2) != tensor_outer(t, t):
        return False
    return C.counit_sparse(v) == C.ctx.one


def group_like_basis_indices(H) -> list[int]:
    C = _coalgebra_of(H)
    return [i for i in range(C.dim) if is_group_like(H, {i: C.ctx.one})]


# ---------------------------------------------------------------------------
# serialization


def _table_to_json(table: dict, keys: str) -> list:
    """A structure table as rows {a: i, b: j, "terms": [{k: t, "c": x}]} in
    sorted order, where keys spells a, b, k: "ijk" or "ghi"."""
    a, b, k = keys
    return [{a: i, b: j, "terms": [{k: t, "c": c.to_json()} for t, c in sorted(terms.items())]}
            for (i, j), terms in sorted(table.items())]


# any JSON value: a coefficient "c" is decided by scalar_from_json
_ANY = (dict, list, str, int, float, bool, type(None))


def _table_from_json(rows: list, ctx: FieldCtx, keys: str) -> dict:
    """The inverse of _table_to_json; indices must be JSON integers."""
    a, b, k = keys
    entry, term = {a: int, b: int, "terms": list}, {k: int, "c": _ANY}
    out = {}
    for r in _json_shape(rows, "table", list):
        _json_shape(r, "table entry", dict, entry)
        vec = out[r[a], r[b]] = {}
        for t in r["terms"]:
            if type(t) is not dict or type(t.get(k)) is not int or "c" not in t:
                _json_shape(t, "term", dict, term)  # raises, naming the field
            vec[t[k]] = scalar_from_json(t["c"], ctx)
    return out


def hopf_to_json(H: HopfData) -> dict:
    A, C = H.algebra, H.coalgebra
    delta = []
    for i in sorted(C.delta):
        terms = [{"j": j, "k": k, "c": c.to_json()} for (j, k), c in sorted(C.delta[i].items())]
        delta.append({"i": i, "terms": terms})
    return {
        "field": A.ctx.to_json(),
        "dim": A.dim,
        "labels": list(A.labels),
        "unit": [A.unit.get(i, A.ctx.zero).to_json() for i in range(A.dim)],
        "mult": _table_to_json(A.mult, "ijk"),
        "delta": delta,
        "counit": [c.to_json() for c in C.counit],
        "antipode": H.antipode.to_json(),
    }


def hopf_from_json(obj: dict) -> HopfData:
    return _hopf_from_json_in(obj, parse_field(_json_shape(obj, "Hopf data", dict,
                                                           {"field": str})["field"]))


def _hopf_from_json_in(obj: dict, ctx: FieldCtx) -> HopfData:
    """hopf_from_json with its scalars parsed in ctx, which the caller has
    matched with obj["field"]: Hopf data read in one context share its
    parsed literals, its zero and its one."""
    _json_shape(obj, "Hopf data", dict, {"dim": int, "unit": list, "mult": list, "delta": list,
                                         "counit": list, "antipode": list},
                {"labels": (list, type(None))})
    dim, labels = obj["dim"], obj.get("labels")
    unit = [scalar_from_json(c, ctx) for c in obj["unit"]]
    if len(unit) != dim:
        raise ValueError("unit length does not match dim")
    mult = _table_from_json(obj["mult"], ctx, "ijk")
    entry, term = {"i": int, "terms": list}, {"j": int, "k": int, "c": _ANY}
    delta = {}
    for e in obj["delta"]:
        _json_shape(e, "delta entry", dict, entry)
        vec = delta[e["i"]] = {}
        for t in e["terms"]:
            if (type(t) is not dict or type(t.get("j")) is not int
                    or type(t.get("k")) is not int or "c" not in t):
                _json_shape(t, "delta term", dict, term)  # raises, naming the field
            vec[t["j"], t["k"]] = scalar_from_json(t["c"], ctx)
    counit = [scalar_from_json(c, ctx) for c in obj["counit"]]
    alg = AlgebraData(ctx, dim, dict(enumerate(unit)), mult, labels=labels)
    coalg = CoalgebraData(ctx, dim, delta, counit, labels=labels)
    return HopfData(alg, coalg, LinearMap.from_json(obj["antipode"], ctx))
