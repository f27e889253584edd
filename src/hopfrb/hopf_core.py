"""Finite-dimensional Hopf algebras presented by structure constants.

An algebra is a sparse multiplication table over a fixed basis, a coalgebra a
sparse comultiplication table plus a counit vector, and a Hopf algebra the
pair together with an antipode matrix.  Checkers verify the defining
identities basis element by basis element and return the first counterexample
in lexicographic basis order.

Everything is exact (see scalars); dimensions are capped at MAX_DIM.
"""

from __future__ import annotations

from .report import VerificationReport, first_failure, merge_reports
from .scalars import FieldCtx, Scalar, parse_field, scalar_from_json

MAX_DIM = 256


# ---------------------------------------------------------------------------
# dense vectors


def vec_zeros(ctx: FieldCtx, n: int) -> list:
    z = ctx.zero
    return [z] * n


def basis_vec(ctx: FieldCtx, n: int, i: int) -> list:
    v = vec_zeros(ctx, n)
    v[i] = ctx.one
    return v


def vec_scale(c: Scalar, v: list) -> list:
    return [c * x for x in v]


def vec_eq(a: list, b: list) -> bool:
    return all((x - y).is_zero for x, y in zip(a, b))


def dense_to_sparse(v: list) -> dict:
    return {i: c for i, c in enumerate(v) if not c.is_zero}


def sparse_to_dense(ctx: FieldCtx, n: int, sv: dict) -> list:
    v = vec_zeros(ctx, n)
    for i, c in sv.items():
        v[i] = c
    return v


def vec_str(v: list, labels: list[str]) -> str:
    terms = []
    for i, c in enumerate(v):
        if not c.is_zero:
            terms.append(f"({c})*{labels[i]}")
    return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# linear maps


class LinearMap:
    """Matrix of scalars stored by columns: cols[j] is the image of e_j."""

    __slots__ = ("ctx", "cols", "domain_dim", "codomain_dim")

    def __init__(self, ctx: FieldCtx, cols: list):
        self.ctx = ctx
        self.cols = [list(c) for c in cols]
        self.domain_dim = len(self.cols)
        self.codomain_dim = len(self.cols[0]) if self.cols else 0
        for c in self.cols:
            assert len(c) == self.codomain_dim

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "LinearMap":
        return cls(ctx, [basis_vec(ctx, n, i) for i in range(n)])

    @classmethod
    def from_rows(cls, ctx: FieldCtx, rows: list) -> "LinearMap":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        return cls(ctx, [[rows[i][j] for i in range(nrows)] for j in range(ncols)])

    def to_rows(self) -> list:
        return [[self.cols[j][i] for j in range(self.domain_dim)]
                for i in range(self.codomain_dim)]

    def apply(self, v: list) -> list:
        out = vec_zeros(self.ctx, self.codomain_dim)
        for j, c in enumerate(v):
            if not c.is_zero:
                col = self.cols[j]
                out = [acc + c * x for acc, x in zip(out, col)]
        return out

    def apply_sparse(self, sv: dict) -> list:
        out = vec_zeros(self.ctx, self.codomain_dim)
        for j, c in sv.items():
            col = self.cols[j]
            out = [acc + c * x for acc, x in zip(out, col)]
        return out

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        assert other.codomain_dim == self.domain_dim
        return LinearMap(self.ctx, [self.apply(c) for c in other.cols])

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (self.domain_dim == other.domain_dim
                and self.codomain_dim == other.codomain_dim
                and all(vec_eq(a, b) for a, b in zip(self.cols, other.cols)))

    def inverse(self) -> "LinearMap":
        """Exact inverse by Gauss-Jordan elimination; ValueError if singular."""
        if self.domain_dim != self.codomain_dim:
            raise ValueError("only square maps can be inverted")
        n = self.domain_dim
        ctx = self.ctx
        a = self.to_rows()
        inv = [basis_vec(ctx, n, i) for i in range(n)]
        for col in range(n):
            piv = None
            for r in range(col, n):
                if not a[r][col].is_zero:
                    piv = r
                    break
            if piv is None:
                raise ValueError("singular matrix")
            a[col], a[piv] = a[piv], a[col]
            inv[col], inv[piv] = inv[piv], inv[col]
            scale = a[col][col].inverse()
            a[col] = vec_scale(scale, a[col])
            inv[col] = vec_scale(scale, inv[col])
            for r in range(n):
                if r != col and not a[r][col].is_zero:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                    inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
        return LinearMap.from_rows(ctx, inv)

    def is_invertible(self) -> bool:
        try:
            self.inverse()
            return True
        except ValueError:
            return False

    def to_json(self):
        return [[c.to_json() for c in row] for row in self.to_rows()]

    @classmethod
    def from_json(cls, obj, ctx: FieldCtx) -> "LinearMap":
        rows = [[scalar_from_json(c, ctx) for c in row] for row in obj]
        return cls.from_rows(ctx, rows)


# ---------------------------------------------------------------------------
# structure-constant data


def _clean_sparse(d: dict) -> dict:
    return {k: c for k, c in d.items() if not c.is_zero}


class AlgebraData:
    """Unital associative algebra by structure constants.

    mult maps a basis pair (i, j) to the sparse expansion of e_i * e_j;
    missing pairs multiply to zero.  Nothing is verified at construction
    time: check_algebra does that.
    """

    __slots__ = ("ctx", "dim", "labels", "unit", "mult")

    def __init__(self, ctx: FieldCtx, dim: int, unit: list, mult: dict,
                 labels: list[str] | None = None):
        if dim > MAX_DIM:
            raise ValueError(f"dimension {dim} exceeds cap {MAX_DIM}")
        assert dim >= 1 and len(unit) == dim
        self.ctx = ctx
        self.dim = dim
        self.unit = list(unit)
        self.labels = list(labels) if labels is not None else [f"e{i}" for i in range(dim)]
        assert len(self.labels) == dim
        self.mult = {}
        for (i, j), terms in mult.items():
            assert 0 <= i < dim and 0 <= j < dim
            t = _clean_sparse(terms)
            if t:
                self.mult[(i, j)] = t

    def mul_basis(self, i: int, j: int) -> dict:
        return self.mult.get((i, j), {})

    def mul_sparse(self, sa: dict, sb: dict) -> dict:
        out: dict = {}
        for i, ca in sa.items():
            for j, cb in sb.items():
                c = ca * cb
                for k, ck in self.mul_basis(i, j).items():
                    prev = out.get(k)
                    out[k] = c * ck if prev is None else prev + c * ck
        return _clean_sparse(out)

    def mul_vec(self, a: list, b: list) -> list:
        s = self.mul_sparse(dense_to_sparse(a), dense_to_sparse(b))
        return sparse_to_dense(self.ctx, self.dim, s)


class CoalgebraData:
    """Coalgebra by structure constants: delta[i] expands e_i sparsely in
    the tensor square, counit is a dense weight vector."""

    __slots__ = ("ctx", "dim", "labels", "delta", "counit")

    def __init__(self, ctx: FieldCtx, dim: int, delta: dict, counit: list,
                 labels: list[str] | None = None):
        if dim > MAX_DIM:
            raise ValueError(f"dimension {dim} exceeds cap {MAX_DIM}")
        assert len(counit) == dim
        self.ctx = ctx
        self.dim = dim
        self.counit = list(counit)
        self.labels = list(labels) if labels is not None else [f"e{i}" for i in range(dim)]
        self.delta = {}
        for i, terms in delta.items():
            assert 0 <= i < dim
            t = _clean_sparse(terms)
            if t:
                self.delta[i] = t

    def delta_basis(self, i: int) -> dict:
        return self.delta.get(i, {})

    def counit_sparse(self, sv: dict) -> Scalar:
        out = self.ctx.zero
        for i, c in sv.items():
            out = out + c * self.counit[i]
        return out

    def counit_vec(self, v: list) -> Scalar:
        return self.counit_sparse(dense_to_sparse(v))


class HopfData:
    """Algebra + coalgebra + antipode over one basis."""

    __slots__ = ("algebra", "coalgebra", "antipode")

    def __init__(self, algebra: AlgebraData, coalgebra: CoalgebraData, antipode: LinearMap):
        assert algebra.dim == coalgebra.dim == antipode.domain_dim == antipode.codomain_dim
        assert algebra.ctx == coalgebra.ctx == antipode.ctx
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
    def unit(self) -> list:
        return self.algebra.unit

    def mul(self, a: list, b: list) -> list:
        return self.algebra.mul_vec(a, b)


def _algebra_of(x) -> AlgebraData:
    return x.algebra if isinstance(x, HopfData) else x


def _coalgebra_of(x) -> CoalgebraData:
    return x.coalgebra if isinstance(x, HopfData) else x


# ---------------------------------------------------------------------------
# sparse tensors with Sweedler-leg operations


class TensorElement:
    """Sparse element of the rank-fold tensor power of one based space.

    terms maps index tuples to nonzero scalars.
    """

    __slots__ = ("ctx", "rank", "terms")

    def __init__(self, ctx: FieldCtx, rank: int, terms: dict | None = None):
        self.ctx = ctx
        self.rank = rank
        self.terms: dict = {}
        if terms:
            for tup, c in terms.items():
                assert len(tup) == rank
                if not c.is_zero:
                    self.terms[tup] = c

    def add_term(self, tup: tuple, c: Scalar):
        prev = self.terms.get(tup)
        tot = c if prev is None else prev + c
        if tot.is_zero:
            self.terms.pop(tup, None)
        else:
            self.terms[tup] = tot

    def add(self, other: "TensorElement") -> "TensorElement":
        assert self.rank == other.rank
        out = TensorElement(self.ctx, self.rank, dict(self.terms))
        for tup, c in other.terms.items():
            out.add_term(tup, c)
        return out

    def scale(self, c: Scalar) -> "TensorElement":
        if c.is_zero:
            return TensorElement(self.ctx, self.rank)
        return TensorElement(self.ctx, self.rank, {t: c * x for t, x in self.terms.items()})

    def sub(self, other: "TensorElement") -> "TensorElement":
        return self.add(other.scale(self.ctx.from_int(-1)))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self.rank == other.rank and self.sub(other).is_zero

    def to_str(self, labels: list[str]) -> str:
        if not self.terms:
            return "0"
        parts = []
        for tup in sorted(self.terms):
            c = self.terms[tup]
            parts.append(f"({c})*" + "(x)".join(labels[i] for i in tup))
        return " + ".join(parts)


def tensor_from_sparse_vec(ctx: FieldCtx, sv: dict) -> TensorElement:
    return TensorElement(ctx, 1, {(i,): c for i, c in sv.items()})


def tensor_outer(a: TensorElement, b: TensorElement) -> TensorElement:
    out = TensorElement(a.ctx, a.rank + b.rank)
    for ta, ca in a.terms.items():
        for tb, cb in b.terms.items():
            out.add_term(ta + tb, ca * cb)
    return out


def tensor_apply_delta(coalg: CoalgebraData, t: TensorElement, leg: int) -> TensorElement:
    """Replace one leg by its comultiplication, raising the rank by one."""
    out = TensorElement(t.ctx, t.rank + 1)
    for tup, c in t.terms.items():
        for (j, k), d in coalg.delta_basis(tup[leg]).items():
            out.add_term(tup[:leg] + (j, k) + tup[leg + 1:], c * d)
    return out


def tensor_apply_counit(coalg: CoalgebraData, t: TensorElement, leg: int) -> TensorElement:
    out = TensorElement(t.ctx, t.rank - 1)
    for tup, c in t.terms.items():
        w = coalg.counit[tup[leg]]
        if not w.is_zero:
            out.add_term(tup[:leg] + tup[leg + 1:], c * w)
    return out


def tensor_apply_map(f: LinearMap, t: TensorElement, leg: int) -> TensorElement:
    out = TensorElement(t.ctx, t.rank)
    for tup, c in t.terms.items():
        col = f.cols[tup[leg]]
        for k, x in enumerate(col):
            if not x.is_zero:
                out.add_term(tup[:leg] + (k,) + tup[leg + 1:], c * x)
    return out


def tensor_mul_legs(alg: AlgebraData, t: TensorElement, leg: int) -> TensorElement:
    """Multiply legs leg and leg+1 together, lowering the rank by one."""
    out = TensorElement(t.ctx, t.rank - 1)
    for tup, c in t.terms.items():
        for k, d in alg.mul_basis(tup[leg], tup[leg + 1]).items():
            out.add_term(tup[:leg] + (k,) + tup[leg + 2:], c * d)
    return out


def tensor_permute(t: TensorElement, perm: list[int]) -> TensorElement:
    """Output slot s takes the source leg perm[s]."""
    assert sorted(perm) == list(range(t.rank))
    out = TensorElement(t.ctx, t.rank)
    for tup, c in t.terms.items():
        out.add_term(tuple(tup[p] for p in perm), c)
    return out


def tensor_mul(alg: AlgebraData, a: TensorElement, b: TensorElement) -> TensorElement:
    """Componentwise product of two equal-rank tensors over one algebra."""
    assert a.rank == b.rank
    out = TensorElement(a.ctx, a.rank)
    for ta, ca in a.terms.items():
        for tb, cb in b.terms.items():
            partial = {(): ca * cb}
            for ia, ib in zip(ta, tb):
                prod = alg.mul_basis(ia, ib)
                if not prod:
                    partial = {}
                    break
                nxt: dict = {}
                for pref, c in partial.items():
                    for k, d in prod.items():
                        key = pref + (k,)
                        prev = nxt.get(key)
                        nxt[key] = c * d if prev is None else prev + c * d
                partial = nxt
            for tup, c in partial.items():
                out.add_term(tup, c)
    return out


def iterated_delta(coalg: CoalgebraData, sv: dict, legs: int) -> TensorElement:
    """Sweedler legs of a sparse vector: legs=1 is the vector itself,
    legs=2 is Delta, legs=3 is (Delta (x) id) Delta, and so on."""
    assert legs >= 1
    t = tensor_from_sparse_vec(coalg.ctx, sv)
    for _ in range(legs - 1):
        t = tensor_apply_delta(coalg, t, 0)
    return t


def delta_power(H, v: list, k: int) -> TensorElement:
    """Delta iterated into k Sweedler legs, k in 1..3."""
    if not 1 <= k <= 3:
        raise ValueError("delta_power supports 1 to 3 legs")
    return iterated_delta(_coalgebra_of(H), dense_to_sparse(v), k)


# ---------------------------------------------------------------------------
# axiom checkers


# identities whose right side is the basis element itself, shown by its label
_BASIS_RHS = ("unit", "counit_left", "counit_right")


def _show(x, labels: list[str]) -> str:
    """A tensor, dense vector, sparse vector or scalar as witness text."""
    if isinstance(x, TensorElement):
        return x.to_str(labels)
    if isinstance(x, list):
        return vec_str(x, labels)
    if isinstance(x, dict):
        return " + ".join(f"({c})*{labels[k]}" for k, c in sorted(x.items())) or "0"
    return str(x)


def _witness(labels: list[str], shown: list[str] | None = None):
    """first_failure formatter: indices name basis elements of labels, and
    both sides print over shown (labels unless given)."""
    shown = labels if shown is None else shown

    def witness(identity, indices, lhs, rhs) -> dict:
        return {
            "identity": identity,
            "indices": list(indices),
            "labels": [labels[i] for i in indices],
            "lhs": _show(lhs, shown),
            "rhs": labels[indices[0]] if identity in _BASIS_RHS else _show(rhs, shown),
        }
    return witness


def check_algebra(A) -> VerificationReport:
    """Associativity on basis triples plus two-sided unit."""
    A = _algebra_of(A)
    one = A.ctx.one
    su = dense_to_sparse(A.unit)

    def cases():
        for i in range(A.dim):
            e_i = {i: one}
            yield ("unit", i), A.mul_sparse(su, e_i), e_i
            yield ("unit", i), A.mul_sparse(e_i, su), e_i
        for i in range(A.dim):
            for j in range(A.dim):
                ij = A.mul_basis(i, j)
                for k in range(A.dim):
                    yield (("associativity", i, j, k), A.mul_sparse(ij, {k: one}),
                           A.mul_sparse({i: one}, A.mul_basis(j, k)))

    return first_failure("algebra", cases(), _witness(A.labels))


def check_coalgebra(C) -> VerificationReport:
    """Coassociativity and the two counit laws on every basis element."""
    C = _coalgebra_of(C)
    one = C.ctx.one
    deltas = [iterated_delta(C, {i: one}, 2) for i in range(C.dim)]

    def cases():
        for i, t in enumerate(deltas):
            yield ("coassociativity", i), tensor_apply_delta(C, t, 0), tensor_apply_delta(C, t, 1)
        for i, t in enumerate(deltas):
            e_i = TensorElement(C.ctx, 1, {(i,): one})
            yield ("counit_left", i), tensor_apply_counit(C, t, 0), e_i
            yield ("counit_right", i), tensor_apply_counit(C, t, 1), e_i

    return first_failure("coalgebra", cases(), _witness(C.labels))


def check_bialgebra_compat(H: HopfData) -> VerificationReport:
    """Delta and the counit are algebra morphisms; Delta(1) = 1 (x) 1."""
    A, C = H.algebra, H.coalgebra
    one = A.ctx.one
    su = dense_to_sparse(A.unit)
    deltas = [iterated_delta(C, {i: one}, 2) for i in range(A.dim)]

    def cases():
        unit = tensor_from_sparse_vec(A.ctx, su)
        yield ("delta_unit",), iterated_delta(C, su, 2), tensor_outer(unit, unit)
        yield ("counit_unit",), C.counit_sparse(su), one
        for i in range(A.dim):
            for j in range(A.dim):
                prod = A.mul_basis(i, j)
                yield (("delta_multiplicative", i, j), iterated_delta(C, prod, 2),
                       tensor_mul(A, deltas[i], deltas[j]))
                yield (("counit_multiplicative", i, j), C.counit_sparse(prod),
                       C.counit[i] * C.counit[j])

    return first_failure("bialgebra_compat", cases(), _witness(A.labels))


def check_antipode(H: HopfData) -> VerificationReport:
    """Both convolution-inverse laws, the antihomomorphism identities for
    multiplication and comultiplication, S(1) = 1, and counit invariance."""
    A, C, S = H.algebra, H.coalgebra, H.antipode
    ctx = A.ctx
    one_vec = A.unit
    deltas = [iterated_delta(C, {i: ctx.one}, 2) for i in range(A.dim)]
    images = [dense_to_sparse(col) for col in S.cols]

    def product(t: TensorElement) -> list:
        terms = tensor_mul_legs(A, t, 0).terms
        return sparse_to_dense(ctx, A.dim, {k: c for (k,), c in terms.items()})

    def cases():
        for i, t in enumerate(deltas):
            target = vec_scale(C.counit[i], one_vec)
            yield ("antipode_left", i), product(tensor_apply_map(S, t, 0)), target
            yield ("antipode_right", i), product(tensor_apply_map(S, t, 1)), target
        yield ("antipode_unit",), S.apply(one_vec), one_vec
        for i in range(A.dim):
            yield ("antipode_counit", i), C.counit_sparse(images[i]), C.counit[i]
        for i in range(A.dim):
            for j in range(A.dim):
                yield (("antipode_antihom_mult", i, j),
                       dense_to_sparse(S.apply_sparse(A.mul_basis(i, j))),
                       A.mul_sparse(images[j], images[i]))
        for i, t in enumerate(deltas):
            yield (("antipode_antihom_comult", i), iterated_delta(C, images[i], 2),
                   tensor_permute(tensor_apply_map(S, tensor_apply_map(S, t, 0), 1), [1, 0]))

    return first_failure("antipode", cases(), _witness(A.labels))


def check_hopf(H: HopfData) -> VerificationReport:
    """Full Hopf-algebra verification; reports the first failing identity."""
    return merge_reports({
        "algebra": check_algebra(H),
        "coalgebra": check_coalgebra(H),
        "bialgebra_compat": check_bialgebra_compat(H),
        "antipode": check_antipode(H),
    })


def is_cocommutative(H) -> bool:
    C = _coalgebra_of(H)
    for i in range(C.dim):
        t = iterated_delta(C, {i: C.ctx.one}, 2)
        if t != tensor_permute(t, [1, 0]):
            return False
    return True


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


def is_algebra_morphism(f: LinearMap, src, dst) -> VerificationReport:
    """f(1) = 1 and f(ab) = f(a)f(b) on basis pairs."""
    A, B = _algebra_of(src), _algebra_of(dst)
    images = [dense_to_sparse(col) for col in f.cols]

    def cases():
        yield ("morphism_unit",), f.apply(A.unit), B.unit
        for i in range(A.dim):
            for j in range(A.dim):
                yield (("morphism_mult", i, j), dense_to_sparse(f.apply_sparse(A.mul_basis(i, j))),
                       B.mul_sparse(images[i], images[j]))

    return first_failure("algebra_morphism", cases(), _witness(A.labels, B.labels))


def is_coalgebra_morphism(f: LinearMap, src, dst) -> VerificationReport:
    """Delta(f(a)) = (f (x) f)(Delta(a)) and counit preservation."""
    C, D = _coalgebra_of(src), _coalgebra_of(dst)
    one = C.ctx.one
    images = [dense_to_sparse(col) for col in f.cols]

    def cases():
        for i in range(C.dim):
            t = iterated_delta(C, {i: one}, 2)
            yield (("morphism_comult", i), iterated_delta(D, images[i], 2),
                   tensor_apply_map(f, tensor_apply_map(f, t, 0), 1))
            yield ("morphism_counit", i), D.counit_sparse(images[i]), C.counit[i]

    return first_failure("coalgebra_morphism", cases(), _witness(C.labels, D.labels))


def is_hopf_morphism(f: LinearMap, src: HopfData, dst: HopfData) -> VerificationReport:
    return merge_reports({
        "algebra_morphism": is_algebra_morphism(f, src, dst),
        "coalgebra_morphism": is_coalgebra_morphism(f, src, dst),
    })


def is_group_like(H, v: list) -> bool:
    """Nonzero v with Delta(v) = v (x) v and counit 1."""
    C = _coalgebra_of(H)
    sv = dense_to_sparse(v)
    if not sv:
        return False
    t = tensor_from_sparse_vec(C.ctx, sv)
    if iterated_delta(C, sv, 2) != tensor_outer(t, t):
        return False
    return C.counit_sparse(sv) == C.ctx.one


def group_like_basis_indices(H) -> list[int]:
    C = _coalgebra_of(H)
    out = []
    for i in range(C.dim):
        v = basis_vec(C.ctx, C.dim, i)
        if is_group_like(H, v):
            out.append(i)
    return out


def is_primitive(H, v: list, g: list) -> bool:
    """Delta(v) = v (x) 1 + g (x) v, the skew-primitive law for group-like g."""
    C = _coalgebra_of(H)
    A = _algebra_of(H)
    sv = dense_to_sparse(v)
    expected = tensor_outer(tensor_from_sparse_vec(C.ctx, sv),
                            tensor_from_sparse_vec(C.ctx, dense_to_sparse(A.unit)))
    expected = expected.add(tensor_outer(tensor_from_sparse_vec(C.ctx, dense_to_sparse(g)),
                                         tensor_from_sparse_vec(C.ctx, sv)))
    return iterated_delta(C, sv, 2) == expected


def check_cobrace_compat(m: AlgebraData, D1: CoalgebraData, D2: CoalgebraData,
                         S: LinearMap) -> VerificationReport:
    """Compatibility of a second comultiplication with a first Hopf structure:

        (id (x) Delta_1) Delta_2(a)
            = a_(11') S(a_(2)) a_(31') (x) a_(12') (x) a_(32')

    where primes are Delta_2 legs, bare digits Delta_1 legs, m is the shared
    multiplication, and S is the antipode belonging to Delta_1.
    """
    A = _algebra_of(m)
    C1, C2 = _coalgebra_of(D1), _coalgebra_of(D2)
    assert A.dim == C1.dim == C2.dim and A.ctx == C1.ctx == C2.ctx
    one = A.ctx.one

    def cases():
        for a in range(A.dim):
            lhs = tensor_apply_delta(C1, iterated_delta(C2, {a: one}, 2), 1)
            t = iterated_delta(C1, {a: one}, 3)
            t = tensor_apply_delta(C2, t, 0)           # (11', 12', 2, 3)
            t = tensor_apply_delta(C2, t, 3)           # (11', 12', 2, 31', 32')
            t = tensor_apply_map(S, t, 2)              # S on the middle Delta_1 leg
            t = tensor_permute(t, [0, 2, 3, 1, 4])     # (11', S(2), 31', 12', 32')
            t = tensor_mul_legs(A, t, 0)
            yield (a,), lhs, tensor_mul_legs(A, t, 0)

    return first_failure("cobrace_compat", cases(), _witness(A.labels))


# ---------------------------------------------------------------------------
# serialization


def hopf_to_json(H: HopfData) -> dict:
    A, C = H.algebra, H.coalgebra
    mult = []
    for (i, j) in sorted(A.mult):
        terms = [{"k": k, "c": c.to_json()} for k, c in sorted(A.mult[(i, j)].items())]
        mult.append({"i": i, "j": j, "terms": terms})
    delta = []
    for i in sorted(C.delta):
        terms = [{"j": j, "k": k, "c": c.to_json()} for (j, k), c in sorted(C.delta[i].items())]
        delta.append({"i": i, "terms": terms})
    return {
        "field": A.ctx.to_json(),
        "dim": A.dim,
        "labels": list(A.labels),
        "unit": [c.to_json() for c in A.unit],
        "mult": mult,
        "delta": delta,
        "counit": [c.to_json() for c in C.counit],
        "antipode": H.antipode.to_json(),
    }


def hopf_from_json(obj: dict, max_n: int = 64, max_p: int = 97) -> HopfData:
    ctx = parse_field(obj["field"], max_n=max_n, max_p=max_p)
    dim = int(obj["dim"])
    labels = obj.get("labels")
    unit = [scalar_from_json(c, ctx) for c in obj["unit"]]
    mult = {}
    for entry in obj["mult"]:
        i, j = int(entry["i"]), int(entry["j"])
        if not 0 <= i < dim or not 0 <= j < dim:
            raise ValueError(f"mult entry ({i},{j}) out of range for dim {dim}")
        terms = {}
        for t in entry["terms"]:
            k = int(t["k"])
            if not 0 <= k < dim:
                raise ValueError(f"mult target {k} out of range for dim {dim}")
            terms[k] = scalar_from_json(t["c"], ctx)
        mult[(i, j)] = terms
    delta = {}
    for entry in obj["delta"]:
        i = int(entry["i"])
        if not 0 <= i < dim:
            raise ValueError(f"delta source {i} out of range for dim {dim}")
        terms = {}
        for t in entry["terms"]:
            j, k = int(t["j"]), int(t["k"])
            if not 0 <= j < dim or not 0 <= k < dim:
                raise ValueError(f"delta target ({j},{k}) out of range for dim {dim}")
            terms[(j, k)] = scalar_from_json(t["c"], ctx)
        delta[i] = terms
    counit = [scalar_from_json(c, ctx) for c in obj["counit"]]
    if len(counit) != dim or len(unit) != dim:
        raise ValueError("unit/counit length does not match dim")
    antipode = LinearMap.from_json(obj["antipode"], ctx)
    if antipode.domain_dim != dim or antipode.codomain_dim != dim:
        raise ValueError("antipode matrix shape does not match dim")
    alg = AlgebraData(ctx, dim, unit, mult, labels=labels)
    coalg = CoalgebraData(ctx, dim, delta, counit, labels=labels)
    return HopfData(alg, coalg, antipode)
