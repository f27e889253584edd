"""Structure-constant Hopf algebra kernel: axiom checkers and tensor legs."""

import copy
import inspect
import itertools
import json
import random
from fractions import Fraction

import pytest

from hopfrb.constructions import FamilyParams, family, group_algebra, sweedler_h4, taft
from hopfrb.hopf_core import (MAX_DIM, AlgebraData, CoalgebraData, HopfData, LinearMap,
                              check_algebra, check_antipode,
                              check_bialgebra_compat, check_coalgebra,
                              check_hopf, generating_set,
                              group_like_basis_indices,
                              hopf_from_json, hopf_to_json, is_algebra_morphism,
                              is_coalgebra_morphism, is_group_like,
                              is_hopf_morphism, iterated_delta, lincomb,
                              opposite_hopf, tensor_outer)
from hopfrb.rb_group import GroupTable
from hopfrb.scalars import FieldCtx
from helpers import tensor_apply_counit, tensor_mul_legs, tensor_permute

Q = FieldCtx.rationals()


def test_check_algebra_catches_nonassociative():
    # e1 is a unit, but e2*e2 = e2 with e2*e1 twisted breaks associativity
    one = Q.one
    mult = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one},
            (1, 1): {0: one, 1: one}}
    A = AlgebraData(Q, 2, {0: one}, mult)
    rep = check_algebra(A)
    assert rep.ok
    # now break it: e2*e2 = e1 only, and (e2 e2) e2 != e2 (e2 e2) fails
    mult_bad = dict(mult)
    mult_bad[(1, 1)] = {1: one}
    mult_bad[(0, 1)] = {1: one, 0: one}
    bad = check_algebra(AlgebraData(Q, 2, {0: one}, mult_bad))
    assert not bad.ok
    assert bad.witness is not None


def test_check_algebra_unit_witness():
    one = Q.one
    mult = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {0: one}, (1, 1): {1: one}}
    rep = check_algebra(AlgebraData(Q, 2, {0: one}, mult))
    assert not rep.ok
    assert "unit" in rep.identity


def test_group_algebra_is_hopf():
    for G in (GroupTable.cyclic(4), GroupTable.symmetric(3)):
        H = group_algebra(G, Q)
        rep = check_hopf(H)
        assert rep.ok
        assert rep.stats["identities_checked"] > 0


def test_coassociativity_witness():
    one = Q.one
    # group-like g except Delta(g) = g (x) 1: coassociativity breaks
    delta = {0: {(0, 0): one}, 1: {(1, 0): one}}
    C = CoalgebraData(Q, 2, delta, [one, one])
    rep = check_coalgebra(C)
    assert not rep.ok
    assert rep.witness["indices"] == [1]


def test_counit_axiom_witness():
    one = Q.one
    delta = {0: {(0, 0): one}, 1: {(1, 1): one}}
    C = CoalgebraData(Q, 2, delta, [one, Q.zero])
    rep = check_coalgebra(C)
    assert not rep.ok
    assert "counit" in rep.identity


def test_bialgebra_compat_negative():
    H = group_algebra(GroupTable.cyclic(2), Q)
    one = Q.one
    # redefine Delta(g) additively: no longer multiplicative with the table
    delta = {0: {(0, 0): one}, 1: {(1, 0): one, (0, 1): one}}
    C = CoalgebraData(Q, 2, delta, list(H.coalgebra.counit), H.labels)
    rep = check_bialgebra_compat(HopfData(H.algebra, C, H.antipode))
    assert not rep.ok


def test_antipode_axiom_negative():
    H4 = sweedler_h4(Q)
    broken = HopfData(H4.algebra, H4.coalgebra, LinearMap.identity(Q, 4))
    rep = check_antipode(broken)
    assert not rep.ok
    assert rep.witness is not None


def test_check_antipode_decides_the_convolution_laws_only():
    for H in (sweedler_h4(Q), taft(3, FieldCtx.cyclotomic(3)),
              group_algebra(GroupTable.symmetric(3), Q)):
        rep = check_antipode(H)
        assert rep.ok and rep.stats == {"identities_checked": 2 * H.dim}
    assert list(inspect.signature(check_antipode).parameters) == ["H"]
    # S is the unique convolution inverse of the identity: changing one
    # entry breaks a convolution law
    H4 = sweedler_h4(Q)
    cols = [dict(c) for c in H4.antipode.cols]
    cols[2][3] = Q.one
    rep = check_antipode(HopfData(H4.algebra, H4.coalgebra, LinearMap(Q, cols, 4)))
    assert rep.identity in ("antipode_left", "antipode_right")


def test_iterated_delta_h4_oracle():
    H4 = sweedler_h4(Q)
    one = Q.one
    x = {2: one}
    # Delta(x) = x (x) 1 + g (x) x
    d2 = iterated_delta(H4.coalgebra, x, 2)
    assert d2 == {(2, 0): one, (1, 2): one}
    # one more leg: x11 + gx1 + ggx
    d3 = iterated_delta(H4.coalgebra, x, 3)
    assert d3 == {(2, 0, 0): one, (1, 2, 0): one, (1, 1, 2): one}
    assert {len(k) for k in iterated_delta(H4.coalgebra, x, 4)} == {4}


def test_checkers_leave_the_coproduct_table_unchanged():
    # the checkers read the stored Delta(e_i) in place
    H4 = sweedler_h4(Q)
    broken = HopfData(H4.algebra, H4.coalgebra, LinearMap.identity(Q, 4))
    for H, ok in ((H4, True), (taft(3, FieldCtx.cyclotomic(3)), True), (broken, False)):
        before = copy.deepcopy(H.coalgebra.delta)
        assert check_hopf(H).ok == ok
        assert H.coalgebra.delta == before


def test_tensor_leg_operations():
    one = Q.one
    two = Q.from_int(2)
    a = {(0, 1): one}
    b = {(2,): two}
    out = tensor_outer(a, b)
    assert out == {(0, 1, 2): two}
    assert tensor_permute(out, [2, 0, 1]) == {(2, 0, 1): two}
    H = group_algebra(GroupTable.cyclic(3), Q)
    prod = tensor_mul_legs(H.algebra, {(1, 2): two}, 0)
    assert prod == {(0,): two}


def test_tensor_leg_arguments_are_checked():
    H4 = sweedler_h4(Q)
    with pytest.raises(ValueError, match="at least one leg"):
        iterated_delta(H4.coalgebra, {2: Q.one}, 0)
    t = H4.coalgebra.delta_basis(2)
    for perm in ([0, 0], [0, 1, 2], [1]):
        with pytest.raises(ValueError, match="not a permutation"):
            tensor_permute(t, perm)
    assert tensor_permute({}, [2, 0, 1]) == {}


def test_counit_collapses_sweedler_leg():
    H4 = sweedler_h4(Q)
    for i in range(4):
        t = H4.coalgebra.delta_basis(i)
        left = tensor_apply_counit(H4.coalgebra, t, 0)
        assert left == {(i,): Q.one}


def test_group_like_and_primitive_detection():
    H4 = sweedler_h4(Q)
    assert group_like_basis_indices(H4) == [0, 1]
    g = {1: Q.one}
    x = {2: Q.one}
    assert is_group_like(H4, g)
    assert not is_group_like(H4, x)


def test_opposite_hopf():
    H4 = sweedler_h4(Q)
    op = opposite_hopf(H4)
    assert check_hopf(op).ok
    # multiplication flipped: in H4, x*g = -g*x
    assert op.algebra.mul_basis(1, 2) == H4.algebra.mul_basis(2, 1)
    # the antipode of the opposite is the inverse of S
    assert op.antipode.compose(H4.antipode).cols == LinearMap.identity(Q, 4).cols


def test_opposite_requires_invertible_antipode():
    H = group_algebra(GroupTable.cyclic(2), Q)
    singular = LinearMap(Q, [{0: Q.one}, {0: Q.one}], 2)
    broken = HopfData(H.algebra, H.coalgebra, singular)
    with pytest.raises(ValueError):
        opposite_hopf(broken)


def test_antipode_is_morphism_into_opposite():
    H4 = sweedler_h4(Q)
    op4 = opposite_hopf(H4)
    assert is_algebra_morphism(H4.antipode, H4, op4).ok
    # S twists comultiplication, so it is not a coalgebra morphism here
    assert not is_coalgebra_morphism(H4.antipode, H4, op4).ok
    # on a cocommutative algebra S: H -> H^op is a full Hopf morphism
    H = group_algebra(GroupTable.symmetric(3), Q)
    assert is_hopf_morphism(H.antipode, H, opposite_hopf(H)).ok


def test_morphism_checks_reject_a_map_of_the_wrong_shape():
    # on k[Z2], every map must go from dim 2 to dim 2
    H = group_algebra(GroupTable.cyclic(2), Q)
    one = Q.one
    maps = {(3, 2): LinearMap(Q, [{0: one}, {1: one}, {0: one}], 2),
            (2, 3): LinearMap(Q, [{0: one}, {1: one}], 3),
            (1, 2): LinearMap(Q, [{0: one}], 2)}
    for (src, dst), f in maps.items():
        for check in (is_algebra_morphism, is_coalgebra_morphism, is_hopf_morphism):
            with pytest.raises(ValueError, match=f"f maps dim {src} to dim {dst},"
                                                 " expected dim 2 to dim 2"):
                check(f, H, H)


def test_hopf_json_round_trip():
    H = taft(3, FieldCtx.cyclotomic(3))
    obj = hopf_to_json(H)
    back = hopf_from_json(obj)
    assert hopf_to_json(back) == obj
    assert json.dumps(hopf_to_json(back), sort_keys=True) == json.dumps(obj, sort_keys=True)
    assert check_hopf(back).ok


def test_dimension_cap():
    with pytest.raises(ValueError):
        AlgebraData(Q, MAX_DIM + 1, {}, {})




# ---------------------------------------------------------------------------
# input validation: ValueError, so that python -O behaves the same


def test_linear_map_rejects_bad_input():
    with pytest.raises(ValueError):
        LinearMap(Q, [{2: Q.one}], 2)
    with pytest.raises(ValueError):
        LinearMap(Q, [{-1: Q.one}], 2)
    with pytest.raises(ValueError):
        LinearMap.from_rows(Q, [[Q.one, Q.zero], [Q.one]])
    with pytest.raises(ValueError):
        LinearMap.identity(Q, 2).compose(LinearMap.identity(Q, 3))


def test_algebra_data_rejects_bad_input():
    one = Q.one
    with pytest.raises(ValueError):
        AlgebraData(Q, 0, {}, {})
    with pytest.raises(ValueError):
        AlgebraData(Q, 2, {2: one}, {})
    with pytest.raises(ValueError):
        AlgebraData(Q, 2, {0: one}, {(0, 2): {0: one}})
    with pytest.raises(ValueError):
        AlgebraData(Q, 2, {0: one}, {(0, 1): {5: one}})
    with pytest.raises(ValueError):
        AlgebraData(Q, 2, {0: one}, {}, labels=["a"])


def test_coalgebra_data_rejects_bad_input():
    one = Q.one
    with pytest.raises(ValueError):
        CoalgebraData(Q, 2, {}, [one])
    with pytest.raises(ValueError):
        CoalgebraData(Q, 2, {2: {(0, 0): one}}, [one, one])
    with pytest.raises(ValueError):
        CoalgebraData(Q, 2, {1: {(0, 2): one}}, [one, one])


def test_hopf_data_rejects_mismatches():
    H = group_algebra(GroupTable.cyclic(2), Q)
    with pytest.raises(ValueError):
        HopfData(H.algebra, H.coalgebra, LinearMap.identity(Q, 3))
    with pytest.raises(ValueError):
        HopfData(H.algebra, group_algebra(GroupTable.cyclic(3), Q).coalgebra, H.antipode)
    with pytest.raises(ValueError):
        HopfData(H.algebra, H.coalgebra, LinearMap.identity(FieldCtx.prime(5), 2))


def test_hopf_from_json_rejects_out_of_range_entries():
    obj = hopf_to_json(sweedler_h4(Q))
    obj["mult"][0]["terms"][0]["k"] = 4
    with pytest.raises(ValueError):
        hopf_from_json(obj)
    obj = hopf_to_json(sweedler_h4(Q))
    obj["unit"].append("0")
    with pytest.raises(ValueError):
        hopf_from_json(obj)


# ---------------------------------------------------------------------------
# reference kernel: the dense vectors and matrices that the sparse kernel
# replaced, kept as an oracle


def dense_apply(cols: list, v: list, ctx, m: int) -> list:
    """A matrix given by dense columns of length m, times a dense vector."""
    out = [ctx.zero] * m
    for j, c in enumerate(v):
        if not c.is_zero:
            out = [acc + c * x for acc, x in zip(out, cols[j])]
    return out


def dense_compose(a: list, b: list, ctx, m: int) -> list:
    """a after b, both by dense columns; a has columns of length m."""
    return [dense_apply(a, col, ctx, m) for col in b]


def dense_mul(A: AlgebraData, a: list, b: list) -> list:
    """The product of two dense vectors straight from the structure constants."""
    out = [A.ctx.zero] * A.dim
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            for k, ck in A.mul_basis(i, j).items():
                out[k] = out[k] + ca * cb * ck
    return out


def dense_det(rows: list, ctx):
    """Leibniz formula: an independent test of invertibility for n <= 4."""
    n = len(rows)
    total = ctx.zero
    for perm in itertools.permutations(range(n)):
        sign = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2
        term = -ctx.one if sign else ctx.one
        for i, p in enumerate(perm):
            term = term * rows[i][p]
        total = total + term
    return total


def to_sparse(v: list) -> dict:
    return {i: c for i, c in enumerate(v) if not c.is_zero}


def to_dense(v: dict, ctx, n: int) -> list:
    return [v.get(i, ctx.zero) for i in range(n)]


def no_zeros(v: dict) -> bool:
    return not any(c.is_zero for c in v.values())


def small_scalars(ctx) -> list:
    """Entries drawn so that sums cancel often: zero, +-1, +-2 and, in a
    cyclotomic field, +-zeta and 1 + zeta."""
    vals = [ctx.zero, ctx.zero, ctx.one, -ctx.one, ctx.from_int(2), ctx.from_int(-2)]
    if ctx.kind == "cyclotomic":
        vals += [ctx.zeta, -ctx.zeta, ctx.one + ctx.zeta]
    return vals


KERNEL_FIELDS = [Q, FieldCtx.cyclotomic(5), FieldCtx.prime(5)]


@pytest.mark.parametrize("ctx", KERNEL_FIELDS, ids=lambda c: c.name())
def test_linear_map_matches_dense_reference(ctx):
    rng = random.Random(5)
    vals = small_scalars(ctx)
    cancelled = singular = 0
    for _ in range(40):
        n, m, p = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        cols = [[rng.choice(vals) for _ in range(m)] for _ in range(n)]
        f = LinearMap(ctx, [to_sparse(c) for c in cols], m)
        assert f == LinearMap(ctx, [dict(enumerate(c)) for c in cols], m)
        assert f == LinearMap.from_rows(ctx, f.to_rows())
        assert all(no_zeros(c) for c in f.cols)
        v = [rng.choice(vals) for _ in range(n)]
        got = f.apply(to_sparse(v))
        assert got == to_sparse(dense_apply(cols, v, ctx, m))
        assert no_zeros(got)
        if any(not c.is_zero and not cols[j][k].is_zero
               for j, c in enumerate(v) for k in range(m)) and len(got) < m:
            cancelled += 1
        inner = [[rng.choice(vals) for _ in range(n)] for _ in range(p)]
        g = LinearMap(ctx, [to_sparse(c) for c in inner], n)
        fg = f.compose(g)
        assert fg.cols == [to_sparse(c) for c in dense_compose(cols, inner, ctx, m)]
        assert all(no_zeros(c) for c in fg.cols)
        for h in (f, g, fg):
            if h.domain_dim != h.codomain_dim:
                assert not h.is_invertible()
                with pytest.raises(ValueError, match="only square maps"):
                    h.inverse()
        # square maps: inverse against an independent determinant
        sq = [[rng.choice(vals) for _ in range(n)] for _ in range(n)]
        s = LinearMap(ctx, [to_sparse(c) for c in sq], n)
        det = dense_det(s.to_rows(), ctx)
        assert s.is_invertible() == (not det.is_zero)
        if det.is_zero:
            singular += 1
            with pytest.raises(ValueError, match="singular matrix"):
                s.inverse()
            continue
        inv = s.inverse()
        assert all(no_zeros(c) for c in inv.cols)
        inv_cols = [to_dense(c, ctx, n) for c in inv.cols]
        ident = [to_dense({i: ctx.one}, ctx, n) for i in range(n)]
        assert dense_compose(sq, inv_cols, ctx, n) == ident
        assert dense_compose(inv_cols, sq, ctx, n) == ident
        assert inv.compose(s) == LinearMap.identity(ctx, n)
    assert cancelled > 0 and 0 < singular < 40


@pytest.mark.parametrize("ctx", KERNEL_FIELDS, ids=lambda c: c.name())
def test_inverse_past_the_leibniz_range(ctx):
    # invertible maps P U L (a permutation, an upper triangular map with a
    # nonzero diagonal and a lower unitriangular one), and singular ones with
    # a column that is a combination of two others
    rng = random.Random(8)
    vals = small_scalars(ctx)
    units = [c for c in vals if not c.is_zero]
    for _ in range(8):
        n = rng.randint(5, 9)
        perm = rng.sample(range(n), n)
        P = LinearMap(ctx, [{perm[j]: ctx.one} for j in range(n)], n)
        U = LinearMap(ctx, [{i: rng.choice(units) if i == j else rng.choice(vals)
                             for i in range(j + 1)} for j in range(n)], n)
        L = LinearMap(ctx, [{i: ctx.one if i == j else rng.choice(vals)
                             for i in range(j, n)} for j in range(n)], n)
        s = P.compose(U).compose(L)
        assert s.is_invertible()
        inv = s.inverse()
        assert inv.compose(s) == s.compose(inv) == LinearMap.identity(ctx, n)
        j, a, b = rng.sample(range(n), 3)
        cols = list(s.cols)
        cols[j] = lincomb([(rng.choice(vals), cols[a]), (rng.choice(vals), cols[b])])
        t = LinearMap(ctx, cols, n)
        assert not t.is_invertible()
        with pytest.raises(ValueError, match="singular matrix"):
            t.inverse()


@pytest.mark.parametrize("ctx", KERNEL_FIELDS, ids=lambda c: c.name())
def test_lincomb_matches_dense_reference(ctx):
    rng = random.Random(6)
    vals = small_scalars(ctx)
    dropped = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        terms = [(rng.choice(vals), to_sparse([rng.choice(vals) for _ in range(n)]))
                 for _ in range(rng.randint(0, 4))]
        want = [ctx.zero] * n
        for c, v in terms:
            want = [a + c * b for a, b in zip(want, to_dense(v, ctx, n))]
        got = lincomb(terms)
        assert got == to_sparse(want)
        assert no_zeros(got)
        # keys in order of first appearance
        seen = list(dict.fromkeys(k for _, v in terms for k in v))
        assert list(got) == [k for k in seen if k in got]
        dropped += len(seen) - len(got)
    assert dropped > 0


@pytest.mark.parametrize("ctx", KERNEL_FIELDS, ids=lambda c: c.name())
def test_mul_sparse_matches_dense_reference(ctx):
    rng = random.Random(7)
    vals = small_scalars(ctx)
    for _ in range(15):
        n = rng.randint(1, 4)
        mult = {(i, j): to_sparse([rng.choice(vals) for _ in range(n)])
                for i in range(n) for j in range(n) if rng.random() < 0.7}
        A = AlgebraData(ctx, n, {0: ctx.one}, mult)
        for _ in range(5):
            a = [rng.choice(vals) for _ in range(n)]
            b = [rng.choice(vals) for _ in range(n)]
            got = A.mul_sparse(to_sparse(a), to_sparse(b))
            assert got == to_sparse(dense_mul(A, a, b))
            assert no_zeros(got)
    H = taft(3, FieldCtx.cyclotomic(3))
    for _ in range(10):
        a = [rng.choice(small_scalars(H.ctx)) for _ in range(H.dim)]
        b = [rng.choice(small_scalars(H.ctx)) for _ in range(H.dim)]
        got = H.algebra.mul_sparse(to_sparse(a), to_sparse(b))
        assert got == to_sparse(dense_mul(H.algebra, a, b))
        assert no_zeros(got)


def first_appearance(A: AlgebraData, sa: dict, sb: dict) -> list:
    """The keys of the terms of sa*sb, in the order the table entries list them."""
    return list(dict.fromkeys(k for i in sa for j in sb for k in A.mul_basis(i, j)))


def test_lincomb_still_rejects_a_number_coefficient():
    v = {0: Q.one, 1: Q.from_int(3)}
    for c in (2, 0, Fraction(1, 2)):
        with pytest.raises(TypeError):
            lincomb([(c, v)])
        with pytest.raises(TypeError):
            lincomb([(Q.one, v), (c, v)])


def test_one_term_products_are_fresh_dicts():
    H = sweedler_h4(Q)
    A = H.algebra
    before = copy.deepcopy(A.mult)
    for (i, j), t in before.items():
        got = A.mul_sparse({i: Q.one}, {j: Q.one})
        assert got == t and got is not A.mult[(i, j)]
        got[max(got) + 1] = Q.one
        got.pop(next(iter(t)))
    assert A.mult == before
    # a zero coefficient product gives the empty vector, not zero entries
    for i, j in before:
        assert A.mul_sparse({i: Q.zero}, {j: Q.one}) == {}
        assert A.mul_sparse({i: Q.from_int(2)}, {j: Q.zero}) == {}


@pytest.mark.parametrize("ctx", KERNEL_FIELDS, ids=lambda c: c.name())
def test_one_term_products_match_dense_reference(ctx):
    # one-term operands with coefficient one, with other coefficients, and
    # two-term operands whose products cancel, on tables with entries of
    # several terms
    rng = random.Random(9)
    vals = small_scalars(ctx)
    units = [c for c in vals if not c.is_zero]
    cancelled = 0
    for _ in range(15):
        n = rng.randint(2, 4)
        mult = {(i, j): to_sparse([rng.choice(vals) for _ in range(n)])
                for i in range(n) for j in range(n) if rng.random() < 0.8}
        A = AlgebraData(ctx, n, {0: ctx.one}, mult)
        for _ in range(10):
            i, j = rng.randrange(n), rng.randrange(n)
            for c, d in ((ctx.one, ctx.one), (rng.choice(units), ctx.one),
                         (ctx.one, rng.choice(units)), (rng.choice(units), rng.choice(units))):
                sa, sb = {i: c}, {j: d}
                got = A.mul_sparse(sa, sb)
                a, b = to_dense(sa, ctx, n), to_dense(sb, ctx, n)
                assert got == to_sparse(dense_mul(A, a, b))
                assert no_zeros(got)
                assert list(got) == first_appearance(A, sa, sb)
            i2 = rng.choice([k for k in range(n) if k != i])
            c = rng.choice(units)
            sa, sb = {i: c, i2: -c}, {j: rng.choice(units)}
            got = A.mul_sparse(sa, sb)
            assert got == to_sparse(dense_mul(A, to_dense(sa, ctx, n), to_dense(sb, ctx, n)))
            assert no_zeros(got)
            seen = first_appearance(A, sa, sb)
            assert list(got) == [k for k in seen if k in got]
            cancelled += len(seen) - len(got)
    assert cancelled > 0


# ---------------------------------------------------------------------------
# generating sets


def dense_closure_rank(A: AlgebraData, gens: list) -> int:
    """Dimension of the span of 1, 1*e_s, (1*e_s)*e_t, ... for s, t in gens,
    by dense Gauss-Jordan elimination over rows normalized to pivot 1."""
    ctx = A.ctx
    rows = []   # (pivot, dense row with a 1 there and 0 at the other pivots)
    queue = [to_dense(A.unit, ctx, A.dim)]
    while queue:
        v = queue.pop()
        for p, row in rows:
            if not v[p].is_zero:
                v = [a - v[p] * b for a, b in zip(v, row)]
        p = next((i for i, c in enumerate(v) if not c.is_zero), None)
        if p is None:
            continue
        v = [c * v[p].inverse() for c in v]
        rows = [(q, [a - r[p] * b for a, b in zip(r, v)]) for q, r in rows] + [(p, v)]
        queue += [dense_mul(A, v, to_dense({s: ctx.one}, ctx, A.dim)) for s in gens]
    return len(rows)


def paper_algebras() -> dict:
    F3 = FieldCtx.prime(3)
    algebras = {"h4": sweedler_h4(Q),
                "F3 family": family(FamilyParams(2, F3.from_int(-1), 6, None), F3)}
    for m in range(2, 6):
        algebras[f"taft{m}"] = taft(m, FieldCtx.cyclotomic(m))
    return algebras


def test_generating_set_of_the_paper_algebras():
    # {g, x} for every two-generated algebra of the paper
    for name, H in paper_algebras().items():
        gens = generating_set(H)
        assert sorted(H.labels[s] for s in gens) in (["g", "x"], ["g^0*x^1", "g^1*x^0"]), name
        assert dense_closure_rank(H.algebra, gens) == H.dim, name
    # k[G]: one generator for a cyclic group, two for S3 and F21
    for G, size in ((GroupTable.cyclic(4), 1), (GroupTable.symmetric(3), 2),
                    (GroupTable.metacyclic(7, 3, 2), 2)):
        H = group_algebra(G, Q)
        gens = generating_set(H)
        assert len(gens) == size
        assert dense_closure_rank(H.algebra, gens) == H.dim
    three = Q.from_int(3)
    one_dim = AlgebraData(Q, 1, {0: three.inverse()}, {(0, 0): {0: three}})
    assert check_algebra(one_dim).ok
    assert generating_set(one_dim) == []
    # without a unit law the closure can stay a proper subspace
    with pytest.raises(ValueError):
        generating_set(AlgebraData(Q, 2, {0: Q.one}, {(0, 0): {0: Q.one}}))


def test_generating_set_spans_after_a_change_of_basis():
    # transported products are no longer multiples of basis elements, so
    # the elimination behind generating_set really runs
    from test_basis_change import random_basis_change, transport_hopf

    rng = random.Random(11)
    for H in (sweedler_h4(Q), group_algebra(GroupTable.symmetric(3), Q),
              group_algebra(GroupTable.cyclic(4), Q), group_algebra(GroupTable.cyclic(6), Q)):
        for _ in range(3):
            moved = transport_hopf(H, *random_basis_change(H.dim, rng)).algebra
            assert any(len(t) > 1 for t in moved.mult.values())
            gens = generating_set(moved)
            assert gens == sorted(set(gens))
            assert dense_closure_rank(moved, gens) == moved.dim
            # each pick is needed: dropping the last one loses the span
            assert dense_closure_rank(moved, gens[:-1]) < moved.dim
