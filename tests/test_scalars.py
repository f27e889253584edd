"""Exact field arithmetic: rationals, cyclotomic extensions, prime fields."""

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest

from hopfrb import scalars
from hopfrb.scalars import (MAX_CYCLOTOMIC, FieldCtx, MixedContextError, Scalar,
                            cyclotomic_polynomial, multiplicative_order, parse_field,
                            parse_scalar, scalar_from_json)

from helpers import counting, is_primitive_root, zeta_power


def test_rational_ops():
    ctx = FieldCtx.rationals()
    a = ctx.from_fraction(Fraction(2, 3))
    b = ctx.from_int(5)
    assert str(a + b) == "17/3"
    assert str(a * b) == "10/3"
    assert str(a - b) == "-13/3"
    assert str(a / b) == "2/15"
    assert (a ** 0) == ctx.one
    assert str(a ** -2) == "9/4"
    assert (b - b).is_zero
    assert a.inverse() * a == ctx.one


def test_cyclotomic_polynomials():
    # oracle values straight from the product formula
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # an input check, so python -O raises too rather than returning Phi_1
    for n in (0, -3):
        with pytest.raises(ValueError, match=f"cyclotomic order n={n} must be at least 1"):
            cyclotomic_polynomial(n)


def test_cyclotomic_polynomials_multiply_to_x_n_minus_1():
    # x^n - 1 is the product of Phi_d over the divisors d of n
    for n in range(1, MAX_CYCLOTOMIC + 1):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        assert prod == [-1] + [0] * (n - 1) + [1], n


def test_degree_one_cyclotomic_contexts():
    # Q(zeta_2) has a one-dimensional power basis; zeta must come out as -1
    ctx = FieldCtx.cyclotomic(2)
    assert ctx.zeta == ctx.from_int(-1)
    assert ctx.root_of_unity(2) == ctx.from_int(-1)
    assert FieldCtx.cyclotomic(1).zeta == FieldCtx.cyclotomic(1).one


def test_cyclotomic_arithmetic():
    ctx = FieldCtx.cyclotomic(5)
    z = ctx.zeta
    # z^5 = 1 and 1 + z + z^2 + z^3 + z^4 = 0
    assert z ** 5 == ctx.one
    total = ctx.zero
    for k in range(5):
        total = total + z ** k
    assert total.is_zero
    # inverse through the extended gcd agrees with the power formula
    assert (z ** 2).inverse() == z ** 3
    x = ctx.one + z
    assert x * x.inverse() == ctx.one


def test_cyclotomic_degree_and_reduction():
    ctx = FieldCtx.cyclotomic(8)
    z = ctx.zeta
    assert z ** 4 == -ctx.one
    assert (z ** 2) * (z ** 2) == -ctx.one
    # phi(8) = 4, so z^4 reduces to a lower-degree representative
    assert len(z.val) == 4


def test_prime_field():
    ctx = FieldCtx.prime(7)
    a = ctx.from_int(3)
    assert a + ctx.from_int(5) == ctx.one
    assert a.inverse() == ctx.from_int(5)
    assert a ** 6 == ctx.one
    assert (a ** -1) == ctx.from_int(5)
    with pytest.raises(ZeroDivisionError):
        ctx.zero.inverse()


def test_prime_field_rejects_composites_and_bounds():
    with pytest.raises(ValueError):
        FieldCtx.prime(6)
    with pytest.raises(ValueError):
        FieldCtx.prime(101)
    with pytest.raises(ValueError):
        FieldCtx.cyclotomic(65)


def test_mixed_context_rejected():
    q = FieldCtx.rationals()
    f7 = FieldCtx.prime(7)
    with pytest.raises(MixedContextError):
        q.one + f7.one
    with pytest.raises(MixedContextError):
        _ = q.one == f7.one


THREE_KINDS = [FieldCtx.rationals(), FieldCtx.cyclotomic(5), FieldCtx.prime(7)]


@pytest.mark.parametrize("ctx", THREE_KINDS, ids=str)
def test_scalars_combine_with_scalars_of_one_field_only(ctx):
    s = ctx.from_int(3)
    for op in (lambda: s + 1, lambda: 1 + s, lambda: s - Fraction(1), lambda: 1 - s,
               lambda: 2 * s, lambda: s * Fraction(1, 2), lambda: s / 2, lambda: 1 / s,
               lambda: s == 0, lambda: s != 3, lambda: s == Fraction(3), lambda: s == 3.0,
               lambda: s + 0.5):
        with pytest.raises(TypeError):
            op()
    other = FieldCtx.cyclotomic(3) if ctx.kind == "prime" else FieldCtx.prime(5)
    # another field's one is no shortcut, in either order
    for op in (lambda: s + other.one, lambda: s * other.one, lambda: s - other.one,
               lambda: s / other.one, lambda: s == other.one, lambda: other.one * s,
               lambda: other.one + s, lambda: ctx.one * other.one):
        with pytest.raises(MixedContextError):
            op()
    # a product by this field's one is the other operand
    for x in (ctx.zero, ctx.one, -s, s / ctx.from_int(2)):
        assert x * ctx.one is x and ctx.one * x is x
    # an equal field built again is no interned copy, yet combines exactly,
    # in the left operand's field
    again = parse_field(ctx.name())
    assert again is not ctx and again == ctx
    a, b = s / ctx.from_int(2), again.from_int(5)
    for x, y in ((a, b), (b, a)):
        assert x + y == ctx.from_int(13) / ctx.from_int(2)
        assert x * y == ctx.from_int(15) / ctx.from_int(2)
        assert (x + y).ctx is x.ctx and (x * y).ctx is x.ctx
    assert again.one * a == a * again.one == a and again.one + a == a + ctx.one
    # an object that is no number compares unequal, as Python objects do
    assert s != "3"
    # the tracer of perfbench/ wraps these four entries of the class
    assert {"__add__", "__radd__", "__mul__", "__rmul__"} <= set(Scalar.__dict__)
    assert not {"__rsub__", "__rtruediv__"} & set(Scalar.__dict__)


@pytest.mark.parametrize("ctx", THREE_KINDS, ids=str)
def test_from_fraction_takes_exact_input_only(ctx):
    for bad in (0.1, 1.0, float("nan"), True, False):
        with pytest.raises(ValueError, match="exact"):
            ctx.from_fraction(bad)
    assert ctx.from_fraction(2) == ctx.from_int(2)
    assert ctx.from_fraction("1/2") == ctx.from_fraction(Fraction(1, 2)) == ctx.one / ctx.from_int(2)


def test_fraction_into_prime_field():
    ctx = FieldCtx.prime(5)
    x = ctx.from_fraction(Fraction(1, 2))
    assert x == ctx.from_int(3)
    with pytest.raises(ZeroDivisionError):
        ctx.from_fraction(Fraction(1, 5))


def test_parse_field_names_round_trip():
    for name in ("Q", "Q(z3)", "Q(z8)", "F7", "F97"):
        ctx = parse_field(name)
        assert ctx.name() == name
        assert parse_field(ctx.name()) == ctx
    with pytest.raises(ValueError):
        parse_field("R")
    with pytest.raises(ValueError):
        parse_field("F4")


def test_parse_scalar_round_trip():
    random.seed(20240811)
    ctx = FieldCtx.cyclotomic(6)
    for _ in range(25):
        coeffs = [Fraction(random.randint(-9, 9), random.randint(1, 9)) for _ in range(2)]
        x = ctx.from_fraction(coeffs[0]) + ctx.from_fraction(coeffs[1]) * ctx.zeta
        assert parse_scalar(str(x), ctx) == x
        assert scalar_from_json(x.to_json(), ctx) == x
    q = FieldCtx.rationals()
    assert parse_scalar("-3/4", q) == q.from_fraction(Fraction(-3, 4))
    assert parse_scalar("7", q) == q.from_int(7)


def test_root_of_unity_and_order():
    ctx = FieldCtx.cyclotomic(12)
    for n in (1, 2, 3, 4, 6, 12):
        z = ctx.root_of_unity(n)
        assert multiplicative_order(z, 24) == n
        assert is_primitive_root(z, n)
    with pytest.raises(ValueError):
        ctx.root_of_unity(5)
    # prime field: F7 has elements of order 6 but none of order 4
    f7 = FieldCtx.prime(7)
    z3 = f7.root_of_unity(3)
    assert multiplicative_order(z3, 7) == 3
    with pytest.raises(ValueError):
        f7.root_of_unity(4)


def test_zeta_power_helper():
    ctx = FieldCtx.cyclotomic(6)
    assert zeta_power(ctx, 6, 3) == -ctx.one
    assert zeta_power(ctx, 3, 1) == ctx.zeta ** 2


def test_scalar_strings_are_exact():
    ctx = FieldCtx.cyclotomic(4)
    x = ctx.from_fraction(Fraction(1, 3)) + ctx.zeta * ctx.from_int(2)
    s = str(x)
    assert "." not in s
    assert parse_scalar(s, ctx) == x


def test_parse_scalar_negative_and_empty_exponents():
    ctx = FieldCtx.cyclotomic(5)
    z = ctx.zeta
    assert parse_scalar("z5^-1", ctx) == z ** 4
    assert parse_scalar("2*z5^-2", ctx) == ctx.from_int(2) * z ** 3
    assert parse_scalar("1-z5^-1+z5^4", ctx) == ctx.one
    assert parse_scalar("z5^+2", ctx) == z ** 2
    for text in ("z5^", "1+z5^"):
        with pytest.raises(ValueError, match=r"'z5\^'"):
            parse_scalar(text, ctx)


def test_outside_input_raises_value_error():
    # these must hold under python -O too, so none may rest on assert
    with pytest.raises(ValueError, match="5z"):
        parse_scalar("5z", FieldCtx.rationals())
    with pytest.raises(ValueError, match="z5\\^-"):
        parse_scalar("z5^-", FieldCtx.cyclotomic(5))
    for name in ("Q", "F5"):
        with pytest.raises(ValueError, match="zeta"):
            parse_field(name).zeta
    with pytest.raises(ValueError):
        is_primitive_root(FieldCtx.cyclotomic(4).zeta, 0)


# ---------------------------------------------------------------------------
# reference kernel: cyclotomic elements as Fraction vectors in the power basis,
# multiplied by convolution and reduced with Fraction rows of x^k mod Phi_n


@lru_cache(maxsize=None)
def ref_xpow(n: int) -> list:
    mod = cyclotomic_polynomial(n)
    d = len(mod) - 1
    rows = [[Fraction(int(i == 0)) for i in range(d)]]
    for _ in range(2 * d - 2):
        prev = rows[-1]
        row = [Fraction(0)] + prev[: d - 1]
        for i in range(d):
            row[i] -= prev[d - 1] * mod[i]
        rows.append(row)
    return rows


def ref_mul(n: int, a: tuple, b: tuple) -> tuple:
    d = len(a)
    conv = [Fraction(0)] * (2 * d - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            conv[i + j] += ai * bj
    out = conv[:d]
    for k, row in enumerate(ref_xpow(n)[d:], d):
        for i in range(d):
            out[i] += conv[k] * row[i]
    return tuple(out)


def ref_inverse(n: int, a: tuple) -> tuple:
    # solve M u = e_0 by Gauss-Jordan, column i of M being a * x^i
    d = len(a)
    basis = [tuple(Fraction(int(i == j)) for i in range(d)) for j in range(d)]
    cols = [ref_mul(n, a, e) for e in basis]
    rows = [[cols[j][i] for j in range(d)] + [Fraction(int(i == 0))] for i in range(d)]
    for c in range(d):
        piv = next(r for r in range(c, d) if rows[r][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(d):
            if r != c and rows[r][c]:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return tuple(r[d] for r in rows)


def ref_pow(n: int, a: tuple, k: int) -> tuple:
    out = tuple(Fraction(int(i == 0)) for i in range(len(a)))
    for _ in range(k):
        out = ref_mul(n, out, a)
    return out


def ref_str(n: int, a: tuple) -> str:
    terms = []
    for i, c in enumerate(a):
        if not c:
            continue
        mon = f"z{n}" if i == 1 else f"z{n}^{i}"
        if i == 0:
            terms.append(str(c))
        elif c in (1, -1):
            terms.append(mon if c == 1 else f"-{mon}")
        else:
            terms.append(f"{c}*{mon}")
    out = terms[0] if terms else "0"
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def fractions_of(x: Scalar) -> tuple:
    return tuple(Fraction(c, x.den) for c in x.val)


def random_element(rng: random.Random, d: int) -> tuple:
    shape = rng.choice(("zero", "monomial", "sparse", "dense"))
    out = [Fraction(0)] * d
    if shape == "monomial":
        out[rng.randrange(d)] = Fraction(rng.choice((1, -1, 2, -3)), rng.choice((1, 1, 2, 3)))
    elif shape != "zero":
        for i in range(d):
            if shape == "dense" or rng.random() < 0.4:
                out[i] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return tuple(out)


def assert_canonical(x: Scalar):
    assert x.den > 0 and gcd(x.den, *x.val) == 1
    assert len(x.val) == x.ctx.degree
    assert all(type(c) is int for c in x.val)


@pytest.mark.parametrize("field", ["Q", 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 21, 24])
def test_integer_kernel_matches_fraction_reference(field):
    # Q is the degree-1 case: its reference is plain Fraction arithmetic,
    # which the 1-tuple reference kernel modulo Phi_1 is
    rational = field == "Q"
    n = 1 if rational else field
    rng = random.Random(1000 if rational else 1000 + n)
    ctx = FieldCtx.rationals() if rational else FieldCtx.cyclotomic(n)
    d = ctx.degree

    def build(ref):
        if rational:
            x = ctx.from_fraction(ref[0])
        else:
            x = scalar_from_json({"n": n, "coeffs": [str(c) for c in ref]}, ctx)
        assert_canonical(x)
        assert fractions_of(x) == ref
        return x

    for _ in range(40):
        ra, rb = random_element(rng, d), random_element(rng, d)
        a, b = build(ra), build(rb)
        results = [(a + b, tuple(x + y for x, y in zip(ra, rb))),
                   (a - b, tuple(x - y for x, y in zip(ra, rb))),
                   (-a, tuple(-x for x in ra)),
                   (a * b, ref_mul(n, ra, rb))]
        if any(rb):
            inv_b = ref_inverse(n, rb)
            results += [(a / b, ref_mul(n, ra, inv_b)), (b.inverse(), inv_b),
                        (b ** -1, inv_b), (b ** -3, ref_pow(n, inv_b, 3))]
        for k in range(4):
            results.append((a ** k, ref_pow(n, ra, k)))
        for got, want in results:
            assert_canonical(got)
            assert fractions_of(got) == want
            same = build(want)
            assert got == same and hash(got) == hash(same)
        assert (a == b) == (ra == rb)
        assert str(a) == ref_str(n, ra)
        if rational:
            assert str(a) == a.to_json() == str(ra[0])
            assert a == ctx.from_fraction(ra[0])
        else:
            assert a.to_json() == {"n": n, "coeffs": [str(c) for c in ra]}
        assert a.is_zero == (not any(ra))


@pytest.mark.parametrize("n", [5, 12])
def test_cyclotomic_inverse_builds_no_fraction(monkeypatch, n):
    ctx = FieldCtx.cyclotomic(n)
    rng = random.Random(2000 + n)
    refs = [random_element(rng, ctx.degree) for _ in range(20)]
    refs = [r for r in refs if any(r)]
    values = [scalar_from_json({"n": n, "coeffs": [str(c) for c in r]}, ctx) for r in refs]
    built = counting(monkeypatch, scalars, "Fraction")
    inverses = [x.inverse() for x in values]
    assert built == []
    # the count sees the Fractions that parsing builds
    ctx.from_str("5/7")
    assert ("5/7",) in built
    monkeypatch.undo()
    for r, inv in zip(refs, inverses):
        assert fractions_of(inv) == ref_inverse(n, r)


def test_one_value_has_one_canonical_form():
    ctx = FieldCtx.cyclotomic(5)
    b = scalar_from_json({"n": 5, "coeffs": ["2/3", "0", "0", "5"]}, ctx)
    half = ctx.from_fraction(Fraction(1, 2))
    ways = [half,
            scalar_from_json({"n": 5, "coeffs": ["2/4", "0/3", "0", "0"]}, ctx),
            parse_scalar("2/4+z5-z5", ctx),
            scalar_from_json({"n": 5, "coeffs": ["3/6"]}, ctx) * b / b]
    mixed = [half + ctx.from_fraction(Fraction(1, 3)) * ctx.zeta ** 2,
             scalar_from_json({"n": 5, "coeffs": ["3/6", "0", "2/6", "0"]}, ctx),
             parse_scalar("2/4+1/3*z5^2", ctx),
             parse_scalar("1/2+1/3*z5^2", ctx) * b / b]
    for values in (ways, mixed):
        first = values[0]
        for x in values:
            assert (x.val, x.den, hash(x)) == (first.val, first.den, hash(first))
    assert (ways[0].val, ways[0].den) == ((1, 0, 0, 0), 2)
    assert (mixed[0].val, mixed[0].den) == ((3, 0, 2, 0), 6)
    zero = half - half
    assert (zero.val, zero.den) == (ctx.zero.val, ctx.zero.den) == ((0, 0, 0, 0), 1)


def test_context_zero_and_one_are_built_once():
    for ctx in (FieldCtx.rationals(), FieldCtx.cyclotomic(7), FieldCtx.prime(5)):
        assert ctx.zero is ctx.zero and ctx.one is ctx.one
        assert ctx.zero.is_zero and ctx.one == ctx.from_int(1)


@pytest.mark.parametrize("ctx", [FieldCtx.rationals(), FieldCtx.cyclotomic(5), FieldCtx.prime(5)],
                         ids=str)
def test_a_product_by_one_is_the_other_operand(ctx):
    one = ctx.one
    values = [ctx.zero, one, -one, ctx.from_int(3), one / ctx.from_int(2)]
    if ctx.kind == "cyclotomic":
        values.append(ctx.from_fraction(Fraction(2, 3)) * ctx.zeta + ctx.zeta ** 3)
    for x in values:
        assert x * one is x and one * x is x
    # the shortcut comes after the operand check: numbers still raise
    for op in (lambda: one * 2, lambda: 2 * one, lambda: one * Fraction(1),
               lambda: Fraction(1) * one, lambda: one * 1.0):
        with pytest.raises(TypeError):
            op()
    # an equal field built again multiplies as before, in the left operand's field
    again = parse_field(ctx.name())
    assert again is not ctx
    y = again.from_int(3)
    assert one * y == ctx.from_int(3) and (one * y).ctx is ctx



def test_a_missing_root_of_unity_is_an_explicit_error(monkeypatch):
    # F_7 has elements of order 3; with none found the search raises, also
    # under python -O
    monkeypatch.setattr(scalars, "multiplicative_order", lambda s, n: 0)
    with pytest.raises(RuntimeError, match="F_7 has no element of order 3"):
        FieldCtx.prime(7).root_of_unity(3)
