"""Exact scalar arithmetic over Q, cyclotomic fields Q(zeta_n), and prime fields F_p.

All values are exact and no floating point enters anywhere.  Prime-field
elements are residues in [0, p).  Q and Q(zeta_n) share one integer kernel:
an element is a tuple of integer numerators in the power basis
1, z, ..., z^(phi(n)-1) over one shared positive integer denominator, in
lowest terms: gcd(den, *numerators) == 1, and zero is (0, ..., 0)/1.  A
rational is the degree-1 case, (numerator,)/den modulo Phi_1.  Phi_n is
monic, so products reduce modulo Phi_n in integers, and inverse() stays in
integers too: at degree 2 and up it divides the product w of the other
Galois conjugates by the norm N(v) = v*w, a positive integer.  Fractions
appear only at the edges: parsing, printing and JSON.

A FieldCtx pins the field and holds its zero and one, built once; a Scalar
pairs a context with a canonical value.  A product by that one returns the
other operand itself.  Scalars combine only with Scalars of their own
field: a number operand raises TypeError, a scalar of another field
MixedContextError.  + and * test for a Scalar of the very same context
inline, and only another operand goes through _coerce, which raises those
errors and accepts a scalar of an equal context built again (FieldCtx
instances are not interned); a product by the context's own one returns the
left operand before any test.  Rationals enter through FieldCtx.from_int,
FieldCtx.from_fraction (which rejects floats) and parse_scalar.

Each context is a field, so a product of nonzero scalars is never zero.
hopf_core.lincomb relies on this: its vectors hold nonzero scalars only, so
it runs its zero filter only when a coefficient is zero or a sum is formed.

A FieldCtx also keeps every literal it has parsed, so each literal is parsed
once per context: FieldCtx.from_str and scalar_from_json look a string, a
JSON integer or a tuple of cyclotomic coefficients up before they parse it,
and parse_scalar reads its rational terms through from_str.  A parsed value
of 0 or 1 is the context's own zero or one, so a product by a parsed one
takes the shortcut above.  The memo lives and dies with its context, and a
literal that fails to parse stores nothing: it raises on every call.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add

MAX_CYCLOTOMIC = 64
MAX_PRIME = 97

RATIONALS = "rational"
CYCLOTOMIC = "cyclotomic"
PRIME = "prime"


class MixedContextError(ValueError):
    """Raised when an operation mixes scalars from different field contexts."""


class _ZeroDenominator(ValueError, ZeroDivisionError):
    """A scalar literal whose denominator is 0 in its field."""


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n (low degree first): x^n - 1 divided exactly, in
    integers, by the monic Phi_d of every proper divisor d of n.  ValueError
    for n < 1."""
    if n < 1:
        raise ValueError(f"cyclotomic order n={n} must be at least 1")
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            phi = cyclotomic_polynomial(d)
            k = len(phi) - 1
            q = [0] * (len(num) - k)
            for i in range(len(q) - 1, -1, -1):
                c = q[i] = num[i + k]
                if c:
                    for j, m in enumerate(phi):
                        num[i + j] -= c * m
            if any(num[:k]):
                raise RuntimeError(f"x^{n} - 1 is not divisible by Phi_{d}")
            num = q
    return tuple(num)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class FieldCtx:
    """One of Q, Q(zeta_n), or F_p, with the data needed to canonicalize elements."""

    __slots__ = ("kind", "n", "p", "degree", "modulus", "_xpow", "_roots", "_literals",
                 "zero", "one")

    def __init__(self, kind: str, n: int = 0, p: int = 0):
        self.kind = kind
        self.n = n
        self.p = p
        self._roots: dict[int, "Scalar"] = {}
        # parsed literals: a str, an int or a tuple of cyclotomic coefficients
        self._literals: dict = {}
        if kind in (RATIONALS, CYCLOTOMIC):
            if kind == CYCLOTOMIC and not 1 <= n <= MAX_CYCLOTOMIC:
                raise ValueError(f"cyclotomic order n={n} outside supported range "
                                 f"1..{MAX_CYCLOTOMIC}")
            # Q is the degree-1 case of the cyclotomic kernel, modulo Phi_1
            self.modulus = cyclotomic_polynomial(n if kind == CYCLOTOMIC else 1)
            self.degree = len(self.modulus) - 1
            self._xpow = self._build_xpow()
        elif kind == PRIME:
            if not is_prime(p):
                raise ValueError(f"p={p} is not prime")
            if p > MAX_PRIME:
                raise ValueError(f"prime p={p} above supported bound {MAX_PRIME}")
            self.degree = 1
            self.modulus = ()
            self._xpow = ()
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self.zero = self.from_int(0)
        self.one = self.from_int(1)

    # -- constructors

    @classmethod
    def rationals(cls) -> "FieldCtx":
        return cls(RATIONALS)

    @classmethod
    def cyclotomic(cls, n: int) -> "FieldCtx":
        return cls(CYCLOTOMIC, n=n)

    @classmethod
    def prime(cls, p: int) -> "FieldCtx":
        return cls(PRIME, p=p)

    def _build_xpow(self):
        # x^k reduced mod Phi_n for k = 0 .. max(2*(degree-1), n-1): products
        # of reduced elements need up to 2*(degree-1), the conjugates z -> z^k
        # behind inverse() up to n-1.  Phi_n is monic, so the rows are integers.
        d = self.degree
        neg_top = [-c for c in self.modulus[:d]]
        rows = [[1] + [0] * (d - 1)]
        for _ in range(max(2 * d - 1, self.n) - 1):
            prev = rows[-1]
            top = prev[d - 1]
            row = [0] + prev[: d - 1]
            if top:
                row = [c + top * m for c, m in zip(row, neg_top)]
            rows.append(row)
        return tuple(tuple(r) for r in rows)

    def _cyclotomic(self, nums, den: int) -> "Scalar":
        """The canonical element nums/den: den > 0 and gcd(den, *nums) == 1."""
        g = gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
        return Scalar(self, tuple(nums), den)

    # -- element construction

    def _fraction(self, x) -> Fraction:
        """Fraction(x); _ZeroDenominator naming x when its denominator is 0 here."""
        try:
            fr = Fraction(x)
            if self.kind == PRIME and fr.denominator % self.p == 0:
                raise ZeroDivisionError
        except ZeroDivisionError:
            raise _ZeroDenominator(f"denominator of {x} is 0 in {self.name()}") from None
        return fr

    def from_fraction(self, fr) -> "Scalar":
        if isinstance(fr, (float, bool)):
            raise ValueError(f"scalars are exact: {fr!r} is no int, Fraction or string")
        fr = self._fraction(fr)
        if self.kind == PRIME:
            return Scalar(self, fr.numerator * pow(fr.denominator, -1, self.p) % self.p)
        return Scalar(self, (fr.numerator,) + (0,) * (self.degree - 1), fr.denominator)

    def from_int(self, k: int) -> "Scalar":
        if self.kind == PRIME:
            return Scalar(self, k % self.p)
        return Scalar(self, (k,) + (0,) * (self.degree - 1))

    def from_str(self, s: str) -> "Scalar":
        """The rational literal s, parsed once per context; 0 and 1 give zero and one."""
        x = self._literals.get(s)
        if x is None:
            x = self._literals[s] = self._canonical(self.from_fraction(s.strip()))
        return x

    def _canonical(self, x: "Scalar") -> "Scalar":
        """x, or this context's own zero or one when x has that value."""
        if x.den == 1:
            if x.val == self.zero.val:
                return self.zero
            if x.val == self.one.val:
                return self.one
        return x

    def _from_json_int(self, k: int) -> "Scalar":
        """The integer literal k (a JSON int or a prime-field value), parsed once."""
        x = self._literals.get(k)
        if x is None:
            x = self._literals[k] = self._canonical(self.from_int(k))
        return x

    def _from_coeffs(self, coeffs) -> "Scalar":
        """The cyclotomic literal with these power-basis coefficients, parsed once.

        The entries are checked before the lookup: True and 1.0 equal 1, so a
        bool or a float would otherwise find the entry of an int."""
        if type(coeffs) is not list:
            raise ValueError(f"cyclotomic coeffs must be a list, not {coeffs!r}")
        for c in coeffs:
            if type(c) is not str and type(c) is not int:
                raise ValueError(f"scalars are exact: cyclotomic coefficient {c!r}"
                                 " is no int or string")
        key = tuple(coeffs)
        x = self._literals.get(key)
        if x is None:
            if len(key) > self.degree:
                raise ValueError("cyclotomic coefficient vector longer than field degree")
            fracs = [self._fraction(c) for c in key]
            den = lcm(*(c.denominator for c in fracs))
            nums = [c.numerator * (den // c.denominator) for c in fracs]
            x = self._literals[key] = self._canonical(
                self._cyclotomic(nums + [0] * (self.degree - len(nums)), den))
        return x

    @property
    def zeta(self) -> "Scalar":
        """The designated generator zeta_n of a cyclotomic context."""
        if self.kind != CYCLOTOMIC:
            raise ValueError(f"{self.name()} has no designated zeta; only Q(zN) has one")
        if self.degree == 1:
            # Q(zeta_1) and Q(zeta_2): the power basis is just the constants
            return self.from_int(1 if self.n == 1 else -1)
        return Scalar(self, (0, 1) + (0,) * (self.degree - 2))

    def root_of_unity(self, n: int) -> "Scalar":
        """An element of multiplicative order exactly n, or ValueError."""
        if n in self._roots:
            return self._roots[n]
        if n < 1:
            raise ValueError("order must be positive")
        if self.kind == RATIONALS:
            if n == 1:
                z = self.one
            elif n == 2:
                z = self.from_int(-1)
            else:
                raise ValueError(f"Q contains no root of unity of order {n}")
        elif self.kind == CYCLOTOMIC:
            if self.n % n != 0:
                raise ValueError(f"Q(zeta_{self.n}) has no designated root of order {n}"
                                 f" (n must divide {self.n})")
            z = self.zeta ** (self.n // n)
        else:
            if (self.p - 1) % n != 0:
                raise ValueError(f"F_{self.p} has no element of order {n}"
                                 f" ({n} does not divide p-1={self.p - 1})")
            z = None
            for cand in range(1, self.p):
                s = Scalar(self, cand)
                if multiplicative_order(s, n) == n:
                    z = s
                    break
            if z is None:
                raise RuntimeError(f"F_{self.p} has no element of order {n}")
        self._roots[n] = z
        return z

    # -- identity / serialization

    def __eq__(self, other):
        return self is other or (isinstance(other, FieldCtx) and (self.kind, self.n, self.p)
                                 == (other.kind, other.n, other.p))

    def __hash__(self):
        return hash((self.kind, self.n, self.p))

    def __repr__(self):
        if self.kind == RATIONALS:
            return "FieldCtx(Q)"
        if self.kind == CYCLOTOMIC:
            return f"FieldCtx(Q(z{self.n}))"
        return f"FieldCtx(F{self.p})"

    def name(self) -> str:
        if self.kind == RATIONALS:
            return "Q"
        if self.kind == CYCLOTOMIC:
            return f"Q(z{self.n})"
        return f"F{self.p}"

    def to_json(self):
        return self.name()


def parse_field(name: str) -> FieldCtx:
    """Parse field names: "Q", "Q(zN)" (also "QzN"), "Fp"."""
    s = name.strip()
    if s in ("Q", "q"):
        return FieldCtx.rationals()
    low = s.lower().replace(" ", "")
    if low.startswith("q(z") and low.endswith(")"):
        body = low[3:-1]
    elif low.startswith("qz"):
        body = low[2:]
    elif low.startswith("f"):
        try:
            p = int(low[1:])
        except ValueError:
            raise ValueError(f"cannot parse field name {name!r}")
        return FieldCtx.prime(p)
    else:
        raise ValueError(f"cannot parse field name {name!r}")
    try:
        n = int(body)
    except ValueError:
        raise ValueError(f"cannot parse field name {name!r}")
    return FieldCtx.cyclotomic(n)


class Scalar:
    """Immutable field element tied to a FieldCtx.

    val is a tuple of integer numerators in the power basis over the positive
    denominator den (Q and Q(zeta_n); a rational is a 1-tuple), or an int
    residue (prime, where den is 1).
    """

    __slots__ = ("ctx", "val", "den")

    def __init__(self, ctx: FieldCtx, val, den: int = 1):
        self.ctx = ctx
        self.val = val
        self.den = den

    def _coerce(self, other) -> "Scalar":
        """other itself, when it is a Scalar of this field."""
        if not isinstance(other, Scalar):
            raise TypeError(f"cannot combine Scalar with {type(other).__name__}")
        if other.ctx is not self.ctx and other.ctx != self.ctx:
            raise MixedContextError(
                f"cannot combine scalars from {self.ctx.name()} and {other.ctx.name()}")
        return other

    # -- ring operations

    def __add__(self, other):
        ctx = self.ctx
        o = other if type(other) is Scalar and other.ctx is ctx else self._coerce(other)
        if ctx.kind == PRIME:
            return Scalar(ctx, (self.val + o.val) % ctx.p)
        da, db = self.den, o.den
        if da == db:
            out = tuple(map(add, self.val, o.val))
            return Scalar(ctx, out) if da == 1 else ctx._cyclotomic(out, da)
        return ctx._cyclotomic([a * db + b * da for a, b in zip(self.val, o.val)], da * db)

    __radd__ = __add__

    def __neg__(self):
        if self.ctx.kind == PRIME:
            return Scalar(self.ctx, (-self.val) % self.ctx.p)
        return Scalar(self.ctx, tuple(-a for a in self.val), self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        ctx = self.ctx
        # scalars are immutable, so a product by one may share the other operand
        if other is ctx.one:
            return self
        if type(other) is Scalar and other.ctx is ctx:
            if self is ctx.one:
                return other
            o = other
        else:
            o = self._coerce(other)
        if ctx.kind == PRIME:
            return Scalar(ctx, (self.val * o.val) % ctx.p)
        b = o.val
        if not any(b):
            return ctx.zero
        # integer convolution, then reduction of degrees d..2d-2 mod Phi_n
        d = ctx.degree
        conv = [0] * (2 * d - 1)
        for i, ai in enumerate(self.val):
            if ai:
                for j, bj in enumerate(b, i):
                    if bj:
                        conv[j] += ai * bj
        out = conv[:d]
        xpow = ctx._xpow
        for j in range(d, 2 * d - 1):
            c = conv[j]
            if c:
                for i, r in enumerate(xpow[j]):
                    if r:
                        out[i] += c * r
        den = self.den * o.den
        return Scalar(ctx, tuple(out)) if den == 1 else ctx._cyclotomic(out, den)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        ctx = self.ctx
        if self.is_zero:
            raise ZeroDivisionError("scalar inverse of zero")
        if ctx.kind == PRIME:
            return Scalar(ctx, pow(self.val, -1, ctx.p))
        if ctx.degree == 1:
            # (v/den)^-1 = den/v, the sign moved to the numerator
            (v,) = self.val
            return Scalar(ctx, (self.den if v > 0 else -self.den,), abs(v))
        # (v/den)^-1 = den*w / N(v), with w the product of the conjugates
        # v(z^k) for 1 < k < n prime to n; the norm N(v) = v*w is an integer,
        # positive since the conjugates come in complex-conjugate pairs (n >= 3)
        n, d, xpow = ctx.n, ctx.degree, ctx._xpow
        w = ctx.one
        for k in range(2, n):
            if gcd(k, n) == 1:
                conj = [0] * d
                for i, c in enumerate(self.val):
                    if c:
                        for j, r in enumerate(xpow[i * k % n]):
                            conj[j] += c * r
                w = w * Scalar(ctx, tuple(conj))
        norm, *rest = (Scalar(ctx, self.val) * w).val
        if norm <= 0 or any(rest):
            raise RuntimeError(f"the norm of {self} is not a positive integer")
        return ctx._cyclotomic([self.den * c for c in w.val], norm)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return self.inverse() ** (-k)
        out = self.ctx.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- predicates

    @property
    def is_zero(self) -> bool:
        if self.ctx.kind == PRIME:
            return not self.val
        return not any(self.val)

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, float, Fraction)):
                return NotImplemented
            raise TypeError(f"cannot compare Scalar with {type(other).__name__}")
        if other.ctx is not self.ctx and other.ctx != self.ctx:
            raise MixedContextError(
                f"cannot compare scalars from {self.ctx.name()} and {other.ctx.name()}")
        return self.val == other.val and self.den == other.den

    def __hash__(self):
        return hash((self.val, self.den))

    # -- display

    def _fractions(self) -> list:
        return [Fraction(c, self.den) for c in self.val]

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        if self.ctx.kind == PRIME:
            return str(self.val)
        var = f"z{self.ctx.n}"
        terms = []
        for i, c in enumerate(self._fractions()):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
                continue
            mon = var if i == 1 else f"{var}^{i}"
            if c == 1:
                terms.append(mon)
            elif c == -1:
                terms.append(f"-{mon}")
            else:
                terms.append(f"{c}*{mon}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    # -- serialization

    def to_json(self):
        k = self.ctx.kind
        if k == RATIONALS:
            return str(self)
        if k == PRIME:
            return {"p": self.ctx.p, "value": self.val}
        return {"n": self.ctx.n, "coeffs": [str(c) for c in self._fractions()]}


def _json_shape(v, what: str, kind=dict, fields: dict = {}, optional: dict = {}):
    """v, a value read from JSON and named what in errors, checked to be of
    kind: dict, list, str, int (a JSON integer, never a bool or a float),
    type(None), or a tuple of them.  An object must also hold every key of
    fields, and each key of fields, and of optional where present, must be
    of the kind given there.  ValueError naming what or the first key that
    is missing or of another kind; v when none is."""
    if type(v) is not kind and (type(kind) is not tuple or type(v) not in kind):
        names = {dict: "an object", list: "an array", str: "a string", int: "an integer",
                 type(None): "null"}
        wanted = " or ".join(map(names.get, kind if type(kind) is tuple else (kind,)))
        shown = names[type(v)] if type(v) in (dict, list) else json.dumps(v)
        raise ValueError(f"{what} must be {wanted}, not {shown}")
    try:
        for key, k in fields.items():
            x = v[key]
            if type(x) is not k and (type(k) is not tuple or type(x) not in k):
                _json_shape(x, key, k)  # raises, naming the key
    except KeyError:
        raise ValueError(f"{what} has no field {key!r}") from None
    for key, k in optional.items():
        if key in v:
            _json_shape(v[key], key, k)
    return v


def _load_json(path: str):
    """The JSON value of the file at path; ValueError if it nests too deeply."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path} nests too deeply to decode") from None


def scalar_from_json(obj, ctx: FieldCtx) -> Scalar:
    """The scalar of a JSON literal: a rational string, an int, {"n", "coeffs"}
    or {"p", "value"}.  Each literal is parsed once per ctx, and a value of 0
    or 1 is ctx.zero or ctx.one."""
    if isinstance(obj, str):
        # rational literals embed into any of the three field kinds
        return ctx.from_str(obj)
    if type(obj) is int:  # not bool: JSON true and false are no scalars
        return ctx._from_json_int(obj)
    if not isinstance(obj, dict):
        raise ValueError(f"cannot parse scalar {obj!r}")
    if "coeffs" in obj:
        n = _json_shape(obj.get("n"), "cyclotomic order n", int)
        if ctx.kind != CYCLOTOMIC or ctx.n != n:
            raise MixedContextError(f"cyclotomic scalar of order {n} "
                                    f"does not live in {ctx.name()}")
        return ctx._from_coeffs(obj["coeffs"])
    if "value" in obj:
        p = _json_shape(obj.get("p"), "prime-field modulus p", int)
        if ctx.kind != PRIME or ctx.p != p:
            raise MixedContextError(f"prime-field scalar mod {p} "
                                    f"does not live in {ctx.name()}")
        return ctx._from_json_int(_json_shape(obj["value"], "prime-field value", int))
    raise ValueError(f"cannot parse scalar {obj!r}")


def _parse_term(body: str, ctx: FieldCtx) -> Scalar:
    if "z" not in body.lower():
        return ctx.from_str(body)
    coef_str, _, mono = body.rpartition("*")
    coef = ctx.from_str(coef_str) if coef_str else ctx.one
    root, caret, kstr = mono.lower().partition("^")
    if caret and not kstr:
        raise ValueError(f"scalar term {body!r} has an empty exponent")
    bad = ValueError(f"cannot parse scalar term {body!r}: expected [coefficient*]zN[^k]")
    if not root.startswith("z"):
        raise bad
    try:
        n, k = int(root[1:]), int(kstr) if caret else 1
    except ValueError:
        raise bad from None
    z = ctx.root_of_unity(n)
    return coef * (z if k == 1 else z ** k)


def parse_scalar(text: str, ctx: FieldCtx) -> Scalar:
    """Parse a scalar from command-line text or a printed witness.

    Accepts sums of terms like "-1", "2/3", "z6^2", "1/3*z6", "z5^-1" in any
    field where the named root exists; a bare residue in a prime field.  The
    rational terms go through ctx.from_str, and a sum of value 0 or 1 is
    ctx.zero or ctx.one.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar")
    # a sign right after "^" belongs to the exponent, not to the next term
    terms = re.findall(r"[+-]?(?:[^+^-]|\^[+-]?)+", s)
    if "".join(terms) != s:
        raise ValueError(f"cannot parse scalar {text!r}")
    out = ctx.zero
    for term in terms:
        sign = ctx.one
        if term[0] in "+-":
            if term[0] == "-":
                sign = -ctx.one
            term = term[1:]
        out = out + sign * _parse_term(term, ctx)
    return ctx._canonical(out)


def multiplicative_order(z: Scalar, bound: int) -> int | None:
    """Order of z in the multiplicative group, or None if it exceeds bound."""
    if z.is_zero:
        raise ValueError("zero has no multiplicative order")
    acc = z.ctx.one
    for j in range(1, bound + 1):
        acc = acc * z
        if acc == z.ctx.one:
            return j
    return None
