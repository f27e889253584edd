"""Literals are parsed once per field context, and a parsed 0 or 1 is the
context's own zero or one, at every entry point that reads scalar text or
JSON: FieldCtx.from_str, scalar_from_json, parse_scalar and the readers
built on them."""

import json
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from hopfrb import scalars
from hopfrb.constructions import group_algebra, taft
from hopfrb.hopf_core import hopf_from_json, hopf_to_json
from hopfrb.rb_group import GroupTable
from hopfrb.rb_hopf import rrb_from_json
from hopfrb.scalars import MixedContextError, parse_field, parse_scalar, scalar_from_json

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def hopf_literals(obj: dict) -> list:
    """Every scalar literal of a hopf_to_json document."""
    out = list(obj["unit"]) + list(obj["counit"])
    for table in (obj["mult"], obj["delta"]):
        out += [t["c"] for r in table for t in r["terms"]]
    for row in obj["antipode"]:
        out += row
    return out


def hopf_scalars(H) -> list:
    A, C = H.algebra, H.coalgebra
    out = list(A.unit.values()) + list(C.counit)
    for table in (A.mult, C.delta):
        out += [c for v in table.values() for c in v.values()]
    for row in H.antipode.to_rows():
        out += row
    return out


UNITS = {
    "Q": (["0", "-0", "0/7", " 0 ", 0],
          ["1", "2/2", " 1", "+1", "3/3", 1]),
    "Q(z3)": (["0", "0/2", 0, {"n": 3, "coeffs": []}, {"n": 3, "coeffs": ["0", "0"]},
               {"n": 3, "coeffs": [0, "0/5"]}],
              ["1", "2/2", 1, {"n": 3, "coeffs": ["1", "0"]}, {"n": 3, "coeffs": ["1"]},
               {"n": 3, "coeffs": ["2/2", "0"]}, {"n": 3, "coeffs": [1, 0]}]),
    "F3": (["0", "3", "-3", 0, 3, {"p": 3, "value": 0}, {"p": 3, "value": -6}],
           ["1", "4", "-2", "1/4", 1, 4, {"p": 3, "value": 4}, {"p": 3, "value": 1}]),
}


@pytest.mark.parametrize("field", sorted(UNITS))
def test_parsed_zero_and_one_are_the_contexts_own(field):
    ctx = parse_field(field)
    zeros, ones = UNITS[field]
    for literal in zeros:
        assert scalar_from_json(literal, ctx) is ctx.zero, literal
    for literal in ones:
        assert scalar_from_json(literal, ctx) is ctx.one, literal
    assert ctx.from_str("0/3") is ctx.zero and ctx.from_str("2/2") is ctx.one
    assert parse_scalar("1 - 1", ctx) is ctx.zero
    assert parse_scalar("-1+2", ctx) is ctx.one
    assert parse_scalar("2/2", ctx) is ctx.one
    if field == "Q(z3)":
        assert parse_scalar("z3^3", ctx) is ctx.one
        assert parse_scalar("z3 - z3", ctx) is ctx.zero
        assert parse_scalar("1 + z3 + z3^2", ctx) is ctx.zero
    # a value other than 0 and 1 is no shared constant
    other = scalar_from_json("2", ctx)
    assert other is not ctx.one and other is not ctx.zero and other == ctx.from_int(2)


def test_each_context_keeps_its_own_literals():
    first, second = parse_field("Q"), parse_field("Q")
    assert first == second and first is not second
    a, b = first.from_str("3/4"), second.from_str("3/4")
    assert a == b and a is not b
    assert a.ctx is first and b.ctx is second
    assert first.from_str("3/4") is a
    assert scalar_from_json("1", second) is second.one is not first.one
    # two loads of one document build two contexts, each holding its scalars
    obj = hopf_to_json(group_algebra(GroupTable.symmetric(3), first))
    H1, H2 = hopf_from_json(obj), hopf_from_json(obj)
    assert H1.ctx is not H2.ctx
    for H in (H1, H2):
        values = hopf_scalars(H)
        assert values and all(c.ctx is H.ctx for c in values)
        assert all(c is H.ctx.one for c in H.algebra.unit.values())
        assert all(c is H.ctx.one for c in H.coalgebra.counit)


@pytest.mark.parametrize("literal, error", [
    ("1/0", ZeroDivisionError),
    ("abc", ValueError),
    ("", ValueError),
    ({"n": 3, "coeffs": ["x"]}, ValueError),
    ({"n": 3, "coeffs": ["1", "0", "0"]}, ValueError),
    ({"n": 3, "coeffs": [True, False]}, ValueError),
    ({"n": 3, "coeffs": [1.0, 0]}, ValueError),
    ({"n": 3, "coeffs": "10"}, ValueError),
    ({"n": 3, "coeffs": [[1], 0]}, ValueError),
    ({"n": 3, "coeffs": [{"a": 1}]}, ValueError),
    ({"n": 3, "coeffs": None}, ValueError),
    ({"n": 5, "coeffs": ["1"]}, MixedContextError),
    (True, ValueError),
    (1.0, ValueError),
    ({"n": 3.0, "coeffs": ["1", "2"]}, ValueError),
])
def test_a_bad_literal_raises_on_every_call(literal, error):
    ctx = parse_field("Q(z3)")
    # the good literals that a bad one equals, parsed first: True == 1 and
    # 1.0 == 1, so a lookup before the type check would find these
    for good in (1, {"n": 3, "coeffs": [1, 0]}, {"n": 3, "coeffs": [1]}):
        assert scalar_from_json(good, ctx) is ctx.one
    for _ in range(3):
        with pytest.raises(error):
            scalar_from_json(literal, ctx)


def test_a_bad_prime_literal_raises_on_every_call():
    F5 = parse_field("F5")
    assert scalar_from_json({"p": 5, "value": 1}, F5) is F5.one
    for literal, error in (("1/5", ZeroDivisionError), ({"p": 5, "value": True}, ValueError),
                           ({"p": 5, "value": "1"}, ValueError), ({"p": 5, "value": 1.0},
                                                                   ValueError),
                           ({"p": 5.0, "value": 2}, ValueError)):
        for _ in range(3):
            with pytest.raises(error):
                scalar_from_json(literal, F5)


def test_the_field_of_a_literal_is_named_by_an_int():
    # True == 1 and 2.0 == 2, so a comparison with the context alone lets these in
    for field, literal in (("Q(z1)", {"n": True, "coeffs": ["1"]}),
                           ("Q(z2)", {"n": 2.0, "coeffs": ["1"]})):
        with pytest.raises(ValueError, match="must be an integer"):
            scalar_from_json(literal, parse_field(field))


def test_cyclotomic_coefficients_are_exact():
    # a float would enter as its binary expansion: 0.1 is
    # 3602879701896397/36028797018963968, and True would read as 1
    ctx = parse_field("Q(z3)")
    for coeffs in ([0.1], [True], [0, False], [0.5, 0]):
        with pytest.raises(ValueError, match="exact"):
            scalar_from_json({"n": 3, "coeffs": coeffs}, ctx)
    x = scalar_from_json({"n": 3, "coeffs": [1, "1/2"]}, ctx)
    assert x == ctx.one + ctx.from_fraction(Fraction(1, 2)) * ctx.zeta


def test_loading_parses_each_distinct_literal_once(monkeypatch):
    obj = hopf_to_json(taft(3, parse_field("Q(z3)")))
    literals = hopf_literals(obj)
    keys = {tuple(c["coeffs"]) if isinstance(c, dict) else c for c in literals}
    parsed = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            if args and isinstance(args[0], str):
                parsed.append(args[0])
            return Fraction(*args, **kwargs)

    monkeypatch.setattr(scalars, "Fraction", CountingFraction)
    H = hopf_from_json(obj)
    # one Fraction per coefficient of each distinct literal, against one per
    # coefficient of every literal when each entry is parsed anew
    assert len(parsed) == sum(len(k) for k in keys) == 2 * len(keys)
    assert len(keys) < len(literals) // 10
    assert hopf_to_json(H) == obj
    parsed.clear()
    hopf_from_json(obj)
    assert len(parsed) == sum(len(k) for k in keys)


def test_relative_data_is_parsed_in_one_context():
    path = FIXTURES / "h4-rrb-exact-factorization.json"
    data = rrb_from_json(json.loads(path.read_text()), base_dir=str(FIXTURES))
    ctx = data.H.ctx
    assert data.G.ctx is ctx and data.phi.ctx is ctx and data.B.ctx is ctx
    assert all(c.ctx is ctx for c in hopf_scalars(data.G))
    assert all(c is ctx.one for c in data.G.algebra.unit.values())


def test_a_pickled_context_keeps_its_parsed_one():
    ctx = parse_field("Q(z4)")
    x = scalar_from_json({"n": 4, "coeffs": ["1", "0"]}, ctx)
    y = ctx.from_str("2/3")
    ctx2, x2, y2 = pickle.loads(pickle.dumps((ctx, x, y)))
    assert ctx2 is not ctx and x2 is ctx2.one and y2.ctx is ctx2
    assert scalar_from_json({"n": 4, "coeffs": ["1", "0"]}, ctx2) is ctx2.one
    assert ctx2.from_str("2/3") is y2
    assert y2 * x2 is y2
