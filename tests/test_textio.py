"""Element text format: golden strings and round-trips."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awpa.engine import AwpaAlgebra
from awpa.errors import ParseError
from awpa.frobenius import clifford_algebra, parse_alg_elem, taft_algebra, trivial_algebra
from awpa.scalars import parse_scalar
from awpa.textio import element_str, parse_element
from awpa.verify import random_element


def test_golden_rewrite_string():
    ctx = AwpaAlgebra(trivial_algebra(), 2)
    prod = ctx.mul(parse_element(ctx, "s[2,1]"), parse_element(ctx, "x1"))
    assert element_str(prod) == "x2*s[2,1] - 1"


def test_perm_alias():
    ctx = AwpaAlgebra(trivial_algebra(), 2)
    assert parse_element(ctx, "perm[2,1]") == parse_element(ctx, "s[2,1]")


def test_zero_one():
    ctx = AwpaAlgebra(trivial_algebra(), 2)
    assert element_str(ctx.zero()) == "0"
    assert parse_element(ctx, "0").is_zero()
    assert element_str(ctx.one()) == "1"
    assert parse_element(ctx, "1") == ctx.one()


def test_parser_evaluates_products():
    ctx = AwpaAlgebra(clifford_algebra(), 2)
    # out-of-order generator products normalize
    e = parse_element(ctx, "b(c,1)*x1 + x1*b(c,1)")
    manual = ctx.mul(ctx.slot_elem(ctx.F.from_label("c"), 1), ctx.x(1)) + ctx.mul(
        ctx.x(1), ctx.slot_elem(ctx.F.from_label("c"), 1)
    )
    assert e == manual
    # c1 x1 = -x1 c1, so the sum is zero
    assert e.is_zero()


def test_coefficient_forms():
    ctx = AwpaAlgebra(clifford_algebra(), 2)
    e = parse_element(ctx, "3/2*x1^2*b(c,c)*s[2,1] - x2")
    s = element_str(e)
    assert parse_element(ctx, s) == e
    assert "3/2" in s


@pytest.mark.parametrize("make,n", [(trivial_algebra, 2), (clifford_algebra, 2),
                                    (lambda: taft_algebra(3), 2), (clifford_algebra, 3)])
def test_roundtrip_random(make, n):
    F = make()
    ctx = AwpaAlgebra(F, n)
    rng = random.Random(n * 1000 + F.dim)
    for _ in range(15):
        e = random_element(ctx, rng, terms=3)
        assert parse_element(ctx, element_str(e)) == e


def test_parse_errors():
    ctx = AwpaAlgebra(trivial_algebra(), 2)
    with pytest.raises(ParseError):
        parse_element(ctx, "x3")  # no such generator
    with pytest.raises(ParseError):
        parse_element(ctx, "s[3,1]")  # not a permutation of 1..2
    with pytest.raises(ParseError):
        parse_element(ctx, "b(q,1)")  # unknown label
    with pytest.raises(ParseError):
        parse_element(ctx, "")
    for text in ("x1 -", "x1 + x2 +", "-", "1/0*x1", "x1 - 3/0", "x1*", "x1**x2", "*x1"):
        with pytest.raises(ParseError):
            parse_element(ctx, text)  # dangling sign, zero denominator, empty factor


def unit_parsers():
    """The three text parsers, each with the unit of what it returns."""
    Cl = clifford_algebra()
    A = AwpaAlgebra(Cl, 2)
    return [
        (parse_scalar, 1),
        (lambda t: parse_alg_elem(Cl, t), Cl.unit_elem()),
        (lambda t: parse_element(A, t), A.one()),
    ]


def test_parsers_agree_on_dangling_sign():
    for parse, unit in unit_parsers():
        with pytest.raises(ParseError):
            parse("1 -")
        for text, value in [("1 - -1", 2), ("- -1", 1), ("1 + + 1", 2), ("-(1 - 2)", 1)]:
            assert parse(text) == value * unit
    Cl = clifford_algebra()
    assert parse_alg_elem(Cl, "c + -c").is_zero()
    assert parse_element(AwpaAlgebra(Cl, 2), "b(c,1) + -b(c,1)").is_zero()


@st.composite
def signed_sums(draw, depth=2):
    """A signed sum of rationals as (text, value), with runs of signs, spaces
    and parenthesized groups.  The value is None where the text is
    malformed: an empty sum or group, a trailing sign or a zero denominator."""
    space = st.sampled_from(["", " ", "  "])
    text, value = "", Fraction(0)
    for i in range(draw(st.integers(0, 3))):
        signs = draw(st.lists(st.sampled_from("+-"), min_size=1 if i else 0, max_size=3))
        if depth and draw(st.booleans()):
            inner, v = draw(signed_sums(depth - 1))
            term = f"({inner})"
        else:
            p, q = draw(st.integers(0, 9)), draw(st.sampled_from([None, 0, 1, 2, 3]))
            term = str(p) if q is None else f"{p}/{q}"
            v = None if q == 0 else Fraction(p, q or 1)
        text += "".join(draw(space) + s for s in signs) + draw(space) + term
        value = None if value is None or v is None else value + (-1) ** signs.count("-") * v
    if not text:
        value = None
    if draw(st.booleans()):
        text += draw(space) + draw(st.sampled_from("+-"))
        value = None
    return text + draw(space), value


@settings(max_examples=150, deadline=None)
@given(signed_sums())
def test_parsers_agree_on_signed_sums(case):
    text, value = case
    for parse, unit in unit_parsers():
        if value is None:
            with pytest.raises(ParseError):
                parse(text)
        else:
            assert parse(text) == value * unit
