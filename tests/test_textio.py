"""Element text format: golden strings and round-trips."""

import random

import pytest

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
    for text in ("x1 -", "x1 + x2 +", "-", "1/0*x1", "x1 - 3/0"):
        with pytest.raises(ParseError):
            parse_element(ctx, text)  # dangling sign, zero denominator


def test_parsers_agree_on_dangling_sign():
    Cl = clifford_algebra()
    for parse in (lambda t: parse_alg_elem(Cl, t), lambda t: parse_scalar(t),
                  lambda t: parse_element(AwpaAlgebra(Cl, 2), t)):
        with pytest.raises(ParseError):
            parse("1 -")
