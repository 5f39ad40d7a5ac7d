"""Exact cyclotomic scalar arithmetic."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awpa.errors import InternalInconsistency, ParseError
from awpa.scalars import (
    CycScalar,
    cyclotomic_polynomial,
    parse_scalar,
    root_of_unity,
)


def euler_phi(m: int) -> int:
    """phi(m) by counting, independent of the power table's width."""
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


def test_rational_arithmetic():
    a = CycScalar.from_rational(Fraction(1, 2))
    b = CycScalar.from_rational(Fraction(1, 3))
    assert a + b == Fraction(5, 6)


def test_zeta4_squared():
    z = root_of_unity(4)
    assert z * z == -1


def test_zeta3_squared_reduces():
    z = root_of_unity(3)
    # z^2 = -1 - z modulo x^2 + x + 1
    assert z * z == -1 - z
    assert (z * z).coeffs == (Fraction(-1), Fraction(-1))


def test_root_of_unity_basics():
    assert root_of_unity(1, 0) == 1
    assert root_of_unity(2, 1) == -1
    assert root_of_unity(4, 2) == -1
    assert root_of_unity(6, 6) == 1


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8, 9, 12])
def test_root_has_exact_order(m):
    z = root_of_unity(m)
    powers = [z**k for k in range(1, m + 1)]
    assert powers[-1] == 1
    for k in range(1, m):
        assert powers[k - 1] != 1


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert len(cyclotomic_polynomial(12)) == euler_phi(12) + 1


def random_scalar(rng, m):
    phi = euler_phi(m)
    return CycScalar(
        m, [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(phi)]
    )


def assert_canonical(x):
    """x is in lowest terms over a positive denominator, and rebuilding it
    from its Fraction coordinates gives the same integers."""
    assert len(x.nums) == euler_phi(x.m)
    assert x.den > 0 and gcd(x.den, *x.nums) == 1
    again = CycScalar(x.m, x.coeffs)
    assert (again.nums, again.den) == (x.nums, x.den)


@pytest.mark.parametrize("m", [1, 3, 4, 5, 12])
def test_field_axioms(m):
    rng = random.Random(m)
    assert CycScalar.one(m) is CycScalar.one(m)
    assert CycScalar.zero(m) is CycScalar.zero(m)
    for _ in range(25):
        a, b, c = (random_scalar(rng, m) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        results = [a + b, a - b, a - a, a * b, a * 0, a.lift(2 * m), root_of_unity(m) * a]
        if not a.is_zero():
            assert a * a.inverse() == 1
            assert (b / a) * a == b
            results.append(a.inverse())
        for x in results:
            assert_canonical(x)


@pytest.mark.parametrize("m,k", [(2, 3), (3, 2), (4, 3), (1, 12)])
def test_embedding_commutes_with_arithmetic(m, k):
    rng = random.Random(m * 100 + k)
    big = m * k
    for _ in range(20):
        a, b = random_scalar(rng, m), random_scalar(rng, m)
        assert (a + b).lift(big) == a.lift(big) + b.lift(big)
        assert (a * b).lift(big) == a.lift(big) * b.lift(big)
        if not a.is_zero():
            assert a.inverse().lift(big) == a.lift(big).inverse()


def test_cross_conductor_equality():
    assert root_of_unity(2, 1) == root_of_unity(4, 2)
    assert root_of_unity(3, 1) == root_of_unity(6, 2)
    assert root_of_unity(6, 3) == -1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        CycScalar.one() / CycScalar.zero()


def test_checks_raise_under_python_O():
    with pytest.raises(ValueError):
        CycScalar(3, (Fraction(1),))  # Q(zeta_3) has two coordinates
    with pytest.raises(ValueError):
        root_of_unity(3).lift(4)  # 3 does not divide 4


@pytest.mark.parametrize(
    "make",
    [lambda: CycScalar.zero(-3), lambda: parse_scalar("z", 0), lambda: root_of_unity(0)],
    ids=["zero", "parse_scalar", "root_of_unity"],
)
def test_conductor_below_one_is_rejected(make):
    with pytest.raises(ValueError, match="conductor must be >= 1"):
        make()


def test_inverse_rejects_non_rational_norm(monkeypatch):
    # with sigma_k forced to the identity, N(1 + z) = (1 + z)^2 = z
    a = 1 + root_of_unity(3)
    monkeypatch.setattr(CycScalar, "_substitute", lambda self, big, step: self)
    with pytest.raises(InternalInconsistency):
        a.inverse()


@pytest.mark.parametrize("m", [1, 2, 3, 4, 12])
def test_str_parse_roundtrip(m):
    rng = random.Random(m)
    for _ in range(20):
        a = random_scalar(rng, m)
        assert parse_scalar(str(a), m) == a


def test_parse_forms():
    assert parse_scalar("5/6") == Fraction(5, 6)
    assert parse_scalar("-3") == -3
    assert parse_scalar("1/2 + 1/2*z", 4) * 2 == 1 + root_of_unity(4)
    assert parse_scalar("z^2", 3) == root_of_unity(3, 2)
    assert parse_scalar("(1 - z)", 4) == 1 - root_of_unity(4)


@pytest.mark.parametrize("text", ["1/0", "3/0*z", "1 -", "1 + z -", "(1 - z) +", "-"])
def test_parse_rejects_zero_denominator_and_dangling_sign(text):
    with pytest.raises(ParseError):
        parse_scalar(text, 3)


# -- sympy as an independent oracle ---------------------------------------
#
# The power table and cyclotomic_polynomial share one integer division, so
# products, inverses and embeddings are checked against sympy's polynomial
# remainder and inverse modulo its own cyclotomic polynomials.

ORACLE = settings(max_examples=150, deadline=None)


@pytest.fixture(scope="module")
def sp():
    return pytest.importorskip("sympy")


@st.composite
def field_scalars(draw, m):
    small = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    return CycScalar(m, [draw(small) for _ in range(euler_phi(m))])


def to_poly(sp, a):
    x = sp.Symbol("x")
    coeffs = [sp.Rational(c.numerator, c.denominator) for c in reversed(a.coeffs)]
    return sp.Poly(coeffs, x, domain="QQ")


def poly_coords(poly, m):
    """Coordinates of a sympy Poly already reduced modulo Phi_m."""
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    return tuple(coeffs + [Fraction(0)] * (euler_phi(m) - len(coeffs)))


def phi_poly(sp, m):
    x = sp.Symbol("x")
    return sp.Poly(sp.cyclotomic_poly(m, x), x, domain="QQ")


@pytest.mark.parametrize("m", range(1, 31))
def test_cyclotomic_polynomial_matches_sympy(sp, m):
    expected = [int(c) for c in reversed(phi_poly(sp, m).all_coeffs())]
    assert cyclotomic_polynomial(m) == expected


@ORACLE
@given(data=st.data())
def test_mul_matches_sympy(sp, data):
    """``*``, ``+`` and ``-`` against sympy's polynomial arithmetic."""
    m = data.draw(st.integers(1, 15))
    a, b = data.draw(field_scalars(m)), data.draw(field_scalars(m))
    pa, pb = to_poly(sp, a), to_poly(sp, b)
    assert (a * b).coeffs == poly_coords((pa * pb).rem(phi_poly(sp, m)), m)
    assert (a + b).coeffs == poly_coords(pa + pb, m)
    assert (a - b).coeffs == poly_coords(pa - pb, m)


@ORACLE
@given(data=st.data())
def test_inverse_matches_sympy(sp, data):
    m = data.draw(st.integers(1, 15))
    a = data.draw(field_scalars(m).filter(bool))
    expected = to_poly(sp, a).invert(phi_poly(sp, m))
    assert a.inverse().coeffs == poly_coords(expected, m)


@ORACLE
@given(data=st.data())
def test_lift_matches_sympy(sp, data):
    m = data.draw(st.integers(1, 15))
    k = data.draw(st.sampled_from([2, 3]))
    a = data.draw(field_scalars(m))
    x = sp.Symbol("x")
    expected = to_poly(sp, a).compose(sp.Poly(x**k, x, domain="QQ")).rem(phi_poly(sp, m * k))
    lifted = a.lift(m * k)
    assert lifted.m == m * k
    assert lifted.coeffs == poly_coords(expected, m * k)
