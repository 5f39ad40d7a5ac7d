"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A scalar is stored as integer numerators ``nums`` over one positive
denominator ``den``: its coordinates in the power basis 1, z, ...,
z^(phi(m)-1) of Q(zeta_m) are ``nums[k] / den``, kept in lowest terms
(gcd(den, *nums) == 1), so the form is unique.  Every operation runs on
Python ints and takes one gcd on its result; ``Fraction`` appears only at
the boundary (the constructor, ``coeffs``, ``rational_part``, rational
operands and parsing).  There is no floating point anywhere.

One table per conductor carries the field: ``_zeta_powers(m)`` holds z^k
reduced modulo the m-th cyclotomic polynomial Phi_m for k < m, and its
width is phi(m).  ``_reduce`` folds an integer coefficient list of any
length through it; products and embeddings go through that one step.  The
inverse is the Galois norm: with sigma_k the automorphism z -> z^k
(gcd(k, m) = 1), 1/a = prod_{k != 1} sigma_k(a) / N(a), where
N(a) = a * prod_{k != 1} sigma_k(a) is rational.

Scalars of different conductors compare and combine by embedding both into
Q(zeta_lcm) via zeta_m = zeta_lcm^(lcm/m).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .errors import InternalInconsistency, ParseError

_RATIONAL = (int, Fraction)


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Divide integer polynomials (coefficient lists, lowest degree first) by
    a monic ``den``.  The remainder has exactly deg(den) coefficients."""
    if den[-1] != 1:
        raise ValueError(f"divisor {den} is not monic")
    num = list(num) + [0] * (len(den) - 1 - len(num))
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = c = num[k + len(den) - 1]
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    return q, num[: len(den) - 1]


@cache
def cyclotomic_polynomial(m: int) -> list[int]:
    """Integer coefficients of Phi_m, lowest degree first (monic)."""
    # Phi_m = (x^m - 1) / prod_{d | m, d < m} Phi_d
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_polynomial(d))
            if any(rem):
                raise InternalInconsistency(f"Phi_{d} does not divide x^{m} - 1")
    return poly


@cache
def _zeta_powers(m: int) -> list[tuple[int, ...]]:
    """zeta_m^k for k = 0..m-1: x^k mod Phi_m as integer coordinate vectors."""
    if m < 1:
        raise ValueError("conductor must be >= 1")
    cyc = cyclotomic_polynomial(m)
    return [tuple(_poly_divmod([0] * k + [1], cyc)[1]) for k in range(m)]


def _reduce(m: int, coeffs) -> list[int]:
    """Integer coordinates of sum_k coeffs[k] z^k in Q(zeta_m), for any
    len(coeffs)."""
    powers = _zeta_powers(m)
    phi = len(powers[0])
    vec = list(coeffs[:phi]) + [0] * (phi - len(coeffs))
    for k in range(phi, len(coeffs)):
        c = coeffs[k]
        if c:
            for i, p in enumerate(powers[k % m]):
                if p:
                    vec[i] += c * p
    return vec


def _canonical(m: int, nums, den: int) -> CycScalar:
    """The scalar nums / den (den > 0) of Q(zeta_m), in lowest terms: the
    one gcd every operation takes."""
    g = gcd(den, *nums) if den != 1 else 1
    if g != 1:
        nums = [x // g for x in nums]
        den //= g
    out = object.__new__(CycScalar)
    out.m = m
    out.nums = tuple(nums)
    out.den = den
    return out


@cache
def _constant(m: int, value: int) -> CycScalar:
    """The rational ``value`` of Q(zeta_m), one object per (m, value)."""
    return CycScalar.from_rational(value, m)


class CycScalar:
    """An element of Q(zeta_m): integer numerators ``nums`` (phi(m) of them)
    over one denominator ``den > 0`` with gcd(den, *nums) == 1.  Every
    operation brings its result to this form with one gcd (``_canonical``).
    Scalars are immutable; ``coeffs`` gives the coordinates as Fractions."""

    __slots__ = ("m", "nums", "den")

    def __init__(self, m: int, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != len(_zeta_powers(m)[0]):
            raise ValueError(f"Q(zeta_{m}) needs phi({m}) coordinates, got {len(coeffs)}")
        den = lcm(*(c.denominator for c in coeffs))  # leaves gcd(den, *nums) == 1
        self.m = m
        self.nums = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(value, m: int = 1) -> CycScalar:
        if not isinstance(value, int):
            value = Fraction(value)
        phi = len(_zeta_powers(m)[0])
        return _canonical(m, (value.numerator,) + (0,) * (phi - 1), value.denominator)

    @staticmethod
    def zero(m: int = 1) -> CycScalar:
        return _constant(m, 0)

    @staticmethod
    def one(m: int = 1) -> CycScalar:
        return _constant(m, 1)

    # -- conductor handling ------------------------------------------------

    def lift(self, big: int) -> CycScalar:
        """Embed into Q(zeta_big); requires m | big."""
        if big == self.m:
            return self
        if big % self.m:
            raise ValueError(f"cannot embed Q(zeta_{self.m}) into Q(zeta_{big})")
        return self._substitute(big, big // self.m)

    def _substitute(self, big: int, step: int) -> CycScalar:
        """The image under z -> zeta_big^step, reduced in Q(zeta_big)."""
        spread = [0] * ((len(self.nums) - 1) * step + 1)
        spread[::step] = self.nums
        return _canonical(big, _reduce(big, spread), self.den)

    @staticmethod
    def _unify(a: CycScalar, b: CycScalar) -> tuple[CycScalar, CycScalar]:
        if a.m == b.m:
            return a, b
        big = lcm(a.m, b.m)
        return a.lift(big), b.lift(big)

    @staticmethod
    def _coerce(value, m: int = 1) -> CycScalar:
        if isinstance(value, CycScalar):
            return value
        if isinstance(value, _RATIONAL):
            return CycScalar.from_rational(value, m)
        raise TypeError(f"cannot interpret {value!r} as a scalar")

    @staticmethod
    def _try_coerce(value):
        if isinstance(value, CycScalar):
            return value
        if isinstance(value, _RATIONAL):
            return CycScalar.from_rational(value, 1)
        return None

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self) -> bool:
        return any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_part(self) -> Fraction:
        """The value as a Fraction; only meaningful if is_rational()."""
        return Fraction(self.nums[0], self.den)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> CycScalar:
        other = CycScalar._try_coerce(other)
        if other is None:
            return NotImplemented
        a, b = (self, other) if self.m == other.m else CycScalar._unify(self, other)
        da, db = a.den, b.den
        if da == db:
            return _canonical(a.m, [x + y for x, y in zip(a.nums, b.nums)], da)
        return _canonical(a.m, [x * db + y * da for x, y in zip(a.nums, b.nums)], da * db)

    __radd__ = __add__

    def __neg__(self) -> CycScalar:
        return _canonical(self.m, [-x for x in self.nums], self.den)

    def __sub__(self, other) -> CycScalar:
        other = CycScalar._try_coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> CycScalar:
        other = CycScalar._try_coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> CycScalar:
        other = CycScalar._try_coerce(other)
        if other is None:
            return NotImplemented
        a, b = (self, other) if self.m == other.m else CycScalar._unify(self, other)
        an, bn = a.nums, b.nums
        den = a.den * b.den
        # a rational operand (every one when phi(m) = 1) scales the other
        if not any(an[1:]):
            x = an[0]
            return _canonical(a.m, [x * y for y in bn], den)
        if not any(bn[1:]):
            y = bn[0]
            return _canonical(a.m, [x * y for x in an], den)
        # convolve, then fold exponents >= phi back down via the power table
        conv = [0] * (2 * len(an) - 1)
        for i, x in enumerate(an):
            if x:
                for j, y in enumerate(bn):
                    if y:
                        conv[i + j] += x * y
        return _canonical(a.m, _reduce(a.m, conv), den)

    __rmul__ = __mul__

    def inverse(self) -> CycScalar:
        if self.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        # Galois norm: conj = prod_{k != 1} sigma_k(self), N = self * conj
        m = self.m
        conj = CycScalar.one(m)
        for k in range(2, m):
            if gcd(k, m) == 1:
                conj = conj * self._substitute(m, k)
        norm = self * conj
        if not norm.is_rational():
            raise InternalInconsistency(f"norm of {self} in Q(zeta_{m}) is not rational: {norm}")
        # conj / (p / q) = (q * conj.nums) / (p * conj.den), with the sign on top
        p, q = norm.nums[0], norm.den
        if p < 0:
            p, q = -p, -q
        return _canonical(m, [q * x for x in conj.nums], p * conj.den)

    def __truediv__(self, other) -> CycScalar:
        other = CycScalar._try_coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> CycScalar:
        other = CycScalar._try_coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int) -> CycScalar:
        if k < 0:
            return self.inverse() ** (-k)
        result = CycScalar.one(self.m)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, _RATIONAL):
            return self.is_rational() and self.nums[0] == other * self.den
        if not isinstance(other, CycScalar):
            return NotImplemented
        a, b = CycScalar._unify(self, other)
        return a.den == b.den and a.nums == b.nums

    __hash__ = None  # equality crosses conductors; do not use as dict keys

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                z = "z" if k == 1 else f"z^{k}"
                if c == 1:
                    terms.append(z)
                elif c == -1:
                    terms.append(f"-{z}")
                else:
                    terms.append(f"{c}*{z}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out

    def __repr__(self) -> str:
        return f"CycScalar({self.m}, {self})"


def root_of_unity(m: int, power: int = 1) -> CycScalar:
    """zeta_m^power as an element of Q(zeta_m)."""
    return _canonical(m, _zeta_powers(m)[power % m], 1)


_TERM_RE = re.compile(
    r"""^(?P<num>\d+)?               # optional integer part
    (?:/(?P<den>\d+))?              # optional denominator
    (?P<star>\s*\*\s*)?             # optional '*'
    (?P<z>z(\^(?P<exp>\d+))?)?      # optional power of z
    $""",
    re.VERBOSE,
)


def split_top(text: str, seps: str) -> list[str]:
    """Split on separators at bracket depth zero.  Each separator is kept as
    its own item, so the pieces between separators sit at the even indices."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if depth == 0 and ch in seps:
            parts.append("".join(cur))
            parts.append(ch)
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def signed_terms(text: str) -> list[tuple[int, str]]:
    """The (sign, term) pairs of a sum "t1 + t2 - t3 ...", split at bracket
    depth zero; a run of signs multiplies, so "1 - -2" is 1 + 2.  Every
    text parser in the package reads its sums through this one function."""
    pieces = split_top(text, "+-")
    out = []
    sign = 1
    for i, piece in enumerate(pieces):
        piece = piece.strip()
        if i % 2:
            sign = -sign if piece == "-" else sign
        elif piece:
            out.append((sign, piece))
            sign = 1
    if not out:
        raise ParseError(f"empty sum {text!r}")
    if not pieces[-1].strip():
        raise ParseError(f"dangling sign at the end of {text!r}")
    return out


def parse_scalar(text: str, conductor: int = 1) -> CycScalar:
    """Parse the textual form produced by str(): "p/q", "p/q*z^k + ...".

    ``z`` denotes zeta_conductor; a term in parentheses is a sum itself.
    """
    total = CycScalar.zero(conductor)
    for sign, piece in signed_terms(text):
        if piece.startswith("(") and piece.endswith(")"):
            total = total + sign * parse_scalar(piece[1:-1], conductor)
            continue
        mt = _TERM_RE.match(piece)
        if not mt or (mt.group("num") is None and mt.group("z") is None):
            raise ParseError(f"bad scalar term {piece!r} in {text!r}")
        num = Fraction(int(mt.group("num") or 1))
        if mt.group("den"):
            if int(mt.group("den")) == 0:
                raise ParseError(f"zero denominator in {text!r}")
            num /= int(mt.group("den"))
        term = CycScalar.from_rational(sign * num, conductor)
        if mt.group("z"):
            term = term * root_of_unity(conductor, int(mt.group("exp") or 1))
        total = total + term
    return total
