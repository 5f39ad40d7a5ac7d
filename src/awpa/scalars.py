"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A scalar is stored as a coordinate vector of rationals in the power basis
1, z, ..., z^(phi(m)-1) of Q(zeta_m).  All arithmetic is exact; there is no
floating point anywhere.

One table per conductor carries the field: ``_zeta_powers(m)`` holds z^k
reduced modulo the m-th cyclotomic polynomial Phi_m for k < m, and its
width is phi(m).  ``_reduce`` folds a coefficient list of any length
through it; products, embeddings, rationals and roots of unity all go
through that one step.  The inverse is the Galois norm: with sigma_k the
automorphism z -> z^k (gcd(k, m) = 1), 1/a = prod_{k != 1} sigma_k(a) / N(a),
where N(a) = a * prod_{k != 1} sigma_k(a) is rational.

Scalars of different conductors compare and combine by embedding both into
Q(zeta_lcm) via zeta_m = zeta_lcm^(lcm/m).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .errors import InternalInconsistency, ParseError

_ZERO = Fraction(0)


def euler_phi(m: int) -> int:
    count = 0
    for k in range(1, m + 1):
        if gcd(k, m) == 1:
            count += 1
    return count


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


def _reduce(m: int, coeffs) -> list[Fraction]:
    """Coordinates of sum_k coeffs[k] z^k in Q(zeta_m), for any len(coeffs)."""
    powers = _zeta_powers(m)
    phi = len(powers[0])
    vec = list(coeffs[:phi]) + [_ZERO] * (phi - len(coeffs))
    for k in range(phi, len(coeffs)):
        c = coeffs[k]
        if c:
            for i, p in enumerate(powers[k % m]):
                if p:
                    vec[i] += c * p
    return vec


class CycScalar:
    """An element of Q(zeta_m), held in canonical reduced form."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs):
        self.m = m
        self.coeffs = tuple(coeffs)
        if len(self.coeffs) != len(_zeta_powers(m)[0]):
            raise ValueError(f"Q(zeta_{m}) needs phi({m}) coordinates, got {len(self.coeffs)}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(value, m: int = 1) -> CycScalar:
        return CycScalar(m, _reduce(m, [Fraction(value)]))

    @staticmethod
    def zero(m: int = 1) -> CycScalar:
        return CycScalar.from_rational(0, m)

    @staticmethod
    def one(m: int = 1) -> CycScalar:
        return CycScalar.from_rational(1, m)

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
        spread = [_ZERO] * ((len(self.coeffs) - 1) * step + 1)
        spread[::step] = self.coeffs
        return CycScalar(big, _reduce(big, spread))

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
        if isinstance(value, (int, Fraction)):
            return CycScalar.from_rational(value, m)
        raise TypeError(f"cannot interpret {value!r} as a scalar")

    @staticmethod
    def _try_coerce(value):
        if isinstance(value, CycScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return CycScalar.from_rational(value, 1)
        return None

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_part(self) -> Fraction:
        """The value as a Fraction; only meaningful if is_rational()."""
        return self.coeffs[0]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> CycScalar:
        other = CycScalar._try_coerce(other)
        if other is None:
            return NotImplemented
        a, b = CycScalar._unify(self, other)
        return CycScalar(a.m, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> CycScalar:
        return CycScalar(self.m, tuple(-x for x in self.coeffs))

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
        a, b = CycScalar._unify(self, other)
        phi = len(a.coeffs)
        if phi == 1:
            return CycScalar(a.m, (a.coeffs[0] * b.coeffs[0],))
        # convolve, then fold exponents >= phi back down via the power table
        conv = [_ZERO] * (2 * phi - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        conv[i + j] += x * y
        return CycScalar(a.m, _reduce(a.m, conv))

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
        return CycScalar(m, [c / norm.coeffs[0] for c in conj.coeffs])

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
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, CycScalar):
            return NotImplemented
        a, b = CycScalar._unify(self, other)
        return a.coeffs == b.coeffs

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
    return CycScalar(m, map(Fraction, _zeta_powers(m)[power % m]))


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
