"""Text format for elements of A_n(F).

A term is "coef * x1^a1 * ... * xn^an * b(w1,...,wn) * s[one-line]" with
trivial pieces omitted: zero exponents, the all-units word, the identity
permutation, and a coefficient of 1.  The permutation part also parses as
"perm[...]".  The parser evaluates factors left to right with the engine
product, so any product of generators in any order is accepted; printing
always emits canonical normal-form terms, so round-tripping is exact.  Sums
are split by ``scalars.signed_terms``, the grammar of every text parser.
"""

from __future__ import annotations

import re

from .engine import AwpaAlgebra, AwpaElem
from .errors import ParseError
from .scalars import parse_scalar, signed_terms, split_top

_X_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")
_WORD_RE = re.compile(r"^b\((.*)\)$")
_PERM_RE = re.compile(r"^(?:s|perm)\[(.*)\]$")


def parse_element(ctx: AwpaAlgebra, text: str) -> AwpaElem:
    out = ctx.zero()
    for sign, term in signed_terms(text):
        elem = ctx.one()
        for f in split_top(term, "*")[::2]:
            f = f.strip()
            if not f:
                raise ParseError(f"empty factor in {term!r}")
            elem = ctx.mul(elem, _parse_factor(ctx, f))
        out = out + sign * elem
    return out


def _parse_factor(ctx: AwpaAlgebra, f: str) -> AwpaElem:
    m = _X_RE.match(f)
    if m:
        i = int(m.group(1))
        e = int(m.group(2) or 1)
        if not 1 <= i <= ctx.n:
            raise ParseError(f"no generator x{i} for n={ctx.n}")
        return ctx.x(i, e)
    m = _WORD_RE.match(f)
    if m:
        labels = [s.strip() for s in split_top(m.group(1), ",")[::2] if s.strip()]
        if len(labels) != ctx.n:
            raise ParseError(f"word needs {ctx.n} slots, got {len(labels)}")
        word = []
        for lbl in labels:
            if lbl not in ctx.F.basis_labels:
                raise ParseError(f"unknown basis label {lbl!r}")
            word.append(ctx.F.basis_labels.index(lbl))
        return ctx.monomial(ctx.zero_alpha, word, ctx.identity_perm)
    m = _PERM_RE.match(f)
    if m:
        try:
            oneline = tuple(int(v) for v in m.group(1).split(","))
        except ValueError as exc:
            raise ParseError(f"bad permutation {f!r}") from exc
        if sorted(oneline) != list(range(1, ctx.n + 1)):
            raise ParseError(f"{f!r} is not a permutation of 1..{ctx.n}")
        return ctx.perm_elem(oneline)
    try:
        return ctx.scalar_elem(parse_scalar(f, ctx.F.conductor))
    except ParseError as exc:
        raise ParseError(f"cannot parse factor {f!r}: {exc}") from exc


def _coeff_parts(c) -> tuple[int, str]:
    """(sign, magnitude-string); sign only extracted for rational coefficients."""
    if c.is_rational():
        r = c.rational_part()
        mag = -r if r < 0 else r
        return (-1 if r < 0 else 1), str(mag)
    return 1, f"({c})"


def term_str(ctx: AwpaAlgebra, key, coeff) -> tuple[int, str]:
    alpha, word, pi = key
    sign, mag = _coeff_parts(coeff)
    bits = []
    if mag != "1":
        bits.append(mag)
    for i, e in enumerate(alpha):
        if e == 1:
            bits.append(f"x{i + 1}")
        elif e > 1:
            bits.append(f"x{i + 1}^{e}")
    if ctx._unit_words != {word: 1}:
        labels = ",".join(ctx.F.basis_labels[b] for b in word)
        bits.append(f"b({labels})")
    if pi != ctx.identity_perm:
        bits.append("s[" + ",".join(map(str, pi)) + "]")
    if not bits:
        bits = [mag]
    return sign, "*".join(bits)


def sort_key(key):
    """Canonical term order: descending in the exponent vector, then by
    basis-word index and one-line permutation."""
    alpha, word, pi = key
    return (tuple(-a for a in alpha), word, pi)


def element_str(elem: AwpaElem) -> str:
    if not elem.terms:
        return "0"
    ctx = elem.ctx
    pieces = []
    for key in sorted(elem.terms, key=sort_key):
        sign, body = term_str(ctx, key, elem.terms[key])
        if not pieces:
            pieces.append(body if sign > 0 else f"-{body}")
        else:
            pieces.append(("+ " if sign > 0 else "- ") + body)
    return " ".join(pieces)
