"""Sparse linear combinations {key: CycScalar} with no stored zeros.

``acc`` is the one accumulate-and-drop-zero step of the package, and
``SparseElem`` holds the arithmetic every element class shares: sums,
differences, negation, scalar multiples and equality.  The element classes
build on it and keep only what is their own (their context, operand check,
product and printing):

* ``engine.AwpaElem``: A_n(F) in normal form, keys (alpha, word, perm); the
  keys with alpha = 0 span the wreath product F^(x)n x| S_n, and those with
  alpha = 0 and perm = 1 the tensor power F^(x)n, and A_n(F) is also the
  module P_n(F) (x) kS_n that ``oracle_act`` acts on;
* ``cyclotomic.CycloElem``: the cyclotomic quotient, AwpaElem's keys;
* ``frobenius.AlgElem``: F itself, keys are basis indices; ``FrobAlg``
  hands out its structure constants and psi-powers as such zero-free rows.

``terms`` is a plain dict, read-only by convention: operations build new
elements and never change an operand, nor a dict a memo hands out.
``memoized`` is the one memo of the package: it keeps results in a dict on
their owner and stops storing at ``MEMO_CAP`` entries.
"""

from __future__ import annotations

from functools import wraps

MEMO_CAP = 200_000  # entries a memo keeps; later results are not stored


def memoized(attr: str):
    """Keep the results of a method, or of a function of its first argument
    (the owner), in the dict ``owner.<attr>`` keyed by the other positional
    arguments, storing while that dict holds fewer than MEMO_CAP entries."""

    def decorate(fn):
        @wraps(fn)
        def memo(owner, *args):
            cache = getattr(owner, attr)
            out = cache.get(args)
            if out is None:
                out = fn(owner, *args)
                if len(cache) < MEMO_CAP:
                    cache[args] = out
            return out

        return memo

    return decorate


def acc(d: dict, key, value):
    """d[key] += value, keeping d free of zero coefficients."""
    old = d.get(key)
    if old is None:
        if value:
            d[key] = value
    else:
        s = old + value
        if s:
            d[key] = s
        else:
            del d[key]


class SparseElem:
    """Base of the element classes.  A subclass names its context slots in
    ``_context``, sets them before calling ``SparseElem.__init__``, and may
    override ``_check`` to reject operands from another context."""

    __slots__ = ("terms",)
    _context: tuple = ()

    def __init__(self, terms=None):
        self.terms = {k: c for k, c in terms.items() if c} if terms else {}

    def _like(self, terms: dict):
        """A new element in self's context from terms that hold no zero."""
        out = object.__new__(type(self))
        for name in self._context:
            setattr(out, name, getattr(self, name))
        out.terms = terms
        return out

    def _check(self, other):
        pass

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            acc(out, k, c)
        return self._like(out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            acc(out, k, -c)
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __mul__(self, scalar):
        out = {}
        for k, c in self.terms.items():
            v = c * scalar
            if v:
                out[k] = v
        return self._like(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return self.terms == other.terms

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.terms
