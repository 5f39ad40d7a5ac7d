"""Cyclotomic quotients of affine wreath product algebras.

The quotient is by the two-sided ideal generated by

    chi = prod_{k=1}^{theta} prod_{j=1}^{e_k} (x_1^k - c^(k,j)),

where each parameter c^(k,j) is even of degree k*delta and psi-fixed with
the slot-1 commutation behaviour of x_1^k.  The level d = sum k e_k bounds
every exponent in the reduced normal form: the quotient has basis
x^alpha b pi with all alpha_i < d, hence dimension n! (d dim F)^n.

Reduction rewrites any x_i^d via the cached element x_i^d - chi_i (of
polynomial degree < d), where chi_i = s_{i-1}...s_1 chi s_1...s_{i-1}; the
only genuine substitution site is slot 1, the others reach it through the
s-relations.  Each substitution strictly drops polynomial degree.

The quotient trace tr_C reads off the coefficient of
x_1^(d-1)...x_n^(d-1) * f * 1 weighted by tr^(x)n(f); it is a nondegenerate
trace making the quotient a graded Frobenius superalgebra whose Nakayama
automorphism fixes the x_i and permutations and twists F^(x)n by psi^d.
"""

from __future__ import annotations

import os
from itertools import product
from math import factorial

from . import linalg
from . import permutations as perms
from .engine import AwpaAlgebra, AwpaElem
from .errors import (
    BadParams,
    InternalInconsistency,
    LevelZero,
    ParamsMismatch,
    ParseError,
    TooLarge,
    WrongDegree,
)
from .frobenius import AlgElem, FrobAlg
from .scalars import CycScalar
from .sparse import SparseElem, acc, memoized
from .wreath import word_parity

DEFAULT_GRAM_BOUND = 20_000


def gram_entry_bound() -> int:
    value = os.environ.get("AWPA_MAX_DIM")
    try:
        bound = int(value) if value else DEFAULT_GRAM_BOUND
    except ValueError:
        bound = 0
    if bound < 1:
        raise ParseError(f"AWPA_MAX_DIM must be a positive integer, got {value!r}")
    return bound


def _check_matrix_size(what: str, dim: int):
    """Refuse a dim x dim matrix with more entries than the configured bound."""
    bound = gram_entry_bound()
    if dim * dim > bound:
        raise TooLarge(
            f"{what} would have {dim * dim} entries; "
            f"bound is {bound} (set AWPA_MAX_DIM to override)"
        )


def _param_elem(F: FrobAlg, k: int, c):
    """The parameter value c at k as an element: a label reads as a basis
    element of F and a list or tuple as dense coordinates."""
    if isinstance(c, (AlgElem, AwpaElem)):
        return c
    if isinstance(c, str):
        return F.from_label(c)
    if isinstance(c, (list, tuple)):
        return F.elem(c)
    raise BadParams(f"parameter at k={k} is not an element, a label or coordinates: {c!r}")


class CycloParams:
    """Validated cyclotomic parameters.

    ``entries`` maps k (1 <= k <= theta) to the list of parameters c^(k,j),
    each an AlgElem of F (also given as a basis label or as a list or tuple
    of dense coordinates), or an element of F^(x)n: an AwpaElem of A_n(F)
    on alpha = 0, pi = 1 keys.  An AlgElem is a slot-1
    parameter, which must lie in F_psi^(k), the standing restriction: the
    quotient is then defined uniformly in n and carries the
    induction/restriction structure; it is checked as the one-slot tensor,
    where F_1^(k) is F_psi^(k).  An AwpaElem is a general parameter, which
    must lie in F_1^(k) for its own n; these fix ``n_fixed``, the one n the
    quotient can be built for, and such parameters neither serialize nor
    induce.  The constructor refuses a parameter outside its F_1^(k), a k
    outside 1..theta, level zero, and tensors of different n.
    """

    def __init__(self, F: FrobAlg, entries: dict):
        self.F = F
        self.entries: dict = {}
        for k, values in entries.items():
            if not 1 <= k <= F.theta:
                raise WrongDegree(f"parameter index k={k} outside 1..theta={F.theta}")
            out = [_param_elem(F, k, c) for c in values]
            for c in out:
                general = isinstance(c, AwpaElem)
                ctx = AwpaAlgebra(F, c.ctx.n if general else 1)
                ctx._check_f1(c if general else ctx.slot_elem(c, 1), k)
            if out:
                self.entries[k] = out
        self.level = sum(k * len(v) for k, v in self.entries.items())
        if self.level < 1:
            raise LevelZero("cyclotomic level must be at least 1")
        ns = {c.ctx.n for v in self.entries.values() for c in v if isinstance(c, AwpaElem)}
        if len(ns) > 1:
            raise ParamsMismatch(f"tensor parameters of different n: {sorted(ns)}")
        self.n_fixed = ns.pop() if ns else None

    @property
    def general(self) -> bool:
        return self.n_fixed is not None

    def to_json_dict(self) -> dict:
        if self.general:
            raise ParamsMismatch("general tensor parameters do not serialize")
        theta = self.F.theta
        e = [len(self.entries.get(k, ())) for k in range(1, theta + 1)]
        c = [[str(el) for el in self.entries.get(k, ())] for k in range(1, theta + 1)]
        return {"e": e, "c": c}

    @staticmethod
    def from_json_dict(F: FrobAlg, data: dict) -> CycloParams:
        from .frobenius import parse_alg_elem

        try:
            e, c = data["e"], data["c"]
            if not all(type(v) is int for v in e) or not all(
                isinstance(s, list) and all(isinstance(t, str) for t in s) for s in c
            ):
                raise TypeError("e must list integers and c lists of element strings")
            entries = {k0 + 1: [parse_alg_elem(F, t) for t in s] for k0, s in enumerate(c) if s}
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed cyclotomic section: {exc}") from exc
        # compare over the longer list: a missing count is 0, a missing list []
        for k0 in range(max(len(e), len(c))):
            if (e[k0] if k0 < len(e) else 0) != len(entries.get(k0 + 1, ())):
                raise ParamsMismatch("e vector does not match parameter lists")
        return CycloParams(F, entries)


# The earlier name of the validating constructor, kept for existing callers.
make_params = CycloParams


class CycloElem(SparseElem):
    """Element of the cyclotomic quotient: the terms of an AwpaElem in
    reduced normal form (every exponent below the level)."""

    __slots__ = ("qalg",)
    _context = ("qalg",)

    def __init__(self, qalg: CyclotomicAlgebra, elem: AwpaElem):
        qalg.ctx._check(elem)
        self.qalg = qalg
        self.terms = elem.terms

    @property
    def elem(self) -> AwpaElem:
        return self.qalg.ctx._elem(self.terms)

    def _check(self, other: CycloElem):
        if self.qalg is not other.qalg:
            raise ParamsMismatch("cyclotomic elements over different quotients")

    def __mul__(self, other) -> CycloElem:
        if isinstance(other, CycloElem):
            return self.qalg.mul(self, other)
        return super().__mul__(other)

    def parity(self):
        return self.elem.parity()

    def __str__(self) -> str:
        return str(self.elem)

    __repr__ = __str__


class CyclotomicAlgebra:
    """A_n^C(F): the quotient with its reduction, trace, and Frobenius data."""

    def __init__(self, params: CycloParams, n: int):
        if params.n_fixed not in (None, n):
            raise ParamsMismatch(f"general parameters were validated for n={params.n_fixed}")
        self.params = params
        self.n = n
        self.d = params.level
        self.F = params.F
        self.ctx = AwpaAlgebra(self.F, n)
        # the chi factors (x_1^k - c) in canonical (k, j) order
        self._factors = []
        if n:  # A_0^C(F) = k by convention, with nothing to quotient
            for k in sorted(params.entries):
                for c in params.entries[k]:
                    t = c if isinstance(c, AwpaElem) else self.ctx.slot_elem(c, 1)
                    self._factors.append(self.ctx.x(1, k) - t)
        self._chi_cache: dict = {}
        self._rewrite_cache: dict = {}
        self._basis_keys_cache: dict = {}

    # -- chi and the rewrite elements ---------------------------------------------

    @memoized("_chi_cache")
    def chi(self, i: int) -> AwpaElem:
        """chi_i = s_{i-1} ... s_1 chi s_1 ... s_{i-1}, leading term x_i^d."""
        if not 1 <= i <= self.n:
            raise IndexError(f"chi_{i} needs 1 <= i <= n={self.n}")
        if i > 1:
            s = self.ctx.s(i - 1)
            return self.ctx.mul(self.ctx.mul(s, self.chi(i - 1)), s)
        out = self.ctx.one()
        for f in self._factors:
            out = self.ctx.mul(out, f)
        if len(self._factors) > 1:
            rev = self.ctx.one()
            for f in reversed(self._factors):
                rev = self.ctx.mul(rev, f)
            if rev != out:
                raise InternalInconsistency("chi depends on the factor order")
        return out

    @memoized("_rewrite_cache")
    def _rewrite_elem(self, i: int) -> AwpaElem:
        """R_i = x_i^d - chi_i, congruent to x_i^d mod the ideal, of
        polynomial degree < d."""
        r = self.ctx.x(i, self.d) - self.chi(i)
        if r.poly_degree() >= self.d:
            raise InternalInconsistency("chi_i does not have leading term x_i^d")
        return r

    # -- reduction ---------------------------------------------------------------

    def reduce(self, a: AwpaElem) -> CycloElem:
        """Image of a modulo the ideal, in reduced normal form (all
        exponents < d).  Substitutions strictly drop polynomial degree."""
        self.ctx._check(a)
        d = self.d
        work = dict(a.terms)
        out: dict = {}
        while work:
            key, c = work.popitem()
            alpha, word, pi = key
            over = next((t for t, e in enumerate(alpha) if e >= d), None)
            if over is None:
                acc(out, key, c)
                continue
            i = over + 1
            prefix = tuple(e - d if t == over else e for t, e in enumerate(alpha))
            tailkey = (self.ctx.zero_alpha, word, pi)
            for (ra, rw, rp), rc in self._rewrite_elem(i).terms.items():
                shifted = tuple(x + y for x, y in zip(prefix, ra))
                for k2, c2 in self.ctx._mono_mul((shifted, rw, rp), tailkey).items():
                    acc(work, k2, c * rc * c2)
        return CycloElem(self, self.ctx._elem(out))

    def mul(self, a: CycloElem, b: CycloElem) -> CycloElem:
        a._check(b)
        return self.reduce(self.ctx.mul(a.elem, b.elem))

    def one(self) -> CycloElem:
        return CycloElem(self, self.ctx.one())

    def zero(self) -> CycloElem:
        return CycloElem(self, self.ctx.zero())

    # -- basis and dimension --------------------------------------------------------

    def dim(self) -> int:
        return factorial(self.n) * (self.d * self.F.dim) ** self.n

    @memoized("_basis_keys_cache")
    def basis_keys(self):
        return sorted(
            (alpha, w, p)
            for alpha in product(range(self.d), repeat=self.n)
            for w in product(range(self.F.dim), repeat=self.n)
            for p in perms.all_permutations(self.n)
        )

    # -- trace and Frobenius structure ------------------------------------------------

    def trace(self, z: CycloElem) -> CycScalar:
        """tr_C(x^alpha f pi) = [alpha = (d-1,...,d-1)] tr^(x)n(f) [pi = 1]."""
        top = (self.d - 1,) * self.n
        total = CycScalar.zero(self.F.conductor)
        for (alpha, word, pi), c in z.terms.items():
            if alpha != top or pi != self.ctx.identity_perm:
                continue
            t = c
            for b in word:
                t = t * self.F.trace_vec[b]
            total = total + t
        return total

    def nakayama(self, z: CycloElem) -> CycloElem:
        """The quotient's Nakayama automorphism: x_i -> x_i,
        f -> (psi^d)^(x)n (f), pi -> pi."""
        return CycloElem(self, self.ctx.psi_twist(z.elem, (self.d,) * self.n))

    def is_symmetric(self) -> bool:
        """The quotient trace is symmetric iff theta | d."""
        return self.d % self.F.theta == 0

    def gram_matrix(self):
        """G[u][v] = tr_C(u v) over the reduced basis, with the exact rank
        verdict.  Guarded by the configured size bound."""
        _check_matrix_size("gram matrix", self.dim())
        elems = [CycloElem(self, self.ctx.monomial(*key)) for key in self.basis_keys()]
        rows = [[self.trace(self.mul(u, v)) for v in elems] for u in elems]
        return rows, linalg.is_invertible(rows)

    def nakayama_identity_holds(self, a: CycloElem, b: CycloElem) -> bool:
        """tr_C(a b) = (-1)^{|a||b|} tr_C(b nu(a)) for homogeneous-parity a, b."""
        if a.is_zero() or b.is_zero():
            return True
        pa, pb = a.parity(), b.parity()
        if pa is None or pb is None:
            raise ValueError("needs parity-homogeneous elements")
        lhs = self.trace(self.mul(a, b))
        rhs = self.trace(self.mul(b, self.nakayama(a)))
        if pa and pb:
            rhs = -rhs
        return lhs == rhs


# -- induction / restriction between n and n+1 ------------------------------------


class InductionStructure:
    """A_{n+1}^C(F) as a free right A_n^C(F)-module on the basis
    x_j^a b_j s_j s_{j+1} ... s_n (0 <= a < d, b in B, 1 <= j <= n+1),
    with the partial trace onto the x_{n+1}^{d-1} F_{n+1} summand."""

    def __init__(self, params: CycloParams, n: int):
        if params.general:
            raise ParamsMismatch(
                "induction structure needs slot-1 parameters (standing restriction)"
            )
        self.params = params
        self.n = n
        self.big = CyclotomicAlgebra(params, n + 1)
        self.small = CyclotomicAlgebra(params, n)
        self._transition_cache: dict = {}

    def right_module_basis(self) -> list:
        """The elements x_j^a b_j s_j ... s_n of A_{n+1}^C(F), built from
        their keys: with a < d each is already in reduced normal form."""
        F, m, ctx = self.params.F, self.n + 1, self.big.ctx
        out = []
        for j in range(1, m + 1):
            pi = perms.from_word(m, range(j, m))
            for a in range(self.big.d):
                alpha = tuple(a if t == j - 1 else 0 for t in range(m))
                for b in range(F.dim):
                    words = ctx._slot_words(F.basis_elem(b), j)
                    u = ctx._elem(ctx._keyed(alpha, words, pi))
                    out.append(((j, a, b), CycloElem(self.big, u)))
        return out

    def embed(self, z: CycloElem) -> CycloElem:
        """A_n^C(F) -> A_{n+1}^C(F): append a trivial slot."""
        if z.qalg is not self.small:
            raise ParamsMismatch("embed takes elements of the smaller quotient")
        out: dict = {}
        unit = self.params.F.unit_elem().terms
        for (alpha, word, pi), c in z.terms.items():
            for k, u in unit.items():
                acc(out, (alpha + (0,), word + (k,), pi + (self.n + 1,)), c * u)
        return CycloElem(self.big, self.big.ctx._elem(out))

    @memoized("_transition_cache")
    def _transition(self):
        """The inverse of the rows u_{j,a,b} * embed(small basis monomial sk),
        and (j, a, b, sk) per row: inv[key] is the {row index: scalar}
        combination of the rows that equals the monomial key."""
        dim_big = self.big.dim()
        _check_matrix_size("induction transition matrix", dim_big)
        small_keys = self.small.basis_keys()
        embedded = [
            self.embed(CycloElem(self.small, self.small.ctx.monomial(*sk))) for sk in small_keys
        ]
        rows = []
        slots = []
        for (j, a, b), u in self.right_module_basis():
            for sk, y in zip(small_keys, embedded):
                rows.append(self.big.mul(u, y).terms)
                slots.append((j, a, b, sk))
        if len(rows) != dim_big:
            raise InternalInconsistency("right-module basis count mismatch")
        inv = linalg.inverse(rows)
        if inv is None:
            raise InternalInconsistency("right-module basis is not free")
        return inv, slots

    def verify_free_basis(self) -> bool:
        """Exact-rank check that the stated elements form a free right-module
        basis (the transition matrix is invertible)."""
        self._transition()
        return True

    def mackey_dimensions(self) -> tuple[int, int]:
        """dim A_{n+1}^C = d dim F dim A_n^C + n d dim F dim A_n^C.  The left
        side is the transition's rank.  The right side counts its rows with
        j = n+1 (the x_{n+1}^a F_{n+1} A_n^C summand) and adds the dimension
        of A_n^C s_n A_n^C, found apart from the transition."""
        inv, slots = self._transition()
        top = sum(1 for j, _, _, _ in slots if j == self.n + 1)
        rest = self._bimodule_rank(self.big.ctx.s(self.n)) if self.n else 0
        return len(inv), top + rest

    def _bimodule_rank(self, middle: AwpaElem) -> int:
        """dim A_n^C middle A_n^C: the rank of the reduced products
        embed(u) middle embed(v), u and v running over the basis monomials
        of A_n^C.  Guarded as a dim A_n^C square table of products."""
        keys = self.small.basis_keys()
        _check_matrix_size("bimodule product table", len(keys))
        embedded = [self.embed(CycloElem(self.small, self.small.ctx.monomial(*k))) for k in keys]
        middle = CycloElem(self.big, middle)
        return linalg.rank([(u * middle * v).terms for u in embedded for v in embedded])

    def partial_trace(self, z: CycloElem) -> CycloElem:
        """tr^C_{n+1}: project onto the x_{n+1}^{d-1} F_{n+1} A_n^C summand
        of the right-module decomposition, then apply the trace of F to the
        slot n+1 factor."""
        if z.qalg is not self.big:
            raise ParamsMismatch("partial trace takes elements of the bigger quotient")
        inv, slots = self._transition()
        trace_vec = self.params.F.trace_vec
        out: dict = {}
        # the coordinates of z on the basis are sum_k z_k inv[k]
        for key, c in z.terms.items():
            for i, y in inv[key].items():
                j, a, b, sk = slots[i]
                if j == self.n + 1 and a == self.big.d - 1 and trace_vec[b]:
                    acc(out, sk, c * y * trace_vec[b])
        return CycloElem(self.small, self.small.ctx._elem(out))


def nakayama_counterexample(qalg: CyclotomicAlgebra, pairs: int = 50, seed: int = 0):
    """Test tr_C(ab) = (-1)^{|a||b|} tr_C(b nu(a)) on random parity-homogeneous
    pairs drawn from the seed; returns the first failing pair (a, b), or
    None if every pair passes."""
    import random as _random

    rng = _random.Random(seed)
    keys = qalg.basis_keys()
    for _ in range(pairs):
        pair = []
        for _ in range(2):
            par = rng.randrange(2)
            cand = [k for k in keys if word_parity(qalg.F, k[1]) == par] or keys
            t = {rng.choice(cand): qalg.F.scalar(rng.randint(-3, 3)) for _ in range(2)}
            pair.append(CycloElem(qalg, AwpaElem(qalg.ctx, t)))
        if not qalg.nakayama_identity_holds(*pair):
            return tuple(pair)
    return None


def nakayama_check(qalg: CyclotomicAlgebra, pairs: int = 50, seed: int = 0):
    """Randomized verification of tr_C(ab) = (-1)^{|a||b|} tr_C(b nu(a)),
    plus the symmetry criterion.  Returns (identity_ok, symmetric, images)
    where images lists (name, nu(g)) for each (name, g) of
    ``qalg.ctx.named_generators()``: the x_i, every basis slot and the s_j."""
    ok = nakayama_counterexample(qalg, pairs, seed) is None
    images = [(name, qalg.nakayama(CycloElem(qalg, g))) for name, g in qalg.ctx.named_generators()]
    return ok, qalg.is_symmetric(), images
