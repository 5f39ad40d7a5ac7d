"""The affine wreath product algebra A_n(F) and its normal-form arithmetic.

Elements are sparse combinations of normal-form monomials x^alpha * b * pi
(polynomial part, basis word of F^(x)n, permutation).  Multiplication
rewrites products into this basis by peeling reduced words one simple
reflection at a time via

    s_i a = (s_i . a) s_i - Delta_i(a),        a in P_n(F),

where Delta_i is the deformed divided difference, and by commuting basis
words left past polynomial parts with the Nakayama twist f x_i = x_i psi_i(f).
Corrections strictly drop polynomial degree, so the rewriting terminates.
One method, _act_simple, applies this rule, for mul's walk and for the
module action below alike.

The module also hosts everything built on that arithmetic: t-elements,
Jucys-Murphy elements and the evaluation map onto the wreath product
F^(x)n x| S_n (the alpha = 0 monomials, multiplied by graded_mul),
the action on the module V = P_n(F) (x) kS_n, which is A_n(F) itself on the
same keys, used as a multiplication oracle that shares only that step with mul,
center and centralizer computations, intertwiners, automorphisms and graded
dimensions.
"""

from __future__ import annotations

from itertools import product
from math import comb, factorial

from . import linalg
from . import permutations as perms
from .errors import (
    AlgebraMismatch,
    BadAutomorphismParams,
    BadParams,
    InternalInconsistency,
    NotPolynomial,
    NotPsiFixed,
    OddParity,
    SizeMismatch,
    WrongDegree,
    ZeroElement,
)
from .frobenius import AlgElem, FrobAlg, check_frobenius_morphism
from .scalars import CycScalar
from .sparse import SparseElem, acc, memoized
from .wreath import (
    permute_word,
    tensor_of_vectors,
    word_degree,
    word_mul,
    word_parity,
)


class AwpaElem(SparseElem):
    """Sparse element: {(alpha, word, perm): CycScalar}."""

    __slots__ = ("ctx",)
    _context = ("ctx",)

    def __init__(self, ctx: AwpaAlgebra, terms=None):
        self.ctx = ctx
        super().__init__(terms)

    def _check(self, other: AwpaElem):
        self.ctx._check(other)

    def __mul__(self, other) -> AwpaElem:
        if isinstance(other, AwpaElem):
            return self.ctx.mul(self, other)
        return super().__mul__(other)

    def poly_degree(self) -> int:
        """Total degree in the x_i (max over monomials); -1 for zero."""
        return max((sum(a) for (a, _, _) in self.terms), default=-1)

    def degree_of_key(self, key) -> int:
        a, w, _ = key
        return self.ctx.F.delta * sum(a) + word_degree(self.ctx.F, w)

    def parity(self):
        seen = {word_parity(self.ctx.F, w) for (_, w, _) in self.terms}
        return seen.pop() if len(seen) == 1 else None

    def degree(self):
        seen = {self.degree_of_key(k) for k in self.terms}
        return seen.pop() if len(seen) == 1 else None

    def parity_components(self) -> dict:
        out = {0: {}, 1: {}}
        for k, c in self.terms.items():
            out[word_parity(self.ctx.F, k[1])][k] = c
        return {p: self._like(t) for p, t in out.items() if t}

    def __str__(self) -> str:
        from .textio import element_str

        return element_str(self)

    __repr__ = __str__


class IsCentralResult:
    """Certificate for is_central: both the generator-commutation route and
    the structural-form route, which must agree."""

    def __init__(self, central, failed_generator=None, structural_reason=None):
        self.central = central
        self.failed_generator = failed_generator
        self.structural_reason = structural_reason

    def __bool__(self):
        return self.central

    def __repr__(self):
        if self.central:
            return "central"
        return f"not central ({self.failed_generator or self.structural_reason})"


class AwpaAlgebra:
    """Context for A_n(F): caches and normal-form arithmetic."""

    def __init__(self, F: FrobAlg, n: int):
        if n < 0:
            raise SizeMismatch("n must be nonnegative")
        self.F = F
        self.n = n
        self.identity_perm = perms.identity(n)
        self.zero_alpha = (0,) * n
        self._unit_words = tensor_of_vectors(F, [F.unit_elem().terms] * n)
        self._t_cache: dict = {}
        self._smono_cache: dict = {}
        self._delta_cache: dict = {}
        self._twist_cache: dict = {}
        self._jm_cache: dict = {}
        self._mono_cache: dict = {}

    def _check(self, a):
        """Raise unless a is an element over this context's F and n."""
        if not isinstance(a, AwpaElem):
            raise AlgebraMismatch(f"{type(a).__name__} is not an element of A_n(F)")
        if a.ctx.F is not self.F:
            raise AlgebraMismatch("elements over different Frobenius algebras")
        if a.ctx.n != self.n:
            raise SizeMismatch("elements with different n")

    # -- constructors ---------------------------------------------------------

    def _keyed(self, alpha, words: dict, pi) -> dict:
        """{(alpha, w, pi): c} for the word combination {w: c}."""
        return {(alpha, w, pi): c for w, c in words.items()}

    def _elem(self, terms: dict) -> AwpaElem:
        """Wrap terms built with acc, which hold no zero, without a second
        filtering pass."""
        out = AwpaElem(self)
        out.terms = terms
        return out

    def zero(self) -> AwpaElem:
        return AwpaElem(self)

    def one(self) -> AwpaElem:
        return AwpaElem(self, self._keyed(self.zero_alpha, self._unit_words, self.identity_perm))

    def scalar_elem(self, value) -> AwpaElem:
        return self.F.scalar(value) * self.one()

    def x(self, i: int, power: int = 1) -> AwpaElem:
        if not 1 <= i <= self.n:
            raise IndexError(f"x_{i} does not exist for n={self.n}")
        return self.x_monomial(power if j == i - 1 else 0 for j in range(self.n))

    def x_monomial(self, alpha) -> AwpaElem:
        alpha = self._exponents(alpha)
        return AwpaElem(self, self._keyed(alpha, self._unit_words, self.identity_perm))

    def _sized(self, seq, what: str) -> tuple:
        """seq as a tuple of n entries."""
        seq = tuple(seq)
        if len(seq) != self.n:
            raise SizeMismatch(f"{what} {seq} needs n={self.n} entries")
        return seq

    def _exponents(self, alpha) -> tuple:
        """alpha as a tuple of n nonnegative exponents."""
        alpha = self._sized(alpha, "exponent vector")
        if any(e < 0 for e in alpha):
            raise ValueError(f"negative exponent in {alpha}")
        return alpha

    def _word(self, word) -> tuple:
        """word as a tuple of n basis indices of F."""
        word = self._sized(word, "word")
        if not all(b in range(self.F.dim) for b in word):
            raise ValueError(f"word {word} has a letter outside 0..{self.F.dim - 1}")
        return word

    def _perm(self, pi) -> tuple:
        """pi as a permutation of 1..n in one-line notation."""
        pi = self._sized(pi, "permutation")
        if sorted(pi) != list(range(1, self.n + 1)):
            raise ValueError(f"{pi} is not a permutation of 1..{self.n}")
        return pi

    def _slot_words(self, f, i: int) -> dict:
        """1 (x) ... (x) f (x) ... (x) 1, f in slot i (1-indexed), as
        {word: scalar}; f is an AlgElem of F or the label of a basis element."""
        if not 1 <= i <= self.n:
            raise IndexError(f"slot {i} does not exist for n={self.n}")
        if isinstance(f, str):
            f = self.F.from_label(f)
        if f.algebra is not self.F:
            raise AlgebraMismatch("slot element of another algebra")
        vectors = [self.F.unit_elem().terms] * self.n
        vectors[i - 1] = f.terms
        return tensor_of_vectors(self.F, vectors)

    def slot_elem(self, f, i: int) -> AwpaElem:
        """f_i = 1 (x) ... (x) f (x) ... (x) 1 as an element of A_n(F)."""
        words = self._slot_words(f, i)
        return AwpaElem(self, self._keyed(self.zero_alpha, words, self.identity_perm))

    def perm_elem(self, pi) -> AwpaElem:
        return AwpaElem(self, self._keyed(self.zero_alpha, self._unit_words, self._perm(pi)))

    def s(self, i: int) -> AwpaElem:
        return self.perm_elem(perms.simple(self.n, i))

    def monomial(self, alpha, word, pi) -> AwpaElem:
        key = (self._exponents(alpha), self._word(word), self._perm(pi))
        return AwpaElem(self, {key: CycScalar.one(self.F.conductor)})

    def basis_words(self):
        return [tuple(w) for w in product(range(self.F.dim), repeat=self.n)]

    # -- low-level P_n(F) arithmetic -------------------------------------------

    def _word_psi_twist(self, word, gamma) -> dict:
        """psi^gamma applied slotwise: {word: scalar}."""
        F = self.F
        gkey = tuple(g % F.theta for g in gamma)
        if not any(gkey):
            return {word: CycScalar.one(F.conductor)}
        return self._twist(word, gkey)

    @memoized("_twist_cache")
    def _twist(self, word, gkey) -> dict:
        """psi^gkey slotwise on a word, for exponents already reduced mod theta."""
        return tensor_of_vectors(self.F, [self.F.psi_on_basis(b, g) for b, g in zip(word, gkey)])

    def _pd_mono_mul(self, a1, w1, a2, w2):
        """(x^a1 w1)(x^a2 w2) in P_n(F) as ((alpha, word), scalar) pairs.  A
        key can repeat; every caller accumulates into its own sum."""
        alpha = tuple(x + y for x, y in zip(a1, a2))
        for tw, c1 in self._word_psi_twist(w1, a2).items():
            for w, c2 in word_mul(self.F, tw, w2).items():
                yield (alpha, w), c1 * c2

    @memoized("_t_cache")
    def t_pd(self, k: int, i: int, j: int) -> dict:
        """t^(k)_{i,j} = sum_b sum_{l<k} b_i x_i^(k-1-l) x_j^l (b^vee)_j
        as a P_n(F) dict {(alpha, word): scalar}, from its closed form

            sum_{l<k} x_i^(k-1-l) x_j^l sum_b psi^(k-1-l)(b)_i (b^vee)_j,

        since b_i crosses x_i^(k-1-l) as psi^(k-1-l)(b)_i.  When i > j the
        factor (b^vee)_j moves left past psi^(k-1-l)(b)_i to reach its slot,
        with sign (-1)^|b| (|b^vee| = |b|); the other slots hold the unit."""
        F = self.F
        if not (1 <= i <= self.n and 1 <= j <= self.n) or i == j:
            raise IndexError(f"t_{{{i},{j}}} needs distinct slots in 1..{self.n}")
        minus_one = -CycScalar.one(F.conductor)
        unit, duals = F.unit_elem().terms, F.dual_basis()
        out: dict = {}
        for l in range(k):
            m = k - 1 - l
            alpha = tuple(m if t == i - 1 else (l if t == j - 1 else 0) for t in range(self.n))
            for b in range(F.dim):
                vectors = [unit] * self.n
                vectors[i - 1] = F.psi_on_basis(b, m)
                vectors[j - 1] = duals[b].terms
                sign = minus_one if i > j and F.parities[b] else None
                for w, c in tensor_of_vectors(F, vectors, sign).items():
                    acc(out, (alpha, w), c)
        return out

    def t_element(self, i: int, j: int, k: int = 1) -> AwpaElem:
        """t^(k)_{i,j} as a normal-form element (even, degree k*delta)."""
        return AwpaElem(
            self,
            {(a, w, self.identity_perm): c for (a, w), c in self.t_pd(k, i, j).items()},
        )

    @memoized("_delta_cache")
    def _delta_x(self, i: int, alpha) -> dict:
        """Delta_i(x^alpha) as {(alpha, word): scalar}, kept per (i, alpha)."""
        p, q = alpha[i - 1], alpha[i]
        rest = tuple(0 if t in (i - 1, i) else a for t, a in enumerate(alpha))
        # Delta_i(x_i^p x_{i+1}^q) = t^(p)_{i,i+1} x_{i+1}^q - x_{i+1}^p t^(q)_{i+1,i}
        middle: dict = {}
        if p:
            # right factor x_{i+1}^q crosses the word part of t: Nakayama twist
            xq = tuple(q if t == i else 0 for t in range(self.n))
            for (a, w), c in self.t_pd(p, i, i + 1).items():
                shifted = tuple(x + y for x, y in zip(a, xq))
                for w2, c2 in self._word_psi_twist(w, xq).items():
                    acc(middle, (shifted, w2), c * c2)
        if q:
            # left factor is a pure x-power: plain exponent shift
            xp = tuple(p if t == i else 0 for t in range(self.n))
            for (a, w), c in self.t_pd(q, i + 1, i).items():
                acc(middle, (tuple(x + y for x, y in zip(a, xp)), w), -c)
        # x^rest on the left is a plain exponent shift
        return {(tuple(x + y for x, y in zip(rest, a)), w): c for (a, w), c in middle.items()}

    def _delta_mono(self, i: int, alpha, word) -> dict:
        """Delta_i of the P_n(F) monomial x^alpha * word: {(alpha, word): scalar}.
        Delta_i kills F^(x)n, so this is Delta_i(x^alpha) times the word."""
        if alpha[i - 1] == 0 and alpha[i] == 0:
            return {}
        out: dict = {}
        for (a, w), c in self._delta_x(i, alpha).items():
            for w2, c2 in word_mul(self.F, w, word).items():
                acc(out, (a, w2), c * c2)
        return out

    def divided_difference(self, i: int, a: AwpaElem) -> AwpaElem:
        """The skew derivation Delta_i on P_n(F) with Delta_i(x_i) = t_{i,i+1},
        Delta_i(x_{i+1}) = -t_{i+1,i}, Delta_i(F^(x)n) = 0 and twisted
        Leibniz rule Delta_i(ab) = Delta_i(a) b + (s_i . a) Delta_i(b)."""
        if not 1 <= i <= self.n - 1:
            raise IndexError(f"Delta_{i} needs 1 <= i < n")
        self._check(a)
        out: dict = {}
        for (alpha, word, pi), c in a.terms.items():
            if pi != self.identity_perm:
                raise NotPolynomial("divided differences act on P_n(F) only")
            for (da, dw), dc in self._delta_mono(i, alpha, word).items():
                acc(out, (da, dw, self.identity_perm), c * dc)
        return self._elem(out)

    def superpermute_pnf(self, pi, alpha, word):
        """(s_i-convention) superpermutation of a P_n(F) monomial: returns
        (alpha', word', sign_exponent)."""
        new_alpha = [0] * self.n
        for t in range(self.n):
            new_alpha[pi[t] - 1] = alpha[t]
        new_word, sign = permute_word(self.F, pi, word)
        return tuple(new_alpha), new_word, sign

    def superpermute_elem(self, pi, a: AwpaElem) -> AwpaElem:
        """pi . a for a in P_n(F) (superpermuting x-exponents and word slots);
        on F^(x)n, the alpha = 0 part, it is the superpermutation action."""
        self._check(a)
        pi = self._perm(pi)
        out: dict = {}
        for (alpha, word, p), c in a.terms.items():
            if p != self.identity_perm:
                raise NotPolynomial("superpermute acts on P_n(F) elements")
            a2, w2, sgn = self.superpermute_pnf(pi, alpha, word)
            acc(out, (a2, w2, p), -c if sgn else c)
        return self._elem(out)

    def psi_twist(self, a: AwpaElem, gamma) -> AwpaElem:
        """psi^gamma applied slotwise to the F^(x)n part of every monomial of
        a: slot i is twisted by psi^(gamma_i)."""
        self._check(a)
        gamma = self._sized(gamma, "twist exponents")
        out: dict = {}
        for (alpha, word, pi), c in a.terms.items():
            for w2, c2 in self._word_psi_twist(word, gamma).items():
                acc(out, (alpha, w2, pi), c * c2)
        return self._elem(out)

    def _act_simple(self, i: int, terms: dict) -> dict:
        """s_i times the terms {(alpha, word, sigma): scalar}: the one s_i step,
        of mul's walk and of oracle_act alike, by
        s_i x^alpha word = (s_i . x^alpha word) s_i - Delta_i(x^alpha word)."""
        out: dict = {}
        si = perms.simple(self.n, i)
        for (a, w, sigma), c in terms.items():
            a2, w2, sgn = self.superpermute_pnf(si, a, w)
            acc(out, (a2, w2, perms.mul(si, sigma)), -c if sgn else c)
            for (da, dw), dc in self._delta_mono(i, a, w).items():
                acc(out, (da, dw, sigma), -(c * dc))
        return out

    @memoized("_smono_cache")
    def _perm_walk(self, pi, alpha, word) -> dict:
        """pi * (x^alpha word) for pi != 1: the reduced word of pi peeled off
        one s_i at a time, right to left, by the s_i step _act_simple."""
        state = {(alpha, word, self.identity_perm): CycScalar.one(self.F.conductor)}
        for i in reversed(perms.reduced_word(pi)):
            state = self._act_simple(i, state)
        return state

    # -- multiplication ----------------------------------------------------------

    def _product(self, left: dict, right: dict) -> dict:
        """The product of two term dicts, grouped by left permutation: with
        a_p the P_n(F) part of left at p, left * right = sum_p a_p (p * right).
        Each p * right is brought to normal form once and merged by its
        P_n(F) part, {(g, d): {tail: scalar}}, so terms that cancel or repeat
        are combined before the P_n(F) products x^a1 w1 * x^g d."""
        by_perm: dict = {}
        for (a1, w1, p1), c1 in left.items():
            by_perm.setdefault(p1, []).append((a1, w1, c1))
        out: dict = {}
        for p, part in by_perm.items():
            moved: dict = {}
            for (a2, w2, p2), c2 in right.items():
                if p == self.identity_perm:  # 1 * x^a2 w2 is in normal form
                    acc(moved.setdefault((a2, w2), {}), p2, c2)
                    continue
                for (g, d, tau), c in self._perm_walk(p, a2, w2).items():
                    acc(moved.setdefault((g, d), {}), perms.mul(tau, p2), c2 * c)
            for a1, w1, c1 in part:
                for (g, d), tails in moved.items():
                    if not tails:
                        continue
                    for (alpha, w), c in self._pd_mono_mul(a1, w1, g, d):
                        c = c1 * c
                        for tail, ct in tails.items():
                            acc(out, (alpha, w, tail), c * ct)
        return out

    @memoized("_mono_cache")
    def _mono_mul(self, k1, k2) -> dict:
        """The product of two monomials, kept for CyclotomicAlgebra.reduce,
        whose substitution products recur."""
        one = CycScalar.one(self.F.conductor)
        return self._product({k1: one}, {k2: one})

    def mul(self, a: AwpaElem, b: AwpaElem) -> AwpaElem:
        self._check(a)
        self._check(b)
        return self._elem(self._product(a.terms, b.terms))

    def graded_mul(self, a: AwpaElem, b: AwpaElem) -> AwpaElem:
        """Multiplication in the associated graded algebra
        (k[x] |x F)^(x)n x| S_n: permutations superpermute with no
        lower-degree corrections.  On alpha = 0 monomials it is the product
        of the wreath subalgebra F^(x)n x| S_n."""
        self._check(a)
        self._check(b)
        out: dict = {}
        for (a1, w1, p1), c1 in a.terms.items():
            for (a2, w2, p2), c2 in b.terms.items():
                g, d, sgn = self.superpermute_pnf(p1, a2, w2)
                c12 = c1 * c2
                if sgn:
                    c12 = -c12
                tail = perms.mul(p1, p2)
                for (alpha, w), c in self._pd_mono_mul(a1, w1, g, d):
                    acc(out, (alpha, w, tail), c12 * c)
        return self._elem(out)

    def leading_term(self, a: AwpaElem) -> AwpaElem:
        """Top polynomial-degree component (an element of the associated
        graded algebra, represented on the same monomials)."""
        self._check(a)
        if a.is_zero():
            raise ZeroElement("zero element has no leading term")
        top = a.poly_degree()
        return self._elem({k: c for k, c in a.terms.items() if sum(k[0]) == top})

    # -- module oracle -------------------------------------------------------------

    def oracle_act(self, a: AwpaElem, v: AwpaElem) -> AwpaElem:
        """Action of a on V = P_n(F) (x) kS_n, without mul:
        z . (p (x) w) = zp (x) w for z in P_n(F) and
        s_i . (p (x) w) = (s_i . p) (x) s_i w - Delta_i(p) (x) w.
        V is A_n(F) as a left module: v's key (alpha, word, w) is the basis
        vector x^alpha word (x) w, and so is each key of the result."""
        self._check(a)
        self._check(v)
        out: dict = {}
        for (alpha, word, pi), c in a.terms.items():
            cur = dict(v.terms)
            for i in reversed(perms.reduced_word(pi)):
                cur = self._act_simple(i, cur)
            new: dict = {}
            for (a2, w2, sigma), c2 in cur.items():
                for (a3, w3), c3 in self._pd_mono_mul(alpha, word, a2, w2):
                    acc(new, (a3, w3, sigma), c2 * c3)
            for k, c2 in new.items():
                acc(out, k, c * c2)
        return self._elem(out)

    def element_to_module(self, a: AwpaElem) -> AwpaElem:
        """a . (1 (x) 1).  By the basis theorem this is a itself: it fixes
        every normal-form monomial x^alpha b pi."""
        return self.oracle_act(a, self.one())

    # -- Jucys-Murphy / evaluation ---------------------------------------------------

    def jucys_murphy(self, k: int) -> AwpaElem:
        """J_1 = 0 and J_k = sum_{i<k} t_{i,k} s_{i,k}, on keys (0, word, s_{i,k})."""
        return self._elem(self._jm_terms(k))

    @memoized("_jm_cache")
    def _jm_terms(self, k: int) -> dict:
        # the memo keeps dicts: an element would refer back to self in a cycle
        if not 1 <= k <= self.n:
            raise IndexError(f"J_{k} needs 1 <= k <= n={self.n}")
        out: dict = {}
        for i in range(1, k):
            sik = perms.transposition(self.n, i, k)
            for (_, w), c in self.t_pd(1, i, k).items():
                out[(self.zero_alpha, w, sik)] = c
        return out

    def evaluation_hom(self, a: AwpaElem) -> AwpaElem:
        """The surjection A_n(F) ->> F^(x)n x| S_n onto the wreath subalgebra
        (alpha = 0, multiplied by graded_mul) fixing it and sending x_k to J_k:
        c x^alpha b pi goes to J_1^alpha_1 ... J_n^alpha_n (c b pi)."""
        self._check(a)
        out = self.zero()
        for (alpha, word, pi), c in a.terms.items():
            term = self.one()
            for i, e in enumerate(alpha):
                for _ in range(e):
                    term = self.graded_mul(term, self.jucys_murphy(i + 1))
            out = out + self.graded_mul(term, self._elem({(self.zero_alpha, word, pi): c}))
        return out

    # -- intertwiners --------------------------------------------------------------

    def intertwiner(self, i: int) -> AwpaElem:
        """Omega_i = x_{i+1}^theta s_i - s_i x_{i+1}^theta."""
        if not 1 <= i <= self.n - 1:
            raise IndexError(f"Omega_{i} needs 1 <= i < n")
        xp = self.x(i + 1, self.F.theta)
        si = self.s(i)
        return self.mul(xp, si) - self.mul(si, xp)

    # -- center / centralizer ---------------------------------------------------------

    def named_generators(self) -> list:
        """The homogeneous generators of A_n(F) as (name, element) pairs:
        x1..xn, each basis element b of F in each slot i as {label}_{i}
        (basis-major), then s1..s{n-1}."""
        F, slots = self.F, range(1, self.n + 1)
        xs = [(f"x{i}", self.x(i)) for i in slots]
        bs = [(f"{label}_{i}", self.slot_elem(F.basis_elem(b), i))
              for b, label in enumerate(F.basis_labels) for i in slots]
        return xs + bs + [(f"s{j}", self.s(j)) for j in range(1, self.n)]

    def generators(self) -> list:
        return [g for _, g in self.named_generators()]

    def _bracket(self, z: AwpaElem, zp: int, g: AwpaElem, gp: int) -> AwpaElem:
        """The supercommutator z g - (-1)^{zp gp} g z (zp, gp the parities)."""
        right = self.mul(g, z)
        return self.mul(z, g) - (-right if zp and gp else right)

    def _is_scalar(self, g: AwpaElem) -> bool:
        """Whether g, checked first, is a scalar multiple of 1 (zero
        included): [z, g] = 0 for every z, so no bracket with g is needed."""
        self._check(g)
        one = self.one()
        k0, c0 = next(iter(one.terms.items()))
        lam = g.terms.get(k0)
        # g = (lam / c0) 1, compared without a division
        return not g.terms if lam is None else g * c0 == one * lam

    def _supercommutes_with_generators(self, z: AwpaElem):
        """The name of the first of x_1, the basis slots and the s_j (which
        generate A_n(F)) that z does not supercommute with, or None.  The
        scalar ones (the unit slots 1_i) are skipped."""
        gens = self.named_generators()
        gens = [(name, g) for name, g in gens[:1] + gens[self.n :] if not self._is_scalar(g)]
        for zp, zelem in z.parity_components().items():
            for name, g in gens:
                if not self._bracket(zelem, zp, g, g.parity()).is_zero():
                    return name
        return None

    def _structural_center_check(self, z: AwpaElem):
        """The explicit description: all monomials have trivial permutation,
        the alpha-coefficient lies in F_psi^(-alpha) slotwise, and the family
        is invariant under superpermutation of (alpha, word) jointly."""
        by_alpha: dict = {}
        for (alpha, word, pi), c in z.terms.items():
            if pi != self.identity_perm:
                return f"monomial with nontrivial permutation {pi}"
            by_alpha.setdefault(alpha, {})[word] = c
        for alpha, wcoeffs in by_alpha.items():
            basis = self._tensor_subspace_basis([-e for e in alpha])
            if not linalg.in_span(basis, wcoeffs):
                return f"coefficient at alpha={alpha} is not in F_psi^(-alpha)"
        for j in range(1, self.n):
            if self.superpermute_elem(perms.simple(self.n, j), z) != z:
                return f"not superinvariant under s_{j}"
        return None

    def _tensor_subspace_basis(self, ks) -> list:
        """Words basis of F_psi^(k_1) (x) ... (x) F_psi^(k_n) as word dicts."""
        slot_bases = [self.F.graded_piece(k) for k in ks]
        return [
            tensor_of_vectors(self.F, [el.terms for el in choice])
            for choice in product(*slot_bases)
        ]

    def is_central(self, z: AwpaElem) -> IsCentralResult:
        """Whether z lies in the (super)center, with both the generator
        commutation route and the structural-form cross-check."""
        self._check(z)
        failed = self._supercommutes_with_generators(z)
        reason = self._structural_center_check(z)
        if (failed is None) != (reason is None):
            raise InternalInconsistency(
                "generator and structural centrality checks disagree: "
                f"{failed!r} vs {reason!r}"
            )
        return IsCentralResult(failed is None, failed, reason)

    def candidate_monomials(self, poly_degree_bound: int):
        alphas = [
            a
            for a in product(range(poly_degree_bound + 1), repeat=self.n)
            if sum(a) <= poly_degree_bound
        ]
        ps = perms.all_permutations(self.n)
        return [
            (alpha, w, p) for alpha in sorted(alphas) for w in self.basis_words() for p in ps
        ]

    def centralizer_up_to_degree(self, generators, poly_degree_bound: int) -> list:
        """Basis of {z : z supercommutes with every generator}, restricted to
        polynomial degree <= bound, by exact linear solves.

        Staged per parity: starting from all candidate monomials, each parity
        component g of a generator cuts the basis down to the nullspace of
        z -> [z, g] on it, and [z_j, g] is formed only for monomials z_j
        still in its support.  Every generator is checked against this
        context first, and the scalar multiples of 1 among them (zero
        included) are then skipped, since they supercommute with everything.
        The rest are imposed in the order given, except that those whose
        terms all have pi = 1 come before those with a nontrivial
        permutation.  The result is canonical, so independent of the order and
        scaling of the generators: the reduced basis with each vector's last
        monomial leading (rref on columns keyed by minus the candidate index),
        by ascending leading monomial, which is what one nullspace solve of
        the whole system gives."""
        one = CycScalar.one(self.F.conductor)
        gens = [g for g in generators if not self._is_scalar(g)]
        # permutation-free generators first: they cut the basis down with
        # cheaper brackets, so fewer are formed with the s_j
        gens.sort(key=lambda g: any(pi != self.identity_perm for _, _, pi in g.terms))
        gens = [pair for g in gens for pair in g.parity_components().items()]
        out = []
        for par in (0, 1):
            monos = [
                k
                for k in self.candidate_monomials(poly_degree_bound)
                if word_parity(self.F, k[1]) == par
            ]
            basis = [{j: one} for j in range(len(monos))]
            for gpar, gelem in gens:
                brackets = {}
                for j in {j for vec in basis for j in vec}:
                    zm = AwpaElem(self, {monos[j]: one})
                    brackets[j] = self._bracket(zm, par, gelem, gpar)
                # one row per output monomial: sum_b v_b [basis_b, g] at that key
                rows: dict = {}
                for b, vec in enumerate(basis):
                    for j, c in vec.items():
                        for kk, d in brackets[j].terms.items():
                            acc(rows.setdefault(kk, {}), b, c * d)
                combined = []
                for w in linalg.nullspace(list(rows.values()), range(len(basis))):
                    vec = {}
                    for b, c in w.items():
                        for j, d in basis[b].items():
                            acc(vec, j, c * d)
                    combined.append(vec)
                basis = combined
            red, _ = linalg.rref([{-j: c for j, c in vec.items()} for vec in basis])
            for row in reversed(red):
                out.append(AwpaElem(self, {monos[-j]: c for j, c in row.items()}))
        return out

    def center_up_to_degree(self, poly_degree_bound: int) -> list:
        return self.centralizer_up_to_degree(self.generators(), poly_degree_bound)

    # -- automorphisms -----------------------------------------------------------------

    def automorphism(self, kind: str, **params) -> AwpaMorphism:
        """Build one of the structural (anti)automorphisms as a reusable map.

        Each kind names the images of x_i, of a basis element b in slot i
        (b_i) and of s_j that it changes; the others go to the same generator
        of the target, which is A_n(F) but for trace_change.

        kind: "reverse"    x_i -> x_{n+1-i}, b_i -> b_{n+1-i}, s_j -> -s_{n-j}
              "frobenius"  b_i -> xi(b)_i for a trace-preserving automorphism
                           xi of F (params: xi = dim x dim matrix, rows =
                           images)
              "antihom"    b_i -> tau(b)_i for tau : F -> F^op (params: tau
                           matrix); reverses products with the super sign
              "trace_change"  x_i -> x_i u_i into A_n(F') where F' has the
                           trace tr'(f) = tr(f u)  (params: u = AlgElem)
              "shift"      x_i -> x_i + s_{i-1}...s_1 c s_1...s_{i-1}
                           (params: c in F_1^(1), an AlgElem or an
                           AwpaElem on alpha = 0, pi = 1 keys)
        """
        n = self.n
        target, anti = self, False
        # the identity images, read in the final target (trace_change replaces it)
        x, s = (lambda i: target.x(i)), (lambda j: target.s(j))
        slot = lambda b, i: target.slot_elem(target.F.basis_elem(b), i)
        if kind == "reverse":
            x = lambda i: self.x(n + 1 - i)
            slot = lambda b, i: self.slot_elem(self.F.basis_elem(b), n + 1 - i)
            s = lambda j: -self.s(n - j)
        elif kind in ("frobenius", "antihom"):
            anti = kind == "antihom"
            name = "tau" if anti else "xi"
            matrix = params.get(name)
            if matrix is None:
                raise BadAutomorphismParams(
                    "antihom needs tau" if anti else "frobenius automorphism needs xi"
                )
            # a valid verdict makes the map bijective: phi(f) = 0 gives
            # tr(fg) = ±tr(phi(f) phi(g)) = 0 for every g, so f = 0
            verdict = check_frobenius_morphism(self.F, self.F, matrix, anti=anti)
            if not verdict:
                what = "anti-isomorphism" if anti else "automorphism"
                raise BadAutomorphismParams(f"{name} is not a Frobenius {what}: {verdict}")
            slot = lambda b, i: self.slot_elem(self.F.elem(matrix[b]), i)
        elif kind == "trace_change":
            u = params.get("u")
            if not isinstance(u, AlgElem):
                raise BadAutomorphismParams("trace_change needs u as an AlgElem")
            if u.parity() != 0 or not self.F.is_invertible(u):
                raise BadAutomorphismParams("u must be even and invertible")
            if u.degree() != 0:
                # the graded trace tr'(f) = tr(fu) stays homogeneous of
                # degree -delta only for degree-0 u
                raise BadAutomorphismParams("u must be homogeneous of degree 0")
            new_trace = [self.F.mul(self.F.basis_elem(i), u).trace() for i in range(self.F.dim)]
            F2 = FrobAlg(
                self.F.basis_labels,
                self.F.degrees,
                self.F.parities,
                self.F.struct,
                self.F.unit,
                new_trace,
                conductor=self.F.conductor,
                name=self.F.name + "_tr'",
            )
            target = AwpaAlgebra(F2, n)
            u2 = AlgElem(F2, u.terms)
            x = lambda i: target.mul(target.x(i), target.slot_elem(u2, i))
        elif kind == "shift":
            c = params.get("c")
            if isinstance(c, AlgElem):
                c = self.slot_elem(c, 1) if n else None
            if not isinstance(c, AwpaElem):
                raise BadAutomorphismParams("shift needs c as an AwpaElem or AlgElem")
            try:
                self._check_f1(c, 1)
            except BadParams as exc:
                raise BadAutomorphismParams(f"shift {exc}") from exc
            shifts = [c]
            for i in range(2, n + 1):
                si = self.s(i - 1)
                shifts.append(self.mul(self.mul(si, shifts[-1]), si))
            x = lambda i: self.x(i) + shifts[i - 1]
        else:
            raise BadAutomorphismParams(f"unknown automorphism kind {kind!r}")
        return AwpaMorphism(self, target, (x, slot, s), anti)

    def _check_f1(self, t: AwpaElem, k: int):
        """Raise unless t lies in F_1^(k) inside F^(x)n, the alpha = 0, pi = 1
        part: even, of degree k*delta, with slot 1 in F_psi^(k), the other
        slots in F_psi^(0), and invariant under the superpermutations fixing
        slot 1.  At n = 1 this is the slot-1 condition c in F_psi^(k)."""
        if t.ctx.F is not self.F or t.ctx.n != self.n or any(
            alpha != self.zero_alpha or pi != self.identity_perm for alpha, _, pi in t.terms
        ):
            raise BadParams(f"parameter at k={k} is not in {self.F.name}^(x){self.n}")
        words = {w: c for (_, w, _), c in t.terms.items()}
        if not words:
            return
        if {word_parity(self.F, w) for w in words} != {0}:
            raise OddParity(f"parameter at k={k} must be even")
        if {word_degree(self.F, w) for w in words} != {k * self.F.delta}:
            raise WrongDegree(f"parameter at k={k} must have degree {k * self.F.delta}")
        basis = self._tensor_subspace_basis([k] + [0] * (self.n - 1))
        if not linalg.in_span(basis, words):
            rest = " (x) F_psi^(0)" * (self.n - 1)
            raise NotPsiFixed(f"parameter at k={k} is not in F_psi^({k}){rest}")
        for j in range(2, self.n):
            if self.superpermute_elem(perms.simple(self.n, j), t) != t:
                raise NotPsiFixed(f"parameter at k={k} is not fixed by permuting slots 2..n")

    # -- graded dimension ------------------------------------------------------------

    def graded_dimension(self, cutoff: int):
        """Counts of normal-form monomials by total degree (delta > 0), or by
        polynomial-degree layer (delta = 0), up to the cutoff.  A_0(F) is
        the ground field."""
        if self.n == 0:
            return [1] + [0] * cutoff
        F = self.F
        nfact = factorial(self.n)
        if F.delta == 0:
            # each polynomial layer t contributes n! dim(F)^n C(n+t-1, n-1)
            return [
                nfact * (F.dim ** self.n) * comb(self.n + t - 1, self.n - 1)
                for t in range(cutoff + 1)
            ]
        counts = [0] * (cutoff + 1)
        word_deg_counts: dict = {}
        for w in product(range(F.dim), repeat=self.n):
            d = sum(F.degrees[b] for b in w)
            word_deg_counts[d] = word_deg_counts.get(d, 0) + 1
        max_t = cutoff // F.delta
        for t in range(max_t + 1):
            n_alpha = comb(self.n + t - 1, self.n - 1)
            for wd, cnt in word_deg_counts.items():
                deg = F.delta * t + wd
                if deg <= cutoff:
                    counts[deg] += nfact * n_alpha * cnt
        return counts

    def graded_dimension_series(self, cutoff: int):
        """Series expansion of n! (grdim F / (1 - q^delta))^n, as the oracle
        for graded_dimension (delta > 0 only)."""
        F = self.F
        if F.delta == 0:
            raise ValueError("series form needs delta > 0")
        grdim = [0] * (F.delta + 1)
        for d in F.degrees:
            grdim[d] += 1
        # geometric factor 1/(1-q^delta) truncated
        geo = [1 if t % F.delta == 0 else 0 for t in range(cutoff + 1)]
        base = _poly_mul_trunc(grdim, geo, cutoff)
        out = [1] + [0] * cutoff
        for _ in range(self.n):
            out = _poly_mul_trunc(out, base, cutoff)
        return [factorial(self.n) * c for c in out]


def _poly_mul_trunc(a, b, cutoff: int):
    out = [0] * (cutoff + 1)
    for i, x in enumerate(a[: cutoff + 1]):
        if x:
            for j, y in enumerate(b[: cutoff + 1 - i]):
                if y:
                    out[i + j] += x * y
    return out


class AwpaMorphism:
    """A structural (anti)homomorphism A_n(F) -> A_n(F') given by the images
    of the generators: images = (x, slot, s), where x(i) is the image of x_i,
    slot(b, i) that of the basis element b of F in slot i and s(j) that of
    s_j, each an element of the target.  Callable on elements over the
    source's F and n, producing elements of the target."""

    def __init__(self, source: AwpaAlgebra, target: AwpaAlgebra, images, anti: bool):
        self.source = source
        self.target = target
        self.images = images
        self.anti = anti
        self._image_cache: dict = {}

    def __call__(self, a: AwpaElem) -> AwpaElem:
        self.source._check(a)
        out = self.target.zero()
        for key, coeff in a.terms.items():
            out = out + coeff * self._image(key)
        return out

    @memoized("_image_cache")
    def _image(self, key) -> AwpaElem:
        """The image of one monomial key: the product of its generator images,
        reversed and with the super sign for an anti-homomorphism.  Only the
        slot factors can be odd, so reversing k odd factors gives (-1)^C(k,2)."""
        alpha, word, pi = key
        x, slot, s = self.images
        factors = [x(i + 1) for i, e in enumerate(alpha) for _ in range(e)]
        factors += [slot(b, i + 1) for i, b in enumerate(word)]
        factors += [s(j) for j in perms.reduced_word(pi)]
        term = self.target.one()
        for f in reversed(factors) if self.anti else factors:
            term = self.target.mul(term, f)
        odd = sum(self.source.F.parities[b] for b in word)
        return -term if self.anti and comb(odd, 2) % 2 else term
