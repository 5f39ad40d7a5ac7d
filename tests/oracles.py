"""Reference computations that only the tests use.

None of this runs in the CLI, the benchmark or the package: the inverse of
a permutation, Young subgroups and minimal double cosets with the affine
Mackey dimension report, the product pi * (x^alpha word) without the
engine's memo and the product of two elements one monomial pair at a time,
the expected centralizer of P_n(F), a span
comparison, the dense coordinates of an element of F, the level-one
quotient against the wreath product, the induction basis built by
products, and the algebra k x k, whose unit is not a basis element.

Young subgroups are described by compositions (tuples of positive integers
summing to n); double cosets are enumerated exhaustively, which is fine at
the scales tested (n <= 4).
"""

from itertools import product
from math import comb, factorial

from awpa import linalg
from awpa import permutations as perms
from awpa.cyclotomic import CycloElem
from awpa.engine import AwpaElem
from awpa.errors import AwpaError, InternalInconsistency, ParamsMismatch
from awpa.frobenius import FrobAlg
from awpa.scalars import CycScalar
from awpa.sparse import acc


class BadComposition(AwpaError):
    pass


# -- compositions and Young subgroups ---------------------------------------


def perm_inverse(p) -> tuple:
    """The inverse of a permutation in one-line form."""
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def length(p) -> int:
    """Number of inversions = Coxeter length."""
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def check_composition(mu, n: int) -> tuple:
    mu = tuple(mu)
    if any(part < 1 for part in mu) or sum(mu) != n:
        raise BadComposition(f"{mu} is not a composition of {n}")
    return mu


def composition_blocks(mu) -> list[range]:
    """The intervals of 1..n grouped by the composition."""
    blocks = []
    start = 1
    for part in mu:
        blocks.append(range(start, start + part))
        start += part
    return blocks


def block_index(mu, n: int) -> list[int]:
    """For i in 1..n, which part of mu contains i (index into mu)."""
    idx = [0] * (n + 1)
    for b, blk in enumerate(composition_blocks(mu)):
        for i in blk:
            idx[i] = b
    return idx


def young_subgroup_simples(mu, n: int) -> set[int]:
    """Indices i with s_i in S_mu."""
    idx = block_index(mu, n)
    return {i for i in range(1, n) if idx[i] == idx[i + 1]}


def young_subgroup(mu, n: int) -> list:
    """All elements of S_mu, as permutations of S_n."""
    idx = block_index(mu, n)
    return [
        p
        for p in perms.all_permutations(n)
        if all(idx[i + 1] == idx[v] for i, v in enumerate(p))
    ]


def composition_from_simples(simples: set[int], n: int) -> tuple:
    """The composition whose Young subgroup is generated by the given s_i."""
    mu = []
    size = 1
    for i in range(1, n):
        if i in simples:
            size += 1
        else:
            mu.append(size)
            size = 1
    mu.append(size)
    return tuple(mu)


def compositions(n: int) -> list[tuple]:
    """All compositions of n into positive parts."""
    if n == 0:
        return [()]
    out = []
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            out.append((first,) + rest)
    return out


def min_double_cosets(mu, nu, n: int | None = None):
    """Minimal-length (S_mu, S_nu)-double coset representatives.

    Returns a list of triples (pi, mu cap pi.nu, pi^-1.mu cap nu) where the
    two compositions describe the Young subgroups
    S_mu cap pi S_nu pi^-1 and pi^-1 S_mu pi cap S_nu.
    """
    if n is None:
        n = sum(mu)
    mu = check_composition(mu, n)
    nu = check_composition(nu, n)
    s_mu = young_subgroup(mu, n)
    s_nu = young_subgroup(nu, n)
    seen: set = set()
    reps = []
    for p in sorted(perms.all_permutations(n), key=length):
        if p in seen:
            continue
        coset = {perms.mul(perms.mul(u, p), v) for u in s_mu for v in s_nu}
        seen |= coset
        reps.append(p)
    mu_idx = block_index(mu, n)
    nu_idx = block_index(nu, n)
    out = []
    for p in reps:
        pinv = perm_inverse(p)
        left = {
            i
            for i in range(1, n)
            if mu_idx[i] == mu_idx[i + 1] and nu_idx[pinv[i - 1]] == nu_idx[pinv[i]]
        }
        right = {
            j
            for j in range(1, n)
            if nu_idx[j] == nu_idx[j + 1] and mu_idx[p[j - 1]] == mu_idx[p[j]]
        }
        # minimality makes conjugation by pi match the simple reflections up:
        # for s_i in S_{mu cap pi.nu}, pi^-1(i+1) = pi^-1(i) + 1.
        if any(pinv[i] != pinv[i - 1] + 1 for i in left):
            raise InternalInconsistency(f"double coset representative {p} is not minimal")
        out.append(
            (p, composition_from_simples(left, n), composition_from_simples(right, n))
        )
    return out


# -- Mackey dimension bookkeeping in A_n(F) -----------------------------------


class MackeyReport:
    def __init__(self, mu, nu, cutoff, lhs, terms, phi_checked):
        self.mu = mu
        self.nu = nu
        self.cutoff = cutoff
        self.lhs = lhs
        self.terms = terms  # list of (pi, mu cap pi nu, pi^-1 mu cap nu, dim)
        self.rhs = sum(t[3] for t in terms)
        self.equal = self.lhs == self.rhs
        self.phi_checked = phi_checked

    def __repr__(self):
        status = "ok" if self.equal and self.phi_checked else "MISMATCH"
        return (
            f"Mackey mu={self.mu} nu={self.nu} cutoff={self.cutoff}: "
            f"{self.lhs} = {self.rhs} over {len(self.terms)} cosets [{status}]"
        )


def mackey_dimension_report(ctx, mu, nu, poly_cutoff: int) -> MackeyReport:
    """Dimension identity for Res_mu Ind_nu of the (truncated) regular
    module of A_n(F), summed over minimal double-coset representatives, plus
    a generator-level check that conjugation by pi^-1 is an algebra map."""
    mu = check_composition(mu, ctx.n)
    nu = check_composition(nu, ctx.n)
    n_alpha = comb(ctx.n + poly_cutoff, ctx.n)  # #{alpha : |alpha| <= cutoff}
    layer = (ctx.F.dim ** ctx.n) * n_alpha
    s_nu_order = 1
    for part in nu:
        s_nu_order *= factorial(part)
    lhs = factorial(ctx.n) * layer
    terms = []
    phi_ok = True
    for pi, left_comp, right_comp in min_double_cosets(mu, nu, ctx.n):
        s_int_order = 1
        for part in left_comp:
            s_int_order *= factorial(part)
        s_mu_order = 1
        for part in mu:
            s_mu_order *= factorial(part)
        dim = (s_mu_order // s_int_order) * s_nu_order * layer
        terms.append((pi, left_comp, right_comp, dim))
        if not phi_is_algebra_map(ctx, pi, left_comp):
            phi_ok = False
    return MackeyReport(mu, nu, poly_cutoff, lhs, terms, phi_ok)


def phi_is_algebra_map(ctx, pi, left_comp) -> bool:
    """phi_{pi^-1}: sigma -> pi^-1 sigma pi, x_i -> x_{pi^-1 i},
    f_i -> f_{pi^-1 i} respects the defining relations on the generators
    of the parabolic subalgebra for the composition."""
    pinv = perm_inverse(pi)
    for i in young_subgroup_simples(left_comp, ctx.n):
        ii = pinv[i - 1]
        if pinv[i] != ii + 1:
            return False
        lhs = ctx.mul(ctx.s(ii), ctx.x(ii))
        rhs = ctx.mul(ctx.x(ii + 1), ctx.s(ii)) - ctx.t_element(ii, ii + 1)
        if lhs != rhs:
            return False
        for b in range(ctx.F.dim):
            fb = ctx.slot_elem(ctx.F.basis_elem(b), ii)
            image = ctx.slot_elem(ctx.F.basis_elem(b), ii + 1)
            if ctx.mul(ctx.s(ii), ctx.mul(fb, ctx.s(ii))) != image:
                return False
    return True


# -- normal-form products ------------------------------------------------------


def perm_times_pnf(ctx, pi, alpha, word) -> dict:
    """pi * (x^alpha word) in normal form, {(alpha, word, perm): scalar}, by
    the reduced-word walk with nothing kept: s_i is peeled off the reduced
    word of pi right to left through the s_i step ``_act_simple``."""
    state = {(alpha, word, ctx.identity_perm): CycScalar.one(ctx.F.conductor)}
    for i in reversed(perms.reduced_word(pi)):
        state = ctx._act_simple(i, state)
    return state


def mono_pair_product(ctx, a, b) -> dict:
    """a * b as {(alpha, word, perm): scalar}, one monomial pair at a time
    with nothing kept or merged: pi1 * (x^a2 w2) by the reduced-word walk,
    then x^a1 w1 times each of its P_n(F) parts, the tails multiplied on."""
    out: dict = {}
    for (a1, w1, p1), c1 in a.terms.items():
        for (a2, w2, p2), c2 in b.terms.items():
            for (g, d, tau), c in perm_times_pnf(ctx, p1, a2, w2).items():
                tail = perms.mul(tau, p2)
                for (alpha, w), c3 in ctx._pd_mono_mul(a1, w1, g, d):
                    acc(out, (alpha, w, tail), c1 * c2 * c * c3)
    return out


# -- centralizers and spans -----------------------------------------------------


def pnf_generators(ctx) -> list:
    """The generators of A_n(F) that lie in P_n(F): the x_i and the basis
    slots, without the simple reflections."""
    return [
        g for g in ctx.generators() if all(pi == ctx.identity_perm for _, _, pi in g.terms)
    ]


def expected_pnf_centralizer(ctx, poly_degree_bound: int) -> list:
    """(+)_alpha x^alpha F_psi^(-alpha), truncated: the centralizer of
    P_n(F)."""
    out = []
    for alpha in product(range(poly_degree_bound + 1), repeat=ctx.n):
        if sum(alpha) > poly_degree_bound:
            continue
        for wdict in ctx._tensor_subspace_basis([-e for e in alpha]):
            terms = {(alpha, w, ctx.identity_perm): c for w, c in wdict.items()}
            out.append(AwpaElem(ctx, terms))
    return out


def same_span(basis_a, basis_b) -> bool:
    """Whether two lists of rows span the same space."""
    ra = linalg.rank(basis_a)
    return ra == linalg.rank(basis_b) and linalg.rank(list(basis_a) + list(basis_b)) == ra


def coords(a) -> list:
    """The dense coordinate vector of an element a of F."""
    zero = CycScalar.zero(a.algebra.conductor)
    return [a.terms.get(i, zero) for i in range(a.algebra.dim)]


# -- cyclotomic quotients ------------------------------------------------------------


def level_one_matches_wreath(qalg) -> bool:
    """At level one with chi = x_1, the quotient is the wreath product:
    compare all structure constants against the wreath product, which is
    graded_mul on the alpha = 0 monomials (the quotient's basis keys)."""
    if qalg.d != 1:
        raise ParamsMismatch("level-one comparison needs d = 1")
    monos = [qalg.ctx.monomial(*k) for k in qalg.basis_keys()]
    for u in monos:
        for v in monos:
            quot = qalg.mul(CycloElem(qalg, u), CycloElem(qalg, v))
            if quot.terms != qalg.ctx.graded_mul(u, v).terms:
                return False
    return True


def product_right_module_basis(ind) -> list:
    """The right-module basis x_j^a b_j s_j ... s_n of an InductionStructure,
    each element multiplied out in the engine and reduced."""
    ctx, F, m = ind.big.ctx, ind.params.F, ind.n + 1
    out = []
    for j in range(1, m + 1):
        pi = perms.identity(m)
        for t in range(j, m):
            pi = perms.mul(pi, perms.simple(m, t))
        for a in range(ind.big.d):
            for b in range(F.dim):
                mono = ctx.mul(
                    ctx.x_monomial(tuple(a if t == j - 1 else 0 for t in range(m))),
                    ctx.mul(ctx.slot_elem(F.basis_elem(b), j), ctx.perm_elem(pi)),
                )
                out.append(((j, a, b), ind.big.reduce(mono)))
    return out


def split_algebra() -> FrobAlg:
    """k x k: e_a e_b = [a = b] e_a, unit and trace e1 + e2."""
    cube = [[[int(a == b == c) for c in range(2)] for b in range(2)] for a in range(2)]
    return FrobAlg(["e1", "e2"], [0, 0], [0, 0], cube, [1, 1], [1, 1], name="split")
