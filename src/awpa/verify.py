"""Randomized verification suite for A_n(F).

Every displayed identity the engine relies on becomes an executable check
on randomized homogeneous inputs: the defining relations, the derived
t-element and divided-difference calculus, the module-action oracle for
the normal form, Jucys-Murphy evaluation, intertwiners, centrality, and
leading terms.  Checks are deterministic given the seed; a failure report
carries the first counterexample.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import linalg
from . import permutations as perms
from .engine import AwpaAlgebra, AwpaElem
from .errors import SizeMismatch
from .frobenius import FrobAlg
from .scalars import CycScalar


class CheckFailure(Exception):
    pass


def random_element(ctx: AwpaAlgebra, rng: random.Random, terms=2, max_exp=2,
                   poly_only=False) -> AwpaElem:
    t = {}
    all_perms = perms.all_permutations(ctx.n)
    for _ in range(terms):
        alpha = tuple(rng.randrange(max_exp + 1) for _ in range(ctx.n))
        word = tuple(rng.randrange(ctx.F.dim) for _ in range(ctx.n))
        pi = ctx.identity_perm if poly_only else rng.choice(all_perms)
        t[(alpha, word, pi)] = ctx.F.scalar(rng.randint(-3, 3))
    return AwpaElem(ctx, t)


def random_word_elem(ctx: AwpaAlgebra, rng: random.Random, terms=2) -> AwpaElem:
    t = {}
    for _ in range(terms):
        word = tuple(rng.randrange(ctx.F.dim) for _ in range(ctx.n))
        t[(ctx.zero_alpha, word, ctx.identity_perm)] = ctx.F.scalar(rng.randint(-3, 3))
    return AwpaElem(ctx, t)


def _expect(cond: bool, name: str, detail: str):
    if not cond:
        raise CheckFailure(f"{name}: {detail}")


# -- individual checks; each takes (ctx, rng) --------------------------------------


def check_xF_commutation(ctx, rng):
    """f x_i = x_i psi_i(f)"""
    i = rng.randrange(1, ctx.n + 1)
    b = rng.randrange(ctx.F.dim)
    f = ctx.slot_elem(ctx.F.basis_elem(b), i)
    pf = ctx.slot_elem(ctx.F.psi(ctx.F.basis_elem(b)), i)
    _expect(
        ctx.mul(f, ctx.x(i)) == ctx.mul(ctx.x(i), pf),
        "xF-commutation",
        f"slot {i}, basis {ctx.F.basis_labels[b]}",
    )


def check_sx_commutation(ctx, rng):
    """s_i x_i = x_{i+1} s_i - t_{i,i+1}; s_i x_j = x_j s_i for j != i, i+1"""
    i = rng.randrange(1, ctx.n)
    lhs = ctx.mul(ctx.s(i), ctx.x(i))
    rhs = ctx.mul(ctx.x(i + 1), ctx.s(i)) - ctx.t_element(i, i + 1)
    _expect(lhs == rhs, "sx-commutation", f"i={i}")
    others = [j for j in range(1, ctx.n + 1) if j not in (i, i + 1)]
    if others:
        j = rng.choice(others)
        _expect(
            ctx.mul(ctx.s(i), ctx.x(j)) == ctx.mul(ctx.x(j), ctx.s(i)),
            "sx-triv-commutation",
            f"i={i}, j={j}",
        )


def check_SF_commutation(ctx, rng):
    """pi f = (pi . f) pi"""
    pi = rng.choice(perms.all_permutations(ctx.n))
    word = tuple(rng.randrange(ctx.F.dim) for _ in range(ctx.n))
    f = ctx.monomial(ctx.zero_alpha, word, ctx.identity_perm)
    lhs = ctx.mul(ctx.perm_elem(pi), f)
    rhs = ctx.mul(ctx.superpermute_elem(pi, f), ctx.perm_elem(pi))
    _expect(lhs == rhs, "SF-commutation", f"pi={pi}, word={word}")


def check_coxeter(ctx, rng):
    i = rng.randrange(1, ctx.n)
    _expect(ctx.mul(ctx.s(i), ctx.s(i)) == ctx.one(), "coxeter", f"s_{i}^2 != 1")
    if i + 1 < ctx.n:
        lhs = ctx.mul(ctx.s(i), ctx.mul(ctx.s(i + 1), ctx.s(i)))
        rhs = ctx.mul(ctx.s(i + 1), ctx.mul(ctx.s(i), ctx.s(i + 1)))
        _expect(lhs == rhs, "coxeter", f"braid at {i}")
    distant = [j for j in range(1, ctx.n) if abs(j - i) > 1]
    if distant:
        j = rng.choice(distant)
        _expect(
            ctx.mul(ctx.s(i), ctx.s(j)) == ctx.mul(ctx.s(j), ctx.s(i)),
            "coxeter",
            f"distant {i},{j}",
        )


def check_x_commute(ctx, rng):
    i = rng.randrange(1, ctx.n + 1)
    j = rng.randrange(1, ctx.n + 1)
    _expect(
        ctx.mul(ctx.x(i), ctx.x(j)) == ctx.mul(ctx.x(j), ctx.x(i)),
        "xx-commutation",
        f"{i},{j}",
    )


def check_sx_higher(ctx, rng):
    """s_i x_i^k = x_{i+1}^k s_i - t^(k); s_i x_{i+1}^k = x_i^k s_i + t^(k)_{rev}"""
    i = rng.randrange(1, ctx.n)
    k = rng.randint(1, 3)
    _expect(
        ctx.mul(ctx.s(i), ctx.x(i, k))
        == ctx.mul(ctx.x(i + 1, k), ctx.s(i)) - ctx.t_element(i, i + 1, k),
        "sx-higher-commutation",
        f"i={i}, k={k}",
    )
    _expect(
        ctx.mul(ctx.s(i), ctx.x(i + 1, k))
        == ctx.mul(ctx.x(i, k), ctx.s(i)) + ctx.t_element(i + 1, i, k),
        "sx-higher-commutation2",
        f"i={i}, k={k}",
    )


def check_Ft_commutation(ctx, rng):
    """f t^(k)_{i,j} = t^(k)_{i,j} psi_i^k(s_{i,j} . f) = t^(k)_{i,j} s_{i,j} . (psi_j^k f)"""
    i, j = rng.sample(range(1, ctx.n + 1), 2)
    k = rng.randint(1, 2)
    f = random_word_elem(ctx, rng)
    t = ctx.t_element(i, j, k)
    sij = perms.transposition(ctx.n, i, j)
    moved = ctx.superpermute_elem(sij, f)
    gamma_i = tuple(k if t2 == i - 1 else 0 for t2 in range(ctx.n))
    gamma_j = tuple(k if t2 == j - 1 else 0 for t2 in range(ctx.n))
    rhs1 = ctx.mul(t, ctx.psi_twist(moved, gamma_i))
    _expect(ctx.mul(f, t) == rhs1, "Ft-commutation", f"i={i}, j={j}, k={k}")
    rhs2 = ctx.mul(t, ctx.superpermute_elem(sij, ctx.psi_twist(f, gamma_j)))
    _expect(ctx.mul(f, t) == rhs2, "Ft-commutation-form2", f"i={i}, j={j}, k={k}")


def check_psi_tij_reverse(ctx, rng):
    """psi_j(t_{i,j}) = t_{j,i}"""
    i, j = rng.sample(range(1, ctx.n + 1), 2)
    gamma = tuple(1 if t2 == j - 1 else 0 for t2 in range(ctx.n))
    _expect(
        ctx.psi_twist(ctx.t_element(i, j), gamma) == ctx.t_element(j, i),
        "psi-tij-reverse",
        f"i={i}, j={j}",
    )


def check_t_conjugation(ctx, rng):
    """x_l t = t x_l (l distinct); x_i t_{i,j} = t_{j,i} x_i;
    p(x^theta) t = t p; pi t_{i,j} = t_{pi i, pi j} pi; s_i t_{i,i+1}^(k) = t^(k)_{i+1,i} s_i"""
    i, j = rng.sample(range(1, ctx.n + 1), 2)
    k = rng.randint(1, 2)
    t = ctx.t_element(i, j, k)
    rest = [l for l in range(1, ctx.n + 1) if l not in (i, j)]
    if rest:
        l = rng.choice(rest)
        _expect(
            ctx.mul(ctx.x(l), t) == ctx.mul(t, ctx.x(l)),
            "xt-commutation-far",
            f"l={l}",
        )
    _expect(
        ctx.mul(ctx.x(i), ctx.t_element(i, j)) == ctx.mul(ctx.t_element(j, i), ctx.x(i)),
        "xt-commutation-R",
        f"i={i}, j={j}",
    )
    p = ctx.x(rng.randrange(1, ctx.n + 1), ctx.F.theta)
    _expect(
        ctx.mul(p, ctx.t_element(i, j)) == ctx.mul(ctx.t_element(i, j), p),
        "pf-commutation",
        f"i={i}, j={j}",
    )
    pi = rng.choice(perms.all_permutations(ctx.n))
    lhs = ctx.mul(ctx.perm_elem(pi), ctx.t_element(i, j))
    rhs = ctx.mul(ctx.t_element(pi[i - 1], pi[j - 1]), ctx.perm_elem(pi))
    _expect(lhs == rhs, "tij-conjugation", f"pi={pi}, i={i}, j={j}")
    ii = rng.randrange(1, ctx.n)
    _expect(
        ctx.mul(ctx.s(ii), ctx.t_element(ii, ii + 1, k))
        == ctx.mul(ctx.t_element(ii + 1, ii, k), ctx.s(ii)),
        "tii+1-conjugation",
        f"i={ii}, k={k}",
    )


def check_t_symmetry_psi_id(ctx, rng):
    """t^(k)_{i,j} = t^(k)_{j,i} when psi = id"""
    if ctx.F.theta != 1:
        return
    i, j = rng.sample(range(1, ctx.n + 1), 2)
    k = rng.randint(1, 3)
    _expect(
        ctx.t_element(i, j, k) == ctx.t_element(j, i, k),
        "t-symmetry-psi-id",
        f"i={i}, j={j}, k={k}",
    )


def check_t_basis_independence(ctx, rng):
    """t_{i,j} computed in a random change of basis agrees."""
    F = ctx.F
    while True:
        mat = [
            [Fraction(rng.randint(-2, 2)) for _ in range(F.dim)] for _ in range(F.dim)
        ]
        rows = [[F.scalar(v) for v in row] for row in mat]
        # change of basis must preserve homogeneity: only mix equal (deg, par)
        for r in range(F.dim):
            for c in range(F.dim):
                if (F.degrees[r], F.parities[r]) != (F.degrees[c], F.parities[c]):
                    rows[r][c] = F.scalar(1 if r == c else 0)
        if linalg.is_invertible(rows):
            break
    basis = [ctx.F.elem(row) for row in rows]
    duals = F.dual_of_basis(basis)
    i, j = rng.sample(range(1, ctx.n + 1), 2)
    t_alt = ctx.zero()
    for b, bv in zip(basis, duals):
        t_alt = t_alt + ctx.mul(ctx.slot_elem(b, i), ctx.slot_elem(bv, j))
    _expect(t_alt == ctx.t_element(i, j), "t-basis-independence", f"i={i}, j={j}")


def check_delta_calculus(ctx, rng):
    """Delta_i twisted Leibniz, Delta_i^2 = 0, s-commutations, values on powers."""
    i = rng.randrange(1, ctx.n)
    a = random_element(ctx, rng, poly_only=True)
    b = random_element(ctx, rng, poly_only=True)
    lhs = ctx.divided_difference(i, ctx.mul(a, b))
    rhs = ctx.mul(ctx.divided_difference(i, a), b) + ctx.mul(
        ctx.superpermute_elem(perms.simple(ctx.n, i), a), ctx.divided_difference(i, b)
    )
    _expect(lhs == rhs, "Delta-Leibniz", f"i={i}")
    _expect(
        ctx.divided_difference(i, ctx.divided_difference(i, a)).is_zero(),
        "Delta-square-zero",
        f"i={i}",
    )
    si = perms.simple(ctx.n, i)
    lhs2 = ctx.divided_difference(i, ctx.superpermute_elem(si, a))
    rhs2 = -ctx.superpermute_elem(si, ctx.divided_difference(i, a))
    _expect(lhs2 == rhs2, "Delta-s-commutation", f"i={i}")
    far = [j for j in range(1, ctx.n) if abs(j - i) > 1]
    if far:
        j = rng.choice(far)
        sj = perms.simple(ctx.n, j)
        _expect(
            ctx.divided_difference(i, ctx.superpermute_elem(sj, a))
            == ctx.superpermute_elem(sj, ctx.divided_difference(i, a)),
            "Delta-s-triv-commutation",
            f"i={i}, j={j}",
        )
        _expect(
            ctx.divided_difference(i, ctx.divided_difference(j, a))
            == ctx.divided_difference(j, ctx.divided_difference(i, a)),
            "Delta-Delta-triv-commutation",
            f"i={i}, j={j}",
        )
    k = rng.randint(1, 3)
    _expect(
        ctx.divided_difference(i, ctx.x(i, k)) == ctx.t_element(i, i + 1, k),
        "Delta-i",
        f"i={i}, k={k}",
    )
    _expect(
        ctx.divided_difference(i, ctx.x(i + 1, k)) == -ctx.t_element(i + 1, i, k),
        "Delta-i+1",
        f"i={i}, k={k}",
    )
    _expect(
        ctx.divided_difference(i, random_word_elem(ctx, rng)).is_zero(),
        "Delta-kills-F",
        f"i={i}",
    )


def check_delta_classical(ctx, rng):
    """psi = id: Delta_i(f p) = (s_i . f) t_{i,i+1} d_i(p), with the usual
    divided difference d_i computed by exact polynomial division."""
    if ctx.F.theta != 1:
        return
    i = rng.randrange(1, ctx.n)
    word = tuple(rng.randrange(ctx.F.dim) for _ in range(ctx.n))
    f = AwpaElem(
        ctx, {(ctx.zero_alpha, word, ctx.identity_perm): CycScalar.one(ctx.F.conductor)}
    )
    alpha = tuple(rng.randrange(3) for _ in range(ctx.n))
    p = ctx.x_monomial(alpha)
    lhs = ctx.divided_difference(i, ctx.mul(f, p))
    si = perms.simple(ctx.n, i)
    dp = _classical_divided_difference(ctx, i, {alpha: Fraction(1)})
    dp_elem = ctx.zero()
    for a2, c in dp.items():
        dp_elem = dp_elem + ctx.F.scalar(c) * ctx.x_monomial(a2)
    rhs = ctx.mul(
        ctx.superpermute_elem(si, f), ctx.mul(ctx.t_element(i, i + 1), dp_elem)
    )
    _expect(lhs == rhs, "Delta-classical", f"i={i}, alpha={alpha}")


def _classical_divided_difference(ctx, i, poly: dict) -> dict:
    """(p - s_i p) / (x_i - x_{i+1}) on {alpha: Fraction} dicts."""
    num: dict = {}
    for alpha, c in poly.items():
        num[alpha] = num.get(alpha, Fraction(0)) + c
        swapped = list(alpha)
        swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
        key = tuple(swapped)
        num[key] = num.get(key, Fraction(0)) - c
    num = {a: c for a, c in num.items() if c}
    out: dict = {}
    # divide by (x_i - x_{i+1}): repeatedly cancel the lex-leading term
    while num:
        alpha = max(num)
        c = num[alpha]
        if alpha[i - 1] == 0:
            raise CheckFailure("classical divided difference: nonexact division")
        q = list(alpha)
        q[i - 1] -= 1
        q = tuple(q)
        out[q] = out.get(q, Fraction(0)) + c
        for delta_pos, sign in ((i - 1, 1), (i, -1)):
            mono = list(q)
            mono[delta_pos] += 1
            key = tuple(mono)
            num[key] = num.get(key, Fraction(0)) - sign * c
        num = {a: cc for a, cc in num.items() if cc}
    return out


def check_oracle_equivalence(ctx, rng):
    """normal_form_mul vs the module action on V, plus module axioms."""
    a = random_element(ctx, rng)
    b = random_element(ctx, rng)
    lhs = ctx.element_to_module(ctx.mul(a, b))
    rhs = ctx.oracle_act(a, ctx.element_to_module(b))
    _expect(lhs == rhs, "oracle-equivalence", "a*b vs a.(b.(1(x)1))")


def check_associativity(ctx, rng):
    a = random_element(ctx, rng)
    b = random_element(ctx, rng)
    c = random_element(ctx, rng)
    _expect(
        ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c)),
        "associativity",
        "random triple",
    )


def check_evaluation_hom(ctx, rng):
    a = random_element(ctx, rng, max_exp=1)
    b = random_element(ctx, rng, max_exp=1)
    ev = ctx.evaluation_hom
    _expect(
        ev(ctx.mul(a, b)) == ctx.graded_mul(ev(a), ev(b)),
        "evaluation-hom",
        "multiplicativity",
    )
    w = random_word_elem(ctx, rng)
    pi = rng.choice(perms.all_permutations(ctx.n))
    elem = ctx.mul(w, ctx.perm_elem(pi))
    _expect(ev(elem) == elem, "evaluation-hom", "identity on wreath part")


def check_jm_relations(ctx, rng):
    """The images J_k = ev(x_k) satisfy the defining relations in the wreath
    product: s_i J_i = J_{i+1} s_i - t_{i,i+1} etc."""
    i = rng.randrange(1, ctx.n)
    lhs = ctx.evaluation_hom(ctx.mul(ctx.s(i), ctx.x(i)))
    rhs = ctx.evaluation_hom(ctx.mul(ctx.x(i + 1), ctx.s(i)) - ctx.t_element(i, i + 1))
    _expect(lhs == rhs, "jm-relations", f"i={i}")


def check_intertwiner(ctx, rng):
    i = rng.randrange(1, ctx.n)
    om = ctx.intertwiner(i)
    th = ctx.F.theta
    t = ctx.t_element(i, i + 1, th)
    diff = ctx.x(i, th) - ctx.x(i + 1, th)
    _expect(
        ctx.mul(om, om) == ctx.mul(t, t) - ctx.mul(diff, diff),
        "Omega-squared",
        f"i={i}",
    )
    j = rng.randrange(1, ctx.n + 1)
    si = perms.simple(ctx.n, i)
    _expect(
        ctx.mul(om, ctx.x(j)) == ctx.mul(ctx.x(si[j - 1]), om),
        "Omega-x-commutation",
        f"i={i}, j={j}",
    )
    b = rng.randrange(ctx.F.dim)
    fj = ctx.slot_elem(ctx.F.basis_elem(b), j)
    fsj = ctx.slot_elem(ctx.F.basis_elem(b), si[j - 1])
    _expect(
        ctx.mul(om, fj) == ctx.mul(fsj, om), "Omega-f-commutation", f"i={i}, j={j}"
    )
    far = [j2 for j2 in range(1, ctx.n) if abs(j2 - i) > 1]
    if far:
        j2 = rng.choice(far)
        om2 = ctx.intertwiner(j2)
        _expect(
            ctx.mul(om, om2) == ctx.mul(om2, om),
            "Omega-distant-commute",
            f"i={i}, j={j2}",
        )


def check_center(ctx, rng):
    """e_1(x^theta) is central; certified central elements commute with a
    random element."""
    th = ctx.F.theta
    e1 = ctx.zero()
    for i in range(1, ctx.n + 1):
        e1 = e1 + ctx.x(i, th)
    res = ctx.is_central(e1)
    _expect(bool(res), "center", f"e1(x^theta) not central: {res!r}")
    z = random_element(ctx, rng)
    _expect(
        ctx.mul(e1, z) == ctx.mul(z, e1), "center", "certified element fails to commute"
    )


def check_leading_term(ctx, rng):
    a = random_element(ctx, rng, terms=1)
    b = random_element(ctx, rng, terms=1)
    if a.is_zero() or b.is_zero():
        return
    prod = ctx.mul(a, b)
    gr = ctx.graded_mul(ctx.leading_term(a), ctx.leading_term(b))
    if gr.is_zero():
        return
    _expect(ctx.leading_term(prod) == gr, "leading-term", "lt(ab) != lt(a) lt(b)")


def check_bruhat_lower_terms(ctx, rng):
    """pi a = (pi . a) pi + sum of terms sigma < pi of lower poly degree."""
    pi = rng.choice(perms.all_permutations(ctx.n))
    a = random_element(ctx, rng, poly_only=True, terms=1)
    if a.is_zero():
        return
    prod = ctx.mul(ctx.perm_elem(pi), a)
    moved = ctx.superpermute_elem(pi, a)
    deg = a.poly_degree()
    for (alpha, word, sigma), c in prod.terms.items():
        if sigma == pi:
            continue
        _expect(
            perms.bruhat_leq(sigma, pi) and sigma != pi,
            "bruhat-lower-terms",
            f"sigma={sigma} not < pi={pi}",
        )
        _expect(
            sum(alpha) < deg, "bruhat-lower-terms", "correction degree not lower"
        )
    # the pi-coefficient is exactly the superpermuted element
    top = AwpaElem(
        ctx,
        {
            (alpha, word, ctx.identity_perm): c
            for (alpha, word, sigma), c in prod.terms.items()
            if sigma == pi and sum(alpha) == deg
        },
    )
    top_expected = AwpaElem(
        ctx, {k: c for k, c in moved.terms.items() if sum(k[0]) == deg}
    )
    _expect(top == top_expected, "bruhat-lower-terms", "leading pi-coefficient")


def check_reverse_automorphism(ctx, rng):
    rev = ctx.automorphism("reverse")
    a = random_element(ctx, rng, terms=1, max_exp=1)
    b = random_element(ctx, rng, terms=1, max_exp=1)
    _expect(
        rev(ctx.mul(a, b)) == ctx.mul(rev(a), rev(b)),
        "reverse-automorphism",
        "multiplicativity",
    )
    _expect(rev(rev(a)) == a, "reverse-automorphism", "involution")


def check_superpermute_action(ctx, rng):
    """The superpermutation action is word-independent: compose vs direct."""
    p1 = rng.choice(perms.all_permutations(ctx.n))
    p2 = rng.choice(perms.all_permutations(ctx.n))
    word = tuple(rng.randrange(ctx.F.dim) for _ in range(ctx.n))
    f = ctx.monomial(ctx.zero_alpha, word, ctx.identity_perm)
    act = ctx.superpermute_elem
    _expect(
        act(p1, act(p2, f)) == act(perms.mul(p1, p2), f),
        "superpermute-action",
        f"{p1} o {p2}",
    )


ALL_CHECKS = [
    ("xF-commutation", check_xF_commutation),
    ("sx-commutation", check_sx_commutation),
    ("SF-commutation", check_SF_commutation),
    ("coxeter", check_coxeter),
    ("xx-commutation", check_x_commute),
    ("sx-higher-commutation", check_sx_higher),
    ("Ft-commutation", check_Ft_commutation),
    ("psi-tij-reverse", check_psi_tij_reverse),
    ("t-conjugation", check_t_conjugation),
    ("t-symmetry-psi-id", check_t_symmetry_psi_id),
    ("t-basis-independence", check_t_basis_independence),
    ("Delta-calculus", check_delta_calculus),
    ("Delta-classical", check_delta_classical),
    ("oracle-equivalence", check_oracle_equivalence),
    ("associativity", check_associativity),
    ("evaluation-hom", check_evaluation_hom),
    ("jm-relations", check_jm_relations),
    ("intertwiner", check_intertwiner),
    ("center", check_center),
    ("leading-term", check_leading_term),
    ("bruhat-lower-terms", check_bruhat_lower_terms),
    ("reverse-automorphism", check_reverse_automorphism),
    ("superpermute-action", check_superpermute_action),
]


def run_suite(F: FrobAlg, n: int, seed: int = 0, instances: int = 200):
    """Run the randomized suite; returns (results, failures) where results is
    a list of (check name, instances run) and failures a list of messages."""
    if n < 1:
        raise SizeMismatch("the relation suite needs n >= 1")
    ctx = AwpaAlgebra(F, n)
    rng = random.Random(seed)
    applicable = [
        (name, fn)
        for name, fn in ALL_CHECKS
        if n >= 2 or name in ("xF-commutation", "xx-commutation", "associativity",
                              "oracle-equivalence", "evaluation-hom", "center")
    ]
    counts = {name: 0 for name, _ in applicable}
    failures = []
    for t in range(instances):
        name, fn = applicable[t % len(applicable)]
        try:
            fn(ctx, rng)
        except CheckFailure as exc:
            failures.append(str(exc))
            if len(failures) >= 3:
                break
        counts[name] += 1
    return sorted(counts.items()), failures
