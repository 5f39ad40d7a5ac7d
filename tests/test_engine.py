"""Normal-form arithmetic in A_n(F) and the structure theory built on it."""

import gc
import random
import weakref
from fractions import Fraction
from itertools import product

import pytest

from awpa import linalg, sparse
from awpa import permutations as perms
from awpa.cyclotomic import CyclotomicAlgebra, InductionStructure, make_params, nakayama_check
from awpa.engine import AwpaAlgebra, AwpaElem
from awpa.errors import (
    AlgebraMismatch,
    BadAutomorphismParams,
    NotPolynomial,
    SizeMismatch,
    ZeroElement,
)
from awpa.frobenius import (
    BUILTINS,
    FrobAlg,
    builtin,
    clifford_algebra,
    cyclic_group_algebra,
    dual_numbers_algebra,
    symmetric_group_algebra,
    taft_algebra,
    trivial_algebra,
)
from awpa.scalars import CycScalar, root_of_unity
from awpa.sparse import acc
from awpa.verify import random_element, run_suite
from awpa.wreath import word_mul, word_parity

from oracles import (
    compositions,
    expected_pnf_centralizer,
    mackey_dimension_report,
    mono_pair_product,
    perm_inverse,
    perm_times_pnf,
    pnf_generators,
    same_span,
)


@pytest.fixture(scope="module")
def ctx_k2():
    return AwpaAlgebra(trivial_algebra(), 2)


@pytest.fixture(scope="module")
def ctx_cl2():
    return AwpaAlgebra(clifford_algebra(), 2)


def test_defining_relation_daha(ctx_k2):
    # s1 x1 = x2 s1 - 1 (t = 1 for F = k)
    lhs = ctx_k2.mul(ctx_k2.s(1), ctx_k2.x(1))
    assert lhs == ctx_k2.mul(ctx_k2.x(2), ctx_k2.s(1)) - ctx_k2.one()


def test_defining_relation_sergeev(ctx_cl2):
    # s1 x1 = x2 s1 - 1 - c1 c2
    ctx = ctx_cl2
    Cl = ctx.F
    lhs = ctx.mul(ctx.s(1), ctx.x(1))
    cc = ctx.mul(ctx.slot_elem(Cl.from_label("c"), 1), ctx.slot_elem(Cl.from_label("c"), 2))
    assert lhs == ctx.mul(ctx.x(2), ctx.s(1)) - ctx.one() - cc


def test_polynomial_subalgebra_commutes(ctx_cl2):
    prod = ctx_cl2.mul(ctx_cl2.x(1), ctx_cl2.x(2))
    assert list(prod.terms) == [((1, 1), (0, 0), (1, 2))]


def test_t_dual_numbers():
    # t_{i,j} = z_i + z_j
    ctx = AwpaAlgebra(dual_numbers_algebra(), 2)
    z = ctx.F.from_label("z")
    assert ctx.t_element(1, 2) == ctx.slot_elem(z, 1) + ctx.slot_elem(z, 2)


def test_t_group_algebra():
    # t_{i,j} = sum_g g_i g_j^{-1}
    F = cyclic_group_algebra(3)
    ctx = AwpaAlgebra(F, 2)
    expected = ctx.zero()
    table_inv = {0: 0, 1: 2, 2: 1}
    for g in range(3):
        expected = expected + ctx.mul(
            ctx.slot_elem(F.basis_elem(g), 1),
            ctx.slot_elem(F.basis_elem(table_inv[g]), 2),
        )
    assert ctx.t_element(1, 2) == expected


def test_t_trivial_higher():
    # F = k: t^(k) = sum_l x_i^{k-1-l} x_j^l
    ctx = AwpaAlgebra(trivial_algebra(), 2)
    for k in (1, 2, 3):
        expected = ctx.zero()
        for l in range(k):
            expected = expected + ctx.mul(ctx.x(1, k - 1 - l), ctx.x(2, l))
        assert ctx.t_element(1, 2, k) == expected


def test_t_element_degree_parity(ctx_cl2):
    t = ctx_cl2.t_element(1, 2, 2)
    assert t.parity() == 0
    assert t.degree() == 2 * ctx_cl2.F.delta


def test_divided_difference_basic(ctx_k2):
    # Delta_1(x1) = 1 for F = k
    d = ctx_k2.divided_difference(1, ctx_k2.x(1))
    assert d == ctx_k2.one()


def test_divided_difference_kills_words(ctx_cl2):
    f = ctx_cl2.slot_elem(ctx_cl2.F.from_label("c"), 1)
    assert ctx_cl2.divided_difference(1, f).is_zero()


def test_divided_difference_square_zero(ctx_k2):
    a = ctx_k2.mul(ctx_k2.x(1), ctx_k2.x(2, 2))
    dd = ctx_k2.divided_difference(1, ctx_k2.divided_difference(1, a))
    assert dd.is_zero()


def test_divided_difference_rejects_perms(ctx_k2):
    with pytest.raises(NotPolynomial):
        ctx_k2.divided_difference(1, ctx_k2.s(1))


def test_oracle_module_examples(ctx_k2):
    # x1 . (1 (x) 1) = x1 (x) 1
    v = ctx_k2.element_to_module(ctx_k2.x(1))
    assert list(v.terms) == [((1, 0), (0,) * 2, (1, 2))]
    # s1 . (x1 (x) 1) = x2 (x) s1 - 1 (x) 1
    w = ctx_k2.oracle_act(ctx_k2.s(1), ctx_k2.element_to_module(ctx_k2.x(1)))
    expected = dict()
    expected[((0, 1), (0, 0), (2, 1))] = ctx_k2.F.scalar(1)
    expected[((0, 0), (0, 0), (1, 2))] = ctx_k2.F.scalar(-1)
    assert w.terms == expected


def test_oracle_module_axiom(ctx_cl2):
    rng = random.Random(10)
    for _ in range(50):
        a = random_element(ctx_cl2, rng)
        b = random_element(ctx_cl2, rng)
        v = ctx_cl2.element_to_module(random_element(ctx_cl2, rng, terms=1))
        lhs = ctx_cl2.oracle_act(ctx_cl2.mul(a, b), v)
        rhs = ctx_cl2.oracle_act(a, ctx_cl2.oracle_act(b, v))
        assert lhs == rhs


@pytest.mark.parametrize(
    "make,n",
    [(clifford_algebra, 2), (lambda: taft_algebra(3), 2), (trivial_algebra, 3)],
    ids=["Cl-2", "Taft3-2", "k-3"],
)
def test_oracle_fixes_normal_form_monomials(make, n):
    """The basis theorem: a -> a . (1 (x) 1) fixes every normal-form
    monomial x^alpha b pi of polynomial degree <= 1."""
    ctx = AwpaAlgebra(make(), n)
    for key in ctx.candidate_monomials(1):
        m = ctx.monomial(*key)
        assert ctx.element_to_module(m) == m, key


def test_jucys_murphy_examples():
    ctx = AwpaAlgebra(trivial_algebra(), 3)
    assert ctx.jucys_murphy(1).is_zero()
    expected = ctx.perm_elem(perms.transposition(3, 1, 3)) + ctx.perm_elem(
        perms.transposition(3, 2, 3)
    )
    assert ctx.jucys_murphy(3) == expected

    ctx2 = AwpaAlgebra(clifford_algebra(), 2)
    t = ctx2.one() + ctx2.monomial((0, 0), (1, 1), (1, 2))
    assert ctx2.jucys_murphy(2) == ctx2.mul(t, ctx2.s(1))


def test_evaluation_hom_examples(ctx_cl2):
    assert ctx_cl2.evaluation_hom(ctx_cl2.x(1)).is_zero()
    # evaluation respects s1 x1 = x2 s1 - t_{1,2}
    lhs = ctx_cl2.evaluation_hom(ctx_cl2.mul(ctx_cl2.s(1), ctx_cl2.x(1)))
    rhs = ctx_cl2.evaluation_hom(
        ctx_cl2.mul(ctx_cl2.x(2), ctx_cl2.s(1)) - ctx_cl2.t_element(1, 2)
    )
    assert lhs == rhs


def test_evaluation_hom_multiplicative(ctx_cl2):
    rng = random.Random(11)
    for _ in range(25):
        a = random_element(ctx_cl2, rng)
        b = random_element(ctx_cl2, rng)
        assert ctx_cl2.evaluation_hom(ctx_cl2.mul(a, b)) == ctx_cl2.graded_mul(
            ctx_cl2.evaluation_hom(a), ctx_cl2.evaluation_hom(b)
        )


ONE_ELEMENT_MAPS = {
    "psi_twist": lambda ctx, a: ctx.psi_twist(a, (1, 1)),
    "leading_term": lambda ctx, a: ctx.leading_term(a),
    "superpermute_elem": lambda ctx, a: ctx.superpermute_elem((2, 1), a),
    "divided_difference": lambda ctx, a: ctx.divided_difference(1, a),
    "evaluation_hom": lambda ctx, a: ctx.evaluation_hom(a),
    "mul": lambda ctx, a: ctx.mul(a, a),
    "graded_mul": lambda ctx, a: ctx.graded_mul(a, a),
    "element_to_module": lambda ctx, a: ctx.element_to_module(a),
    "oracle_act": lambda ctx, a: ctx.oracle_act(ctx.x(1), a),
    "reverse": lambda ctx, a: ctx.automorphism("reverse")(a),
    "add": lambda ctx, a: ctx.x(1) + a,
    # at bound -1 no product is formed, so only the check can refuse a
    "centralizer_up_to_degree": lambda ctx, a: ctx.centralizer_up_to_degree([a], -1),
    "is_central": lambda ctx, a: repr(ctx.is_central(a)),
}


@pytest.mark.parametrize("name", list(ONE_ELEMENT_MAPS))
def test_engine_maps_check_the_context(name):
    """An element of A_3(F) or of A_2(Cl), an element of F itself or None
    given to A_2(F) is refused, as in a sum; one of another context over
    the same F and n is taken."""
    T = taft_algebra(3)
    ctx, apply = AwpaAlgebra(T, 2), ONE_ELEMENT_MAPS[name]
    with pytest.raises(SizeMismatch):
        apply(ctx, AwpaAlgebra(T, 3).x(1))
    for foreign in (AwpaAlgebra(clifford_algebra(), 2).x(1), T.unit_elem(), None):
        with pytest.raises(AlgebraMismatch):
            apply(ctx, foreign)
    assert apply(ctx, AwpaAlgebra(T, 2).x(1)) == apply(ctx, ctx.x(1))


def test_superpermute_elem_checks_the_permutation(ctx_cl2):
    # (2, 2) used to overwrite x_1's exponent and return 1; (1, 2, 3) was
    # cut to two slots and returned x_1
    with pytest.raises(ValueError, match="not a permutation"):
        ctx_cl2.superpermute_elem((2, 2), ctx_cl2.x(1))
    with pytest.raises(SizeMismatch):
        ctx_cl2.superpermute_elem((1, 2, 3), ctx_cl2.x(1))


@pytest.mark.parametrize("gamma", [(1,), (1, 1, 1)])
def test_psi_twist_checks_the_exponent_count(gamma):
    # (1,) used to give a one-letter word in a two-slot algebra, and
    # (1, 1, 1) was cut to two exponents
    ctx = AwpaAlgebra(taft_algebra(3), 2)
    with pytest.raises(SizeMismatch):
        ctx.psi_twist(ctx.slot_elem("y", 1), gamma)


def test_center_examples(ctx_cl2):
    assert ctx_cl2.is_central(ctx_cl2.x(1, 2) + ctx_cl2.x(2, 2))
    assert not ctx_cl2.is_central(ctx_cl2.x(1) + ctx_cl2.x(2))
    # elementary symmetric polynomials in x^theta
    e2 = ctx_cl2.mul(ctx_cl2.x(1, 2), ctx_cl2.x(2, 2))
    assert ctx_cl2.is_central(e2)


def test_odd_elements_supercommute_with_a_sign(ctx_cl2):
    """c_2 supercommutes with the odd c_1 (c_2 c_1 = -c_1 c_2) but not with
    itself (c_2 c_2 = 1), so the first generator it fails is c_2; without the
    odd-odd sign it would be c_1."""
    verdict = ctx_cl2.is_central(ctx_cl2.slot_elem(ctx_cl2.F.from_label("c"), 2))
    assert not verdict
    assert verdict.failed_generator == "c_2"


@pytest.mark.parametrize(
    "make",
    [
        trivial_algebra,
        clifford_algebra,
        dual_numbers_algebra,
        lambda: cyclic_group_algebra(3),
        lambda: taft_algebra(2),
    ],
)
def test_center_symmetric_polys(make):
    F = make()
    ctx = AwpaAlgebra(F, 2)
    th = F.theta
    e1 = ctx.x(1, th) + ctx.x(2, th)
    assert ctx.is_central(e1)


def test_central_space_clifford_n2(ctx_cl2):
    basis = ctx_cl2.center_up_to_degree(2)
    expected = [ctx_cl2.one(), ctx_cl2.x(1, 2) + ctx_cl2.x(2, 2)]
    vec_keys = ctx_cl2.candidate_monomials(2)
    index = {k: i for i, k in enumerate(vec_keys)}

    def coords(elem):
        v = [ctx_cl2.F.scalar(0)] * len(vec_keys)
        for k, c in elem.terms.items():
            v[index[k]] = c
        return v

    assert same_span([coords(z) for z in basis], [coords(z) for z in expected])


def test_centralizer_of_polynomials_trivial():
    # F = k, n = 2: centralizer of {x1, x2} at degree 2 is all of k[x]_{<=2}
    ctx = AwpaAlgebra(trivial_algebra(), 2)
    basis = ctx.centralizer_up_to_degree([ctx.x(1), ctx.x(2)], 2)
    assert len(basis) == 6  # 1, x1, x2, x1^2, x1x2, x2^2


def test_centralizer_matches_structural_form():
    # centralizer of P_n(F) = (+) x^alpha F_psi^(-alpha), truncated
    for make, n, bound in [
        (clifford_algebra, 2, 2),
        (lambda: cyclic_group_algebra(2), 2, 1),
        (lambda: taft_algebra(2), 1, 1),
    ]:
        F = make()
        ctx = AwpaAlgebra(F, n)
        gens = pnf_generators(ctx)
        got = ctx.centralizer_up_to_degree(gens, bound)
        expected = expected_pnf_centralizer(ctx, bound)
        keys = ctx.candidate_monomials(bound)
        index = {k: i for i, k in enumerate(keys)}

        def coords(elem):
            v = [F.scalar(0)] * len(keys)
            for k, c in elem.terms.items():
                v[index[k]] = c
            return v

        assert same_span(
            [coords(z) for z in got], [coords(z) for z in expected]
        ), (F.name, n)


def test_maximal_commutative_z2():
    # A = F_psi = F for F = kZ/2: k[x] A^(x)n is its own centralizer
    F = cyclic_group_algebra(2)
    ctx = AwpaAlgebra(F, 2)
    gens = pnf_generators(ctx)
    got = ctx.centralizer_up_to_degree(gens, 2)
    # expected dimension: #alpha with |alpha| <= 2 times dim F^(x)2 = 6 * 4
    assert len(got) == 24


def oneshot_centralizer(ctx, generators, poly_degree_bound):
    """Reference: the centralizer as one nullspace solve, with one row per
    (generator parity component, output monomial) and [z, g] formed for every
    candidate monomial z and every generator g."""
    out = []
    for par in (0, 1):
        monos = [
            k
            for k in ctx.candidate_monomials(poly_degree_bound)
            if word_parity(ctx.F, k[1]) == par
        ]
        if not monos:
            continue
        gens = [pair for g in generators for pair in g.parity_components().items()]
        # one row per (generator, key): sum_j z_j [z_j, g] at that key
        rows: dict = {}
        for j, k in enumerate(monos):
            zm = AwpaElem(ctx, {k: CycScalar.one(ctx.F.conductor)})
            for idx, (gpar, gelem) in enumerate(gens):
                diff = ctx.mul(zm, gelem) - (
                    -ctx.mul(gelem, zm) if par and gpar else ctx.mul(gelem, zm)
                )
                for kk, c in diff.terms.items():
                    rows.setdefault((idx, kk), {})[j] = c
        for vec in linalg.nullspace(list(rows.values()), range(len(monos))):
            out.append(AwpaElem(ctx, {monos[j]: c for j, c in vec.items()}))
    return out


def generator_orders(ctx, seed):
    """The generators in natural, reversed and seeded-shuffled order with
    random nonzero scalings, and without the simple reflections."""
    gens = ctx.generators()
    rng = random.Random(seed)
    shuffled = [ctx.F.scalar(rng.choice([-3, -2, -1, 2, 3])) * g for g in gens]
    rng.shuffle(shuffled)
    return {
        "natural": gens,
        "reversed": gens[::-1],
        "shuffled": shuffled,
        "no_perms": pnf_generators(ctx),
    }


@pytest.mark.parametrize(
    "make, n, bound",
    [
        (trivial_algebra, 3, 3),
        (clifford_algebra, 2, 3),
        (lambda: taft_algebra(2), 2, 1),
        (lambda: cyclic_group_algebra(3), 2, 1),
        (lambda: taft_algebra(3), 1, 2),
    ],
    ids=["k-n3-d3", "Cl-n2-d3", "Taft2-n2-d1", "kZ3-n2-d1", "Taft3-n1-d2"],
)
def test_staged_centralizer_matches_oneshot(make, n, bound):
    """The staged solve returns the one-shot basis term for term, whatever
    the order and scaling of the generators, and with the scalars -2 and 0
    among them, which it skips and the one-shot solve does not."""
    ctx = AwpaAlgebra(make(), n)
    scalars = [ctx.F.scalar(-2) * ctx.one(), ctx.zero()]
    for order, gens in generator_orders(ctx, seed=n * 10 + bound).items():
        for extra in ([], scalars):
            mixed = gens[:1] + extra + gens[1:]
            got = ctx.centralizer_up_to_degree(mixed, bound)
            want = oneshot_centralizer(ctx, mixed, bound)
            assert [z.terms for z in got] == [z.terms for z in want], (order, extra)
            assert got, order
    # the centre: both is_central routes agree on every basis element
    assert all(ctx.is_central(z) for z in ctx.center_up_to_degree(bound))


@pytest.mark.parametrize("bound", [-1, 0])
def test_staged_centralizer_small_bounds(ctx_cl2, bound):
    gens = ctx_cl2.generators()
    got = ctx_cl2.centralizer_up_to_degree(gens, bound)
    assert [z.terms for z in got] == [z.terms for z in oneshot_centralizer(ctx_cl2, gens, bound)]
    assert len(got) == (0 if bound < 0 else 1)


def test_staged_centralizer_without_generators(ctx_cl2):
    # nothing to commute with: every candidate monomial, in the candidate
    # order; the unit alone imposes nothing either
    got = ctx_cl2.centralizer_up_to_degree([], 1)
    assert [z.terms for z in got] == [z.terms for z in oneshot_centralizer(ctx_cl2, [], 1)]
    unit = ctx_cl2.centralizer_up_to_degree([ctx_cl2.one()], 1)
    assert [z.terms for z in unit] == [z.terms for z in got]
    monos = ctx_cl2.candidate_monomials(1)
    assert sorted(k for z in got for k in z.terms) == sorted(monos)
    assert all(len(z.terms) == 1 and z.terms[k] == 1 for z in got for k in z.terms)


def test_scalar_generators_form_no_products(monkeypatch):
    """Adding -2 and 0 to the generators of A_3(k) adds no engine product
    and leaves the centre as it is."""
    ctx = AwpaAlgebra(trivial_algebra(), 3)
    calls = []
    real = AwpaAlgebra.mul

    def counting(self, a, b):
        calls.append(1)
        return real(self, a, b)

    monkeypatch.setattr(AwpaAlgebra, "mul", counting)
    gens = ctx.generators()
    want = ctx.centralizer_up_to_degree(gens, 3)
    plain = len(calls)
    calls.clear()
    got = ctx.centralizer_up_to_degree(gens + [ctx.F.scalar(-2) * ctx.one(), ctx.zero()], 3)
    assert len(calls) == plain > 0
    assert [z.terms for z in got] == [z.terms for z in want]


def test_scalar_generator_of_another_algebra_is_refused(ctx_cl2):
    """A scalar over another F is refused, not skipped as a scalar."""
    other = AwpaAlgebra(trivial_algebra(), 2)
    for g in (other.one(), other.zero()):
        with pytest.raises(AlgebraMismatch):
            ctx_cl2.centralizer_up_to_degree([ctx_cl2.x(1), g], 1)
    with pytest.raises(SizeMismatch):
        ctx_cl2.centralizer_up_to_degree([AwpaAlgebra(ctx_cl2.F, 3).one()], 1)


@pytest.mark.parametrize(
    "make, n, bound",
    [(trivial_algebra, 3, 2), (clifford_algebra, 2, 2), (lambda: taft_algebra(2), 2, 1)],
    ids=["k-n3", "Cl-n2", "Taft2-n2"],
)
def test_permutation_free_generators_are_imposed_first(monkeypatch, make, n, bound):
    """Whatever the order given, the staged solve brackets with no generator
    that has a nontrivial permutation before one whose terms all have
    pi = 1, in either parity; a generator mixing both kinds counts as the
    former.  The basis stays that of the order given."""
    ctx = AwpaAlgebra(make(), n)
    imposed = []
    real = AwpaAlgebra._bracket

    def spy(self, z, zp, g, gp):
        imposed.append((zp, any(pi != self.identity_perm for _, _, pi in g.terms)))
        return real(self, z, zp, g, gp)

    orders = generator_orders(ctx, seed=n + bound)
    mixed = ctx.x(1) + ctx.s(1)
    for name, gens in orders.items():
        for extra in ([], [mixed]):
            want = oneshot_centralizer(ctx, extra + gens, bound)
            imposed.clear()
            monkeypatch.setattr(AwpaAlgebra, "_bracket", spy)
            got = ctx.centralizer_up_to_degree(extra + gens, bound)
            monkeypatch.setattr(AwpaAlgebra, "_bracket", real)
            assert [z.terms for z in got] == [z.terms for z in want], (name, extra)
            for par in (0, 1):
                flags = [has_perm for zp, has_perm in imposed if zp == par]
                assert flags == sorted(flags), (name, extra, par)
            assert {has_perm for _, has_perm in imposed} == (
                {False} if name == "no_perms" and not extra else {False, True}
            ), name


def test_staged_centralizer_mixed_parity_generator(ctx_cl2):
    # x_1 + c_1 has an even and an odd component, imposed one at a time
    g = ctx_cl2.x(1) + ctx_cl2.slot_elem(ctx_cl2.F.from_label("c"), 1)
    assert set(g.parity_components()) == {0, 1}
    for gens in ([g], [g, ctx_cl2.s(1)], [ctx_cl2.x(2), g]):
        got = ctx_cl2.centralizer_up_to_degree(gens, 2)
        want = oneshot_centralizer(ctx_cl2, gens, 2)
        assert [z.terms for z in got] == [z.terms for z in want]


def test_named_generators_clifford_n2(ctx_cl2):
    gens = ctx_cl2.named_generators()
    assert [name for name, _ in gens] == ["x1", "x2", "1_1", "1_2", "c_1", "c_2", "s1"]
    assert [g for _, g in gens] == ctx_cl2.generators()


@pytest.mark.parametrize("n", range(4))
@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_generators_keep_their_order(name, n):
    """The x_i, then each basis element in each slot (basis-major), then the
    s_j: the centre benchmark shuffles and rescales this list with its seed,
    so another order would change the work it measures."""
    ctx = AwpaAlgebra(builtin(name), n)
    F, slots = ctx.F, range(1, n + 1)
    expected = [ctx.x(i) for i in slots]
    expected += [ctx.slot_elem(F.basis_elem(b), i) for b in range(F.dim) for i in slots]
    expected += [ctx.s(j) for j in range(1, n)]
    assert ctx.generators() == expected


def test_staged_centralizer_takes_fewer_products(ctx_cl2, monkeypatch):
    """A return to the one-shot solve shows as more engine products."""
    calls = []
    real = AwpaAlgebra.mul

    def counting(self, a, b):
        calls.append(1)
        return real(self, a, b)

    monkeypatch.setattr(AwpaAlgebra, "mul", counting)
    gens = ctx_cl2.generators()
    ctx_cl2.centralizer_up_to_degree(gens, 3)
    staged = len(calls)
    calls.clear()
    oneshot_centralizer(ctx_cl2, gens, 3)
    assert 0 < staged < len(calls) / 2, (staged, len(calls))


def test_intertwiner_examples():
    ctx = AwpaAlgebra(trivial_algebra(), 2)
    om = ctx.intertwiner(1)
    assert om == ctx.mul(ctx.x(2) - ctx.x(1), ctx.s(1)) - ctx.one()

    ctx2 = AwpaAlgebra(clifford_algebra(), 2)
    om2 = ctx2.intertwiner(1)
    assert ctx2.mul(om2, ctx2.x(1)) == ctx2.mul(ctx2.x(2), om2)

    ctx4 = AwpaAlgebra(trivial_algebra(), 4)
    o1, o3 = ctx4.intertwiner(1), ctx4.intertwiner(3)
    assert ctx4.mul(o1, o3) == ctx4.mul(o3, o1)


def test_reverse_automorphism():
    ctx = AwpaAlgebra(clifford_algebra(), 3)
    rev = ctx.automorphism("reverse")
    assert rev(ctx.x(1)) == ctx.x(3)
    assert rev(ctx.s(1)) == -ctx.s(2)
    rng = random.Random(12)
    for _ in range(10):
        a = random_element(ctx, rng, terms=2, max_exp=1)
        assert rev(rev(a)) == a


def test_shift_automorphism():
    F = trivial_algebra()
    ctx = AwpaAlgebra(F, 3)
    lam = F.scalar(7) * F.unit_elem()
    sh = ctx.automorphism("shift", c=lam)
    assert sh(ctx.x(2)) == ctx.x(2) + ctx.scalar_elem(7)
    rng = random.Random(13)
    for _ in range(8):
        a = random_element(ctx, rng, terms=1)
        b = random_element(ctx, rng, terms=1)
        assert sh(ctx.mul(a, b)) == ctx.mul(sh(a), sh(b))


@pytest.mark.parametrize(
    "make", [lambda: taft_algebra(3), lambda: cyclic_group_algebra(3)], ids=["taft3", "kZ3"]
)
def test_trace_change_is_multiplicative(make):
    """x_i -> x_i g_i, identity on F^(x)2 and S_2, is a homomorphism
    A_2(F) -> A_2(F') for the trace tr'(f) = tr(f g) of F'."""
    F = make()
    ctx = AwpaAlgebra(F, 2)
    phi = ctx.automorphism("trace_change", u=F.from_label("g"))
    target = phi.target
    g2 = target.slot_elem(target.F.from_label("g"), 2)
    assert phi(ctx.x(2)) == target.mul(target.x(2), g2)
    assert phi(ctx.s(1)) == target.s(1)
    rng = random.Random(33)
    for _ in range(8):
        a = random_element(ctx, rng, terms=2, max_exp=1)
        b = random_element(ctx, rng, terms=2, max_exp=1)
        assert phi(ctx.mul(a, b)) == target.mul(phi(a), phi(b))


def test_frobenius_automorphism_is_multiplicative():
    """xi : g -> g^2 on kZ3 induces an automorphism of A_2(kZ3)."""
    F = cyclic_group_algebra(3)
    ctx = AwpaAlgebra(F, 2)
    phi = ctx.automorphism("frobenius", xi=[[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    g, g2 = (ctx.slot_elem(F.from_label(label), 1) for label in ("g", "g^2"))
    assert phi(g) == g2 and phi(g2) == g and phi(ctx.x(2)) == ctx.x(2)
    rng = random.Random(31)
    for _ in range(8):
        a = random_element(ctx, rng, terms=2, max_exp=1)
        b = random_element(ctx, rng, terms=2, max_exp=1)
        assert phi(ctx.mul(a, b)) == ctx.mul(phi(a), phi(b))


def test_antihom_reverses_products_with_super_sign():
    """tau(c) = zeta_4 c is a trace-preserving anti-automorphism of Cl over
    Q(zeta_4); on A_2(Cl) it gives phi(ab) = (-1)^{|a||b|} phi(b) phi(a)."""
    data = clifford_algebra().to_json_dict()
    data["conductor"] = 4
    Cl = FrobAlg.from_json_dict(data)
    ctx = AwpaAlgebra(Cl, 2)
    phi = ctx.automorphism("antihom", tau=[[1, 0], [0, root_of_unity(4)]])
    c1, c2 = ctx.slot_elem(Cl.from_label("c"), 1), ctx.slot_elem(Cl.from_label("c"), 2)
    odd_pair = (ctx.mul(c1, ctx.x(1)), ctx.mul(c2, ctx.s(1)))  # both odd
    rng = random.Random(32)
    pairs = [odd_pair] + [
        (random_element(ctx, rng, terms=1, max_exp=1), random_element(ctx, rng, terms=1, max_exp=1))
        for _ in range(10)
    ]
    for a, b in pairs:
        rhs = ctx.mul(phi(b), phi(a))
        assert phi(ctx.mul(a, b)) == (-rhs if a.parity() and b.parity() else rhs)


def test_frobenius_automorphism_must_preserve_trace():
    """z -> 2z is an algebra automorphism of k[z]/(z^2) but doubles tr(z)."""
    ctx = AwpaAlgebra(dual_numbers_algebra(), 2)
    with pytest.raises(BadAutomorphismParams, match="trace not preserved"):
        ctx.automorphism("frobenius", xi=[[1, 0], [0, 2]])


def test_singular_algebra_map_is_refused():
    """The augmentation g -> 1 of kZ3 is a unital algebra map but singular;
    no singular map preserves the trace, so the verdict alone refuses it."""
    ctx = AwpaAlgebra(cyclic_group_algebra(3), 2)
    with pytest.raises(BadAutomorphismParams, match="^xi is not a Frobenius automorphism: "
                       "invalid: trace not preserved on g$"):
        ctx.automorphism("frobenius", xi=[[1, 0, 0]] * 3)


def test_shift_parameter_outside_f1_is_refused():
    ctx = AwpaAlgebra(clifford_algebra(), 2)
    with pytest.raises(BadAutomorphismParams, match="^shift parameter at k=1 must be even$"):
        ctx.automorphism("shift", c=ctx.F.from_label("c"))
    with pytest.raises(BadAutomorphismParams, match=r"not in clifford\^\(x\)2$"):
        ctx.automorphism("shift", c=AwpaAlgebra(ctx.F, 3).one())
    # an element of A_2(F) outside F^(x)2, the alpha = 0, pi = 1 part
    for c in (ctx.x(1), ctx.s(1)):
        with pytest.raises(BadAutomorphismParams, match=r"not in clifford\^\(x\)2$"):
            ctx.automorphism("shift", c=c)


def test_graded_dimension_dual_numbers():
    # (1+q^2)/(1-q^2) = 1 + 2q^2 + 2q^4 + ...
    ctx = AwpaAlgebra(dual_numbers_algebra(), 1)
    counts = ctx.graded_dimension(8)
    assert counts == [1, 0, 2, 0, 2, 0, 2, 0, 2]
    assert counts == ctx.graded_dimension_series(8)


def test_graded_dimension_delta_zero():
    # F = k, delta = 0, n = 2: layer counts 2 * #{alpha : |alpha| = t}
    ctx = AwpaAlgebra(trivial_algebra(), 2)
    assert ctx.graded_dimension(3) == [2, 4, 6, 8]


def test_graded_dimension_n0_is_the_ground_field():
    """A_0(F) = k: one monomial in degree 0, for delta = 0 and delta > 0."""
    assert AwpaAlgebra(clifford_algebra(), 0).graded_dimension(3) == [1, 0, 0, 0]
    ctx = AwpaAlgebra(dual_numbers_algebra(), 0)
    assert ctx.graded_dimension(3) == ctx.graded_dimension_series(3) == [1, 0, 0, 0]


def test_graded_dimension_q0_coefficient():
    for make, n in [(taft_algebra, 2), (dual_numbers_algebra, 2)]:
        F = make() if make is not taft_algebra else taft_algebra(2)
        ctx = AwpaAlgebra(F, n)
        counts = ctx.graded_dimension(0)
        deg0 = sum(1 for d in F.degrees if d == 0)
        assert counts[0] == 2 * deg0**n


def test_leading_term():
    ctx = AwpaAlgebra(trivial_algebra(), 2)
    prod = ctx.mul(ctx.s(1), ctx.x(1))  # x2 s1 - 1
    lt = ctx.leading_term(prod)
    assert lt == ctx.mul(ctx.x(2), ctx.s(1))
    poly = ctx.mul(ctx.x(1), ctx.x(2))
    assert ctx.leading_term(poly) == poly
    with pytest.raises(ZeroElement):
        ctx.leading_term(ctx.zero())


def test_leading_term_multiplicative():
    ctx = AwpaAlgebra(clifford_algebra(), 2)
    rng = random.Random(14)
    for _ in range(25):
        a = random_element(ctx, rng, terms=1)
        b = random_element(ctx, rng, terms=1)
        if a.is_zero() or b.is_zero():
            continue
        gr = ctx.graded_mul(ctx.leading_term(a), ctx.leading_term(b))
        if not gr.is_zero():
            assert ctx.leading_term(ctx.mul(a, b)) == gr


def test_mackey_dimension_reports():
    for make in (trivial_algebra, clifford_algebra):
        F = make()
        for n in (2, 3):
            ctx = AwpaAlgebra(F, n)
            for mu in compositions(n):
                for nu in compositions(n):
                    report = mackey_dimension_report(ctx, mu, nu, 1)
                    assert report.equal, report
                    assert report.phi_checked, report


def test_mackey_identity_example():
    # mu = nu = (1,1), n = 2: one coset of rank 2 splitting as 1 + 1
    ctx = AwpaAlgebra(trivial_algebra(), 2)
    report = mackey_dimension_report(ctx, (1, 1), (1, 1), 0)
    assert len(report.terms) == 2
    assert report.lhs == 2 and report.rhs == 2


def test_exponents_are_checked(ctx_k2):
    """A negative exponent or an exponent vector whose length is not n is
    refused instead of built into a key that prints like a valid monomial."""
    with pytest.raises(ValueError):
        ctx_k2.x(1, -1)
    with pytest.raises(ValueError):
        ctx_k2.x_monomial((0, -2))
    with pytest.raises(ValueError):
        ctx_k2.monomial((-1, 0), (0, 0), (1, 2))
    for alpha in [(1,), (1, 0, 0)]:
        with pytest.raises(SizeMismatch):
            ctx_k2.x_monomial(alpha)
        with pytest.raises(SizeMismatch):
            ctx_k2.monomial(alpha, (0, 0), (1, 2))
    assert ctx_k2.x(1, 0) == ctx_k2.one()
    assert ctx_k2.monomial((1, 0), (0, 0), (1, 2)) == ctx_k2.x(1)


def test_monomial_word_and_perm_lengths_are_checked(ctx_k2):
    """A word or permutation whose length is not n, a word letter outside
    range(F.dim) and a permutation that is not a rearrangement of 1..n are
    refused; before, on A_2(k), monomial((0, 0), (0,), (1, 2)) printed as
    b(1) and monomial((0, 0), (0, 3), (1, 2)) built an unprintable element."""
    for word in [(0,), (0, 0, 0)]:
        with pytest.raises(SizeMismatch, match="word"):
            ctx_k2.monomial((0, 0), word, (1, 2))
    for pi in [(1,), (1, 2, 3)]:
        with pytest.raises(SizeMismatch, match="permutation"):
            ctx_k2.monomial((0, 0), (0, 0), pi)
    for word in [(0, 3), (-1, 0)]:
        with pytest.raises(ValueError, match="outside 0..0"):
            ctx_k2.monomial((0, 0), word, (1, 2))
    with pytest.raises(ValueError, match="not a permutation"):
        ctx_k2.monomial((0, 0), (0, 0), (1, 1))
    assert ctx_k2.monomial((0, 0), [0, 0], [2, 1]) == ctx_k2.s(1)


def test_perm_elem_length_is_checked(ctx_k2):
    """perm_elem refuses a permutation of another length or one that is not
    a rearrangement of 1..n; before, perm_elem((1, 2, 3)) printed as
    s[1,2,3] and multiplied like the unit, and perm_elem((1, 1)) as s[1,1]."""
    for pi in [(1,), (1, 2, 3)]:
        with pytest.raises(SizeMismatch, match="permutation"):
            ctx_k2.perm_elem(pi)
    for pi in [(1, 1), (0, 1), (2, 3)]:
        with pytest.raises(ValueError, match="not a permutation of 1..2"):
            ctx_k2.perm_elem(pi)
    assert ctx_k2.perm_elem([2, 1]) == ctx_k2.s(1)


def test_n_zero_and_one():
    # A_0(F) = k by convention; A_1 has no s generators
    F = clifford_algebra()
    ctx0 = AwpaAlgebra(F, 0)
    assert ctx0.mul(ctx0.one(), ctx0.one()) == ctx0.one()
    ctx1 = AwpaAlgebra(F, 1)
    c = ctx1.slot_elem(F.from_label("c"), 1)
    assert ctx1.mul(c, ctx1.x(1)) == -ctx1.mul(ctx1.x(1), c)
    with pytest.raises(IndexError):
        ctx1.s(1)


def reference_delta_mono(ctx, i, alpha, word):
    """Delta_i(x^alpha word) built afresh on every call, with no memo of
    Delta_i(x^alpha): the reference for ``AwpaAlgebra._delta_mono``."""
    p = alpha[i - 1]
    q = alpha[i]
    if p == 0 and q == 0:
        return {}
    rest = tuple(0 if t in (i - 1, i) else a for t, a in enumerate(alpha))
    # Delta_i(x_i^p x_{i+1}^q) = t^(p)_{i,i+1} x_{i+1}^q - x_{i+1}^p t^(q)_{i+1,i}
    middle = {}
    if p:
        xq = tuple(q if t == i else 0 for t in range(ctx.n))
        for (a, w), c in ctx.t_pd(p, i, i + 1).items():
            shifted = tuple(x + y for x, y in zip(a, xq))
            for w2, c2 in ctx._word_psi_twist(w, xq).items():
                acc(middle, (shifted, w2), c * c2)
    if q:
        xp = tuple(p if t == i else 0 for t in range(ctx.n))
        for (a, w), c in ctx.t_pd(q, i + 1, i).items():
            acc(middle, (tuple(x + y for x, y in zip(a, xp)), w), -c)
    out = {}
    for (a, w), c in middle.items():
        shifted = tuple(x + y for x, y in zip(rest, a))
        for w2, c2 in word_mul(ctx.F, w, word).items():
            acc(out, (shifted, w2), c * c2)
    return out


@pytest.mark.parametrize(
    "make",
    [clifford_algebra, lambda: taft_algebra(3), lambda: symmetric_group_algebra(3)],
    ids=["clifford", "taft3", "s3"],
)
def test_delta_memo_matches_reference(make):
    """The memoized Delta_i(x^alpha) times the word equals Delta_i(x^alpha word)
    built afresh, for every i, every alpha with entries <= theta + 1 and 20
    seeded words at n = 3; each key is asked twice, so hits are checked too."""
    F = make()
    ctx = AwpaAlgebra(F, 3)
    rng = random.Random(17)
    words = [tuple(rng.randrange(F.dim) for _ in range(3)) for _ in range(20)]
    alphas = list(product(range(F.theta + 2), repeat=3))
    for _ in range(2):
        for i in (1, 2):
            for alpha in alphas:
                for word in words:
                    expected = reference_delta_mono(ctx, i, alpha, word)
                    assert ctx._delta_mono(i, alpha, word) == expected
    assert len(ctx._delta_cache) == 2 * len(alphas) - 2 * (F.theta + 2)


@pytest.mark.parametrize(
    "make, n",
    [(trivial_algebra, 3), (clifford_algebra, 2), (lambda: taft_algebra(3), 2)],
    ids=["k-n3", "Cl-n2", "Taft3-n2"],
)
def test_perm_memo_matches_reference(make, n):
    """pi * (x^alpha word), as mul forms it through the memoized walk,
    equals the reduced-word walk with nothing kept, term for term, for every
    pi and every (alpha, word) of the degree-<=2 candidates; each product is
    asked twice, so hits are checked too.  The identity permutation is
    never stored."""
    ctx = AwpaAlgebra(make(), n)
    pds = sorted({(alpha, word) for alpha, word, _ in ctx.candidate_monomials(2)})
    pis = perms.all_permutations(n)
    for _ in range(2):
        for pi in pis:
            for alpha, word in pds:
                expected = perm_times_pnf(ctx, pi, alpha, word)
                right = ctx.monomial(alpha, word, ctx.identity_perm)
                assert ctx.mul(ctx.perm_elem(pi), right).terms == expected
                if pi != ctx.identity_perm:
                    assert ctx._perm_walk(pi, alpha, word) == expected
    assert len(ctx._smono_cache) == (len(pis) - 1) * len(pds)
    assert ctx.identity_perm not in {pi for pi, _, _ in ctx._smono_cache}


def _shared_perm_element(ctx, rng, pi, terms=3):
    """A random element whose terms all have the permutation pi."""
    t = {}
    for _ in range(terms):
        alpha = tuple(rng.randrange(3) for _ in range(ctx.n))
        word = tuple(rng.randrange(ctx.F.dim) for _ in range(ctx.n))
        t[(alpha, word, pi)] = ctx.F.scalar(rng.choice([-3, -2, -1, 1, 2, 3]))
    return AwpaElem(ctx, t)


def _cancels(ctx, pi, b) -> bool:
    """Whether pi * b, formed term by term and merged, loses a key: some
    terms of the products pi * (x^a w) of b's terms cancel."""
    seen, merged = set(), {}
    for (a2, w2, p2), c2 in b.terms.items():
        for (g, d, tau), c in perm_times_pnf(ctx, pi, a2, w2).items():
            key = (g, d, perms.mul(tau, p2))
            seen.add(key)
            acc(merged, key, c2 * c)
    return len(merged) < len(seen)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize(
    "make",
    [trivial_algebra, clifford_algebra, dual_numbers_algebra,
     lambda: symmetric_group_algebra(3), lambda: taft_algebra(3)],
    ids=["k", "Cl", "dual", "kS3", "Taft3"],
)
def test_mul_matches_monomial_pair_reference(make, n):
    """mul, grouped by left permutation and merged before the P_n(F)
    products, equals the product formed one monomial pair at a time, term
    for term: on random multi-term elements, on left factors whose terms
    share one permutation, and on right factors pi^-1 z whose product with
    pi cancels terms (checked through the reference walk)."""
    ctx = AwpaAlgebra(make(), n)
    rng = random.Random(100 * n + ctx.F.dim)
    pis = perms.all_permutations(n)
    cancelling = 0
    for _ in range(4):
        a, b = (random_element(ctx, rng, terms=3) for _ in range(2))
        assert ctx.mul(a, b).terms == mono_pair_product(ctx, a, b)
        pi = rng.choice(pis)
        shared = _shared_perm_element(ctx, rng, pi)
        right = ctx.mul(ctx.perm_elem(perm_inverse(pi)), random_element(ctx, rng, terms=2))
        cancelling += _cancels(ctx, pi, right)
        for x, y in ((shared, b), (shared, right), (a + shared, right), (right, shared)):
            assert ctx.mul(x, y).terms == mono_pair_product(ctx, x, y)
    # at n = 1 every permutation is the identity, so nothing moves or cancels
    assert cancelling > 0 if n > 1 else cancelling == 0


def test_memo_entries_match_fresh_values(monkeypatch):
    """After a relation suite on Taft(3) and a Cl Gram matrix, every word-memo
    and Delta-memo entry equals its value recomputed on a fresh F and
    context, so no caller has changed a dict the memos share."""
    contexts = []
    init = AwpaAlgebra.__init__

    def recording_init(self, F, n):
        init(self, F, n)
        contexts.append(self)

    monkeypatch.setattr(AwpaAlgebra, "__init__", recording_init)
    _, failures = run_suite(taft_algebra(3), 3, instances=23)
    assert failures == []
    Cl = clifford_algebra()
    params = make_params(Cl, {2: [Cl.scalar(Fraction(1, 2)) * Cl.unit_elem()]})
    assert CyclotomicAlgebra(params, 2).gram_matrix()[1]
    monkeypatch.setattr(AwpaAlgebra, "__init__", init)
    fresh = {"taft_3": lambda: taft_algebra(3), "clifford": clifford_algebra}
    checked_words = checked_deltas = 0
    for F in {id(ctx.F): ctx.F for ctx in contexts}.values():
        G = fresh[F.name]()
        for (w1, w2), terms in F._word_cache.items():
            assert terms == word_mul(G, w1, w2)
            checked_words += 1
    for ctx in contexts:
        again = AwpaAlgebra(fresh[ctx.F.name](), ctx.n)
        for (i, alpha), terms in ctx._delta_cache.items():
            assert terms == again._delta_x(i, alpha)
            checked_deltas += 1
    assert checked_words > 500 and checked_deltas > 20


def test_relation_suite_leaves_the_monomial_memo_empty(monkeypatch):
    """mul keeps no monomial product: after relation suites on Taft(3) and
    Cl every context's _mono_cache is empty, while a Gram matrix, whose
    reduce keeps its substitution products there, fills it."""
    contexts = []
    init = AwpaAlgebra.__init__

    def recording_init(self, F, n):
        init(self, F, n)
        contexts.append(self)

    monkeypatch.setattr(AwpaAlgebra, "__init__", recording_init)
    for F, n in ((taft_algebra(3), 2), (clifford_algebra(), 3)):
        assert run_suite(F, n, seed=5, instances=20)[1] == []
    assert len(contexts) == 2 and all(ctx._smono_cache for ctx in contexts)
    assert [len(ctx._mono_cache) for ctx in contexts] == [0, 0]
    Cl = clifford_algebra()
    Q = CyclotomicAlgebra(make_params(Cl, {2: [Cl.zero_elem()]}), 2)
    assert Q.gram_matrix()[1] and Q.ctx._mono_cache


MEMOS = {
    "_word_cache", "_graded_piece_cache", "_t_cache", "_smono_cache", "_delta_cache",
    "_twist_cache", "_jm_cache", "_mono_cache", "_image_cache", "_chi_cache",
    "_rewrite_cache", "_basis_keys_cache", "_transition_cache",
}


def _memo_workout(contexts):
    """A Taft(3) n=2 suite, a Cl Gram with its Nakayama check, a reverse
    automorphism and an induction transition: their results as plain data,
    and every object of the run that owns memos."""
    suite = run_suite(taft_algebra(3), 2, seed=4, instances=30)
    Cl = clifford_algebra()
    params = make_params(Cl, {2: [Cl.scalar(Fraction(1, 2)) * Cl.unit_elem()]})
    Q = CyclotomicAlgebra(params, 2)
    ok, symmetric, images = nakayama_check(Q, pairs=10, seed=2)
    ctx = AwpaAlgebra(Cl, 3)
    rev = ctx.automorphism("reverse")
    rng = random.Random(8)
    ind = InductionStructure(params, 1)
    results = {
        "suite": suite,
        "gram": Q.gram_matrix(),
        "nakayama": (ok, symmetric, [(name, z.terms) for name, z in images]),
        "reverse": [rev(random_element(ctx, rng, terms=3)).terms for _ in range(6)],
        "transition": ind._transition(),
    }
    owners = [Q, rev, ind, ind.big, ind.small, *contexts, *(c.F for c in contexts)]
    return results, owners


def _memo_sizes(owners) -> dict:
    """{memo name: largest size} over the memo dicts of the owners."""
    sizes: dict = {}
    for owner in owners:
        for name, memo in vars(owner).items():
            if name.endswith("_cache"):
                sizes[name] = max(sizes.get(name, 0), len(memo))
    return sizes


def test_memo_cap_holds(monkeypatch):
    """With MEMO_CAP at 3, every memo holds at most 3 entries and every result
    equals the uncapped run's."""
    contexts = []
    init = AwpaAlgebra.__init__

    def recording_init(self, F, n):
        init(self, F, n)
        contexts.append(self)

    monkeypatch.setattr(AwpaAlgebra, "__init__", recording_init)
    expected, owners = _memo_workout(contexts)
    uncapped = _memo_sizes(owners)
    contexts.clear()
    monkeypatch.setattr(sparse, "MEMO_CAP", 3)
    results, owners = _memo_workout(contexts)
    capped = _memo_sizes(owners)
    assert set(capped) == set(uncapped) == MEMOS
    assert max(capped.values()) <= 3
    # the cap bites on the memos that fill up
    assert {name for name, size in uncapped.items() if size > 3} >= {
        "_word_cache", "_t_cache", "_smono_cache", "_delta_cache", "_twist_cache",
        "_mono_cache", "_image_cache",
    }
    assert results == expected
    assert results["suite"][1] == [] and results["gram"][1]


def test_memos_die_with_their_owner(monkeypatch):
    """With the cyclic collector off, F and every context are freed by
    reference counting once the caller drops them: no memo holds an element
    of its owner, which would refer back to it in a cycle."""
    contexts = []
    init = AwpaAlgebra.__init__

    def recording_init(self, F, n):
        init(self, F, n)
        contexts.append(weakref.ref(self))

    monkeypatch.setattr(AwpaAlgebra, "__init__", recording_init)

    def workout():
        F = taft_algebra(3)
        ctx = AwpaAlgebra(F, 2)
        F.graded_piece(0)
        ctx.jucys_murphy(2)
        ctx.evaluation_hom(random_element(ctx, random.Random(1)))
        assert run_suite(F, 2, seed=1, instances=20)[1] == []
        return weakref.ref(F)

    gc.collect()
    gc.disable()
    try:
        owners = [workout(), *contexts]
        assert len(owners) == 3  # F, ctx and run_suite's context
        assert [ref() for ref in owners] == [None] * len(owners)
    finally:
        gc.enable()
