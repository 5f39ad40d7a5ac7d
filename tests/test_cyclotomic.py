"""Cyclotomic quotients: parameters, reduction, trace, Frobenius structure,
and the induction/restriction bookkeeping."""

import json
import random
from fractions import Fraction

import pytest

from awpa import linalg
from awpa import permutations as perms
from awpa.cli import main
from awpa.cyclotomic import (
    CycloElem,
    CycloParams,
    CyclotomicAlgebra,
    InductionStructure,
    gram_entry_bound,
    make_params,
    nakayama_check,
)
from awpa.engine import AwpaAlgebra, AwpaElem
from awpa.errors import (
    AlgebraMismatch,
    BadParams,
    InternalInconsistency,
    LevelZero,
    NotPsiFixed,
    OddParity,
    ParamsMismatch,
    ParseError,
    SizeMismatch,
    TooLarge,
    WrongDegree,
)
from awpa.frobenius import (
    clifford_algebra,
    cyclic_group_algebra,
    dual_numbers_algebra,
    taft_algebra,
    trivial_algebra,
)
from awpa.verify import random_element
from awpa.wreath import word_parity

from oracles import coords, level_one_matches_wreath, product_right_module_basis, split_algebra


def level_one(F):
    return make_params(F, {1: [F.zero_elem()]})


def random_quotient_elem(Q, rng, terms=2):
    keys = Q.basis_keys()
    t = {}
    for _ in range(terms):
        t[rng.choice(keys)] = Q.F.scalar(rng.randint(-3, 3))
    return CycloElem(Q, AwpaElem(Q.ctx, t))


def random_homogeneous_parity_elem(Q, rng, terms=2):
    keys = Q.basis_keys()
    par = rng.randrange(2)
    cand = [k for k in keys if word_parity(Q.F, k[1]) == par]
    if not cand:
        cand = keys
    t = {}
    for _ in range(terms):
        t[rng.choice(cand)] = Q.F.scalar(rng.randint(-3, 3))
    return CycloElem(Q, AwpaElem(Q.ctx, t))


# -- parameter validation --------------------------------------------------------


def test_make_params_level_one_trivial():
    F = trivial_algebra()
    p = level_one(F)
    assert p.level == 1


def test_make_params_clifford_scalar():
    Cl = clifford_algebra()
    p = make_params(Cl, {2: [Cl.scalar(Fraction(3, 2)) * Cl.unit_elem()]})
    assert p.level == 2


def test_make_params_wrong_degree():
    T = taft_algebra(2)
    y = T.from_label("y")
    # y has degree 2 = delta, but k = 2 requires degree 2*delta = 4
    with pytest.raises(WrongDegree):
        make_params(T, {2: [y]})


def test_make_params_not_psi_fixed():
    Cl = clifford_algebra()
    # c is odd so OddParity fires first; test an even non-psi-fixed case in taft
    with pytest.raises(OddParity):
        make_params(Cl, {1: [Cl.from_label("c")]})
    T = taft_algebra(2)  # delta = 2, theta = 2; g has degree 0, y degree 2
    # y*g is even of degree 2 = 1*delta but not in F_psi^(1)
    with pytest.raises(NotPsiFixed):
        make_params(T, {1: [T.from_label("y*g")]})


def test_make_params_level_zero():
    F = trivial_algebra()
    with pytest.raises(LevelZero):
        make_params(F, {})


def test_cyclo_params_constructor_validates():
    """The public constructor runs the F_1^(k) checks itself; make_params is
    the same class under its earlier name."""
    assert make_params is CycloParams
    Cl = clifford_algebra()
    with pytest.raises(OddParity, match="must be even"):
        CycloParams(Cl, {1: [Cl.from_label("c")]})
    with pytest.raises(WrongDegree, match="outside 1..theta"):
        CycloParams(Cl, {Cl.theta + 1: [Cl.zero_elem()]})
    with pytest.raises(WrongDegree, match="outside 1..theta"):
        CycloParams(Cl, {0: [Cl.zero_elem()]})
    # dense coordinates become elements, and empty lists drop out
    p = CycloParams(Cl, {1: [], 2: [[2, 0]]})
    assert p.entries == {2: [Cl.scalar(2) * Cl.unit_elem()]} and p.level == 2


def test_cyclo_params_take_labels():
    """A string parameter is a basis label, as in slot_elem; a value that is
    neither an element, a label nor coordinates is refused naming k."""
    Cl = clifford_algebra()
    assert CycloParams(Cl, {2: ["1"]}).entries == CycloParams(Cl, {2: [Cl.unit_elem()]}).entries
    with pytest.raises(OddParity, match="k=2"):
        CycloParams(Cl, {2: ["c"]})
    with pytest.raises(ParseError, match="unknown basis label 'zz'"):
        CycloParams(Cl, {2: ["zz"]})
    with pytest.raises(BadParams, match="k=2"):
        CycloParams(Cl, {2: [None]})


def test_taft_level_one_with_y():
    # y in F_psi^(1)? condition: g y = y psi(g) i.e. omega^{-1} y g ... holds
    # exactly when k = 1 satisfies omega^k = omega^{-1+...}; check via solver
    T = taft_algebra(2)
    y = T.from_label("y")
    piece = T.graded_piece(1)
    vecs = [coords(b) for b in piece]
    assert linalg.in_span(vecs, coords(y))
    p = make_params(T, {1: [y]})
    assert p.level == 1


# -- chi and reduction ---------------------------------------------------------------


def test_chi_level_one_conjugate():
    # F = k, chi = x1: chi_2 = s1 x1 s1 = x2 - s1
    F = trivial_algebra()
    Q = CyclotomicAlgebra(level_one(F), 2)
    chi2 = Q.chi(2)
    ctx = Q.ctx
    assert chi2 == ctx.x(2) - ctx.s(1)


@pytest.mark.parametrize(
    "make,entries_of",
    [
        (trivial_algebra, lambda F: {1: [F.zero_elem()]}),
        (clifford_algebra, lambda F: {2: [F.scalar(2) * F.unit_elem()]}),
        (dual_numbers_algebra, lambda F: {1: [F.from_label("z")]}),
    ],
)
def test_chi_leading_term(make, entries_of):
    F = make()
    params = make_params(F, entries_of(F))
    for n in (1, 2, 3):
        Q = CyclotomicAlgebra(params, n)
        for i in range(1, n + 1):
            chi = Q.chi(i)
            lt = Q.ctx.leading_term(chi)
            assert lt == Q.ctx.x(i, Q.d), (F.name, n, i)


def test_chi_factor_order_independence():
    # two factors at k = 1: (x1 - z)(x1 - 0) vs reverse order
    F = dual_numbers_algebra()
    params = make_params(F, {1: [F.from_label("z"), F.zero_elem()]})
    Q = CyclotomicAlgebra(params, 2)
    ctx, factors = Q.ctx, Q._factors
    assert len(factors) == 2
    rng = random.Random(0)
    for _ in range(3):
        order = list(range(len(factors)))
        rng.shuffle(order)
        prod = ctx.one()
        for idx in order:
            prod = ctx.mul(prod, factors[idx])
        assert prod == Q.chi(1)


def test_reduce_chi_is_zero():
    Cl = clifford_algebra()
    params = make_params(Cl, {2: [Cl.scalar(2) * Cl.unit_elem()]})
    Q = CyclotomicAlgebra(params, 2)
    for i in (1, 2):
        assert Q.reduce(Q.chi(i)).is_zero()
    rng = random.Random(1)
    for _ in range(5):
        u = random_element(Q.ctx, rng, terms=1)
        v = random_element(Q.ctx, rng, terms=1)
        assert Q.reduce(Q.ctx.mul(Q.ctx.mul(u, Q.chi(1)), v)).is_zero()


def x1_pow_d_expansion(Q):
    """x_1^d = sum_i f_(i) x_1^i modulo the ideal: the list f_(0..d-1) as
    {word: scalar} dicts, read off R_1 = x_1^d - chi_1 (only for slot-1
    parameters)."""
    out = [{} for _ in range(Q.d)]
    for (alpha, word, pi), c in Q._rewrite_elem(1).terms.items():
        if pi != Q.ctx.identity_perm or any(alpha[1:]):
            raise InternalInconsistency("x_1^d - chi has a term outside F^(x)n[x_1]")
        out[alpha[0]][word] = c
    return out


def test_x1_pow_d_expansion_shape():
    F = dual_numbers_algebra()
    Q = CyclotomicAlgebra(make_params(F, {1: [F.from_label("z")]}), 2)
    Q._rewrite_cache[(1,)] = Q.ctx.s(1)
    with pytest.raises(InternalInconsistency):
        x1_pow_d_expansion(Q)


def test_reduce_x1_pow_d():
    Cl = clifford_algebra()
    lam = Cl.scalar(Fraction(5, 3)) * Cl.unit_elem()
    params = make_params(Cl, {2: [lam]})
    Q = CyclotomicAlgebra(params, 1)
    red = Q.reduce(Q.ctx.x(1, 2))
    assert red == CycloElem(Q, Q.ctx.scalar_elem(Fraction(5, 3)))
    # x1^d expansion: f_(0) = 5/3, f_(1) = 0
    exp = x1_pow_d_expansion(Q)
    assert exp == [{(0,): Q.F.scalar(Fraction(5, 3))}, {}]


def test_reduce_level_one_is_evaluation():
    # level 1, chi = x1: reduce(x_k) = image of J_k; reduce = evaluation_hom
    F = trivial_algebra()
    Q = CyclotomicAlgebra(level_one(F), 3)
    rng = random.Random(2)
    for k in (1, 2, 3):
        assert Q.reduce(Q.ctx.x(k)).elem == Q.ctx.jucys_murphy(k)
    for _ in range(10):
        a = random_element(Q.ctx, rng)
        assert Q.reduce(a).elem == Q.ctx.evaluation_hom(a)


def test_reduce_is_algebra_map():
    Cl = clifford_algebra()
    params = make_params(Cl, {2: [Cl.scalar(2) * Cl.unit_elem()]})
    Q = CyclotomicAlgebra(params, 2)
    rng = random.Random(3)
    for _ in range(10):
        a = random_element(Q.ctx, rng, terms=2, max_exp=3)
        b = random_element(Q.ctx, rng, terms=2, max_exp=3)
        assert Q.reduce(Q.ctx.mul(a, b)) == Q.mul(Q.reduce(a), Q.reduce(b))


def test_cyclo_mul_unit_and_dim():
    Cl = clifford_algebra()
    params = make_params(Cl, {2: [Cl.scalar(2) * Cl.unit_elem()]})
    Q = CyclotomicAlgebra(params, 2)
    assert Q.dim() == 32
    assert len(Q.basis_keys()) == 32
    rng = random.Random(4)
    for _ in range(5):
        a = random_quotient_elem(Q, rng)
        assert Q.mul(Q.one(), a) == a


def test_trace_examples():
    Cl = clifford_algebra()
    params = make_params(Cl, {2: [Cl.scalar(2) * Cl.unit_elem()]})
    Q = CyclotomicAlgebra(params, 2)
    # top monomial with b^vee b word: tr_C(x1^{d-1} x2^{d-1} c c) -> tr(c)tr(c) = 0
    z = CycloElem(Q, Q.ctx.monomial((1, 1), (1, 1), (1, 2)))
    assert Q.trace(z).is_zero()
    z2 = CycloElem(Q, Q.ctx.monomial((1, 1), (0, 0), (1, 2)))
    assert Q.trace(z2) == 1
    # pi != 1 or alpha_i < d-1 kill the trace
    assert Q.trace(CycloElem(Q, Q.ctx.monomial((1, 1), (0, 0), (2, 1)))).is_zero()
    assert Q.trace(CycloElem(Q, Q.ctx.monomial((0, 1), (0, 0), (1, 2)))).is_zero()


def test_gram_examples():
    F = trivial_algebra()
    Q1 = CyclotomicAlgebra(level_one(F), 1)
    gram, inv = Q1.gram_matrix()
    assert inv and len(gram) == 1 and gram[0][0] == 1
    # kS2: Gram of {1, s1} under tr_C
    Q2 = CyclotomicAlgebra(level_one(F), 2)
    gram2, inv2 = Q2.gram_matrix()
    assert inv2 and len(gram2) == 2
    Cl = clifford_algebra()
    Q3 = CyclotomicAlgebra(make_params(Cl, {2: [Cl.zero_elem()]}), 1)
    gram3, inv3 = Q3.gram_matrix()
    assert inv3 and len(gram3) == 4


def test_gram_keeps_no_one_shot_products():
    # k, d = 2, n = 2: each Gram entry multiplies two basis monomials, a
    # product asked for once; only reduce's substitution products are kept
    F = trivial_algebra()
    params = make_params(F, {1: [F.zero_elem(), F.scalar(Fraction(1, 2)) * F.unit_elem()]})
    Q = CyclotomicAlgebra(params, 2)
    gram, inv = Q.gram_matrix()
    assert inv and len(gram) == Q.dim() == 8
    assert len(Q.ctx._mono_cache) < Q.dim() ** 2
    assert CyclotomicAlgebra(params, 2).gram_matrix() == (gram, inv)


def test_gram_too_large(monkeypatch):
    monkeypatch.setenv("AWPA_MAX_DIM", "10")
    Cl = clifford_algebra()
    Q = CyclotomicAlgebra(make_params(Cl, {2: [Cl.zero_elem()]}), 1)
    with pytest.raises(TooLarge):
        Q.gram_matrix()


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
def test_gram_bound_rejects_malformed_env(monkeypatch, value):
    monkeypatch.setenv("AWPA_MAX_DIM", value)
    with pytest.raises(ParseError):
        gram_entry_bound()


def test_gram_bound_default(monkeypatch):
    monkeypatch.delenv("AWPA_MAX_DIM", raising=False)
    assert gram_entry_bound() == 20_000
    monkeypatch.setenv("AWPA_MAX_DIM", "")
    assert gram_entry_bound() == 20_000


def test_nakayama_symmetric_cases():
    # F = k: always symmetric
    F = trivial_algebra()
    Q = CyclotomicAlgebra(level_one(F), 2)
    assert Q.is_symmetric()
    # F = Cl: symmetric iff d even
    Cl = clifford_algebra()
    Qe = CyclotomicAlgebra(make_params(Cl, {2: [Cl.zero_elem()]}), 1)
    assert Qe.is_symmetric()
    Qo = CyclotomicAlgebra(make_params(Cl, {1: [Cl.zero_elem()]}), 1)
    assert not Qo.is_symmetric()
    c1 = CycloElem(Qo, Qo.ctx.slot_elem(Cl.from_label("c"), 1))
    assert Qo.nakayama(c1) == -c1


def test_nakayama_identity_random():
    Cl = clifford_algebra()
    Q = CyclotomicAlgebra(make_params(Cl, {2: [Cl.scalar(1) * Cl.unit_elem()]}), 2)
    rng = random.Random(5)
    for _ in range(40):
        a = random_homogeneous_parity_elem(Q, rng)
        b = random_homogeneous_parity_elem(Q, rng)
        assert Q.nakayama_identity_holds(a, b)


def test_level_one_matches_wreath():
    for make in (trivial_algebra, clifford_algebra, lambda: cyclic_group_algebra(2)):
        F = make()
        Q = CyclotomicAlgebra(level_one(F), 2)
        assert level_one_matches_wreath(Q)


def test_induction_basis_counts():
    # n = 0, level 1, F = k: basis {1} of A_1^C = k
    F = trivial_algebra()
    ind0 = InductionStructure(level_one(F), 0)
    basis0 = ind0.right_module_basis()
    assert len(basis0) == 1
    assert ind0.verify_free_basis()
    assert ind0.mackey_dimensions() == (1, 1)  # no s_0: A_1^C is the j = 1 part

    # n = 1, F = k, d = 2: 4 elements over the 2-dim A_1^C; dim A_2^C = 8
    params2 = make_params(F, {1: [F.zero_elem(), F.unit_elem()]})
    assert params2.level == 2
    ind1 = InductionStructure(params2, 1)
    assert len(ind1.right_module_basis()) == 4
    assert ind1.big.dim() == 8
    assert ind1.verify_free_basis()
    lhs, rhs = ind1.mackey_dimensions()
    assert lhs == rhs == 8

    # F = Cl, n = 1, d = 2: 8 right-basis elements over dim-4 A_1^C -> 32
    Cl = clifford_algebra()
    indc = InductionStructure(make_params(Cl, {2: [Cl.zero_elem()]}), 1)
    assert len(indc.right_module_basis()) == 8
    assert indc.big.dim() == 32
    assert indc.verify_free_basis()


INDUCTION_PARAMS = {
    "split": (split_algebra, lambda F: {1: [F.zero_elem(), F.unit_elem()]}),
    "clifford": (clifford_algebra, lambda F: {2: [F.zero_elem()]}),
    "taft2": (lambda: taft_algebra(2), lambda F: {2: [F.zero_elem()]}),
    "dual": (dual_numbers_algebra, lambda F: {1: [F.from_label("z"), F.zero_elem()]}),
}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", sorted(INDUCTION_PARAMS))
def test_right_module_basis_matches_products(name, n, monkeypatch):
    """The basis built from its keys equals the one multiplied out and
    reduced, and building it makes no engine product."""
    make, entries_of = INDUCTION_PARAMS[name]
    F = make()
    ind = InductionStructure(make_params(F, entries_of(F)), n)
    assert ind.big.d == 2
    expected = product_right_module_basis(ind)
    products = []
    real_mul = AwpaAlgebra.mul

    def counted_mul(ctx, a, b):
        products.append((a, b))
        return real_mul(ctx, a, b)

    monkeypatch.setattr(AwpaAlgebra, "mul", counted_mul)
    basis = ind.right_module_basis()
    assert products == []
    assert [key for key, _ in basis] == [key for key, _ in expected]
    assert all(u == v for (_, u), (_, v) in zip(basis, expected))


def test_cyclo_elem_product_is_the_quotient_product():
    Cl = clifford_algebra()
    Q = CyclotomicAlgebra(make_params(Cl, {2: [Cl.scalar(3) * Cl.unit_elem()]}), 2)
    rng = random.Random(4)
    for _ in range(5):
        a, b = random_quotient_elem(Q, rng), random_quotient_elem(Q, rng)
        assert a * b == Q.mul(a, b)
    a = random_quotient_elem(Q, rng)
    assert a * Cl.scalar(2) == a + a


def test_cyclo_elem_checks_the_context():
    # an element of A_3(Cl) used to be wrapped for a two-slot quotient,
    # printing x1*b(1,1,1)*s[1,2,3]; its product raised a bare IndexError
    Cl = clifford_algebra()
    Q = CyclotomicAlgebra(make_params(Cl, {2: [Cl.scalar(3) * Cl.unit_elem()]}), 2)
    for wrap in (lambda a: CycloElem(Q, a), Q.reduce):
        with pytest.raises(SizeMismatch):
            wrap(AwpaAlgebra(Cl, 3).x(1))
        with pytest.raises(AlgebraMismatch):
            wrap(AwpaAlgebra(trivial_algebra(), 2).x(1))
    # another context over the same F and n is taken, unreduced input as is
    assert CycloElem(Q, AwpaAlgebra(Cl, 2).x(1, 3)).terms == Q.ctx.x(1, 3).terms
    assert Q.reduce(AwpaAlgebra(Cl, 2).x(1, 3)) == Q.reduce(Q.ctx.x(1, 3))


def test_partial_trace_examples():
    Cl = clifford_algebra()
    ind = InductionStructure(make_params(Cl, {2: [Cl.zero_elem()]}), 1)
    big = ind.big
    # z = x_{n+1}^{d-1} f_{n+1} -> tr(f) 1
    z = CycloElem(
        big, big.ctx.mul(big.ctx.x(2, 1), big.ctx.slot_elem(Cl.unit_elem(), 2))
    )
    assert ind.partial_trace(z) == ind.small.one()
    zc = CycloElem(
        big, big.ctx.mul(big.ctx.x(2, 1), big.ctx.slot_elem(Cl.from_label("c"), 2))
    )
    assert ind.partial_trace(zc).is_zero()
    # complement summands die
    assert ind.partial_trace(big.one()).is_zero()
    assert ind.partial_trace(CycloElem(big, big.ctx.s(1))).is_zero()


def test_partial_trace_bimodule_and_composition():
    Cl = clifford_algebra()
    ind = InductionStructure(make_params(Cl, {2: [Cl.zero_elem()]}), 1)
    rng = random.Random(6)
    for _ in range(15):
        a = random_quotient_elem(ind.small, rng)
        b = random_quotient_elem(ind.small, rng)
        z = random_quotient_elem(ind.big, rng)
        lhs = ind.partial_trace(ind.big.mul(ind.big.mul(ind.embed(a), z), ind.embed(b)))
        rhs = ind.small.mul(ind.small.mul(a, ind.partial_trace(z)), b)
        assert lhs == rhs
        # tr_C^{n+1} = tr_C^n o tr^C_{n+1}
        assert ind.big.trace(z) == ind.small.trace(ind.partial_trace(z))


def test_shift_compatibility_level_one():
    """The shifting automorphism maps the ideal for chi = x1 - c to the one
    for the shifted parameter: reduce_{C'}(shift(a)) factors through
    reduce_C, tested at level one."""
    F = trivial_algebra()
    lam = F.scalar(4) * F.unit_elem()
    params = make_params(F, {1: [F.zero_elem()]})  # chi = x1
    shifted = make_params(F, {1: [-lam]})  # chi' = x1 + 4
    n = 2
    Q = CyclotomicAlgebra(params, n)
    Qs = CyclotomicAlgebra(shifted, n)
    ctx = Q.ctx
    sh = ctx.automorphism("shift", c=lam)
    rng = random.Random(7)
    # shift maps J_C into J_{C'}
    for _ in range(6):
        u = random_element(ctx, rng, terms=1)
        v = random_element(ctx, rng, terms=1)
        elem = ctx.mul(ctx.mul(u, Q.chi(1)), v)
        assert Qs.reduce(_transport(sh(elem), Qs.ctx)).is_zero()
    # and the induced map on quotients respects reduction
    for _ in range(6):
        a = random_element(ctx, rng)
        direct = Qs.reduce(_transport(sh(a), Qs.ctx))
        via = Qs.reduce(_transport(sh(Q.reduce(a).elem), Qs.ctx))
        assert direct == via


def _transport(elem, target_ctx):
    """Move an element between contexts with equal (F, n)."""
    return AwpaElem(target_ctx, dict(elem.terms))


def test_params_json_roundtrip():
    Cl = clifford_algebra()
    params = make_params(Cl, {2: [Cl.scalar(2) * Cl.unit_elem()]})
    data = params.to_json_dict()
    assert data["e"] == [0, 1]
    back = CycloParams.from_json_dict(Cl, data)
    assert back.level == 2
    assert back.entries[2][0] == params.entries[2][0]


@pytest.mark.parametrize(
    "e,c",
    [([1], [["0"], ["0"]]), ([], [["0"]]), ([1, 1], [["0"]])],
    ids=["c-past-e", "e-empty", "e-past-c"],
)
def test_params_json_compares_e_and_c_over_both_lengths(e, c):
    """A parameter list with no count in e (a level-3 list behind e = [1], a
    level-1 list behind e = []) is refused, as a count with no list is."""
    with pytest.raises(ParamsMismatch, match="e vector does not match"):
        CycloParams.from_json_dict(clifford_algebra(), {"e": e, "c": c})


def test_params_json_reads_missing_entries_as_empty():
    Cl = clifford_algebra()
    for e, c in (([1, 0], [["0"]]), ([1], [["0"], []])):
        assert CycloParams.from_json_dict(Cl, {"e": e, "c": c}).level == 1


def test_nakayama_check_and_induction_basis_surface():
    Cl = clifford_algebra()
    params = make_params(Cl, {2: [Cl.zero_elem()]})
    Q = CyclotomicAlgebra(params, 1)
    ok, symmetric, images = nakayama_check(Q, pairs=20, seed=1)
    assert ok and symmetric
    names = [n for n, _ in images]
    assert "x1" in names and "c_1" in names
    ind = InductionStructure(params, 1)
    assert len(ind.right_module_basis()) == 8
    assert ind.verify_free_basis()
    lhs, rhs = ind.mackey_dimensions()
    assert lhs == rhs


def test_mackey_dimensions_catch_a_wrong_middle_family(monkeypatch, capsys, tmp_path):
    """The right side of the Mackey identity adds dim A_n^C s_n A_n^C, found
    apart from the transition.  With s_n replaced by 1 the products span
    only A_n^C, so the two numbers differ and ``cyclotomic basis`` exits 1.
    The left side is the transition's rank: a column fewer breaks it too."""
    k = trivial_algebra()
    ind = InductionStructure(make_params(k, {1: [k.zero_elem(), k.unit_elem()]}), 1)
    assert ind.mackey_dimensions() == (8, 8)
    assert ind._bimodule_rank(ind.big.ctx.s(1)) == 4  # n d dim F dim A_1^C
    inv, slots = ind._transition()
    with monkeypatch.context() as patch:
        patch.setattr(ind, "_transition", lambda: (dict(list(inv.items())[1:]), slots))
        assert ind.mackey_dimensions() == (7, 8)
    real = InductionStructure._bimodule_rank
    monkeypatch.setattr(
        InductionStructure, "_bimodule_rank", lambda self, _: real(self, self.big.ctx.one())
    )
    assert ind.mackey_dimensions() == (8, 6)
    data = dual_numbers_algebra().to_json_dict()
    data["cyclotomic"] = {"e": [1], "c": [["z"]]}
    path = tmp_path / "dual_cyclo.json"
    path.write_text(json.dumps(data))
    assert main(["cyclotomic", "basis", "--params", str(path), "--n", "2"]) == 1
    out = capsys.readouterr().out
    assert "cyclotomic Mackey dimensions: 8 = 6\nFAIL\n" in out


def test_nakayama_check_names_every_generator():
    """nu fixes the x_i and the s_j and twists each basis slot by psi^d."""
    Cl = clifford_algebra()
    Q = CyclotomicAlgebra(make_params(Cl, {1: [Cl.zero_elem()]}), 2)
    ok, symmetric, images = nakayama_check(Q, pairs=5, seed=1)
    assert ok and not symmetric
    assert [name for name, _ in images] == [name for name, _ in Q.ctx.named_generators()]
    psi_slots = [
        Q.ctx.slot_elem(Cl.psi(Cl.basis_elem(b)), i) for b in range(Cl.dim) for i in (1, 2)
    ]
    expected = [Q.ctx.x(1), Q.ctx.x(2), *psi_slots, Q.ctx.s(1)]
    assert [z.elem for _, z in images] == expected


def test_general_tensor_params():
    """A tensor parameter goes through the same entries dict; this one is the
    slot-1 parameter 3 in disguise, 3 (1 (x) 1) in F_1^(2) at n = 2."""
    Cl = clifford_algebra()
    n = 2
    t = AwpaAlgebra(Cl, n).scalar_elem(3)
    params = make_params(Cl, {2: [t]})
    assert params.general and params.n_fixed == n and params.level == 2
    Q = CyclotomicAlgebra(params, n)
    assert Q.reduce(Q.chi(1)).is_zero()
    with pytest.raises(ParamsMismatch):
        InductionStructure(params, n - 1)
    with pytest.raises(ParamsMismatch):
        params.to_json_dict()


def _pure_tensor(F, labels):
    """The pure tensor of the named basis elements of F, in A_n(F)."""
    word = tuple(F.basis_labels.index(label) for label in labels)
    ctx = AwpaAlgebra(F, len(word))
    return ctx.monomial(ctx.zero_alpha, word, ctx.identity_perm)


def test_general_tensor_param_not_slot_one():
    """g (x) g^2 lies in F_1^(1) of kZ3 at n = 2 but is no slot-1 parameter;
    its quotient has the full dimension n! (d dim F)^n = 18, an invertible
    Gram matrix, and every chi_i in the ideal."""
    F = cyclic_group_algebra(3)
    params = make_params(F, {1: [_pure_tensor(F, ["g", "g^2"])]})
    assert params.n_fixed == 2 and params.level == 1
    Q = CyclotomicAlgebra(params, 2)
    rows, invertible = Q.gram_matrix()
    assert len(rows) == Q.dim() == 18 and invertible
    assert all(Q.reduce(Q.chi(i)).is_zero() for i in (1, 2))
    with pytest.raises(ParamsMismatch):
        CyclotomicAlgebra(params, 3)


def test_general_tensor_param_rejections():
    F = cyclic_group_algebra(3)
    # slots 2 and 3 differ, so swapping them moves the tensor
    with pytest.raises(NotPsiFixed, match="slots 2..n"):
        make_params(F, {1: [_pure_tensor(F, ["e", "g", "g^2"])]})
    two, three = _pure_tensor(F, ["g", "g^2"]), AwpaAlgebra(F, 3).one()
    with pytest.raises(ParamsMismatch):
        make_params(F, {1: [two, three]})
    # a slot-1 parameter and a tensor mix; the tensor fixes n
    params = make_params(F, {1: [F.from_label("g"), two]})
    assert params.n_fixed == 2 and params.level == 2
    with pytest.raises(ParamsMismatch):
        InductionStructure(params, 1)
    Cl = clifford_algebra()
    cl2 = AwpaAlgebra(Cl, 2)
    with pytest.raises(BadParams, match=r"not in cyclic_group_3\^\(x\)2$"):
        make_params(F, {1: [cl2.one()]})
    with pytest.raises(OddParity):
        make_params(Cl, {2: [cl2.slot_elem("c", 2)]})
    with pytest.raises(NotPsiFixed, match=r"F_psi\^\(1\) \(x\) F_psi\^\(0\)$"):
        make_params(Cl, {1: [cl2.slot_elem(Cl.unit_elem(), 2)]})
    # an element of A_2(Cl) outside F^(x)2, the alpha = 0, pi = 1 part
    for c in (cl2.x(1), cl2.s(1)):
        with pytest.raises(BadParams, match=r"not in clifford\^\(x\)2$"):
            make_params(Cl, {1: [c]})
