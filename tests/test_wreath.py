"""Superpermutation action on F^(x)n, the alpha = 0, pi = 1 part of A_n(F)
(``superpermute_elem``, products by ``mul``), and the wreath product
F^(x)n x| S_n as the alpha = 0 part under graded_mul."""

import random

import pytest

from awpa import permutations as perms
from awpa.engine import AwpaAlgebra, AwpaElem
from awpa.errors import AlgebraMismatch, ParseError, SizeMismatch
from awpa.frobenius import (
    BUILTINS,
    builtin,
    clifford_algebra,
    cyclic_group_algebra,
    taft_algebra,
    trivial_algebra,
)
from awpa.verify import random_element


def tensor(ctx, word, coeff=1):
    """coeff * word as an element of F^(x)n inside A_n(F)."""
    return AwpaElem(ctx, {(ctx.zero_alpha, word, ctx.identity_perm): ctx.F.scalar(coeff)})


def test_superpermute_even_slot():
    # s_1 on 1 (x) f -> f (x) 1, no sign for even f
    ctx = AwpaAlgebra(cyclic_group_algebra(2), 2)
    moved = ctx.superpermute_elem(perms.simple(2, 1), ctx.slot_elem("g", 2))
    assert moved == ctx.slot_elem("g", 1)


def test_superpermute_odd_odd_sign():
    # s_1 on c (x) c -> -(c (x) c)
    ctx = AwpaAlgebra(clifford_algebra(), 2)
    cc = ctx.mul(ctx.slot_elem("c", 1), ctx.slot_elem("c", 2))
    assert ctx.superpermute_elem(perms.simple(2, 1), cc) == -cc


def test_superpermute_three_slots():
    # (s1 s2) . (f (x) g (x) h) = h (x) f (x) g for even slots; the action of
    # the composite agrees with composing the two simple swaps (the oracle)
    ctx = AwpaAlgebra(cyclic_group_algebra(3), 3)
    act, f = ctx.superpermute_elem, tensor(ctx, (1, 2, 0))
    pi = perms.mul(perms.simple(3, 1), perms.simple(3, 2))
    direct = act(pi, f)
    stepwise = act(perms.simple(3, 1), act(perms.simple(3, 2), f))
    assert direct == stepwise
    assert direct == tensor(ctx, (0, 1, 2))


def test_superpermute_group_action():
    F = clifford_algebra()
    rng = random.Random(1)
    for n in (2, 3):
        ctx = AwpaAlgebra(F, n)
        act = ctx.superpermute_elem
        for _ in range(15):
            p1 = rng.choice(perms.all_permutations(n))
            p2 = rng.choice(perms.all_permutations(n))
            t = tensor(ctx, tuple(rng.randrange(2) for _ in range(n)))
            assert act(p1, act(p2, t)) == act(perms.mul(p1, p2), t)


def test_superpermute_is_algebra_map():
    ctx = AwpaAlgebra(clifford_algebra(), 3)
    act = ctx.superpermute_elem
    rng = random.Random(2)
    for _ in range(15):
        pi = rng.choice(perms.all_permutations(3))
        a, b = (
            tensor(ctx, tuple(rng.randrange(2) for _ in range(3)), rng.randint(-2, 2))
            for _ in range(2)
        )
        assert act(pi, ctx.mul(a, b)) == ctx.mul(act(pi, a), act(pi, b))


def test_wreath_smash_relation():
    # (1, s1) * (f (x) 1, id) = (1 (x) f, s1) for even f, in the wreath
    # subalgebra of A_2(F): the alpha = 0 monomials under graded_mul
    F = cyclic_group_algebra(2)
    ctx = AwpaAlgebra(F, 2)
    e, g = F.basis_labels.index("e"), F.basis_labels.index("g")
    prod = ctx.graded_mul(ctx.s(1), ctx.slot_elem("g", 1))
    assert prod == ctx.monomial((0, 0), (e, g), perms.simple(2, 1))


def test_wreath_clifford_signs():
    ctx = AwpaAlgebra(clifford_algebra(), 2)
    c1, c2 = ctx.slot_elem("c", 1), ctx.slot_elem("c", 2)
    cc = ctx.monomial((0, 0), (1, 1), (1, 2))
    assert ctx.graded_mul(c1, c2) == cc
    assert ctx.graded_mul(c2, c1) == -cc


def test_wreath_associativity_and_unit():
    ctx = AwpaAlgebra(clifford_algebra(), 2)
    rng = random.Random(3)
    mul, one = ctx.graded_mul, ctx.one()
    for _ in range(20):
        a, b, c = (random_element(ctx, rng, max_exp=0) for _ in range(3))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(one, a) == a and mul(a, one) == a


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_wreath_subalgebra_is_closed_under_mul(name, n):
    """On alpha = 0 elements the normal-form product needs no Delta
    correction: it equals graded_mul and stays at alpha = 0."""
    ctx = AwpaAlgebra(builtin(name), n)
    rng = random.Random(f"{name}:{n}")
    for _ in range(15):
        a, b = (random_element(ctx, rng, terms=3, max_exp=0) for _ in range(2))
        prod = ctx.graded_mul(a, b)
        assert prod == ctx.mul(a, b)
        assert all(alpha == ctx.zero_alpha for alpha, _, _ in prod.terms)


def test_size_mismatch():
    ctx = AwpaAlgebra(trivial_algebra(), 2)
    with pytest.raises(SizeMismatch):
        ctx.superpermute_elem((1, 2, 3), ctx.one())


@pytest.mark.parametrize("i", [0, 5])
def test_slot_index_outside_one_to_n(i):
    # slot 0 used to wrap round to slot n, slot 5 to fail inside list assignment
    F = clifford_algebra()
    for f in ("c", F.from_label("c")):
        with pytest.raises(IndexError, match=f"slot {i} does not exist for n=2"):
            AwpaAlgebra(F, 2).slot_elem(f, i)


def test_slot_of_another_algebra_is_rejected():
    # the element used to be read as a word over F's basis: Taft(3)'s
    # y^2*g became the word (7, 0) over Cl's two basis elements
    F = clifford_algebra()
    ctx = AwpaAlgebra(F, 2)
    with pytest.raises(AlgebraMismatch):
        ctx.slot_elem(taft_algebra(3).from_label("y^2*g"), 1)
    # an element of F itself is still taken, and so is its label
    assert ctx.slot_elem(F.from_label("c"), 1) == ctx.slot_elem("c", 1)
    # an unknown label, read by F.from_label, used to raise a bare ValueError
    with pytest.raises(ParseError, match="unknown basis label 'zz'"):
        ctx.slot_elem("zz", 1)
