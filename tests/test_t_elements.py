"""t-elements against the product oracle, and algebras whose unit is not a
basis element.

``t_pd`` computes t^(k)_{i,j} from its closed form; the oracle multiplies
out sum_b sum_{l<k} b_i x_i^(k-1-l) x_j^l (b^vee)_j with the normal-form
product.  k x k (orthogonal idempotents e1, e2, unit e1 + e2) checks the
slot elements directly: there a slot element that scales by the sum of the
unit's coordinates still agrees with the oracle, which uses it too.
"""

import itertools

import pytest

from awpa.cli import main
from awpa.engine import AwpaAlgebra, AwpaElem
from awpa.frobenius import clifford_algebra, symmetric_group_algebra, taft_algebra
from awpa.verify import run_suite

from oracles import split_algebra


ALGEBRAS = {
    "clifford": clifford_algebra,
    "taft3": lambda: taft_algebra(3),
    "s3": lambda: symmetric_group_algebra(3),
    "split": split_algebra,
}
N = 3
CONTEXTS = {}


def context(name) -> AwpaAlgebra:
    if name not in CONTEXTS:
        CONTEXTS[name] = AwpaAlgebra(ALGEBRAS[name](), N)
    return CONTEXTS[name]


def t_oracle(ctx: AwpaAlgebra, i: int, j: int, k: int) -> AwpaElem:
    F = ctx.F
    out = ctx.zero()
    for b, dual in enumerate(F.dual_basis()):
        left = ctx.slot_elem(F.basis_elem(b), i)
        right = ctx.slot_elem(dual, j)
        for l in range(k):
            alpha = [0] * ctx.n
            alpha[i - 1], alpha[j - 1] = k - 1 - l, l
            out = out + ctx.mul(ctx.mul(left, ctx.x_monomial(alpha)), right)
    return out


PAIRS = list(itertools.permutations(range(1, N + 1), 2))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("i,j", PAIRS, ids=[f"t{i}{j}" for i, j in PAIRS])
@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_t_element_matches_product_oracle(name, i, j, k):
    ctx = context(name)
    assert ctx.t_element(i, j, k) == t_oracle(ctx, i, j, k)


def test_split_algebra_slot_elements():
    F = split_algebra()
    e1 = F.from_label("e1")
    one = F.scalar(1)
    ctx = AwpaAlgebra(F, 2)
    ident = ctx.identity_perm
    f = ctx.slot_elem(e1, 1)
    assert f == AwpaElem(ctx, {((0, 0), (0, 0), ident): one, ((0, 0), (0, 1), ident): one})
    assert ctx.mul(f, f) == f
    expected = AwpaElem(ctx, {((0, 0), (0, 0), ident): one, ((0, 0), (1, 1), ident): one})
    assert ctx.t_element(1, 2) == expected


@pytest.mark.parametrize("n", [2, 3])
def test_split_algebra_suite_passes(n):
    _, failures = run_suite(split_algebra(), n)
    assert failures == []


def test_split_algebra_suite_from_file(tmp_path, capsys):
    path = tmp_path / "split.json"
    split_algebra().dump(path)
    code = main(["suite", "--algebra", str(path), "--n", "2", "--seed", "1"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS (200 instances)"
