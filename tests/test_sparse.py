"""The shared sparse-combination kernel under the element classes.

Properties over AwpaElem and AlgElem, with coefficients in Q (the Clifford
algebra) and in Q(zeta_3) (Taft(3)).  The "tensor" kind is F^(x)n:
AwpaElems on alpha = 0, pi = 1 keys, multiplied by mul.  The "wreath" kind
is the wreath product F^(x)n x| S_n: AwpaElems on alpha = 0 keys,
multiplied by graded_mul.  The "polymod" kind is the module
V = P_n(F) (x) kS_n, which is A_n(F) on the same keys, multiplied by the
module action oracle_act.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awpa import permutations as perms
from awpa.cyclotomic import CycloElem
from awpa.engine import AwpaAlgebra, AwpaElem
from awpa.errors import AlgebraMismatch, SizeMismatch
from awpa.frobenius import AlgElem, clifford_algebra, taft_algebra
from awpa.scalars import CycScalar
from awpa.sparse import SparseElem, acc

N = 2
FIELDS = {"Q": clifford_algebra(), "Q(zeta3)": taft_algebra(3)}
CONTEXTS = {name: AwpaAlgebra(F, N) for name, F in FIELDS.items()}
KINDS = ["awpa", "polymod", "tensor", "wreath", "alg"]
PERMS = perms.all_permutations(N)


def scalars(F):
    """Small coefficients of F's field, zero included."""
    small = st.integers(-2, 2)
    if F.conductor == 1:
        return small.map(lambda a: CycScalar(1, (Fraction(a),)))
    return st.tuples(small, small).map(lambda ab: CycScalar(3, tuple(map(Fraction, ab))))


def keys(F, kind):
    if kind == "alg":
        return st.integers(0, F.dim - 1)
    word = st.tuples(*[st.integers(0, F.dim - 1)] * N)
    alpha = st.tuples(*[st.integers(0, 1)] * N)
    pi = st.sampled_from(PERMS)
    if kind == "tensor":
        pi = st.just(perms.identity(N))
    if kind in ("tensor", "wreath"):
        alpha = st.just((0,) * N)
    return st.tuples(alpha, word, pi)


def build(name, kind, terms):
    ctx = CONTEXTS[name]
    if kind == "alg":
        return AlgElem(ctx.F, terms)
    return AwpaElem(ctx, terms)


def elements(name, kind, max_size=3):
    F = FIELDS[name]
    terms = st.dictionaries(keys(F, kind), scalars(F), max_size=max_size)
    return terms.map(lambda t: build(name, kind, t))


def product(kind, a, b):
    if kind == "polymod":
        # the module action of the algebra element b on the module element a
        return a.ctx.oracle_act(b, a)
    if kind == "wreath":
        return a.ctx.graded_mul(a, b)
    return a * b


def zero_free(x) -> bool:
    return all(c for c in x.terms.values())


CASES = [(name, kind) for name in FIELDS for kind in KINDS]
case_ids = [f"{kind}-{name}" for name, kind in CASES]
common = settings(max_examples=25, deadline=None)


@pytest.mark.parametrize("name,kind", CASES, ids=case_ids)
@common
@given(data=st.data())
def test_additive_inverse_is_empty(name, kind, data):
    a = data.draw(elements(name, kind))
    z = a + (-a)
    assert z.is_zero() and z.terms == {}
    assert (a - a).terms == {}


@pytest.mark.parametrize("name,kind", CASES, ids=case_ids)
@common
@given(data=st.data())
def test_add_then_sub_round_trips(name, kind, data):
    a = data.draw(elements(name, kind))
    b = data.draw(elements(name, kind))
    assert (a + b) - b == a
    assert a + b == b + a


@pytest.mark.parametrize("name,kind", CASES, ids=case_ids)
@common
@given(data=st.data())
def test_scalar_zero_gives_zero(name, kind, data):
    a = data.draw(elements(name, kind))
    zero = CycScalar.zero(FIELDS[name].conductor)
    for z in (zero * a, a * zero, 0 * a, a * 0):
        assert z.is_zero() and z.terms == {}
        assert type(z) is type(a)


@pytest.mark.parametrize("name,kind", CASES, ids=case_ids)
@common
@given(data=st.data())
def test_no_stored_zero(name, kind, data):
    a = data.draw(elements(name, kind))
    b = data.draw(elements(name, kind))
    s = data.draw(scalars(FIELDS[name]))
    assert zero_free(a) and zero_free(b)  # the constructors filter zeros
    for result in (a + b, a - b, -a, s * a, a * s, product(kind, a, b)):
        assert zero_free(result)
        assert type(result) is type(a)


@pytest.mark.parametrize("kind", KINDS)
def test_mismatch_errors(kind):
    F, G = FIELDS["Q"], FIELDS["Q(zeta3)"]
    if kind == "alg":  # an algebra has no size; elements compare unequal
        a, other_algebra = F.unit_elem(), G.unit_elem()
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            with pytest.raises(AlgebraMismatch):
                op(a, other_algebra)
        assert (a == other_algebra) is False and a != other_algebra
        return
    key = ((0, 0), (0, 0), (1, 2))
    one = CycScalar.one()
    a = AwpaElem(AwpaAlgebra(F, 2), {key: one})
    other_algebra = AwpaElem(AwpaAlgebra(G, 2), {key: one})
    other_size = AwpaElem(AwpaAlgebra(F, 3), {((0,) * 3, (0,) * 3, (1, 2, 3)): one})
    ops = [
        lambda x, y: x + y,
        lambda x, y: x - y,
        lambda x, y: product(kind, x, y),
        lambda x, y: x == y,
    ]
    for op in ops:
        with pytest.raises(AlgebraMismatch):
            op(a, other_algebra)
        with pytest.raises(SizeMismatch):
            op(a, other_size)


def test_polymod_equality_across_contexts():
    """Module elements are AwpaElems, so two contexts over the same F and n
    compare them by their terms, as they do algebra elements."""
    F = FIELDS["Q"]
    ctx1, ctx2 = AwpaAlgebra(F, 2), AwpaAlgebra(F, 2)
    v1, v2 = ctx1.element_to_module(ctx1.x(1)), ctx2.element_to_module(ctx2.x(1))
    assert v1 == v2 and v1 != ctx2.element_to_module(ctx2.x(2))


def test_acc_drops_cancelled_keys():
    d = {}
    one = CycScalar.one()
    acc(d, "k", CycScalar.zero())
    assert d == {}
    acc(d, "k", one)
    acc(d, "k", -one)
    assert d == {}
    acc(d, "k", one)
    acc(d, "k", one)
    assert d == {"k": CycScalar.from_rational(2)}


def test_element_classes_share_the_kernel():
    for cls in (AwpaElem, CycloElem, AlgElem):
        assert issubclass(cls, SparseElem)
        for op in ("__add__", "__sub__", "__neg__", "__rmul__", "is_zero"):
            assert getattr(cls, op) is getattr(SparseElem, op)
    assert AwpaElem.__eq__ is SparseElem.__eq__
