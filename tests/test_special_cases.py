"""The special cases of A_n(F) against their own presentations and centres.

A_n(F) specializes to the degenerate affine Hecke algebra (F = k), the
affine Sergeev algebra (F = Cl) and wreath Hecke algebras (F = kG).  Each
test writes the defining relations of one of them from its own generators:
the x_i, the s_i, and the Clifford generators c_i or the group elements g_i
placed in slot i.  None of them is built from ``t_element``, so a change to
the t-elements or to F's dual basis shows here as a broken relation.

Sign conventions.  The cross relation is checked as
s_i x_i - x_{i+1} s_i = -t_i, with t_i = 1, 1 + c_i c_{i+1} and
sum_g g_i (g^-1)_{i+1} in the three cases.  The substitution x_i -> -x_i
gives the same algebras with the opposite sign, and different sources use
different signs.  The sources (Lusztig, JAMS 2, 1989, for the degenerate
affine Hecke algebra; Brundan-Kleshchev, Represent. Theory 5, 2001, for the
affine Sergeev algebra) were not available offline, so which sign each of
them prints is not claimed here.  The centre theorems below do not depend
on the sign.
"""

import pytest

from awpa.engine import AwpaAlgebra
from awpa.frobenius import clifford_algebra, cyclic_group_algebra, trivial_algebra
from awpa import permutations as perms
from awpa.textio import element_str


def _failures(relations) -> list[str]:
    return [name for name, lhs, rhs in relations if lhs != rhs]


def _symmetric_group_relations(ctx):
    """The relations shared by every case: the x_i commute, the s_i satisfy
    the Coxeter relations of S_n, and s_i commutes with x_j, j != i, i+1."""
    n, x, s, mul = ctx.n, ctx.x, ctx.s, ctx.mul
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append((f"x{i} x{j}", mul(x(i), x(j)), mul(x(j), x(i))))
    for i in range(1, n):
        out.append((f"s{i}^2", mul(s(i), s(i)), ctx.one()))
        if i + 1 < n:
            out.append((f"s{i} s{i + 1} s{i}", _product(ctx, [s(i), s(i + 1), s(i)]),
                        _product(ctx, [s(i + 1), s(i), s(i + 1)])))
        for j in range(i + 2, n):
            out.append((f"s{i} s{j}", mul(s(i), s(j)), mul(s(j), s(i))))
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                out.append((f"s{i} x{j}", mul(s(i), x(j)), mul(x(j), s(i))))
    return out


def _product(ctx, factors):
    out = ctx.one()
    for f in factors:
        out = ctx.mul(out, f)
    return out


def _slot_relations(ctx, labels, product, odd):
    """The relations of F^(x)n inside A_n(F), from F's own generators, the
    basis elements ``labels`` placed in slot i: ``product(a, b)`` is the
    label of the product of two of them and ``odd(label)`` the parity of
    one.  Slots supercommute, s_i moves slot j to slot s_i(j), and x_i
    commutes with every slot but its own."""
    n, mul, slot = ctx.n, ctx.mul, ctx.slot_elem
    out = []
    for i in range(1, n + 1):
        for a in labels:
            for b in labels:
                out.append((f"{a}_{i} {b}_{i}", mul(slot(a, i), slot(b, i)),
                            slot(product(a, b), i)))
                for j in range(i + 1, n + 1):
                    swapped = mul(slot(b, j), slot(a, i))
                    out.append((f"{a}_{i} {b}_{j}", mul(slot(a, i), slot(b, j)),
                                -swapped if odd(a) and odd(b) else swapped))
            for j in range(1, n + 1):
                if j != i:
                    out.append((f"x{i} {a}_{j}", mul(ctx.x(i), slot(a, j)),
                                mul(slot(a, j), ctx.x(i))))
            for j in range(1, n):
                target = perms.simple(n, j)[i - 1]
                out.append((f"s{j} {a}_{i}", mul(ctx.s(j), slot(a, i)),
                            mul(slot(a, target), ctx.s(j))))
    return out


def _cross(ctx, i):
    """s_i x_i - x_{i+1} s_i, the relation that carries the t-element."""
    return ctx.mul(ctx.s(i), ctx.x(i)) - ctx.mul(ctx.x(i + 1), ctx.s(i))


@pytest.mark.parametrize("n", [2, 3])
def test_degenerate_affine_hecke_presentation(n):
    """F = k: x_1..x_n commute, s_1..s_{n-1} generate kS_n, s_i x_j = x_j s_i
    for j != i, i+1, and s_i x_i - x_{i+1} s_i = -1."""
    ctx = AwpaAlgebra(trivial_algebra(), n)
    relations = _symmetric_group_relations(ctx)
    relations += [(f"s{i} x{i}", _cross(ctx, i), -ctx.one()) for i in range(1, n)]
    assert _failures(relations) == []


@pytest.mark.parametrize("n", [2, 3])
def test_affine_sergeev_presentation(n):
    """F = Cl: the odd c_i with c_i^2 = 1 anticommute with each other,
    x_i c_i = -c_i x_i while x_i commutes with c_j for j != i,
    s_i c_j = c_{s_i(j)} s_i, and s_i x_i - x_{i+1} s_i = -1 - c_i c_{i+1}."""
    ctx = AwpaAlgebra(clifford_algebra(), n)
    c = lambda i: ctx.slot_elem("c", i)
    table = {("1", "1"): "1", ("1", "c"): "c", ("c", "1"): "c", ("c", "c"): "1"}
    relations = _symmetric_group_relations(ctx)
    relations += _slot_relations(ctx, ["1", "c"], lambda a, b: table[a, b], lambda a: a == "c")
    for i in range(1, n + 1):
        relations.append((f"x{i} c{i}", ctx.mul(ctx.x(i), c(i)), -ctx.mul(c(i), ctx.x(i))))
    for i in range(1, n):
        expected = -ctx.one() - ctx.mul(c(i), c(i + 1))
        relations.append((f"s{i} x{i}", _cross(ctx, i), expected))
    assert _failures(relations) == []


@pytest.mark.parametrize("n", [2, 3])
def test_wreath_hecke_presentation(n):
    """F = kZ_3, Z_3 = {e, g, g^2}: the g_i multiply by the group law in
    their slot and commute across slots, x_i commutes with every g_j,
    s_i g_j = g_{s_i(j)} s_i, and s_i x_i - x_{i+1} s_i = -sum_h h_i (h^-1)_{i+1}
    over the three h.  Reindexing h -> h^-1 gives the same sum, so the
    choice between h_i (h^-1)_{i+1} and (h^-1)_i h_{i+1} does not matter."""
    ctx = AwpaAlgebra(cyclic_group_algebra(3), n)
    labels = ["e", "g", "g^2"]  # labels[a] is g^a
    slot = ctx.slot_elem
    relations = _symmetric_group_relations(ctx)
    relations += _slot_relations(
        ctx, labels, lambda a, b: labels[(labels.index(a) + labels.index(b)) % 3], lambda a: False
    )
    for i in range(1, n + 1):
        for a in labels:
            relations.append((f"x{i} {a}_{i}", ctx.mul(ctx.x(i), slot(a, i)),
                              ctx.mul(slot(a, i), ctx.x(i))))
    for i in range(1, n):
        t = ctx.zero()
        for a in range(3):
            t = t + ctx.mul(slot(labels[a], i), slot(labels[-a % 3], i + 1))
        relations.append((f"s{i} x{i}", _cross(ctx, i), -t))
    assert _failures(relations) == []


@pytest.mark.parametrize(
    "make,text",
    [(trivial_algebra, "-1"), (clifford_algebra, "-1 - b(c,c)"),
     (lambda: cyclic_group_algebra(3), "-1 - b(g,g^2) - b(g^2,g)")],
    ids=["k", "Cl", "kZ3"],
)
def test_cross_relation_prints(make, text):
    """s_1 x_1 - x_2 s_1 on A_2(F) as the CLI prints it."""
    assert element_str(_cross(AwpaAlgebra(make(), 2), 1)) == text


def partitions(m: int, parts: int, largest: int | None = None) -> int:
    """The number of partitions of m into at most ``parts`` parts, each at
    most ``largest`` (default m)."""
    if m == 0:
        return 1
    if parts == 0:
        return 0
    top = m if largest is None else min(m, largest)
    return sum(partitions(m - a, parts - 1, a) for a in range(1, top + 1))


@pytest.mark.parametrize("n,bound", [(n, bound) for n in range(1, 5) for bound in range(6)])
def test_degenerate_affine_hecke_centre(n, bound):
    """The centre of the degenerate affine Hecke algebra is k[x_1..x_n]^{S_n}
    (the graded case of Bernstein's theorem, stated in Lusztig's paper
    above; not checked against the source offline), so its part of
    polynomial degree <= D has one basis element per partition of some
    j <= D into at most n parts: 16 at (n, D) = (3, 5), 7 at (4, 3)."""
    ctx = AwpaAlgebra(trivial_algebra(), n)
    expected = sum(partitions(j, n) for j in range(bound + 1))
    assert len(ctx.center_up_to_degree(bound)) == expected


@pytest.mark.parametrize("n,bound", [(n, bound) for n in range(1, 4) for bound in range(5)])
def test_affine_sergeev_centre(n, bound):
    """The supercentre of the affine Sergeev algebra is the symmetric
    polynomials in x_1^2..x_n^2, the form given by Brundan-Kleshchev (not
    checked against the source offline).  To polynomial degree <= D that
    is one basis element per partition of some j <= D/2 into at most n
    parts: 2 at (n, D) = (3, 2), 4 at (2, 4)."""
    ctx = AwpaAlgebra(clifford_algebra(), n)
    expected = sum(partitions(j, n) for j in range(bound // 2 + 1))
    assert len(ctx.center_up_to_degree(bound)) == expected
