"""Exact linear algebra: the sparse-row rref against a dense reference."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awpa import linalg
from awpa.cyclotomic import CyclotomicAlgebra, make_params
from awpa.engine import AwpaAlgebra
from awpa.frobenius import clifford_algebra, taft_algebra
from awpa.scalars import CycScalar, root_of_unity
from awpa.sparse import acc

from oracles import same_span


def dense_rref(mat):
    """Textbook dense Gauss-Jordan elimination: first nonzero row as pivot,
    every cell of every touched row updated.  The reference for rref."""
    m = [list(row) for row in mat]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def scalar(a, b=0, m=1):
    """a + b*zeta_m (b must be 0 when m = 1)."""
    s = CycScalar.from_rational(a, m)
    return s + CycScalar.from_rational(b, m) * root_of_unity(m) if b else s


def as_text(mat):
    return [[str(x) for x in row] for row in mat]


def sparse_matrices(m, max_rows=7, max_cols=7, square=False):
    """Random matrices over Q(zeta_m) with about two thirds structural zeros,
    small entries, and repeated rows now and then."""
    coeff = st.integers(-3, 3)
    entry = st.tuples(coeff, coeff if m > 1 else st.just(0))
    zero_or = st.one_of(st.just((0, 0)), st.just((0, 0)), entry)

    @st.composite
    def build(draw):
        rows = draw(st.integers(1, max_rows))
        cols = rows if square else draw(st.integers(1, max_cols))
        mat = [[scalar(*draw(zero_or), m=m) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and draw(st.booleans()):
            mat[draw(st.integers(1, rows - 1))] = list(mat[0])
        return mat

    return build()


def relabel(mat):
    """A matrix of dict rows (any sortable column keys) or dense rows as a
    dense matrix over the sorted union of its columns, and that column list."""
    rows = [row if isinstance(row, dict) else dict(enumerate(row)) for row in mat]
    cols = sorted({c for row in rows for c in row})
    zero = CycScalar.zero()
    return [[row.get(c, zero) for c in cols] for row in rows], cols


def padded(red, cols, nrows):
    """Sparse reduced rows in the dense format of the reference: dense rows
    over cols, then zero rows up to nrows."""
    zero = CycScalar.zero()
    dense = [[row.get(c, zero) for c in cols] for row in red]
    return dense + [[zero] * len(cols) for _ in range(nrows - len(red))]


def check_against_reference(mat):
    dense, cols = relabel(mat)
    red, pivots = linalg.rref(mat)
    ref, ref_pivots = dense_rref(dense)
    assert pivots == [cols[c] for c in ref_pivots]
    red = padded(red, cols, len(mat))
    assert red == ref
    assert as_text(red) == as_text(ref)
    assert len(red) == len(mat)


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(1))
def test_rref_matches_dense_reference_over_q(mat):
    check_against_reference(mat)


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(3))
def test_rref_matches_dense_reference_over_q_zeta3(mat):
    check_against_reference(mat)


WORDS = [(a, b) for a in range(3) for b in range(3)]


@st.composite
def word_keyed_systems(draw):
    """Dict rows keyed by word tuples, as an element's terms are, with the
    columns of a random matrix sent to random words: most zeros are left
    out, a few are kept, and some words occur in no row.  Also a vector that
    is half the time a combination of the rows."""
    mat = draw(st.one_of(sparse_matrices(1), sparse_matrices(3)))
    labels = draw(st.permutations(WORDS))
    rows = [
        {labels[c]: x for c, x in enumerate(row) if x or draw(st.integers(0, 3)) == 0}
        for row in mat
    ]
    vec = {}
    if draw(st.booleans()):
        for row in rows:
            f = draw(st.integers(-2, 2))
            for c, x in row.items():
                vec[c] = vec.get(c, CycScalar.zero()) + f * x
    else:
        for c in draw(st.lists(st.sampled_from(WORDS), max_size=4)):
            vec[c] = scalar(draw(st.integers(-2, 2)))
    return rows, vec


@settings(max_examples=150, deadline=None)
@given(word_keyed_systems())
def test_word_keyed_rows_match_dense_reference(system):
    rows, vec = system
    zero = CycScalar.zero()
    dense = [[row.get(c, zero) for c in WORDS] for row in rows]
    ref, ref_pivots = dense_rref(dense)
    red, pivots = linalg.rref(rows)
    assert pivots == [WORDS[c] for c in ref_pivots]
    assert padded(red, WORDS, len(rows)) == ref
    assert linalg.rank(rows) == len(ref_pivots)
    expected = []
    for f in range(len(WORDS)):
        if f not in ref_pivots:
            v = {WORDS[f]: CycScalar.one()}
            for r, c in enumerate(ref_pivots):
                if ref[r][f]:
                    v[WORDS[c]] = -ref[r][f]
            expected.append(v)
    assert linalg.nullspace(rows, WORDS) == expected
    with_vec = dense + [[vec.get(c, zero) for c in WORDS]]
    assert linalg.in_span(rows, vec) == (len(dense_rref(with_vec)[1]) == len(ref_pivots))


def q_matrix(rows):
    return [[scalar(v) for v in row] for row in rows]


EDGE_CASES = {
    "zero_rows": [[1, 0, 2], [0, 0, 0], [0, 3, 1], [0, 0, 0]],
    "duplicate_rows": [[1, 2, 0], [1, 2, 0], [0, 1, 1], [1, 2, 0]],
    "rank_deficient": [[1, 2, 3], [2, 4, 6], [1, 0, 1], [0, 2, 2]],
    "all_zero": [[0, 0], [0, 0], [0, 0]],
    "one_by_one": [[5]],
    "one_by_one_zero": [[0]],
    "wide": [[0, 0, 1, 2, 0], [0, 3, 0, 0, 1]],
    "tall": [[0, 1], [0, 2], [0, 0], [1, 1], [2, 2]],
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_rref_edge_cases(name):
    check_against_reference(q_matrix(EDGE_CASES[name]))


def test_rref_empty_matrix():
    assert linalg.rref([]) == ([], [])
    assert linalg.rank([]) == 0
    assert linalg.nullspace([], []) == []
    assert linalg.inverse([]) == {}
    assert linalg.is_invertible([])


def test_rref_known_form():
    red, pivots = linalg.rref(q_matrix(EDGE_CASES["rank_deficient"]))
    assert pivots == [0, 1]
    assert padded(red, range(3), 4) == q_matrix([[1, 0, 1], [0, 1, 1], [0, 0, 0], [0, 0, 0]])


def test_rref_does_not_modify_input():
    mat = q_matrix(EDGE_CASES["duplicate_rows"])
    before = as_text(mat)
    linalg.rref(mat)
    assert as_text(mat) == before


def test_entries_carry_the_operands_conductor():
    z = root_of_unity(3)
    assert linalg.inverse(q_matrix([[1, 0], [0, 1]])) == {0: {0: 1}, 1: {1: 1}}
    # a rational zero of conductor 1 mixed into a Q(zeta_3) matrix
    mat = [[z, CycScalar.zero(), scalar(1, m=3)], [scalar(0, m=3)] * 3]
    red, _ = linalg.rref(mat)
    assert all(x.m == 3 for row in red for x in row.values())
    square = [[z, scalar(1, m=3)], [scalar(0, m=3), z]]
    assert all(x.m == 3 for row in linalg.inverse(square).values() for x in row.values())
    assert all(x.m == 3 for row in linalg.mat_mul(square, square) for x in row)
    assert all(x.m == 3 for x in linalg.mat_vec(square, [z, z]))
    for vec in linalg.nullspace(mat, range(3)):
        assert all(x.m == 3 for x in vec.values())
    # a zero kept in a dict row still sets the conductor
    assert linalg.nullspace([{"a": scalar(0, m=3)}], ["a"])[0]["a"].m == 3


@settings(max_examples=80, deadline=None)
@given(st.one_of(sparse_matrices(1), sparse_matrices(3)))
def test_nullspace_vectors_are_killed(mat):
    cols = len(mat[0])
    basis = linalg.nullspace(mat, range(cols))
    assert len(basis) == cols - linalg.rank(mat)
    for v in basis:
        dense = [v.get(c, CycScalar.zero()) for c in range(cols)]
        assert all(not x for x in linalg.mat_vec(mat, dense))
    if basis:
        assert linalg.rank(basis) == len(basis)


@settings(max_examples=80, deadline=None)
@given(st.one_of(sparse_matrices(1, square=True), sparse_matrices(3, square=True)))
def test_inverse_and_is_invertible(mat):
    one = CycScalar.one()
    # zero-free dict rows: the keyed identity, and two proportional rows
    assert linalg.is_invertible([{0: one}, {1: one}])
    assert linalg.inverse([{0: one}, {1: one}]) is not None
    assert not linalg.is_invertible([{0: one, 1: one}, {0: one + one, 1: one + one}])
    # the columns relabelled to tuple keys, as monomial keys are; rows keep zeros
    rows = [{("c", j): x for j, x in enumerate(row)} for row in mat]
    inv = linalg.inverse(rows)
    assert linalg.is_invertible(mat) == linalg.is_invertible(rows) == (inv is not None)
    # one more distinct column than rows: not square
    wide = [{**rows[0], ("d", 0): CycScalar.one()}] + rows[1:]
    assert linalg.inverse(wide) is None
    if inv is None:
        assert linalg.inverse(mat) is None
        return
    assert linalg.inverse(mat) == {j: inv[("c", j)] for j in range(len(mat))}
    for c, combo in inv.items():  # sum_r inv[c][r] rows[r] = e_c
        total = {}
        for r, y in combo.items():
            for k, x in rows[r].items():
                acc(total, k, y * x)
        assert total == {c: 1}
    for r, row in enumerate(rows):  # and the inverse on the other side
        total = {}
        for c, x in row.items():
            for r2, y in inv[c].items():
                acc(total, r2, x * y)
        assert total == {r: 1}


def test_is_invertible_rejects_non_square():
    assert not linalg.is_invertible(q_matrix([[1, 0, 0], [0, 1, 0]]))
    assert not linalg.is_invertible(q_matrix([[1, 0], [0, 1], [1, 1]]))


@settings(max_examples=80, deadline=None)
@given(st.one_of(sparse_matrices(1), sparse_matrices(3)), st.data())
def test_solve_in_span_same_span(mat, data):
    m = mat[0][0].m
    cols = len(mat[0])
    x = [scalar(data.draw(st.integers(-2, 2)), m=m) for _ in range(cols)]
    rhs = linalg.mat_vec(mat, x)
    y = linalg.solve(mat, rhs)
    assert y is not None
    assert linalg.mat_vec(mat, y) == rhs
    # the columns of mat span rhs; a vector outside the column span does not
    cols_as_rows = [list(col) for col in zip(*mat)]
    assert linalg.in_span(cols_as_rows, rhs)
    red, pivots = linalg.rref(cols_as_rows)
    outside = [scalar(0, m=m) for _ in range(len(mat))]
    free = [c for c in range(len(mat)) if c not in pivots]
    if free:
        outside[free[0]] = scalar(1, m=m)
        assert not linalg.in_span(red[: len(pivots)], outside)
        assert linalg.solve(mat, outside) is None
    # a matrix and its nonzero reduced rows span the same space
    nonzero = red[: len(pivots)]
    assert same_span(cols_as_rows, nonzero)
    assert same_span(nonzero, cols_as_rows)
    if free:
        assert not same_span(nonzero, nonzero + [outside])


def test_rref_matches_reference_on_engine_matrices(monkeypatch):
    """The systems the package itself solves: centre solves over Q and
    Q(zeta_3), Frobenius data of a Taft algebra, and a quotient Gram matrix."""
    seen = []
    real = linalg.rref

    def record(mat):
        seen.append(mat)
        return real(mat)

    monkeypatch.setattr(linalg, "rref", record)
    centres = [(clifford_algebra(), 2, 2), (taft_algebra(2), 2, 0), (taft_algebra(3), 1, 1)]
    for F, n, degree in centres:
        AwpaAlgebra(F, n).center_up_to_degree(degree)
    Cl = clifford_algebra()
    params = make_params(Cl, {2: [Cl.scalar(Fraction(1, 2)) * Cl.unit_elem()]})
    CyclotomicAlgebra(params, 2).gram_matrix()
    monkeypatch.undo()
    assert any(not x.is_rational() for mat in seen for row in relabel(mat)[0] for x in row)
    assert max(len(mat) for mat in seen) >= 40
    for mat in seen:
        check_against_reference(mat)
