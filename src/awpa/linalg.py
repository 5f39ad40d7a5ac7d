"""Exact linear algebra over CycScalar.

Rows.  The elimination functions (``rref``, ``rank``, ``nullspace`` and
``in_span``) take a matrix as a list of rows, and a row is either a
``{column: scalar}`` dict or a dense list, read as ``{index: entry}``.
Columns are any sortable keys and are taken in sorted order, so a dict row
may be an element's ``terms`` as it is (basis indices, words or monomial
keys), and integer columns pivot as in textbook elimination.  A dict row
may hold zeros; they are dropped.  ``rref`` turns every row into a sparse
dict at its one entry point and returns sparse rows; ``nullspace`` returns
sparse vectors.  ``inverse`` (F's dual basis, duals of a given basis,
induction transitions) takes such rows too and returns, for each column,
the sparse combination of the rows that gives the unit vector on it.  Only
``mat_mul``, ``mat_vec`` and ``solve`` take and return dense matrices; no
module of the package calls them, and the benchmark's tracer wraps them by
name.

``rref`` runs Gauss-Jordan elimination on the sparse rows, so scaling or
eliminating with a pivot row touches only the pivot row's nonzeros, only
rows with a nonzero in the pivot column are updated, and rows that become
zero are dropped.  The matrices solved here (centres, centralizers, Gram and
transition matrices) are mostly structural zeros, which dense elimination
would multiply through cell by cell.  Among the rows that can serve as a
pivot, the one with the fewest nonzeros is taken, which limits fill-in.  The
choice of pivot row does not change the result: the reduced row echelon form
of a matrix is unique, so the returned rows and pivot columns are those of
textbook elimination.

Conductors.  Every scalar these functions return carries the conductor of
their operands: the lcm over all given entries, zeros in dense rows and in
dict rows included.  Later arithmetic with a returned zero of a dense result
then never has to lift a conductor-1 zero.
"""

from __future__ import annotations

from .scalars import CycScalar, lcm
from .sparse import acc


def _entries(row):
    """The (column, entry) pairs of a dict row or a dense row."""
    return row.items() if isinstance(row, dict) else enumerate(row)


def _conductor(*mats) -> int:
    """The lcm of the conductors of all entries of the given matrices."""
    m = 1
    for k in {x.m for mat in mats for row in mat for _, x in _entries(row)}:
        m = lcm(m, k)
    return m


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    zero = CycScalar.zero(_conductor(a, b))
    out = [[zero] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            x = a[i][k]
            if x:
                row_b = b[k]
                row_o = out[i]
                for j in range(cols):
                    if row_b[j]:
                        row_o[j] = row_o[j] + x * row_b[j]
    return out

def mat_vec(a, v):
    out = []
    m = _conductor(a, [v])
    for row in a:
        total = CycScalar.zero(m)
        for x, y in zip(row, v):
            if x and y:
                total = total + x * y
        out.append(total)
    return out


def rref(mat):
    """Reduced row echelon form of the rows of mat (which is not changed).

    Returns (rows, pivot_columns): the nonzero rows of the reduced form as
    ``{column: scalar}`` dicts, in pivot order, one per pivot column.
    """
    m = _conductor(mat)
    active = []
    for row in mat:
        sparse = {c: x if x.m == m else x.lift(m) for c, x in _entries(row) if x}
        if sparse:
            active.append(sparse)
    done = []
    pivots = []
    for c in sorted({c for row in active for c in row}):
        hits = [row for row in active if c in row]
        if not hits:
            continue
        chosen = min(hits, key=len)
        inv = chosen[c].inverse()
        p = {j: x * inv for j, x in chosen.items()}
        active = [row for row in active if c not in row]
        hits = [row for row in hits if row is not chosen]
        for row in hits + [row for row in done if c in row]:
            f = row.pop(c)
            for j, y in p.items():
                if j != c:
                    acc(row, j, -(f * y))
        active.extend(row for row in hits if row)
        done.append(p)
        pivots.append(c)
    return done, pivots


def rank(mat) -> int:
    return len(rref(mat)[1])


def is_invertible(mat) -> bool:
    """Whether the rows (dicts or dense lists) are n rows over n distinct
    columns, counted as ``inverse`` counts them, with rank n."""
    n = len(mat)
    return len({c for row in mat for c, _ in _entries(row)}) == n and rank(mat) == n


def inverse(mat):
    """The inverse of n rows over n distinct columns: {c: {r: scalar}}, the
    combination of rows r that is the unit vector on column c.  None if the
    matrix is singular or not square."""
    one = CycScalar.one(_conductor(mat))
    # row r gains a marker column (1, r), sorted after every column (0, c)
    aug = [{**{(0, c): x for c, x in _entries(row)}, (1, r): one} for r, row in enumerate(mat)]
    red, pivots = rref(aug)
    if len({c for row in aug for c in row}) != 2 * len(mat) or any(tag for tag, _ in pivots):
        return None
    return {c: {r: x for (tag, r), x in row.items() if tag} for row, (_, c) in zip(red, pivots)}


def nullspace(rows, columns):
    """Basis of {v : sum_c row[c] v[c] = 0 for every row}, where v runs over
    the vectors on ``columns`` (the row keys must lie among them).  One
    sparse ``{column: scalar}`` vector per non-pivot column, in sorted order."""
    red, pivots = rref(rows)
    one = CycScalar.one(_conductor(rows))
    pivot_set = set(pivots)
    basis = []
    for f in sorted(columns):
        if f not in pivot_set:
            v = {f: one}
            for row, c in zip(red, pivots):
                if f in row:
                    v[c] = -row[f]
            basis.append(v)
    return basis


def solve(mat, rhs):
    """One solution of the dense system mat x = rhs, or None if inconsistent."""
    if not mat:
        return [] if all(not b for b in rhs) else None
    cols = len(mat[0])
    aug = [list(row) + [b] for row, b in zip(mat, rhs)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    zero = CycScalar.zero(_conductor(aug))
    x = [zero] * cols
    for row, c in zip(red, pivots):
        x[c] = row.get(cols, zero)
    return x


def in_span(basis, vec) -> bool:
    """Whether vec lies in the row span of basis: vec is reduced by the
    reduced rows of basis, and is in the span iff nothing is left."""
    v = {c: x for c, x in _entries(vec) if x}
    red, pivots = rref(basis)
    for row, c in zip(red, pivots):
        f = v.get(c)
        if f:
            for j, y in row.items():
                acc(v, j, -(f * y))
    return not v
