"""Exact linear algebra over CycScalar.

Matrices are lists of row lists.  Everything is fraction-exact.

``rref`` runs Gauss-Jordan elimination on sparse rows: each row is held as a
``{column: scalar}`` dict of its nonzeros, so scaling or eliminating with a
pivot row touches only the pivot row's nonzeros, only rows with a nonzero in
the pivot column are updated, and rows that become zero are dropped.  The
matrices solved here (centres, centralizers, Gram and transition matrices)
are mostly structural zeros, which dense elimination would multiply through
cell by cell.  Among the rows that can serve as a pivot, the one with the
fewest nonzeros is taken, which limits fill-in.  The choice of pivot row does
not change the result: the reduced row echelon form of a matrix is unique,
so the returned rows and pivot columns are those of textbook elimination.

Every scalar these functions return carries the conductor of their operands
(the lcm over all entries), zeros included, so later arithmetic with it never
has to lift a conductor-1 zero.
"""

from __future__ import annotations

from .scalars import CycScalar, lcm


def _conductor(*mats) -> int:
    """The lcm of the conductors of all entries of the given matrices."""
    m = 1
    for k in {x.m for mat in mats for row in mat for x in row}:
        m = lcm(m, k)
    return m


def zeros(rows: int, cols: int, m: int = 1):
    return [[CycScalar.zero(m) for _ in range(cols)] for _ in range(rows)]


def eye(n: int, m: int = 1):
    mat = zeros(n, n, m)
    for i in range(n):
        mat[i][i] = CycScalar.one(m)
    return mat


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = zeros(rows, cols, _conductor(a, b))
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
        acc = CycScalar.zero(m)
        for x, y in zip(row, v):
            if x and y:
                acc = acc + x * y
        out.append(acc)
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def rref(mat):
    """Reduced row echelon form of a copy of mat.

    Returns (rref_matrix, pivot_columns): the nonzero rows of the reduced
    form in pivot order, then zero rows up to the row count of mat.
    """
    if not mat:
        return [], []
    cols = len(mat[0])
    m = _conductor(mat)
    active = []
    for row in mat:
        sparse = {c: x if x.m == m else x.lift(m) for c, x in enumerate(row) if x}
        if sparse:
            active.append(sparse)
    done = []
    pivots = []
    for c in range(cols):
        hits = [row for row in active if c in row]
        if not hits:
            continue
        chosen = min(hits, key=len)
        inv = chosen[c].inverse()
        p = {j: x * inv for j, x in chosen.items()}
        active = [row for row in active if c not in row]
        hits = [row for row in hits if row is not chosen]
        targets = hits + [row for row in done if c in row]
        for row in targets:
            f = row.pop(c)
            for j, y in p.items():
                if j == c:
                    continue
                x = row.get(j)
                if x is None:
                    row[j] = -(f * y)
                else:
                    x = x - f * y
                    if x:
                        row[j] = x
                    else:
                        del row[j]
        active.extend(row for row in hits if row)
        done.append(p)
        pivots.append(c)
    zero = CycScalar.zero(m)
    out = []
    for row in done:
        dense = [zero] * cols
        for j, x in row.items():
            dense[j] = x
        out.append(dense)
    out.extend([zero] * cols for _ in range(len(mat) - len(done)))
    return out, pivots


def rank(mat) -> int:
    return len(rref(mat)[1])


def is_invertible(mat) -> bool:
    """Whether mat is square with rank equal to its size."""
    n = len(mat)
    return all(len(row) == n for row in mat) and rank(mat) == n


def inverse(mat):
    """Inverse of a square matrix, or None if singular."""
    n = len(mat)
    aug = [list(row) + list(e) for row, e in zip(mat, eye(n, _conductor(mat)))]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def nullspace(mat):
    """Basis of the right nullspace {v : mat v = 0}."""
    if not mat:
        return []
    cols = len(mat[0])
    red, pivots = rref(mat)
    m = _conductor(mat)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [CycScalar.zero(m) for _ in range(cols)]
        v[f] = CycScalar.one(m)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def solve(mat, rhs):
    """One solution of mat x = rhs, or None if inconsistent."""
    if not mat:
        return [] if all(not b for b in rhs) else None
    cols = len(mat[0])
    aug = [list(row) + [b] for row, b in zip(mat, rhs)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [CycScalar.zero(_conductor(aug)) for _ in range(cols)]
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x


def in_span(basis, vec) -> bool:
    """Whether vec lies in the row span of basis."""
    if all(not x for x in vec):
        return True
    if not basis:
        return False
    return solve(transpose(basis), vec) is not None


def same_span(basis_a, basis_b) -> bool:
    ra = rank(basis_a) if basis_a else 0
    rb = rank(basis_b) if basis_b else 0
    if ra != rb:
        return False
    if ra == 0:
        return True
    joint = [list(r) for r in basis_a] + [list(r) for r in basis_b]
    return rank(joint) == ra
