"""Graded Frobenius superalgebras from structure constants.

An algebra is described by a homogeneous basis, structure constants
b_i b_j = sum_k c[i][j][k] b_k, a grading, a parity, and a trace vector.
Construction validates the basis labels, associativity, unitality, grading
multiplicativity, homogeneity of the trace, and nondegeneracy of the pairing
(f, g) -> tr(fg), then derives the left dual basis, the Nakayama automorphism
psi (the unique linear map with tr(fg) = (-1)^{|f||g|} tr(g psi(f))), its
order theta, and the top degree delta.

The coefficient field is Q(zeta_m); the conductor is extended at build time
so that all theta-th roots of unity (the psi-eigenvalues) are representable.
"""

from __future__ import annotations

import json

from . import linalg
from .errors import (
    AlgebraMismatch,
    BadParams,
    BadSpec,
    DegenerateTrace,
    DimensionMismatch,
    GradingViolation,
    InternalInconsistency,
    NakayamaInfiniteOrder,
    NoUnit,
    NotAssociative,
    ParseError,
)
from .scalars import CycScalar, lcm, parse_scalar, root_of_unity, signed_terms
from .sparse import SparseElem, acc, memoized

DEFAULT_NAKAYAMA_ORDER_BOUND = 64


class AlgElem(SparseElem):
    """An element of a FrobAlg: sparse {basis index: CycScalar}.

    The constructor takes such terms and drops zeros.  Dense coordinates
    exist only at the JSON and text boundary, where ``FrobAlg.elem`` takes a
    coordinate vector.  Sums and products check the algebra; elements of
    different algebras compare unequal."""

    __slots__ = ("algebra",)
    _context = ("algebra",)

    def __init__(self, algebra: FrobAlg, terms: dict):
        self.algebra = algebra
        super().__init__(terms)

    def _check(self, other: AlgElem):
        if self.algebra is not other.algebra:
            raise AlgebraMismatch("elements of different algebras")

    def __eq__(self, other) -> bool:
        if isinstance(other, AlgElem) and other.algebra is not self.algebra:
            return False
        return super().__eq__(other)

    def __mul__(self, other) -> AlgElem:
        if isinstance(other, AlgElem):
            self._check(other)
            return self.algebra.mul(self, other)
        return super().__mul__(other)

    def parity(self):
        """0 or 1 if homogeneous, None if mixed or zero."""
        seen = {self.algebra.parities[i] for i in self.terms}
        return seen.pop() if len(seen) == 1 else None

    def degree(self):
        seen = {self.algebra.degrees[i] for i in self.terms}
        return seen.pop() if len(seen) == 1 else None

    def trace(self) -> CycScalar:
        out = CycScalar.zero(self.algebra.conductor)
        for i, a in self.terms.items():
            t = self.algebra.trace_vec[i]
            if t:
                out = out + a * t
        return out

    def __str__(self) -> str:
        labels = self.algebra.basis_labels
        return " + ".join(f"({self.terms[i]})*{labels[i]}" for i in sorted(self.terms)) or "0"

    __repr__ = __str__


def _combine(coeffs: dict, rows) -> dict:
    """The row sum_m coeffs[m] rows[m] of rows indexed by the keys of coeffs."""
    out = {}
    for m, a in coeffs.items():
        for k, c in rows[m].items():
            acc(out, k, a * c)
    return out


def _columns(rows, size: int) -> list:
    """The columns {r: rows[r][c]} of rows over the indices 0..size-1."""
    out = [{} for _ in range(size)]
    for r, row in enumerate(rows):
        for c, x in row.items():
            out[c][r] = x
    return out


class FrobAlg:
    """A graded Frobenius superalgebra given by structure constants.

    Its data are rows {basis index: scalar} with no zero value, the format
    of ``AlgElem.terms``: ``struct[i][j]`` (b_i b_j, given as a dense list
    or as such a dict), ``psi_on_basis(i, k)``, ``unit_elem().terms`` and
    ``dual_basis()[b].terms``.  The construction checks and the derivation
    of the duals (``linalg.inverse`` of the Gram rows), psi and theta work on
    these rows; only ``unit`` and ``trace_vec`` stay dense.

    psi is diagonalizable, with theta-th roots of unity as eigenvalues: psi
    is annihilated by x^theta - 1, which is separable in characteristic 0
    and splits over the field once the conductor is a multiple of theta.

    The basis labels are distinct nonempty strings without whitespace or
    any of ``+ - , ( ) [ ]``, so that the element grammars read printed
    elements back (``parse_alg_elem``, ``textio.parse_element``)."""

    def __init__(
        self,
        basis_labels,
        degrees,
        parities,
        struct,
        unit,
        trace_vec,
        conductor: int = 1,
        name: str = "",
    ):
        self.basis_labels = list(basis_labels)
        self.dim = len(self.basis_labels)
        self.degrees = list(degrees)
        self.parities = list(parities)
        self.name = name or "algebra"
        for label in self.basis_labels:
            if not isinstance(label, str) or not label or any(
                ch in "+-,()[]" or ch.isspace() for ch in label
            ):
                raise BadSpec(f"basis label {label!r} is not a nonempty string free of"
                              " whitespace and + - , ( ) [ ]")
        if len(set(self.basis_labels)) != self.dim:
            raise BadSpec("basis labels repeat")
        if len(self.degrees) != self.dim or len(self.parities) != self.dim:
            raise BadSpec("degrees/parities length does not match basis")
        if len(struct) != self.dim or any(len(plane) != self.dim for plane in struct):
            raise BadSpec("structure constant cube has wrong shape")
        if len(unit) != self.dim or len(trace_vec) != self.dim:
            raise BadSpec("unit/trace vector length does not match basis")

        self.conductor = conductor
        self.struct = [[self._row(row) for row in plane] for plane in struct]
        self.unit = [CycScalar._coerce(v, conductor) for v in unit]
        self.trace_vec = [CycScalar._coerce(v, conductor) for v in trace_vec]

        self._validate_grading()
        self._validate_unit_and_associativity()
        self.delta = max(self.degrees)
        self._validate_trace_homogeneity()
        self._derive_frobenius_data()
        self._graded_piece_cache: dict = {}
        self._word_cache: dict = {}  # wreath.word_mul's memo, {(w1, w2): {word: scalar}}

    # -- construction-time checks -------------------------------------------

    def _row(self, row) -> dict:
        """A dense coordinate list or a dict {basis index: value} as a row
        {basis index: CycScalar} with no zero value, in index order."""
        if not isinstance(row, dict):
            if len(row) != self.dim:
                raise BadSpec("structure constant cube has wrong shape")
            row = dict(enumerate(row))
        if not set(row) <= set(range(self.dim)):
            raise BadSpec(f"row index outside 0..{self.dim - 1}")
        coerced = ((k, CycScalar._coerce(row[k], self.conductor)) for k in sorted(row))
        return {k: v for k, v in coerced if v}

    def _validate_grading(self):
        for i, plane in enumerate(self.struct):
            for j, row in enumerate(plane):
                for k in row:
                    if self.degrees[k] != self.degrees[i] + self.degrees[j]:
                        raise GradingViolation(
                            f"deg({self.basis_labels[i]}*{self.basis_labels[j]})"
                            " is not additive"
                        )
                    if self.parities[k] != (self.parities[i] + self.parities[j]) % 2:
                        raise GradingViolation(
                            f"parity of {self.basis_labels[i]}*{self.basis_labels[j]}"
                            " is not additive"
                        )

    def _validate_unit_and_associativity(self):
        unit, one = self._row(self.unit), CycScalar.one(self.conductor)
        columns = list(zip(*self.struct))  # columns[k][m] is the row of b_m b_k
        for j, column in enumerate(columns):
            if not _combine(unit, column) == _combine(unit, self.struct[j]) == {j: one}:
                raise NoUnit("declared unit does not act as identity")
        for i, plane in enumerate(self.struct):
            for j, ij in enumerate(plane):
                for k, column in enumerate(columns):
                    # (b_i b_j) b_k against b_i (b_j b_k)
                    if _combine(ij, column) != _combine(self.struct[j][k], plane):
                        raise NotAssociative(
                            f"({self.basis_labels[i]}*{self.basis_labels[j]})"
                            f"*{self.basis_labels[k]} differs from the other bracketing"
                        )

    def _validate_trace_homogeneity(self):
        for i, t in enumerate(self.trace_vec):
            if t and (self.degrees[i] != self.delta or self.parities[i] != 0):
                raise GradingViolation(
                    "trace must be supported on even elements of top degree"
                )

    def _derive_frobenius_data(self):
        gram = [
            {j: t for j, row in enumerate(plane) if (t := AlgElem(self, row).trace())}
            for plane in self.struct
        ]
        inv = linalg.inverse(gram)
        if inv is None:
            raise DegenerateTrace("trace pairing is degenerate")
        # b_i^vee = sum_r inv[i][r] b_r, since tr(b_i^vee b_j) = delta_ij
        self._dual_rows = [inv[i] for i in range(self.dim)]

        # tr(fg) = (-1)^{|f||g|} tr(g psi(f)) with g = b_c^vee gives
        # psi(b_i) = (-1)^{|b_i|} sum_c tr(b_i b_c^vee) b_c
        dual_columns = _columns(self._dual_rows, self.dim)
        psi = []
        for i, row in enumerate(gram):
            traces = _combine(row, dual_columns)
            psi.append({c: -x for c, x in traces.items()} if self.parities[i] else traces)

        # rows[p][j] is psi^p(b_j); compose with psi until the identity returns
        one = CycScalar.one(self.conductor)
        ident = [{j: one} for j in range(self.dim)]
        rows = [ident, psi]
        while rows[-1] != ident:
            if len(rows) > DEFAULT_NAKAYAMA_ORDER_BOUND:
                raise NakayamaInfiniteOrder(
                    f"Nakayama order exceeds bound {DEFAULT_NAKAYAMA_ORDER_BOUND}"
                )
            rows.append([_combine(row, psi) for row in rows[-1]])
        self._psi_rows = rows[:-1]
        self.theta = len(self._psi_rows)

        if self.conductor % self.theta:
            self._lift_field(lcm(self.conductor, self.theta))

    def _lift_field(self, big: int):
        self.conductor = big
        lift = lambda s: s.lift(big)
        lift_rows = lambda rows: [{k: lift(v) for k, v in row.items()} for row in rows]
        self.struct = [lift_rows(plane) for plane in self.struct]
        self._psi_rows = [lift_rows(rows) for rows in self._psi_rows]
        self._dual_rows = lift_rows(self._dual_rows)
        self.unit = [lift(v) for v in self.unit]
        self.trace_vec = [lift(v) for v in self.trace_vec]

    # -- elements -------------------------------------------------------------

    def zero_elem(self) -> AlgElem:
        return AlgElem(self, {})

    def unit_elem(self) -> AlgElem:
        return self.elem(self.unit)

    def basis_elem(self, i: int) -> AlgElem:
        return AlgElem(self, {i: CycScalar.one(self.conductor)})

    def elem(self, coords) -> AlgElem:
        """The element with the dense coordinate vector coords."""
        if len(coords) != self.dim:
            raise DimensionMismatch(f"expected {self.dim} coordinates, got {len(coords)}")
        return AlgElem(self, {i: self.scalar(c) for i, c in enumerate(coords)})

    def from_label(self, label: str) -> AlgElem:
        if label not in self.basis_labels:
            raise ParseError(f"unknown basis label {label!r}")
        return self.basis_elem(self.basis_labels.index(label))

    def scalar(self, value) -> CycScalar:
        return CycScalar._coerce(value, self.conductor)

    def mul(self, u: AlgElem, v: AlgElem) -> AlgElem:
        # u v = sum_i u_i (b_i v), and b_i v = sum_j v_j b_i b_j
        return u._like(_combine(u.terms, {i: _combine(v.terms, self.struct[i]) for i in u.terms}))

    def dual_basis(self) -> list[AlgElem]:
        """Left dual basis: tr(b_i^vee b_j) = delta_ij."""
        return [AlgElem(self, row) for row in self._dual_rows]

    def dual_of_basis(self, elems) -> list[AlgElem]:
        """Left duals e_i^vee of a basis e_i given as elements:
        tr(e_i^vee e_j) = delta_ij."""
        gram = [[self.mul(x, y).trace() for y in elems] for x in elems]
        inv = linalg.inverse(gram)
        if inv is None or len(elems) != self.dim:
            raise DegenerateTrace("given elements are not a basis")
        terms = [e.terms for e in elems]
        return [self.zero_elem()._like(_combine(inv[i], terms)) for i in range(self.dim)]

    def psi(self, u: AlgElem, power: int = 1) -> AlgElem:
        if power % self.theta == 0:
            return u
        return u._like(_combine(u.terms, self._psi_rows[power % self.theta]))

    def psi_on_basis(self, i: int, power: int = 1) -> dict:
        """psi^power(b_i) as a row {basis index: scalar}."""
        return self._psi_rows[power % self.theta][i]

    def is_invertible(self, u: AlgElem) -> bool:
        products = [self.mul(u, self.basis_elem(j)).terms for j in range(self.dim)]
        return linalg.rank(products) == self.dim

    # -- distinguished subspaces ----------------------------------------------

    def graded_piece(self, k: int) -> list[AlgElem]:
        """Basis of F_psi^(k): the psi-fixed f with g f = (-1)^{|f||g|} f psi^k(g)
        for all g.  It depends on k mod theta only."""
        return [AlgElem(self, row) for row in self._graded_piece(k % self.theta)]

    @memoized("_graded_piece_cache")
    def _graded_piece(self, k: int) -> list[dict]:
        """The basis of graded_piece(k) as rows: the memo holds no element
        of self, so it keeps no reference cycle alive."""
        vectors = []
        minus_one = -CycScalar.one(self.conductor)
        for target_parity in (0, 1):
            idxs = [i for i in range(self.dim) if self.parities[i] == target_parity]
            if not idxs:
                continue
            # unknowns: coefficients of f on the parity-homogeneous indices;
            # row (g, out) is the coefficient of b_out in g f - sign f psi^k(g)
            rows: dict = {}
            for i in idxs:
                for g in range(self.dim):
                    odd = self.parities[g] and target_parity
                    for out, c in self.struct[g][i].items():
                        acc(rows.setdefault((g, out), {}), i, c)
                    for h, c in self.psi_on_basis(g, k).items():
                        for out, d in self.struct[i][h].items():
                            acc(rows.setdefault((g, out), {}), i, c * d if odd else -(c * d))
                # row (-1, out) is the coefficient of b_out in psi(f) - f
                for out, c in self.psi_on_basis(i, 1).items():
                    acc(rows.setdefault((-1, out), {}), i, c)
                acc(rows.setdefault((-1, i), {}), i, minus_one)
            vectors.extend(linalg.nullspace(list(rows.values()), idxs))
        return vectors

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        zero = CycScalar.zero(self.conductor)
        return {
            "conductor": self.conductor,
            "basis": list(self.basis_labels),
            "degrees": list(self.degrees),
            "parities": list(self.parities),
            "unit": [str(v) for v in self.unit],
            "mult": [
                [[str(row.get(k, zero)) for k in range(self.dim)] for row in plane]
                for plane in self.struct
            ],
            "trace": [str(v) for v in self.trace_vec],
        }

    @staticmethod
    def from_json_dict(data: dict, name: str = "") -> FrobAlg:
        try:
            cond = int(data["conductor"])
            if not isinstance(data["basis"], list):
                raise TypeError("basis must be a list of labels")
            parse = lambda s: parse_scalar(str(s), cond)
            return FrobAlg(
                data["basis"],
                [int(d) for d in data["degrees"]],
                [int(p) % 2 for p in data["parities"]],
                [[[parse(v) for v in row] for row in plane] for plane in data["mult"]],
                [parse(v) for v in data["unit"]],
                [parse(v) for v in data["trace"]],
                conductor=cond,
                name=name or data.get("name", ""),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BadSpec(f"malformed algebra description: {exc}") from exc

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")

    @staticmethod
    def load(path) -> FrobAlg:
        with open(path) as fh:
            return FrobAlg.from_json_dict(json.load(fh))

    def __repr__(self):
        return f"FrobAlg({self.name}, dim={self.dim}, theta={self.theta}, delta={self.delta})"


# -- element / algebra text helpers ------------------------------------------


def parse_alg_elem(F: FrobAlg, text: str) -> AlgElem:
    """Parse "c1*label1 + c2*label2" (labels from F, scalar prefixes
    optional); a term with no label is a scalar multiple of the unit."""
    labels = sorted(F.basis_labels, key=len, reverse=True)
    out = F.zero_elem()
    for sign, term in signed_terms(text):
        label = next((lbl for lbl in labels if term == lbl or term.endswith("*" + lbl)), None)
        if label is None:
            coeff, elem = parse_scalar(term, F.conductor), F.unit_elem()
        else:
            coeff = parse_scalar(term[: -len(label) - 1], F.conductor) if term != label else 1
            elem = F.from_label(label)
        out = out + F.scalar(sign * coeff) * elem
    return out


# -- builtin algebras ----------------------------------------------------------


def trivial_algebra() -> FrobAlg:
    return FrobAlg(["1"], [0], [0], [[[1]]], [1], [1], name="trivial")


def clifford_algebra() -> FrobAlg:
    """Cl: one odd generator c with c^2 = 1; tr(1) = 1, tr(c) = 0."""
    return FrobAlg(
        ["1", "c"],
        [0, 0],
        [0, 1],
        [[{(i + j) % 2: 1} for j in range(2)] for i in range(2)],
        [1, 0],
        [1, 0],
        name="clifford",
    )


def dual_numbers_algebra() -> FrobAlg:
    """k[z]/(z^2) with |z| = 2; tr(a + bz) = b."""
    return FrobAlg(
        ["1", "z"],
        [0, 2],
        [0, 0],
        [[{i + j: 1} if i + j < 2 else {} for j in range(2)] for i in range(2)],
        [1, 0],
        [0, 1],
        name="dual_numbers",
    )


def group_algebra(table, labels=None, name="group_algebra") -> FrobAlg:
    """Group algebra from a multiplication table table[i][j] = index of g_i g_j.

    The trace is the coefficient of the identity element.  The table must
    be square with an identity and inverses, which the unit needs; FrobAlg
    validates the structure constants it gives, so an entry out of range
    raises BadSpec and a non-associative table NotAssociative.
    """
    size = len(table)
    if any(len(row) != size for row in table):
        raise BadParams("multiplication table must be square")
    ident = None
    for e in range(size):
        if all(table[e][j] == j and table[j][e] == j for j in range(size)):
            ident = e
            break
    if ident is None:
        raise BadParams("multiplication table has no identity")
    for i in range(size):
        if not any(table[i][j] == ident for j in range(size)):
            raise BadParams(f"element {i} has no inverse")
    if labels is None:
        labels = [f"g{i}" for i in range(size)]
        labels[ident] = "e"
    unit = [1 if i == ident else 0 for i in range(size)]
    trace = [1 if i == ident else 0 for i in range(size)]
    return FrobAlg(
        labels,
        [0] * size,
        [0] * size,
        [[{table[i][j]: 1} for j in range(size)] for i in range(size)],
        unit,
        trace,
        name=name,
    )


def cyclic_group_algebra(m: int) -> FrobAlg:
    if m < 1:
        raise BadParams("cyclic group order must be positive")
    table = [[(i + j) % m for j in range(m)] for i in range(m)]
    labels = ["e"] + [f"g^{i}" if i > 1 else "g" for i in range(1, m)]
    return group_algebra(table, labels, name=f"cyclic_group_{m}")


def symmetric_group_algebra(n: int) -> FrobAlg:
    """Group algebra of S_n (used for the nonabelian examples)."""
    from . import permutations as perms

    elems = perms.all_permutations(n)
    index = {p: i for i, p in enumerate(elems)}
    table = [[index[perms.mul(p, q)] for q in elems] for p in elems]
    labels = ["".join(map(str, p)) for p in elems]
    return group_algebra(table, labels, name=f"symmetric_group_{n}")


def taft_algebra(q: int, y_degree: int = 2) -> FrobAlg:
    """Taft algebra: g^q = 1, y^q = 0, yg = omega g y with omega = zeta_q.

    Basis y^k g^l for 0 <= k, l < q; tr(y^k g^l) = [k = q-1][l = 0];
    g is even of degree 0, y even of degree y_degree.
    """
    if q < 2:
        raise BadParams("taft algebra needs q >= 2")
    if y_degree < 0:
        raise BadParams("y degree must be nonnegative")
    dim = q * q
    idx = lambda k, l: k * q + l
    labels = []
    for k in range(q):
        for l in range(q):
            yk = "1" if k == 0 else ("y" if k == 1 else f"y^{k}")
            gl = "" if l == 0 else ("g" if l == 1 else f"g^{l}")
            if k == 0 and l > 0:
                labels.append(gl)
            elif l == 0:
                labels.append(yk)
            else:
                labels.append(f"{yk}*{gl}")

    def rule(i, j):
        k1, l1 = divmod(i, q)
        k2, l2 = divmod(j, q)
        if k1 + k2 >= q:
            return {}
        # (y^k1 g^l1)(y^k2 g^l2) = omega^{-l1 k2} y^{k1+k2} g^{l1+l2}
        return {idx(k1 + k2, (l1 + l2) % q): root_of_unity(q, -l1 * k2)}

    degrees = [y_degree * k for k in range(q) for _ in range(q)]
    unit = [1 if i == 0 else 0 for i in range(dim)]
    trace = [1 if i == idx(q - 1, 0) else 0 for i in range(dim)]
    return FrobAlg(
        labels,
        degrees,
        [0] * dim,
        [[rule(i, j) for j in range(dim)] for i in range(dim)],
        unit,
        trace,
        conductor=q,
        name=f"taft_{q}",
    )


def opposite_algebra(F: FrobAlg) -> FrobAlg:
    """F^op: a * b = (-1)^{|a||b|} b a, same trace."""
    cube = [
        [
            {k: -c if F.parities[i] and F.parities[j] else c for k, c in F.struct[j][i].items()}
            for j in range(F.dim)
        ]
        for i in range(F.dim)
    ]
    return FrobAlg(
        F.basis_labels,
        F.degrees,
        F.parities,
        cube,
        F.unit,
        F.trace_vec,
        conductor=F.conductor,
        name=F.name + "_op",
    )


# name -> (constructor, defaults of its integer parameters)
BUILTINS = {
    "trivial": (trivial_algebra, ()),
    "clifford": (clifford_algebra, ()),
    "dual_numbers": (dual_numbers_algebra, ()),
    "cyclic_group": (cyclic_group_algebra, (2,)),
    "taft": (taft_algebra, (2, 2)),
    "s3": (lambda: symmetric_group_algebra(3), ()),
}


def builtin(name: str, params=()) -> FrobAlg:
    """Construct a named builtin algebra from its integer parameters, given
    as ints or decimal strings: ``cyclic_group`` takes the order m (default
    2), ``taft`` takes q and the degree of y (defaults 2, 2).  Missing
    parameters take their defaults.  Text that cannot be read (an unknown
    name, a parameter that is not an integer, a surplus parameter) raises
    ParseError; a value the constructor refuses, such as q = 1 for
    ``taft``, raises BadParams."""
    if name not in BUILTINS:
        raise ParseError(f"unknown builtin algebra {name!r}")
    make, defaults = BUILTINS[name]
    if len(params) > len(defaults):
        raise ParseError(f"builtin {name!r} takes at most {len(defaults)} parameters")
    try:
        values = [int(p) for p in params]
    except ValueError as exc:
        raise ParseError(f"builtin {name!r}: parameters must be integers ({exc})") from exc
    return make(*values, *defaults[len(values):])


# -- morphism verification -------------------------------------------------------


class MorphismVerdict:
    """Result of check_frobenius_morphism; bool(verdict) is validity."""

    def __init__(self):
        self.failures: list[str] = []

    def fail(self, reason: str):
        self.failures.append(reason)

    def __bool__(self):
        return not self.failures

    def __repr__(self):
        return "valid" if self else f"invalid: {'; '.join(self.failures)}"


def check_frobenius_morphism(F: FrobAlg, G: FrobAlg, matrix, anti: bool = False) -> MorphismVerdict:
    """Check that matrix (rows = images of F's basis in G's coordinates) is a
    trace-preserving algebra (anti)homomorphism.

    For a valid antihomomorphism, additionally cross-checks tau psi =
    psi^{-1} tau and the dual-basis identity tau(b^vee)^vee = (-1)^{|b|} tau(b),
    raising InternalInconsistency if either fails.
    """
    if len(matrix) != F.dim or any(len(row) != G.dim for row in matrix):
        raise DimensionMismatch("morphism matrix has wrong shape")
    verdict = MorphismVerdict()
    images = [G.elem(row) for row in matrix]
    image_rows = [img.terms for img in images]
    tau = lambda terms: G.zero_elem()._like(_combine(terms, image_rows))

    for i, img in enumerate(images):
        if img.is_zero():
            continue
        deg, par = img.degree(), img.parity()
        if deg != F.degrees[i] or par != F.parities[i]:
            verdict.fail(f"image of {F.basis_labels[i]} is not homogeneous of the same type")

    if tau(F.unit_elem().terms) != G.unit_elem():
        verdict.fail("unit is not preserved")

    for i in range(F.dim):
        for j in range(F.dim):
            target = tau(F.struct[i][j])
            if anti:
                got = G.mul(images[j], images[i])
                if F.parities[i] and F.parities[j]:
                    got = -got
            else:
                got = G.mul(images[i], images[j])
            if got != target:
                kind = "antimultiplicative" if anti else "multiplicative"
                verdict.fail(
                    f"not {kind} on ({F.basis_labels[i]}, {F.basis_labels[j]})"
                )
                break
        else:
            continue
        break

    for i, img in enumerate(images):
        if img.trace() != F.trace_vec[i]:
            verdict.fail(f"trace not preserved on {F.basis_labels[i]}")
            break

    if verdict and anti:
        for i, img in enumerate(images):
            if tau(F.psi_on_basis(i)) != G.psi(img, -1):
                raise InternalInconsistency(
                    "tau psi != psi^{-1} tau for a valid anti-isomorphism"
                )
        # duals of the basis {tau(b^vee)} are (-1)^{|b|} tau(b)
        duals = G.dual_of_basis([tau(d.terms) for d in F.dual_basis()])
        for i, d in enumerate(duals):
            expected = images[i] if F.parities[i] == 0 else -images[i]
            if d != expected:
                raise InternalInconsistency("dual-basis identity fails for anti-isomorphism")
    return verdict
