"""Frobenius superalgebra construction, derived data, and morphism checks."""

import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awpa import linalg
from awpa.engine import AwpaAlgebra
from awpa.errors import (
    AwpaError,
    BadParams,
    BadSpec,
    DegenerateTrace,
    DimensionMismatch,
    GradingViolation,
    NakayamaInfiniteOrder,
    NoUnit,
    NotAssociative,
    ParseError,
)
from awpa.frobenius import (
    FrobAlg,
    builtin,
    check_frobenius_morphism,
    clifford_algebra,
    cyclic_group_algebra,
    dual_numbers_algebra,
    group_algebra,
    opposite_algebra,
    parse_alg_elem,
    symmetric_group_algebra,
    taft_algebra,
    trivial_algebra,
)
from awpa.scalars import CycScalar, lcm, parse_scalar, root_of_unity
from awpa.wreath import word_mul

from oracles import coords

GOLDEN = Path(__file__).parent / "golden"

ALL_BUILTINS = [
    trivial_algebra,
    clifford_algebra,
    dual_numbers_algebra,
    lambda: cyclic_group_algebra(2),
    lambda: cyclic_group_algebra(3),
    lambda: taft_algebra(2),
    lambda: taft_algebra(3),
    lambda: symmetric_group_algebra(3),
]


def test_trivial():
    F = trivial_algebra()
    assert (F.dim, F.theta, F.delta) == (1, 1, 0)
    assert F.dual_basis()[0] == F.unit_elem()


def test_elem_checks_the_coordinate_count():
    F = clifford_algebra()
    for vector in ([1, 2, 3], [5]):  # too long, too short
        with pytest.raises(DimensionMismatch):
            F.elem(vector)


def test_clifford():
    F = clifford_algebra()
    c = F.from_label("c")
    assert F.mul(c, c) == F.unit_elem()
    assert F.psi(c) == -c
    assert F.theta == 2
    # dual basis: 1^vee = 1, c^vee = c
    duals = F.dual_basis()
    assert duals[0] == F.unit_elem()
    assert duals[1] == c


def test_dual_numbers():
    F = dual_numbers_algebra()
    z = F.from_label("z")
    assert F.mul(z, z).is_zero()
    assert F.delta == 2
    duals = F.dual_basis()
    assert duals[0] == z and duals[1] == F.unit_elem()
    assert F.theta == 1


def test_cyclic_group():
    F = cyclic_group_algebra(2)
    assert F.dim == 2 and F.theta == 1
    g = F.from_label("g")
    assert F.mul(g, g) == F.unit_elem()


def test_taft():
    q = 3
    F = taft_algebra(q)
    g, y = F.from_label("g"), F.from_label("y")
    omega = root_of_unity(q)
    assert F.mul(g, F.mul(g, g)) == F.unit_elem()
    assert F.mul(y, F.mul(y, y)).is_zero()
    # yg = omega g y
    assert F.mul(y, g) == omega * F.mul(g, y)
    # psi(g) = omega g, psi(y) = y
    assert F.psi(g) == omega * g
    assert F.psi(y) == y
    assert F.theta == q
    assert F.delta == (q - 1) * 2


@pytest.mark.parametrize(
    "name,params,error",
    [("nope", [], ParseError), ("taft", ["abc"], ParseError), ("trivial", ["1"], ParseError),
     ("taft", ["1"], BadParams)],
)
def test_builtin_refusals(name, params, error):
    """Text that cannot be read is a ParseError; a readable value that the
    constructor refuses (q = 1 for taft) is BadParams."""
    with pytest.raises(error):
        builtin(name, params)


def test_group_algebra_validation():
    """group_algebra checks what it needs to build the unit; FrobAlg checks
    the structure constants the table gives."""
    with pytest.raises(BadParams):
        group_algebra([[0, 1], [1, 1]])  # no inverse
    with pytest.raises(BadParams):
        group_algebra([[1, 0], [1, 0]])  # no identity
    with pytest.raises(BadParams):
        group_algebra([[0, 1], [1]])  # not square
    # identity 0 and inverses, but (1*1)*2 = 0 while 1*(1*2) = 1
    with pytest.raises(NotAssociative, match=r"\(g1\*g1\)\*g2"):
        group_algebra([[0, 1, 2], [1, 2, 0], [2, 0, 0]])
    for entry in (3, -1):
        with pytest.raises(BadSpec, match="row index outside 0..2"):
            group_algebra([[0, 1, 2], [1, entry, 0], [2, 0, 1]])


def test_nakayama_of_infinite_order_is_refused():
    """The quantum plane k<x,y>/(x^2, y^2, yx - 2xy), basis 1, x, y, xy in
    degrees 0, 1, 1, 2, trace on xy: tr(xy) = 1 and tr(yx) = 2 give
    psi(x) = x/2, of infinite order."""
    struct = [[{} for _ in range(4)] for _ in range(4)]
    for b in range(4):
        struct[0][b] = struct[b][0] = {b: 1}
    struct[1][2] = {3: 1}
    struct[2][1] = {3: 2}
    with pytest.raises(NakayamaInfiniteOrder, match="bound 64"):
        FrobAlg(["1", "x", "y", "xy"], [0, 1, 1, 2], [0] * 4, struct, [1, 0, 0, 0], [0, 0, 0, 1])


@pytest.mark.parametrize("make", ALL_BUILTINS)
def test_expansion_identities(make):
    """sum_b b tr(b^vee f) = f and sum_b tr(f b) b^vee = f."""
    F = make()
    rng = random.Random(F.dim)
    duals = F.dual_basis()
    for _ in range(5):
        f = F.elem([Fraction(rng.randint(-3, 3)) for _ in range(F.dim)])
        lhs = F.zero_elem()
        for i in range(F.dim):
            lhs = lhs + F.mul(duals[i], f).trace() * F.basis_elem(i)
        assert lhs == f
        rhs = F.zero_elem()
        for i in range(F.dim):
            rhs = rhs + F.mul(f, F.basis_elem(i)).trace() * duals[i]
        assert rhs == f


@pytest.mark.parametrize("make", ALL_BUILTINS)
def test_double_dual_identity(make):
    """(b^vee)^vee = (-1)^{|b|} psi^{-1}(b)."""
    F = make()
    duals = F.dual_basis()
    double_duals = F.dual_of_basis(duals)
    for not_a_basis in ([F.zero_elem()] + duals[1:], duals[:-1]):
        with pytest.raises(DegenerateTrace):
            F.dual_of_basis(not_a_basis)
    for i in range(F.dim):
        expected = F.psi(F.basis_elem(i), power=F.theta - 1)
        if F.parities[i]:
            expected = -expected
        assert double_duals[i] == expected


@pytest.mark.parametrize("make", ALL_BUILTINS)
def test_nakayama_is_algebra_automorphism(make):
    F = make()
    for i in range(F.dim):
        for j in range(F.dim):
            prod = F.mul(F.basis_elem(i), F.basis_elem(j))
            assert F.psi(prod) == F.mul(F.psi(F.basis_elem(i)), F.psi(F.basis_elem(j)))


@pytest.mark.parametrize("make", ALL_BUILTINS)
def test_opposite_algebra_nakayama(make):
    """F^op is Frobenius with the same trace and Nakayama psi^{-1}."""
    F = make()
    op = opposite_algebra(F)
    assert op.theta == F.theta
    # inv[c] is the combination of the rows psi(b_r) that gives b_c
    inv = linalg.inverse([F.psi_on_basis(r) for r in range(F.dim)])
    assert [op.psi_on_basis(c) for c in range(op.dim)] == [inv[c] for c in range(F.dim)]


def test_graded_pieces_clifford():
    F = clifford_algebra()
    even = F.graded_piece(0)
    odd = F.graded_piece(1)
    assert len(even) == 1 and even[0] == F.unit_elem()
    assert odd == []
    assert len(F.graded_piece(2)) == 1


def test_graded_pieces_trivial():
    F = trivial_algebra()
    for k in (-2, -1, 0, 1, 2):
        piece = F.graded_piece(k)
        assert len(piece) == 1


def test_graded_pieces_taft():
    # y^{m-1} lies in F_psi^{(1-m)}
    q = 3
    F = taft_algebra(q)
    y = F.from_label("y")
    y2 = F.mul(y, y)
    for m in (2, 3):
        k = 1 - m
        piece = F.graded_piece(k)
        vecs = [coords(b) for b in piece]
        target = [y, y2][m - 2]
        assert linalg.in_span(vecs, coords(target))


def test_supercenter_taft():
    # F_psi^(0), the psi-fixed part of the supercenter of the Taft algebra:
    # g-components break centrality; just check 1 is there
    F = taft_algebra(2)
    piece = F.graded_piece(0)
    vecs = [coords(b) for b in piece]
    assert linalg.in_span(vecs, coords(F.unit_elem()))


# -- the dense reference for construction --------------------------------------
#
# The construction as it was before F was built on its rows: unit and
# associativity checked on dense coordinate vectors, theta found by powers of
# the dense Nakayama matrix, and the psi-eigenbasis as the nullspace of the
# dense shifted matrix, which F does not compute: psi^theta = 1 makes psi
# diagonalizable over Q(zeta_theta).


def _dense_mul(cube, u, v):
    """u v for dense coordinate vectors u and v."""
    out = [0 * x for x in u]
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            if a and b:
                out = [o + a * b * c for o, c in zip(out, cube[i][j])]
    return out


def reference_unit_and_associativity(cube, unit, m=1):
    """Raise NoUnit or NotAssociative as the element-based checks did."""
    cube = [[[CycScalar._coerce(c, m) for c in row] for row in plane] for plane in cube]
    unit = [CycScalar._coerce(c, m) for c in unit]
    dim = len(unit)
    basis = [[CycScalar.from_rational(int(i == j), m) for j in range(dim)] for i in range(dim)]
    for e in basis:
        if _dense_mul(cube, unit, e) != e or _dense_mul(cube, e, unit) != e:
            raise NoUnit("declared unit does not act as identity")
    for i, j, k in product(range(dim), repeat=3):
        left = _dense_mul(cube, _dense_mul(cube, basis[i], basis[j]), basis[k])
        right = _dense_mul(cube, basis[i], _dense_mul(cube, basis[j], basis[k]))
        if left != right:
            raise NotAssociative(f"({i}*{j})*{k} differs from the other bracketing")


def reference_frobenius_data(F):
    """theta, the dual and Nakayama matrices and the psi-eigenpairs of F,
    derived densely from the cube, unit and trace of F's JSON form."""
    data = F.to_json_dict()
    m, dim = data["conductor"], F.dim
    parse = lambda v: parse_scalar(v, m)
    cube = [[[parse(v) for v in row] for row in plane] for plane in data["mult"]]
    trace = [parse(v) for v in data["trace"]]
    # tr(b_i b_j) is the trace of the row of structure constants c[i][j]
    gram = [[sum((c * t for c, t in zip(row, trace)), CycScalar.zero(m)) for row in plane]
            for plane in cube]
    zero, one = CycScalar.zero(m), CycScalar.one(m)
    inv = linalg.inverse(gram)
    dual = [[inv[i].get(r, zero) for r in range(dim)] for i in range(dim)]
    signed = [[-x if F.parities[i] and F.parities[j] else x for j, x in enumerate(row)]
              for i, row in enumerate(gram)]
    nakayama = linalg.mat_mul(signed, [list(col) for col in zip(*dual)])
    ident = [[one if i == j else zero for j in range(dim)] for i in range(dim)]
    power, theta = nakayama, 1
    while power != ident:
        power = linalg.mat_mul(power, nakayama)
        theta += 1
        assert theta <= 64
    big = lcm(m, theta)
    nakayama = [[x.lift(big) for x in row] for row in nakayama]
    eigenvalues, eigenbasis = [], []
    for j in range(theta):
        ev = root_of_unity(theta, j).lift(big)
        shifted = [
            [nakayama[r][c] - (ev if r == c else CycScalar.zero()) for r in range(dim)]
            for c in range(dim)
        ]
        for vec in linalg.nullspace(shifted, range(dim)):
            eigenvalues.append(ev)
            eigenbasis.append(vec)
    return {
        "theta": theta,
        "dual_matrix": dual,
        "nakayama": nakayama,
        "psi_eigenvalues": eigenvalues,
        "psi_eigenbasis": eigenbasis,
    }


BUILTIN_SPECS = [
    "trivial", "clifford", "dual_numbers", "cyclic_group:3", "s3", "taft:2", "taft:3", "taft:4"
]


def _builtin(spec):
    name, *params = spec.split(":")
    return builtin(name, params)


@pytest.mark.parametrize("op", [False, True], ids=["F", "op"])
@pytest.mark.parametrize("spec", BUILTIN_SPECS)
def test_derived_data_matches_dense_reference(spec, op):
    """F's theta, dual and psi rows equal the dense reference's, and the
    reference's psi is diagonalizable with theta-th roots of unity as its
    eigenvalues, as FrobAlg's docstring states."""
    F = _builtin(spec)
    if op:
        F = opposite_algebra(F)
    ref = reference_frobenius_data(F)
    assert len(ref.pop("psi_eigenbasis")) == F.dim
    assert all(ev ** F.theta == 1 for ev in ref.pop("psi_eigenvalues"))
    # F's dual and psi rows, densified to the reference's matrices
    got = {
        "theta": F.theta,
        "dual_matrix": [coords(d) for d in F.dual_basis()],
        "nakayama": [coords(F.psi(F.basis_elem(i))) for i in range(F.dim)],
    }
    assert got == ref


def test_taft4_build_cost(monkeypatch):
    """A return to building F through dense elements shows as more scalar
    operations; the counts pin the row path, not its time."""
    counts = {"__bool__": 0, "__mul__": 0}
    for name in counts:

        def counting(*args, real=getattr(CycScalar, name), name=name):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(CycScalar, name, counting)
    taft_algebra(4)
    assert counts["__bool__"] < 10_000 and counts["__mul__"] < 5_000, counts


def _outcome(build):
    """NoUnit or NotAssociative if build raises it, else None."""
    try:
        build()
    except (NoUnit, NotAssociative) as exc:
        return type(exc)
    except AwpaError:
        pass
    return None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_row_checks_agree_with_reference(data):
    """One changed structure constant, kept inside the grading, raises the
    same NoUnit or NotAssociative (or neither) on both paths."""
    # Taft(3) and up take 0.2 s and more per example on the dense reference
    F = _builtin(data.draw(st.sampled_from(BUILTIN_SPECS[:-2])))
    cube = [[[F.scalar(row.get(k, 0)) for k in range(F.dim)] for row in plane]
            for plane in F.struct]
    graded = [
        (i, j, k)
        for i, j, k in product(range(F.dim), repeat=3)
        if F.degrees[k] == F.degrees[i] + F.degrees[j]
        and F.parities[k] == (F.parities[i] + F.parities[j]) % 2
    ]
    i, j, k = data.draw(st.sampled_from(graded))
    cube[i][j][k] = F.scalar(data.draw(st.integers(-2, 2)))
    rows = _outcome(lambda: FrobAlg(F.basis_labels, F.degrees, F.parities, cube, F.unit,
                                    F.trace_vec, conductor=F.conductor))
    assert rows == _outcome(lambda: reference_unit_and_associativity(cube, F.unit, F.conductor))


def test_build_errors():
    # non-associative: a*a = b, a*b = 1, b*a = 0 has (aa)a = 0 != 1 = a(aa);
    # wrong unit; a unit that is a left identity only: a*1 = 0
    nonassociative = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    ]
    one_sided = [[[1, 0], [0, 1]], [[0, 0], [0, 0]]]
    for error, labels, cube in [
        (NotAssociative, ["1", "a", "b"], nonassociative),
        (NoUnit, ["1"], [[[2]]]),
        (NoUnit, ["1", "a"], one_sided),
    ]:
        dim = len(labels)
        unit = [int(i == 0) for i in range(dim)]
        with pytest.raises(error):
            FrobAlg(labels, [0] * dim, [0] * dim, cube, unit, unit)
        with pytest.raises(error):
            reference_unit_and_associativity(cube, unit)
    # labels the element grammars cannot read back: repeated, empty, not a
    # string, or holding a sign, comma, bracket or whitespace
    cl = clifford_algebra()
    for labels in (["1", "1"], ["1", ""], ["1", 2], ["1", None], ["1", "c-1"], ["1", "+c"],
                   ["a,b", "c"], ["1", "(c)"], ["1", "c]"], ["1", "[c"], ["1", "c d"],
                   ["1", "c\t"]):
        with pytest.raises(BadSpec, match="label"):
            FrobAlg(labels, cl.degrees, cl.parities, cl.struct, cl.unit, cl.trace_vec)
    with pytest.raises(BadSpec, match="basis must be a list"):
        FrobAlg.from_json_dict({**cl.to_json_dict(), "basis": "1c"})
    # grading violation: z * z = 1 with |z| = 2
    with pytest.raises(GradingViolation):
        FrobAlg(
            ["1", "z"],
            [0, 2],
            [0, 0],
            [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
            [1, 0],
            [0, 1],
        )
    # degenerate trace: ungraded k[z]/(z^2) with tr = coefficient of 1
    with pytest.raises(DegenerateTrace):
        FrobAlg(
            ["1", "z"],
            [0, 0],
            [0, 0],
            [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
            [1, 0],
            [1, 0],
        )
    # trace not supported in top degree
    with pytest.raises(GradingViolation):
        FrobAlg(
            ["1", "z"],
            [0, 2],
            [0, 0],
            [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
            [1, 0],
            [1, 1],
        )


def test_morphism_identity_on_clifford():
    F = clifford_algebra()
    assert check_frobenius_morphism(F, F, [[1, 0], [0, 1]], anti=False)


def test_morphism_rejects_scaled_dual_numbers():
    # z -> 2z is an algebra automorphism but not trace-preserving
    F = dual_numbers_algebra()
    verdict = check_frobenius_morphism(F, F, [[1, 0], [0, 2]], anti=False)
    assert not verdict
    assert any("trace" in r for r in verdict.failures)


def test_morphism_anti_clifford():
    """Under the super opposite-multiplication convention, c -> ic (not
    c -> -c) gives the trace-preserving anti-isomorphism of Cl; the check
    verifies tau psi = psi^{-1} tau and tau(b^vee)^vee = (-1)^{|b|} tau(b)."""
    F = clifford_algebra()
    i4 = root_of_unity(4)
    assert check_frobenius_morphism(
        F, F, [[F.scalar(1), F.scalar(0)], [F.scalar(0), i4]], anti=True
    )
    assert not check_frobenius_morphism(F, F, [[1, 0], [0, -1]], anti=True)


def test_morphism_anti_symmetric_group():
    """Inversion extends to an anti-automorphism of a group algebra."""
    F = symmetric_group_algebra(3)
    from awpa import permutations as perms
    from oracles import perm_inverse

    elems = perms.all_permutations(3)
    mat = [[0] * 6 for _ in range(6)]
    for i, p in enumerate(elems):
        mat[i][elems.index(perm_inverse(p))] = 1
    assert check_frobenius_morphism(F, F, mat, anti=True)


@pytest.mark.parametrize("make", ALL_BUILTINS)
def test_serialization_roundtrip(make):
    F = make()
    data = F.to_json_dict()
    G = FrobAlg.from_json_dict(data)
    assert G.basis_labels == F.basis_labels
    assert G.degrees == F.degrees
    assert G.parities == F.parities
    assert G.theta == F.theta
    assert G.struct == F.struct
    assert G.trace_vec == F.trace_vec


def test_file_roundtrip(tmp_path):
    F = taft_algebra(3)
    path = tmp_path / "taft3.json"
    F.dump(path)
    G = FrobAlg.load(path)
    assert G.to_json_dict() == F.to_json_dict()


def test_parse_alg_elem():
    F = taft_algebra(3)
    e = parse_alg_elem(F, "2*y + 1/3*g - y*g")
    expected = (
        F.scalar(2) * F.from_label("y")
        + F.scalar(Fraction(1, 3)) * F.from_label("g")
        - F.from_label("y*g")
    )
    assert e == expected
    Cl = clifford_algebra()
    assert parse_alg_elem(Cl, "1 + c") == Cl.unit_elem() + Cl.from_label("c")


def _trace_changed_taft3():
    ctx = AwpaAlgebra(taft_algebra(3), 1)
    return ctx.automorphism("trace_change", u=ctx.F.from_label("g")).target.F


ROW_ALGEBRAS = [
    *ALL_BUILTINS,
    lambda: opposite_algebra(clifford_algebra()),
    _trace_changed_taft3,
    lambda: FrobAlg.from_json_dict(taft_algebra(3).to_json_dict()),
]


def _is_row(row, dim) -> bool:
    return isinstance(row, dict) and set(row) <= set(range(dim)) and all(row.values())


@pytest.mark.parametrize("make", ROW_ALGEBRAS)
def test_structure_constants_and_psi_powers_are_rows(make):
    """F hands out b_i b_j and psi^k(b_i) as zero-free {basis index: scalar}."""
    F = make()
    assert all(_is_row(F.struct[i][j], F.dim) for i in range(F.dim) for j in range(F.dim))
    for k in range(-1, F.theta + 1):
        assert all(_is_row(F.psi_on_basis(i, k), F.dim) for i in range(F.dim))


def test_dict_rows_are_accepted_and_checked():
    rows = [[{(i + j) % 2: 1} for j in range(2)] for i in range(2)]
    F = FrobAlg(["1", "c"], [0, 0], [0, 1], rows, [1, 0], [1, 0])
    assert F.to_json_dict()["mult"] == clifford_algebra().to_json_dict()["mult"]
    rows[1][1] = {0: 1, 2: 0}
    with pytest.raises(BadSpec):
        FrobAlg(["1", "c"], [0, 0], [0, 1], rows, [1, 0], [1, 0])


@pytest.mark.parametrize(
    "make",
    [clifford_algebra, lambda: symmetric_group_algebra(3), lambda: taft_algebra(3)],
    ids=["clifford", "s3", "taft3"],
)
def test_word_mul_matches_dense_cube(make):
    """word_mul against the slotwise product read from the dense JSON cube,
    with the Koszul sign sum_{i > j} |a_i||c_j| counted pair by pair; each
    pair is asked twice, so the memo's hit path is checked too."""
    F = make()
    data = F.to_json_dict()
    cube = [
        [[parse_scalar(v, data["conductor"]) for v in row] for row in plane]
        for plane in data["mult"]
    ]
    rng = random.Random(11)
    for _ in range(30):
        w1 = tuple(rng.randrange(F.dim) for _ in range(3))
        w2 = tuple(rng.randrange(F.dim) for _ in range(3))
        odd = sum(
            F.parities[w1[i]] * F.parities[w2[j]] for i in range(3) for j in range(i)
        )
        expected = {}
        for word in product(range(F.dim), repeat=3):
            c = F.scalar(-1 if odd % 2 else 1)
            for s, k in enumerate(word):
                c = c * cube[w1[s]][w2[s]][k]
            if c:
                expected[word] = c
        assert word_mul(F, w1, w2) == expected
        assert word_mul(F, w1, w2) == expected


@pytest.mark.parametrize("spec,name", [("clifford", "clifford"), ("taft:3", "taft3")])
def test_to_json_dict_golden(spec, name):
    """The JSON form keeps the dense cube, byte for byte."""
    algebra, _, params = spec.partition(":")
    F = builtin(algebra, [params] if params else [])
    text = json.dumps(F.to_json_dict(), indent=1) + "\n"
    assert text == (GOLDEN / f"to-json-{name}.json").read_text()
