"""Acceptance criteria, one test per criterion.

Scale: F ranges over the eight desk algebras, n <= 3 (n <= 4 for the
intertwiner identities), levels d <= 3.  All arithmetic is exact, so every
comparison below is exact equality; there are no tolerances anywhere.
Each test prints one PASS line on success.
"""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import awpa
from awpa import linalg
from awpa import permutations as perms
from awpa.cyclotomic import (
    CycloElem,
    CyclotomicAlgebra,
    InductionStructure,
    make_params,
)
from awpa.engine import AwpaAlgebra, AwpaElem
from awpa.frobenius import (
    clifford_algebra,
    cyclic_group_algebra,
    dual_numbers_algebra,
    symmetric_group_algebra,
    taft_algebra,
    trivial_algebra,
)
from awpa.verify import random_element, run_suite
from awpa.wreath import word_parity

from oracles import (
    compositions,
    expected_pnf_centralizer,
    level_one_matches_wreath,
    mackey_dimension_report,
    pnf_generators,
    same_span,
)

ALGEBRAS = [
    ("k", trivial_algebra),
    ("Cl", clifford_algebra),
    ("k[z]/(z^2)", dual_numbers_algebra),
    ("kZ2", lambda: cyclic_group_algebra(2)),
    ("kZ3", lambda: cyclic_group_algebra(3)),
    ("Taft(2)", lambda: taft_algebra(2)),
    ("Taft(3)", lambda: taft_algebra(3)),
    ("kS3", lambda: symmetric_group_algebra(3)),
]

_CTX_CACHE: dict = {}


def get_ctx(name: str, n: int) -> AwpaAlgebra:
    if (name, n) not in _CTX_CACHE:
        make = dict(ALGEBRAS)[name]
        _CTX_CACHE[(name, n)] = AwpaAlgebra(make(), n)
    return _CTX_CACHE[(name, n)]


def element_sizes(ctx: AwpaAlgebra) -> tuple[int, int]:
    """(terms, max_exponent) for random elements, scaled to the word count."""
    words = ctx.F.dim ** ctx.n
    if words > 100:
        return 1, 1
    if words > 20:
        return 2, 1
    return 2, 2


def test_criterion_1_relation_suite():
    """All defining and derived relations on >= 200 randomized instances per
    (F, n), within the 60 s budget."""
    start = time.time()
    for name, _ in ALGEBRAS:
        for n in (1, 2, 3):
            ctx = get_ctx(name, n)
            counts, failures = run_suite(ctx.F, n, seed=2024, instances=200)
            assert not failures, (name, n, failures)
            assert sum(c for _, c in counts) >= 200
    elapsed = time.time() - start
    assert elapsed < 60.0, f"relation suite exceeded the 60 s budget: {elapsed:.1f}s"
    print(f"PASS criterion 1: relation suite, 200 instances x 24 configs in {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence_and_associativity():
    """normal_form_mul agrees with the V-module oracle on >= 100 random
    pairs per (F, n); associativity on >= 50 random triples."""
    rng = random.Random(2025)
    for name, _ in ALGEBRAS:
        for n in (1, 2, 3):
            ctx = get_ctx(name, n)
            terms, max_exp = element_sizes(ctx)
            for _ in range(100):
                a = random_element(ctx, rng, terms=terms, max_exp=max_exp)
                b = random_element(ctx, rng, terms=terms, max_exp=max_exp)
                lhs = ctx.element_to_module(ctx.mul(a, b))
                rhs = ctx.oracle_act(a, ctx.element_to_module(b))
                assert lhs == rhs, (name, n)
            for _ in range(50):
                a = random_element(ctx, rng, terms=terms, max_exp=max_exp)
                b = random_element(ctx, rng, terms=terms, max_exp=max_exp)
                c = random_element(ctx, rng, terms=terms, max_exp=max_exp)
                assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c)), (name, n)
    print("PASS criterion 2: oracle equivalence (100 pairs) and associativity "
          "(50 triples) per (F, n)")


def test_criterion_3_graded_dimension():
    """Monomial counts match n!(grdim F/(1-q^delta))^n up to degree 4 delta
    for the delta > 0 builtins."""
    for name in ("k[z]/(z^2)", "Taft(2)", "Taft(3)"):
        for n in (1, 2, 3):
            ctx = get_ctx(name, n)
            assert ctx.F.delta > 0
            cutoff = 4 * ctx.F.delta
            counts = ctx.graded_dimension(cutoff)
            series = ctx.graded_dimension_series(cutoff)
            assert counts == series, (name, n)
    print("PASS criterion 3: graded dimensions match the closed form up to q^(4 delta)")


def _monomial_coords(ctx, elems, bound):
    keys = ctx.candidate_monomials(bound)
    index = {k: i for i, k in enumerate(keys)}
    out = []
    for e in elems:
        v = [ctx.F.scalar(0)] * len(keys)
        for k, c in e.terms.items():
            v[index[k]] = c
        out.append(v)
    return out


def test_criterion_4_center():
    """(a) symmetric polynomials in x^theta are central for every builtin;
    (b) the degree-<=2 central space of A_2(Cl) is exactly the truncated
    symmetric polynomials in x_1^2, x_2^2; (c) the centralizer of P_n(F)
    equals (+) x^alpha F_psi^(-alpha), truncated."""
    for name, _ in ALGEBRAS:
        ctx = get_ctx(name, 2)
        th = ctx.F.theta
        e1 = ctx.x(1, th) + ctx.x(2, th)
        e2 = ctx.mul(ctx.x(1, th), ctx.x(2, th))
        assert ctx.is_central(e1), name
        assert ctx.is_central(e2), name
    for name in ("k", "Cl"):
        ctx = get_ctx(name, 3)
        th = ctx.F.theta
        e1 = ctx.x(1, th) + ctx.x(2, th) + ctx.x(3, th)
        assert ctx.is_central(e1), name

    ctx = get_ctx("Cl", 2)
    central = ctx.center_up_to_degree(2)
    expected = [ctx.one(), ctx.x(1, 2) + ctx.x(2, 2)]
    assert same_span(
        _monomial_coords(ctx, central, 2), _monomial_coords(ctx, expected, 2)
    )

    for name, n, bound in [("Cl", 2, 2), ("kZ2", 2, 1), ("Taft(2)", 1, 2), ("k", 2, 2)]:
        ctx = get_ctx(name, n)
        got = ctx.centralizer_up_to_degree(pnf_generators(ctx), bound)
        expected = expected_pnf_centralizer(ctx, bound)
        assert same_span(
            _monomial_coords(ctx, got, bound), _monomial_coords(ctx, expected, bound)
        ), (name, n)
    print("PASS criterion 4: center and centralizer match the structural description")


def test_criterion_5_jucys_murphy():
    """evaluation_hom is multiplicative on >= 100 random pairs and restricts
    to the identity on the wreath subalgebra."""
    rng = random.Random(2026)
    pairs = 0
    for name, _ in ALGEBRAS:
        ctx = get_ctx(name, 2)
        terms, max_exp = element_sizes(ctx)
        for _ in range(14):
            a = random_element(ctx, rng, terms=terms, max_exp=max_exp)
            b = random_element(ctx, rng, terms=terms, max_exp=max_exp)
            assert ctx.evaluation_hom(ctx.mul(a, b)) == ctx.graded_mul(
                ctx.evaluation_hom(a), ctx.evaluation_hom(b)
            ), name
            pairs += 1
        # identity on the wreath subalgebra
        for _ in range(5):
            word = tuple(rng.randrange(ctx.F.dim) for _ in range(2))
            pi = rng.choice(perms.all_permutations(2))
            w = ctx.monomial(ctx.zero_alpha, word, pi)
            assert ctx.evaluation_hom(w) == w, name
    assert pairs >= 100
    print(f"PASS criterion 5: evaluation_hom multiplicative on {pairs} pairs, "
          "identity on the wreath subalgebra")


# Criteria 2, 4 and 5 on A_2(Cl) in one script that compares the results
# itself and exits 1 on any mismatch.  With the argument "broken", graded_mul
# drops the last term of its product, so a criterion 5 comparison must fail;
# with "flat", superpermute_elem returns its input unchanged, so a criterion 4
# verdict must fail; with "wrongmul", mul drops the last term of its product,
# so the oracle equivalence of criterion 2, which never calls mul on the
# module side, must fail, and so must the dimension of the centre solve; with
# "wrongstep", the s_i step that mul and oracle_act share adds Delta_i instead
# of subtracting it, so the oracle equivalence cannot see it and the
# evaluation map of criterion 5 must.  Criterion 8 runs on the quotient
# Cl d=1 n=2 (dim 8); with "wrongpsi", F's psi is the identity, as dropping
# the parity sign (-1)^{|b_i|} from psi(b_i) makes it on Cl, so the
# quotient's Nakayama identity must fail.
OPTIMIZED_CRITERIA = """
import random, sys
from awpa.cyclotomic import CyclotomicAlgebra, make_params, nakayama_counterexample
from awpa.engine import AwpaAlgebra
from awpa.errors import InternalInconsistency
from awpa.frobenius import clifford_algebra
from awpa.textio import sort_key
from awpa.verify import random_element
def dropping_top(real):
    # the product without its largest term under sort_key, which does not
    # depend on the order the kernel inserts terms in
    def wrong(ctx, a, b):
        terms = real(ctx, a, b).terms
        top = max(terms, key=sort_key, default=None)
        return ctx._elem({k: c for k, c in terms.items() if k != top})
    return wrong
if sys.argv[1:] == ["broken"]:
    AwpaAlgebra.graded_mul = dropping_top(AwpaAlgebra.graded_mul)
if sys.argv[1:] == ["flat"]:
    AwpaAlgebra.superpermute_elem = lambda ctx, pi, a: a
if sys.argv[1:] == ["wrongmul"]:
    AwpaAlgebra.mul = dropping_top(AwpaAlgebra.mul)
if sys.argv[1:] == ["wrongstep"]:
    # _act_simple is the only caller of _delta_mono that this script reaches
    delta = AwpaAlgebra._delta_mono
    AwpaAlgebra._delta_mono = lambda ctx, i, a, w: {k: -c for k, c in delta(ctx, i, a, w).items()}
F = clifford_algebra()
if sys.argv[1:] == ["wrongpsi"]:
    F._psi_rows, F.theta = F._psi_rows[:1], 1  # psi^0, the identity rows
ctx = AwpaAlgebra(F, 2)
ev, rng, failed = ctx.evaluation_hom, random.Random(2025), set()
for _ in range(30):
    a, b, c = (random_element(ctx, rng) for _ in range(3))
    if ctx.element_to_module(ctx.mul(a, b)) != ctx.oracle_act(a, ctx.element_to_module(b)):
        failed.add("2: oracle equivalence")
    if ctx.mul(ctx.mul(a, b), c) != ctx.mul(a, ctx.mul(b, c)):
        failed.add("2: associativity")
    if ev(ctx.mul(a, b)) != ctx.graded_mul(ev(a), ev(b)):
        failed.add("5: evaluation map multiplicativity")
    w = random_element(ctx, rng, max_exp=0)
    if ev(w) != w:
        failed.add("5: identity on the wreath subalgebra")
def central(z):
    try:
        return bool(ctx.is_central(z))
    except InternalInconsistency:  # the two routes of is_central disagree
        return None
if central(ctx.x(1, 2) + ctx.x(2, 2)) is not True:
    failed.add("4: x_1^2 + x_2^2 central")
if central(ctx.x(1, 2)) is not False:
    failed.add("4: x_1^2 not central")
if len(ctx.center_up_to_degree(3)) != 2:  # 1 and x_1^2 + x_2^2
    failed.add("4: centre dimension")
Q = CyclotomicAlgebra(make_params(F, {1: [F.zero_elem()]}), 2)
if not Q.gram_matrix()[1]:
    failed.add("8: Gram invertible")
if nakayama_counterexample(Q, 50, 1) is not None:
    failed.add("8: Nakayama identity")
print("__debug__", __debug__, "failed", sorted(failed))
sys.exit(1 if failed or __debug__ else 0)
"""


def _optimized_criteria(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(awpa.__file__).resolve().parent.parent))
    return subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CRITERIA, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_criteria_2_and_5_under_python_O():
    """Oracle equivalence, associativity, the evaluation map, the centre
    verdicts and the quotient's Gram and Nakayama identity hold with every
    assert stripped, and the script does catch a wrong product."""
    proc = _optimized_criteria()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "__debug__ False failed []\n"
    broken = _optimized_criteria("broken")
    assert broken.returncode == 1, broken.stdout + broken.stderr
    assert "5: " in broken.stdout and "2: " not in broken.stdout
    print("PASS criteria 2, 4 and 5 on A_2(Cl) and 8 on Cl d=1 n=2 under python -O")


def test_criterion_4_under_python_O():
    """The centre verdicts of the script above catch a superpermutation that
    moves nothing, and only they do; the dimension of the centre to degree
    3 catches a product that drops a term."""
    flat = _optimized_criteria("flat")
    assert flat.returncode == 1, flat.stdout + flat.stderr
    assert "4: " in flat.stdout
    assert "2: " not in flat.stdout and "5: " not in flat.stdout
    wrong = _optimized_criteria("wrongmul")
    assert wrong.returncode == 1, wrong.stdout + wrong.stderr
    assert "4: centre dimension" in wrong.stdout
    print("PASS criterion 4 under python -O on A_2(Cl)")


def test_criterion_5_under_python_O_catches_a_wrong_step():
    """A wrong s_i step reaches mul and oracle_act alike, so the oracle
    equivalence agrees with it; the evaluation map of the script above,
    whose graded_mul does not step, catches a step whose Delta_i sign is
    flipped."""
    wrong = _optimized_criteria("wrongstep")
    assert wrong.returncode == 1, wrong.stdout + wrong.stderr
    assert "5: evaluation map multiplicativity" in wrong.stdout
    print("PASS criterion 5 under python -O catches a wrong s_i step on A_2(Cl)")


def test_criterion_8_under_python_O_catches_a_wrong_psi():
    """The Nakayama identity of the quotient Cl d=1 n=2 in the script above
    catches an F whose psi lost its parity sign; its Gram stays invertible."""
    wrong = _optimized_criteria("wrongpsi")
    assert wrong.returncode == 1, wrong.stdout + wrong.stderr
    assert "8: Nakayama identity" in wrong.stdout
    assert "8: Gram invertible" not in wrong.stdout
    print("PASS criterion 8 catches a wrong psi under python -O on Cl d=1 n=2")


def test_criterion_2_under_python_O_catches_a_wrong_product():
    """The oracle equivalence of the script above, whose module side is
    A_n(F) acted on by oracle_act, catches a product that drops a term."""
    wrong = _optimized_criteria("wrongmul")
    assert wrong.returncode == 1, wrong.stdout + wrong.stderr
    assert "2: oracle equivalence" in wrong.stdout
    print("PASS criterion 2 catches a wrong product under python -O on A_2(Cl)")


def test_criterion_6_intertwiners():
    """Omega identities for all i, all builtins, n <= 4."""
    for name, _ in ALGEBRAS:
        for n in (2, 3, 4):
            ctx = get_ctx(name, n)
            th = ctx.F.theta
            omegas = {i: ctx.intertwiner(i) for i in range(1, n)}
            for i in range(1, n):
                om = omegas[i]
                t = ctx.t_element(i, i + 1, th)
                diff = ctx.x(i, th) - ctx.x(i + 1, th)
                assert ctx.mul(om, om) == ctx.mul(t, t) - ctx.mul(diff, diff), (
                    name, n, i, "Omega-squared")
                si = perms.simple(n, i)
                for j in range(1, n + 1):
                    assert ctx.mul(om, ctx.x(j)) == ctx.mul(ctx.x(si[j - 1]), om), (
                        name, n, i, j, "Omega-x")
                    for b in range(ctx.F.dim):
                        fj = ctx.slot_elem(ctx.F.basis_elem(b), j)
                        fsj = ctx.slot_elem(ctx.F.basis_elem(b), si[j - 1])
                        assert ctx.mul(om, fj) == ctx.mul(fsj, om), (
                            name, n, i, j, b, "Omega-f")
                for j in range(i + 2, n):
                    assert ctx.mul(om, omegas[j]) == ctx.mul(omegas[j], om), (
                        name, n, i, j, "Omega-distant")
    print("PASS criterion 6: intertwiner identities for all builtins, n <= 4")


def cyclo_configs():
    """(label, params, n) across the desk algebras, d <= 3, sizes bounded."""
    k = trivial_algebra()
    Cl = clifford_algebra()
    D = dual_numbers_algebra()
    Z2 = cyclic_group_algebra(2)
    Z3 = cyclic_group_algebra(3)
    T2 = taft_algebra(2)
    T3 = taft_algebra(3)
    S3 = symmetric_group_algebra(3)
    half = Fraction(1, 2)
    return [
        ("k d=1 n=2", make_params(k, {1: [k.zero_elem()]}), 2),
        ("k d=2 n=2", make_params(k, {1: [k.zero_elem(), k.unit_elem()]}), 2),
        ("k d=3 n=2", make_params(k, {1: [k.zero_elem(), k.unit_elem(), -k.unit_elem()]}), 2),
        ("k d=1 n=3", make_params(k, {1: [k.zero_elem()]}), 3),
        ("Cl d=1 n=2", make_params(Cl, {1: [Cl.zero_elem()]}), 2),
        ("Cl d=2 n=2", make_params(Cl, {2: [Cl.scalar(half) * Cl.unit_elem()]}), 2),
        ("Cl d=2 n=1", make_params(Cl, {2: [Cl.zero_elem()]}), 1),
        ("Cl d=3 n=1", make_params(Cl, {1: [Cl.zero_elem()], 2: [Cl.unit_elem()]}), 1),
        ("dual d=1 n=2", make_params(D, {1: [D.from_label("z")]}), 2),
        ("dual d=2 n=1", make_params(D, {1: [D.from_label("z"), D.zero_elem()]}), 1),
        ("Z2 d=1 n=2", make_params(Z2, {1: [Z2.zero_elem()]}), 2),
        ("Z3 d=1 n=2", make_params(Z3, {1: [Z3.zero_elem()]}), 2),
        ("T2 d=1 n=1", make_params(T2, {1: [T2.from_label("y")]}), 1),
        ("T2 d=2 n=1", make_params(T2, {2: [T2.zero_elem()]}), 1),
        ("T3 d=3 n=1", make_params(T3, {3: [T3.zero_elem()]}), 1),
        ("S3 d=1 n=2", make_params(S3, {1: [S3.zero_elem()]}), 2),
    ]


_QALG_CACHE: dict = {}


def get_qalgs():
    if not _QALG_CACHE:
        for label, params, n in cyclo_configs():
            _QALG_CACHE[label] = CyclotomicAlgebra(params, n)
    return _QALG_CACHE


def random_cyclo(Q, rng, terms=2, parity_homogeneous=False):
    keys = Q.basis_keys()
    if parity_homogeneous:
        par = rng.randrange(2)
        keys = [k for k in keys if word_parity(Q.F, k[1]) == par] or Q.basis_keys()
    t = {}
    for _ in range(terms):
        t[rng.choice(keys)] = Q.F.scalar(rng.randint(-3, 3))
    return CycloElem(Q, AwpaElem(Q.ctx, t))


def test_criterion_7_cyclotomic_basis():
    """dim A_n^C(F) = n!(d dim F)^n via the closure rank; the level-one
    quotient has the wreath product's structure constants and factors
    through the evaluation map."""
    rng = random.Random(2027)
    for label, Q in get_qalgs().items():
        dim = Q.dim()
        keys = list(Q.basis_keys())
        rng.shuffle(keys)
        shuffled_v = list(keys)
        rng.shuffle(shuffled_v)
        # rank of the span of products of basis monomials; the stream covers
        # all pairs, with an early stop once the span is full
        def product_rows():
            for ku in keys:
                u = CycloElem(Q, Q.ctx.monomial(*ku))
                for kv in shuffled_v:
                    v = CycloElem(Q, Q.ctx.monomial(*kv))
                    yield Q.mul(u, v).terms

        rows = []
        rank_now = 0
        for row in product_rows():
            rows.append(row)
            if len(rows) % 16 == 0:
                rank_now = linalg.rank(rows)
                if rank_now == dim:
                    break
                if len(rows) > 8 * dim:
                    # keep the matrix small: drop rows already in the span
                    red, pivots = linalg.rref(rows)
                    rows = red[: len(pivots)]
        assert rank_now == dim or linalg.rank(rows) == dim, label
        # reduce is an algebra map; cyclo_mul is associative
        for _ in range(6):
            a = random_element(Q.ctx, rng, terms=1, max_exp=Q.d)
            b = random_element(Q.ctx, rng, terms=1, max_exp=Q.d)
            assert Q.reduce(Q.ctx.mul(a, b)) == Q.mul(Q.reduce(a), Q.reduce(b)), label
        for _ in range(4):
            a, b, c = (random_cyclo(Q, rng) for _ in range(3))
            assert Q.mul(Q.mul(a, b), c) == Q.mul(a, Q.mul(b, c)), label
    # level-one quotients match the wreath product exactly
    for name, _ in ALGEBRAS:
        F = get_ctx(name, 2).F
        Q = CyclotomicAlgebra(make_params(F, {1: [F.zero_elem()]}), 2)
        assert level_one_matches_wreath(Q), name
        for _ in range(8):
            a = random_element(Q.ctx, rng, terms=2, max_exp=1)
            assert Q.reduce(a).elem == Q.ctx.evaluation_hom(a), name
    print("PASS criterion 7: cyclotomic basis dimensions and level-one wreath "
          "isomorphism")


def test_criterion_8_cyclotomic_frobenius():
    """Gram matrix of tr_C invertible for every configuration; the Nakayama
    identity holds on >= 200 random pairs; symmetry occurs exactly when
    theta | d."""
    rng = random.Random(2028)
    pair_count = 0
    for label, Q in get_qalgs().items():
        _, invertible = Q.gram_matrix()
        assert invertible, label
        for _ in range(15):
            a = random_cyclo(Q, rng, parity_homogeneous=True)
            b = random_cyclo(Q, rng, parity_homogeneous=True)
            assert Q.nakayama_identity_holds(a, b), label
            pair_count += 1
        # symmetry criterion: nu = id exactly when theta | d
        expected_symmetric = Q.d % Q.F.theta == 0
        assert Q.is_symmetric() == expected_symmetric, label
        nu_is_identity = all(
            Q.nakayama(CycloElem(Q, Q.ctx.monomial(*k)))
            == CycloElem(Q, Q.ctx.monomial(*k))
            for k in Q.basis_keys()[: min(24, Q.dim())]
        )
        assert nu_is_identity == expected_symmetric, label
    assert pair_count >= 200
    print(f"PASS criterion 8: Gram invertible in all configs, Nakayama identity "
          f"on {pair_count} pairs, symmetric iff theta | d")


def test_criterion_9_frobenius_extension():
    """Partial-trace bimodule property on >= 100 triples and the composition
    identity tr_C^(n+1) = tr_C^n o tr^C_(n+1) on >= 100 elements."""
    k = trivial_algebra()
    Cl = clifford_algebra()
    structures = [
        InductionStructure(make_params(k, {1: [k.zero_elem()]}), 1),
        InductionStructure(make_params(k, {1: [k.zero_elem(), k.unit_elem()]}), 1),
        InductionStructure(make_params(Cl, {2: [Cl.zero_elem()]}), 1),
        InductionStructure(make_params(k, {1: [k.zero_elem()]}), 2),
    ]
    rng = random.Random(2029)
    triples = 0
    compositions = 0
    for ind in structures:
        for _ in range(26):
            a = random_cyclo(ind.small, rng)
            b = random_cyclo(ind.small, rng)
            z = random_cyclo(ind.big, rng)
            lhs = ind.partial_trace(
                ind.big.mul(ind.big.mul(ind.embed(a), z), ind.embed(b))
            )
            rhs = ind.small.mul(ind.small.mul(a, ind.partial_trace(z)), b)
            assert lhs == rhs
            triples += 1
        for _ in range(26):
            z = random_cyclo(ind.big, rng)
            # tr_C^{n+1} = tr_C^n o tr^C_{n+1}
            assert ind.big.trace(z) == ind.small.trace(ind.partial_trace(z))
            compositions += 1
    assert triples >= 100 and compositions >= 100
    print(f"PASS criterion 9: partial-trace bimodule property on {triples} triples, "
          f"composition identity on {compositions} elements")


def test_criterion_10_mackey_dimensions():
    """Affine Mackey dimension identity at polynomial cutoff for all
    composition pairs of n <= 3; cyclotomic version
    dim A_(n+1)^C = d dim F dim A_n^C + n d dim F dim A_n^C."""
    for name in ("k", "Cl", "k[z]/(z^2)"):
        for n in (1, 2, 3):
            ctx = get_ctx(name, n)
            for mu in compositions(n):
                for nu in compositions(n):
                    for cutoff in (0, 2):
                        report = mackey_dimension_report(ctx, mu, nu, cutoff)
                        assert report.equal, (name, report)
                        assert report.phi_checked, (name, report)
    k = trivial_algebra()
    Cl = clifford_algebra()
    for params, n in [
        (make_params(k, {1: [k.zero_elem()]}), 1),
        (make_params(k, {1: [k.zero_elem(), k.unit_elem()]}), 1),
        (make_params(Cl, {2: [Cl.zero_elem()]}), 1),
        (make_params(k, {1: [k.zero_elem()]}), 2),
    ]:
        ind = InductionStructure(params, n)
        lhs, rhs = ind.mackey_dimensions()
        assert lhs == rhs, (n, lhs, rhs)
        assert ind.verify_free_basis()
    print("PASS criterion 10: Mackey dimension identities (affine and cyclotomic)")
