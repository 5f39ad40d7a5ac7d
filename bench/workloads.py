"""The benchmark's workloads, their inputs and their correctness gates.

Each workload is a stream of sub-batches.  Sub-batch ``j`` of seed ``s``
draws its inputs from ``random.Random(f"{name}:{s}:{j}")`` and builds every
object it uses afresh in ``setup`` (Frobenius algebras, parameters,
contexts, quotients), so no memo cache of the package survives from one
sub-batch into the next.  ``work`` runs the timed public calls and returns
its op count and raw outputs; ``check`` compares those outputs with
references that do not come from the code under test and returns one
message per wrong verdict.

Every workload also names its op boundary: the public callable whose calls
are timed one by one for the per-op latency.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

from awpa import cyclotomic, frobenius, verify
from awpa.engine import AwpaAlgebra

# Builders for the Frobenius algebras, with the hand-derived data the gates
# compare against: dimension, order theta of the Nakayama automorphism, and
# the parity of each basis element.
ALGEBRAS = {
    "k": (frobenius.trivial_algebra, 1, 1, (0,)),
    "Cl": (frobenius.clifford_algebra, 2, 2, (0, 1)),
    "kZ3": (lambda: frobenius.cyclic_group_algebra(3), 3, 1, (0,) * 3),
    "kS3": (lambda: frobenius.symmetric_group_algebra(3), 6, 1, (0,) * 6),
    "Taft(2)": (lambda: frobenius.taft_algebra(2), 4, 2, (0,) * 4),
    "Taft(3)": (lambda: frobenius.taft_algebra(3), 9, 3, (0,) * 9),
    "Taft(4)": (lambda: frobenius.taft_algebra(4), 16, 4, (0,) * 16),
}


def build_algebra(label):
    return ALGEBRAS[label][0]()


def build_algebras(configs) -> dict:
    """One fresh algebra per distinct label in the configs."""
    return {label: build_algebra(label) for label in dict.fromkeys(c[0] for c in configs)}


# Random parameters and generator scales are drawn from here; a zero
# parameter would change the quotient's structure, and with it the cost.
_NONZERO = (-3, -2, -1, 1, 2, 3)


def sub_batch_rng(name: str, seed: int, j: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{j}")


class Workload:
    def __init__(self, name: str, configs: list):
        self.name = name
        self.configs = configs

    def op_boundary(self):
        """(owner, attribute) of the callable timed per op."""
        raise NotImplementedError

    def window_extras(self, outputs) -> dict:
        """Per-layer figures read from one sub-batch's outputs."""
        return {}


# -- relation suites ---------------------------------------------------------


class SuiteWorkload(Workload):
    """``verify.run_suite`` on each (algebra, n, instances) config.

    One op is one check instance; its latency is timed by wrapping the
    entries of ``verify.ALL_CHECKS``.
    """

    def op_boundary(self):
        return verify, "ALL_CHECKS"

    def setup(self, seed: int, j: int):
        rng = sub_batch_rng(self.name, seed, j)
        algebras = build_algebras(self.configs)
        return [
            (label, algebras[label], n, instances, rng.randrange(2**31))
            for label, n, instances in self.configs
        ]

    def work(self, state):
        outputs = []
        ops = 0
        for label, F, n, instances, suite_seed in state:
            counts, failures = verify.run_suite(F, n, seed=suite_seed, instances=instances)
            outputs.append((counts, failures))
            ops += sum(c for _, c in counts)
        return ops, outputs

    def check(self, state, outputs):
        wrong = []
        for (label, _, n, instances, suite_seed), (counts, failures) in zip(state, outputs):
            where = f"{label} n={n} seed={suite_seed}"
            wrong += [f"{where}: {msg}" for msg in failures]
            # run_suite deals instances round-robin over the applicable checks.
            expected = _round_robin(_applicable_checks(n), instances)
            if dict(counts) != expected:
                wrong.append(f"{where}: per-check counts {dict(counts)} != {expected}")
        return wrong


_SINGLE_SLOT_CHECKS = {
    "xF-commutation",
    "xx-commutation",
    "associativity",
    "oracle-equivalence",
    "evaluation-hom",
    "center",
}


def _applicable_checks(n: int) -> list:
    names = [name for name, _ in verify.ALL_CHECKS]
    return names if n >= 2 else [name for name in names if name in _SINGLE_SLOT_CHECKS]


def _round_robin(names, instances):
    k = len(names)
    return {name: instances // k + (i < instances % k) for i, name in enumerate(names)}


# -- quotient Gram matrices ------------------------------------------------------

# An odd prime with 4 | p - 1, so that Q(zeta_m) for m | 4 maps into F_p.
_PRIME = 998_244_353
_ROOT = {1: 1, 2: _PRIME - 1, 4: pow(3, (_PRIME - 1) // 4, _PRIME)}


class GramWorkload(Workload):
    """A fresh ``CyclotomicAlgebra`` per config, then ``gram_matrix()`` and
    ``nakayama_check``.  One op is one quotient product, timed by wrapping
    ``CyclotomicAlgebra.mul`` (one per Gram entry, two per Nakayama pair)."""

    def __init__(self, name, configs, pairs: int):
        super().__init__(name, configs)
        self.pairs = pairs

    def op_boundary(self):
        return cyclotomic.CyclotomicAlgebra, "mul"

    def setup(self, seed: int, j: int):
        rng = sub_batch_rng(self.name, seed, j)
        state = []
        for label, n, level_entries, dim in self.configs:
            F = build_algebra(label)
            entries = {
                k: [F.scalar(rng.choice(_NONZERO) if free else 0) * F.unit_elem() for free in frees]
                for k, frees in level_entries.items()
            }
            qalg = cyclotomic.CyclotomicAlgebra(cyclotomic.make_params(F, entries), n)
            level = sum(k * len(frees) for k, frees in level_entries.items())
            state.append((label, n, level, dim, qalg, rng.randrange(2**31)))
        return state

    def work(self, state):
        outputs = []
        for label, n, level, dim, qalg, pair_seed in state:
            rows, invertible = qalg.gram_matrix()
            ok, symmetric, _ = cyclotomic.nakayama_check(qalg, pairs=self.pairs, seed=pair_seed)
            outputs.append((rows, invertible, ok, symmetric))
        return None, outputs  # ops are the timed quotient products

    def check(self, state, outputs):
        wrong = []
        for (label, n, level, dim, qalg, _), (rows, invertible, ok, symmetric) in zip(
            state, outputs
        ):
            where = f"{label} d={level} n={n}"
            _, dim_f, theta, parities = ALGEBRAS[label]
            if dim != factorial(n) * (level * dim_f) ** n:
                wrong.append(f"{where}: configured dimension {dim} is not n!(d dim F)^n")
            if len(rows) != dim or any(len(row) != dim for row in rows):
                wrong.append(f"{where}: Gram matrix is not {dim}x{dim}")
                continue
            if not invertible:
                wrong.append(f"{where}: gram_matrix() reports a singular Gram matrix")
            if _rank_mod_p(rows) != dim:
                wrong.append(f"{where}: Gram matrix is singular modulo {_PRIME}")
            if not ok:
                wrong.append(f"{where}: Nakayama identity failed")
            expect_symmetric = level % theta == 0
            if symmetric != expect_symmetric:
                wrong.append(f"{where}: is_symmetric()={symmetric}, theta={theta}")
            keys = qalg.basis_keys()
            odd = [sum(parities[b] for b in word) % 2 for _, word, _ in keys]
            supersym = all(
                rows[u][v] == (-rows[v][u] if odd[u] and odd[v] else rows[v][u])
                for u in range(dim)
                for v in range(u + 1, dim)
            )
            if supersym != expect_symmetric:
                wrong.append(f"{where}: Gram supersymmetry {supersym} but theta={theta}")
        return wrong

    def window_extras(self, outputs):
        cells = nonzero = 0
        for rows, *_ in outputs:
            cells += sum(len(row) for row in rows)
            nonzero += sum(1 for row in rows for x in row if x)
        return {"gram_nonzero_share": 100.0 * nonzero / cells}


def _to_mod_p(scalar) -> int:
    """Image of a CycScalar under Q(zeta_m) -> F_p, zeta_m -> a primitive
    m-th root of unity mod p."""
    phi = len(scalar.coeffs)
    m = scalar.m if phi > 1 else 1
    root = _ROOT[m]
    value = 0
    for k, c in enumerate(scalar.coeffs):
        c = Fraction(c)
        value += c.numerator * pow(c.denominator, -1, _PRIME) * pow(root, k, _PRIME)
    return value % _PRIME


def _rank_mod_p(rows) -> int:
    """Rank over F_p by plain Gaussian elimination; a full rank here implies
    full rank over Q(zeta_m)."""
    mat = [[_to_mod_p(x) for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][c], -1, _PRIME)
        prow = [x * inv % _PRIME for x in mat[rank]]
        mat[rank] = prow
        for r in range(len(mat)):
            if r != rank and mat[r][c]:
                f = mat[r][c]
                mat[r] = [(x - f * y) % _PRIME for x, y in zip(mat[r], prow)]
        rank += 1
    return rank


# -- center solves ---------------------------------------------------------------


class CenterWorkload(Workload):
    """``centralizer_up_to_degree`` with the generators of A_n(F), shuffled
    and rescaled by the seed (the centre does not change).  One op is one
    candidate monomial; the latency is one solve, timed by wrapping
    ``AwpaAlgebra.centralizer_up_to_degree``."""

    def op_boundary(self):
        return AwpaAlgebra, "centralizer_up_to_degree"

    def setup(self, seed: int, j: int):
        rng = sub_batch_rng(self.name, seed, j)
        state = []
        for label, n, bound, expected in self.configs:
            ctx = AwpaAlgebra(build_algebra(label), n)
            gens = [ctx.F.scalar(rng.choice(_NONZERO)) * g for g in ctx.generators()]
            rng.shuffle(gens)
            monomials = len(ctx.candidate_monomials(bound))
            state.append((label, n, bound, expected, ctx, gens, monomials))
        return state

    def work(self, state):
        outputs = []
        ops = 0
        for label, n, bound, expected, ctx, gens, monomials in state:
            outputs.append(ctx.centralizer_up_to_degree(gens, bound))
            ops += monomials
        return ops, outputs

    def check(self, state, outputs):
        wrong = []
        for (label, n, bound, expected, ctx, _, _), basis in zip(state, outputs):
            where = f"A_{n}({label}) degree<={bound}"
            if len(basis) != expected:
                wrong.append(f"{where}: centre has dimension {len(basis)}, expected {expected}")
            for z in basis:
                verdict = ctx.is_central(z)
                # both routes: generator commutation and the structural form
                if not verdict.central or verdict.structural_reason is not None:
                    wrong.append(f"{where}: basis element not central: {verdict!r}")
        return wrong


# -- the registry ------------------------------------------------------------------

# name -> (class, arguments at full size, arguments at small size); the
# reason for each workload is its "why" in BENCHMARK.json.
_SPECS = {
    # (algebra, n, instances).  The rational suites run at n = 2: at n = 3
    # the cost of 23 instances varies by a factor of ten between seeds
    # (A_3(kS3): coefficient of variation 1.1, up to 10.9 s), so no 25 s run
    # could give a steady rate.  Taft(3) at n = 3 varies by 0.24 and stays.
    "suite_rational": (
        SuiteWorkload,
        ([("kS3", 2, 46), ("kZ3", 2, 46), ("Cl", 2, 46)],),
        ([("kS3", 2, 4), ("kZ3", 2, 4), ("Cl", 2, 4)],),
    ),
    "suite_taft": (
        SuiteWorkload,
        ([("Taft(3)", 2, 23), ("Taft(3)", 3, 23)],),
        ([("Taft(3)", 2, 4), ("Taft(3)", 3, 2)],),
    ),
    # (algebra, n, {k: one flag per parameter c^(k,j), True = random nonzero
    # integer multiple of 1, False = 0}, expected dimension n!(d dim F)^n),
    # then the number of Nakayama pairs.
    "quotient_gram": (
        GramWorkload,
        (
            [
                ("Cl", 2, {1: [False], 2: [True]}, 72),
                ("k", 3, {1: [True, True]}, 48),
                ("Taft(4)", 1, {4: [False]}, 64),
            ],
            100,
        ),
        (
            [
                ("Cl", 1, {2: [False]}, 4),
                ("k", 2, {1: [True]}, 2),
                ("Taft(2)", 1, {2: [False]}, 8),
            ],
            5,
        ),
    ),
    # (algebra, n, polynomial degree bound, centre dimension counted by hand).
    # The centre is spanned by S_n-symmetric sums of x^alpha f with f slotwise
    # in the psi-twisted centre of F.  A_3(k), deg <= 3: symmetric polynomials,
    # 1 + 1 + 2 + 3 = 7.  A_2(Cl), deg <= 3: theta = 2, so 1 and x_1^2 + x_2^2.
    # A_2(Taft(2)), deg <= 1: Z(F) = k and psi(y) = y, so 1 and x_1 y_1 + x_2 y_2.
    # Small sizes: A_2(k) <= 1: 1, x_1 + x_2; A_2(Cl) <= 1: 1; A_1(Taft(2)) <= 1: 1, x y.
    "center_solve": (
        CenterWorkload,
        ([("k", 3, 3, 7), ("Cl", 2, 3, 2), ("Taft(2)", 2, 1, 2)],),
        ([("k", 2, 1, 2), ("Cl", 2, 1, 1), ("Taft(2)", 1, 1, 2)],),
    ),
}

WORKLOAD_NAMES = list(_SPECS)


def make_workload(name: str, tiny: bool = False) -> Workload:
    """A fresh workload object, at full size or at the smoke test's size."""
    cls, full, small = _SPECS[name]
    return cls(name, *(small if tiny else full))
