"""Layer microbenchmarks, reported as per-layer ``<name>.us_per_op``.

Each one times a fixed list of operations on inputs drawn from the run's
seed, several times over, and reports the median microseconds per
operation.  They run with the tracer's probes removed.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

from awpa import cyclotomic, linalg, permutations, wreath
from awpa.engine import AwpaAlgebra
from awpa.scalars import CycScalar

from workloads import build_algebra

REPEATS = 5


def _median_us(fn, ops: int, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times) / ops * 1e6


def _random_scalar(rng, m):
    phi = len(CycScalar.zero(m).coeffs)
    return CycScalar(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(phi)])


def scalar_benchmarks(rng, count: int) -> dict:
    out = {}
    for m in (1, 3, 12):
        xs = [_random_scalar(rng, m) for _ in range(count)]
        ys = [_random_scalar(rng, m) for _ in range(count)]
        pairs = list(zip(xs, ys))
        nonzero = [x for x in xs if x]
        out[f"scalars.mul_m{m}.us_per_op"] = _median_us(
            lambda: [x * y for x, y in pairs], len(pairs)
        )
        out[f"scalars.add_m{m}.us_per_op"] = _median_us(
            lambda: [x + y for x, y in pairs], len(pairs)
        )
        out[f"scalars.inverse_m{m}.us_per_op"] = _median_us(
            lambda: [x.inverse() for x in nonzero], len(nonzero)
        )
    return out


def word_mul_benchmarks(rng, count: int) -> dict:
    out = {}
    for label, key in (("kS3", "kS3"), ("Taft(3)", "taft3")):
        F = build_algebra(label)
        pairs = [
            (
                tuple(rng.randrange(F.dim) for _ in range(3)),
                tuple(rng.randrange(F.dim) for _ in range(3)),
            )
            for _ in range(count)
        ]
        out[f"wreath.word_mul_{key}.us_per_op"] = _median_us(
            lambda: [wreath.word_mul(F, a, b) for a, b in pairs], len(pairs)
        )
    return out


def engine_benchmarks(rng, count: int) -> dict:
    """s_1 s_2 s_1 (the longest permutation of S_3) times x^alpha f in
    A_3(Cl): cold on a fresh context, then warm on the same context."""
    F = build_algebra("Cl")
    longest = permutations.from_word(3, [1, 2, 1])
    rights = [
        (tuple(rng.randrange(3) for _ in range(3)), tuple(rng.randrange(F.dim) for _ in range(3)))
        for _ in range(count)
    ]
    cold, warm = [], []
    for _ in range(REPEATS):
        ctx = AwpaAlgebra(F, 3)
        left = ctx.perm_elem(longest)
        elems = [ctx.monomial(alpha, word, ctx.identity_perm) for alpha, word in rights]
        start = perf_counter()
        for b in elems:
            ctx.mul(left, b)
        cold.append(perf_counter() - start)
        start = perf_counter()
        for b in elems:
            ctx.mul(left, b)
        warm.append(perf_counter() - start)
    return {
        "engine.mul_cold.us_per_op": statistics.median(cold) / count * 1e6,
        "engine.mul_warm.us_per_op": statistics.median(warm) / count * 1e6,
    }


def quotient_benchmarks(rng, count: int, tiny: bool) -> dict:
    """CyclotomicAlgebra.reduce on unreduced products in Cl d=3 n=2, and
    linalg.inverse on that quotient's 72x72 Gram matrix (Cl d=2 n=1 and
    4x4 at small size)."""
    F = build_algebra("Cl")
    if tiny:
        params, n = cyclotomic.make_params(F, {2: [F.zero_elem()]}), 1
    else:
        params, n = cyclotomic.make_params(F, {1: [F.zero_elem()], 2: [F.unit_elem()]}), 2
    qalg = cyclotomic.CyclotomicAlgebra(params, n)
    ctx = qalg.ctx
    keys = qalg.basis_keys()
    products = [
        ctx.mul(ctx.monomial(*rng.choice(keys)), ctx.monomial(*rng.choice(keys)))
        for _ in range(count)
    ]
    for p in products:  # fill the rewrite caches; time the steady state
        qalg.reduce(p)
    rows, _ = qalg.gram_matrix()
    return {
        "cyclotomic.reduce.us_per_op": _median_us(
            lambda: [qalg.reduce(p) for p in products], len(products)
        ),
        "linalg.inverse_gram.us_per_op": _median_us(lambda: linalg.inverse(rows), 1, repeats=3),
    }


def run_all(seed: int, tiny: bool = False) -> dict:
    rng = random.Random(f"micro:{seed}")
    count = 8 if tiny else 64
    out = {}
    out.update(scalar_benchmarks(rng, count))
    out.update(word_mul_benchmarks(rng, count * 4))
    out.update(engine_benchmarks(rng, count // 2))
    out.update(quotient_benchmarks(rng, count, tiny))
    return out
