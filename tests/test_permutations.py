"""Symmetric group combinatorics: words, Bruhat order, double cosets."""

import random
from itertools import combinations
from math import factorial

import pytest

from awpa import permutations as perms

import oracles
from oracles import BadComposition, perm_inverse


def test_reduced_words_recover_permutation():
    for n in (1, 2, 3, 4):
        for p in perms.all_permutations(n):
            word = perms.reduced_word(p)
            assert len(word) == oracles.length(p)
            assert perms.from_word(n, word) == p


def test_mul_inverse():
    rng = random.Random(0)
    for _ in range(30):
        n = rng.randint(1, 5)
        p = tuple(rng.sample(range(1, n + 1), n))
        q = tuple(rng.sample(range(1, n + 1), n))
        assert perms.mul(p, perm_inverse(p)) == perms.identity(n)
        assert perm_inverse(perms.mul(p, q)) == perms.mul(
            perm_inverse(q), perm_inverse(p)
        )


def _subword_oracle_leq(sigma, pi):
    """Bruhat order via the raw subword criterion on one reduced word of pi."""
    word = perms.reduced_word(pi)
    n = len(pi)
    target = oracles.length(sigma)
    for r in range(len(word) + 1):
        for idx in combinations(range(len(word)), r):
            sub = [word[i] for i in idx]
            if len(sub) == target and perms.from_word(n, sub) == sigma:
                return True
    return False


def test_bruhat_matches_subword_oracle_s3():
    # frozen from the exhaustive subword enumeration over all 36 pairs
    s3 = perms.all_permutations(3)
    for sigma in s3:
        for pi in s3:
            assert perms.bruhat_leq(sigma, pi) == _subword_oracle_leq(sigma, pi)


def test_bruhat_matches_subword_oracle_s4_sample():
    rng = random.Random(4)
    s4 = perms.all_permutations(4)
    for _ in range(40):
        sigma, pi = rng.choice(s4), rng.choice(s4)
        assert perms.bruhat_leq(sigma, pi) == _subword_oracle_leq(sigma, pi)


def test_bruhat_simple_cases():
    for pi in perms.all_permutations(3):
        assert perms.bruhat_leq(perms.identity(3), pi)
    assert perms.bruhat_leq(perms.simple(3, 1), (3, 2, 1))


def test_bruhat_partial_order():
    s3 = perms.all_permutations(3)
    for a in s3:
        assert perms.bruhat_leq(a, a)
        for b in s3:
            if perms.bruhat_leq(a, b) and perms.bruhat_leq(b, a):
                assert a == b
            for c in s3:
                if perms.bruhat_leq(a, b) and perms.bruhat_leq(b, c):
                    assert perms.bruhat_leq(a, c)


def _double_coset_oracle(mu, nu, n):
    """Exhaustive double-coset enumeration: minimal-length representatives."""
    s_mu = oracles.young_subgroup(mu, n)
    s_nu = oracles.young_subgroup(nu, n)
    remaining = set(perms.all_permutations(n))
    reps = []
    while remaining:
        p = min(remaining, key=lambda q: (oracles.length(q), q))
        coset = {perms.mul(perms.mul(u, p), v) for u in s_mu for v in s_nu}
        remaining -= coset
        reps.append((p, len(coset)))
    return reps


def test_double_cosets_trivial():
    assert [p for p, _, _ in oracles.min_double_cosets((3,), (3,), 3)] == [(1, 2, 3)]


def test_double_cosets_s2():
    reps = [p for p, _, _ in oracles.min_double_cosets((1, 1), (1, 1), 2)]
    assert sorted(reps) == [(1, 2), (2, 1)]


def test_double_cosets_s3_21_12():
    # oracle: exhaustive enumeration gives representatives id and s2 s1,
    # with intersection compositions (1,1,1)/(1,1,1) and (2,1)/(1,2)
    oracle = _double_coset_oracle((2, 1), (1, 2), 3)
    assert [(p, size) for p, size in oracle] == [((1, 2, 3), 4), ((3, 1, 2), 2)]
    out = oracles.min_double_cosets((2, 1), (1, 2), 3)
    assert [p for p, _, _ in out] == [(1, 2, 3), (3, 1, 2)]
    assert out[0][1] == (1, 1, 1) and out[0][2] == (1, 1, 1)
    assert out[1][1] == (2, 1) and out[1][2] == (1, 2)


def test_double_coset_intersections_by_size():
    rng = random.Random(9)
    for n in (2, 3, 4):
        comps = oracles.compositions(n)
        for _ in range(6):
            mu, nu = rng.choice(comps), rng.choice(comps)
            out = oracles.min_double_cosets(mu, nu, n)
            s_mu = oracles.young_subgroup(mu, n)
            s_nu = oracles.young_subgroup(nu, n)
            for pi, left, right in out:
                inter = {
                    q for q in s_mu if perms.mul(perms.mul(perm_inverse(pi), q), pi) in s_nu
                }
                left_group = oracles.young_subgroup(left, n)
                assert sorted(inter) == sorted(left_group)
                assert len(oracles.young_subgroup(right, n)) == len(inter)


def test_orbit_counting_identity():
    # sum over cosets of |S_mu||S_nu| / |S_{mu cap pi nu}| = n!
    for n in (2, 3, 4):
        comps = oracles.compositions(n)
        for mu in comps:
            for nu in comps:
                out = oracles.min_double_cosets(mu, nu, n)
                smu = len(oracles.young_subgroup(mu, n))
                snu = len(oracles.young_subgroup(nu, n))
                total = 0
                for pi, left, _ in out:
                    sint = 1
                    for part in left:
                        sint *= factorial(part)
                    total += smu * snu // sint
                assert total == factorial(n)


def test_bad_composition():
    with pytest.raises(BadComposition):
        oracles.min_double_cosets((2, 2), (1, 2), 3)
    with pytest.raises(BadComposition):
        oracles.check_composition((0, 3), 3)


def test_serialization_form():
    # one-line notation is the tuple itself
    assert str(list((2, 1, 3))) == "[2, 1, 3]"
