"""Symmetric group combinatorics on one-line tuples.

A permutation of S_n is a tuple ``p`` of length n with ``p[i-1] = pi(i)``,
values 1..n (the serialized form "[2,1,3]" is exactly the tuple).  Products
compose right-to-left: ``mul(p, q)(i) = p(q(i))``.

Young subgroups are described by compositions (tuples of positive integers
summing to n); double cosets are enumerated exhaustively, which is fine at
the scales this package targets (n <= 8).
"""

from __future__ import annotations

from itertools import permutations as _all_perms

from .errors import BadComposition, InternalInconsistency, SizeMismatch

Perm = tuple


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def simple(n: int, i: int) -> Perm:
    """The adjacent transposition s_i swapping i and i+1 (1 <= i <= n-1)."""
    if not 1 <= i <= n - 1:
        raise IndexError(f"s_{i} does not exist in S_{n}")
    p = list(range(1, n + 1))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def transposition(n: int, i: int, j: int) -> Perm:
    """The transposition s_{i,j} (1-indexed)."""
    p = list(range(1, n + 1))
    p[i - 1], p[j - 1] = p[j - 1], p[i - 1]
    return tuple(p)


def mul(p: Perm, q: Perm) -> Perm:
    """(p q)(i) = p(q(i))."""
    if len(p) != len(q):
        raise SizeMismatch("permutations of different sizes")
    return tuple(p[v - 1] for v in q)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def length(p: Perm) -> int:
    """Number of inversions = Coxeter length."""
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def reduced_word(p: Perm) -> list[int]:
    """A reduced word [i1, ..., il] with p = s_{i1} ... s_{il}.

    Bubble-sort descent: repeatedly pick a descent of the remaining
    permutation.  Applying the word to the identity recovers p.
    """
    word: list[int] = []
    cur = list(p)
    n = len(cur)
    while True:
        for i in range(n - 1):
            if cur[i] > cur[i + 1]:
                cur[i], cur[i + 1] = cur[i + 1], cur[i]
                word.append(i + 1)
                break
        else:
            break
    word.reverse()
    return word


def from_word(n: int, word) -> Perm:
    p = identity(n)
    for i in word:
        p = mul(p, simple(n, i))
    return p


def all_permutations(n: int):
    return [tuple(p) for p in _all_perms(range(1, n + 1))]


def bruhat_leq(sigma: Perm, pi: Perm) -> bool:
    """Strong Bruhat order, via the dominance criterion.

    sigma <= pi iff every reduced expression of pi contains a reduced
    subword for sigma; equivalently, for all i, j:
    #{k <= i : sigma(k) >= j} <= #{k <= i : pi(k) >= j}.
    """
    if len(sigma) != len(pi):
        raise SizeMismatch("permutations of different sizes")
    n = len(pi)
    for i in range(1, n):
        s_sorted = sorted(sigma[:i])
        p_sorted = sorted(pi[:i])
        for a, b in zip(s_sorted, p_sorted):
            if a > b:
                return False
    return True


# -- compositions and Young subgroups ---------------------------------------


def check_composition(mu, n: int) -> tuple:
    mu = tuple(mu)
    if any(part < 1 for part in mu) or sum(mu) != n:
        raise BadComposition(f"{mu} is not a composition of {n}")
    return mu


def composition_blocks(mu) -> list[range]:
    """The intervals of 1..n grouped by the composition."""
    blocks = []
    start = 1
    for part in mu:
        blocks.append(range(start, start + part))
        start += part
    return blocks


def block_index(mu, n: int) -> list[int]:
    """For i in 1..n, which part of mu contains i (index into mu)."""
    idx = [0] * (n + 1)
    for b, blk in enumerate(composition_blocks(mu)):
        for i in blk:
            idx[i] = b
    return idx


def young_subgroup_simples(mu, n: int) -> set[int]:
    """Indices i with s_i in S_mu."""
    idx = block_index(mu, n)
    return {i for i in range(1, n) if idx[i] == idx[i + 1]}


def young_subgroup(mu, n: int) -> list[Perm]:
    """All elements of S_mu, as permutations of S_n."""
    idx = block_index(mu, n)
    return [
        p
        for p in all_permutations(n)
        if all(idx[i + 1] == idx[v] for i, v in enumerate(p))
    ]


def composition_from_simples(simples: set[int], n: int) -> tuple:
    """The composition whose Young subgroup is generated by the given s_i."""
    mu = []
    size = 1
    for i in range(1, n):
        if i in simples:
            size += 1
        else:
            mu.append(size)
            size = 1
    mu.append(size)
    return tuple(mu)


def compositions(n: int) -> list[tuple]:
    """All compositions of n into positive parts."""
    if n == 0:
        return [()]
    out = []
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            out.append((first,) + rest)
    return out


def min_double_cosets(mu, nu, n: int | None = None):
    """Minimal-length (S_mu, S_nu)-double coset representatives.

    Returns a list of triples (pi, mu cap pi.nu, pi^-1.mu cap nu) where the
    two compositions describe the Young subgroups
    S_mu cap pi S_nu pi^-1 and pi^-1 S_mu pi cap S_nu.
    """
    if n is None:
        n = sum(mu)
    mu = check_composition(mu, n)
    nu = check_composition(nu, n)
    s_mu = young_subgroup(mu, n)
    s_nu = young_subgroup(nu, n)
    seen: set[Perm] = set()
    reps = []
    for p in sorted(all_permutations(n), key=length):
        if p in seen:
            continue
        coset = {mul(mul(u, p), v) for u in s_mu for v in s_nu}
        seen |= coset
        reps.append(p)
    mu_idx = block_index(mu, n)
    nu_idx = block_index(nu, n)
    out = []
    for p in reps:
        pinv = inverse(p)
        left = {
            i
            for i in range(1, n)
            if mu_idx[i] == mu_idx[i + 1] and nu_idx[pinv[i - 1]] == nu_idx[pinv[i]]
        }
        right = {
            j
            for j in range(1, n)
            if nu_idx[j] == nu_idx[j + 1] and mu_idx[p[j - 1]] == mu_idx[p[j]]
        }
        # minimality makes conjugation by pi match the simple reflections up:
        # for s_i in S_{mu cap pi.nu}, pi^-1(i+1) = pi^-1(i) + 1.
        if any(pinv[i] != pinv[i - 1] + 1 for i in left):
            raise InternalInconsistency(f"double coset representative {p} is not minimal")
        out.append(
            (p, composition_from_simples(left, n), composition_from_simples(right, n))
        )
    return out
