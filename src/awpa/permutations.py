"""Symmetric group combinatorics on one-line tuples.

A permutation of S_n is a tuple ``p`` of length n with ``p[i-1] = pi(i)``,
values 1..n (the serialized form "[2,1,3]" is exactly the tuple).  Products
compose right-to-left: ``mul(p, q)(i) = p(q(i))``.
"""

from __future__ import annotations

from itertools import permutations as _all_perms

from .errors import SizeMismatch

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

