"""The word layer of the tensor power F^(x)n.  A_n(F) holds F^(x)n as its
monomials x^0 * word * 1 (``AwpaAlgebra.mul`` multiplies them,
``AwpaAlgebra.superpermute_elem`` permutes their slots) and the wreath
product F^(x)n x| S_n as its alpha = 0 monomials (``graded_mul``).

Words are tuples of basis indices; a word (i1, ..., in) stands for
b_{i1} (x) ... (x) b_{in}.  Multiplying two words is slotwise, with the
Koszul sign picked up by moving right-hand factors leftward past odd
left-hand factors:

    (a1 (x) ... (x) an)(c1 (x) ... (x) cn)
        = (-1)^{sum_{i>j} |a_i||c_j|} (a1 c1 (x) ... (x) an cn).

Permutations act by superpermuting the slots; for pi the sign is the
product of (-1) over inversions of pi at pairs of odd slots.
"""

from __future__ import annotations

from .frobenius import FrobAlg
from .scalars import CycScalar
from .sparse import memoized


def permute_word(F: FrobAlg, pi, word):
    """(new_word, sign_exponent): new_word[pi(i)-1] = word[i-1]; the sign is
    (-1)^{#(odd-odd inversions of pi on the slots)}."""
    n = len(word)
    new = [0] * n
    for i in range(n):
        new[pi[i] - 1] = word[i]
    sign = 0
    odd_positions = [i for i in range(n) if F.parities[word[i]]]
    for a in range(len(odd_positions)):
        for b in range(a + 1, len(odd_positions)):
            if pi[odd_positions[a]] > pi[odd_positions[b]]:
                sign += 1
    return tuple(new), sign % 2


def word_parity(F: FrobAlg, word) -> int:
    return sum(F.parities[b] for b in word) % 2


def word_degree(F: FrobAlg, word) -> int:
    return sum(F.degrees[b] for b in word)


def koszul_mul_sign(F: FrobAlg, w1, w2) -> int:
    """Exponent of -1 in the slotwise product w1 * w2:
    sum over i > j of parity(w1[i]) * parity(w2[j])."""
    sign = 0
    tail_odd = 0  # number of odd slots of w1 with index > j
    for j in range(len(w1) - 1, -1, -1):
        if F.parities[w2[j]]:
            sign += tail_odd
        if F.parities[w1[j]]:
            tail_odd += 1
    return sign % 2


def tensor_of_vectors(F: FrobAlg, vectors, coeff=None) -> dict:
    """coeff * (v_1 (x) ... (x) v_n) as {word: scalar}, for zero-free rows
    v_i = {basis index: scalar} of F as ``FrobAlg`` hands them out (coeff,
    nonzero, defaults to 1).  Distinct choices of basis indices give distinct
    words, so no two terms ever combine, and no product of them is zero."""
    terms = {(): CycScalar.one(F.conductor) if coeff is None else coeff}
    for vec in vectors:
        terms = {w + (k,): c * v for w, c in terms.items() for k, v in vec.items()}
    return terms


@memoized("_word_cache")
def word_mul(F: FrobAlg, w1, w2) -> dict:
    """Product of two basis words as {word: scalar}: the Koszul sign times
    the slotwise product of the rows F.struct[b1][b2], memoized on F."""
    one = CycScalar.one(F.conductor)
    sign = -one if koszul_mul_sign(F, w1, w2) else one
    return tensor_of_vectors(F, [F.struct[b1][b2] for b1, b2 in zip(w1, w2)], sign)
