"""Exact binomial coefficients and the lexical rank/unrank bijection.

A length-n binary vector with k ones is identified with its index in the
lexically sorted list of all such vectors.  Vectors are plain sequences of
0/1 ints written leftmost-first, so the string "0101100" becomes
``[0, 1, 0, 1, 1, 0, 0]``; bit *positions* are labeled n-1 down to 0 from
left to right, which makes the index of a vector with ones at positions
i1 > i2 > ... > ik exactly C(i1, k) + C(i2, k-1) + ... + C(ik, 1).

Both :func:`rank` and :func:`unrank` scan the positions left to right with
j ones still to place and keep the running binomial c = C(i, j) of the
position i under the scan.  Moving one position right steps it exactly:

  after a zero   C(i-1, j)   = C(i, j) * (i - j) // i
  after a one    C(i-1, j-1) = C(i, j) * j // i

so a scan costs one ``math.comb`` at its start and then two small-by-big
operations per position.  All arithmetic is exact arbitrary-precision
integer arithmetic; the counts involved routinely exceed 64 bits.
"""

from __future__ import annotations

from math import comb
from typing import Sequence

from .errors import DomainError


def binomial(n: int, k: int) -> int:
    """Return n choose k exactly; 0 when k > n.

    Both arguments must be nonnegative integers.
    """
    if n < 0 or k < 0:
        raise DomainError(f"binomial arguments must be nonnegative, got ({n}, {k})")
    return comb(n, k)


def rank(bits: Sequence[int]) -> int:
    """Return the lexical index of `bits` among vectors of equal length and weight.

    The result lies in [0, C(n, k) - 1] for a length-n vector of weight k.
    Each one at position i with j ones left (itself included) adds C(i, j).
    """
    bits = list(bits)
    j = bits.count(1)
    if bits.count(0) + j != len(bits):
        raise DomainError("bit vector elements must be 0 or 1")
    if j == 0:
        return 0
    i = len(bits) - 1
    c = comb(i, j)
    r = 0
    for b in bits:
        if b:
            r += c
            if j == 1:
                break
            c = c * j // i
            j -= 1
        else:
            c = c * (i - j) // i
        i -= 1
    return r


def unrank(index: int, n: int, k: int) -> list[int]:
    """Return the unique length-n weight-k vector whose :func:`rank` is `index`.

    Greedy left to right: position i takes a one exactly when the running
    C(i, j) does not exceed what is left of the index.
    """
    if n < 0 or k < 0:
        raise DomainError(f"unrank needs nonnegative n and k, got ({n}, {k})")
    total = binomial(n, k)
    if not 0 <= index < total:
        raise DomainError(f"index {index} out of range for {n} choose {k} = {total}")
    bits = [0] * n
    if k == 0:
        return bits
    # 1 <= k <= n here, since C(n, k) > index >= 0.
    i, j, r = n - 1, k, index
    c = total * (n - k) // n  # C(n-1, k)
    while True:
        if c <= r:
            r -= c
            bits[n - 1 - i] = 1
            if j == 1:
                return bits
            c = c * j // i
            j -= 1
        else:
            c = c * (i - j) // i
        i -= 1
