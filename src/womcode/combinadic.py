"""Exact binomial coefficients and the lexical rank/unrank bijection.

A length-n binary vector with k ones is identified with its index in the
lexically sorted list of all such vectors.  Vectors are sequences of 0/1
ints written leftmost-first (a list, or a bytes object), so the string
"0101100" becomes ``[0, 1, 0, 1, 1, 0, 0]``; bit *positions* are labeled n-1
down to 0 from left to right, which makes the index of a vector with ones
at positions i1 > i2 > ... > ik exactly C(i1, k) + C(i2, k-1) + ... + C(ik, 1).

Both scans keep the running binomial c = C(i, j) of position i with j ones
still to place.  :func:`rank` crosses a run of g zeros in one exact step,

  C(i-g, j) = C(i, j) * perm(i-j, g) // perm(i, g),

since C(i-g, j) / C(i, j) = (i-j)!(i-g)! / (i!(i-g-j)!).  It finds the
runs with ``bytes.split`` and merges the step past each one,
C(i-1, j-1) = C(i, j) * j // i, into the run after it, so it does Python
work only per one: one ``math.comb`` at the start, then one product and one
exact division.  :func:`unrank` does not know a run's length in advance,
so it steps the zeros one position at a time,

  after a zero   C(i-1, j) = C(i, j) * (i - j) // i.

Every comparison that decides a bit is exact arbitrary-precision integer
arithmetic; the counts involved routinely exceed 64 bits.
"""

from __future__ import annotations

from itertools import islice
from math import comb, perm
from typing import Sequence

from .errors import DomainError, as_int


def binomial(n: int, k: int) -> int:
    """Return n choose k exactly; 0 when k > n.

    Both arguments must be nonnegative integers.
    """
    n, k = as_int(n, "n"), as_int(k, "k")
    if n < 0 or k < 0:
        raise DomainError(f"binomial arguments must be nonnegative, got ({n}, {k})")
    return comb(n, k)


def rank(bits: Sequence[int]) -> int:
    """Return the lexical index of `bits` among vectors of equal length and weight.

    The result lies in [0, C(n, k) - 1] for a length-n vector of weight k.
    Each one at position i with j ones left (itself included) adds C(i, j).
    A bytes argument, the form a decoded image's slot mask takes, is read
    as it is.
    """
    if not isinstance(bits, bytes):
        try:
            # iter() keeps an int argument from reading as a length.
            bits = bytes(iter(bits))
        except (TypeError, ValueError):
            raise DomainError("bit vector elements must be 0 or 1") from None
    n = len(bits)
    j = bits.count(1)
    if bits.count(0) + j != n:
        raise DomainError("bit vector elements must be 0 or 1")
    if j == 0:
        return 0
    # The runs of zeros before, between and after the ones.
    runs = map(len, bits.split(b"\x01"))
    i = n - 1 - next(runs)
    c = r = comb(i, j)
    for g in islice(runs, j - 1):
        if not c:  # i < j: every later term is 0 too
            break
        # Step past the one at i and the g zeros after it at once:
        # C(i-1-g, j-1) = C(i, j) * j * perm(i-j, g) // perm(i, g+1).
        c = c * (j * perm(i - j, g)) // perm(i, g + 1)
        i -= g + 1
        j -= 1
        r += c
    return r


def unrank(index: int, n: int, k: int) -> list[int]:
    """Return the unique length-n weight-k vector whose :func:`rank` is `index`.

    Greedy left to right: each one goes at the largest label i whose C(i, j)
    does not exceed what is left of the index.
    """
    index, n, k = as_int(index, "index"), as_int(n, "n"), as_int(k, "k")
    total = binomial(n, k)  # rejects a negative n or k
    if not 0 <= index < total:
        raise DomainError(f"index {index} out of range for {n} choose {k} = {total}")
    bits = [0] * n
    if k == 0:
        return bits
    # 1 <= k <= n here, since C(n, k) > index >= 0.
    i, j, r = n - 1, k, index
    c = total * (n - k) // n  # C(n-1, k)
    while True:
        while c > r:  # label i is a zero
            c = c * (i - j) // i
            i -= 1
        r -= c
        bits[n - 1 - i] = 1
        if j == 1:
            return bits
        c = c * j // i
        j -= 1
        i -= 1
