"""Ranking/unranking of fixed-weight bit vectors, against the spec."""

from __future__ import annotations

import itertools
import math
import random

import pytest

import spec
from womcode import combinadic
from womcode.errors import DomainError


def bits(text: str) -> list[int]:
    return [int(c) for c in text]


def shaped_vectors(rng: random.Random, n: int, k: int):
    """Weight-k vectors of length n whose runs of zeros take the shapes the
    kernels treat apart: random, packed left, packed right, split between
    both ends around one run as long as the vector allows, and evenly spaced."""
    ones = [set(rng.sample(range(n), k)), set(range(k)), set(range(n - k, n))]
    ones.append(set(range(k // 2)) | set(range(n - (k - k // 2), n)))
    ones.append({p * n // k for p in range(k)} if k else set())
    return [[1 if p in chosen else 0 for p in range(n)] for chosen in ones]


class TestKernels:
    def test_worked_example(self):
        assert combinadic.rank(bits("0101100")) == 15
        assert combinadic.unrank(15, 7, 3) == bits("0101100")

    def test_rank_extremes(self):
        assert combinadic.rank(bits("0000111")) == 0
        assert combinadic.rank(bits("1110000")) == 34 == math.comb(7, 3) - 1

    def test_unrank_zero_weight(self):
        assert combinadic.unrank(0, 5, 0) == [0] * 5
        assert combinadic.unrank(0, 0, 0) == []

    def test_binomial_small(self):
        assert combinadic.binomial(5, 3) == 10
        assert combinadic.binomial(7, 0) == 1
        assert combinadic.binomial(3, 5) == 0

    def test_binomial_matches_stdlib(self):
        for n in range(0, 40):
            for k in range(0, n + 2):
                assert combinadic.binomial(n, k) == (math.comb(n, k) if k <= n else 0)

    def test_bijection_exhaustive(self):
        for n in range(13):
            for k in range(n + 1):
                total = math.comb(n, k)
                seen = set()
                for index in range(total):
                    u = combinadic.unrank(index, n, k)
                    assert len(u) == n and sum(u) == k
                    assert combinadic.rank(u) == index
                    seen.add(tuple(u))
                assert len(seen) == total

    def test_rank_monotone_in_lexical_order(self):
        n, k = 9, 4
        vectors = sorted(
            "".join("1" if i in ones else "0" for i in range(n))
            for ones in itertools.combinations(range(n), k)
        )
        ranks = [combinadic.rank(bits(v)) for v in vectors]
        assert ranks == list(range(math.comb(n, k)))


def test_unrank_enumerates_in_lexical_order():
    # itertools.combinations yields the positions of the ones in lexical
    # order of their left-first index tuples; reversed, that is the
    # ascending order of the 0/1 strings.
    for n in range(13):
        for k in range(n + 1):
            expected = [
                [1 if i in ones else 0 for i in range(n)]
                for ones in itertools.combinations(range(n), k)
            ][::-1]
            assert [combinadic.unrank(x, n, k) for x in range(math.comb(n, k))] == expected


def test_kernels_agree_with_oracles_on_large_inputs():
    rng = random.Random(20260814)
    for case in range(100):
        n = rng.randrange(1, 2001)
        # A third of the cases sit near the middle, where C(n, k) is largest.
        if case % 3:
            k = rng.randrange(n + 1)
        else:
            k = min(n, max(0, n // 2 + rng.randrange(-3, 4)))
        ones = set(rng.sample(range(n), k))
        u = [1 if i in ones else 0 for i in range(n)]
        index = spec.rank(u)
        assert combinadic.rank(u) == index
        assert combinadic.unrank(index, n, k) == u
        for x in (rng.randrange(math.comb(n, k)), math.comb(n, k) - 1):
            assert combinadic.unrank(x, n, k) == spec.unrank(x, n, k)


def test_kernels_agree_with_scans_exhaustively():
    for n in range(13):
        for k in range(n + 1):
            for index in range(math.comb(n, k)):
                bits = spec.unrank(index, n, k)
                assert combinadic.unrank(index, n, k) == bits
                assert combinadic.rank(bits) == spec.rank(bits) == index


def test_kernels_agree_with_scans_on_seeded_vectors():
    rng = random.Random(20261018)
    for case in range(60):
        n = rng.randrange(1, 4001) if case % 4 else rng.randrange(1, 40)
        for k in sorted({1, 2, n // 2, n - 1, n} - {0}):
            for bits in shaped_vectors(rng, n, k):
                index = spec.rank(bits)
                assert combinadic.rank(bits) == combinadic.rank(bytes(bits)) == index
                assert combinadic.unrank(index, n, k) == bits
                for x in (0, math.comb(n, k) - 1, rng.randrange(math.comb(n, k))):
                    assert combinadic.unrank(x, n, k) == spec.unrank(x, n, k)


def test_sparse_vectors_cross_long_runs():
    # Runs of hundreds of zeros per one.  Index 0 packs the ones at the right
    # end, behind the longest possible run of zeros: unrank steps each of
    # those zeros and rank crosses them all in one step.
    rng = random.Random(4096)
    for _ in range(40):
        n = rng.randrange(2000, 4001)
        k = rng.randrange(1, 40)
        total = math.comb(n, k)
        for index in (0, 1, total // 2, total - 2, total - 1, rng.randrange(total)):
            bits = spec.unrank(index, n, k)
            assert combinadic.unrank(index, n, k) == bits
            assert combinadic.rank(bits) == spec.rank(bits) == index


def test_empty_vector():
    assert combinadic.rank([]) == 0
    assert combinadic.rank(b"") == 0
    assert combinadic.unrank(0, 0, 0) == []
    with pytest.raises(DomainError):
        combinadic.unrank(1, 0, 0)


def test_big_binomial_against_additive_pascal_row():
    # Independent oracle: build row 139 of Pascal's triangle by additions only.
    row = [1]
    for _ in range(139):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    expected = row[69]
    assert combinadic.binomial(139, 69) == expected
    assert len(str(expected)) == 41


def test_pascal_identity_exhaustive():
    for n in range(1, 61):
        for k in range(1, n + 1):
            assert combinadic.binomial(n, k) == combinadic.binomial(
                n - 1, k
            ) + combinadic.binomial(n - 1, k - 1)


def test_rank_below_binomial():
    for n in range(1, 11):
        for k in range(n + 1):
            for ones in itertools.combinations(range(n), k):
                u = [1 if i in ones else 0 for i in range(n)]
                assert combinadic.rank(u) < combinadic.binomial(n, k)


def test_validation_errors():
    with pytest.raises(DomainError):
        combinadic.binomial(-1, 0)
    with pytest.raises(DomainError):
        combinadic.binomial(3, -2)
    for bad in ([0, 2, 1], [0, 256], [-1, 1], [0.5], "01", b"01", 5):
        with pytest.raises(DomainError, match="bit vector elements must be 0 or 1"):
            combinadic.rank(bad)
    with pytest.raises(DomainError):
        combinadic.unrank(35, 7, 3)  # C(7,3) = 35, so max index is 34
    with pytest.raises(DomainError):
        combinadic.unrank(-1, 7, 3)
    # A negative n or k is binomial's to refuse.
    with pytest.raises(DomainError, match=r"^binomial arguments must be nonnegative, got \(-1, 0\)$"):
        combinadic.unrank(0, -1, 0)
