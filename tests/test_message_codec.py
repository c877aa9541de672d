"""Message <-> payload bijection and the final-write value map."""

from __future__ import annotations

import itertools
import math
import random

import pytest

from womcode import combinadic
from womcode.errors import CorruptStateError, DomainError
from womcode.message_codec import (
    _blocks,
    WritePayload,
    WriteWindow,
    last_write_decode,
    last_write_encode,
    message_to_payload,
    payload_to_message,
    window_capacity,
)


def enumerate_payloads(window: WriteWindow):
    """Independent oracle: list every payload in the documented order.

    Blocks by written-symbol count k ascending; within a block, masks in
    rank order; within a mask, digit strings counted base-q with the
    leftmost written slot as the most significant digit, values 1..q.
    """
    for k in range(window.kmin, window.kmax + 1):
        for ones in sorted(
            itertools.combinations(range(window.h), k),
            key=lambda pos: sum(2 ** (window.h - 1 - p) for p in pos),
        ):
            mask = tuple(1 if i in ones else 0 for i in range(window.h))
            for digits in itertools.product(range(1, window.q + 1), repeat=k):
                yield WritePayload(k=k, mask=mask, digits=digits)


class TestWindowCapacity:
    def test_examples(self):
        assert window_capacity(WriteWindow(h=2, q=3, kmin=0, kmax=1)) == 7
        assert window_capacity(WriteWindow(h=5, q=4, kmin=0, kmax=0)) == 1
        assert window_capacity(WriteWindow(h=51, q=2, kmin=1, kmax=15)) >= 2**56

    def test_matches_sum(self):
        w = WriteWindow(h=6, q=3, kmin=1, kmax=4)
        assert window_capacity(w) == sum(
            math.comb(6, k) * 3**k for k in range(1, 5)
        )

    def test_block_walk_matches_comb_sum_on_random_windows(self):
        rng = random.Random(20261017)
        for case in range(300):
            h = rng.randrange(1, 4001)
            q = rng.choice((1, 2, 3, 6, 7))
            kmin = rng.randrange(h + 1)
            # Every tenth window spans the whole 0..h range of a small h;
            # the rest cover up to 33 consecutive k anywhere in a larger one.
            if case % 10 == 0:
                h = rng.randrange(1, 300)
                kmin, kmax = 0, h
            else:
                kmax = min(h, kmin + rng.randrange(33))
            w = WriteWindow(h=h, q=q, kmin=kmin, kmax=kmax)
            expected = [(k, math.comb(h, k) * q**k) for k in range(kmin, kmax + 1)]
            assert list(_blocks(w)) == expected
            capacity = sum(block for _, block in expected)
            assert window_capacity(w) == capacity
            for message in (0, capacity - 1, rng.randrange(capacity)):
                payload = message_to_payload(message, w)
                offset = 0
                for k, block in expected:
                    if message < offset + block:
                        break
                    offset += block
                assert payload.k == k
                assert combinadic.rank(payload.mask) == (message - offset) // q**k
                assert payload_to_message(payload, w) == message

    def test_window_validation(self):
        with pytest.raises(DomainError):
            WriteWindow(h=3, q=2, kmin=2, kmax=1)
        with pytest.raises(DomainError):
            WriteWindow(h=3, q=2, kmin=0, kmax=4)
        with pytest.raises(DomainError):
            WriteWindow(h=3, q=0, kmin=0, kmax=1)


class TestCanonicalEnumeration:
    def test_first_block_is_empty_write(self):
        w = WriteWindow(h=2, q=3, kmin=0, kmax=1)
        payload = message_to_payload(0, w)
        assert payload.k == 0
        assert payload.mask == (0, 0)
        assert payload.digits == ()

    def test_worked_example(self):
        w = WriteWindow(h=2, q=3, kmin=0, kmax=1)
        payload = message_to_payload(3, w)
        assert payload.k == 1
        assert payload.mask == (0, 1)
        assert payload.digits == (3,)

    def test_agrees_with_bruteforce_order(self):
        for h, q, kmin, kmax in [
            (2, 3, 0, 1),
            (4, 3, 0, 2),
            (5, 2, 1, 3),
            (3, 1, 0, 3),
            (6, 2, 1, 2),
        ]:
            w = WriteWindow(h=h, q=q, kmin=kmin, kmax=kmax)
            expected = list(enumerate_payloads(w))
            assert len(expected) == window_capacity(w)
            for message, payload in enumerate(expected):
                assert message_to_payload(message, w) == payload
                assert payload_to_message(payload, w) == message

    def test_exhaustive_roundtrip_small_windows(self):
        for h in range(1, 7):
            for q in range(1, 4):
                for kmin in range(0, h + 1):
                    for kmax in range(kmin, h + 1):
                        w = WriteWindow(h=h, q=q, kmin=kmin, kmax=kmax)
                        seen = set()
                        for message in range(window_capacity(w)):
                            payload = message_to_payload(message, w)
                            assert payload_to_message(payload, w) == message
                            seen.add((payload.k, payload.mask, payload.digits))
                        assert len(seen) == window_capacity(w)

    def test_message_out_of_range(self):
        w = WriteWindow(h=2, q=3, kmin=0, kmax=1)
        with pytest.raises(DomainError):
            message_to_payload(7, w)
        with pytest.raises(DomainError):
            message_to_payload(-1, w)

    def test_invalid_payload_rejected(self):
        w = WriteWindow(h=2, q=3, kmin=0, kmax=1)
        bad = [
            WritePayload(k=2, mask=(1, 1), digits=(1, 1)),  # k above kmax
            WritePayload(k=1, mask=(1, 1), digits=(1,)),  # weight mismatch
            WritePayload(k=1, mask=(0, 1), digits=(4,)),  # digit above q
            WritePayload(k=1, mask=(0, 1), digits=(0,)),  # digit below 1
        ]
        for payload in bad:
            with pytest.raises(DomainError):
                payload_to_message(payload, w)


class TestLastWrite:
    def test_single_symbol(self):
        assert last_write_encode(0, 1, 2) == [1]
        assert last_write_encode(1, 1, 2) == [2]

    def test_maximal_codeword(self):
        assert last_write_encode(3**36 - 2, 36, 2) == [2] * 36

    def test_never_all_zero_never_erased(self):
        for m, ht in [(2, 3), (3, 2)]:
            top = (2**m - 1) ** ht - 1
            for message in range(top):
                digits = last_write_encode(message, ht, m)
                assert any(digits)
                assert all(0 <= d <= 2**m - 2 for d in digits)

    def test_roundtrip_exhaustive(self):
        for m, ht in [(2, 1), (2, 4), (2, 9), (3, 4)]:
            top = (2**m - 1) ** ht - 1
            for message in range(min(top, 10**5)):
                assert last_write_decode(last_write_encode(message, ht, m), m) == message

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            last_write_encode(2, 1, 2)  # capacity is 3^1 - 1 = 2
        with pytest.raises(DomainError):
            last_write_encode(-1, 1, 2)

    def test_decode_rejects_corrupt_digits(self):
        with pytest.raises(CorruptStateError):
            last_write_decode([0, 0, 0], 2)
        with pytest.raises(CorruptStateError):
            last_write_decode([3, 1], 2)  # 3 is the erased value at m=2
        with pytest.raises(CorruptStateError):
            last_write_decode([], 2)
