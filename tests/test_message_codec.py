"""Message <-> slot-value bijection and the final-write value map."""

from __future__ import annotations

import random

import pytest

import spec
from womcode import combinadic
from womcode.errors import CorruptStateError, DomainError
from womcode.planner import M_LIMIT, CodeParams, plan, write_window
from womcode.message_codec import (
    _blocks,
    _top_block_covers,
    _digits,
    _number,
    WriteWindow,
    last_write_decode,
    last_write_encode,
    message_to_payload,
    payload_to_message,
    window_capacity,
    window_covers,
)


def message_of(payload, window):
    """payload_to_message on a payload tuple, split into its slot mask and
    its written values, as decode passes them."""
    return payload_to_message(bytes(map(bool, payload)), [v for v in payload if v], window)


class TestDigits:
    def test_match_loops_on_seeded_inputs(self):
        rng = random.Random(3141)
        for case in range(400):
            base = rng.choice((1, 2, 3, 4, 6, 7, 8, 14, 15, 16, 30, 254, 255, 256, 1023))
            length = rng.choice((0, 1, 2, 31, 32, 33, 63, 64, 65, rng.randrange(700)))
            x = rng.randrange(base**length)
            digits = _digits(x, base, length)
            assert digits == spec.digits(x, base, length), (base, length)
            assert _number(digits, base) == x
            assert _number(iter(digits), base) == spec.number(digits, base)

    def test_base_3_beyond_the_str_digit_limit(self):
        # The last write of a 2^8191 code at m = 2 has about 5168 base-3
        # digits; Python refuses str <-> int past 4300 decimal digits, so
        # neither direction may go through a decimal string.
        rng = random.Random(8191)
        for length in (4301, 5168, 6000):
            x = rng.randrange(3**length)
            digits = _digits(x, 3, length)
            assert digits == spec.digits(x, 3, length)
            assert _number(digits, 3) == x
        window = write_window(2, (5168,), 1)
        message = rng.randrange(3**5168 - 1)
        assert last_write_decode(last_write_encode(message, window), window) == message


class TestWindowCapacity:
    def test_examples(self):
        assert window_capacity(WriteWindow(h=2, q=3, kmin=0, kmax=1)) == 7
        assert window_capacity(WriteWindow(h=5, q=4, kmin=0, kmax=0)) == 1
        assert window_capacity(WriteWindow(h=51, q=2, kmin=1, kmax=15)) >= 2**56

    def test_matches_sum(self):
        w = WriteWindow(h=6, q=3, kmin=1, kmax=4)
        assert window_capacity(w) == spec.capacity((6, 3, 1, 4))

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
            expected = [(k, spec.capacity((h, q, k, k))) for k in range(kmin, kmax + 1)]
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
                assert len(payload) == h and h - payload.count(0) == k
                mask = [1 if value else 0 for value in payload]
                assert combinadic.rank(mask) == (message - offset) // q**k
                assert message_of(payload, w) == message

    def test_covers_agrees_with_capacity_on_random_windows(self):
        rng = random.Random(8128)
        for case in range(500):
            h = rng.randrange(1, 4001)
            q = rng.choice((1, 2, 3, 6, 7))
            # The three window shapes of a code: first, middle and last write.
            shape = case % 3
            if shape == 2:
                w = WriteWindow(h=h, q=q, kmin=1, kmax=h)
            else:
                kmax = rng.randrange(1, h + 1) if rng.random() < 0.2 else rng.randrange(1, min(h, 60) + 1)
                w = WriteWindow(h=h, q=q, kmin=1 - shape, kmax=kmax)
            cap = window_capacity(w)
            for need in (1, cap - 1, cap, cap + 1, rng.randrange(1, cap + 2)):
                assert window_covers(w, need) == (cap >= need), (w, need)


class TestLogScreen:
    """window_covers' logarithm screen answers only beyond its guard; every
    other window goes through the exact walk."""

    def test_planned_windows(self):
        rng = random.Random(2024)
        screened = total = 0
        for case in range(320):
            m = (2, 3, 4, 9)[case % 4]
            t = rng.randrange(1, 9)
            v = [rng.randrange(2, 2 ** rng.randrange(2, 300)) for _ in range(t)]
            params = plan(m, v)
            for g in range(1, t + 1):
                w = write_window(m, params.h, g)
                cap = window_capacity(w)
                # v_g sits 1-6 bits under a planned window's capacity.
                for need in (v[g - 1], 0, 1, cap - 1, cap, cap + 1):
                    assert window_covers(w, need) == (cap >= need), (w, need)
                total += 1
                screened += _top_block_covers(w.h, w.q, w.kmax, v[g - 1])
        # The screen decides most planned windows at their v_g.
        assert screened > total // 2

    def test_guard_defers_near_ties_at_large_h(self):
        for h, q, kmin, kmax in [(10**6 + 7, 2, 1, 3), (10**6, 3, 0, 40), (2 * 10**6, 254, 1, 2)]:
            w = WriteWindow(h=h, q=q, kmin=kmin, kmax=kmax)
            top = combinadic.binomial(h, kmax) * q**kmax
            cap = window_capacity(w)
            for need in (top - 1, top, top + 1, cap - 1, cap, cap + 1):
                # Within one of the top block or the capacity the logarithms
                # cannot tell, so the exact walk answers.
                assert not _top_block_covers(h, q, kmax, need), (w, need)
                assert window_covers(w, need) == (cap >= need), (w, need)
            assert _top_block_covers(h, q, kmax, top // 2)
            assert window_covers(w, top // 2)

    def test_no_logarithm_of_zero_or_of_a_huge_window(self):
        assert not _top_block_covers(5, 2, 2, 0)
        assert window_covers(WriteWindow(h=5, q=2, kmin=1, kmax=2), 0)
        # h beyond 2^53 skips the screen: float(h) would overflow at 10^400.
        w = WriteWindow(h=10**400, q=2, kmin=1, kmax=3)
        cap = window_capacity(w)
        assert not _top_block_covers(w.h, w.q, w.kmax, 2)
        for need in (0, 2, cap, cap + 1):
            assert window_covers(w, need) == (cap >= need)


class TestCanonicalEnumeration:
    def test_first_block_is_empty_write(self):
        w = WriteWindow(h=2, q=3, kmin=0, kmax=1)
        assert message_to_payload(0, w) == (0, 0)

    def test_worked_example(self):
        w = WriteWindow(h=2, q=3, kmin=0, kmax=1)
        # Block k = 0 holds message 0; in block k = 1, mask (1, 0) has rank 1
        # and takes messages 4..6, so message 3 is mask (0, 1) with value 3.
        assert message_to_payload(3, w) == (0, 3)

    def test_agrees_with_bruteforce_order(self):
        for h, q, kmin, kmax in [
            (2, 3, 0, 1),
            (4, 3, 0, 2),
            (5, 2, 1, 3),
            (3, 1, 0, 3),
            (6, 2, 1, 2),
        ]:
            w = WriteWindow(h=h, q=q, kmin=kmin, kmax=kmax)
            expected = list(spec.payloads((h, q, kmin, kmax)))
            assert len(expected) == window_capacity(w)
            for message, payload in enumerate(expected):
                assert message_to_payload(message, w) == payload
                assert message_of(payload, w) == message
                # The spec's arithmetic form keeps the order it enumerates.
                assert spec.payload(message, (h, q, kmin, kmax)) == payload
                assert spec.message(payload, (h, q, kmin, kmax)) == message

    def test_exhaustive_roundtrip_small_windows(self):
        for h in range(1, 7):
            for q in range(1, 4):
                for kmin in range(0, h + 1):
                    for kmax in range(kmin, h + 1):
                        w = WriteWindow(h=h, q=q, kmin=kmin, kmax=kmax)
                        seen = set()
                        for message in range(window_capacity(w)):
                            payload = message_to_payload(message, w)
                            assert message_of(payload, w) == message
                            seen.add(payload)
                        assert len(seen) == window_capacity(w)

    def test_message_out_of_range(self):
        w = WriteWindow(h=2, q=3, kmin=0, kmax=1)
        with pytest.raises(DomainError):
            message_to_payload(7, w)
        with pytest.raises(DomainError):
            message_to_payload(-1, w)

    def test_random_windows_roundtrip(self):
        rng = random.Random(255)
        for _ in range(200):
            h = rng.randrange(1, 300)
            q = rng.choice((1, 2, 3, 6, 7, 254, 255))
            kmin = rng.randrange(h + 1)
            w = WriteWindow(h=h, q=q, kmin=kmin, kmax=min(h, kmin + rng.randrange(40)))
            message = rng.randrange(window_capacity(w))
            payload = message_to_payload(message, w)
            assert message_of(payload, w) == message


def last_window(ht: int, m: int) -> WriteWindow:
    """The last window of ht symbols of m wits: base 2^m - 1 digits."""
    return write_window(m, (ht,), 1)


class TestLastWrite:
    def test_single_symbol(self):
        assert last_write_encode(0, last_window(1, 2)) == [1]
        assert last_write_encode(1, last_window(1, 2)) == [2]

    def test_maximal_codeword(self):
        assert last_write_encode(3**36 - 2, last_window(36, 2)) == [2] * 36

    def test_never_all_zero_never_erased(self):
        for m, ht in [(2, 3), (3, 2)]:
            top = (2**m - 1) ** ht - 1
            for message in range(top):
                digits = last_write_encode(message, last_window(ht, m))
                assert any(digits)
                assert all(0 <= d <= 2**m - 2 for d in digits)

    def test_roundtrip_exhaustive(self):
        for m, ht in [(2, 1), (2, 4), (2, 9), (3, 4)]:
            top = (2**m - 1) ** ht - 1
            window = last_window(ht, m)
            for message in range(min(top, 10**5)):
                assert last_write_decode(last_write_encode(message, window), window) == message

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            last_write_encode(2, last_window(1, 2))  # capacity is 3^1 - 1 = 2
        with pytest.raises(DomainError):
            last_write_encode(-1, last_window(1, 2))

    def test_decode_rejects_corrupt_digits(self):
        with pytest.raises(CorruptStateError):
            last_write_decode([0, 0, 0], last_window(3, 2))
        with pytest.raises(CorruptStateError):
            last_write_decode([], last_window(1, 2))

    def test_window_carries_the_m_checks(self):
        # A window's m is a CodeParams' m, so an m outside 2..M_LIMIT is
        # refused there and never reaches the bijection.
        with pytest.raises(DomainError, match="m must be at least 2"):
            CodeParams(m=1, v=(2,), h=(5000,))
        with pytest.raises(DomainError, match="m must be at most"):
            CodeParams(m=M_LIMIT + 1, v=(2,), h=(1,))
