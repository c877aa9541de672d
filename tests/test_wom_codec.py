"""Generation-aware encode/decode over symbol images."""

from __future__ import annotations

import itertools
import random

import pytest

from womcode.errors import CapacityError, CorruptStateError, DomainError
from womcode.planner import CodeParams, plan
from womcode.wom_codec import (
    MemoryImage,
    decode,
    detect_generation,
    encode_write,
    erase_to,
    fresh_image,
    next_generation,
)

SMALL = plan(2, [7, 2])  # h = (2, 1), four wits


def img(params, *symbols):
    return MemoryImage(params, tuple(symbols))


class TestDetectGeneration:
    def test_fresh_is_first(self):
        assert detect_generation(fresh_image(SMALL)) == 1

    def test_small_code_thresholds(self):
        assert detect_generation(img(SMALL, 0, 3)) == 1  # k0 = 1 >= h2 = 1
        assert detect_generation(img(SMALL, 2, 3)) == 2  # k0 = 0 < h2 = 1

    def test_thresholds_partition(self):
        params = plan(2, [50, 50, 6, 2])
        for k0 in range(params.h[0] + 1):
            symbols = [0] * k0 + [params.erased] * (params.h[0] - k0)
            g = detect_generation(img(params, *symbols))
            h = params.h + (0,)
            if g == 1:
                assert k0 >= h[1]
            else:
                assert h[g - 1] > k0 >= h[g]

    def test_single_write_code(self):
        params = plan(2, [5])
        assert detect_generation(fresh_image(params)) == 1


class TestEraseTo:
    def test_fresh_to_one_zero(self):
        assert erase_to(fresh_image(SMALL), 1).symbols == (0, 3)

    def test_idempotent(self):
        assert erase_to(img(SMALL, 0, 3), 1).symbols == (0, 3)

    def test_largest_index_zeros_go_first(self):
        params = plan(2, [100, 50, 6, 2])
        state = img(params, *( [2, 0, 1, 0] + [0] * (params.h[0] - 4) ))
        erased = erase_to(state, 1)
        expected = [params.erased] * params.h[0]
        expected[1] = 0
        assert erased.symbols == tuple(expected)

    def test_raises_when_short_of_zeros(self):
        with pytest.raises(CapacityError):
            erase_to(img(SMALL, 1, 3), 2)

    def test_never_decreases_symbols_to_nonerased(self):
        state = img(SMALL, 1, 0)
        out = erase_to(state, 1)
        assert out.symbols == (3, 0)


class TestSmallCodeChain:
    def test_write_then_rewrite(self):
        first = encode_write(fresh_image(SMALL), 3)
        assert first.symbols == (0, 3)
        assert decode(first) == (1, 3)
        second = encode_write(first, 1)
        assert second.symbols == (2, 3)
        assert decode(second) == (2, 1)

    def test_fresh_decodes_to_zero(self):
        assert decode(fresh_image(SMALL)) == (1, 0)

    def test_message_zero_is_free_write(self):
        state = encode_write(fresh_image(SMALL), 0)
        assert state.symbols == (0, 0)
        # The image is indistinguishable from fresh, so the next write is
        # again a first write: storing 0 costs no wits and no generation.
        state = encode_write(state, 0)
        state = encode_write(state, 5)
        assert decode(state) == (1, 5)
        state = encode_write(state, 1)
        assert decode(state) == (2, 1)
        with pytest.raises(CapacityError):
            encode_write(state, 0)

    def test_next_generation(self):
        # Only the all-zero image takes write 1; after the last write it is t + 1.
        assert next_generation(fresh_image(SMALL)) == 1
        assert next_generation(img(SMALL, 0, 3)) == 2
        assert next_generation(img(SMALL, 2, 3)) == 3
        params = plan(2, [50, 50, 2])  # h = (6, 4, 1): k0 = 5 is generation 1
        assert next_generation(img(params, 0, 0, 0, 0, 0, 1)) == 2

    def test_out_of_range_message(self):
        with pytest.raises(DomainError):
            encode_write(fresh_image(SMALL), 7)
        with pytest.raises(DomainError):
            encode_write(fresh_image(SMALL), -1)
        with pytest.raises(DomainError):
            encode_write(encode_write(fresh_image(SMALL), 3), 2)

    def test_exhaustion(self):
        state = encode_write(encode_write(fresh_image(SMALL), 4), 1)
        with pytest.raises(CapacityError):
            encode_write(state, 0)


class TestSingleWriteCode:
    def test_behaves_as_final_write_only(self):
        params = plan(2, [8])
        assert params.h == (2,)
        for message in range(8):
            state = encode_write(fresh_image(params), message)
            assert decode(state) == (1, message)
            assert all(s != params.erased for s in state.symbols)
        with pytest.raises(CapacityError):
            encode_write(state, 0)


class TestDecodeRejectsCorruptImages:
    def test_all_erased_is_corrupt(self):
        params = plan(2, [50, 50, 2])  # h = (6, 4, 1)
        # No zeros -> final generation, which must show exactly h3 = 1 live
        # (non-erased) symbol; an all-erased image shows none.
        all_erased = img(params, *([params.erased] * params.h[0]))
        with pytest.raises(
            CorruptStateError, match="^last write should leave 1 live symbols, found 0$"
        ):
            decode(all_erased)

    def test_last_write_live_count_mismatch(self):
        # k0 = 0 -> generation 2, whose live symbols must number h2 = 1.
        with pytest.raises(
            CorruptStateError, match="^last write should leave 1 live symbols, found 2$"
        ):
            decode(img(SMALL, 1, 1))

    def test_single_write_code_counts_live_symbols(self):
        # With t = 1 the first write is the last: an erased symbol is not live.
        params = plan(2, [5])  # h = (2,)
        with pytest.raises(
            CorruptStateError, match="^last write should leave 2 live symbols, found 1$"
        ):
            decode(img(params, 3, 1))

    def test_last_write_message_above_cardinality(self):
        params = plan(2, [25, 5])  # h = (4, 2); last capacity 8 > v2 = 5
        # Live digits (2, 2) decode to message 7 >= 5.
        with pytest.raises(CorruptStateError):
            decode(img(params, 2, 2, 3, 3))
        # Control: digits (2, 1) decode to message 6 >= 5 too; (1, 2) is 4.
        assert decode(img(params, 1, 2, 3, 3)) == (2, 4)

    def test_middle_write_slot_count_mismatch(self):
        params = CodeParams(m=2, v=(7, 3, 2), h=(4, 2, 1))
        # k0 = 1 -> generation 2, which must show exactly h2 = 2 live
        # symbols; here three survive the erasure marker.
        with pytest.raises(
            CorruptStateError, match="^write 2 should leave 2 live symbols, found 3$"
        ):
            decode(img(params, 3, 1, 0, 2))

    def test_middle_write_message_above_cardinality(self):
        params = CodeParams(m=2, v=(7, 3, 2), h=(4, 2, 1))
        # Generation-2 window: h=2, q=2, capacity 4 > v2 = 3.
        assert decode(img(params, 3, 3, 0, 2)) == (2, 1)
        # Written slot first in the window orders the mask as (1, 0):
        # message = rank * 2 + digit-1 = 3, which is out of range for v2.
        with pytest.raises(CorruptStateError):
            decode(img(params, 3, 3, 2, 0))


def wit_bits(image):
    out = []
    for s in image.symbols:
        out.extend((s >> shift) & 1 for shift in range(image.params.m - 1, -1, -1))
    return out


def assert_monotone_steps(states):
    for before, after in zip(states, states[1:]):
        for old_bit, new_bit in zip(wit_bits(before), wit_bits(after)):
            assert new_bit >= old_bit, "a wit would have to flip back to 0"


class TestExhaustiveSmallCodes:
    @pytest.mark.parametrize(
        "m,v",
        [
            (2, [7, 2]),
            (2, [5, 4, 2]),
            (2, [3, 3, 3, 2]),
            (3, [10, 6]),
            (2, [16, 2]),
            (2, [2, 2, 2]),
        ],
    )
    def test_all_message_sequences_roundtrip(self, m, v):
        params = plan(m, v)
        assert params.h[0] <= 8
        # Start first-write messages at 1: message 0 leaves the image fresh
        # (free write), so generations would renumber.
        ranges = [range(1, v[0])] + [range(vi) for vi in v[1:]]
        for sequence in itertools.product(*ranges):
            state = fresh_image(params)
            states = [state]
            for generation, message in enumerate(sequence, start=1):
                state = encode_write(state, message)
                states.append(state)
                assert decode(state) == (generation, message)
            assert_monotone_steps(states)

    def test_zero_count_trajectory(self):
        params = plan(2, [5, 4, 2])
        h = params.h
        rng = random.Random(3)
        for _ in range(50):
            state = fresh_image(params)
            for i, vi in enumerate(params.v, start=1):
                state = encode_write(state, rng.randrange(1, vi))
                k0 = state.zero_count
                if i < params.t:
                    assert h[i] <= k0 <= h[i - 1]
                else:
                    assert k0 < h[params.t - 1]

    def test_capacity_saturation(self):
        # When v_i equals the window capacity exactly, every payload occurs:
        # the number of distinct images after write i equals v_i.
        params = CodeParams(m=2, v=(7, 4, 2), h=(3, 2, 1))
        # capacities: first 1+C(3,1)*3=10 >= 7; middle C(2,1)*2=4 = v2; last 2.
        pre = encode_write(fresh_image(params), 1)
        seen = {encode_write(pre, message).symbols for message in range(4)}
        assert len(seen) == 4


def reachable_images(params):
    """Every image some legal write sequence leaves, mapped to its last write."""
    last = {}
    frontier = [fresh_image(params)]
    while frontier:
        image = frontier.pop()
        fresh = all(s == 0 for s in image.symbols)
        generation = 1 if fresh else detect_generation(image) + 1
        if generation > params.t:
            continue
        for message in range(params.v[generation - 1]):
            written = encode_write(image, message)
            assert last.setdefault(written.symbols, (generation, message)) == (
                generation,
                message,
            ), "one image left by two different writes"
            if written.symbols != image.symbols:
                frontier.append(written)
    return last


class TestDecoderContract:
    """decode is total over symbol images: it returns a reading or raises
    CorruptStateError, and every image a legal write leaves reads back as
    that write."""

    @pytest.mark.parametrize(
        "m,v",
        [(2, [4, 4, 4]), (2, [7, 2]), (3, [10, 6]), (2, [3, 3, 3, 2]), (2, [5, 5])],
    )
    def test_every_image_decodes_or_is_corrupt(self, m, v):
        params = plan(m, v)
        assert params.n <= 12
        last = reachable_images(params)
        assert (0,) * params.h[0] in last  # the free first write of message 0
        readable = 0
        for symbols in itertools.product(range(params.erased + 1), repeat=params.h[0]):
            try:
                reading = decode(img(params, *symbols))
            except CorruptStateError:
                assert symbols not in last, symbols
                continue
            readable += 1
            if symbols in last:
                assert reading == last[symbols], symbols
        assert readable >= len(last)


class TestRandomizedLifecycles:
    def test_random_codes_roundtrip(self):
        rng = random.Random(20260814)
        for _ in range(60):
            m = rng.choice([2, 3])
            t = rng.randrange(1, 7)
            v = [rng.randrange(2, 2**16) for _ in range(t)]
            params = plan(m, v)
            state = fresh_image(params)
            states = [state]
            for generation, vi in enumerate(v, start=1):
                message = rng.randrange(1, vi) if generation == 1 else rng.randrange(vi)
                state = encode_write(state, message)
                states.append(state)
                assert decode(state) == (generation, message)
            assert_monotone_steps(states)
            with pytest.raises(CapacityError):
                encode_write(state, 0)


def test_image_validation():
    with pytest.raises(DomainError):
        MemoryImage(SMALL, (0, 1, 2))
    with pytest.raises(DomainError):
        MemoryImage(SMALL, (0, 4))
