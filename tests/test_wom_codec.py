"""Generation-aware encode/decode over symbol images."""

from __future__ import annotations

import itertools
import random
import tracemalloc

import pytest

import spec
from womcode.errors import CapacityError, CorruptStateError, DomainError
from womcode.planner import CodeParams, plan, validate
from womcode.wom_codec import (
    GenerationReading,
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
        assert erase_to(fresh_image(SMALL), 0).symbols == (3, 3)

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
        with pytest.raises(DomainError, match="nonnegative, got -1$"):
            erase_to(fresh_image(SMALL), -1)

    def test_never_decreases_symbols_to_nonerased(self):
        state = img(SMALL, 1, 0)
        out = erase_to(state, 1)
        assert out.symbols == (3, 0)

    def test_target_checked_before_anything_is_built(self):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="only 2 zero symbols left, need 1000000$"):
                erase_to(fresh_image(SMALL), 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


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
            wits = spec.wits(state.symbols, m)
            for generation, message in enumerate(sequence, start=1):
                state = encode_write(state, message)
                wits = spec.program(wits, spec.wits(state.symbols, m))
                assert decode(state) == (generation, message)

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


class TestDecoderContract:
    """decode is total over symbol images: it returns the spec's reading or
    raises CorruptStateError where the spec does, and every image a legal
    write leaves reads back as that write."""

    @pytest.mark.parametrize(
        "m,v",
        [(2, [4, 4, 4]), (2, [7, 2]), (3, [10, 6]), (2, [3, 3, 3, 2]), (2, [5, 5])],
    )
    def test_every_image_decodes_or_is_corrupt(self, m, v):
        params = plan(m, v)
        assert params.n <= 12
        last = spec.reachable(m, v, params.h)
        assert (0,) * params.h[0] in last  # the free first write of message 0
        for symbols in itertools.product(range(params.erased + 1), repeat=params.h[0]):
            reading = spec.outcome(decode, img(params, *symbols))
            assert reading == spec.outcome(spec.read, symbols, m, params.h, v), symbols
            assert reading == last.get(symbols, reading), symbols

    @pytest.mark.parametrize(
        "m,v,h",
        [(2, (7, 2), (2, 2)), (2, (100, 2), (2, 1))],
        ids=["equal-windows", "short-capacity"],
    )
    def test_codes_validate_rejects_decode_or_are_corrupt(self, m, v, h):
        # decode accepts a CodeParams that validate rejects.  The all-zero
        # image of h = (2, 2) has no window (h_1 > h_2 fails), so it is
        # corrupt; the spec does not check the window order and reads
        # (1, 0).  Every other image reads as the spec reads it.
        params = CodeParams(m, v, h)
        assert validate(params)
        for symbols in itertools.product(range(params.erased + 1), repeat=h[0]):
            reading = spec.outcome(decode, img(params, *symbols))
            assert isinstance(reading, GenerationReading) or reading == "CorruptStateError"
            if h == (2, 2) and not any(symbols):
                assert reading == "CorruptStateError"
            else:
                assert reading == spec.outcome(spec.read, symbols, m, h, v), symbols


class TestRandomizedLifecycles:
    def test_random_codes_roundtrip(self):
        rng = random.Random(20260814)
        for _ in range(60):
            m = rng.choice([2, 3])
            t = rng.randrange(1, 7)
            v = [rng.randrange(2, 2**16) for _ in range(t)]
            params = plan(m, v)
            state = fresh_image(params)
            wits = spec.wits(state.symbols, m)
            for generation, vi in enumerate(v, start=1):
                message = rng.randrange(1, vi) if generation == 1 else rng.randrange(vi)
                state = encode_write(state, message)
                wits = spec.program(wits, spec.wits(state.symbols, m))
                assert state.zero_count == state.symbols.count(0)
                assert decode(state) == (generation, message)
            with pytest.raises(CapacityError):
                encode_write(state, 0)


def test_image_validation():
    with pytest.raises(DomainError):
        MemoryImage(SMALL, (0, 1, 2))
    wide = CodeParams(m=9, v=(2,), h=(2,))
    for params, symbols in [
        (SMALL, (0, 4)),
        (SMALL, (0, -1)),
        (SMALL, (0, 256)),
        (wide, (0, 512)),
        (wide, (-1, 0)),
    ]:
        with pytest.raises(DomainError, match=rf"lie in \[0, {params.erased}\]"):
            MemoryImage(params, symbols)
    assert MemoryImage(wide, (511, 0)).symbols == (511, 0)


@pytest.mark.parametrize("params", [SMALL, CodeParams(m=9, v=(2,), h=(2,))])
@pytest.mark.parametrize("symbols", [(1.5, 0), (1.0, 0), (1, 1.0)])
def test_image_symbols_must_be_ints(params, symbols):
    with pytest.raises(DomainError, match="must be ints"):
        MemoryImage(params, symbols)


def test_zero_count_is_derived_not_compared():
    image = img(SMALL, 0, 3)
    assert image.zero_count == 1
    assert image.classes == b"\x00\x02"
    twin = MemoryImage(SMALL, [0, 3])
    object.__setattr__(twin, "zero_count", 2)
    object.__setattr__(twin, "classes", b"\x01\x01")
    assert image == twin and hash(image) == hash(twin)
    assert repr(image) == "MemoryImage(params=" + repr(SMALL) + ", symbols=(0, 3))"


class Index:
    """An int-like object that is not an int: it has only __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def symbol_classes(symbols, top):
    """The classes by their definition: 0 zero, 2 erased (top), 1 written."""
    return bytes(0 if s == 0 else 2 if s == top else 1 for s in symbols)


@pytest.mark.parametrize("m", range(2, 11))
def test_classes_match_the_per_symbol_definition(m):
    rng = random.Random(2400 + m)
    top = 2**m - 1
    for _ in range(20):
        h1 = rng.randrange(300)
        params = CodeParams(m=m, v=(2,), h=(h1,))
        # Zeros, erased symbols and written values, in shares that vary.
        pool = (0, top, rng.randrange(1, top))
        symbols = [
            rng.choice(pool) if rng.random() < 0.7 else rng.randrange(top + 1) for _ in range(h1)
        ]
        # bytes holds values up to 255 only, so for m > 8 it gets the low byte.
        low = [s & 255 for s in symbols]
        for given, values in [
            (symbols, symbols),
            (tuple(symbols), symbols),
            ([Index(s) for s in symbols], symbols),
            (bytes(low), low),
        ]:
            image = MemoryImage(params, given)
            assert type(image.symbols) is tuple and image.symbols == tuple(values)
            assert image.classes == symbol_classes(values, top)
            assert image.zero_count == values.count(0)
            assert image == MemoryImage(params, tuple(values))


@pytest.mark.parametrize("m", [2, 3, 8, 9])
def test_image_fault_texts(m):
    # m <= 8 converts with bytes and classifies with translate; a fault goes
    # to the per-symbol checks, so every m words it the same way.
    params = CodeParams(m=m, v=(2,), h=(3,))
    not_int = "symbol values must be ints: '{}' object cannot be interpreted as an integer"
    out_of_range = f"symbol values must lie in [0, {2**m - 1}]"
    for symbols, text in [
        ([0, 1.0, 1], not_int.format("float")),
        ([0, "2", 1], not_int.format("str")),
        ([0, -1, 1], out_of_range),
        ([0, 2**m, 1], out_of_range),
        ([0, 2**70, 1], out_of_range),
        ([0, 2**m, 1.0], not_int.format("float")),  # every value converts first
        ([0, -1], "image must hold 3 symbols, got 2"),  # then the count
        ("012", not_int.format("str")),
        (5, "symbol values must be ints: 'int' object is not iterable"),
    ]:
        given_as = (list, tuple, iter) if isinstance(symbols, list) else (lambda x: x,)
        for given in map(lambda form: form(symbols), given_as):
            with pytest.raises(DomainError) as info:
                MemoryImage(params, given)
            assert str(info.value) == text, (given, m)


class TestAgainstSymbolLoops:
    @pytest.mark.parametrize("m", [2, 3, 4, 8, 9])
    def test_seeded_writes_on_random_codes(self, m):
        rng = random.Random(1000 + m)
        for _ in range(12):
            t = rng.randrange(1, 6)
            params = plan(m, [rng.randrange(2, 2 ** rng.randrange(2, 200)) for _ in range(t)])
            state = fresh_image(params)
            for generation in range(1, t + 1):
                target = params.h[generation - 1]
                erased = erase_to(state, target)
                assert erased.symbols == tuple(spec.erase(state.symbols, m, target))
                assert erased.zero_count == erased.symbols.count(0) == target
                for short in range(target + 1, target + 3):
                    if short > state.zero_count:
                        with pytest.raises(CapacityError, match=f"need {short}$"):
                            erase_to(state, short)
                message = rng.randrange(1 if generation == 1 else 0, params.v[generation - 1])
                expected = spec.write(state.symbols, m, params.h, params.v, message)
                state = encode_write(state, message)
                assert state.symbols == tuple(expected)
                assert state.zero_count == state.symbols.count(0)
                assert decode(state) == (generation, message)
