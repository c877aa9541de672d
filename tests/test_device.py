"""Wit-level write-once enforcement, layout, and state-file persistence."""

from __future__ import annotations

import random

import pytest

import spec
from womcode.device import (
    WitArray,
    bits_to_symbols,
    load_state,
    save_state,
    symbols_to_bits,
)
from womcode.errors import CorruptStateError, DomainError, WriteOnceViolation
from womcode.planner import CodeParams, plan
from womcode.wom_codec import MemoryImage, encode_write, fresh_image

SMALL = plan(2, [7, 2])


def wit_string(bits):
    return "".join(map(str, bits))


class TestLayout:
    def test_symbol_groups_msb_first(self):
        assert symbols_to_bits((0, 3), 2) == "0011"
        assert symbols_to_bits((2, 3), 2) == "1011"
        assert symbols_to_bits((5,), 3) == "101"
        assert symbols_to_bits((), 4) == ""

    def test_roundtrip(self):
        for m in (2, 3, 4):
            values = list(range(2**m))
            assert bits_to_symbols(symbols_to_bits(values, m), m) == values

    # symbols_to_bits and bits_to_symbols check nothing: their symbols come
    # from a MemoryImage and their wits from read_image, which check them.
    def test_rejects_oversized_symbol(self):
        params = CodeParams(m=2, v=(2,), h=(3,))
        with pytest.raises(DomainError, match=r"lie in \[0, 3\]"):
            WitArray(6).apply_image(MemoryImage(params, (1, 4, 7)))
        with pytest.raises(DomainError, match=r"lie in \[0, 3\]"):
            WitArray(6).apply_image(MemoryImage(params, (0, -1, 0)))

    @pytest.mark.parametrize("m", [2, 9])
    @pytest.mark.parametrize("symbols", [(1.5, 0), (1.0, 0), (1, 1.0)])
    def test_rejects_non_int_symbol(self, m, symbols):
        params = CodeParams(m=m, v=(2,), h=(2,))
        with pytest.raises(DomainError, match="must be ints"):
            WitArray(2 * m).apply_image(MemoryImage(params, symbols))

    def test_rejects_ragged_bits(self):
        with pytest.raises(DomainError):
            WitArray(3, "011").read_image(SMALL)  # not whole 2-wit symbols

    @pytest.mark.parametrize("wits", ["0b11", "0_11", "+011", "-011", " 011", "0１01"])
    def test_rejects_non_binary_characters(self, wits):
        with pytest.raises(DomainError):
            WitArray(len(wits), wits)

    def test_matches_list_oracle(self):
        rng = random.Random(505)
        for m in (2, 3, 4, 5, 8, 9, 16):
            for _ in range(40):
                symbols = [rng.randrange(2**m) for _ in range(rng.randrange(60))]
                bits = spec.wits(symbols, m)
                assert symbols_to_bits(symbols, m) == wit_string(bits)
                assert bits_to_symbols(wit_string(bits), m) == symbols
                assert spec.symbols(bits, m) == symbols


class TestWitArray:
    def test_program_sets_and_counts(self):
        arr = WitArray(4, "0101")
        assert arr.word == 0b0101
        assert arr.word.bit_count() == 2
        assert arr.serialize() == "0101"

    def test_program_is_idempotent(self):
        arr = WitArray(SMALL.n)
        image = MemoryImage(SMALL, (1, 2))
        arr.apply_image(image)
        arr.apply_image(image)
        assert arr.serialize() == "0110"

    def test_word_holds_wit_zero_most_significant(self):
        arr = WitArray(6, "100110")
        assert arr.word == 0b100110
        assert arr.serialize() == "100110"
        assert WitArray(3, "001").serialize() == "001"

    def test_zero_wits(self):
        arr = WitArray(0)
        assert arr.word == 0
        assert arr.serialize() == ""
        assert WitArray(0, "").serialize() == ""

    def test_constructor_checks(self):
        with pytest.raises(DomainError):
            WitArray(-1)
        with pytest.raises(DomainError):
            WitArray(4, "011")
        with pytest.raises(DomainError):
            WitArray(4, "0121")
        # A wit string that is not a str is refused before its length is read.
        for wits in (b"0011", ["0", "0", "1", "1"], 11):
            with pytest.raises(DomainError, match="string of n characters"):
                WitArray(4, wits)

    def test_apply_image_programs_deltas(self):
        arr = WitArray(SMALL.n)
        arr.apply_image(MemoryImage(SMALL, (0, 3)))
        assert arr.serialize() == "0011"
        arr.apply_image(MemoryImage(SMALL, (2, 3)))
        assert arr.serialize() == "1011"

    def test_apply_image_noop_on_fresh(self):
        arr = WitArray(SMALL.n)
        arr.apply_image(fresh_image(SMALL))
        assert arr.serialize() == "0000"

    def test_write_once_violation(self):
        arr = WitArray(SMALL.n)
        arr.apply_image(MemoryImage(SMALL, (2, 3)))
        with pytest.raises(WriteOnceViolation):
            arr.apply_image(MemoryImage(SMALL, (1, 3)))  # 2 -> 1 clears a wit
        assert arr.serialize() == "1011"  # failed apply must not alter state

    def test_read_image_inverts_apply(self):
        params = plan(2, [5, 4, 2])
        arr = WitArray(params.n)
        image = encode_write(fresh_image(params), 3)
        arr.apply_image(image)
        assert arr.read_image(params).symbols == image.symbols

    def test_size_mismatch(self):
        with pytest.raises(DomainError):
            WitArray(6).apply_image(fresh_image(SMALL))
        with pytest.raises(DomainError):
            WitArray(6).read_image(SMALL)

    def test_violation_iff_any_bit_clears(self):
        rng = random.Random(99)
        params = plan(2, [64, 8])
        for _ in range(200):
            current = "".join(rng.choice("01") for _ in range(params.n))
            target = "".join(rng.choice("01") for _ in range(params.n))
            arr = WitArray(params.n, current)
            image = MemoryImage(
                params, tuple(bits_to_symbols(target, params.m))
            )
            should_fail = any(c > t for c, t in zip(current, target))
            if should_fail:
                with pytest.raises(WriteOnceViolation):
                    arr.apply_image(image)
            else:
                arr.apply_image(image)
                assert arr.serialize() == target

    def test_apply_image_matches_list_oracle(self):
        rng = random.Random(2026)
        for m in (2, 3, 4, 5, 8, 9, 16):
            for case in range(60):
                h1 = rng.randrange(1, 40)
                params = CodeParams(m=m, v=(2,), h=(h1,))
                current = [rng.randrange(2) for _ in range(params.n)]
                if case % 2:
                    # Only sets wits: the spec accepts it.
                    target = [c | (rng.random() < 0.3) for c in current]
                else:
                    # Mostly sets wits, and clears a few now and then.
                    target = [
                        c ^ 1 if rng.random() < 0.02 else c | (rng.random() < 0.3)
                        for c in current
                    ]
                image = MemoryImage(params, tuple(spec.symbols(target, m)))
                arr = WitArray(params.n, wit_string(current))
                before = arr.word
                try:
                    expected = spec.program(current, spec.wits(image.symbols, m))
                except spec.WriteOnceViolation as exc:
                    with pytest.raises(WriteOnceViolation) as got:
                        arr.apply_image(image)
                    assert str(got.value) == str(exc)
                    assert arr.word == before
                    assert arr.serialize() == wit_string(current)
                else:
                    arr.apply_image(image)
                    assert arr.serialize() == wit_string(expected)
                    assert arr.read_image(params).symbols == image.symbols


class TestStateFile:
    def test_golden_record(self, tmp_path):
        path = tmp_path / "code.wom"
        arr = WitArray(SMALL.n, "0011")
        save_state(path, SMALL, arr)
        assert path.read_text() == (
            "womstate 1\nm 2\nt 2\nv 7,2\nh 2,1\nwits 0011\n"
        )

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "code.wom"
        params = plan(2, [2**56] * 3)
        arr = WitArray(params.n)
        image = encode_write(fresh_image(params), 2**55 + 17)
        arr.apply_image(image)
        save_state(path, params, arr)
        loaded_params, loaded_arr = load_state(path)
        assert loaded_params == params
        assert loaded_arr.word == arr.word
        assert loaded_arr.serialize() == arr.serialize()

    def test_save_is_atomic_replacement(self, tmp_path):
        path = tmp_path / "code.wom"
        save_state(path, SMALL, WitArray(SMALL.n))
        before = path.read_text()
        save_state(path, SMALL, WitArray(SMALL.n, "0011"))
        after = path.read_text()
        assert before != after
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_save_names_the_session_file(self, tmp_path):
        # The open of the temp file fails in the first case, the rename
        # over a directory in the second; both report the path given.
        (tmp_path / "adir").mkdir()
        for path in (tmp_path / "nodir" / "code.wom", tmp_path / "adir"):
            with pytest.raises(OSError) as info:
                save_state(path, SMALL, WitArray(SMALL.n))
            assert info.value.filename == str(path)
            assert ".tmp" not in str(info.value)
        assert not (tmp_path / "nodir").exists()

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "code.wom"
        path.write_text("womstate 2\nm 2\nt 2\nv 7,2\nh 2,1\nwits 0000\n")
        with pytest.raises(CorruptStateError):
            load_state(path)

    def test_missing_magic(self, tmp_path):
        path = tmp_path / "code.wom"
        path.write_text("m 2\nt 2\n")
        with pytest.raises(CorruptStateError):
            load_state(path)

    @pytest.mark.parametrize(
        "mutation",
        [
            "womstate 1\nm 2\nt 2\nv 7,2\nh 2,1\nwits 00x1\n",  # bad wit char
            "womstate 1\nm 2\nt 2\nv 7,2\nh 2,1\nwits 00110\n",  # wrong length
            "womstate 1\nm 2\nt 3\nv 7,2\nh 2,1\nwits 0011\n",  # t mismatch
            "womstate 1\nm 2\nt 2\nv 7,q\nh 2,1\nwits 0011\n",  # bad integer
            "womstate 1\nm 2\nt 2\nv 7,2\nwits 0011\n",  # missing field
            "womstate 1\nm 2\nt 2\nv 7,2\nh 1,2\nwits 0011\n",  # bad windows
            "womstate 1\nm 2\nt 2\nv 7,2\nh 2,1\nwits 1111\nwits 0000\n",  # repeated field
            "womstate 1\nm 2\nt 2\nv 7,2\nh 2,1\nwits 0011\nnote 1\n",  # unknown field
        ],
    )
    def test_corrupt_records(self, tmp_path, mutation):
        path = tmp_path / "code.wom"
        path.write_text(mutation)
        with pytest.raises(CorruptStateError):
            load_state(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(CorruptStateError):
            load_state(tmp_path / "absent.wom")
