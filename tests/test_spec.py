"""The whole scheme against its executable specification, tests/spec.py."""

from __future__ import annotations

import ast
import random
import sys
from pathlib import Path

import spec
from womcode.device import WitArray, symbols_to_bits
from womcode.planner import plan
from womcode.wom_codec import MemoryImage, decode, encode_write, fresh_image


def test_womcode_runs_every_write_and_read_as_the_spec_does():
    # Each code takes free writes of message 0, its t writes (some at the top
    # message, filling a window), a message out of range and one write too many;
    # after each step a symbol erased by hand makes an image no write leaves.
    rng = random.Random(1210)
    steps = 0
    for case in range(160):
        m = (2, 3, 4, 9)[case % 4]
        t = rng.randint(1, 6)
        v = [rng.randrange(2, 2 ** rng.randint(2, 12 if m < 9 else 24)) for _ in range(t)]
        params = plan(m, v)
        h = spec.plan(m, v)
        assert params.h == h, (m, v)
        image, symbols = fresh_image(params), [0] * h[0]
        array = WitArray(params.n)
        tops = [vg - 1 if rng.random() < 0.4 else rng.randrange(vg) for vg in v]
        messages = [0] * rng.randint(0, 2) + [max(tops[0], 1)] + tops[1:] + [0]
        messages.insert(rng.randint(0, t), -1 if case % 2 else 2**24)
        for msg in messages:
            written = spec.outcome(encode_write, image, msg)
            expected = spec.outcome(spec.write, symbols, m, h, v, msg)
            if isinstance(expected, str):
                assert written == expected, (m, v, symbols, msg)
                continue
            assert written.symbols == tuple(expected), (m, v, symbols, msg)
            image, symbols = written, expected
            wits = "".join(map(str, spec.wits(symbols, m)))
            assert symbols_to_bits(image.symbols, m) == wits
            array.apply_image(image)
            assert array.serialize() == wits
            assert decode(image) == spec.read(symbols, m, h, v)
            hurt = list(symbols)
            hurt[rng.randrange(h[0])] = params.erased
            reading = spec.outcome(decode, MemoryImage(params, hurt))
            assert reading == spec.outcome(spec.read, hurt, m, h, v), (m, v, hurt)
            steps += 1
    assert steps >= 600


def test_spec_imports_only_the_standard_library():
    # The spec judges womcode, so it may not reach it, not even indirectly.
    tree = ast.parse(Path(spec.__file__).read_text())
    names = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    names |= {n.module or "." for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert {name.split(".")[0] for name in names} <= sys.stdlib_module_names - {"importlib"}
    assert "__import__" not in {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
