"""Wit-level write-once memory simulator and session persistence.

A :class:`WitArray` holds n raw wits whose only legal transition is 0 -> 1;
any update that would clear a programmed wit raises
:class:`~womcode.errors.WriteOnceViolation`.  Symbol j of an image occupies
wits [j*m, (j+1)*m) with the most significant bit at the lowest wit index,
so for m = 2 the symbol sequence (2, 3) serializes to wits "1011".

Session state is a small versioned text file, bit-exact across runs:

    womstate 1
    m 2
    t 2
    v 7,2
    h 2,1
    wits 0011

with v as decimal strings (cardinalities exceed any fixed width), h as
decimal window sizes, and the wit string listing index 0 first.  Saving
replaces the file atomically (write-new-then-rename).
"""

from __future__ import annotations

import os
from typing import Iterable

from .errors import CorruptStateError, DomainError, WriteOnceViolation
from .planner import CodeParams, validate
from .wom_codec import MemoryImage

STATE_MAGIC = "womstate"
STATE_VERSION = 1


def symbols_to_bits(symbols: Iterable[int], m: int) -> list[int]:
    """Render symbol values as their m-bit groups, MSB first within a group."""
    bits: list[int] = []
    for s in symbols:
        if not 0 <= s < 2**m:
            raise DomainError(f"symbol {s} does not fit in {m} wits")
        bits.extend((s >> shift) & 1 for shift in range(m - 1, -1, -1))
    return bits


def bits_to_symbols(bits: Iterable[int], m: int) -> list[int]:
    """Inverse of :func:`symbols_to_bits`."""
    bits = list(bits)
    if len(bits) % m:
        raise DomainError(f"{len(bits)} wits do not form whole {m}-wit symbols")
    out = []
    for j in range(0, len(bits), m):
        value = 0
        for b in bits[j : j + m]:
            value = (value << 1) | b
        out.append(value)
    return out


class WitArray:
    """n write-once bits; programming is idempotent, clearing is an error."""

    def __init__(self, n: int, bits: Iterable[int] | None = None):
        if n < 0:
            raise DomainError(f"wit count must be nonnegative, got {n}")
        self.n = n
        self.bits = [0] * n if bits is None else list(bits)
        if len(self.bits) != n or any(b not in (0, 1) for b in self.bits):
            raise DomainError("bits must be n values of 0 or 1")

    def program(self, positions: Iterable[int]) -> None:
        """Set the listed wits to 1 (no-op on wits already programmed)."""
        positions = list(positions)
        if any(not 0 <= p < self.n for p in positions):
            raise DomainError(f"wit index out of range for n={self.n}")
        for p in positions:
            self.bits[p] = 1

    def apply_image(self, image: MemoryImage) -> None:
        """Program the array to hold `image`, refusing any 1 -> 0 transition."""
        target = symbols_to_bits(image.symbols, image.params.m)
        if len(target) != self.n:
            raise DomainError(
                f"image needs {len(target)} wits, array has {self.n}"
            )
        cleared = [i for i, (cur, new) in enumerate(zip(self.bits, target)) if cur > new]
        if cleared:
            raise WriteOnceViolation(
                f"image would clear programmed wits at {cleared}"
            )
        self.program([i for i, b in enumerate(target) if b and not self.bits[i]])

    def read_image(self, params: CodeParams) -> MemoryImage:
        """Interpret the wits as a symbol image of `params`."""
        if self.n != params.n:
            raise DomainError(f"array has {self.n} wits, code uses {params.n}")
        return MemoryImage(params, tuple(bits_to_symbols(self.bits, params.m)))

    def serialize(self) -> str:
        return "".join(str(b) for b in self.bits)


def save_state(path: str | os.PathLike, params: CodeParams, array: WitArray) -> None:
    """Persist a session atomically (write a sibling temp file, then rename)."""
    if array.n != params.n:
        raise DomainError(f"array has {array.n} wits, code uses {params.n}")
    record = "\n".join(
        [
            f"{STATE_MAGIC} {STATE_VERSION}",
            f"m {params.m}",
            f"t {params.t}",
            "v " + ",".join(str(x) for x in params.v),
            "h " + ",".join(str(x) for x in params.h),
            f"wits {array.serialize()}",
        ]
    )
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(record + "\n")
    os.replace(tmp, path)


def load_state(path: str | os.PathLike) -> tuple[CodeParams, WitArray]:
    """Load a session saved by :func:`save_state`."""
    try:
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CorruptStateError(f"cannot read state file {path}: {exc}") from exc

    def fail(reason: str):
        raise CorruptStateError(f"state file {path}: {reason}")

    if not lines or lines[0].split() != [STATE_MAGIC, str(STATE_VERSION)]:
        fail(f"missing or unsupported version tag (want '{STATE_MAGIC} {STATE_VERSION}')")
    fields = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        key, _, value = line.partition(" ")
        fields[key] = value.strip()
    try:
        m = int(fields["m"])
        t = int(fields["t"])
        v = tuple(int(x) for x in fields["v"].split(","))
        h = tuple(int(x) for x in fields["h"].split(","))
        wits = fields["wits"]
    except (KeyError, ValueError) as exc:
        fail(f"malformed field ({exc})")
    if t != len(v) or t != len(h):
        fail(f"t={t} disagrees with {len(v)} cardinalities / {len(h)} windows")
    if any(c not in "01" for c in wits):
        fail("wit string must be ASCII 0/1")
    try:
        params = CodeParams(m=m, v=v, h=h)
    except DomainError as exc:
        fail(str(exc))
    # Checked before validate, whose capacity walks take time growing with
    # h: once the wit string matches m*h_1, the file's size bounds that work.
    if len(wits) != params.n:
        fail(f"wit string length {len(wits)} != m*h_1 = {params.n}")
    problems = validate(params)
    if problems:
        fail("; ".join(f"{p.condition}: {p.detail}" for p in problems))
    return params, WitArray(params.n, [int(c) for c in wits])
