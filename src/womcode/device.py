"""Wit-level write-once memory simulator and session persistence.

A :class:`WitArray` holds n raw wits whose only legal transition is 0 -> 1;
any update that would clear a programmed wit raises
:class:`~womcode.errors.WriteOnceViolation`.  Symbol j of an image occupies
wits [j*m, (j+1)*m) with the most significant bit at the lowest wit index,
so for m = 2 the symbol sequence (2, 3) serializes to wits "1011".

In memory the n wits are one int, ``WitArray.word``, with wit 0 as its most
significant of n bits: ``format(word, f"0{n}b")`` is the wit string and
``int(wits, 2)`` reads it back.  The write-once check is then
``word & ~new == 0`` and the programmed count ``word.bit_count()``.  Images
cross this boundary as wit strings, each symbol rendered or parsed once
through a table of the distinct values present, so the cost stays linear in
n for any m.

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


def _is_wit_string(wits: str) -> bool:
    """True when every character is an ASCII 0 or 1.  ``int(x, 2)`` alone
    would also take "0b11", "1_1", "+11" and surrounding whitespace."""
    return wits.count("0") + wits.count("1") == len(wits)


def symbols_to_bits(symbols: Iterable[int], m: int) -> str:
    """Render symbol values as one wit string of m-wit groups, MSB first
    within a group."""
    symbols = tuple(symbols)
    groups = {s: format(s, f"0{m}b") for s in set(symbols)}
    if groups and not (min(groups) >= 0 and max(groups).bit_length() <= m):
        bad = next(s for s in symbols if s < 0 or s.bit_length() > m)
        raise DomainError(f"symbol {bad} does not fit in {m} wits")
    return "".join(map(groups.__getitem__, symbols))


def bits_to_symbols(wits: str, m: int) -> list[int]:
    """Inverse of :func:`symbols_to_bits`."""
    if len(wits) % m:
        raise DomainError(f"{len(wits)} wits do not form whole {m}-wit symbols")
    if not _is_wit_string(wits):
        raise DomainError("wit string must be ASCII 0/1")
    if not wits:  # the zip below takes m iterators, which n >= m bounds
        return []
    chunks = list(map("".join, zip(*[iter(wits)] * m)))
    values = {c: int(c, 2) for c in set(chunks)}
    return list(map(values.__getitem__, chunks))


class WitArray:
    """n write-once bits; programming is idempotent, clearing is an error."""

    def __init__(self, n: int, wits: str | None = None):
        if n < 0:
            raise DomainError(f"wit count must be nonnegative, got {n}")
        if wits is None:
            wits = "0" * n
        if len(wits) != n or not _is_wit_string(wits):
            raise DomainError("wits must be a string of n characters 0 or 1")
        self.n = n
        self.word = int(wits, 2) if n else 0

    def apply_image(self, image: MemoryImage) -> None:
        """Program the array to hold `image`, refusing any 1 -> 0 transition."""
        target = symbols_to_bits(image.symbols, image.params.m)
        if len(target) != self.n:
            raise DomainError(
                f"image needs {len(target)} wits, array has {self.n}"
            )
        new = int(target, 2) if target else 0
        if self.word & ~new:
            cleared = [
                i for i, (cur, bit) in enumerate(zip(self.serialize(), target))
                if cur > bit
            ]
            raise WriteOnceViolation(
                f"image would clear programmed wits at {cleared}"
            )
        self.word = new

    def read_image(self, params: CodeParams) -> MemoryImage:
        """Interpret the wits as a symbol image of `params`."""
        if self.n != params.n:
            raise DomainError(f"array has {self.n} wits, code uses {params.n}")
        return MemoryImage(params, tuple(bits_to_symbols(self.serialize(), params.m)))

    def serialize(self) -> str:
        """The wit string, wit 0 first (``format(0, "00b")`` is "0", so n = 0
        is its own case)."""
        return format(self.word, f"0{self.n}b") if self.n else ""


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
    if not _is_wit_string(wits):
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
    return params, WitArray(params.n, wits)
