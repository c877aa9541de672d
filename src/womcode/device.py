"""Wit-level write-once memory simulator and session persistence.

A :class:`WitArray` holds n raw wits whose only legal transition is 0 -> 1;
any update that would clear a programmed wit raises
:class:`~womcode.errors.WriteOnceViolation`.  Symbol j of an image occupies
wits [j*m, (j+1)*m) with the most significant bit at the lowest wit index,
so for m = 2 the symbol sequence (2, 3) serializes to wits "1011".

In memory the n wits are one int, ``WitArray.word``, with wit 0 as its most
significant of n bits: ``format(word, f"0{n}b")`` is the wit string and
``int(wits, 2)`` reads it back.  The write-once check is then
``word & ~new == 0`` and the programmed count ``word.bit_count()``.

Images cross this boundary as wit strings.  A :class:`MemoryImage` has
checked its symbols and :meth:`WitArray.read_image` checks n = m*h_1, so the
two conversions check nothing.  For m <= 8 a symbol fits in a byte, and the
conversion works on bit planes: plane p, the p-th wit of every symbol, is
the string slice ``wits[p::m]``.  Read as one byte per wit, a plane is an
int whose bytes are 0 or 1; shifted by m-1-p and added up, the planes give
an int whose bytes are the symbols.  Writing goes the other way through
``bytearray`` slice assignment.  Both directions are a handful of C-level
operations per plane, with no Python step per symbol.  For m > 8, which
no benchmark workload reaches, each symbol is formatted or parsed on its own.

Session state is a small versioned text file, bit-exact across runs:

    womstate 1
    m 2
    t 2
    v 7,2
    h 2,1
    wits 0011

with v as decimal strings (cardinalities exceed any fixed width), h as
decimal window sizes, and the wit string listing index 0 first.  Each
field appears once: a repeated or unknown key makes the file corrupt.
Saving replaces the file atomically (write-new-then-rename); an OSError
from either step names the session file, not the temp file.
"""

from __future__ import annotations

import os
from typing import Sequence

from .errors import CorruptStateError, DomainError, WriteOnceViolation, as_int
from .planner import CodeParams, validate
from .wom_codec import MemoryImage

STATE_MAGIC = "womstate"
STATE_VERSION = 1
STATE_FIELDS = ("m", "t", "v", "h", "wits")

# Symbols of at most this many wits fit in a byte (2^m - 1 <= 255).
BYTE_M = 8


def _is_wit_string(wits: object) -> bool:
    """True when `wits` is a str of ASCII 0s and 1s.  ``int(x, 2)`` alone
    would also take "0b11", "1_1", "+11" and surrounding whitespace."""
    return isinstance(wits, str) and wits.isascii() and not wits.encode().translate(None, b"01")


_BYTE_VALUES = bytes(range(256))
# ASCII wit "0"/"1" -> byte 0/1, and byte value -> ASCII wit of its bit b.
_WIT_TO_BIT = bytes.maketrans(b"01", b"\x00\x01")
_WIT_OF_BIT = tuple(
    bytes.maketrans(_BYTE_VALUES, bytes(48 + (v >> b & 1) for v in range(256)))
    for b in range(BYTE_M)
)


def symbols_to_bits(symbols: Sequence[int], m: int) -> str:
    """Render symbol values, ints in [0, 2^m - 1], as one wit string of
    m-wit groups, MSB first within a group."""
    if m <= BYTE_M:
        data = bytes(symbols)
        wits = bytearray(len(data) * m)
        for p in range(m):
            wits[p::m] = data.translate(_WIT_OF_BIT[m - 1 - p])
        return wits.decode("ascii")
    return "".join(format(s, f"0{m}b") for s in symbols)


def bits_to_symbols(wits: str, m: int) -> list[int]:
    """Inverse of :func:`symbols_to_bits` for a wit string of whole m-wit
    symbols."""
    if m <= BYTE_M:
        raw = wits.encode("ascii")
        word = 0
        for p in range(m):
            plane = raw[p::m].translate(_WIT_TO_BIT)
            word |= int.from_bytes(plane, "big") << (m - 1 - p)
        return list(word.to_bytes(len(raw) // m, "big"))
    return [int(wits[i:i + m], 2) for i in range(0, len(wits), m)]


class WitArray:
    """n write-once bits; programming is idempotent, clearing is an error."""

    def __init__(self, n: int, wits: str | None = None):
        n = as_int(n, "wit count")
        if n < 0:
            raise DomainError(f"wit count must be nonnegative, got {n}")
        if wits is None:
            wits = "0" * n
        if not _is_wit_string(wits) or len(wits) != n:
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
        return MemoryImage(params, bits_to_symbols(self.serialize(), params.m))

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
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(record + "\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc


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
        if key not in STATE_FIELDS:
            fail(f"unknown field {key!r}")
        if key in fields:
            fail(f"repeated field {key!r}")
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
