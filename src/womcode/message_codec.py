"""Bijection between message integers and write payloads.

A write's payload is the tuple of its h window slot values: 0 for a slot
the write leaves at zero, 1..q for a written one.  The payload writes k
slots, k = h - count(0), with kmin <= k <= kmax.  There are
sum_k C(h, k) * q^k payloads, and this module fixes one canonical
enumeration of them so that encoder and decoder agree:

  * payloads are blocked by k, ascending from kmin (so message 0 is the
    cheapest write);
  * inside a block the slot mask (which slots are nonzero) is the major
    coordinate, ordered by its lexical rank, and the written values are the
    minor coordinate;
  * the written values are read as a base-q number whose most significant
    digit belongs to the leftmost written slot, with digit d standing for
    slot value d + 1.

The block sizes B(k) = C(h, k) * q^k come from one walk over k that takes
C(h, kmin) once and then steps

  B(k+1) = B(k) * ((h - k) * q) // (k + 1)

exactly, since C(h, k+1) = C(h, k) * (h - k) / (k + 1).  The capacity, the
block a message falls in and the offset of a payload's block all read the
same walk; only a window that may write all h slots takes its capacity in
closed form, (1 + q)^h less the blocks below kmin.  :func:`window_covers`
walks the other way, from kmax down by B(k-1) = B(k) * k // ((h-k+1) * q),
and stops as soon as the blocks summed reach the number asked for.

This module trusts its callers: windows come from
:func:`womcode.planner.write_window` (0 <= kmin <= kmax <= h, q >= 1),
messages from :func:`womcode.wom_codec.encode_write` (0 <= M < v_g), and
payloads and digits from :func:`womcode.wom_codec.decode` (h live symbols
in [0, q], k in [kmin, kmax] by the zero count that chose the write).  It
raises only for a message beyond the window's capacity, on a code that
:func:`womcode.planner.validate` rejects, and for the all-zero last write
of a fresh one-write memory.

The last write of a code bypasses position modulation entirely:
:func:`last_write_encode` maps a message M to the base-(q + 1)
representation of M + 1 over the last window, whose q is 2^m - 2, so the
base is 2^m - 1.  That never produces the all-zero word and never uses the
erased symbol value 2^m - 1.  Both bijections split and join their digits
with one private pair, :func:`_digits` and :func:`_number`: one divmod per
digit, and Horner's rule.

The mask goes to and from :mod:`womcode.combinadic` as 0/1 values, the
written slots are found with ``compress`` and ``filter``, and the digit
pair takes one Python step per digit.  Decoding works per written slot;
encoding's ``unrank`` also steps the mask's zeros, up to h - k of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import truth
from typing import Iterable, Iterator, Sequence

from .combinadic import binomial, rank, unrank
from .errors import CorruptStateError, DomainError


@dataclass(frozen=True)
class WriteWindow:
    """The zero symbols available to one write and its payload alphabet."""

    h: int  # window size (count of zero slots)
    q: int  # symbol values available per written slot: 1..q
    kmin: int  # fewest slots a payload may write
    kmax: int  # most slots a payload may write


def _digits(x: int, base: int, length: int) -> list[int]:
    """The `length` base-`base` digits of x, most significant first, one
    divmod per digit.  No decimal string is built, so Python's int/str digit
    limit never applies."""
    digits = [0] * length
    for pos in range(length - 1, -1, -1):
        x, digits[pos] = divmod(x, base)
    return digits


def _number(digits: Iterable[int], base: int) -> int:
    """Inverse of :func:`_digits`: the base-`base` number with these digits,
    by Horner's rule."""
    x = 0
    for d in digits:
        x = x * base + d
    return x


def _blocks(window: WriteWindow) -> Iterator[tuple[int, int]]:
    """Yield (k, C(h, k) * q^k) for k = kmin, ..., kmax by the running step."""
    h, q = window.h, window.q
    block = binomial(h, window.kmin) * q**window.kmin
    for k in range(window.kmin, window.kmax):
        yield k, block
        block = block * ((h - k) * q) // (k + 1)
    yield window.kmax, block


def window_capacity(window: WriteWindow) -> int:
    """Exact number of distinct payloads the window can represent.

    A window that may write every slot (kmax == h) sums to (1 + q)^h by the
    binomial theorem, less the blocks below kmin.
    """
    h, q = window.h, window.q
    if window.kmax == h:
        return (1 + q) ** h - sum(binomial(h, k) * q**k for k in range(window.kmin))
    return sum(block for _, block in _blocks(window))


def window_covers(window: WriteWindow, need: int) -> bool:
    """Whether the window holds at least `need` payloads, i.e.
    ``window_capacity(window) >= need``, without always summing every block.

    Blocks are added from kmax downward, B(k-1) = B(k) * k // ((h-k+1) * q)
    (exact, as C(h, k-1) = C(h, k) * k / (h-k+1)), stopping once the sum
    reaches `need`; the top block alone often does.  A window that may write
    every slot takes the closed form of :func:`window_capacity`.
    """
    h, q, k = window.h, window.q, window.kmax
    if k == h:
        return window_capacity(window) >= need
    block = binomial(h, k) * q**k
    total = block
    while total < need and k > window.kmin:
        block = block * k // ((h - k + 1) * q)
        k -= 1
        total += block
    return total >= need


def message_to_payload(message: int, window: WriteWindow) -> tuple[int, ...]:
    """Map a message in [0, window_capacity) to its canonical slot values."""
    h, q = window.h, window.q
    rem = message
    for k, block in _blocks(window):
        if rem < block:
            mask_index, value_index = divmod(rem, q**k)
            # The mask becomes the payload: each written slot, found by
            # compress, takes its value; the others stay 0.
            values = unrank(mask_index, h, k)
            for pos, d in zip(compress(range(h), values), _digits(value_index, q, k)):
                values[pos] = d + 1
            return tuple(values)
        rem -= block
    raise DomainError(
        f"message {message} exceeds window capacity {window_capacity(window)}"
    )


def payload_to_message(values: Sequence[int], window: WriteWindow) -> int:
    """Exact inverse of :func:`message_to_payload`."""
    q = window.q
    written = list(filter(None, values))
    k = len(written)
    base = 0
    for j, block in _blocks(window):
        if j == k:
            break
        base += block
    return base + rank(map(truth, values)) * q**k + _number([d - 1 for d in written], q)


def last_write_encode(message: int, window: WriteWindow) -> list[int]:
    """Spread a last-write message over the last window's h symbols as
    base-(q + 1) digits, q + 1 = 2^m - 1.

    The message range is [0, window_capacity) = [0, (q + 1)^h - 2] for the
    last window (kmin = 1, kmax = h); the stored word is M + 1 so
    the all-zero word (which would read as an earlier generation) is never
    emitted, and no digit can equal the erased value q + 1.
    """
    if not 0 <= message < window_capacity(window):
        raise DomainError(
            f"message {message} out of range for last write over {window.h} symbols"
        )
    return _digits(message + 1, window.q + 1, window.h)


def last_write_decode(digits: Sequence[int], window: WriteWindow) -> int:
    """Inverse of :func:`last_write_encode` for a stored digit sequence."""
    x = _number(digits, window.q + 1)
    if x == 0:
        raise CorruptStateError("all-zero word is not a legal last write")
    return x - 1
