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

Before that walk, :func:`window_covers` screens by logarithms.  It returns
True at once when

  lgamma(h+1) - lgamma(k+1) - lgamma(h-k+1) + k ln q - ln need

at k = kmax exceeds SCREEN_GUARD = 1e-9 times the sum of the five terms,
each of them >= 0, since then the top block B(kmax) alone holds `need`
payloads.  The guard is safe because each term is within a few units of
2^-53 of itself (h < 2^53 converts to a float exactly, and ``log`` takes
any int), and each of the four additions rounds by at most half a unit of
2^-53 of that sum, so the rounding is about 10^6 times smaller than the
guard.  Measured with Python 3.11.7 over 20 000 random h < 20 000
and k <= h, three seeds: the lgamma form of ln C(h, k) is within 7.2e-11 of
``log(comb(h, k))``, at most 4.6 units of 2^-53 of lgamma(h+1).  A window
a plan picks covers its v_g by 1 to 6 bits, far beyond the guard, so the
screen settles most of those at the cost of five logarithms.  Every other
window, each near tie, each "does not cover", every need < 1 and every
h >= 2^53 takes the exact walk.

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

The mask goes to :mod:`womcode.combinadic` as the 0/1 bytes that
:func:`womcode.wom_codec.decode` takes from an image's symbol classes,
and :func:`payload_to_message` gets the written values apart from it.  The
mask comes back from ``unrank`` as 0/1 ints, whose written slots are found
with ``compress``, and the digit pair takes one Python step per digit.
Decoding works per written slot; encoding's ``unrank`` also steps the
mask's zeros, up to h - k of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import lgamma, log
from typing import Iterable, Iterator, Sequence

from .combinadic import binomial, rank, unrank
from .errors import CorruptStateError, DomainError


# The log screen's margin, relative to the size of its terms: about 10^6
# times the rounding error of lgamma, log and four additions (a few units
# of 2^-53).
SCREEN_GUARD = 1e-9


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


def _top_block_covers(h: int, q: int, k: int, need: int) -> bool:
    """True when the logarithms show C(h, k) * q^k >= need beyond doubt:
    ln C(h, k) + k ln q, by ``lgamma``, exceeds ln need by more than
    SCREEN_GUARD times the sum of the five terms.  False when they cannot
    tell, and for need < 1 and h >= 2^53, where no logarithm is taken."""
    if need < 1 or h >= 2**53:
        return False
    # Every term is >= 0, so their sum is the size the rounding scales with.
    a, b, c = lgamma(h + 1), lgamma(k + 1), lgamma(h - k + 1)
    kq, ln_need = k * log(q), log(need)
    return a - b - c + kq - ln_need > SCREEN_GUARD * (a + b + c + kq + ln_need)


def window_covers(window: WriteWindow, need: int) -> bool:
    """Whether the window holds at least `need` payloads, i.e.
    ``window_capacity(window) >= need``, without always summing every block.

    The top block B(kmax) alone covers most windows a plan picks by a margin
    its logarithm shows (:func:`_top_block_covers`).  Any other window is
    summed exactly: blocks are added from kmax downward,
    B(k-1) = B(k) * k // ((h-k+1) * q) (exact, as
    C(h, k-1) = C(h, k) * k / (h-k+1)), stopping once the sum reaches
    `need`; the top block alone often does.  A window that may write every
    slot takes the closed form of :func:`window_capacity`.
    """
    h, q, k = window.h, window.q, window.kmax
    if _top_block_covers(h, q, k, need):
        return True
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


def payload_to_message(mask: bytes, written: Sequence[int], window: WriteWindow) -> int:
    """Exact inverse of :func:`message_to_payload`, given the payload as its
    slot mask, one byte per slot, 1 where a slot is written, and its written
    values in slot order."""
    q = window.q
    k = len(written)
    base = 0
    for j, block in _blocks(window):
        if j == k:
            break
        base += block
    return base + rank(mask) * q**k + _number([d - 1 for d in written], q)


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
