"""Bijection between message integers and write payloads.

A write is described by how many window slots it touches (k), which slots
(a weight-k mask over the h-slot window) and what value each touched slot
receives (from {1, ..., q}).  The number of payloads with kmin <= k <= kmax
is sum_k C(h, k) * q^k, and this module fixes one canonical enumeration of
them so that encoder and decoder agree:

  * payloads are blocked by k, ascending from kmin (so message 0 is the
    cheapest write);
  * inside a block the slot mask is the major coordinate, ordered by its
    lexical rank, and the value assignment is the minor coordinate;
  * the value assignment is read as a base-q number whose most significant
    digit belongs to the leftmost written slot, with stored digit d
    standing for symbol value d + 1 (value 0 means "slot not written").

The block sizes B(k) = C(h, k) * q^k come from one walk over k that takes
C(h, kmin) once and then steps

  B(k+1) = B(k) * (h - k) * q // (k + 1)

exactly, since C(h, k+1) = C(h, k) * (h - k) / (k + 1).  The capacity, the
block a message falls in and the offset of a payload's block all read the
same walk; only a window that may write all h slots takes its capacity in
closed form, (1 + q)^h less the blocks below kmin.

The last write of a code bypasses position modulation entirely:
:func:`last_write_encode` maps a message M to the base-(2^m - 1)
representation of M + 1 over the remaining window, which never produces
the all-zero word and never uses the erased symbol value 2^m - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .combinadic import binomial, rank, unrank
from .errors import CorruptStateError, DomainError


@dataclass(frozen=True)
class WriteWindow:
    """The zero symbols available to one write and its payload alphabet."""

    h: int  # window size (count of zero slots)
    q: int  # symbol values available per written slot: 1..q
    kmin: int  # fewest slots a payload may write
    kmax: int  # most slots a payload may write

    def __post_init__(self):
        if not 0 <= self.kmin <= self.kmax <= self.h:
            raise DomainError(
                f"need 0 <= kmin <= kmax <= h, got kmin={self.kmin} "
                f"kmax={self.kmax} h={self.h}"
            )
        if self.q < 1:
            raise DomainError(f"alphabet size must be positive, got {self.q}")


@dataclass(frozen=True)
class WritePayload:
    """k written slots: where (mask over the window) and with which values."""

    k: int
    mask: tuple[int, ...]  # length h, weight k, leftmost slot first
    digits: tuple[int, ...]  # k values in [1, q], leftmost written slot first


def _blocks(window: WriteWindow) -> Iterator[tuple[int, int]]:
    """Yield (k, C(h, k) * q^k) for k = kmin, ..., kmax by the running step."""
    h, q = window.h, window.q
    block = binomial(h, window.kmin) * q**window.kmin
    for k in range(window.kmin, window.kmax):
        yield k, block
        block = block * (h - k) * q // (k + 1)
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


def message_to_payload(message: int, window: WriteWindow) -> WritePayload:
    """Map a message in [0, window_capacity) to its canonical payload."""
    if message < 0:
        raise DomainError(f"message must be nonnegative, got {message}")
    h, q = window.h, window.q
    rem = message
    for k, block in _blocks(window):
        if rem < block:
            qk = q**k
            mask = unrank(rem // qk, h, k)
            value_index = rem % qk
            digits = [0] * k
            for pos in range(k - 1, -1, -1):
                digits[pos] = value_index % q + 1
                value_index //= q
            return WritePayload(k=k, mask=tuple(mask), digits=tuple(digits))
        rem -= block
    raise DomainError(
        f"message {message} exceeds window capacity {window_capacity(window)}"
    )


def payload_to_message(payload: WritePayload, window: WriteWindow) -> int:
    """Exact inverse of :func:`message_to_payload`."""
    h, q = window.h, window.q
    k = payload.k
    if not window.kmin <= k <= window.kmax:
        raise DomainError(f"payload writes {k} slots, window allows "
                          f"[{window.kmin}, {window.kmax}]")
    if len(payload.mask) != h or sum(payload.mask) != k or len(payload.digits) != k:
        raise DomainError("payload mask/digits inconsistent with its window")
    if any(not 1 <= d <= q for d in payload.digits):
        raise DomainError(f"payload digits must lie in [1, {q}]")
    base = 0
    for j, block in _blocks(window):
        if j == k:
            break
        base += block
    value_index = 0
    for d in payload.digits:
        value_index = value_index * q + (d - 1)
    return base + rank(payload.mask) * q**k + value_index


def last_write_encode(message: int, ht: int, m: int) -> list[int]:
    """Spread a last-write message over ht symbols as base-(2^m - 1) digits.

    The message range is [0, (2^m - 1)^ht - 2]; the stored word is M + 1 so
    the all-zero word (which would read as an earlier generation) is never
    emitted, and no digit can equal the erased value 2^m - 1.
    """
    if ht < 1 or m < 2:
        raise DomainError(f"invalid last window ht={ht}, m={m}")
    base = 2**m - 1
    if not 0 <= message <= base**ht - 2:
        raise DomainError(
            f"message {message} out of range for last write over {ht} symbols"
        )
    x = message + 1
    digits = [0] * ht
    for pos in range(ht - 1, -1, -1):
        digits[pos] = x % base
        x //= base
    return digits


def last_write_decode(digits, m: int) -> int:
    """Inverse of :func:`last_write_encode` for a stored digit sequence."""
    base = 2**m - 1
    if any(not 0 <= d <= base - 1 for d in digits):
        raise CorruptStateError(
            f"last-write symbol outside [0, {base - 1}]: {list(digits)}"
        )
    x = 0
    for d in digits:
        x = x * base + d
    if x == 0:
        raise CorruptStateError("all-zero word is not a legal last write")
    return x - 1
