"""Generation-aware encoding and decoding over symbol images.

The state of the n = m * h_1 wits is viewed as h_1 symbols of m wits each.
Symbol value 0 is the zero state and 2^m - 1 the erased state.  Writes work
on the window of zero symbols: each write first soft-erases every nonzero
symbol (and, except for the first write, surplus zeros) so that exactly h_g
zeros remain, then stores its payload, one value per window slot, into
those zeros in order.  The reader recovers the generation g from the count
of zero symbols k0 alone: g is the first write with k0 >= h_(g+1), taking
h_(t+1) = 0, and the message from the live symbols, which are the payload:
every symbol when the window's alphabet includes the erased value (the
first of several writes), the non-erased ones otherwise.
:func:`next_generation` holds the one rule for which write an image takes
next: the all-zero image takes write 1.

An image is a tuple of ints that counts its zero symbols once, when it is
built, so the generation checks of one write or read share that count.  A
write is one rule, held by one function: erase every nonzero symbol, give
the first h_g zeros the slot values in order, and erase the zeros after
them.  :func:`erase_to` is the same rule with every slot value 0.

Everything here is pure: images go in, new images come out.  Wit-level
monotonicity is a consequence of the construction (symbols only move
0 -> value -> erased) and is enforced independently by
:mod:`womcode.device`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .errors import CapacityError, CorruptStateError, DomainError, as_int, as_ints
from .message_codec import (
    last_write_decode,
    last_write_encode,
    message_to_payload,
    payload_to_message,
)
from .planner import CodeParams, write_window


@dataclass(frozen=True)
class MemoryImage:
    """Symbol values of the h_1 groups, index 0 = leftmost, and their count
    of zeros, taken once and left out of ==, hash and repr."""

    params: CodeParams
    symbols: tuple[int, ...]
    zero_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        symbols = as_ints(self.symbols, "symbol values")
        object.__setattr__(self, "symbols", symbols)
        if len(symbols) != self.params.h[0]:
            raise DomainError(
                f"image must hold {self.params.h[0]} symbols, got {len(symbols)}"
            )
        top = self.params.erased
        values = set(symbols)  # a few distinct values: range-check those
        if values and not 0 <= min(values) <= max(values) <= top:
            raise DomainError(f"symbol values must lie in [0, {top}]")
        object.__setattr__(self, "zero_count", symbols.count(0))


class GenerationReading(NamedTuple):
    """Decoder output: which write the image holds and its message."""

    generation: int
    message: int


def fresh_image(params: CodeParams) -> MemoryImage:
    """The all-zero image of a brand-new memory."""
    return MemoryImage(params, (0,) * params.h[0])


def detect_generation(image: MemoryImage) -> int:
    """Infer the generation from the zero-symbol count: the first write g
    whose successor window fits, k0 >= h_(g+1), else t (h_(t+1) = 0)."""
    h, k0 = image.params.h, image.zero_count
    for g in range(1, len(h)):
        if k0 >= h[g]:
            return g
    return len(h)


def _stage(image: MemoryImage, values: Sequence[int]) -> MemoryImage:
    """The one write rule: erase every nonzero symbol, give the first
    len(values) zeros (the caller makes sure they exist) the slot values in
    order, and erase the zeros after them."""
    erased = image.params.erased
    fill = iter(values)
    symbols = [next(fill, erased) if s == 0 else erased for s in image.symbols]
    return MemoryImage(image.params, symbols)


def erase_to(image: MemoryImage, target_zeros: int) -> MemoryImage:
    """Soft-erase down to exactly `target_zeros` zero symbols: every nonzero
    symbol, and the surplus zeros from the largest position index down, take
    the erased value, a fixed rule standing in for the free choice the
    construction allows."""
    target_zeros = as_int(target_zeros, "target zero count")
    if target_zeros < 0:
        raise DomainError(f"target zero count must be nonnegative, got {target_zeros}")
    if target_zeros > image.zero_count:
        raise CapacityError(f"only {image.zero_count} zero symbols left, need {target_zeros}")
    return _stage(image, (0,) * target_zeros)


def next_generation(image: MemoryImage) -> int:
    """The write `image` takes next, t + 1 once every write is used.

    The all-zero image takes write 1 (so a first write of message 0, which
    leaves the memory untouched, hands the device a free extra write); any
    other image takes the write after the one it holds.
    """
    if image.zero_count == len(image.symbols):
        return 1
    return detect_generation(image) + 1


def encode_write(image: MemoryImage, message: int) -> MemoryImage:
    """Encode the next write (:func:`next_generation`) onto `image` and
    return the new image."""
    message = as_int(message, "message")
    params = image.params
    t = params.t
    generation = next_generation(image)
    if generation > t:
        raise CapacityError(f"all {t} writes used")
    if not 0 <= message < params.v[generation - 1]:
        raise DomainError(
            f"message {message} out of range for write {generation} "
            f"(cardinality {params.v[generation - 1]})"
        )

    window = write_window(params.m, params.h, generation)
    if generation == t:
        values = last_write_encode(message, window)
    else:
        values = message_to_payload(message, window)
    return _stage(image, values)


def decode(image: MemoryImage) -> GenerationReading:
    """Recover (generation, message) from an image.

    Any image consistent with the latest write decodes; the earlier writes
    are not checked, so some images no legal write sequence produces decode
    too.  Every other image raises :class:`CorruptStateError`, and no other
    error is raised.
    """
    params = image.params
    t, erased = params.t, params.erased
    generation = detect_generation(image)
    # write_window raises only when h_g > h_(g+1) >= 0 fails, for a
    # CodeParams that validate rejects but decode still accepts.
    try:
        window = write_window(params.m, params.h, generation)
    except DomainError as exc:
        raise CorruptStateError(f"undecodable write {generation}: {exc}") from exc
    # A window whose alphabet includes the erased value (the first of
    # several writes) makes every symbol live.
    if window.q == erased:
        live = image.symbols
    else:
        live = [s for s in image.symbols if s != erased]
    if len(live) != window.h:
        write = "last write" if generation == t else f"write {generation}"
        raise CorruptStateError(
            f"{write} should leave {window.h} live symbols, found {len(live)}"
        )
    if generation == t:
        message = last_write_decode(live, window)
    else:
        message = payload_to_message(live, window)

    if message >= params.v[generation - 1]:
        raise CorruptStateError(
            f"decoded message {message} exceeds cardinality "
            f"{params.v[generation - 1]} of write {generation}"
        )
    return GenerationReading(generation=generation, message=message)
