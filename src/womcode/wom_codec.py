"""Generation-aware encoding and decoding over symbol images.

The state of the n = m * h_1 wits is viewed as h_1 symbols of m wits each.
Symbol value 0 is the zero state and 2^m - 1 the erased state.  Writes work
on the window of zero symbols: each write first soft-erases every nonzero
symbol (and, except for the first write, surplus zeros) so that exactly h_g
zeros remain, then stores its payload, one value per window slot, into
those zeros in order.  The reader recovers the generation g from the count
of zero symbols k0 alone:

    g = 1  when k0 >= h_2,   g = i  when h_i > k0 >= h_{i+1},
    g = t  when k0 < h_t,

and the message from the live symbols, which are the payload: every symbol
for the first write of a t > 1 code, the non-erased ones otherwise.
:func:`next_generation` holds the one rule for which write an image takes
next: the all-zero image takes write 1.

Everything here is pure: images go in, new images come out.  Wit-level
monotonicity is a consequence of the construction (symbols only move
0 -> value -> erased) and is enforced independently by
:mod:`womcode.device`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import CapacityError, CorruptStateError, DomainError
from .message_codec import (
    last_write_decode,
    last_write_encode,
    message_to_payload,
    payload_to_message,
)
from .planner import CodeParams, write_window


@dataclass(frozen=True)
class MemoryImage:
    """Symbol values of the h_1 groups, index 0 = leftmost."""

    params: CodeParams
    symbols: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if len(self.symbols) != self.params.h[0]:
            raise DomainError(
                f"image must hold {self.params.h[0]} symbols, got {len(self.symbols)}"
            )
        top = self.params.erased
        if self.symbols and not 0 <= min(self.symbols) <= max(self.symbols) <= top:
            raise DomainError(f"symbol values must lie in [0, {top}]")

    @property
    def zero_count(self) -> int:
        return self.symbols.count(0)


class GenerationReading(NamedTuple):
    """Decoder output: which write the image holds and its message."""

    generation: int
    message: int


def fresh_image(params: CodeParams) -> MemoryImage:
    """The all-zero image of a brand-new memory."""
    return MemoryImage(params, (0,) * params.h[0])


def detect_generation(image: MemoryImage) -> int:
    """Infer the generation from the zero-symbol count (thresholds partition)."""
    h, t = image.params.h, image.params.t
    k0 = image.zero_count
    if t == 1 or k0 >= h[1]:
        return 1
    for i in range(2, t):
        if h[i - 1] > k0 >= h[i]:
            return i
    return t


def erase_to(image: MemoryImage, target_zeros: int) -> MemoryImage:
    """Soft-erase down to exactly `target_zeros` zero symbols.

    Every nonzero symbol becomes the erased value; surplus zeros are erased
    starting from the largest position index, a fixed rule standing in for
    the free choice the construction allows.
    """
    erased = image.params.erased
    symbols = [erased if s != 0 else 0 for s in image.symbols]
    excess = symbols.count(0) - target_zeros
    if excess < 0:
        raise CapacityError(
            f"only {symbols.count(0)} zero symbols left, need {target_zeros}"
        )
    for i in range(len(symbols) - 1, -1, -1):
        if excess == 0:
            break
        if symbols[i] == 0:
            symbols[i] = erased
            excess -= 1
    return MemoryImage(image.params, tuple(symbols))


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

    # A fresh image already holds h_1 zeros, so staging leaves it unchanged.
    staged = erase_to(image, params.h[generation - 1])
    if generation == t:
        values = last_write_encode(message, params.h[t - 1], params.m)
    else:
        values = message_to_payload(message, write_window(params.m, params.h, generation))
    # The zero symbols of the staged image are the window's slots, in order.
    fill = iter(values)
    return MemoryImage(params, [next(fill) if s == 0 else s for s in staged.symbols])


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
    # The first write's alphabet includes the erased value, so while more
    # writes follow, every symbol is live.
    if generation == 1 and t > 1:
        live = image.symbols
    else:
        live = list(filter(erased.__ne__, image.symbols))
    if len(live) != params.h[generation - 1]:
        write = "last write" if generation == t else f"write {generation}"
        raise CorruptStateError(
            f"{write} should leave {params.h[generation - 1]} live symbols, "
            f"found {len(live)}"
        )
    if generation == t:
        message = last_write_decode(live, params.m)
    else:
        try:
            window = write_window(params.m, params.h, generation)
            message = payload_to_message(live, window)
        except DomainError as exc:
            raise CorruptStateError(f"undecodable write {generation}: {exc}") from exc

    if message >= params.v[generation - 1]:
        raise CorruptStateError(
            f"decoded message {message} exceeds cardinality "
            f"{params.v[generation - 1]} of write {generation}"
        )
    return GenerationReading(generation=generation, message=message)
