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

An image is a tuple of ints that classifies its symbols once, when it is
built: one byte per symbol, 0 for a zero, 1 for a written value and 2 for
the erased value.  The generation checks of one write or read share the
count of zeros, and :func:`decode` takes its live symbols, its slot mask
and its written values from the classes with ``translate`` and
``compress``, with no Python step per symbol.  For m <= 8 a symbol fits in
a byte, so ``bytes`` converts a bytes, list or tuple of symbols and rejects
what is not an int in [0, 255], and two ``translate`` calls check the range
and classify.  An image that fails there, any other iterable of symbols
and every image for m > 8 go through the per-symbol checks, which word
every fault.  A write is one rule, held by
one function: erase every nonzero symbol, give the first h_g zeros the slot
values in order, and erase the zeros after them.  :func:`erase_to` is the
same rule with every slot value 0.

Everything here is pure: images go in, new images come out.  Wit-level
monotonicity is a consequence of the construction (symbols only move
0 -> value -> erased) and is enforced independently by
:mod:`womcode.device`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import NamedTuple, Sequence

from .errors import CapacityError, CorruptStateError, DomainError, as_int, as_ints
from .message_codec import (
    last_write_decode,
    last_write_encode,
    message_to_payload,
    payload_to_message,
)
from .planner import CodeParams, write_window


# Symbols of at most this many wits fit in a byte (2^m - 1 <= 255).
BYTE_M = 8
# Per m <= 8: the byte values that are symbols, and each byte's class,
# 0 zero, 1 written, 2 erased (2^m - 1); the values above it are never read.
_SYMBOL_BYTES = {m: bytes(range(2**m)) for m in range(2, BYTE_M + 1)}
_CLASS_OF_BYTE = {
    m: bytes([0] + [1] * (2**m - 2) + [2] * (257 - 2**m)) for m in range(2, BYTE_M + 1)
}
# Classes -> 0/1 bytes: an erased symbol read as a written value (the first
# of several writes, whose alphabet holds the erased value) or as not
# written, and the symbols that are not erased, which every other write reads.
_ERASED_WRITTEN = bytes.maketrans(b"\x02", b"\x01")
_ERASED_UNWRITTEN = bytes.maketrans(b"\x02", b"\x00")
_NOT_ERASED = bytes.maketrans(b"\x00\x02", b"\x01\x00")
_ERASED = b"\x02"


@dataclass(frozen=True)
class MemoryImage:
    """Symbol values of the h_1 groups, index 0 = leftmost, their classes
    (one byte each: 0 zero, 1 written, 2 erased) and their count of zeros,
    both taken once and left out of ==, hash and repr."""

    params: CodeParams
    symbols: tuple[int, ...]
    zero_count: int = field(init=False, repr=False, compare=False)
    classes: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        params, symbols = self.params, self.symbols
        top = params.erased
        data = None
        # bytes() reads a bytes, list or tuple value by value and takes only
        # ints in [0, 255]; any other iterable is read once, below.
        if params.m <= BYTE_M and isinstance(symbols, (bytes, list, tuple)):
            try:
                data = bytes(symbols)
            except (TypeError, ValueError):
                pass  # the per-symbol checks below word the fault
            else:
                if data.translate(None, _SYMBOL_BYTES[params.m]):  # a value above 2^m - 1
                    data = None
        if data is None:
            symbols = as_ints(symbols, "symbol values")
        else:
            symbols = tuple(data)
        object.__setattr__(self, "symbols", symbols)
        if len(symbols) != params.h[0]:
            raise DomainError(
                f"image must hold {params.h[0]} symbols, got {len(symbols)}"
            )
        if data is None:
            values = set(symbols)  # a few distinct values: range-check those
            if values and not 0 <= min(values) <= max(values) <= top:
                raise DomainError(f"symbol values must lie in [0, {top}]")
            classes = bytes([(s != 0) + (s == top) for s in symbols])
        else:
            classes = data.translate(_CLASS_OF_BYTE[params.m])
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "zero_count", classes.count(0))


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
    # several writes) makes every symbol live, an erased one as the written
    # value q; any other window's live symbols are those not erased.  The
    # mask holds the live symbols' classes as 0/1, and `written` picks the
    # symbols that hold written values.
    classes = image.classes
    if window.q == erased:
        mask = written = classes.translate(_ERASED_WRITTEN)
    else:
        mask = classes.translate(None, _ERASED)
        written = classes.translate(_ERASED_UNWRITTEN)
    if len(mask) != window.h:
        write = "last write" if generation == t else f"write {generation}"
        raise CorruptStateError(
            f"{write} should leave {window.h} live symbols, found {len(mask)}"
        )
    if generation == t:
        live = compress(image.symbols, classes.translate(_NOT_ERASED))
        message = last_write_decode(list(live), window)
    else:
        message = payload_to_message(mask, list(compress(image.symbols, written)), window)

    if message >= params.v[generation - 1]:
        raise CorruptStateError(
            f"decoded message {message} exceeds cardinality "
            f"{params.v[generation - 1]} of write {generation}"
        )
    return GenerationReading(generation=generation, message=message)
