"""Exception hierarchy shared by all womcode modules, and :func:`as_int` and
:func:`as_ints`, which take an int or ints, or raise a DomainError naming it."""

from operator import index


class WomCodeError(Exception):
    """Base class for every error raised by this package."""


class DomainError(WomCodeError, ValueError):
    """An argument is outside the range an operation is defined on."""


class CapacityError(WomCodeError):
    """The memory cannot absorb another write (generations or zeros exhausted)."""


class CorruptStateError(WomCodeError):
    """A memory image or state file is not one a legal write sequence produces."""


class WriteOnceViolation(WomCodeError):
    """A requested update would clear a wit that is already programmed."""


def as_int(value, name: str) -> int:
    """`value` as an int by ``operator.index``, else a DomainError naming it."""
    try:
        return index(value)
    except TypeError as exc:
        raise DomainError(f"{name} must be an int: {exc}") from None


def as_ints(values, name: str) -> tuple[int, ...]:
    """`values` as a tuple of ints, as by :func:`as_int`."""
    try:
        # Via a list: tuple(iterator) shrinks a 10-slot tuple, which overfills the free lists.
        return tuple(list(map(index, values)))
    except TypeError as exc:
        raise DomainError(f"{name} must be ints: {exc}") from None
