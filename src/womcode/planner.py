"""Code parameter planning and validation.

A code instance is the tuple (m, v, h): symbols of m wits each, message
cardinalities v_1..v_t for the t successive writes, and window sizes
h_1 > h_2 > ... > h_t.  The code uses n = m * h_1 wits.  A parameter set
is feasible when each write's window can represent its cardinality:

  first write   sum_{k=0}^{h1-h2} C(h1, k) * (2^m - 1)^k  >=  v_1
  middle write  sum_{k=1}^{hi-h(i+1)} C(hi, k) * (2^m - 2)^k  >=  v_i
  last write    (2^m - 1)^{ht} - 1  >=  v_t

:func:`plan` chooses the h-sequence bottom-up: the smallest feasible h_t,
then each h_i as the smallest value above h_{i+1} whose window capacity
reaches v_i.  Both window sums are W(N, d) = sum_{k=0}^{d} C(N, k) * q^k
taken at N = h_next + d for growth d (the middle write drops the k = 0
term, 1).  Pascal's rule C(N+1, k) = C(N, k) + C(N, k-1) gives

  W(N+1, d+1) = (1 + q) * W(N, d) + C(N, d+1) * q^(d+1)

so one walk from (h_next, 0) yields the capacity of every growth in turn at
a few small-by-big multiplications per step.  Each step multiplies W by at
least 1 + q >= 3, so the walk that finds the least covering growth ends
within log3(v) + 1 steps.  The last window is found the same way, with a
running power of 2^m - 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import DomainError

# Every cardinality must stay below this.  It bounds the length of each
# window search and keeps every value printable: 2**8192 has 2467 decimal
# digits, under Python's default 4300-digit int/str conversion limit.
CARDINALITY_LIMIT = 2**8192


def _check_cardinalities(v: Sequence[int]) -> None:
    """Reject an empty list, or any cardinality below 2 or at the limit."""
    if len(v) < 1:
        raise DomainError("at least one write is required")
    if any(vi < 2 for vi in v):
        raise DomainError("every message cardinality must be at least 2")
    if any(vi >= CARDINALITY_LIMIT for vi in v):
        bits = max(v).bit_length()
        raise DomainError(
            f"message cardinalities must be below 2**{CARDINALITY_LIMIT.bit_length() - 1}, "
            f"got one of {bits} bits"
        )


@dataclass(frozen=True)
class CodeParams:
    """One position modulation code instance: (m, v_1..v_t, h_1..h_t)."""

    m: int
    v: tuple[int, ...]
    h: tuple[int, ...]

    def __post_init__(self):
        if self.m < 2:
            raise DomainError(f"m must be at least 2, got {self.m}")
        object.__setattr__(self, "v", tuple(self.v))
        object.__setattr__(self, "h", tuple(self.h))
        _check_cardinalities(self.v)
        if len(self.v) != len(self.h):
            raise DomainError(
                f"v and h must have equal length, got {len(self.v)} and {len(self.h)}"
            )

    @property
    def t(self) -> int:
        """Number of writes."""
        return len(self.v)

    @property
    def n(self) -> int:
        """Total wit count, m * h_1."""
        return self.m * self.h[0]

    @property
    def erased(self) -> int:
        """Symbol value marking a soft-erased group (all wits programmed)."""
        return 2**self.m - 1


@dataclass(frozen=True)
class ConditionViolation:
    """One failed feasibility condition, as data rather than an exception."""

    condition: str  # window-order | first-write-capacity | middle-write-capacity | last-write-capacity
    detail: str


def _window_sums(hnext: int, q: int) -> Iterator[int]:
    """Yield W(hnext + d, d) = sum_{k=0}^{d} C(hnext + d, k) * q^k for d = 0, 1, ...

    `term` holds C(N, d+1) * q^(d+1) for the current N = hnext + d; the next
    one, C(N+1, d+2) * q^(d+2), is term * q * (N+1) / (d+2), exact in integers.
    """
    w, term, d = 1, hnext * q, 0
    while True:
        yield w
        w = (1 + q) * w + term
        d += 1
        term = term * (q * (hnext + d)) // (d + 1)


def _window_sum(hi: int, hnext: int, q: int) -> int:
    """W(hi, hi - hnext): the walk from (hnext, 0) taken hi - hnext steps."""
    return next(itertools.islice(_window_sums(hnext, q), hi - hnext, None))


def _least_growth(hnext: int, q: int, need: int) -> int:
    """Least growth d >= 0 with W(hnext + d, d) >= need."""
    return next(d for d, w in enumerate(_window_sums(hnext, q)) if w >= need)


def capacity_first(h1: int, h2: int, m: int) -> int:
    """Message count of a first write: window h1, next window h2, 0..h1-h2 symbols
    written with values from {1, ..., 2^m - 1}."""
    if h1 <= h2:
        raise DomainError(f"first write needs h1 > h2, got {h1} <= {h2}")
    if h2 < 0 or m < 2:
        raise DomainError(f"invalid window ({h1}, {h2}) or m={m}")
    return _window_sum(h1, h2, 2**m - 1)


def capacity_middle(hi: int, hnext: int, m: int) -> int:
    """Message count of a middle write: window hi, next window hnext, 1..hi-hnext
    symbols written with values from {1, ..., 2^m - 2}; the empty write is not
    available because the zero count must drop below hi."""
    if hi <= hnext:
        raise DomainError(f"middle write needs hi > hnext, got {hi} <= {hnext}")
    if hnext < 0 or m < 2:
        raise DomainError(f"invalid window ({hi}, {hnext}) or m={m}")
    return _window_sum(hi, hnext, 2**m - 2) - 1


def capacity_last(ht: int, m: int) -> int:
    """Message count of the last write: every value over ht symbols from
    {0, ..., 2^m - 2} except all-zero."""
    if ht < 1:
        raise DomainError(f"last window must be positive, got {ht}")
    if m < 2:
        raise DomainError(f"m must be at least 2, got {m}")
    return (2**m - 1) ** ht - 1


def plan(m: int, v: Sequence[int]) -> CodeParams:
    """Choose the minimal window sizes h_1 > ... > h_t for cardinalities v.

    Works in reverse write order: h_t is the smallest window whose last-write
    capacity covers v_t (found by exact integer search, not floating-point
    logarithms), then each earlier window is the previous one plus the
    smallest growth whose capacity covers that write's cardinality.
    """
    v = tuple(v)
    _check_cardinalities(v)
    if m < 2:
        raise DomainError(f"m must be at least 2, got {m}")

    q = 2**m - 1
    ht, power = 1, q
    while power - 1 < v[-1]:
        ht += 1
        power *= q
    hs = [ht]

    # Growth 0 covers nothing (its first-write sum is the single empty-mask
    # term, 1, and its middle-write sum is empty), so every growth found is
    # at least 1 and the ordering h_i > h_(i+1) holds by construction.  A
    # middle write needs W >= v_i + 1 because its sum lacks the k = 0 term.
    for vi in reversed(v[1:-1]):  # middle writes, bottom-up
        hs.insert(0, hs[0] + _least_growth(hs[0], 2**m - 2, vi + 1))
    if len(v) >= 2:
        hs.insert(0, hs[0] + _least_growth(hs[0], q, v[0]))

    return CodeParams(m=m, v=v, h=tuple(hs))


def validate(params: CodeParams) -> list[ConditionViolation]:
    """Check all feasibility conditions; return violations (empty when valid).

    Capacity conditions are only evaluated for window pairs that are
    well-ordered; a pair that breaks the strict ordering is reported as a
    window-order violation instead.
    """
    m, v, h, t = params.m, params.v, params.h, params.t
    out: list[ConditionViolation] = []

    for i in range(t - 1):
        if h[i] <= h[i + 1]:
            out.append(
                ConditionViolation(
                    "window-order", f"h_{i + 1}={h[i]} not greater than h_{i + 2}={h[i + 1]}"
                )
            )
    if h[-1] < 1:
        out.append(ConditionViolation("window-order", f"h_{t}={h[-1]} not positive"))

    if t >= 2 and h[0] > h[1]:
        cap = capacity_first(h[0], h[1], m)
        if cap < v[0]:
            out.append(
                ConditionViolation(
                    "first-write-capacity", f"capacity {cap} below v_1={v[0]}"
                )
            )
    for i in range(2, t):
        if h[i - 1] > h[i]:
            cap = capacity_middle(h[i - 1], h[i], m)
            if cap < v[i - 1]:
                out.append(
                    ConditionViolation(
                        "middle-write-capacity",
                        f"capacity {cap} below v_{i}={v[i - 1]}",
                    )
                )
    if h[-1] >= 1:
        cap = capacity_last(h[-1], m)
        if cap < v[-1]:
            out.append(
                ConditionViolation(
                    "last-write-capacity", f"capacity {cap} below v_{t}={v[-1]}"
                )
            )
    return out
