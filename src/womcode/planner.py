"""Code parameter planning and validation.

A code instance is the tuple (m, v, h): symbols of m wits each, message
cardinalities v_1..v_t for the t successive writes, and window sizes
h_1 > h_2 > ... > h_t.  The code uses n = m * h_1 wits.

Write g is one window (:func:`write_window`): h_g zero symbols, values from
{1, ..., q} for each written slot, and a range kmin..kmax for how many
slots it writes.  Its capacity is sum_{k=kmin}^{kmax} C(h_g, k) * q^k:

  first write   h_1, q = 2^m - 1, k in 0..h_1 - h_2
  middle write  h_g, q = 2^m - 2, k in 1..h_g - h_(g+1)  (the zero count
                must drop below h_g, so the empty write is not available)
  last write    h_t, q = 2^m - 2, k in 1..h_t, whose capacity is
                (2^m - 1)^h_t - 1: every word over {0, ..., 2^m - 2}
                except all-zero, the words the last write stores

A parameter set is feasible when each write's capacity reaches v_g.

:func:`plan` chooses the h-sequence bottom-up: the smallest feasible h_t,
then each h_i as the smallest value above h_{i+1} whose window capacity
reaches v_i.  The first and middle sums are
W(N, d) = sum_{k=0}^{d} C(N, k) * q^k taken at N = h_next + d for growth d
(the middle write drops the k = 0 term, 1).  Pascal's rule
C(N+1, k) = C(N, k) + C(N, k-1) gives

  W(N+1, d+1) = (1 + q) * W(N, d) + C(N, d+1) * q^(d+1)

so one walk from (h_next, 0), :func:`least_growth`, yields the capacity of
every growth in turn at a few small-by-big multiplications per step.  Each
step multiplies W by at least 1 + q >= 2, so the walk that finds the least
covering growth ends within log2(v) + 1 steps.  The last window is found
with a running power of 2^m - 1.  At q = 1 the same walk is the wit bound's
step, :func:`womcode.bounds.delta`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError
from .message_codec import WriteWindow, window_capacity, window_covers

# Every cardinality must stay below this.  It bounds the length of each
# window search and keeps every value printable: 2**8192 has 2467 decimal
# digits, under Python's default 4300-digit int/str conversion limit.
CARDINALITY_LIMIT = 2**8192
# The most wits per symbol.  A printed capacity stays below about
# v * 2**m * (h_1 + 2), so with v below CARDINALITY_LIMIT every capacity
# printed up to m = 4096 has fewer than 4300 digits.
M_LIMIT = 4096


def _check_m(m: int) -> None:
    """Reject symbols of fewer than 2 or more than M_LIMIT wits."""
    if m < 2:
        raise DomainError(f"m must be at least 2, got {m}")
    if m > M_LIMIT:
        raise DomainError(f"m must be at most {M_LIMIT}, got {m}")


def _check_cardinalities(v: Sequence[int]) -> None:
    """Reject an empty list, or any cardinality below 2 or at the limit."""
    if len(v) < 1:
        raise DomainError("at least one write is required")
    if any(vi < 2 for vi in v):
        raise DomainError("every message cardinality must be at least 2")
    check_cardinality_bits(max(v).bit_length())


def check_cardinality_bits(bits: int) -> None:
    """Reject a cardinality of `bits` bits that would reach the limit, before
    a caller builds it."""
    limit_bits = CARDINALITY_LIMIT.bit_length() - 1
    if bits > limit_bits:
        raise DomainError(
            f"message cardinalities must be below 2**{limit_bits}, got one of {bits} bits"
        )


@dataclass(frozen=True)
class CodeParams:
    """One position modulation code instance: (m, v_1..v_t, h_1..h_t)."""

    m: int
    v: tuple[int, ...]
    h: tuple[int, ...]

    def __post_init__(self):
        _check_m(self.m)
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


def least_growth(hnext: int, q: int, need: int) -> int:
    """Least growth d >= 0 with W(hnext + d, d) >= need, where
    W(N, d) = sum_{k=0}^{d} C(N, k) * q^k.

    `term` holds C(N, d+1) * q^(d+1) for the current N = hnext + d; the next
    one, C(N+1, d+2) * q^(d+2), is term * q * (N+1) / (d+2), exact in integers.
    """
    w, term, d = 1, hnext * q, 0
    while w < need:
        w = (1 + q) * w + term
        d += 1
        term = term * (q * (hnext + d)) // (d + 1)
    return d


def write_window(m: int, h: Sequence[int], g: int) -> WriteWindow:
    """The window of write g (1-based) of a code with symbols of m wits and
    window sizes h: the first, a middle or the last write's window."""
    t = len(h)
    _check_m(m)
    if not 1 <= g <= t:
        raise DomainError(f"write {g} is not one of the {t} writes")
    hg = h[g - 1]
    if g == t:
        if hg < 1:
            raise DomainError(f"last window must be positive, got {hg}")
        return WriteWindow(h=hg, q=2**m - 2, kmin=1, kmax=hg)
    if hg <= h[g]:
        raise DomainError(f"write {g} needs h_{g} > h_{g + 1}, got {hg} <= {h[g]}")
    if g == 1:
        return WriteWindow(h=hg, q=2**m - 1, kmin=0, kmax=hg - h[g])
    return WriteWindow(h=hg, q=2**m - 2, kmin=1, kmax=hg - h[g])


def plan(m: int, v: Sequence[int]) -> CodeParams:
    """Choose the minimal window sizes h_1 > ... > h_t for cardinalities v.

    Works in reverse write order: h_t is the smallest window whose last-write
    capacity covers v_t (found by exact integer search, not floating-point
    logarithms), then each earlier window is the previous one plus the
    smallest growth whose capacity covers that write's cardinality.
    """
    v = tuple(v)
    _check_cardinalities(v)
    _check_m(m)

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
        hs.append(hs[-1] + least_growth(hs[-1], 2**m - 2, vi + 1))
    if len(v) >= 2:
        hs.append(hs[-1] + least_growth(hs[-1], q, v[0]))

    return CodeParams(m=m, v=v, h=tuple(reversed(hs)))


def validate(params: CodeParams) -> list[ConditionViolation]:
    """Check all feasibility conditions; return violations (empty when valid).

    Never raises for a constructible `params`.  Write g's capacity is
    checked only when its window exists, h_g > h_(g+1) >= 0 with h_(t+1)
    taken as 0; otherwise a window-order violation covers it (below a
    negative successor the chain reaches a broken pair or a non-positive
    h_t).  Capacities are compared with v_g by :func:`window_covers`, which
    stops once v_g is reached; the exact capacity is computed only to report
    a shortfall.
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

    for g in range(1, t + 1):
        successor = h[g] if g < t else 0
        if not h[g - 1] > successor >= 0:
            continue
        window = write_window(m, h, g)
        if not window_covers(window, v[g - 1]):
            kind = "last" if g == t else "first" if g == 1 else "middle"
            out.append(
                ConditionViolation(
                    f"{kind}-write-capacity",
                    f"capacity {window_capacity(window)} below v_{g}={v[g - 1]}",
                )
            )
    return out
