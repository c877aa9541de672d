"""Code parameter planning and validation.

A code instance is the tuple (m, v, h): symbols of m wits each, message
cardinalities v_1..v_t for the t successive writes, and window sizes
h_1 > h_2 > ... > h_t.  The code uses n = m * h_1 wits.

Write g is one window, which :func:`write_window` builds from the checked
m and h of a :class:`CodeParams`: h_g zero symbols, values from
{1, ..., q} for each written slot, and k in kmin..h_g - h_(g+1) written
slots, the chain closed by h_(t+1) = 0.  Its capacity is
sum_{k=kmin}^{kmax} C(h_g, k) * q^k.  The first of several writes may use
the erased value and write nothing (q = 2^m - 1, kmin = 0); no other write
may (q = 2^m - 2, kmin = 1), since its zero count must drop below h_g.  So
the last window holds (2^m - 1)^h_t - 1 payloads: every word over
{0, ..., 2^m - 2} except all-zero, the words the last write stores.  A
parameter set is feasible when each write's capacity reaches v_g.

:func:`plan` chooses the h-sequence bottom-up from h_(t+1) = 0: each h_g
is the smallest value above h_(g+1) whose window capacity reaches v_g.
The sums are W(N, d) = sum_{k=0}^{d} C(N, k) * q^k taken at
N = h_(g+1) + d for growth d (a kmin = 1 window drops the k = 0 term, 1).
Pascal's rule C(N+1, k) = C(N, k) + C(N, k-1) gives

  W(N+1, d+1) = (1 + q) * W(N, d) + C(N, d+1) * q^(d+1)

so one walk from (h_(g+1), 0), :func:`least_growth`, yields the capacity
of every growth in turn at a few small-by-big multiplications per step.
Each step multiplies W by at least 1 + q >= 2, so the walk that finds the
least covering growth ends within log2(v) + 1 steps.  At h_(g+1) = 0 the
binomial term C(0, d+1) vanishes and the walk is the running power
(1 + q)^d, the last window's word count.  At q = 1 the same walk is the
wit bound's step, :func:`womcode.bounds.delta`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, as_int, as_ints
from .message_codec import WriteWindow, window_capacity, window_covers

# Every cardinality must stay below this.  It bounds the length of each
# window search and keeps every value printable: 2**8192 has 2467 decimal
# digits, under Python's default 4300-digit int/str conversion limit.
CARDINALITY_LIMIT = 2**8192
# The most wits per symbol.  A printed capacity stays below about
# v * 2**m * (h_1 + 2), so with v below CARDINALITY_LIMIT every capacity
# printed up to m = 4096 has fewer than 4300 digits.
M_LIMIT = 4096


def _check_m(m: int) -> int:
    """m as an int of 2 to M_LIMIT wits per symbol, else a DomainError."""
    m = as_int(m, "m")
    if m < 2:
        raise DomainError(f"m must be at least 2, got {m}")
    if m > M_LIMIT:
        raise DomainError(f"m must be at most {M_LIMIT}, got {m}")
    return m


def _check_cardinalities(v: Sequence[int]) -> tuple[int, ...]:
    """v as a tuple of ints.  Reject an empty list, a value that is not an
    int, or any cardinality below 2 or at the limit."""
    v = as_ints(v, "message cardinalities")
    if len(v) < 1:
        raise DomainError("at least one write is required")
    if any(vi < 2 for vi in v):
        raise DomainError("every message cardinality must be at least 2")
    check_cardinality_bits(max(v).bit_length())
    return v


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
        object.__setattr__(self, "m", _check_m(self.m))
        object.__setattr__(self, "v", _check_cardinalities(self.v))
        object.__setattr__(self, "h", as_ints(self.h, "window sizes"))
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


def _alphabet(m: int, g: int, t: int) -> tuple[int, int]:
    """(q, kmin) of write g of t: the first of several writes may use the
    erased value 2^m - 1 and write nothing, no other write may."""
    if g == 1 < t:
        return 2**m - 1, 0
    return 2**m - 2, 1


def write_window(m: int, h: Sequence[int], g: int) -> WriteWindow:
    """The window of write g, 1 <= g <= t, of a CodeParams' m and window
    sizes h: h_g slots, of which it writes kmin..h_g - h_(g+1).  It exists
    when h_g > h_(g+1) >= 0, with h_(t+1) = 0: the one chain rule."""
    t = len(h)
    hg = h[g - 1]
    hnext = h[g] if g < t else 0
    if not hg > hnext >= 0:
        broken = f"h_{g} > h_{g + 1}, got {hg} <=" if hg <= hnext else f"h_{g + 1} >= 0, got"
        raise DomainError(f"write {g} needs {broken} {hnext}")
    q, kmin = _alphabet(m, g, t)
    return WriteWindow(h=hg, q=q, kmin=kmin, kmax=hg - hnext)


def plan(m: int, v: Sequence[int]) -> CodeParams:
    """Choose the minimal window sizes h_1 > ... > h_t for cardinalities v.

    Works in reverse write order from h_(t+1) = 0: each window is the next
    one plus the smallest growth whose capacity covers that write's
    cardinality, found by exact integer search, not floating-point
    logarithms.
    """
    v = _check_cardinalities(v)
    m = _check_m(m)
    t = len(v)

    # Growth 0 covers nothing (a kmin = 0 sum is the single empty-mask term,
    # 1, and a kmin = 1 sum is empty), so every growth found is at least 1
    # and the ordering h_g > h_(g+1) holds by construction.  A kmin = 1
    # window needs W >= v_g + 1 because its sum lacks the k = 0 term.
    h = [0] * (t + 1)  # h[g - 1] is h_g, so h[t] is h_(t+1) = 0
    for g in range(t, 0, -1):
        q, kmin = _alphabet(m, g, t)
        h[g - 1] = h[g] + least_growth(h[g], q, v[g - 1] + kmin)

    return CodeParams(m=m, v=v, h=tuple(h[:t]))


def validate(params: CodeParams) -> list[ConditionViolation]:
    """Check all feasibility conditions; return violations (empty when valid).

    Never raises for a constructible `params`.  Write by write, a window that
    :func:`write_window` rejects is a window-order violation with its text;
    an existing window's capacity is compared with v_g by
    :func:`window_covers`, which stops once v_g is reached, and the exact
    capacity is computed only to report a shortfall.
    """
    m, v, h, t = params.m, params.v, params.h, params.t
    out: list[ConditionViolation] = []
    for g in range(1, t + 1):
        try:
            window = write_window(m, h, g)
        except DomainError as exc:
            out.append(ConditionViolation("window-order", str(exc)))
            continue
        if not window_covers(window, v[g - 1]):
            kind = "last" if g == t else "first" if window.kmin == 0 else "middle"
            out.append(
                ConditionViolation(
                    f"{kind}-write-capacity",
                    f"capacity {window_capacity(window)} below v_{g}={v[g - 1]}",
                )
            )
    return out
