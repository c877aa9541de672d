"""Wit-count lower bounds and rate comparisons for multiple-write codes.

`delta` counts the extra wits any code needs to absorb one more write of v
messages on top of m already-required wits; iterating it from the last write
backwards gives the `z_bound` lower bound on the wits of any t-write code.
The rest of the module turns wit counts into rates and tabulates the rates
of classic fixed-cardinality schemes for side-by-side comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, as_int, as_ints
from .planner import CodeParams, _check_cardinalities, least_growth, plan


def delta(v: int, m: int) -> int:
    """Least d with S(d) = sum_{i=0}^{d} C(m + d, i) >= v.

    This is the minimum number of wits that must be adjoined to m wits so
    that one extra write can select any of v messages.  S(d) is the
    planner's window sum W(m + d, d) at alphabet size q = 1, so delta(v, m)
    is ``least_growth(m, 1, v)``, the planner's Pascal walk, here
    S(d+1) = 2 * S(d) + C(m + d, d + 1).  At m = 0 the binomial term
    vanishes and S(d) = 2**d, so delta(v, 0) equals ceil(log2(v)).
    """
    v, m = as_int(v, "message count"), as_int(m, "wit count")
    if v < 1:
        raise DomainError(f"message count must be >= 1, got {v}")
    if m < 0:
        raise DomainError(f"wit count must be >= 0, got {m}")
    return least_growth(m, 1, v)


def z_bound(v_list: Sequence[int]) -> int:
    """Lower bound on the wits any t-write code needs for cardinalities v_list.

    Accumulates `delta` from the final write (which starts from nothing)
    back to the first: Z_0 = 0, Z_i = Z_{i-1} + delta(v, Z_{i-1}).  The
    cardinalities are checked as the planner checks them.
    """
    z = 0
    for v in reversed(_check_cardinalities(v_list)):
        z += delta(v, z)
    return z


def code_rate(v_list: Sequence[int], n: int) -> float:
    """Bits stored per wit over the whole lifetime: log2(prod v_i) / n."""
    v_list, n = as_ints(v_list, "message counts"), as_int(n, "wit count")
    if n < 1:
        raise DomainError(f"wit count must be >= 1, got {n}")
    total_bits = 0.0
    for v in v_list:
        if v < 1:
            raise DomainError(f"message count must be >= 1, got {v}")
        total_bits += math.log2(v)
    return total_bits / n


def rate(params: CodeParams) -> float:
    """Rate of a planned code: total message bits over m * h_1 wits."""
    return code_rate(params.v, params.n)


@dataclass(frozen=True)
class BoundReport:
    """A planned code held against the write-by-write wit lower bound."""

    z: int
    h1: int
    n: int
    rate: float
    half_optimal_ok: bool


def check_half_optimal(params: CodeParams) -> BoundReport:
    """Report whether the plan's first window stays within `z_bound`.

    At m = 2 the first window never exceeds the bound, so the code spends
    at most 2 * z_bound wits where z_bound wits is the floor for any code:
    its rate is at least half the best achievable.  For other m the same
    numbers are reported without that guarantee.
    """
    z = z_bound(params.v)
    return BoundReport(
        z=z,
        h1=params.h[0],
        n=params.n,
        rate=rate(params),
        half_optimal_ok=params.h[0] <= z,
    )


# Classic multi-write schemes with fixed per-write cardinality, as rate
# formulas only (their encoders are out of scope here).  They check nothing:
# their one caller, comparator_rates, passes t >= 1 (plan refuses fewer
# writes first), t >= 2 to the linear scheme and r >= 4 to the coset scheme.


def fiat_shamir_rate(t: int) -> float:
    """t writes of a trit into t + 1 wits: t * log2(3) / (t + 1)."""
    return t * math.log2(3) / (t + 1)


def rivest_shamir_linear_rate(t: int) -> float:
    """Linear scheme: t = 1 + v/4 writes of v values into v - 1 wits."""
    v = 4 * (t - 1)
    return t * math.log2(v) / (v - 1)


def cohen_rate(r: int) -> float:
    """Coset scheme: t = 2**(r-2) + 2 writes of r bits into 2**r - 1 wits."""
    t = 2 ** (r - 2) + 2
    return t * r / (2**r - 1)


def cohen_order_for(t: int) -> int | None:
    """The coset order r with 2**(r-2) + 2 == t, or None if t is not covered."""
    d = t - 2
    if d >= 4 and d & (d - 1) == 0:
        return d.bit_length() + 1
    return None


def position_modulation_rate(t: int, v: int) -> float:
    """Rate achieved by planning t writes of v messages with 2-wit symbols."""
    return rate(plan(2, [v] * t))


def comparator_rates(t: int, v: int = 2**32) -> list[tuple[str, float]]:
    """Rates of this scheme and the classic ones at write count t.

    Rows are (scheme-name, bits-per-wit).  The coset scheme's order r is
    derived from t, and its row is omitted at write counts the scheme does
    not support (it exists only for t = 2**(r-2) + 2, r >= 4).  The linear
    scheme needs t >= 2.
    """
    t = as_int(t, "write count")
    rows = [
        ("position-modulation", position_modulation_rate(t, v)),
        ("fiat-shamir", fiat_shamir_rate(t)),
    ]
    if t >= 2:
        rows.append(("rivest-shamir-linear", rivest_shamir_linear_rate(t)))
    r = cohen_order_for(t)
    if r is not None:
        rows.append(("cohen", cohen_rate(r)))
    return rows


# Best previously known fixed-cardinality <v>^t/n codes, one per write
# count, kept as static reference data for the comparison table: hand-built
# or searched constructions (cyclic, projective-geometry, coset, concatenated
# designs) at their published (t, v, n), with the rate derived from those.
KNOWN_CODES: tuple[tuple[int, int, int, float], ...] = tuple(
    (t, v, n, round(code_rate([v] * t, n), 2))
    for t, v, n in (
        (2, 26, 7),
        (3, 63, 12),
        (4, 7, 7),
        (5, 11, 11),
        (6, 16, 15),
        (7, 15, 15),
        (8, 15, 19),
        (9, 15, 21),
        (10, 15, 24),
    )
)
