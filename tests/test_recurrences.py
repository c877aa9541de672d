"""The recurrence-based planner and bound against the quadratic scans they
replace, kept here as equality oracles, plus pinned values for large codes."""

from __future__ import annotations

import math
import random

import pytest

from womcode.bounds import delta, z_bound
from womcode.errors import DomainError
from womcode.message_codec import WriteWindow, window_capacity
from womcode.planner import CodeParams, plan, write_window


# --- Oracles: every sum rebuilt from binomials for each candidate growth. ---


def oracle_delta(v: int, m: int) -> int:
    d = 0
    while True:
        total = 0
        for i in range(d + 1):
            total += math.comb(m + d, i)
            if total >= v:
                return d
        d += 1


def oracle_z_bound(v_list) -> int:
    z = 0
    for v in reversed(v_list):
        z += oracle_delta(v, z)
    return z


def oracle_capacity_first(h1: int, h2: int, m: int) -> int:
    q = 2**m - 1
    return sum(math.comb(h1, k) * q**k for k in range(0, h1 - h2 + 1))


def oracle_capacity_middle(hi: int, hnext: int, m: int) -> int:
    q = 2**m - 2
    return sum(math.comb(hi, k) * q**k for k in range(1, hi - hnext + 1))


def oracle_plan(m: int, v) -> tuple[int, ...]:
    ht = 1
    while (2**m - 1) ** ht - 1 < v[-1]:
        ht += 1
    hs = [ht]
    for i in range(len(v) - 1, 1, -1):
        d = 1
        while oracle_capacity_middle(hs[0] + d, hs[0], m) < v[i - 1]:
            d += 1
        hs.insert(0, hs[0] + d)
    if len(v) >= 2:
        d = 1
        while oracle_capacity_first(hs[0] + d, hs[0], m) < v[0]:
            d += 1
        hs.insert(0, hs[0] + d)
    return tuple(hs)


def random_cardinality(rng: random.Random, max_bits: int) -> int:
    return max(2, rng.getrandbits(rng.randint(1, max_bits)))


# --- Equality against the oracles on seeded random inputs. ---


def test_delta_matches_quadratic_scan():
    rng = random.Random(2)
    for _ in range(400):
        v = random_cardinality(rng, 256)
        m = rng.randrange(0, 401)
        assert delta(v, m) == oracle_delta(v, m), (v, m)


def test_capacities_match_binomial_sums():
    rng = random.Random(3)
    for _ in range(1000):
        m = rng.choice([2, 3, 4])
        hnext = rng.randrange(0, 300)
        hi = hnext + rng.randint(1, 60)
        first = window_capacity(write_window(m, (hi, hnext), 1))
        middle = window_capacity(write_window(m, (hi + 1, hi, hnext), 2))
        assert first == oracle_capacity_first(hi, hnext, m)
        assert middle == oracle_capacity_middle(hi, hnext, m)
        if hnext >= 1:
            last = window_capacity(write_window(m, (hi, hnext), 2))
            assert last == (2**m - 1) ** hnext - 1


def test_full_window_closed_form_matches_binomial_sum():
    rng = random.Random(5)
    for _ in range(500):
        h = rng.randrange(0, 400)
        q = rng.choice([1, 2, 3, 6, 7, 14, 15])
        kmin = rng.randint(0, min(h, 3)) if rng.random() < 0.8 else rng.randint(0, h)
        expected = sum(math.comb(h, k) * q**k for k in range(kmin, h + 1))
        assert window_capacity(WriteWindow(h=h, q=q, kmin=kmin, kmax=h)) == expected


def test_plan_and_z_bound_match_growth_scan():
    rng = random.Random(4)
    for _ in range(300):
        m = rng.choice([2, 3, 4])
        v = [random_cardinality(rng, 256) for _ in range(rng.randint(1, 13))]
        assert plan(m, v).h == oracle_plan(m, v), (m, v)
        assert z_bound(v) == oracle_z_bound(v), v


# --- Values computed by the quadratic scans, pinned for large codes. ---


def test_twenty_1024_bit_writes():
    assert plan(2, [2**1024] * 20).h == (
        3899, 3768, 3623, 3476, 3328, 3178, 3026, 2872, 2716, 2557,
        2395, 2230, 2061, 1888, 1709, 1524, 1330, 1125, 902, 647,
    )
    assert z_bound([2**1024] * 20) == 4811


def test_two_2048_bit_writes():
    assert plan(2, [2**2048] * 2).h == (1717, 1293)
    assert z_bound([2**2048] * 2) == 2653


# --- The cardinality limit. ---


def test_largest_allowed_cardinality_plans():
    params = plan(2, [2**8192 - 1] * 3)
    assert CodeParams(m=2, v=params.v, h=params.h) == params


def test_plan_rejects_cardinality_at_the_limit():
    with pytest.raises(DomainError, match="8193 bits"):
        plan(2, [2, 2**8192])
    with pytest.raises(DomainError):
        plan(3, [2**16384])


def test_code_params_reject_cardinality_at_the_limit():
    with pytest.raises(DomainError):
        CodeParams(m=2, v=(2**8192, 2), h=(3000, 1))
