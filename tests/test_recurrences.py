"""The recurrence-based planner and bound against the spec's comb-sum scans,
plus pinned values for large codes."""

from __future__ import annotations

import random

import pytest

import spec
from womcode.bounds import delta, z_bound
from womcode.errors import DomainError
from womcode.message_codec import WriteWindow, window_capacity
from womcode.planner import CodeParams, least_growth, plan, write_window


def random_cardinality(rng: random.Random, max_bits: int) -> int:
    return max(2, rng.getrandbits(rng.randint(1, max_bits)))


# --- Equality against the spec on seeded random inputs. ---


def test_delta_matches_quadratic_scan():
    rng = random.Random(2)
    for _ in range(400):
        v = random_cardinality(rng, 256)
        m = rng.randrange(0, 401)
        assert delta(v, m) == spec.least_growth(m, 1, v), (v, m)


def test_least_growth_matches_comb_sum():
    rng = random.Random(11)
    for case in range(300):
        q = (1, 2, 3, 6, 7)[case % 5]
        hnext = rng.randrange(0, 2001) if case % 3 else rng.randrange(0, 20)
        need = random_cardinality(rng, 256) if case % 7 else 1
        assert least_growth(hnext, q, need) == spec.least_growth(hnext, q, need), (
            hnext, q, need,
        )


def test_delta_is_least_growth_at_q1():
    # S(d) = capacity (m + d, 1, 0, d) grows with d: delta is d iff S(d) >= v > S(d - 1).
    rng = random.Random(12)
    for case in range(3000):
        v = max(1, rng.getrandbits(rng.randint(1, 1024)))
        m = rng.randrange(0, 5001)
        d = delta(v, m)
        assert spec.capacity((m + d, 1, 0, d)) >= v, (v, m)
        assert d == 0 or spec.capacity((m + d - 1, 1, 0, d - 1)) < v, (v, m)


def test_capacities_match_binomial_sums():
    rng = random.Random(3)
    for _ in range(1000):
        m = rng.choice([2, 3, 4])
        hnext = rng.randrange(0, 300)
        hi = hnext + rng.randint(1, 60)
        for h, g in (((hi, hnext), 1), ((hi + 1, hi, hnext), 2)):
            assert window_capacity(write_window(m, h, g)) == spec.capacity(spec.window(m, h, g))
        if hnext >= 1:
            last = window_capacity(write_window(m, (hi, hnext), 2))
            assert last == (2**m - 1) ** hnext - 1


def test_full_window_closed_form_matches_binomial_sum():
    rng = random.Random(5)
    for _ in range(500):
        h = rng.randrange(0, 400)
        q = rng.choice([1, 2, 3, 6, 7, 14, 15])
        kmin = rng.randint(0, min(h, 3)) if rng.random() < 0.8 else rng.randint(0, h)
        expected = spec.capacity((h, q, kmin, h))
        assert window_capacity(WriteWindow(h=h, q=q, kmin=kmin, kmax=h)) == expected


def test_plan_and_z_bound_match_growth_scan():
    rng = random.Random(4)
    for _ in range(300):
        m = rng.choice([2, 3, 4])
        v = [random_cardinality(rng, 256) for _ in range(rng.randint(1, 13))]
        assert plan(m, v).h == spec.plan(m, v), (m, v)
        assert z_bound(v) == spec.z_bound(v), v


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
    with pytest.raises(DomainError, match="8193 bits"):
        z_bound([2, 2**8192])


def test_code_params_reject_cardinality_at_the_limit():
    with pytest.raises(DomainError):
        CodeParams(m=2, v=(2**8192, 2), h=(3000, 1))
