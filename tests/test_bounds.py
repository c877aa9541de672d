"""Lower bounds, rates, and the fixed-cardinality comparator formulas."""

from __future__ import annotations

import math
import random

import pytest

import spec
from womcode.bounds import (
    KNOWN_CODES,
    check_half_optimal,
    code_rate,
    cohen_order_for,
    cohen_rate,
    comparator_rates,
    delta,
    fiat_shamir_rate,
    position_modulation_rate,
    rate,
    rivest_shamir_linear_rate,
    z_bound,
)
from womcode.errors import DomainError
from womcode.planner import CodeParams, plan


class TestDelta:
    def test_examples(self):
        assert delta(26, 0) == 5
        assert delta(26, 5) == 2
        assert delta(1, 0) == 0
        assert delta(1, 17) == 0

    def test_zero_base_is_log2_ceiling(self):
        for v in range(2, 2**10 + 1):
            assert delta(v, 0) == math.ceil(math.log2(v))

    def test_monotone_in_v(self):
        rng = random.Random(5)
        for _ in range(50):
            m = rng.randrange(0, 30)
            v = rng.randrange(1, 2**24)
            assert delta(v, m) <= delta(v + rng.randrange(1, 1000), m)

    def test_nonincreasing_in_m(self):
        rng = random.Random(6)
        for _ in range(50):
            m = rng.randrange(0, 30)
            v = rng.randrange(1, 2**24)
            assert delta(v, m) >= delta(v, m + rng.randrange(1, 10))

    def test_threshold_is_exact(self):
        # delta is minimal: at one less the capacity sum must fall short.
        for v, m in [(26, 5), (100, 3), (2**20, 0), (7, 2)]:
            d = delta(v, m)
            assert spec.capacity((m + d, 1, 0, d)) >= v
            if d:
                assert spec.capacity((m + d - 1, 1, 0, d - 1)) < v

    def test_domain(self):
        with pytest.raises(DomainError):
            delta(0, 3)
        with pytest.raises(DomainError):
            delta(5, -1)


class TestZBound:
    def test_single_write(self):
        assert z_bound([26]) == 5
        assert z_bound([2]) == 1

    def test_two_writes_matches_known_optimal(self):
        assert z_bound([26, 26]) == 7

    def test_prepending_a_write_strictly_increases(self):
        # A new first write adds delta(v_new, Z) >= 1 on top of Z.
        rng = random.Random(8)
        for _ in range(40):
            v = [rng.randrange(2, 2**20) for _ in range(rng.randrange(1, 6))]
            assert z_bound([rng.randrange(2, 2**20)] + v) > z_bound(v)
            # Extending at the back never lowers the bound either.
            assert z_bound(v + [rng.randrange(2, 2**20)]) >= z_bound(v)

    def test_domain(self):
        with pytest.raises(DomainError):
            z_bound([])
        with pytest.raises(DomainError):
            z_bound([2, 1])


class TestRate:
    def test_example_code(self):
        params = plan(2, [2**56] * 10)
        assert rate(params) == pytest.approx(560 / 278)

    def test_trivial_code(self):
        assert rate(CodeParams(m=2, v=(2,), h=(1,))) == pytest.approx(0.5)
        assert code_rate([2], 1) == pytest.approx(1.0)
        assert code_rate([1, 4], 2) == 1.0  # a write of one message stores 0 bits

    def test_table_row(self):
        params = plan(2, [2**56] * 7)
        assert params.n == 216
        assert round(rate(params), 2) == 1.81

    def test_domain(self):
        with pytest.raises(DomainError):
            code_rate([4, 4], 0)
        with pytest.raises(DomainError):
            code_rate([0], 3)


class TestHalfOptimal:
    def test_example_instance(self):
        report = check_half_optimal(plan(2, [2**56] * 10))
        assert report.z == 178
        assert report.h1 == 139
        assert report.n == 278
        assert report.half_optimal_ok

    def test_small_instances(self):
        assert check_half_optimal(plan(2, [7, 2])).half_optimal_ok
        assert check_half_optimal(plan(2, [2, 2])).half_optimal_ok

    def test_random_instances_at_m2(self):
        rng = random.Random(123)
        for _ in range(200):
            t = rng.randrange(1, 9)
            v = [rng.randrange(2, 2**40) for _ in range(t)]
            report = check_half_optimal(plan(2, v))
            assert report.half_optimal_ok, (v, report)

    def test_rate_is_at_least_half_the_bound_implied_optimum(self):
        # n <= 2 * z and any code needs >= z wits, so rate >= half optimum.
        rng = random.Random(124)
        for _ in range(30):
            t = rng.randrange(1, 7)
            v = [rng.randrange(2, 2**30) for _ in range(t)]
            report = check_half_optimal(plan(2, v))
            best_possible = code_rate(v, report.z)
            assert rate(plan(2, v)) >= best_possible / 2 - 1e-12


class TestComparators:
    def test_fiat_shamir_stays_under_bound(self):
        rates = [fiat_shamir_rate(t) for t in range(1, 10_001)]
        assert max(rates) < 1.59
        assert fiat_shamir_rate(10) == pytest.approx(10 * math.log2(3) / 11)

    def test_rivest_shamir_linear(self):
        assert rivest_shamir_linear_rate(10) == pytest.approx(
            10 * math.log2(36) / 35
        )
        assert all(rivest_shamir_linear_rate(t) < 2 for t in range(2, 51))
        assert rivest_shamir_linear_rate(66) > 2

    def test_cohen(self):
        assert cohen_rate(4) == pytest.approx(6 * 4 / 15)
        assert cohen_rate(5) == pytest.approx(10 * 5 / 31)
        assert cohen_order_for(6) == 4
        assert cohen_order_for(10) == 5
        assert cohen_order_for(7) is None
        assert cohen_order_for(4) is None

    def test_position_modulation_row(self):
        assert position_modulation_rate(10, 2**56) == pytest.approx(560 / 278)

    def test_table_of_rates(self):
        rows = dict(comparator_rates(10, v=2**32))
        assert set(rows) == {
            "position-modulation",
            "fiat-shamir",
            "rivest-shamir-linear",
            "cohen",
        }
        assert rows["position-modulation"] == pytest.approx(320 / 164)
        rows_t7 = dict(comparator_rates(7, v=2**32))
        assert "cohen" not in rows_t7


def test_known_codes_static_data():
    assert [row[0] for row in KNOWN_CODES] == list(range(2, 11))
    for t, v, n, published in KNOWN_CODES:
        assert round(t * math.log2(v) / n, 2) == published
