"""Window planning: capacities, the reverse-order greedy search, validation."""

from __future__ import annotations

import math
import random

import pytest

import spec
from womcode.errors import DomainError
from womcode.message_codec import WriteWindow, window_capacity
from womcode.planner import (
    M_LIMIT,
    CodeParams,
    plan,
    validate,
    write_window,
)

V56 = 2**56


class TestCapacities:
    # A middle write g = 2 needs some h_1 above it; its value does not matter.

    def test_first_small(self):
        assert window_capacity(write_window(2, (2, 1), 1)) == 7  # 1 + C(2,1)*3
        assert window_capacity(write_window(2, (1, 0), 1)) == 4  # 1 + 3

    def test_first_covers_56_bits(self):
        assert window_capacity(write_window(2, (49, 36), 1)) >= V56
        assert window_capacity(write_window(2, (48, 36), 1)) < V56  # 49 is minimal

    def test_middle_small(self):
        assert window_capacity(write_window(2, (3, 2, 1), 2)) == 4  # C(2,1)*2
        for h in range(2, 30):
            assert window_capacity(write_window(2, (h + 1, h, h - 1), 2)) == 2 * h

    def test_middle_covers_56_bits(self):
        assert window_capacity(write_window(2, (52, 51, 36), 2)) >= V56
        assert window_capacity(write_window(2, (51, 50, 36), 2)) < V56

    def test_last(self):
        assert window_capacity(write_window(2, (1,), 1)) == 2
        assert window_capacity(write_window(2, (36,), 1)) == 3**36 - 1
        assert window_capacity(write_window(2, (36,), 1)) >= V56
        assert window_capacity(write_window(2, (35,), 1)) < V56
        assert window_capacity(write_window(3, (20,), 1)) == 7**20 - 1 >= V56
        # The last window of a longer code is the same window.
        assert window_capacity(write_window(2, (49, 36), 2)) == 3**36 - 1

    def test_windows(self):
        h = (139, 130, 36)
        assert write_window(2, h, 1) == WriteWindow(h=139, q=3, kmin=0, kmax=9)
        assert write_window(2, h, 2) == WriteWindow(h=130, q=2, kmin=1, kmax=94)
        assert write_window(2, h, 3) == WriteWindow(h=36, q=2, kmin=1, kmax=36)
        assert write_window(3, (31, 20), 1) == WriteWindow(h=31, q=7, kmin=0, kmax=11)
        assert write_window(M_LIMIT, (2, 1), 2).q == 2**M_LIMIT - 2

    def test_ordering_required(self):
        with pytest.raises(DomainError):
            write_window(2, (3, 3), 1)
        with pytest.raises(DomainError):
            write_window(2, (5, 3, 4), 2)
        with pytest.raises(DomainError):
            write_window(2, (0,), 1)


class TestPlan:
    def test_ten_writes_of_56_bits(self):
        params = plan(2, [V56] * 10)
        assert params.h == (139, 130, 120, 110, 99, 88, 76, 64, 51, 36)
        assert params.n == 278

    def test_two_writes(self):
        assert plan(2, [7, 2]).h == (2, 1)
        assert plan(2, [V56, V56]).h[0] == 49
        assert plan(2, [V56, V56]).n == 98

    def test_single_write(self):
        assert plan(2, [2]).h == (1,)
        assert plan(2, [2]).n == 2
        assert plan(2, [3**5 - 1]).h == (5,)

    def test_exhaustive_minimal_search_oracle(self):
        for v1 in range(2, 40):
            for v2 in range(2, 40):
                assert plan(2, [v1, v2]).h == spec.plan(2, [v1, v2])

    def test_greedy_steps_are_minimal(self):
        h = plan(2, [V56] * 10).h
        for g in range(1, len(h) + 1):
            shrunk = h[: g - 1] + (h[g - 1] - 1,) + h[g:]
            assert spec.capacity(spec.window(2, h, g)) >= V56
            assert spec.capacity(spec.window(2, shrunk, g)) < V56

    def test_nondecreasing_increments_for_equal_cardinalities(self):
        rng = random.Random(7)
        for _ in range(30):
            m = rng.choice([2, 3, 4])
            t = rng.randrange(2, 8)
            v = rng.randrange(2, 2**20)
            h = plan(m, [v] * t).h
            # Increments never shrink toward the last (smallest) window.
            deltas = [h[i] - h[i + 1] for i in range(t - 1)]
            assert deltas == sorted(deltas)

    def test_example_increments(self):
        h = plan(2, [V56] * 10).h
        assert [h[i] - h[i + 1] for i in range(9)] == [9, 10, 10, 11, 11, 12, 12, 13, 15]

    def test_suffix_stability(self):
        ten = plan(2, [V56] * 10).h
        assert plan(2, [V56] * 9).h[-8:] == ten[-8:]
        assert plan(2, [V56] * 11).h[-9:] == ten[-9:]
        for t in range(2, 9):
            shorter = plan(2, [V56] * t).h
            assert shorter[-(t - 1) :] == ten[-(t - 1) :]

    def test_m3_beats_m2_for_two_56_bit_writes(self):
        assert plan(2, [V56] * 2).n == 98
        assert plan(3, [V56] * 2).n == 93
        assert plan(3, [V56] * 2).h == (31, 20)

    def test_input_validation(self):
        with pytest.raises(DomainError, match="m must be at least 2, got 1"):
            plan(1, [4, 4])
        with pytest.raises(DomainError, match=f"m must be at most {M_LIMIT}, got {M_LIMIT + 1}"):
            plan(M_LIMIT + 1, [4, 4])
        with pytest.raises(DomainError, match=f"at most {M_LIMIT}"):
            CodeParams(m=M_LIMIT + 1, v=(4,), h=(1,))
        assert plan(M_LIMIT, [4, 4]).h == (2, 1)
        with pytest.raises(DomainError):
            plan(2, [])
        with pytest.raises(DomainError):
            plan(2, [4, 1])


class TestValidate:
    def test_planned_params_pass(self):
        rng = random.Random(11)
        for _ in range(25):
            m = rng.choice([2, 3])
            t = rng.randrange(1, 7)
            v = [rng.randrange(2, 2**12) for _ in range(t)]
            assert validate(plan(m, v)) == []

    def test_window_order_violation(self):
        params = CodeParams(m=2, v=(4, 2), h=(2, 2))
        kinds = [viol.condition for viol in validate(params)]
        assert "window-order" in kinds

    def test_first_capacity_violation(self):
        params = CodeParams(m=2, v=(8, 2), h=(2, 1))
        viols = validate(params)
        assert [v.condition for v in viols] == ["first-write-capacity"]
        assert "7" in viols[0].detail

    def test_middle_and_last_capacity_violations(self):
        params = CodeParams(m=2, v=(50, 50, 3), h=(8, 3, 1))
        kinds = {v.condition for v in validate(params)}
        assert "middle-write-capacity" in kinds
        assert "last-write-capacity" in kinds

    @pytest.mark.parametrize("h", [(2, -1), (2, 0), (3, 0, -1)])
    def test_non_positive_windows_are_violations_not_errors(self, h):
        # The last window sits above h_(t+1) = 0, so a non-positive one breaks
        # the chain; a negative one breaks the window above it too.
        t = len(h)
        expected = [("window-order", f"write {t} needs h_{t} > h_{t + 1}, got {h[-1]} <= 0")]
        if h[-1] < 0:
            expected.insert(0, ("window-order", f"write {t - 1} needs h_{t} >= 0, got {h[-1]}"))
        params = CodeParams(m=2, v=(5,) * t, h=h)
        assert [(x.condition, x.detail) for x in validate(params)] == expected

    def test_windows_above_a_negative_successor_are_order_violations(self):
        # Violations come in write order.  Write 1 sits above 0, a full
        # window, so its capacity is checked; write 3 sits above -2, so its
        # window does not exist.
        params = CodeParams(m=2, v=(10**6, 7, 7, 7), h=(4, 0, 1, -2))
        assert [(v.condition, v.detail) for v in validate(params)] == [
            ("first-write-capacity", "capacity 256 below v_1=1000000"),
            ("window-order", "write 2 needs h_2 > h_3, got 0 <= 1"),
            ("window-order", "write 3 needs h_4 >= 0, got -2"),
            ("window-order", "write 4 needs h_4 > h_5, got -2 <= 0"),
        ]

    def test_matches_exact_capacity_oracle(self):
        # validate stops summing once v_g is covered; its result must be the
        # one found from each window's exact capacity, texts included.
        rng = random.Random(4711)
        for case in range(400):
            m = rng.choice([2, 3])
            t = rng.randrange(1, 7)
            v = [rng.randrange(2, 2 ** rng.randrange(2, 200)) for _ in range(t)]
            h = list(plan(m, v).h)
            if case % 2:
                # Nudge windows so some capacities fall short, some barely
                # cover, and some pairs break the order.
                h = [x + rng.choice((-2, -1, -1, 0, 0, 0, 1)) for x in h]
            if case % 4 == 3:
                # A window of zero or below is reported, never raised.
                h[rng.randrange(t)] = rng.randrange(-2, 1)
            report = validate(CodeParams(m=m, v=tuple(v), h=tuple(h)))
            assert [(x.condition, x.detail) for x in report] == spec.violations(m, v, h)


def test_params_properties():
    params = CodeParams(m=2, v=(7, 2), h=(2, 1))
    assert params.t == 2
    assert params.n == 4
    assert params.erased == 3
    with pytest.raises(DomainError):
        CodeParams(m=2, v=(7, 2), h=(2,))
    with pytest.raises(DomainError):
        CodeParams(m=1, v=(7,), h=(2,))


def test_rate_of_plan_matches_formula():
    params = plan(2, [V56] * 10)
    assert math.isclose(10 * 56 / params.n, 560 / 278)
