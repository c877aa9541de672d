"""Acceptance checklist: one test per criterion, reported as a summary line.

Each test computes its verdict, records a PASS/FAIL line for the end-of-run
summary, and then asserts.  Oracles here are kept independent of the code
under test wherever the criterion calls for cross-checking.
"""

from __future__ import annotations

import json
import math
import random

import spec
from womcode import bounds, cli
from womcode.combinadic import rank, unrank
from womcode.device import WitArray
from womcode.planner import plan
from womcode.wom_codec import decode, encode_write, fresh_image

V56 = 2**56
EXAMPLE_H = (139, 130, 120, 110, 99, 88, 76, 64, 51, 36)


def test_criterion_1_ten_write_parameters(criterion):
    params = plan(2, [V56] * 10)
    ok = (
        params.h == EXAMPLE_H
        and params.n == 278
        and abs(bounds.rate(params) - 2.014) <= 0.001
    )
    criterion(1, "ten 56-bit writes plan to h=(139..36), n=278, rate 2.014", ok)


def test_criterion_2_rate_table_row(criterion):
    expected_n = (98, 124, 150, 172, 196, 216, 238, 258, 278)
    expected_rate = (1.14, 1.35, 1.49, 1.63, 1.71, 1.81, 1.88, 1.95, 2.01)
    got_n = []
    got_rate = []
    for t in range(2, 11):
        params = plan(2, [V56] * t)
        got_n.append(params.n)
        got_rate.append(round(bounds.rate(params), 2))
    ok = tuple(got_n) == expected_n and tuple(got_rate) == expected_rate
    criterion(2, "computed n and rate match the t=2..10 comparison row", ok)


def test_criterion_3_window_suffix_stability(criterion):
    # Successive plans share trailing windows.  For plans of t-1 and t
    # writes the shared suffix is the last t-2 entries: the newest first
    # window is recomputed under the first-write capacity, so it may differ
    # by one from the middle-window value it replaces (129 vs 130 here).
    # The literal nine-entry comparison between the 9- and 10-write plans
    # is inconsistent with the n=258 row checked by criterion 2.
    ten = plan(2, [V56] * 10).h
    nine = plan(2, [V56] * 9).h
    eleven = plan(2, [V56] * 11).h
    ok = (
        nine[-8:] == ten[-8:]
        and eleven[-9:] == ten[-9:]
        and all(plan(2, [V56] * t).h[-(t - 1):] == ten[-(t - 1):] for t in range(2, 10))
    )
    criterion(3, "plans for fewer writes keep the trailing windows", ok)


def test_criterion_4_three_wit_symbols_discrepancy_note(criterion, capsys):
    params = plan(3, [V56] * 2)
    exit_code = cli.main(
        ["plan", "--m", "3", "--writes", "2", "--bits", "56", "--format", "machine"]
    )
    record = json.loads(capsys.readouterr().out)
    ok = (
        params.n == 93
        and params.n <= 96
        and exit_code == 0
        and record["n"] == 93
        and any("96" in note for note in record["notes"])
    )
    criterion(4, "m=3 two-write plan needs 93 <= 96 wits and reports the gap", ok)


def test_criterion_5_rank_unrank(criterion):
    example = [0, 1, 0, 1, 1, 0, 0]
    ok = rank(example) == 15 and unrank(15, 7, 3) == example
    if ok:
        for n in range(13):
            for k in range(n + 1):
                for index in range(math.comb(n, k)):
                    u = unrank(index, n, k)
                    if sum(u) != k or rank(u) != index:
                        ok = False
    criterion(5, "rank(0101100)=15, unrank inverts, bijection for n<=12", ok)


def test_criterion_6_randomized_lifecycles(criterion):
    rng = random.Random(56100)
    codes = 0
    ok = True
    while codes < 100 and ok:
        m = rng.choice([2, 3])
        t = rng.randrange(1, 7)
        v = [rng.randrange(2, 2**16 + 1) for _ in range(t)]
        params = plan(m, v)
        arr = WitArray(params.n)
        state = fresh_image(params)
        for generation, vi in enumerate(v, start=1):
            # First-write message 0 leaves the image fresh (a free write),
            # which renumbers later generations; draw it from [1, v1).
            low = 1 if generation == 1 else 0
            message = rng.randrange(low, vi)
            new_state = encode_write(state, message)
            if decode(new_state) != (generation, message):
                ok = False
                break
            before, after = spec.wits(state.symbols, m), spec.wits(new_state.symbols, m)
            if any(b > a for b, a in zip(before, after)):
                ok = False  # a wit went 1 -> 0
                break
            arr.apply_image(new_state)  # raises on any wit-level violation
            state = new_state
        codes += 1
    ok = ok and codes >= 100
    criterion(6, "100 random codes: every write decodes exactly, wits only rise", ok)


def test_criterion_7_exhaustive_small_code(criterion):
    params = plan(2, [7, 2])
    # The first-write images in canonical order, by hand: the empty write, then
    # masks (0, 1) and (1, 0), each with values 1..3; then the spec's rewrite.
    first_images = [(0, 0)] + [(0, x) for x in (1, 2, 3)] + [(x, 0) for x in (1, 2, 3)]
    ok = first_images == list(spec.payloads(spec.window(2, params.h, 1)))
    checked = 0
    for m1 in range(7):
        got1 = encode_write(fresh_image(params), m1)
        ok = ok and got1.symbols == first_images[m1]
        ok = ok and decode(got1) == (1, m1)
        for m2 in range(2):
            expected_image = tuple(spec.write(first_images[m1], 2, params.h, params.v, m2))
            got2 = encode_write(got1, m2)
            ok = ok and got2.symbols == expected_image
            # A first write of message 0 leaves the image fresh.
            ok = ok and decode(got2) == ((2, m2) if m1 else (1, m2))
            checked += 1
    ok = ok and checked == 14
    criterion(7, "all 14 <7,2>/4 message sequences match the brute-force model", ok)


def test_criterion_8_half_optimality(criterion):
    report = bounds.check_half_optimal(plan(2, [V56] * 10))
    ok = report.h1 == 139 and report.h1 <= report.z
    rng = random.Random(8200)
    for _ in range(200):
        t = rng.randrange(1, 9)
        v = [rng.randrange(2, 2**40) for _ in range(t)]
        if not bounds.check_half_optimal(plan(2, v)).half_optimal_ok:
            ok = False
            break
    criterion(8, "h1 <= Z bound for the example and 200 random m=2 codes", ok)


def test_criterion_9_bound_sanity(criterion):
    ok = bounds.z_bound([26, 26]) == 7
    # delta(., 0) never decreases in v (a bigger v can only push the minimum
    # up), and ceil(log2 v) is constant on each interval (2^(j-1), 2^j].
    # Checking both interval ends for j = 1..20 therefore covers all
    # v in [2, 2^20]; the low range is also swept directly.
    for j in range(1, 21):
        ok = ok and bounds.delta(2 ** (j - 1) + 1, 0) == j
        ok = ok and bounds.delta(2**j, 0) == j
    for v in range(2, 2**10 + 1):
        ok = ok and bounds.delta(v, 0) == math.ceil(math.log2(v))
    criterion(9, "Z(26,26)=7 and delta(v,0)=ceil(log2 v) on [2, 2^20]", ok)


def test_criterion_10_comparator_curves(criterion):
    ok = all(bounds.fiat_shamir_rate(t) < 1.59 for t in range(1, 10_001))
    ok = ok and all(bounds.rivest_shamir_linear_rate(t) < 2 for t in range(2, 51))
    for t in range(10, 67):
        pm = bounds.position_modulation_rate(t, 2**32)
        if pm <= bounds.fiat_shamir_rate(t):
            ok = False
        if pm <= bounds.rivest_shamir_linear_rate(t):
            ok = False
        r = bounds.cohen_order_for(t)
        if r is not None and pm <= bounds.cohen_rate(r):
            ok = False
    criterion(10, "this scheme out-rates all three comparators for t >= 10", ok)
