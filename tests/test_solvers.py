"""Solver behavior: contracts, frozen reference runs, and cross-oracle properties."""

import csv
import hashlib
import inspect
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import compare_event, oracle_matching_masks, oracle_solvable, simulate_mitm_scan
import subsum
from subsum import (CapExceededError, ComparisonLedger, CompareEvent,
                    EmitEvent, GeneratorSpec, Half, HalfSumEntry, Instance,
                    Ordering, SortedListEvent, SplitMix64, brute_force_solve, derive_seed,
                    dp_solve, dump_trace, gen_planted, gen_powers_of_two,
                    gen_random_wide, generate, half_sums, mitm_solve,
                    solution_witness_check, subset_sum, verify)
from subsum.ledger import sort_charge
from subsum.model import all_subset_sums, sorted_subset_sums
from subsum.solvers import BRUTE_FORCE_MAX_N, DP_MAX_RANGE, MITM_MAX_N


@st.composite
def small_instances(draw, max_n=10, magnitude=30, min_n=0):
    elements = tuple(draw(st.lists(st.integers(-magnitude, magnitude),
                                   min_size=min_n, max_size=max_n)))
    n = len(elements)
    if n and draw(st.booleans()):
        mask = draw(st.integers(0, (1 << n) - 1))
        target = sum(elements[i] for i in range(n) if mask >> i & 1)
    else:
        target = draw(st.integers(-2 * magnitude, 2 * magnitude))
    return Instance(elements, target)


# -- brute force -----------------------------------------------------------

def test_brute_empty_instance_solved_by_empty_mask():
    res = brute_force_solve(Instance((), 0))
    assert res.solution == 0
    assert res.compare_count == 1


def test_brute_lowest_mask_wins_tie():
    res = brute_force_solve(Instance((1, 1), 1))
    assert res.solution == 0b01


def test_brute_powers2_exhausts_exactly():
    res = brute_force_solve(gen_powers_of_two(10))
    assert res.solution is None
    assert res.compare_count == 1024
    assert res.peak_sorted_len == 1
    assert res.elementary_ops == 2048


def test_brute_ascending_order_and_events():
    led = ComparisonLedger([])
    inst = Instance((2, 3), 3)
    res = brute_force_solve(inst, led)
    assert res.solution == 0b10
    compares = [e for e in led.trace if isinstance(e, CompareEvent)]
    # masks 0, 1, 2 in order: sums 0, 2, 3
    assert [e.lhs for e in compares] == [0, 2, 3]
    assert led.trace[-1] == EmitEvent(0b10)


def test_brute_cap_refusal():
    # At the cap a solve runs: target 0 hits the first mask.
    assert brute_force_solve(Instance((0,) * BRUTE_FORCE_MAX_N, 0)).solution == 0
    inst = Instance((0,) * (BRUTE_FORCE_MAX_N + 1), 0)
    with pytest.raises(CapExceededError, match="^brute force is capped at n=30, got n=31$"):
        brute_force_solve(inst)
    # The caps are fixed: no solver takes a per-call override.
    small = Instance((1, 2, 3), 4)
    with pytest.raises(TypeError):
        brute_force_solve(small, max_n=40)
    with pytest.raises(TypeError):
        mitm_solve(small, max_n=60)
    with pytest.raises(TypeError):
        dp_solve(small, max_range=10 ** 8)


def test_full_trace_cap_refusal():
    inst = Instance((1,) * 25, 100)
    for solver in (brute_force_solve, mitm_solve):
        with pytest.raises(CapExceededError, match="24"):
            solver(inst, ComparisonLedger([]))


def test_trace_cap_applies_to_any_tracing_ledger():
    # The cap keys on the ledger recording a trace, however it came to.
    # Target 0 is hit by the first mask, so an uncapped run stays small.
    inst = Instance((1,) * 25, 0)
    for solver in (brute_force_solve, mitm_solve):
        led = ComparisonLedger()
        led.trace = []
        with pytest.raises(CapExceededError, match="24"):
            solver(inst, led)
        assert led.trace == []


# The ids are the names these two cases had when an enum chose the trace.
@pytest.mark.parametrize("traced", [False, True],
                         ids=["Mode.COUNTERS_ONLY", "Mode.FULL_TRACE"])
def test_solvers_refuse_a_used_ledger(traced):
    # Reusing a ledger would sum the two runs' counters into one result.
    # Each ledger gets its own trace list: a list already holding events
    # makes a used ledger.
    inst = Instance((3, 5, 7), 8)
    led = ComparisonLedger([] if traced else None)
    assert brute_force_solve(inst, led).compare_count == 4
    events = None if led.trace is None else list(led.trace)
    for solver in (brute_force_solve, mitm_solve):
        with pytest.raises(ValueError, match="fresh ledger"):
            solver(inst, led)
    assert (led.compare_count, led.trace) == (4, events)
    for field, value in [("compare_count", 1), ("elementary_ops", 1),
                         ("peak_sorted_len", 2)]:
        led = ComparisonLedger([] if traced else None)
        setattr(led, field, value)
        with pytest.raises(ValueError, match="fresh ledger"):
            mitm_solve(inst, led)
    led = ComparisonLedger([])
    led.emit(0b11)
    with pytest.raises(ValueError, match="fresh ledger"):
        brute_force_solve(inst, led)


@given(st.integers(0, 10), st.lists(st.integers(-20, 20), max_size=14))
def test_brute_exact_count_on_no_instance(odd_target_seed, halves):
    # all-even elements with an odd target can never match
    inst = Instance(tuple(2 * x for x in halves), 2 * odd_target_seed + 1)
    res = brute_force_solve(inst)
    assert res.solution is None
    assert res.compare_count == 1 << inst.n
    assert res.peak_sorted_len == 1


@given(small_instances(max_n=14, magnitude=3, min_n=11))
@settings(max_examples=60)
def test_brute_lowest_mask_across_blocks(inst):
    # n > 10 spreads the masks over several blocks of low sums; ties in
    # [-3, 3] give most targets many matching masks in several blocks.
    res = brute_force_solve(inst)
    assert res.solution == min(oracle_matching_masks(inst.elements, inst.target),
                               default=None)
    visited = 1 << inst.n if res.solution is None else res.solution + 1
    assert res.compare_count == visited
    assert res.elementary_ops == 2 * visited
    assert res.peak_sorted_len == 1


def reference_brute_trace(inst):
    """brute's trace events, one plain comparison per visited mask."""
    events = []
    for mask in range(1 << inst.n):
        events.append(compare_event(subset_sum(inst, mask), inst.target))
        if events[-1].outcome is Ordering.EQ:
            events.append(EmitEvent(mask))
            break
    return events


@given(small_instances(max_n=12, magnitude=2, min_n=5), st.sampled_from([0, 1, 2, 3, 10]))
@settings(max_examples=150)
def test_brute_bulk_trace_matches_per_mask_reference(inst, bits):
    # Small blocks and ties in [-2, 2] put most hits in a later block, after
    # earlier blocks that hold the same sums.
    with mock.patch.object(subsum.ledger, "BRUTE_BLOCK_BITS", bits):
        led = ComparisonLedger([])
        brute_force_solve(inst, led)
    assert led.trace == reference_brute_trace(inst)


def test_brute_memory_flat_in_n():
    # Brute holds one block of low sums, at most 2^10 entries whatever n
    # is, as a tuple and as a hex text. The peak, on random n = 18, is
    # 59.5-59.7 KB on 64-bit CPython 3.11.7 and 59.7 KB on 3.13.
    for inst in [gen_powers_of_two(24), gen_random_wide(18, 1)]:
        tracemalloc.start()
        try:
            brute_force_solve(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024, (inst.n, peak)


def _lowest_mask(elements, total):
    return ComparisonLedger().lowest_mask(elements, total)


def test_lowest_mask_matches_whole_low_sums_only():
    # Masks 0..15 sum to 0, -1, 2, 1, 16, 15, 18, 17, 17, 16, 19, 18, 33,
    # 32, 35, 34. In hex "1" sits inside "-1", "11" and "10", so a search
    # must match a whole entry, and the first of two equal entries.
    elements = (-1, 2, 0x10, 0x11)
    for total, mask in [(-1, 1), (1, 3), (0x11, 7), (0x10, 4), (0, 0), (0x23, 14)]:
        assert _lowest_mask(elements, total) == mask
    for total in (-0x11, -0x10, -2, 3, 0x110, 0x101, 0x31, 36):
        assert _lowest_mask(elements, total) is None
    for total in range(-40, 41):
        assert _lowest_mask(elements, total) == min(oracle_matching_masks(elements, total),
                                                  default=None)


big_or_small = st.one_of(st.integers(-3, 3), st.integers(-(1 << 70), 1 << 70))


@given(st.lists(big_or_small, max_size=8), st.data(), st.sampled_from([0, 1, 3, 10]))
@settings(max_examples=150)
def test_lowest_mask_equals_oracle_on_wide_magnitudes(elements, data, bits):
    # Magnitudes to 2^70 and negative targets, over blocks of 1 to 2^8 masks.
    elements = tuple(elements)
    if elements and data.draw(st.booleans()):
        mask = data.draw(st.integers(0, (1 << len(elements)) - 1))
        total = sum(a for i, a in enumerate(elements) if mask >> i & 1)
    else:
        total = data.draw(big_or_small)
    with mock.patch.object(subsum.ledger, "BRUTE_BLOCK_BITS", bits):
        assert _lowest_mask(elements, total) == min(oracle_matching_masks(elements, total),
                                                  default=None)


def test_brute_solves_elements_past_the_decimal_digit_limit():
    # 5,001-digit elements: past CPython's 4,300-digit int-to-str limit, so
    # any decimal rendering of the sums would raise. Four blocks of masks.
    elements = tuple(10 ** 5000 + i for i in range(12))
    planted = 0b1011_0010_1101
    inst = Instance(elements, subset_sum(Instance(elements, 0), planted))
    res = brute_force_solve(inst)
    assert res.solution == min(oracle_matching_masks(elements, inst.target))
    assert res.solution <= planted and verify(inst, res.solution)
    assert res.compare_count == res.solution + 1


# -- half sums -------------------------------------------------------------

def test_half_sums_empty_instance():
    inst = Instance((), 0)
    assert half_sums(inst, Half.FRONT) == [HalfSumEntry(0, 0)]
    assert half_sums(inst, Half.BACK) == [HalfSumEntry(0, 0)]


def test_half_sums_three_elements():
    inst = Instance((3, 4, 5), 0)
    front = half_sums(inst, Half.FRONT)
    assert front == [HalfSumEntry(0, 0), HalfSumEntry(3, 1),
                     HalfSumEntry(4, 2), HalfSumEntry(7, 3)]
    back = half_sums(inst, Half.BACK)
    assert back == [HalfSumEntry(0, 0), HalfSumEntry(5, 0b100)]


def test_half_sums_single_element_back_is_empty_set_only():
    inst = Instance((9,), 9)
    assert half_sums(inst, Half.BACK) == [HalfSumEntry(0, 0)]


def test_half_sums_cap_refusal():
    # n past mitm's cap is refused before any sum is enumerated; a 2^26-entry
    # front list would not fit a small machine's memory.
    inst = Instance((0,) * (MITM_MAX_N + 1), 1)
    with mock.patch.object(subsum.solvers, "all_subset_sums",
                           side_effect=AssertionError("enumerated past the cap")):
        for half in Half:
            with pytest.raises(CapExceededError, match=str(MITM_MAX_N)):
                half_sums(inst, half)


@pytest.mark.parametrize("half", ["front", "back", None, 0])
def test_half_sums_rejects_non_half(half):
    with pytest.raises(TypeError, match="Half"):
        half_sums(Instance((1, 2, 4), 0), half)


@given(small_instances(max_n=10))
def test_half_sums_integrity(inst):
    split = (inst.n + 1) // 2
    for half, lo_bit, hi_bit in [(Half.FRONT, 0, split), (Half.BACK, split, inst.n)]:
        entries = half_sums(inst, half)
        assert len(entries) == 1 << (hi_bit - lo_bit)
        masks = [e.mask for e in entries]
        assert masks == sorted(masks)
        assert len(set(masks)) == len(masks)
        for e in entries:
            assert e.mask >> hi_bit == 0 and e.mask & ((1 << lo_bit) - 1) == 0
            assert e.sum == subset_sum(inst, e.mask)
        # sorting for the scan is a permutation of the generated entries
        assert sorted(sorted(entries)) == sorted(entries)
        assert set(sorted(entries)) == set(entries)


# -- meet in the middle ----------------------------------------------------

def test_mitm_matches_independent_simulation_on_worked_example():
    elements = (3, 34, 4, 12, 5, 2)
    inst = Instance(elements, 9)
    expected_mask, expected_count = simulate_mitm_scan(elements, 9)
    res = mitm_solve(inst)
    assert res.solution == expected_mask
    assert res.compare_count == expected_count
    assert verify(inst, res.solution)
    assert expected_mask in oracle_matching_masks(elements, 9)


def test_mitm_empty_instance_unsolvable_one_comparison():
    res = mitm_solve(Instance((), 7))
    assert res.solution is None
    assert res.compare_count == 1


def test_mitm_single_element():
    res = mitm_solve(Instance((9,), 9))
    assert res.solution == 0b1


def test_mitm_powers2_frozen_reference_run():
    res = mitm_solve(gen_powers_of_two(10))
    assert res.solution is None
    assert res.compare_count == 32
    assert res.compare_count <= 2 ** 5 + 2 ** 5 - 1
    assert res.peak_sorted_len == 32
    # charging model: 64 generated + 2 list builds of 32 + 2 sorts at 160 + 32 compares
    assert res.elementary_ops == 480


def test_mitm_cap_refusal():
    inst = Instance((0,) * 51, 1)
    with pytest.raises(CapExceededError, match="50"):
        mitm_solve(inst)


def test_mitm_trace_shape():
    inst = Instance((4, 5), 9)
    led = ComparisonLedger([])
    res = mitm_solve(inst, led)
    assert res.solution == 0b11
    lists = [e for e in led.trace if not isinstance(e, (CompareEvent, EmitEvent))]
    assert [e.length for e in lists] == [2, 2]
    assert led.trace[-1] == EmitEvent(0b11)
    # The opening LIST records tell the witness check to read split sums.
    assert led.trace[:2] == [SortedListEvent(2), SortedListEvent(2)]
    assert solution_witness_check(led.trace, inst)


@given(st.one_of(small_instances(), small_instances(max_n=12, magnitude=3)))
@settings(max_examples=300)
# Front and back sums repeat, so a hit must recover the lowest front mask,
# then the lowest back mask, among several that share each sum.
@example(Instance((1, 1, 0, 1, 1, 0), 2))
@example(Instance((0, -2, 2, 0, 2, -2, 0, 0), 0))
@example(Instance((3, 3, 3, 3, 3, 3, 3), 9))
def test_mitm_equals_independent_simulation(inst):
    expected_mask, expected_count = simulate_mitm_scan(inst.elements, inst.target)
    res = mitm_solve(inst)
    assert res.solution == expected_mask
    assert res.compare_count == expected_count


@pytest.mark.parametrize("inst", [gen_random_wide(20, 1), gen_planted(26, 1)[0]],
                         ids=["random-n20-unsolvable", "planted-n26-hit"])
def test_mitm_memory_per_half_entry(inst):
    # Merge-built plain int half lists peak near 44.5 B per entry on 64-bit
    # CPython 3.11. Sorting them with sorted() took 74 B, and one (sum, mask)
    # tuple per entry more than 160 B. A hit recovers its masks with the
    # blocked walk (45 B at n = 26); rebuilding each half's mask-order list
    # took 66 B.
    tracemalloc.start()
    try:
        mitm_solve(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    split = (inst.n + 1) // 2
    assert peak / (2 ** split + 2 ** (inst.n - split)) < 60


def reference_mitm(inst):
    """mitm's mask, C/M/T and trace events from a pointer-pair while loop.

    The same half lists as the solver, charged by README's model with no
    ledger; the scan advances one pointer per miss, testing both list
    bounds before every comparison.
    """
    split = (inst.n + 1) // 2
    front, back = inst.elements[:split], inst.elements[split:]
    lo = sorted_subset_sums(front)
    hi = sorted_subset_sums([-a for a in back], inst.target)
    events = [SortedListEvent(len(lo)), SortedListEvent(len(hi))]
    i = j = 0
    solution = None
    while i < len(lo) and j < len(hi):
        lhs, rhs = lo[i], hi[j]
        events.append(compare_event(lhs, rhs))
        outcome = events[-1].outcome
        if outcome is Ordering.EQ:
            solution = (all_subset_sums(front).index(lhs)
                        | all_subset_sums(back).index(inst.target - rhs) << split)
            events.append(EmitEvent(solution))
            break
        if outcome is Ordering.LT:
            i += 1
        else:
            j += 1
    compares = i + j + (solution is not None)
    ops = compares + 2 * (len(lo) + len(hi)) + sort_charge(len(lo)) + sort_charge(len(hi))
    return (solution, compares, max(len(lo), len(hi)), ops), events


@given(st.one_of(small_instances(), small_instances(max_n=12, magnitude=3)))
@settings(max_examples=300)
# Each way the scan ends: the front list runs out, the back list runs out,
# the heads meet on the first comparison, and they meet on the last entries
# of both lists after the longest scan, 2^2 + 2^2 - 1 comparisons. With
# n = 0 each list holds one entry.
@example(Instance((1, 2), 100))
@example(Instance((1, 2), -100))
@example(Instance((1, 2), 2))
@example(Instance((1, 2, 4, 8), 3))
@example(Instance((), 7))
@example(Instance((), -7))
@example(Instance((), 0))
@example(Instance((0, 0, -1, 1, 0), 0))
# Halves of 11 and 12 elements, past one block of 2^10 masks, with ties:
# the lowest front mask is >= 2^10 in the first three, and the lowest back
# mask in all four, so recovery must walk past its first block.
@example(Instance((0,) * 10 + (1,) + (0,) * 10 + (1,), 2))
@example(Instance((1,) * 11 + (2,) * 11, 33))
@example(Instance((0, 0, 1, -1) * 5 + (2, 2, 2), 5))
@example(Instance((0, -1, 1) * 7 + (3, 3), 7))
def test_mitm_scan_equals_while_loop_reference(inst):
    expected, events = reference_mitm(inst)
    led = ComparisonLedger([])
    res = mitm_solve(inst, led)
    assert (res.solution, res.compare_count, res.peak_sorted_len,
            res.elementary_ops) == expected
    assert led.trace == events


@given(small_instances())
def test_mitm_scan_bound_and_monotonicity(inst):
    led = ComparisonLedger([])
    res = mitm_solve(inst, led)
    split = (inst.n + 1) // 2
    assert res.compare_count <= (1 << split) + (1 << (inst.n - split)) - 1
    compares = [e for e in led.trace if isinstance(e, CompareEvent)]
    lhs = [e.lhs for e in compares]
    rhs = [e.rhs for e in compares]
    assert lhs == sorted(lhs)
    assert rhs == sorted(rhs)


# -- dp cross-oracle -------------------------------------------------------

def test_dp_worked_example():
    inst = Instance((3, 34, 4, 12, 5, 2), 9)
    mask = dp_solve(inst)
    assert mask is not None and verify(inst, mask)


def test_dp_unreachable_target():
    assert dp_solve(Instance((1, 2), 4)) is None


def test_dp_negative_elements():
    inst = Instance((-2, 2), 0)
    mask = dp_solve(inst)
    assert mask is not None and verify(inst, mask)
    neg = Instance((-3, 5), -3)
    assert verify(neg, dp_solve(neg))
    assert dp_solve(Instance((-3, 5), -4)) is None


def test_dp_empty_instance():
    assert dp_solve(Instance((), 0)) == 0
    assert dp_solve(Instance((), 1)) is None


def test_dp_range_cap_refusal():
    # A sum range of exactly DP_MAX_RANGE runs; one past it is refused.
    assert dp_solve(Instance((-1, DP_MAX_RANGE - 1), DP_MAX_RANGE - 2)) == 0b11
    assert dp_solve(Instance((-1, DP_MAX_RANGE - 1), 5)) is None
    with pytest.raises(CapExceededError,
                       match=f"^sum range {DP_MAX_RANGE + 1} exceeds the DP cap {DP_MAX_RANGE}$"):
        dp_solve(Instance((-1, DP_MAX_RANGE), 5))


def test_dp_walk_back_refuses_elements_that_change_under_it():
    # dp builds its table by iterating the elements and walks back by
    # indexing them. Indexing here reads each element one too high, so
    # taking -1 (read as 0), then -2 (read as -1) leaves -3 - 0 - (-1) = -2.
    class Lying(tuple):
        def __getitem__(self, index):
            return tuple.__getitem__(self, index) + 1

    inst = Instance((-2, -1), -3)
    object.__setattr__(inst, "elements", Lying(inst.elements))
    with pytest.raises(RuntimeError,
                       match=r"^dp walk-back left -2 of the target unmatched$"):
        dp_solve(inst)


# -- cross-solver properties -----------------------------------------------

def test_three_way_agreement_exhaustive_tiny():
    import itertools
    for n in range(0, 4):
        for elements in itertools.product(range(-4, 5), repeat=n):
            for target in range(-4, 5):
                inst = Instance(elements, target)
                brute = brute_force_solve(inst)
                mitm = mitm_solve(inst)
                dp_mask = dp_solve(inst)
                assert brute.found == mitm.found == (dp_mask is not None)
                for mask in (brute.solution, mitm.solution, dp_mask):
                    if mask is not None:
                        assert verify(inst, mask)


@given(small_instances(max_n=8))
@settings(max_examples=300)
def test_three_way_oracle_agreement(inst):
    expected = oracle_solvable(inst.elements, inst.target)
    brute = brute_force_solve(inst)
    mitm = mitm_solve(inst)
    dp_mask = dp_solve(inst)
    assert brute.found == expected
    assert mitm.found == expected
    assert (dp_mask is not None) == expected
    for mask in (brute.solution, mitm.solution, dp_mask):
        if mask is not None:
            assert verify(inst, mask)


@given(small_instances())
def test_counters_identical_across_modes(inst):
    for solver in (brute_force_solve, mitm_solve):
        plain = ComparisonLedger()
        traced = ComparisonLedger([])
        res_plain = solver(inst, plain)
        res_traced = solver(inst, traced)
        assert res_plain == res_traced
        assert (plain.compare_count, plain.peak_sorted_len, plain.elementary_ops) == \
               (traced.compare_count, traced.peak_sorted_len, traced.elementary_ops)
        assert sum(isinstance(e, CompareEvent) for e in traced.trace) == traced.compare_count


@given(small_instances())
def test_deterministic_repeat_runs(inst):
    assert brute_force_solve(inst) == brute_force_solve(inst)
    assert mitm_solve(inst) == mitm_solve(inst)


@given(small_instances(max_n=12))
def test_solver_traces_pass_witness_check(inst):
    for solver in (brute_force_solve, mitm_solve):
        led = ComparisonLedger([])
        solver(inst, led)
        # Only mitm's trace opens with a LIST record, which selects the split rule.
        assert isinstance(led.trace[0], SortedListEvent) == (solver is mitm_solve)
        assert solution_witness_check(led.trace, inst)


# -- counting by construction ----------------------------------------------

def test_golden_traces():
    # Both traces hold LT, GT and EQ outcomes; the texts pin event order.
    inst = Instance((6, 5, -3, 2, 4), 5)
    brute = ComparisonLedger([])
    assert brute_force_solve(inst, brute).solution == 0b10
    assert dump_trace(brute.trace) == (
        "CMP 0 5 LT\n"
        "CMP 6 5 GT\n"
        "CMP 5 5 EQ\n"
        "EMIT 2\n")
    mitm = ComparisonLedger([])
    assert mitm_solve(inst, mitm).solution == 0b1101
    assert dump_trace(mitm.trace) == (
        "LIST 8\n"
        "LIST 4\n"
        "CMP -3 -1 LT\n"
        "CMP 0 -1 GT\n"
        "CMP 0 1 LT\n"
        "CMP 2 1 GT\n"
        "CMP 2 3 LT\n"
        "CMP 3 3 EQ\n"
        "EMIT d\n")
    # Ties everywhere and a hit in the fourth block of 2^10 masks, with LT,
    # GT and EQ outcomes; the digest was taken from the per-mask walk.
    wide = Instance((0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 3, -2, -3), 2)
    blocks = ComparisonLedger([])
    assert brute_force_solve(wide, blocks).solution == 0b111000000000
    assert hashlib.sha256(dump_trace(blocks.trace).encode()).hexdigest() == (
        "b5b4ab9b41ffc49972fcee7e44ddebaab153b9c0a56a4f3628ef9ab26df6662a")


def test_behaviour_digest():
    # sha256 over masks, C/M/T, trace dumps and witness verdicts of both
    # solvers with and without a trace, on fixed instances with ties
    # (n <= 12, elements in [-6, 6], planted and free targets). Any
    # behaviour change moves it.
    digest = hashlib.sha256()
    for k in range(1000):
        rng = SplitMix64(derive_seed(2006, k))
        n = rng.next_below(13)
        elements = tuple(rng.next_in_range(-6, 6) for _ in range(n))
        if rng.next_below(2):
            mask = rng.next_below(1 << n)
            target = sum(a for i, a in enumerate(elements) if mask >> i & 1)
        else:
            target = rng.next_in_range(-6 * n, 6 * n)
        inst = Instance(elements, target)
        for solver in (brute_force_solve, mitm_solve):
            for traced in (False, True):
                led = ComparisonLedger([] if traced else None)
                res = solver(inst, led)
                digest.update(repr((res.solution, res.compare_count,
                                    res.peak_sorted_len, res.elementary_ops)).encode())
                if led.trace is not None:
                    digest.update(dump_trace(led.trace).encode())
                    verdict = solution_witness_check(led.trace, inst)
                    digest.update(repr(verdict).encode())
    assert digest.hexdigest() == (
        "8950b41eb04bb05da9f9867db4f96d47458d4b3bfc16384c24633322bb6f2886")


def _large_n_rows():
    with open(os.path.join(os.path.dirname(__file__), "data", "large_n_rows.csv"),
              newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("row", _large_n_rows(),
                         ids=lambda r: f"{r['algo']}-{r['family']}-n{r['n']}")
def test_large_n_behaviour_rows(row):
    # Mask and C/M/T past n = 12, where the digest above stops: mitm halves
    # of 7 to 17 elements (recovery walks several blocks) and brute walks of
    # 2^1 to 2^10 blocks. Rows with n <= 16 also pin the trace bytes,
    # EMIT included; a trace lists one event per mask in ascending order
    # whatever the block size, so the block size is free.
    inst, _ = generate(GeneratorSpec(row["family"], int(row["n"]), int(row["seed"] or 0)))
    solver = mitm_solve if row["algo"] == "mitm" else brute_force_solve
    expected = (row["mask"], int(row["C"]), int(row["M"]), int(row["T"]))
    ledgers = [ComparisonLedger()]
    if row["trace_sha256"]:
        ledgers.append(ComparisonLedger([]))
    for led in ledgers:
        res = solver(inst, led)
        mask = "-" if res.solution is None else f"{res.solution:x}"
        assert (mask, res.compare_count, res.peak_sorted_len,
                res.elementary_ops) == expected
    if row["trace_sha256"]:
        assert hashlib.sha256(dump_trace(led.trace).encode()).hexdigest() == (
            row["trace_sha256"])


def test_powers2_closed_forms():
    # The paper's growth claims, exact: powers2 is unsolvable with distinct
    # sums, so brute visits all 2^n masks holding no list, and mitm's scan
    # passes every front sum (each is below every target - back sum).
    for n in range(21):
        res = brute_force_solve(gen_powers_of_two(n))
        assert (res.solution, res.compare_count, res.peak_sorted_len,
                res.elementary_ops) == (None, 2 ** n, 1, 2 ** (n + 1)), n
    for n in range(35):
        a, b = 2 ** ((n + 1) // 2), 2 ** (n // 2)
        res = mitm_solve(gen_powers_of_two(n))
        # T: generation and list building charge each entry once apiece,
        # then each list is charged as a sort.
        assert (res.solution, res.compare_count, res.peak_sorted_len,
                res.elementary_ops) == (
            None, a, a, a + 2 * (a + b) + sort_charge(a) + sort_charge(b)), n


class CallCountingLedger(ComparisonLedger):
    """A ledger that counts every call made to its methods."""

    def __init__(self, trace=None):
        super().__init__(trace)
        self.calls = 0

    def __getattribute__(self, name):
        attr = super().__getattribute__(name)
        if name.startswith("_") or not inspect.ismethod(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)
        return counted


@pytest.mark.parametrize("solver", [brute_force_solve, mitm_solve])
def test_ledger_calls_constant_in_n(solver):
    # Each phase is one ledger call, traced or not: brute's whole walk is one
    # lowest_mask call. The trace holds exactly C CompareEvents.
    for traced in (False, True):
        calls = []
        for n in (8, 16):
            inst = gen_powers_of_two(n)
            led = CallCountingLedger([] if traced else None)
            assert solver(inst, led) == solver(inst)
            if traced:
                compares = [e for e in led.trace if type(e) is CompareEvent]
                assert len(compares) == led.compare_count
            calls.append(led.calls)
        assert calls[0] == calls[1], traced


class ExtendOnlyTrace(list):
    """A trace list that refuses append: a ledger must hand it runs."""

    def append(self, event):
        raise AssertionError(f"append({event!r}) on a trace")


@pytest.mark.parametrize("solver", [brute_force_solve, mitm_solve])
def test_ledger_hands_its_trace_every_event_through_extend(solver):
    # A planted instance, so the trace holds LIST records (mitm), brute's
    # hit and its EMIT record as well as misses.
    inst, _ = gen_planted(12, 1, 5)
    plain, extend_only = ComparisonLedger([]), ComparisonLedger(ExtendOnlyTrace())
    assert solver(inst, extend_only) == solver(inst, plain)
    assert list(extend_only.trace) == plain.trace
    assert any(type(event) is EmitEvent for event in plain.trace)


@pytest.mark.parametrize("solve", [brute_force_solve, mitm_solve])
def test_result_refuses_a_mask_that_misses_the_target(monkeypatch, solve):
    # A recovery that returns the empty mask on a nonzero target must raise.
    monkeypatch.setattr(subsum.ledger.ComparisonLedger, "lowest_mask", lambda *args: 0)
    with pytest.raises(RuntimeError,
                       match=r"^solver produced mask 0x0, which misses the target$"):
        solve(Instance((1, 2), 3))


def test_result_check_survives_optimize_flag():
    # Under -O every assert is stripped; a solvable run whose mask fails
    # verification must still raise.
    script = (
        "import subsum.solvers as s\n"
        "from subsum import Instance\n"
        "assert False, 'asserts are live'\n"
        "s.verify = lambda instance, mask: False\n"
        "try:\n"
        "    s.brute_force_solve(Instance((1, 2), 2))\n"
        "except RuntimeError:\n"
        "    print('raised')\n"
    )
    src = os.path.dirname(os.path.dirname(subsum.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\n"
