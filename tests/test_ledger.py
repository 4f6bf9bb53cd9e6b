"""Ledger counting, traces, witness checking, and tradeoff checks."""

import ast
import contextlib
import gc
import inspect
import os
import sys
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import compare_event
import subsum
from subsum import (ComparisonLedger, CompareEvent, EmitEvent,
                    GeneratorSpec, Instance, Ordering, SortedListEvent,
                    TraceError, brute_force_solve, dump_trace, gen_planted,
                    gen_powers_of_two, gen_random_wide, generate, ledger,
                    mitm_solve, parse_trace, solution_witness_check)
from subsum.ledger import _parse_lines, sort_charge


def test_compare_outcomes_and_counts():
    # Masks 0, 1, 2 of (3, 9) sum to 0, 3, 9 against 9, and of (10, -3) to
    # 0, 10, -3 against -3. Each visited mask is one comparison and one
    # generated sum.
    for elements, total, codes in [((3, 9), 9, "LT LT EQ"), ((10, -3), -3, "GT GT EQ")]:
        led = ComparisonLedger([])
        assert led.lowest_mask(elements, total) == 2
        assert [event.outcome.value for event in led.trace] == codes.split()
        assert (led.compare_count, led.elementary_ops) == (3, 6)


def test_compare_huge_operands():
    led = ComparisonLedger([])
    assert led.lowest_mask((10 ** 50,), 10 ** 50 + 1) is None
    assert led.trace == [CompareEvent(0, 10 ** 50 + 1, Ordering.LT),
                         CompareEvent(10 ** 50, 10 ** 50 + 1, Ordering.LT)]


@given(st.lists(st.integers(), max_size=6), st.integers())
def test_compare_replay_consistency(elements, total):
    led = ComparisonLedger([])
    led.lowest_mask(tuple(elements), total)
    assert led.compare_count == len(led.trace)
    assert led.compare_count <= led.elementary_ops
    for event in led.trace:
        assert event == compare_event(event.lhs, event.rhs)


def test_peak_tracks_max():
    led = ComparisonLedger()
    led.sorted_sums((1, 2))
    led.sorted_sums((1,))
    assert led.peak_sorted_len == 4


def test_peak_floor_is_one():
    assert ComparisonLedger().peak_sorted_len == 1
    led = ComparisonLedger()
    assert led.sorted_sums(()) == [0]
    led.lowest_mask((1, 2), 5)
    assert led.peak_sorted_len == 1


def test_peak_with_repeats():
    led = ComparisonLedger()
    for elements in ((1,), (1, 2, 4), (4, 2, 1)):
        led.sorted_sums(elements)
    assert led.peak_sorted_len == 8


def test_sorted_list_charges_at_least_length():
    # 4 sums generated, then built and sorted: 4 + 4 + sort_charge(4).
    led = ComparisonLedger()
    assert led.sorted_sums((2, -1), base=10) == [9, 10, 11, 12]
    assert led.elementary_ops == 2 * 4 + sort_charge(4) == 16
    assert led.compare_count == 0


def test_only_the_ledger_charges():
    # The charging model lives in ledger.py alone: no other module stores to
    # a counter, and solvers.py uses only the ledger methods that run a
    # phase, or emit, never one that is handed a count.
    counters = {"compare_count", "elementary_ops", "peak_sorted_len"}
    phases = {"sorted_sums", "lowest_mask", "scan", "emit"}
    methods = {name for name, value in vars(ComparisonLedger).items()
               if callable(value) and not name.startswith("_")}
    assert not [name for name in methods if name.startswith(("charge_", "record_"))]
    package = os.path.dirname(subsum.__file__)
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if name != "ledger.py" and isinstance(node.ctx, ast.Store) and node.attr in counters:
                found.append(f"{name}:{node.lineno} stores .{node.attr}")
            if name == "solvers.py" and node.attr in methods - phases:
                found.append(f"{name}:{node.lineno} uses .{node.attr}")
    assert found == []


def test_sort_charge_values():
    assert sort_charge(0) == 0
    assert sort_charge(1) == 0
    assert sort_charge(2) == 2
    assert sort_charge(5) == 12  # ceil(5 * log2(5)) = ceil(11.6096)
    assert sort_charge(32) == 160
    assert sort_charge(1 << 16) == 16 << 16


def test_generation_charge():
    # Masks 0..7 of (1, 2, 4) are visited, the last one a hit: T - C counts
    # the 8 generated sums.
    led = ComparisonLedger()
    assert led.lowest_mask((1, 2, 4), 7) == 7
    assert led.elementary_ops - led.compare_count == 8
    assert led.compare_count == 8


def test_bulk_charge_and_trace_only_record():
    # Blocks of 2 masks: three runs of misses, then the last block's miss
    # and its hit. Every run reaches the trace before the walk is charged.
    runs = []
    led = ComparisonLedger(SimpleNamespace(extend=lambda run: runs.append(
        (list(run), led.compare_count, led.elementary_ops))))
    with mock.patch.object(ledger, "BRUTE_BLOCK_BITS", 1):
        assert led.lowest_mask((1, 2, 4), 7) == 7
    assert [len(events) for events, _, _ in runs] == [2, 2, 2, 1, 1]
    assert {(c, t) for _, c, t in runs} == {(0, 0)}
    assert runs[-1][0] == [CompareEvent(7, 7, Ordering.EQ)]
    assert (led.compare_count, led.elementary_ops) == (8, 16)


def test_counters_only_has_no_trace():
    led = ComparisonLedger()
    led.lowest_mask((1,), 2)
    led.scan(led.sorted_sums((1,)), [1])
    led.emit(0)
    assert led.trace is None


def test_trace_event_order():
    led = ComparisonLedger([])
    led.sorted_sums((3,))
    led.lowest_mask((3,), 3)
    led.emit(1)
    assert led.trace == [SortedListEvent(2), CompareEvent(0, 3, Ordering.LT),
                         CompareEvent(3, 3, Ordering.EQ), EmitEvent(1)]


def test_dump_trace_exact_format():
    trace = [CompareEvent(10, -3, Ordering.GT), SortedListEvent(4),
             CompareEvent(7, 7, Ordering.EQ), EmitEvent(26)]
    assert dump_trace(trace) == "CMP 10 -3 GT\nLIST 4\nCMP 7 7 EQ\nEMIT 1a\n"


def test_dump_parse_round_trip():
    trace = [SortedListEvent(8), CompareEvent(-5, 12, Ordering.LT),
             CompareEvent(0, 0, Ordering.EQ), EmitEvent(0)]
    assert parse_trace(dump_trace(trace)) == trace


def test_parse_trace_rejects_garbage():
    # After a CMP record, " 1 2 LT" splits on " " into a run of tokens that
    # differs from a valid one only in the outcome token before it.
    for first in ["LIST 1", "CMP 0 1 LT"]:
        for line in ["CMP 1 2", "WAT 1", "CMP 1_0 +3 EQ junk", "CMP \u0661 2 EQ",
                     "LIST +4", "CMP 1 2 eq", " 1 2 LT", "CMP 5-3 2 LT"]:
            with pytest.raises(TraceError, match="line 2"):
                parse_trace(first + "\n" + line + "\n")


def _reference_scan(lo, hi):
    """The two-pointer walk, one plain comparison per step: (common value, events)."""
    events = []
    i = j = 0
    while i < len(lo) and j < len(hi):
        events.append(compare_event(lo[i], hi[j]))
        outcome = events[-1].outcome
        if outcome is Ordering.EQ:
            return lo[i], events
        i, j = (i + 1, j) if outcome is Ordering.LT else (i, j + 1)
    return None, events


@pytest.mark.parametrize("lo, hi", [
    ([1, 4, 6, 9], [2, 3, 6, 8]),  # LT, GT, GT, LT, then EQ at step 5
    ([1, 2], [5, 7]),  # no hit: the front list runs out after 2 steps
    ([5, 7], [1, 2, 3]),  # no hit: the back list runs out after 3 steps
])
def test_scan_replays_the_two_pointer_walk(lo, hi):
    value, events = _reference_scan(lo, hi)
    runs = []
    led = ComparisonLedger(SimpleNamespace(extend=runs.append))
    assert led.scan(lo, hi) == value
    assert runs == [events]
    assert (led.compare_count, led.elementary_ops) == (len(events), len(events))


@pytest.mark.parametrize("trace", [None, []], ids=["counters_only", "traced"])
def test_scan_charges_the_steps_it_takes(trace):
    # The front list runs out after 2 comparisons. A ledger once charged
    # whatever count the solver handed it, so a counters-only one took 3 here.
    led = ComparisonLedger(trace)
    assert led.scan([1, 2], [5, 7]) is None
    assert (led.compare_count, led.elementary_ops) == (2, 2)


_ASCENDING = st.lists(st.integers(-8, 8), max_size=10).map(sorted)


@given(_ASCENDING, _ASCENDING)
@example([], [0])
@example([0], [])
@example([-3, -3, 2], [-3, 2])
def test_scan_counts_alike_with_and_without_a_trace(lo, hi):
    value, events = _reference_scan(lo, hi)
    plain, traced = ComparisonLedger(), ComparisonLedger([])
    assert plain.scan(lo, hi) == traced.scan(lo, hi) == value
    assert plain.trace is None and traced.trace == events
    assert ((plain.compare_count, plain.elementary_ops)
            == (traced.compare_count, traced.elementary_ops) == (len(events), len(events)))


_OPERANDS = st.one_of(st.integers(), st.integers(min_value=1 << 64, max_value=1 << 200),
                      st.integers(min_value=-(1 << 200), max_value=-(1 << 64)))


@given(st.lists(_OPERANDS, max_size=40), _OPERANDS)
@example([], 0)
@example([-7, 0, 1 << 64, (1 << 64) + 1, -(1 << 64)], (1 << 64) - 1)
def test_misses_run_renders_as_its_events(lhs, rhs):
    lhs = [x for x in lhs if x != rhs]
    run = ledger._Misses(lhs, rhs)
    events = list(run)
    assert events == [compare_event(x, rhs) for x in lhs]
    assert all(type(e) is CompareEvent for e in events)
    assert len(run) == len(events) == len(lhs)
    assert dump_trace(run) == dump_trace(events)


class PercentText(int):
    """An int whose text holds "%" conversions."""

    def __str__(self):
        return f"{int(self)}%d%s%%"


@given(st.lists(_OPERANDS, min_size=1, max_size=40), _OPERANDS)
def test_misses_run_escapes_a_percent_in_its_rhs_text(lhs, rhs):
    # The run renders its block with one %-format, so a "%" in the rhs text
    # must reach the line as it is, as it does through the events.
    rhs = PercentText(rhs)
    lhs = [x for x in lhs if x != rhs] or [rhs + 1]
    run = ledger._Misses(lhs, rhs)
    text = dump_trace(run)
    assert text == dump_trace(list(run))
    assert f" {int(rhs)}%d%s%% " in text


class CompareSubclass(CompareEvent):
    pass


class ListSubclass(SortedListEvent):
    pass


class EmitSubclass(EmitEvent):
    pass


def test_dump_trace_handles_event_subclasses_and_unknowns():
    trace = [CompareEvent(1, 2, Ordering.LT), CompareSubclass(5, 5, Ordering.EQ),
             ListSubclass(4), EmitSubclass(3)]
    assert dump_trace(trace) == "CMP 1 2 LT\nCMP 5 5 EQ\nLIST 4\nEMIT 3\n"
    with pytest.raises(TraceError, match="unknown event"):
        dump_trace([SortedListEvent(1), (1, 2)])


# Chunk sizes small enough that records straddle chunk boundaries.
CHUNK_SIZES = st.sampled_from([1, 7, 40, 1 << 15])

record_lines = st.one_of(
    st.builds("CMP {} {} {}".format, st.integers(-10 ** 25, 10 ** 25),
              st.integers(-10 ** 25, 10 ** 25), st.sampled_from(["EQ", "LT", "GT"])),
    st.builds("LIST {}".format, st.integers(0, 10 ** 6)),
    st.builds("EMIT {:x}".format, st.integers(0, 1 << 70)),
)
odd_lines = st.sampled_from([
    "", " ", "\t", "CMP 1 2", "CMP 1 2 EQ ", " LIST 3", "EMIT 1A", "LIST -1",
    "CMP 1_0 2 LT", "CMP +1 2 GT", "CMP \u0661 2 EQ", "CMP 1  2 EQ", "LIST 0x1",
    # Made only of "-" and digits, yet not decimal integers.
    "CMP 5-3 2 LT", "CMP - 2 LT", "CMP --5 2 GT", "CMP 1 2- EQ",
    # Records glued together, or split on " " into a bare outcome token.
    "CMP 1 2 LTCMP 3 4 GT", " 1 2 LT",
])
separators = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x0c",
                              "\x1c", "\x85", "\u2028"])


@st.composite
def trace_texts(draw):
    lines = draw(st.lists(st.one_of(record_lines, record_lines, odd_lines), max_size=30))
    parts = [line + draw(separators) for line in lines]
    if parts and draw(st.booleans()):
        parts[-1] = lines[-1]  # no final line break
    return "".join(parts)


def parse_outcome(parse, text):
    # Types too: SortedListEvent(k) == EmitEvent(k), as tuples.
    try:
        return [(type(event), event) for event in parse(text)]
    except TraceError as exc:
        return str(exc)


@settings(max_examples=300)
@given(trace_texts(), CHUNK_SIZES)
@example("CMP", 1 << 15)
@example("LIST 1\nCMP", 1)
def test_parse_trace_matches_per_line_parser(text, chunk):
    with mock.patch.object(ledger, "_CHUNK_CHARS", chunk):
        assert parse_outcome(parse_trace, text) == parse_outcome(_parse_lines, text)


@pytest.mark.parametrize("chunk", [1, 40, 1 << 15])
def test_parse_trace_digit_limit_names_its_line(chunk):
    lines = [f"CMP {i} 500 LT" for i in range(3000)]
    lines[2500] = f"CMP {'7' * 5000} 500 GT"
    text = "".join(line + "\n" for line in lines)
    with mock.patch.object(ledger, "_CHUNK_CHARS", chunk):
        with pytest.raises(TraceError, match="^line 2501: .*limit") as caught:
            parse_trace(text)
    with pytest.raises(TraceError) as expected:
        _parse_lines(text)
    assert str(caught.value) == str(expected.value)


@pytest.mark.parametrize("chunk", [1, 40, 1 << 15])
def test_parse_trace_list_digit_limit_names_its_line(chunk):
    # The LIST record sits among CMP records, after chunks decoded in bulk,
    # so its line must be numbered from the start of the text.
    lines = [f"CMP {i} 500 LT" for i in range(3000)]
    lines[2500] = f"LIST {'7' * 5000}"
    text = "".join(line + "\n" for line in lines)
    with mock.patch.object(ledger, "_CHUNK_CHARS", chunk):
        with pytest.raises(TraceError, match="^line 2501: .*limit") as caught:
            parse_trace(text)
    with pytest.raises(TraceError) as expected:
        _parse_lines(text)
    assert str(caught.value) == str(expected.value)


# rhs texts for runs that share one rhs: canonical decimals, texts equal
# in value to another ("07" and "7", "-0" and "0"), and texts int() takes
# but the format does not ("1_0", "+7", a full-width 7).
shared_rhs_texts = st.one_of(
    st.integers(-10 ** 25, 10 ** 25).map(str),
    st.sampled_from(["7", "07", "0", "-0", "00", "1_0", "+7", "\uff17", "-", ""]),
)


@st.composite
def single_rhs_runs(draw):
    """CMP records that share one rhs text, the last one's rhs maybe not."""
    rhs = draw(shared_rhs_texts)
    lhs = draw(st.lists(st.integers(-10 ** 25, 10 ** 25), min_size=1, max_size=40))
    rhs_texts = [rhs] * len(lhs)
    if draw(st.booleans()):
        rhs_texts[-1] = draw(shared_rhs_texts)
    codes = draw(st.lists(st.sampled_from(["EQ", "LT", "GT"]),
                          min_size=len(lhs), max_size=len(lhs)))
    return "".join(f"CMP {x} {r} {code}\n" for x, r, code in zip(lhs, rhs_texts, codes))


@settings(max_examples=300)
@given(single_rhs_runs(), CHUNK_SIZES)
@example("CMP 1 7 LT\nCMP 9 07 GT\n", 1 << 15)
@example("CMP 1 0 GT\nCMP -1 -0 LT\n", 1 << 15)
@example("CMP 1 07 LT\nCMP 9 07 GT\n", 1 << 15)
@example("CMP 1 -0 GT\nCMP 2 -0 GT\n", 1 << 15)
def test_single_rhs_runs_match_per_line_parser(text, chunk):
    # A run whose rhs texts are all one text converts that text once.
    with mock.patch.object(ledger, "_CHUNK_CHARS", chunk):
        assert parse_outcome(parse_trace, text) == parse_outcome(_parse_lines, text)
    # The bulk decoder itself, before parse_trace's per-line fallback. On a
    # run against one rhs text it must refuse what the per-line parser
    # refuses, and agree on the rest; a run with two rhs texts it refuses.
    if len({line.split(" ")[2] for line in text.splitlines()}) > 1:
        with pytest.raises(ValueError):
            ledger._decode_compares(text)
        return
    expected = parse_outcome(_parse_lines, text)
    try:
        decoded = [(type(event), event) for event in ledger._decode_compares(text)]
    except (KeyError, ValueError):
        assert isinstance(expected, str)
    else:
        assert decoded == expected


# lhs texts that the format takes and JSON refuses ("07", "00", "-07"),
# that both take ("-0"), that JSON takes and the format refuses ("1e5",
# "1.5"), that neither takes, and one past the digit limit.
strict_lhs_texts = st.one_of(
    st.integers(-10 ** 25, 10 ** 25).map(str),
    st.sampled_from(["07", "00", "-0", "-07", "1,2", ",5", "5,", "", "1e5", "1.5",
                     "-", "\uff17", "7" * 5000]),
)


@st.composite
def strict_lhs_runs(draw):
    """CMP records against one rhs text, with lhs texts JSON may refuse."""
    rhs = draw(st.integers(-10 ** 25, 10 ** 25))
    lhs = draw(st.lists(strict_lhs_texts, min_size=1, max_size=40))
    codes = draw(st.lists(st.sampled_from(["EQ", "LT", "GT"]),
                          min_size=len(lhs), max_size=len(lhs)))
    return "".join(f"CMP {x} {rhs} {code}\n" for x, code in zip(lhs, codes))


@settings(max_examples=300)
@given(strict_lhs_runs(), CHUNK_SIZES)
@example("CMP 07 5 LT\nCMP -0 5 LT\n", 1 << 15)
@example("CMP 1,2 5 LT\n", 1)
def test_bulk_decoder_refusals_match_per_line_parser(text, chunk):
    # The bulk decoder reads lhs texts as JSON, whose grammar is stricter
    # than the format's, so what it refuses is read per line.
    expected = parse_outcome(_parse_lines, text)
    with mock.patch.object(ledger, "_CHUNK_CHARS", chunk):
        assert parse_outcome(parse_trace, text) == expected
    try:
        decoded = [(type(event), event) for event in ledger._decode_compares(text)]
    except (KeyError, ValueError):
        return
    assert decoded == expected


@pytest.mark.parametrize("text", [
    "CMP 1,2 5 LT\n", "CMP 3 5 LT\nCMP 1,2 5 GT\n", "CMP 1,2,3 5 LT\nCMP 4 5 GT\n"])
def test_bulk_decoder_refuses_a_comma_inside_an_lhs(text):
    # Joined with commas, the lhs texts decode to one int too many.
    with pytest.raises(ValueError, match="comma"):
        ledger._decode_compares(text)
    assert isinstance(parse_outcome(parse_trace, text), str)


@pytest.mark.parametrize("rhs", ["1_0", "+7", "\uff17"])
@pytest.mark.parametrize("chunk", [1, 40, 1 << 15])
def test_parse_trace_names_the_line_of_a_malformed_single_rhs(rhs, chunk):
    # int() accepts each rhs; at chunk size 1 every chunk is one record, so
    # the odd record's chunk has that rhs alone.
    lines = [f"CMP {i} 500 LT" for i in range(3000)]
    lines[2500:] = [f"CMP {i} {rhs} GT" for i in range(2500, 3000)]
    text = "".join(line + "\n" for line in lines)
    with mock.patch.object(ledger, "_CHUNK_CHARS", chunk):
        with pytest.raises(TraceError, match="^line 2501: malformed record 'CMP 2500 "):
            parse_trace(text)


@pytest.fixture(scope="module")
def real_dumps():
    dumps = []
    for solve, n in [(brute_force_solve, 14), (mitm_solve, 24)]:
        inst, _ = gen_planted(n, 1, n - 1)
        led = ComparisonLedger([])
        solve(inst, led)
        dumps.append(dump_trace(led.trace))
    return dumps


def test_parse_trace_sends_only_a_brute_dumps_emit_line_per_line(monkeypatch, real_dumps):
    # Every chunk before the last line is plain CMP records, so only the
    # closing EMIT record reaches the per-line parser.
    text = real_dumps[0]
    assert len(text) > 3 * ledger._CHUNK_CHARS
    calls = []

    def per_line(chunk):
        calls.append(chunk)
        return _parse_lines(chunk)
    monkeypatch.setattr(ledger, "_parse_lines", per_line)
    events = parse_trace(text)
    lines = text.splitlines(keepends=True)
    assert calls == [lines[-1]]
    assert lines[-1].startswith("EMIT ")
    assert events == _parse_lines(text)


def test_parse_trace_reads_a_mitm_dump_whole_per_line(monkeypatch, real_dumps):
    # A mitm dump opens with its two LIST records, which the bulk decoder
    # refuses, so the per-line parser reads the whole text, once. That holds
    # for the planted n = 24 seed 3 dump, as CI writes it, whose rhs changes
    # every few records, and for the fixture's dump, whose middle chunks
    # share one back sum.
    inst, _ = generate(GeneratorSpec("planted", 24, 3))
    led = ComparisonLedger([])
    mitm_solve(inst, led)
    calls = []

    def per_line(text):
        calls.append(text)
        return _parse_lines(text)
    monkeypatch.setattr(ledger, "_parse_lines", per_line)
    for text in [dump_trace(led.trace), real_dumps[1]]:
        assert len(text) > 3 * ledger._CHUNK_CHARS
        assert text.startswith("LIST ")
        calls.clear()
        events = parse_trace(text)
        assert calls == [text]
        assert events == _parse_lines(text)


def test_parse_trace_drops_refused_events_before_the_per_line_parse(
        monkeypatch, real_dumps):
    # A "\r\n" that ends the last CMP record makes the bulk decoder refuse
    # the last chunk, after every chunk before it was decoded. Those runs
    # are dropped: the per-line parser's events are the parse's one run,
    # and its peak is that parser's own, not that plus a near-whole trace.
    text = real_dumps[0]
    at = text.rindex("\n", 0, len(text) - 1)
    text = text[:at] + "\r\n" + text[at + 1:]
    calls = []

    def per_line(whole):
        calls.append((whole, _parse_lines(whole)))
        return calls[-1][1]
    with monkeypatch.context() as patch:
        patch.setattr(ledger, "_parse_lines", per_line)
        events = parse_trace(text)
    [run] = events._runs
    assert [whole for whole, _ in calls] == [text] and run is calls[0][1]
    del events, calls, run
    peaks = []
    for parse in (parse_trace, _parse_lines):
        tracemalloc.start()
        try:
            parse(text)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 1.1 * peaks[1], (
        f"parse_trace peaked at {peaks[0]} B, the per-line parser at {peaks[1]} B")


@pytest.mark.parametrize("splice, later", [
    ("\r\n", None), ("\n\n", None), ("\n \t\n", None), ("\nCMP 1 2\n", None),
    ("\nLIST -1\n", None), (f"\nCMP {'9' * 5000} 1 GT\n", None),
    ("\r", "\nCMP 1 2\n"), ("\x0b", "\nCMP 1 2\n"), ("\n\n", "\nCMP 1 2\n"),
], ids=["crlf", "blank", "whitespace", "short_cmp", "negative_list", "digit_limit",
        "cr_then_short_cmp", "vt_then_short_cmp", "blank_then_short_cmp"])
def test_parse_trace_matches_per_line_parser_on_real_dumps(real_dumps, splice, later):
    # One odd line in a middle chunk, at the default chunk size, after chunks
    # that may be bulk-decoded: parse_trace must drop them and read the whole
    # text per line. A later splice, two chunks on, is a malformed line whose
    # number counts every line before it.
    for text in real_dumps:
        assert len(text) > 3 * ledger._CHUNK_CHARS
        at = text.index("\n", len(text) // 2)
        if later is not None:
            end = text.index("\n", at + 2 * ledger._CHUNK_CHARS)
            text = text[:end] + later + text[end + 1:]
        spliced = text[:at] + splice + text[at + 1:]
        assert parse_outcome(parse_trace, spliced) == parse_outcome(_parse_lines, spliced)


def test_parse_trace_is_a_read_only_sequence_built_on_read(real_dumps):
    # A brute dump parses to many column runs and a per-line run; each
    # event is built from its run when read, at any index from either end.
    text = real_dumps[0]
    expected = _parse_lines(text)
    parsed = parse_trace(text)
    n = len(expected)
    assert len(parsed) == n > 14000 and len(parsed._runs) > 3

    def typed(events):
        return [(type(event), event) for event in events]
    assert typed([parsed[i] for i in range(-n, n)]) == typed(expected + expected)
    assert typed(parsed) == typed(expected)
    for past in (n, -n - 1):
        with pytest.raises(IndexError):
            parsed[past]
    for cut in (slice(3), slice(-3, None, 2), slice(None, None, -4096)):
        assert type(parsed[cut]) is list and parsed[cut] == expected[cut]
    assert parsed == expected and expected == parsed
    assert parsed == parse_trace(text) and not parsed != parse_trace(text)
    # One outcome differs, in a middle chunk.
    at = text.index(" LT\n", len(text) // 2)
    other = parse_trace(text[:at] + " GT\n" + text[at + 4:])
    assert parsed != other and other != expected and expected != other
    assert parsed != expected[:-1] and parsed != tuple(expected)
    with pytest.raises(TypeError):
        hash(parsed)
    assert not hasattr(parsed, "append")


events = st.one_of(
    st.builds(CompareEvent, st.integers(-(1 << 80), 1 << 80),
              st.integers(-(1 << 80), 1 << 80), st.sampled_from(Ordering)),
    st.builds(SortedListEvent, st.integers(0, 1 << 70)),
    st.builds(EmitEvent, st.integers(0, 1 << 90)),
)


@given(st.lists(events, max_size=30), st.lists(events, max_size=30))
def test_dump_trace_concatenates(head, tail):
    # The CLI renders a trace a batch of events at a time and joins the text.
    assert dump_trace(head + tail) == dump_trace(head) + dump_trace(tail)


@given(st.lists(events, max_size=60), CHUNK_SIZES)
def test_dump_parse_round_trip_random(trace, chunk):
    text = dump_trace(trace)
    with mock.patch.object(ledger, "_CHUNK_CHARS", chunk):
        parsed = parse_trace(text)
    assert parsed == trace
    assert [type(e) for e in parsed] == [type(e) for e in trace]


def test_parse_trace_memory_bounded_on_brute_dump():
    # About 16k lines, whose events would take about 109 B each. Decoding a
    # chunk at a time holds the split tokens of one chunk only, not of the
    # whole text, and the parse holds each record as an lhs int and an
    # outcome reference in its run's columns, not as an event.
    for seed in (1, 2):
        inst, _ = gen_planted(14, seed, 13)
        led = ComparisonLedger([])
        brute_force_solve(inst, led)
        text = dump_trace(led.trace)
        assert len(led.trace) > 14000
        del led
        tracemalloc.start()
        try:
            parsed = parse_trace(text)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(parsed) > 14000
        assert peak < 1_500_000, f"parse_trace peaked at {peak} B"
        assert held < 60 * len(parsed), f"parse_trace holds {held} B"


# -- cyclic collector pause ------------------------------------------------

@pytest.fixture
def collector_on():
    """Enable the cyclic collector for the test, then restore the state found."""
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


@contextlib.contextmanager
def _collections(probe):
    """Within the block, append probe() to the yielded list as each collection starts."""
    seen = []

    def callback(phase, info):
        if phase == "start":
            seen.append(probe())
    gc.callbacks.append(callback)
    try:
        yield seen
    finally:
        gc.callbacks.remove(callback)


def _brute_dump(n=14):
    led = ComparisonLedger([])
    brute_force_solve(gen_powers_of_two(n), led)
    assert len(led.trace) == 1 << n
    return dump_trace(led.trace)


def test_parse_trace_runs_no_collection(collector_on):
    # 2^14 event tuples: unpaused, the allocations trigger about 23 gen-0
    # passes, each re-traversing every event parsed so far.
    text = _brute_dump()
    parse_code = inspect.unwrap(parse_trace).__code__

    def inside_parse():
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not parse_code:
            frame = frame.f_back
        return frame is not None
    with _collections(inside_parse) as seen:
        events = parse_trace(text)
    assert len(events) == 1 << 14
    assert True not in seen, f"{seen.count(True)} collections ran inside parse_trace"
    assert gc.isenabled()


def test_traced_brute_runs_no_collection_while_recording(collector_on):
    # A collection after the walk sees the whole trace; one during it would
    # see part of it.
    led = ComparisonLedger([])
    with _collections(lambda: len(led.trace)) as seen:
        brute_force_solve(gen_powers_of_two(14), led)
    assert len(led.trace) == 1 << 14
    partial = [k for k in seen if 0 < k < len(led.trace)]
    assert not partial, f"collections ran at trace lengths {partial}"
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_pause_restores_collector_state(collector_on, enabled):
    text = _brute_dump(10)
    (gc.enable if enabled else gc.disable)()
    parse_trace(text)
    assert gc.isenabled() is enabled
    for solve in (brute_force_solve, mitm_solve):
        solve(gen_planted(10, 1)[0], ComparisonLedger([]))
        assert gc.isenabled() is enabled
    with pytest.raises(TraceError, match="line 2"):
        parse_trace("LIST 1\nbogus\n")
    assert gc.isenabled() is enabled


class ThirdRunFails(list):
    """A trace list whose third extend raises."""

    runs = 0

    def extend(self, run):
        self.runs += 1
        if self.runs == 3:
            raise RuntimeError("third run failed")
        super().extend(run)


@pytest.mark.parametrize("enabled", [True, False])
def test_pause_restores_collector_when_solve_raises(collector_on, enabled):
    # Powers of two at n = 12 walk 4 blocks; the third block's misses raise.
    # mitm's third run, after its two LIST records, is its scan's.
    (gc.enable if enabled else gc.disable)()
    for solve in (brute_force_solve, mitm_solve):
        with pytest.raises(RuntimeError, match="third run failed"):
            solve(gen_powers_of_two(12), ComparisonLedger(ThirdRunFails()))
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("solve", [brute_force_solve, mitm_solve])
def test_only_traced_solves_touch_the_collector(collector_on, solve):
    inst = gen_random_wide(12, 1)
    with mock.patch.object(gc, "disable", wraps=gc.disable) as disable, \
            mock.patch.object(gc, "enable", wraps=gc.enable) as enable, \
            mock.patch.object(gc, "isenabled", wraps=gc.isenabled) as isenabled:
        solve(inst)
        solve(inst, ComparisonLedger())
        assert (disable.call_count, enable.call_count, isenabled.call_count) == (0, 0, 0)
        solve(inst, ComparisonLedger([]))
        assert disable.call_count == 1 and enable.call_count == 1


# -- witness checking ------------------------------------------------------

def test_witness_direct_hit():
    inst = Instance((9,), 9)
    trace = [CompareEvent(9, 9, Ordering.EQ), EmitEvent(0b1)]
    assert solution_witness_check(trace, inst)


def test_witness_missing_compare_fails():
    inst = Instance((9,), 9)
    trace = [EmitEvent(0b1)]
    assert not solution_witness_check(trace, inst)


def test_witness_vacuous_without_emit():
    inst = Instance((1, 2), 7)
    trace = [CompareEvent(1, 7, Ordering.LT), CompareEvent(3, 7, Ordering.LT)]
    assert solution_witness_check(trace, inst)


def test_witness_compare_after_emit_does_not_count():
    inst = Instance((9,), 9)
    trace = [EmitEvent(0b1), CompareEvent(9, 9, Ordering.EQ)]
    assert not solution_witness_check(trace, inst)


def test_witness_equal_compare_of_wrong_value_fails():
    inst = Instance((9, 5), 9)
    trace = [CompareEvent(5, 5, Ordering.EQ), EmitEvent(0b01)]
    assert not solution_witness_check(trace, inst)


def test_witness_split_encoding():
    # front sum 4 vs target 9 minus back sum 5: operands (4, 4)
    inst = Instance((4, 5), 9)
    lists = [SortedListEvent(2), SortedListEvent(2)]
    trace = [CompareEvent(4, 4, Ordering.EQ), EmitEvent(0b11)]
    assert solution_witness_check(lists + trace, inst)
    # under the direct rule those operands witness 4 = 4, not sum = 9
    assert not solution_witness_check(trace, inst)


def test_witness_split_rejects_forged_operands():
    # 999 = 999 is a true EQ, but not front sum vs target minus back sum.
    inst = Instance((4, 5), 9)
    lists = [SortedListEvent(2), SortedListEvent(2)]
    trace = [CompareEvent(999, 999, Ordering.EQ), EmitEvent(0b11)]
    assert not solution_witness_check(lists + trace, inst)
    # Equal operands that decode to a different split of the same total.
    inst = Instance((4, 5, 3, 2), 9)
    lists = [SortedListEvent(4), SortedListEvent(4)]
    trace = [CompareEvent(7, 7, Ordering.EQ), EmitEvent(0b0011)]
    assert not solution_witness_check(lists + trace, inst)
    trace = [CompareEvent(9, 9, Ordering.EQ), EmitEvent(0b0011)]
    assert solution_witness_check(lists + trace, inst)


def test_witness_rule_read_from_list_records():
    # Only mitm's trace opens with LIST records, and they select the split
    # rule. Either rule passes only an EQ whose operands split the emitted
    # mask's sum into the target, so adding or removing LIST records only
    # switches between the two rules.
    inst = Instance((4, 5), 9)
    brute = parse_trace("CMP 9 9 EQ\nEMIT 3\n")
    mitm = parse_trace("LIST 2\nLIST 2\nCMP 4 4 EQ\nEMIT 3\n")
    lists, compares = mitm[:2], mitm[2:]
    assert lists == [SortedListEvent(2), SortedListEvent(2)]
    assert solution_witness_check(brute, inst)
    assert not solution_witness_check(lists + list(brute), inst)
    assert solution_witness_check(mitm, inst)
    assert not solution_witness_check(compares, inst)
    # A subclass of SortedListEvent is a LIST record, as in dump_trace.
    assert solution_witness_check([ListSubclass(2)] + compares, inst)
    assert not solution_witness_check([ListSubclass(2)] + list(brute), inst)


def _edit_emit(text, mask_of):
    head, _, mask = text[:-1].rpartition("EMIT ")
    return f"{head}EMIT {mask_of(int(mask, 16)):x}\n"


@pytest.mark.parametrize("edit, verdict", [
    (lambda text: text, True),
    (lambda text: " LT\n".join(text.rsplit(" EQ\n", 1)), False),
    (lambda text: _edit_emit(text, lambda mask: mask ^ 1), False),
    (lambda text: _edit_emit(text, lambda mask: 1 << 30), "emitted mask invalid: "),
    (lambda text: text[:text.rindex("EMIT ")], True),
    (lambda text: text + text[text.rindex("EMIT "):], "trace contains more than one emission"),
], ids=["unedited", "eq_to_lt", "other_mask", "invalid_mask", "no_emit", "second_emit"])
def test_witness_verdict_on_a_parse_matches_its_list(real_dumps, edit, verdict):
    # The check looks for emissions only outside a parse's CMP columns; it
    # must reach the verdict, or the error, that it reaches on the events
    # as one list.
    def outcome(trace, inst):
        try:
            return solution_witness_check(trace, inst)
        except TraceError as exc:
            return str(exc)
    for text, n in zip(real_dumps, (14, 24)):
        inst, _ = gen_planted(n, 1, n - 1)
        parsed = parse_trace(edit(text))
        found = outcome(parsed, inst)
        assert found == outcome(list(parsed), inst)
        assert found is verdict if type(verdict) is bool else found.startswith(verdict)


def test_witness_direct_rejects_unrelated_earlier_eq():
    inst = Instance((9, 4), 9)
    trace = [CompareEvent(9, 9, Ordering.EQ), CompareEvent(4, 9, Ordering.LT),
             EmitEvent(0b01)]
    assert not solution_witness_check(trace, inst)
    trace = [CompareEvent(0, 9, Ordering.LT), CompareEvent(9, 9, Ordering.EQ),
             EmitEvent(0b01)]
    assert solution_witness_check(trace, inst)


def test_witness_rejects_eq_with_unequal_operands():
    inst = Instance((9, 4), 9)
    trace = [CompareEvent(4, 9, Ordering.EQ), EmitEvent(0b10)]
    assert not solution_witness_check(trace, inst)


def test_witness_rejects_invalid_emit_mask():
    inst = Instance((1,), 1)
    with pytest.raises(TraceError):
        solution_witness_check([EmitEvent(0b10)], inst)


def test_witness_rejects_multiple_emits():
    inst = Instance((1,), 1)
    trace = [CompareEvent(1, 1, Ordering.EQ), EmitEvent(1), EmitEvent(1)]
    with pytest.raises(TraceError):
        solution_witness_check(trace, inst)


def test_witness_checks_event_subclasses():
    inst = Instance((9, 4), 9)
    assert not solution_witness_check([EmitSubclass(0b01)], inst)
    trace = [CompareSubclass(9, 9, Ordering.EQ), EmitSubclass(0b01)]
    assert solution_witness_check(trace, inst)
    assert solution_witness_check(iter(trace), inst)
    with pytest.raises(TraceError, match="more than one emission"):
        solution_witness_check(trace + [EmitSubclass(0b01)], inst)
    with pytest.raises(TraceError, match="mask invalid"):
        solution_witness_check([EmitSubclass(0b100)], inst)


def test_parse_trace_quotes_a_long_malformed_record_bounded():
    with pytest.raises(TraceError, match="^line 2: malformed record '1_1_") as exc:
        parse_trace("CMP 1 2 LT\n" + "1_" * 50_000 + "\n")
    assert str(exc.value).endswith("... (100002 characters)")
    assert len(str(exc.value)) < 1000
