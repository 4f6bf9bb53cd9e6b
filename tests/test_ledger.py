"""Ledger counting, traces, witness checking, and tradeoff checks."""

import contextlib
import gc
import inspect
import sys
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subsum import (ComparisonLedger, CompareEvent, EmitEvent,
                    ExperimentRecord, GeneratorSpec, Instance, Ordering,
                    SortedListEvent, TraceError, brute_force_solve,
                    dump_trace, gen_planted, gen_powers_of_two,
                    gen_random_wide, generate, ledger, mitm_solve,
                    parse_trace, solution_witness_check, tradeoff_report)
from subsum.ledger import (ENCODING_SPLIT_SUM, ENCODING_SUM_VS_TARGET,
                           _parse_lines, sort_charge)


def make_record(n, m, t):
    return ExperimentRecord(n=n, family="x", algo="x", seed=0, trial=0,
                            compare_count=0, peak_sorted_len=m,
                            elementary_ops=t, wall_time=0.0)


def test_compare_outcomes_and_counts():
    led = ComparisonLedger()
    led.charge_compares(1)
    assert led.record_compare(7, 7) is Ordering.EQ
    assert led.compare_count == 1
    led.charge_compares(2)
    assert led.record_compare(3, 9) is Ordering.LT
    assert led.record_compare(9, 3) is Ordering.GT
    assert led.compare_count == 3
    assert led.elementary_ops == 3


def test_compare_huge_operands():
    led = ComparisonLedger()
    assert led.record_compare(10 ** 50, 10 ** 50 + 1) is Ordering.LT


@given(st.lists(st.tuples(st.integers(), st.integers()), max_size=50))
def test_compare_replay_consistency(pairs):
    led = ComparisonLedger([])
    for lhs, rhs in pairs:
        led.charge_compares(1)
        led.record_compare(lhs, rhs)
    assert led.compare_count == len(pairs)
    assert led.compare_count <= led.elementary_ops
    for event in led.trace:
        expected = (Ordering.EQ if event.lhs == event.rhs
                    else Ordering.LT if event.lhs < event.rhs
                    else Ordering.GT)
        assert event.outcome is expected


def test_peak_tracks_max():
    led = ComparisonLedger()
    led.record_sorted_list(4)
    led.record_sorted_list(2)
    assert led.peak_sorted_len == 4


def test_peak_floor_is_one():
    assert ComparisonLedger().peak_sorted_len == 1
    led = ComparisonLedger()
    led.record_sorted_list(0)
    assert led.peak_sorted_len == 1


def test_peak_with_repeats():
    led = ComparisonLedger()
    for length in (2, 8, 8):
        led.record_sorted_list(length)
    assert led.peak_sorted_len == 8


def test_sorted_list_charges_at_least_length():
    led = ComparisonLedger()
    led.record_sorted_list(5)
    assert led.elementary_ops == 5


def test_sort_charge_values():
    assert sort_charge(0) == 0
    assert sort_charge(1) == 0
    assert sort_charge(2) == 2
    assert sort_charge(5) == 12  # ceil(5 * log2(5)) = ceil(11.6096)
    assert sort_charge(32) == 160
    assert sort_charge(1 << 16) == 16 << 16


def test_generation_charge():
    led = ComparisonLedger()
    led.charge_generated(7)
    led.charge_generated()
    assert led.elementary_ops == 8
    assert led.compare_count == 0


def test_bulk_charge_and_trace_only_record():
    led = ComparisonLedger([])
    assert led.record_compare(4, 9) is Ordering.LT
    assert (led.compare_count, led.elementary_ops) == (0, 0)
    led.charge_compares(5)
    assert (led.compare_count, led.elementary_ops) == (5, 5)
    assert led.trace == [CompareEvent(4, 9, Ordering.LT)]


def test_counters_only_has_no_trace():
    led = ComparisonLedger()
    led.record_compare(1, 2)
    led.emit(0)
    assert led.trace is None


def test_trace_event_order():
    led = ComparisonLedger([])
    led.record_sorted_list(2)
    led.record_compare(3, 3)
    led.emit(5)
    assert led.trace == [SortedListEvent(2), CompareEvent(3, 3, Ordering.EQ),
                         EmitEvent(5)]


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


def test_record_misses_bulk_matches_record_compare():
    bulk = ComparisonLedger([])
    bulk.record_misses([-4, 9, 2, 10 ** 30], 3)
    one = ComparisonLedger([])
    for lhs in (-4, 9, 2, 10 ** 30):
        one.record_compare(lhs, 3)
    assert bulk.trace == one.trace
    assert all(type(e) is CompareEvent for e in bulk.trace)
    assert (bulk.compare_count, bulk.elementary_ops) == (0, 0)
    with pytest.raises(ValueError):
        bulk.record_misses([1, 3], 3)
    plain = ComparisonLedger()
    plain.record_misses([1, 3], 3)
    assert plain.trace is None


@pytest.mark.parametrize("lo, hi", [
    ([1, 4, 6, 9], [2, 3, 6, 8]),  # LT, GT, GT, LT, then EQ at step 5
    ([1, 2], [5, 7]),  # no hit: the front list runs out after 2 steps
    ([5, 7], [1, 2, 3]),  # no hit: the back list runs out after 3 steps
])
def test_record_scan_replays_the_two_pointer_walk(lo, hi):
    # The reference walk: one record_compare per step, each passing one
    # entry, until a hit or an exhausted list.
    walk = ComparisonLedger([])
    i = j = 0
    while i < len(lo) and j < len(hi):
        outcome = walk.record_compare(lo[i], hi[j])
        if outcome is Ordering.EQ:
            break
        i, j = (i + 1, j) if outcome is Ordering.LT else (i, j + 1)
    steps = len(walk.trace)
    for count in range(steps + 1):
        runs = []
        led = ComparisonLedger(SimpleNamespace(extend=runs.append))
        led.record_scan(lo, hi, count)
        assert runs == [walk.trace[:count]]
        assert (led.compare_count, led.elementary_ops) == (0, 0)
    led = ComparisonLedger([])
    with pytest.raises(ValueError, match=f"got {steps + 1} steps"):
        led.record_scan(lo, hi, steps + 1)
    assert led.trace == []
    plain = ComparisonLedger()
    plain.record_scan(lo, hi, steps + 1)
    assert plain.trace is None


_OPERANDS = st.one_of(st.integers(), st.integers(min_value=1 << 64, max_value=1 << 200),
                      st.integers(min_value=-(1 << 200), max_value=-(1 << 64)))


@given(st.lists(_OPERANDS, max_size=40), _OPERANDS)
@example([], 0)
@example([-7, 0, 1 << 64, (1 << 64) + 1, -(1 << 64)], (1 << 64) - 1)
def test_misses_run_renders_as_its_events(lhs, rhs):
    lhs = [x for x in lhs if x != rhs]
    runs = []
    ComparisonLedger(SimpleNamespace(extend=runs.append)).record_misses(lhs, rhs)
    (run,) = runs
    events = list(run)
    assert all(type(e) is CompareEvent for e in events)
    assert len(run) == len(events) == len(lhs)
    assert dump_trace(run) == dump_trace(events)


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
    # the last chunk, after every chunk before it was decoded. Those events
    # are dropped: parse_trace returns the per-line parser's events, and its
    # peak is that parser's own, not that plus a near-whole trace of tuples.
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
    assert [whole for whole, _ in calls] == [text] and events is calls[0][1]
    del events, calls
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
    # About 16k lines, whose events take about 2 MB. Decoding a chunk at a
    # time holds the split tokens of one chunk only, not of the whole text.
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
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(parsed) > 14000
        assert peak < 5_000_000, f"parse_trace peaked at {peak} B"


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


@pytest.mark.parametrize("enabled", [True, False])
def test_pause_restores_collector_when_solve_raises(collector_on, monkeypatch, enabled):
    # Powers of two at n = 12 walk 4 blocks; the third block's misses raise.
    # mitm traces its whole scan in one record_scan call, which raises.
    def fail_on(method, nth):
        real, calls = getattr(ComparisonLedger, method), []

        def failing(self, *args):
            calls.append(args)
            if len(calls) == nth:
                raise RuntimeError(f"{method} failed")
            return real(self, *args)
        return failing

    (gc.enable if enabled else gc.disable)()
    for solve, method, nth in [(brute_force_solve, "record_misses", 3),
                               (mitm_solve, "record_scan", 1)]:
        with monkeypatch.context() as patch:
            patch.setattr(ComparisonLedger, method, fail_on(method, nth))
            with pytest.raises(RuntimeError, match=f"{method} failed"):
                solve(gen_powers_of_two(12), ComparisonLedger([]))
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
    assert solution_witness_check(trace, inst, ENCODING_SUM_VS_TARGET)


def test_witness_missing_compare_fails():
    inst = Instance((9,), 9)
    trace = [EmitEvent(0b1)]
    assert not solution_witness_check(trace, inst, ENCODING_SUM_VS_TARGET)


def test_witness_vacuous_without_emit():
    inst = Instance((1, 2), 7)
    trace = [CompareEvent(1, 7, Ordering.LT), CompareEvent(3, 7, Ordering.LT)]
    assert solution_witness_check(trace, inst, ENCODING_SUM_VS_TARGET)


def test_witness_compare_after_emit_does_not_count():
    inst = Instance((9,), 9)
    trace = [EmitEvent(0b1), CompareEvent(9, 9, Ordering.EQ)]
    assert not solution_witness_check(trace, inst, ENCODING_SUM_VS_TARGET)


def test_witness_equal_compare_of_wrong_value_fails():
    inst = Instance((9, 5), 9)
    trace = [CompareEvent(5, 5, Ordering.EQ), EmitEvent(0b01)]
    assert not solution_witness_check(trace, inst, ENCODING_SUM_VS_TARGET)


def test_witness_split_encoding():
    # front sum 4 vs target 9 minus back sum 5: operands (4, 4)
    inst = Instance((4, 5), 9)
    trace = [CompareEvent(4, 4, Ordering.EQ), EmitEvent(0b11)]
    assert solution_witness_check(trace, inst, ENCODING_SPLIT_SUM)
    # under the direct encoding those operands witness 4 = 4, not sum = 9
    assert not solution_witness_check(trace, inst, ENCODING_SUM_VS_TARGET)


def test_witness_split_rejects_forged_operands():
    # 999 = 999 is a true EQ, but not front sum vs target minus back sum.
    inst = Instance((4, 5), 9)
    trace = [CompareEvent(999, 999, Ordering.EQ), EmitEvent(0b11)]
    assert not solution_witness_check(trace, inst, ENCODING_SPLIT_SUM)
    # Equal operands that decode to a different split of the same total.
    inst = Instance((4, 5, 3, 2), 9)
    trace = [CompareEvent(7, 7, Ordering.EQ), EmitEvent(0b0011)]
    assert not solution_witness_check(trace, inst, ENCODING_SPLIT_SUM)
    trace = [CompareEvent(9, 9, Ordering.EQ), EmitEvent(0b0011)]
    assert solution_witness_check(trace, inst, ENCODING_SPLIT_SUM)


def test_witness_direct_rejects_unrelated_earlier_eq():
    inst = Instance((9, 4), 9)
    trace = [CompareEvent(9, 9, Ordering.EQ), CompareEvent(4, 9, Ordering.LT),
             EmitEvent(0b01)]
    assert not solution_witness_check(trace, inst, ENCODING_SUM_VS_TARGET)
    trace = [CompareEvent(0, 9, Ordering.LT), CompareEvent(9, 9, Ordering.EQ),
             EmitEvent(0b01)]
    assert solution_witness_check(trace, inst, ENCODING_SUM_VS_TARGET)


def test_witness_rejects_eq_with_unequal_operands():
    inst = Instance((9, 4), 9)
    trace = [CompareEvent(4, 9, Ordering.EQ), EmitEvent(0b10)]
    assert not solution_witness_check(trace, inst, ENCODING_SUM_VS_TARGET)


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


def test_witness_unknown_encoding():
    inst = Instance((1,), 1)
    trace = [CompareEvent(1, 1, Ordering.EQ), EmitEvent(1)]
    with pytest.raises(ValueError):
        solution_witness_check(trace, inst, "bogus")


# -- tradeoff checking -----------------------------------------------------

def test_tradeoff_brute_style_row_holds():
    report = tradeoff_report([make_record(10, 1, 1024)])
    assert report.total == 1
    assert report.t_ge_m_violations == report.mt_violations == []
    assert report.ok


def test_tradeoff_split_style_row_holds():
    report = tradeoff_report([make_record(10, 32, 96)])  # 32 * 96 = 3072 >= 1024
    assert report.total == 1
    assert report.t_ge_m_violations == report.mt_violations == []
    assert report.ok


def test_tradeoff_flags_t_less_than_m():
    record = make_record(4, 5, 4)
    report = tradeoff_report([record])
    assert report.t_ge_m_violations == [(0, record)]
    assert not report.ok
    assert "violates" in report.summary()


def test_tradeoff_flags_mt_shortfall():
    record = make_record(10, 2, 100)
    report = tradeoff_report([record])
    assert report.t_ge_m_violations == []
    assert report.mt_violations == [(0, record)]


@given(st.integers(-5, 70), st.integers(-3, 1 << 36), st.integers(-3, 1 << 36))
@example(10, 32, 32)  # M*T = 2^n exactly
@example(10, 31, 33)  # M*T = 2^n - 1
def test_tradeoff_mt_check_is_exact(n, m, t):
    # 2 ** n is an exact float for these negative n.
    report = tradeoff_report([make_record(n, m, t)])
    assert (not report.mt_violations) == (m * t >= 2 ** n)


def test_tradeoff_huge_n_builds_no_power_of_two():
    # n comes from a CSV; 2^(10^12) would take about 125 GB.
    record = make_record(10 ** 12, 2, 100)
    tracemalloc.start()
    try:
        report = tradeoff_report([record])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.mt_violations == [(0, record)]
    assert "M*T=200 < 2^1000000000000" in report.summary()
    assert peak < 64 * 1024


def test_tradeoff_negative_n():
    # 2^n < 1 for n < 0, so any positive M*T meets it.
    records = [make_record(-1, 1, 1), make_record(-4, 0, 3)]
    report = tradeoff_report(records)
    assert report.mt_violations == [(1, records[1])]
    assert "M*T=0 < 2^-4" in report.summary()


def test_tradeoff_zero_m_violates_floor():
    record = make_record(0, 0, 5)
    report = tradeoff_report([record])
    assert report.t_ge_m_violations == [(0, record)]


def test_tradeoff_requires_records():
    with pytest.raises(ValueError):
        tradeoff_report([])


def test_tradeoff_mixed_summary_counts():
    report = tradeoff_report([make_record(10, 1, 1024), make_record(4, 5, 4)])
    assert "1/2" in report.summary().splitlines()[0]


def test_parse_trace_quotes_a_long_malformed_record_bounded():
    with pytest.raises(TraceError, match="^line 2: malformed record '1_1_") as exc:
        parse_trace("CMP 1 2 LT\n" + "1_" * 50_000 + "\n")
    assert str(exc.value).endswith("... (100002 characters)")
    assert len(str(exc.value)) < 1000
