"""Comparison counting, run traces, and the solution witness check.

Every solver in this package charges its equality-determining comparisons
to a ComparisonLedger, which holds three counters:

  C (compare_count)    number of instrumented comparisons
  M (peak_sorted_len)  largest sorted list of candidate sums built, floor 1
  T (elementary_ops)   total charged unit operations

The charging model is fixed so that runs are comparable across machines:

  +1 per comparison, +1 per candidate sum generated, +k per sorted-list
  build of k entries, +ceil(k * log2(k)) per sort of k entries.

A ledger is single-writer: one solver run owns one ledger. A ledger given
a trace list, as in ComparisonLedger([]), adds each charged comparison,
sorted list build, and solution emission to it as an event; dump_trace
and parse_trace convert events to and from the line format, and
solution_witness_check replays them. Solvers refuse a tracing ledger
above n = FULL_TRACE_MAX_N. parse_trace decodes a brute dump's CMP records
in bulk and hands any other text whole to the per-line parser.

Every event reaches the trace through its extend, in a run: one event for
record_compare, record_sorted_list and emit. Solvers run one loop, traced
or not, and extend a trace with whole runs: record_misses hands it
brute's misses in one block as a run of just its operands, which a trace
that renders each run, as `subsum solve --trace` does, writes with no
CompareEvent built; record_scan replays mitm's whole scan from its two
lists and its comparison count once the loop is done.

parse_trace and traced solves pause CPython's cyclic garbage collector and
then restore its prior state: events are acyclic, so reference counting
frees them, and a collection pass would only re-traverse every live event.
Other threads see the collector paused for that time. A counters-only solve
leaves the collector alone.
"""

from __future__ import annotations

import enum
import gc
import math
import operator
import re
from contextlib import contextmanager
from itertools import compress, count, groupby, repeat
from typing import NamedTuple

from .model import Instance, _quote, check_mask, subset_sum

FULL_TRACE_MAX_N = 24

# Operand encodings a solver may declare for its comparisons. The encoding
# fixes how a recorded (lhs, rhs) pair maps back to the (subset sum, target)
# pair whose equality it determines.
ENCODING_SUM_VS_TARGET = "sum_vs_target"
ENCODING_SPLIT_SUM = "front_sum_vs_target_minus_back_sum"


def front_size(n: int) -> int:
    """Front-half length of the split-sum layout: elements [0, ceil(n/2))."""
    return (n + 1) // 2


class TraceError(ValueError):
    """Raised for malformed traces (bad masks, multiple emissions)."""


class Ordering(enum.Enum):
    EQ = "EQ"
    LT = "LT"
    GT = "GT"


class CompareEvent(NamedTuple):
    lhs: int
    rhs: int
    outcome: Ordering


class SortedListEvent(NamedTuple):
    length: int


class EmitEvent(NamedTuple):
    mask: int


# Indexed by lhs < rhs: an unequal pair is GT (False) or LT (True).
_MISS_OUTCOMES = (Ordering.GT, Ordering.LT)


class _Misses:
    """The CompareEvents of lhs[i] against rhs, in order, none of them EQ.

    One record_misses call, held as its operands: iterating builds the
    events, and dump_trace renders the run from lhs and rhs directly.
    """

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: list[int], rhs: int):
        self.lhs = lhs
        self.rhs = rhs

    def __len__(self) -> int:
        return len(self.lhs)

    def __iter__(self):
        lhs, rhs = self.lhs, self.rhs
        outcomes = map(_MISS_OUTCOMES.__getitem__, map(operator.lt, lhs, repeat(rhs)))
        return map(tuple.__new__, repeat(CompareEvent), zip(lhs, repeat(rhs), outcomes))


@contextmanager
def _gc_paused():
    """Run the block with the cyclic collector off, then restore its state.

    For code that builds many events: each automatic collection pass would
    re-traverse every live event and free none. The collector is re-enabled
    only if it was enabled on entry.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def sort_charge(length: int) -> int:
    """Unit cost charged for sorting a list: ceil(k * log2(k)), 0 for k < 2."""
    if length < 2:
        return 0
    return math.ceil(length * math.log2(length))


class ComparisonLedger:
    """Counters for one solver run, plus its events if given a trace list."""

    __slots__ = ("compare_count", "elementary_ops", "peak_sorted_len",
                 "trace", "encoding")

    def __init__(self, trace: list | None = None):
        self.compare_count = 0
        self.elementary_ops = 0
        self.peak_sorted_len = 1
        self.trace = trace
        self.encoding = ENCODING_SUM_VS_TARGET

    def charge_compares(self, count: int) -> None:
        """Charge count comparisons at once: C and T each grow by count."""
        self.compare_count += count
        self.elementary_ops += count

    def record_compare(self, lhs: int, rhs: int) -> Ordering:
        """Return the ordering of lhs and rhs and trace it; charges nothing."""
        if lhs == rhs:
            outcome = Ordering.EQ
        elif lhs < rhs:
            outcome = Ordering.LT
        else:
            outcome = Ordering.GT
        if self.trace is not None:
            self.trace.extend((CompareEvent(lhs, rhs, outcome),))
        return outcome

    def record_misses(self, lhs: list[int], rhs: int) -> None:
        """Trace lhs[i] against rhs for every i, in order; charges nothing.

        No lhs value may equal rhs, so each outcome is LT or GT. The trace
        is extended once, with a _Misses run: a list trace gets its
        CompareEvents, built in one C-level pass, and a trace that renders
        each run as it arrives hands it to dump_trace, which writes its
        lines from lhs and rhs without building an event.
        """
        if self.trace is None:
            return
        if rhs in lhs:
            raise ValueError(f"record_misses got an lhs equal to rhs={rhs}")
        self.trace.extend(_Misses(lhs, rhs))

    def record_scan(self, lo: list[int], hi: list[int], count: int) -> None:
        """Trace the first count steps of a two-pointer scan; charges nothing.

        lo and hi ascend; each step compares lo[i] with hi[j]. LT passes
        lo[i], GT passes hi[j], and EQ ends the scan. The trace is extended
        once, with exactly count CompareEvents; a count past the end of the
        scan raises ValueError, with the trace untouched.
        """
        if self.trace is None:
            return
        events, i, j = [], 0, 0
        while len(events) < count and i < len(lo) and j < len(hi):
            lhs, rhs = lo[i], hi[j]
            if lhs < rhs:
                outcome, i = Ordering.LT, i + 1
            elif rhs < lhs:
                outcome, j = Ordering.GT, j + 1
            else:
                outcome, i = Ordering.EQ, len(lo)  # a hit ends the scan
            events.append(CompareEvent(lhs, rhs, outcome))
        if len(events) < count:
            raise ValueError(f"record_scan got {count} steps; the scan has {len(events)}")
        self.trace.extend(events)

    def charge_generated(self, count: int = 1) -> None:
        """Charge unit cost for generating candidate subset sums."""
        self.elementary_ops += count

    def record_sorted_list(self, length: int) -> None:
        """Account for building a sorted list of the given length."""
        if length < 0:
            raise ValueError("list length must be nonnegative")
        if length > self.peak_sorted_len:
            self.peak_sorted_len = length
        self.elementary_ops += length
        if self.trace is not None:
            self.trace.extend((SortedListEvent(length),))

    def charge_sort(self, length: int) -> None:
        self.elementary_ops += sort_charge(length)

    def emit(self, mask: int) -> None:
        """Record that a solution mask was output (trace event only)."""
        if self.trace is not None:
            self.trace.extend((EmitEvent(mask),))


def dump_trace(trace) -> str:
    """Render a trace in the line format: CMP / LIST / EMIT records.

    trace is a sequence of events, such as one run that a ledger hands its
    trace's extend. A record_misses run renders from its operands with no
    event built.
    """
    if type(trace) is _Misses:
        # Each line is an lhs and one of two tails, both built once.
        rhs = trace.rhs
        lt_tail, gt_tail = f" {rhs} LT\n", f" {rhs} GT\n"
        return "".join([f"CMP {x}{lt_tail if x < rhs else gt_tail}" for x in trace.lhs])
    parts = []
    # One comprehension per run of same-typed events. An outcome's text is
    # its _value_, a plain attribute; .value is a Python-level property.
    for kind, run in groupby(trace, type):
        if issubclass(kind, CompareEvent):
            parts += [f"CMP {lhs} {rhs} {outcome._value_}\n" for lhs, rhs, outcome in run]
        elif issubclass(kind, SortedListEvent):
            parts += [f"LIST {event.length}\n" for event in run]
        elif issubclass(kind, EmitEvent):
            parts += [f"EMIT {event.mask:x}\n" for event in run]
        else:
            raise TraceError(f"unknown event {next(run)!r}")
    return "".join(parts)


# One record, exactly as dump_trace writes it, without its "\n". ASCII
# classes, not \d, so that no other script's digits parse.
_RECORD = r"CMP -?[0-9]+ -?[0-9]+ (?:EQ|LT|GT)|LIST [0-9]+|EMIT [0-9a-f]+"
_CHUNK_CHARS = 1 << 15
_ORDERINGS = {ordering.value: ordering for ordering in Ordering}
# split(" ") of CMP records leaves each outcome joined to the next record's
# "CMP", or to the final "\n".
_INNER_OUTCOMES = {code + "\nCMP": ordering for code, ordering in _ORDERINGS.items()}
_LAST_OUTCOMES = {code + "\n": ordering for code, ordering in _ORDERINGS.items()}
_OPERAND_CHARS_RE = re.compile(r"[-0-9]*")


@_gc_paused()
def parse_trace(text: str) -> list:
    """Inverse of dump_trace: the events of a trace dump, in order.

    A record is one of `CMP <int> <int> EQ|LT|GT`, `LIST <nonnegative
    int>` or `EMIT <lowercase hex>`, with single spaces and ASCII digits.
    Lines are split as str.splitlines splits them; blank and
    whitespace-only lines are skipped. Any other line raises TraceError
    naming its line number, as does a decimal past the interpreter's
    int-to-str digit limit.

    A text is read one of two ways. A brute dump, CMP records against one
    rhs text, each ending in "\n", then a last line such as its EMIT
    record, is decoded in bulk: the text before its last line in chunks
    of about _CHUNK_CHARS, each cut after a newline and validated as it is
    decoded (see _decode_compares), and the last line by _parse_lines. Any
    other text, such as a mitm dump, which opens with LIST records, or one
    with an odd line, is refused by that path; its partial events are
    dropped and _parse_lines reads the whole text, numbering the lines
    itself. The cyclic collector stays paused throughout (see _gc_paused).
    """
    events, start = [], 0
    last = text.rfind("\n", 0, len(text) - 1) + 1  # where the text's last line starts
    try:
        while start < last:
            stop = text.find("\n", start + _CHUNK_CHARS, last) + 1 or last
            events += _decode_compares(text[start:stop])
            start = stop
        events += _parse_lines(text[last:])
        return events
    except (KeyError, ValueError):
        events = None  # freed before the whole text is parsed again
    return _parse_lines(text)


def _decode_compares(records: str) -> list:
    """The CompareEvents of a run of CMP records against one rhs, validated.

    Split on " ", the records are 3 tokens each after a first "CMP": two
    operands and an outcome joined to the next record's "CMP", or to the
    final "\n". Outcomes are looked up in _INNER_OUTCOMES and
    _LAST_OUTCOMES, so anything else raises KeyError. The rhs texts must
    all be one text, as brute's target is, which is converted once; two
    rhs texts, as in a mitm scan, raise ValueError. An operand made only
    of "-" and ASCII digits that int() accepts is exactly -?[0-9]+;
    anything else raises ValueError. Anything but such a run raises
    KeyError or ValueError, having decoded nothing, and parse_trace then
    reads the whole text with _parse_lines.
    """
    tokens = records.split(" ")
    if tokens[0] != "CMP" or len(tokens) % 3 != 1:
        raise ValueError("not a run of CMP records")
    # Outcomes first, so that a lone "CMP" raises KeyError, not IndexError.
    outcomes = [*map(_INNER_OUTCOMES.__getitem__, tokens[3:-1:3]),
                _LAST_OUTCOMES[tokens[-1]]]
    lhs_texts, rhs_texts = tokens[1::3], tokens[2::3]
    rhs = rhs_texts[0]
    if rhs_texts.count(rhs) != len(rhs_texts):
        raise ValueError("not a run against one rhs")
    if _OPERAND_CHARS_RE.fullmatch("".join(lhs_texts) + rhs) is None:
        raise ValueError("an operand is not a decimal integer")
    return list(map(tuple.__new__, repeat(CompareEvent),
                    zip(map(int, lhs_texts), repeat(int(rhs)), outcomes)))


def _parse_lines(text: str) -> list:
    """The per-line parser: every line that parse_trace accepts, and its errors."""
    events = []
    is_record = re.compile(_RECORD).fullmatch
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if is_record(line) is None:
            raise TraceError(f"line {lineno}: malformed record {_quote(line)}")
        kind, _, value = line.partition(" ")
        try:
            if kind == "CMP":
                lhs, rhs, code = value.split(" ")
                events.append(CompareEvent(int(lhs), int(rhs), _ORDERINGS[code]))
            elif kind == "LIST":
                events.append(SortedListEvent(int(value)))
            else:
                events.append(EmitEvent(int(value, 16)))
        except ValueError as exc:  # a decimal past the interpreter's digit limit
            raise TraceError(f"line {lineno}: {exc}") from exc
    return events


def _witnesses(event, instance: Instance, mask: int, encoding: str) -> bool:
    """Whether event is an EQ comparison that settles mask's hit on the target.

    The operands must be equal and must be the ones the solver compares
    for this mask: under ENCODING_SUM_VS_TARGET (subset sum, target); under
    ENCODING_SPLIT_SUM (front sum, target - back sum), the front being
    elements [0, front_size(n)).
    """
    if (not isinstance(event, CompareEvent) or event.outcome is not Ordering.EQ
            or event.lhs != event.rhs):
        return False
    target = instance.target
    if encoding == ENCODING_SUM_VS_TARGET:
        return event.rhs == target and event.lhs == subset_sum(instance, mask)
    front = mask & ((1 << front_size(instance.n)) - 1)
    return (event.lhs == subset_sum(instance, front)
            and target - event.rhs == subset_sum(instance, mask ^ front))


def solution_witness_check(trace, instance: Instance,
                           encoding: str = ENCODING_SUM_VS_TARGET) -> bool:
    """Check that the emitted solution is bound to the comparison that found it.

    The event right before an EmitEvent carrying mask s must be a
    CompareEvent with outcome EQ, equal operands, and the operands the
    solver's declared encoding gives for s (see _witnesses). A trace with
    no emission passes vacuously; an invalid mask or a second emission
    raises TraceError.
    """
    if encoding not in (ENCODING_SUM_VS_TARGET, ENCODING_SPLIT_SUM):
        raise ValueError(f"unknown encoding {encoding!r}")
    events = trace if isinstance(trace, list) else list(trace)
    # A subclass of EmitEvent is an emission too, as in dump_trace.
    emits = list(compress(count(), map(isinstance, events, repeat(EmitEvent))))
    if not emits:
        return True
    at = emits[0]
    mask = events[at].mask
    try:
        check_mask(instance, mask)
    except (TypeError, ValueError) as exc:
        raise TraceError(f"emitted mask invalid: {exc}") from exc
    if len(emits) > 1:
        raise TraceError("trace contains more than one emission")
    return at > 0 and _witnesses(events[at - 1], instance, mask, encoding)

