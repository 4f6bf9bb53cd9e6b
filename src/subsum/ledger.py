"""Comparison counting, run traces, and the solution witness check.

A ComparisonLedger runs each counted phase of a solver run and charges it
to three counters:

  C (compare_count)    number of instrumented comparisons
  M (peak_sorted_len)  largest sorted list of candidate sums built, floor 1
  T (elementary_ops)   total charged unit operations

The charging model is fixed so that runs are comparable across machines:

  +1 per comparison, +1 per candidate sum generated, and +k +
  ceil(k * log2(k)) per sorted list of k entries, its build and its sort.

It is applied here alone: sorted_sums builds a sorted list of subset sums,
lowest_mask runs brute's blocked walk and scan mitm's two-pointer walk,
each charging what it did, so no solver hands the ledger a count.

A ledger is single-writer: one solver run owns one ledger. A ledger given
a trace list, as in ComparisonLedger([]), adds each charged comparison,
sorted list build, and solution emission to it as an event; dump_trace
and parse_trace convert events to and from the line format, and
solution_witness_check replays them. Solvers refuse a tracing ledger
above n = FULL_TRACE_MAX_N. parse_trace decodes a brute dump's CMP records
in bulk and hands any other text whole to the per-line parser.

Every event reaches the trace through its extend, in a run: one event for
a sorted list, a walk's hit or an emission. Each phase runs one loop,
traced or not, and extends a trace with whole runs: lowest_mask hands it
each block's misses as one _Misses run of just their operands, which a
trace that renders each run, as `subsum solve --trace` does, writes with
no CompareEvent built; scan replays the steps it took from its two lists
once its loop is done.

parse_trace and traced solves pause CPython's cyclic garbage collector and
then restore its prior state: events are acyclic, so reference counting
frees them; the first collection after the pause still traverses them once.
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

from .model import (Instance, _quote, all_subset_sums, check_mask,
                    sorted_subset_sums, subset_sum)

FULL_TRACE_MAX_N = 24
# lowest_mask checks masks in blocks of 2^BRUTE_BLOCK_BITS, fixed rather than
# sized from n, so the walk's memory stays flat in n and brute's M = 1 still
# means it holds no growing list.
BRUTE_BLOCK_BITS = 10

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

    One block of lowest_mask's walk, held as its operands: iterating builds
    the events in one C-level pass, and dump_trace renders the run from lhs
    and rhs directly.
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

    def sorted_sums(self, elements, base: int = 0) -> list[int]:
        """base + each subset sum of elements, ascending; charges the list.

        The list is built by sorted_subset_sums. Its k = 2^len(elements)
        sums are charged to T as k generated sums plus k + sort_charge(k)
        for the build and the sort, however its order was obtained. M rises
        to k if k is larger, and a tracing ledger records one LIST event.
        """
        sums = sorted_subset_sums(elements, base)
        k = len(sums)
        if k > self.peak_sorted_len:
            self.peak_sorted_len = k
        self.elementary_ops += 2 * k + sort_charge(k)
        if self.trace is not None:
            self.trace.extend((SortedListEvent(k),))
        return sums

    def lowest_mask(self, elements, total: int) -> int | None:
        """The lowest mask of elements whose subset sum is total, or None; charges the walk.

        The walk goes block by block: with k = min(n, BRUTE_BLOCK_BITS), masks
        h * 2^k .. h * 2^k + 2^k - 1 share the high-element sum offset(h). The
        at most 2^BRUTE_BLOCK_BITS unsorted low-element sums are held once as
        one text, each sum in hex between commas, and one str.find of
        total - offset(h) in that text checks the whole block. The search still
        scans every entry up to its hit, in C, so wall time follows the masks
        visited, and memory stays flat in n. Each visited mask is one
        comparison and one generated sum, charged once the walk ends. A
        tracing ledger gets each block's misses as one _Misses run and the
        hit as one EQ CompareEvent, one event per visited mask.
        """
        # Mask h * 2^k + l sums to low[l] + offset(h), and low[l] is the text's
        # l-th field. The commas anchor a match to a whole field, so ",1," never
        # matches inside ",-1," or ",11,". find returns the first match, so the
        # first hit is the lowest matching mask, and the commas before it count
        # l. Hex, since CPython's int-to-str digit limit spares only powers of
        # two. The tuple and % keep the build's peak near the tuple's own size.
        k = min(len(elements), BRUTE_BLOCK_BITS)
        low = tuple(all_subset_sums(elements[:k]))
        text = ("," + "%x," * len(low)) % low
        high = elements[k:]
        # Prefix sums make the ascending walk over h incremental: stepping from
        # h-1 to h clears the trailing one-bits and sets one new bit.
        prefix = [0]
        for a in high:
            prefix.append(prefix[-1] + a)

        trace = self.trace
        offset = 0
        for h in range(1 << len(high)):
            if h:
                bit = (h & -h).bit_length() - 1
                offset += high[bit] - prefix[bit]
            at = text.find(f",{total - offset:x},")
            hit = None if at < 0 else text.count(",", 0, at)
            if trace is not None:
                # Entries before the hit differ from total - offset; the hit is EQ.
                seen = low if hit is None else low[:hit]
                trace.extend(_Misses([offset + s for s in seen], total))
                if hit is not None:
                    trace.extend((CompareEvent(total, total, Ordering.EQ),))
            if hit is not None:
                mask = h << k | hit
                break
        else:
            mask = None
        visited = 1 << len(elements) if mask is None else mask + 1
        self.compare_count += visited
        self.elementary_ops += 2 * visited
        return mask

    def scan(self, lo: list[int], hi: list[int]) -> int | None:
        """The smallest value common to ascending lo and hi, or None; charges the walk.

        Each step compares lo[i] with hi[j]: LT passes lo[i], GT passes
        hi[j] and EQ ends the scan, as does either list running out. The
        steps taken are charged to C and T, and a tracing ledger replays
        them from the two lists as one run of CompareEvents.
        """
        len_lo, len_hi = len(lo), len(hi)
        if not len_hi:
            return None
        j = 0
        rhs = hi[0]
        value = None
        # rhs is the back head hi[j]. Most steps pass a front sum below it, at
        # one comparison each. The loop keeps no front index: enumerate() made
        # each step take twice as long. The iterator's length_hint recovers it.
        walk = iter(lo)
        for lhs in walk:
            if lhs < rhs:
                continue
            while rhs < lhs:
                j += 1
                if j == len_hi:
                    break
                rhs = hi[j]
            if j == len_hi:
                break  # the back list ran out
            # lhs <= rhs now: LT moves on to the next front sum, EQ is a hit.
            if lhs == rhs:
                value = lhs
                break
        else:
            lhs = None  # the front list ran out
        # i counts the front entries passed: all of them, or those before lhs.
        i = len_lo if lhs is None else len_lo - operator.length_hint(walk) - 1
        # Each miss advanced exactly one pointer and a hit ended the scan.
        steps = i + j + (value is not None)
        if self.trace is not None:
            events, i, j = [], 0, 0
            for _ in range(steps):
                lhs, rhs = lo[i], hi[j]
                if lhs < rhs:
                    outcome, i = Ordering.LT, i + 1
                elif rhs < lhs:
                    outcome, j = Ordering.GT, j + 1
                else:
                    outcome = Ordering.EQ  # the last step
                events.append(CompareEvent(lhs, rhs, outcome))
            self.trace.extend(events)
        self.compare_count += steps
        self.elementary_ops += steps
        return value

    def emit(self, mask: int) -> None:
        """Record that a solution mask was output (trace event only)."""
        if self.trace is not None:
            self.trace.extend((EmitEvent(mask),))


def dump_trace(trace) -> str:
    """Render a trace in the line format: CMP / LIST / EMIT records.

    trace is a sequence of events, such as one run that a ledger hands its
    trace's extend. A _Misses run renders from its operands with no event
    built.
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

