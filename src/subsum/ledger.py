"""Comparison counting, run traces, and checks over measured runs.

Every solver in this package charges its equality-determining comparisons
to a ComparisonLedger, which holds three counters:

  C (compare_count)    number of instrumented comparisons
  M (peak_sorted_len)  largest sorted list of candidate sums built, floor 1
  T (elementary_ops)   total charged unit operations

The charging model is fixed so that runs are comparable across machines:

  +1 per comparison, +1 per candidate sum generated, +k per sorted-list
  build of k entries, +ceil(k * log2(k)) per sort of k entries.

A ledger is single-writer: one solver run owns one ledger. In FULL_TRACE
mode every charged comparison, sorted-list build, and solution emission is
also recorded as an event, which tests replay to validate outcomes and
witness properties. FULL_TRACE is refused above n = 24 to bound memory.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .model import Instance, check_mask, subset_sum

FULL_TRACE_MAX_N = 24

# Operand encodings a solver may declare for its comparisons. The encoding
# fixes how a recorded (lhs, rhs) pair maps back to the (subset sum, target)
# pair whose equality it determines.
ENCODING_SUM_VS_TARGET = "sum_vs_target"
ENCODING_SPLIT_SUM = "front_sum_vs_target_minus_back_sum"


class TraceError(ValueError):
    """Raised for malformed traces (bad masks, multiple emissions)."""


class Ordering(enum.Enum):
    EQ = "EQ"
    LT = "LT"
    GT = "GT"


class Mode(enum.Enum):
    COUNTERS_ONLY = "counters"
    FULL_TRACE = "trace"


class CompareEvent(NamedTuple):
    lhs: int
    rhs: int
    outcome: Ordering


class SortedListEvent(NamedTuple):
    length: int


class EmitEvent(NamedTuple):
    mask: int


def sort_charge(length: int) -> int:
    """Unit cost charged for sorting a list: ceil(k * log2(k)), 0 for k < 2."""
    if length < 2:
        return 0
    return math.ceil(length * math.log2(length))


class ComparisonLedger:
    """Counters plus optional event trace for one solver run."""

    __slots__ = ("mode", "compare_count", "elementary_ops", "peak_sorted_len",
                 "trace", "encoding")

    def __init__(self, mode: Mode = Mode.COUNTERS_ONLY):
        self.mode = mode
        self.compare_count = 0
        self.elementary_ops = 0
        self.peak_sorted_len = 1
        self.trace: list | None = [] if mode is Mode.FULL_TRACE else None
        self.encoding = ENCODING_SUM_VS_TARGET

    def compare(self, lhs: int, rhs: int) -> Ordering:
        """Charge and record one comparison; return the exact three-way ordering."""
        self.charge_compares(1)
        return self.record_compare(lhs, rhs)

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
            self.trace.append(CompareEvent(lhs, rhs, outcome))
        return outcome

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
            self.trace.append(SortedListEvent(length))

    def charge_sort(self, length: int) -> None:
        self.elementary_ops += sort_charge(length)

    def emit(self, mask: int) -> None:
        """Record that a solution mask was output (trace event only)."""
        if self.trace is not None:
            self.trace.append(EmitEvent(mask))


def dump_trace(trace) -> str:
    """Render a trace in the line format: CMP / LIST / EMIT records."""
    lines = []
    for event in trace:
        if isinstance(event, CompareEvent):
            lines.append(f"CMP {event.lhs} {event.rhs} {event.outcome.value}")
        elif isinstance(event, SortedListEvent):
            lines.append(f"LIST {event.length}")
        elif isinstance(event, EmitEvent):
            lines.append(f"EMIT {event.mask:x}")
        else:
            raise TraceError(f"unknown event {event!r}")
    return "".join(line + "\n" for line in lines)


# One record per line, exactly as dump_trace writes it. ASCII classes, not
# \d, so that no other script's digits parse.
_TRACE_LINE_RE = re.compile(
    r"CMP (-?[0-9]+) (-?[0-9]+) (EQ|LT|GT)|LIST ([0-9]+)|EMIT ([0-9a-f]+)")
_ORDERINGS = {ordering.value: ordering for ordering in Ordering}


def parse_trace(text: str) -> list:
    """Inverse of dump_trace; used by tests to round-trip dumps.

    Blank lines are skipped. Any other line that dump_trace could not have
    written raises TraceError naming its line number.
    """
    events = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        match = _TRACE_LINE_RE.fullmatch(line)
        if match is None:
            raise TraceError(f"line {lineno}: malformed record {line!r}")
        lhs, rhs, code, length, mask = match.groups()
        try:
            if code is not None:
                events.append(CompareEvent(int(lhs), int(rhs), _ORDERINGS[code]))
            elif length is not None:
                events.append(SortedListEvent(int(length)))
            else:
                events.append(EmitEvent(int(mask, 16)))
        except ValueError as exc:  # a decimal past the interpreter's digit limit
            raise TraceError(f"line {lineno}: {exc}") from exc
    return events


def _decode_compared_pair(event: CompareEvent, target: int, encoding: str):
    """Map recorded operands back to the (subset sum, target) pair compared."""
    if encoding == ENCODING_SUM_VS_TARGET:
        return event.lhs, event.rhs
    if encoding == ENCODING_SPLIT_SUM:
        # lhs = front sum, rhs = target - back sum; the equality determined
        # is front + back = target.
        return event.lhs + target - event.rhs, target
    raise ValueError(f"unknown encoding {encoding!r}")


def solution_witness_check(trace, instance: Instance,
                           encoding: str = ENCODING_SUM_VS_TARGET) -> bool:
    """Check that every emitted solution was preceded by an equality witness.

    For each EmitEvent carrying mask s there must be an earlier CompareEvent
    with outcome EQ whose operands, decoded under the solver's declared
    encoding, compared subset_sum(instance, s) against the target. A trace
    with no emission passes vacuously.
    """
    target = instance.target
    emits_seen = 0
    witnessed = set()
    result = True
    for event in trace:
        if isinstance(event, CompareEvent):
            if event.outcome is Ordering.EQ:
                witnessed.add(_decode_compared_pair(event, target, encoding))
        elif isinstance(event, EmitEvent):
            emits_seen += 1
            if emits_seen > 1:
                raise TraceError("trace contains more than one emission")
            try:
                check_mask(instance, event.mask)
            except (TypeError, ValueError) as exc:
                raise TraceError(f"emitted mask invalid: {exc}") from exc
            if (subset_sum(instance, event.mask), target) not in witnessed:
                result = False
    return result


@dataclass(frozen=True)
class RowCheck:
    """Tradeoff constraint outcome for one experiment row."""
    index: int
    n: int
    peak_sorted_len: int
    elementary_ops: int
    t_ge_m_ge_1: bool
    mt_ge_pow2n: bool


@dataclass(frozen=True)
class TradeoffReport:
    rows: list[RowCheck] = field(default_factory=list)

    @property
    def t_ge_m_violations(self) -> list[RowCheck]:
        return [r for r in self.rows if not r.t_ge_m_ge_1]

    @property
    def mt_violations(self) -> list[RowCheck]:
        return [r for r in self.rows if not r.mt_ge_pow2n]

    @property
    def ok(self) -> bool:
        return not self.t_ge_m_violations and not self.mt_violations

    def summary(self) -> str:
        total = len(self.rows)
        lines = [
            f"T>=M>=1:  {total - len(self.t_ge_m_violations)}/{total} rows ok",
            f"M*T>=2^n: {total - len(self.mt_violations)}/{total} rows ok",
        ]
        for row in self.t_ge_m_violations:
            lines.append(f"  row {row.index}: T={row.elementary_ops} M={row.peak_sorted_len}"
                         f" violates T>=M>=1")
        for row in self.mt_violations:
            lines.append(f"  row {row.index}: M*T={row.peak_sorted_len * row.elementary_ops}"
                         f" < 2^{row.n}")
        return "\n".join(lines)


def tradeoff_report(records) -> TradeoffReport:
    """Check T >= M >= 1 and M*T >= 2^n on each measured record.

    This is an empirical check of the measured counters of our own runs,
    nothing more. Records need n, peak_sorted_len, and elementary_ops.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to check")
    rows = []
    for i, rec in enumerate(records):
        m = rec.peak_sorted_len
        t = rec.elementary_ops
        rows.append(RowCheck(
            index=i,
            n=rec.n,
            peak_sorted_len=m,
            elementary_ops=t,
            t_ge_m_ge_1=t >= m >= 1,
            mt_ge_pow2n=m * t >= (1 << rec.n),
        ))
    return TradeoffReport(rows)
