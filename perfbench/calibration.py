"""Calibration work, timed right after every op, so op times read in units of it.

A shared host's speed can drift by tens of percent from minute to minute,
and it slows different code by different amounts: on a 2-core VM, an
allocation-heavy mitm op slowed 1.45x while a plain integer loop slowed
1.25x. So each workload calibrates against a frozen, subsum-free copy of
the kind of work its op does (method-call comparisons through a small
ledger, namedtuple lists and sorts, trace text out and back), on fixed
inputs. Op time over calibration time then stays steady where seconds do
not. The code here must not change, or every op_rel figure moves with it.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

# Fixed 60-bit values, so sums span several int digits as in the random family.
VALUES = tuple((0x9E3779B97F4A7C15 * (i + 1)) ** 2 % (1 << 60) for i in range(32))


class _Ordering(enum.Enum):
    EQ = "EQ"
    LT = "LT"
    GT = "GT"


class _Event(NamedTuple):
    lhs: int
    rhs: int
    outcome: _Ordering


class _Entry(NamedTuple):
    sum: int
    mask: int


class _Ledger:
    __slots__ = ("compares", "charged", "trace")

    def __init__(self, trace: bool):
        self.compares = 0
        self.charged = 0
        self.trace = [] if trace else None

    def compare(self, lhs: int, rhs: int) -> _Ordering:
        self.compares += 1
        self.charged += 1
        if lhs == rhs:
            outcome = _Ordering.EQ
        elif lhs < rhs:
            outcome = _Ordering.LT
        else:
            outcome = _Ordering.GT
        if self.trace is not None:
            self.trace.append(_Event(lhs, rhs, outcome))
        return outcome

    def charge(self, count: int = 1) -> None:
        self.charged += count


def brute_walk(values, target: int, trace: bool = False) -> _Ledger:
    """Ascending-mask prefix-sum walk, one ledger comparison per mask."""
    ledger = _Ledger(trace)
    prefix = [0]
    for a in values:
        prefix.append(prefix[-1] + a)
    compare, charge, eq = ledger.compare, ledger.charge, _Ordering.EQ
    total = 0
    charge()
    if compare(total, target) is eq:
        return ledger
    for mask in range(1, 1 << len(values)):
        low = (mask & -mask).bit_length() - 1
        total += values[low] - prefix[low]
        charge()
        if compare(total, target) is eq:
            break
    return ledger


def mitm_walk(values, target: int) -> _Ledger:
    """Namedtuple half lists by doubling, two sorts, a two-pointer scan."""
    ledger = _Ledger(False)
    split = (len(values) + 1) // 2

    def half(indices):
        entries = [_Entry(0, 0)]
        for i in indices:
            a, bit = values[i], 1 << i
            entries += [_Entry(e.sum + a, e.mask | bit) for e in entries]
        ledger.charge(len(entries))
        return entries

    lo = sorted(half(range(split)))
    hi = sorted((target - e.sum, e.mask) for e in half(range(split, len(values))))
    i = j = 0
    while i < len(lo) and j < len(hi):
        outcome = ledger.compare(lo[i][0], hi[j][0])
        if outcome is _Ordering.EQ:
            break
        if outcome is _Ordering.LT:
            i += 1
        else:
            j += 1
    return ledger


def trace_roundtrip(values, target: int) -> list:
    """A traced brute walk, dumped to CMP lines and parsed back."""
    trace = brute_walk(values, target, trace=True).trace
    text = "".join(f"CMP {e.lhs} {e.rhs} {e.outcome.value}\n" for e in trace)
    events = []
    for line in text.splitlines():
        _, lhs, rhs, code = line.split()
        events.append(_Event(int(lhs), int(rhs), _Ordering(code)))
    return events


# Per workload: about a tenth of an op's work, of the same kind.
_POWERS2 = tuple(1 << i for i in range(13))
_PLANTED = tuple(v >> 28 for v in VALUES[:11])
CALIBRATIONS = {
    "mitm_random": lambda: mitm_walk(VALUES[:24], sum(VALUES[:24]) // 3),
    "brute_powers2": lambda: brute_walk(_POWERS2, 1 << 13),
    "planted_cli": lambda: trace_roundtrip(_PLANTED, -1),
}
