"""Deterministic exact subset-sum solvers.

Three independent routes to the same answer:

  * brute_force_solve: visit all masks in ascending order, counting one
    comparison per mask visited. The Theta(2^n) baseline; it checks masks
    in blocks of 2^10, each with one str.find over a hex text of the
    low-element sums, which still scans the block's entries in order.
  * mitm_solve: split the elements into a front and back half, enumerate
    each half's subset sums already in ascending order (Horowitz-Sahni
    merges, no sort from scratch), and run a linear two-pointer scan for a
    crossing pair. Theta(sqrt(2^n) * n) time.
  * dp_solve: pseudo-polynomial reachability table over the sum range,
    uninstrumented; a cross-check oracle for small-magnitude instances.

The ledger runs and charges every counted phase (ComparisonLedger's
sorted_sums, lowest_mask and scan); this module only reads its counters.
All solvers are sequential and deterministic: identical instances produce
identical results and identical counters on every run.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

from .ledger import FULL_TRACE_MAX_N, ComparisonLedger, _gc_paused, front_size
from .model import Instance, _quote, all_subset_sums, verify

BRUTE_FORCE_MAX_N = 30
MITM_MAX_N = 50
DP_MAX_RANGE = 10 ** 7


class CapExceededError(RuntimeError):
    """A configured size cap was hit; the solver refuses rather than degrade."""


class Half(enum.Enum):
    FRONT = "front"
    BACK = "back"


class HalfSumEntry(NamedTuple):
    sum: int
    mask: int


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solver run plus its ledger counter snapshot."""
    solution: int | None
    compare_count: int
    peak_sorted_len: int
    elementary_ops: int

    @property
    def found(self) -> bool:
        return self.solution is not None


def _result(instance: Instance, ledger: ComparisonLedger, solution) -> SolveResult:
    """Emit and verify a found mask, then snapshot the ledger's counters."""
    if solution is not None:
        ledger.emit(solution)
        if not verify(instance, solution):
            raise RuntimeError(f"solver produced mask {solution:#x}, which misses the target")
    return SolveResult(solution, ledger.compare_count, ledger.peak_sorted_len,
                       ledger.elementary_ops)


@contextmanager
def _run(instance: Instance, ledger: ComparisonLedger | None, solver: str, max_n: int):
    """The run's ledger, fresh if None; refuses n past a cap and a used ledger.

    A tracing ledger's run has the cyclic collector paused (see _gc_paused);
    a counters-only run leaves gc alone.
    """
    if instance.n > max_n:
        raise CapExceededError(f"{solver} is capped at n={max_n}, got n={instance.n}")
    if ledger is None:
        ledger = ComparisonLedger()
    elif ledger.trace is not None and instance.n > FULL_TRACE_MAX_N:
        raise CapExceededError(
            f"full tracing is capped at n={FULL_TRACE_MAX_N}, got n={instance.n}")
    elif (ledger.compare_count or ledger.elementary_ops
          or ledger.peak_sorted_len != 1 or ledger.trace):
        raise ValueError(f"{solver} needs a fresh ledger; this one already "
                         "holds counts or trace events")
    if ledger.trace is None:
        yield ledger
    else:
        with _gc_paused():
            yield ledger


def brute_force_solve(instance: Instance, ledger: ComparisonLedger | None = None) -> SolveResult:
    """Try every mask in ascending numeric order until one hits the target.

    The ledger's lowest_mask runs the blocked walk over the masks and
    charges each visited mask one comparison and one generated sum. No
    sorted list is built, so the ledger's peak stays at its floor of 1. On
    an unsolvable instance the comparison count is exactly 2^n. A tracing
    ledger records one event per visited mask, in ascending order. Refused
    past BRUTE_FORCE_MAX_N.
    """
    with _run(instance, ledger, "brute force", BRUTE_FORCE_MAX_N) as ledger:
        return _result(instance, ledger, ledger.lowest_mask(instance.elements, instance.target))


def half_sums(instance: Instance, half: Half) -> list[HalfSumEntry]:
    """All subset sums of one half of the instance, in ascending mask order.

    The front half covers element indices [0, ceil(n/2)); the back half
    covers the rest. Masks use absolute bit positions so a front mask and a
    back mask combine with a plain OR. Nothing is charged: mitm_solve's
    lists come from the ledger's sorted_sums. Refused past MITM_MAX_N, as
    mitm_solve is.
    """
    if not isinstance(half, Half):
        raise TypeError(f"half must be a Half, got {half!r}")
    if instance.n > MITM_MAX_N:
        raise CapExceededError(f"half lists are capped at n={MITM_MAX_N}, got n={instance.n}")
    split = front_size(instance.n)
    start, stop = (0, split) if half is Half.FRONT else (split, instance.n)
    sums = all_subset_sums(instance.elements[start:stop])
    return [HalfSumEntry(total, k << start) for k, total in enumerate(sums)]


def mitm_solve(instance: Instance, ledger: ComparisonLedger | None = None) -> SolveResult:
    """Meet-in-the-middle: sorted half-sum lists plus a two-pointer scan.

    The ledger's sorted_sums builds and charges the two half lists, plain
    ints already ascending: the front sums, and the values target - back
    sum. Each is charged as one sort of its length, so C/M/T do not depend
    on how the order is obtained. The ledger's scan walks the two lists to
    their first common value, where a front sum and a back sum combine to
    the target, and charges its comparisons. When either list runs out
    there is no solution; complete because both halves are enumerated
    exhaustively. A hit recovers each half's mask with lowest_mask,
    brute's blocked walk, on a fresh ledger that is then discarded, so
    recovery is untraced and uncharged, and the smallest front mask, then
    the smallest back mask, wins at the first crossing value. A tracing
    ledger's trace opens with the two lists' LIST events, from which
    solution_witness_check reads that its EQ compares split sums. Refused
    past MITM_MAX_N.
    """
    with _run(instance, ledger, "meet-in-the-middle", MITM_MAX_N) as ledger:
        target = instance.target
        split = front_size(instance.n)
        front, back = instance.elements[:split], instance.elements[split:]
        value = ledger.scan(ledger.sorted_sums(front),
                            ledger.sorted_sums([-a for a in back], target))
        recover = ComparisonLedger().lowest_mask  # its counts are discarded
        solution = None if value is None else (
            recover(front, value) | recover(back, target - value) << split)
        return _result(instance, ledger, solution)


def dp_solve(instance: Instance) -> int | None:
    """Reachability table over the sum range; returns a mask or None.

    Negative elements are handled by offsetting sums by the most negative
    reachable total. Kept uninstrumented on purpose: it exists to cross-check
    the enumerating solvers on small-magnitude instances, through a code path
    that shares nothing with them. Refused past a sum range of DP_MAX_RANGE.
    """
    elements = instance.elements
    min_sum = sum(a for a in elements if a < 0)
    max_sum = sum(a for a in elements if a > 0)
    if max_sum - min_sum > DP_MAX_RANGE:
        raise CapExceededError(
            f"sum range {_quote(max_sum - min_sum)} exceeds the DP cap {DP_MAX_RANGE}")
    target = instance.target
    if target < min_sum or target > max_sum:
        return None

    offset = -min_sum
    # reachable[i] has bit (s + offset) set iff some subset of the first i
    # elements sums to s.
    reachable = [1 << offset]
    for a in elements:
        prev = reachable[-1]
        shifted = prev << a if a >= 0 else prev >> -a
        reachable.append(prev | shifted)
    if not (reachable[-1] >> (target + offset)) & 1:
        return None

    mask = 0
    remaining = target
    for i in range(instance.n, 0, -1):
        if (reachable[i - 1] >> (remaining + offset)) & 1:
            continue
        mask |= 1 << (i - 1)
        remaining -= elements[i - 1]
    if remaining != 0:
        raise RuntimeError(f"dp walk-back left {remaining} of the target unmatched")
    return mask
