"""Per-layer spans recorded from outside the package.

The tracer wraps each public subsum function at the name its caller looks
it up under (``subsum.solvers.half_sums`` is what ``mitm_solve`` calls,
``subsum.cli.generate`` is what ``cli.main`` calls), so spans nest the way
the calls do and no file under ``src/`` changes. Spans stay in memory;
a layer's self time is its spans' duration minus their children's.

Also here: the bare-loop floors (the same walks with no ledger and no
tuples), timed on the very calls the traced ops made.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager

import subsum.bench
import subsum.cli
import subsum.generators
import subsum.ledger
import subsum.model
import subsum.solvers

# (module, attribute, span name). One span name may cover several lookups
# of the same layer call from different callers.
TARGETS = (
    (subsum.bench, "run_scaling_experiment", "bench.run_scaling_experiment"),
    (subsum.bench, "gen_powers_of_two", "generators.generate"),
    (subsum.bench, "gen_random_wide", "generators.generate"),
    (subsum.bench, "gen_planted", "generators.generate"),
    (subsum.bench, "brute_force_solve", "solvers.brute_force_solve"),
    (subsum.bench, "mitm_solve", "solvers.mitm_solve"),
    (subsum.solvers, "half_sums", "solvers.half_sums"),
    (subsum.generators, "has_distinct_subset_sums", "generators.has_distinct_subset_sums"),
    (subsum.cli, "main", "cli.main"),
    (subsum.cli, "generate", "generators.generate"),
    (subsum.cli, "write_instance", "model.write_instance"),
    (subsum.cli, "read_instance", "model.read_instance"),
    (subsum.cli, "brute_force_solve", "solvers.brute_force_solve"),
    (subsum.cli, "mitm_solve", "solvers.mitm_solve"),
    (subsum.cli, "dump_trace", "ledger.dump_trace"),
    (subsum.model, "read_instance", "model.read_instance"),
    (subsum.ledger, "parse_trace", "ledger.parse_trace"),
    (subsum.ledger, "solution_witness_check", "ledger.witness_check"),
)


class Span:
    __slots__ = ("name", "op", "parent", "start", "end")

    def __init__(self, name, op, parent):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = self.end = 0.0


class Tracer:
    """Spans plus the counts taken at the same call boundaries."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = Counter()
        self.brute_calls = []   # (instance, solution) per brute_force_solve call
        self.half_calls = []    # (instance, half, entries) per half_sums call
        self.op = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span = Span(name, self.op, self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._count(name, args, result)
            return result
        return traced

    def _count(self, name, args, result):
        counts = self.counts
        if name.startswith("solvers.") and name != "solvers.half_sums":
            counts["C"] += result.compare_count
            counts["M"] += result.peak_sorted_len
            counts["T"] += result.elementary_ops
            if name == "solvers.brute_force_solve":
                counts["brute_C"] += result.compare_count
                self.brute_calls.append((args[0], result.solution))
        elif name == "solvers.half_sums":
            counts["half_entries"] += len(result)
            self.half_calls.append((args[0], args[1], len(result)))
        elif name == "generators.has_distinct_subset_sums":
            counts["distinct_checks"] += 1
            counts["distinct_ok"] += bool(result)
        elif name == "ledger.dump_trace":
            counts["trace_events"] += len(args[0])
            counts["dump_bytes"] += len(result.encode("utf-8"))

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in TARGETS]
        try:
            for (module, attr, name), (_, _, fn) in zip(TARGETS, originals):
                setattr(module, attr, self._wrap(fn, name))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def times(self) -> dict[str, tuple[float, float]]:
        """Span name -> (total seconds, self seconds)."""
        total = Counter()
        child = Counter()
        for span in self.spans:
            duration = span.end - span.start
            total[span.name] += duration
            if span.parent is not None:
                child[self.spans[span.parent].name] += duration
        return {name: (total[name], total[name] - child[name]) for name in total}

    def dump(self) -> list:
        return [[s.op, s.name, s.parent, s.start, s.end] for s in self.spans]


def brute_loop(elements, target):
    """brute_force_solve's ascending-mask prefix-sum walk with no ledger."""
    prefix = [0]
    for a in elements:
        prefix.append(prefix[-1] + a)
    total = 0
    if total == target:
        return 0
    for mask in range(1, 1 << len(elements)):
        low_index = (mask & -mask).bit_length() - 1
        total += elements[low_index] - prefix[low_index]
        if total == target:
            return mask
    return None


def half_values(instance, half) -> tuple:
    split = (instance.n + 1) // 2
    if half is subsum.solvers.Half.FRONT:
        return instance.elements[:split]
    return instance.elements[split:]


def half_sums_int(values) -> list[int]:
    """Int-only doubling enumeration: half_sums with no tuples and no masks."""
    sums = [0]
    for a in values:
        sums += [s + a for s in sums]
    return sums


def floor_brute_s(brute_calls) -> float:
    """Bare-loop time over the same brute calls; each must find the same mask."""
    elapsed = 0.0
    for instance, solution in brute_calls:
        start = time.perf_counter()
        mask = brute_loop(instance.elements, instance.target)
        elapsed += time.perf_counter() - start
        if mask != solution:
            raise RuntimeError(f"brute floor found {mask}, solver found {solution}")
    return elapsed


def floor_half_sums_s(half_calls) -> float:
    """Int-only enumeration time over the same half_sums calls."""
    elapsed = 0.0
    for instance, half, entries in half_calls:
        values = half_values(instance, half)
        start = time.perf_counter()
        sums = half_sums_int(values)
        elapsed += time.perf_counter() - start
        if len(sums) != entries:
            raise RuntimeError(f"half floor made {len(sums)} sums, solver made {entries}")
    return elapsed


def half_sums_peak_mb(half_calls, limit: int = 2) -> float:
    """Largest tracemalloc peak of re-running the first half_sums calls, in MB."""
    peak = 0
    for instance, half, _ in half_calls[:limit]:
        tracemalloc.start()
        try:
            entries = subsum.solvers.half_sums(instance, half)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del entries
    return peak / 1e6


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float) -> dict[str, float]:
    """Every per-layer metric; a layer the workload never enters reads 0."""
    times = tracer.times()
    counts = tracer.counts

    def total(name):
        return times.get(name, (0.0, 0.0))[0]

    def self_time(name):
        return times.get(name, (0.0, 0.0))[1]

    brute_s = total("solvers.brute_force_solve")
    solver_s = brute_s + total("solvers.mitm_solve")
    checks = counts["distinct_checks"]
    return {
        "solvers.half_sums.s": total("solvers.half_sums"),
        "solvers.half_entries": counts["half_entries"],
        "solvers.half_sums.peak_mb": half_sums_peak_mb(tracer.half_calls),
        "solvers.mitm_solve.self_s": self_time("solvers.mitm_solve"),
        "solvers.brute_force_solve.s": brute_s,
        "ledger.C": counts["C"],
        "ledger.M": counts["M"],
        "ledger.T": counts["T"],
        "ledger.ns_per_compare": brute_s * 1e9 / counts["brute_C"] if counts["brute_C"] else 0.0,
        "ledger.ns_per_T": solver_s * 1e9 / counts["T"] if counts["T"] else 0.0,
        "ledger.trace_events": counts["trace_events"],
        "ledger.dump_trace.s": total("ledger.dump_trace"),
        "ledger.dump_bytes": counts["dump_bytes"],
        "ledger.parse_trace.s": total("ledger.parse_trace"),
        "ledger.witness_check.s": total("ledger.witness_check"),
        "generators.generate.s": total("generators.generate"),
        "generators.has_distinct_subset_sums.s": total("generators.has_distinct_subset_sums"),
        "generators.distinct_ok_ratio": counts["distinct_ok"] / checks if checks else 0.0,
        "model.write_instance.s": total("model.write_instance"),
        "model.read_instance.s": total("model.read_instance"),
        "cli.main.self_s": self_time("cli.main"),
        "bench.run_scaling_experiment.self_s": self_time("bench.run_scaling_experiment"),
        "trace_overhead": traced_s / untraced_s,
        "floor.brute_loop_s": floor_brute_s(tracer.brute_calls),
        "floor.half_sums_int_s": floor_half_sums_s(tracer.half_calls),
    }
