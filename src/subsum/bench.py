"""Scaling experiments: run solvers over an n-grid and record C/M/T rows.

Rows are deterministic except for the wall_time column, which is reported
for context but never asserted on. Growth is summarized as the least
squares slope of log2(count) against n, so a count proportional to 2^n
fits slope 1.0 and one proportional to sqrt(2^n) fits slope 0.5.
"""

from __future__ import annotations

import io
import math
import re
import sys
import time
from dataclasses import dataclass

from .generators import (FAMILY_POWERS2, FAMILY_RANDOM, GeneratorSpec,
                         gen_planted, gen_powers_of_two, gen_random_wide)
from .ledger import ComparisonLedger
from .model import Instance, _int_text, _parse_decimal, _quote, _write_text
from .rng import derive_seed
from .solvers import BRUTE_FORCE_MAX_N, MITM_MAX_N, brute_force_solve, mitm_solve

ALGO_BRUTE = "brute"
ALGO_MITM = "mitm"
BENCH_ALGOS = (ALGO_BRUTE, ALGO_MITM)

CSV_FIELDS = ["n", "family", "algo", "seed", "trial", "C", "M", "T", "wall_time"]
_INT_COLUMNS = (0, 3, 4, 5, 6, 7)
# The largest n a bench row of each algorithm can have: the solver's cap.
_N_CAPS = {ALGO_BRUTE: BRUTE_FORCE_MAX_N, ALGO_MITM: MITM_MAX_N}
_WALL_TIME_RE = re.compile(r"[0-9]+\.[0-9]+")


@dataclass(frozen=True)
class ExperimentRecord:
    """One benchmark row; C/M/T are the ledger counters of a single run."""
    n: int
    family: str
    algo: str
    seed: int
    trial: int
    compare_count: int
    peak_sorted_len: int
    elementary_ops: int
    wall_time: float


@dataclass(frozen=True)
class GrowthFit:
    """Least squares fit of log2(count) against n."""
    slope: float
    intercept: float
    residual: float


def fit_growth(points) -> GrowthFit:
    """Fit (n, count) pairs; requires at least 4 distinct n and counts > 0."""
    points = list(points)
    if len({n for n, _ in points}) < 4:
        raise ValueError("need at least 4 distinct n values to fit growth")
    xs = []
    for n, count in points:
        if count <= 0:
            raise ValueError(f"count must be positive to fit log growth, "
                             f"got {_quote(count)} at n={_quote(n)}")
        try:  # not exit 1 from the CLI, which reads as a tradeoff violation
            xs.append(float(n))
        except OverflowError:
            raise ValueError(f"n={_quote(n)} is too large to fit as a float") from None
    ys = [math.log2(count) for _, count in points]
    import statistics  # here, not at the top: it loads decimal and fractions
    slope, intercept = statistics.linear_regression(xs, ys)
    rmse = math.sqrt(sum((y - (slope * x + intercept)) ** 2
                         for x, y in zip(xs, ys)) / len(xs))
    return GrowthFit(slope, intercept, rmse)


def _build_instance(family: str, n: int, seed: int, planted_size: int | None) -> Instance:
    if family == FAMILY_POWERS2:
        return gen_powers_of_two(n)
    if family == FAMILY_RANDOM:
        return gen_random_wide(n, seed)
    return gen_planted(n, seed, planted_size)[0]


def run_scaling_experiment(algo: str, family: str, n_min: int, n_max: int,
                           step: int, trials: int, master_seed: int, *,
                           planted_size: int | None = None) -> list[ExperimentRecord]:
    """One record per (n, trial) of the grid rows that run, in order.

    Per-row seeds are derived statelessly from (master_seed, n, trial), so
    the rows a run produces never depend on which other rows ran. Grid points
    below planted_size or past _N_CAPS[algo] are skipped before any is drawn,
    one stderr warning per reason. The grid is refused if none is left, if
    GeneratorSpec refuses it at n_max, or unless 0 <= n_min <= n_max.
    """
    GeneratorSpec(family, n_max, master_seed, planted_size)
    if not 0 <= n_min <= n_max:
        raise ValueError(f"need 0 <= n_min <= n_max, got n_min={_int_text(n_min)}, "
                         f"n_max={_int_text(n_max)}")
    if step < 1:
        raise ValueError("step must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if algo not in _N_CAPS:
        raise ValueError(f"unknown benchmark algorithm {algo!r}, expected one of {BENCH_ALGOS}")
    # grid[:below] is below the planted size, grid[upto:] past the cap.
    # Range slices and indices are exact for any int, where len() overflows.
    grid, cap, size = range(n_min, n_max + 1, step), _N_CAPS[algo], planted_size or 0
    below, upto = max(0, -((n_min - size) // step)), max(0, (cap - n_min) // step + 1)
    skipped = [f"n={_int_text(r[0])}..{_int_text(r[-1])}: {why}" for r, why in (
        (grid[:below], f"planted size {size} exceeds n"),
        (grid[upto:], f"{algo} is capped at n={cap}")) if r]
    if not grid[below:upto]:
        raise ValueError(f"no row of the grid runs: {'; '.join(skipped)}")
    for note in skipped:
        print(f"warning: skipping {note}", file=sys.stderr)
    solver = brute_force_solve if algo == ALGO_BRUTE else mitm_solve
    records = []
    for n in grid[below:upto]:
        for trial in range(trials):
            seed = derive_seed(master_seed, n, trial)
            instance = _build_instance(family, n, seed, planted_size)
            ledger = ComparisonLedger()
            start = time.perf_counter()
            result = solver(instance, ledger)
            elapsed = time.perf_counter() - start
            records.append(ExperimentRecord(
                n=n, family=family, algo=algo, seed=seed, trial=trial,
                compare_count=result.compare_count,
                peak_sorted_len=result.peak_sorted_len,
                elementary_ops=result.elementary_ops,
                wall_time=round(elapsed, 6),  # matches the CSV's precision
            ))
    return records


def write_records_csv(records, path) -> None:
    """Write rows to path, sorted by (n, trial), replacing what it held."""
    import csv  # here, not at the top: only bench CSVs use it
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(CSV_FIELDS)
    for r in sorted(records, key=lambda r: (r.n, r.trial)):
        writer.writerow([r.n, r.family, r.algo, r.seed, r.trial,
                         r.compare_count, r.peak_sorted_len, r.elementary_ops,
                         f"{r.wall_time:.6f}"])
    _write_text(path, text.getvalue())


def _parse_count(text: str, what: str) -> int:
    value = _parse_decimal(text, what)
    if value < 0:
        raise ValueError(f"{what} must be nonnegative, got {_quote(value)}")
    return value


def read_records_csv(path) -> list[ExperimentRecord]:
    """Read rows in the grammar write_records_csv writes, refusing any other.

    n, seed, trial, C, M and T are nonnegative decimal integers as instance
    files write them (int() would also take "1_0", " 7 " and non-ASCII
    digits), and wall_time is digits.digits (float() would also take "nan"
    and "1e3"). family and algo are free labels. No bench run writes a
    seed of 2^64 or more (derive_seed's range), M = 0 (a ledger's peak
    has a floor of 1) or a brute or mitm row whose n passes that solver's
    cap, so those are refused too. A malformed row raises ValueError
    naming its line, and a bad integer's column, as does an integer past
    the interpreter's int-to-str digit limit.
    """
    import csv  # here, not at the top: only bench CSVs use it
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_FIELDS:
            raise ValueError(f"unexpected CSV header {_quote(header)}")
        records = []
        for row in reader:
            where = f"malformed CSV row at line {reader.line_num}"
            if len(row) != len(CSV_FIELDS) or not _WALL_TIME_RE.fullmatch(row[8]):
                raise ValueError(f"{where}: {_quote(row)}")
            try:  # names the column of a non-decimal, over-long or negative integer
                n, seed, trial, c, m, t = [_parse_count(row[i], CSV_FIELDS[i])
                                           for i in _INT_COLUMNS]
                cap = _N_CAPS.get(row[2])
                if cap is not None and n > cap:
                    raise ValueError(f"n={_quote(n)} is past {row[2]}'s cap of n={cap}")
                if seed >> 64:
                    raise ValueError(f"seed must be below 2^64, got {_quote(seed)}")
                if m < 1:
                    raise ValueError(f"M must be at least 1, got {m}")
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            records.append(ExperimentRecord(
                n=n, family=row[1], algo=row[2], seed=seed, trial=trial,
                compare_count=c, peak_sorted_len=m, elementary_ops=t,
                wall_time=float(row[8]),
            ))
    return records


def group_records(records) -> dict[tuple[str, str], list[ExperimentRecord]]:
    """Group rows by (algo, family), preserving row order."""
    groups: dict[tuple[str, str], list[ExperimentRecord]] = {}
    for r in records:
        groups.setdefault((r.algo, r.family), []).append(r)
    return groups


@dataclass(frozen=True)
class TradeoffReport:
    """The rows that break T >= M >= 1 and M*T >= 2^n, as (index, record)."""
    total: int
    t_ge_m_violations: list[tuple[int, ExperimentRecord]]
    mt_violations: list[tuple[int, ExperimentRecord]]

    @property
    def ok(self) -> bool:
        return not self.t_ge_m_violations and not self.mt_violations

    def summary(self) -> str:
        total, t_ge_m, mt = self.total, self.t_ge_m_violations, self.mt_violations
        return "\n".join([
            f"T>=M>=1:  {total - len(t_ge_m)}/{total} rows ok",
            f"M*T>=2^n: {total - len(mt)}/{total} rows ok",
            *(f"  row {i}: T={_int_text(r.elementary_ops)} "
              f"M={_int_text(r.peak_sorted_len)} violates T>=M>=1" for i, r in t_ge_m),
            *(f"  row {i}: M*T={_int_text(r.peak_sorted_len * r.elementary_ops)}"
              f" < 2^{_int_text(r.n)}" for i, r in mt)])


def tradeoff_report(records) -> TradeoffReport:
    """Check T >= M >= 1 and M*T >= 2^n on each measured record.

    This is an empirical check of the measured counters of our own runs,
    nothing more. Records need n, peak_sorted_len, and elementary_ops; a
    row's index counts within the records passed.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to check")
    t_ge_m, mt = [], []
    for i, r in enumerate(records):
        m, t = r.peak_sorted_len, r.elementary_ops
        if not t >= m >= 1:
            t_ge_m.append((i, r))
        # M*T >= 2^n without building 2^n, which a CSV's n could make
        # huge, or a shift, which a negative n would make raise.
        if not (m * t > 0 and (m * t).bit_length() > r.n):
            mt.append((i, r))
    return TradeoffReport(len(records), t_ge_m, mt)
