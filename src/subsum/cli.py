"""Command line frontend: generate, solve, bench, report, check.

Exit codes follow one convention everywhere: 0 on success (solution found,
check passed, constraints hold), 1 for a negative answer (no solution,
mask mismatch, tradeoff violation), 2 for errors (malformed input, caps,
I/O). All configuration is via flags; no environment variables.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import re
import sys

from .bench import (BENCH_ALGOS, fit_growth, group_records, read_records_csv,
                    run_scaling_experiment, write_records_csv)
from .generators import FAMILIES, GeneratorSpec, dumps_meta, generate
from .ledger import (FULL_TRACE_MAX_N, ComparisonLedger, dump_trace,
                     tradeoff_report)
from .model import (_DECIMAL_RE, InstanceFormatError, _parse_decimal, _quote,
                    _write_text, read_instance, subset_sum, write_instance)
from .solvers import CapExceededError, brute_force_solve, dp_solve, mitm_solve

SOLVE_ALGOS = ("brute", "mitm", "dp")
_HEX_RE = re.compile(r"[0-9a-fA-F]+")


class CliError(Exception):
    """User-facing error that maps to exit code 2."""


def meta_path_for(out_path: str) -> str:
    return out_path.removesuffix(".json") + ".meta.json"


def _same_file(path: str, other: str) -> bool:
    """Whether two paths name one file: through a symlink, dangling too, or a hard link."""
    return os.path.realpath(path) == os.path.realpath(other) or (
        os.path.exists(path) and os.path.exists(other) and os.path.samefile(path, other))


def _parse_int(value: str) -> int:
    # int() would accept "1_0", spaces and non-ASCII digits; files do not.
    if not _DECIMAL_RE.fullmatch(value):
        raise argparse.ArgumentTypeError(f"expected a decimal integer, got {_quote(value)}")
    try:
        return _parse_decimal(value, "the integer")
    except InstanceFormatError as exc:  # past the interpreter's digit limit
        raise argparse.ArgumentTypeError(str(exc)) from None


def _produce(paths, work, write):
    """Run work, then write(result) to paths, and return work's result.

    Each path is opened before work runs, without truncating it, so a path
    that cannot be written is refused before any work is done, and an
    existing file keeps its bytes until work has succeeded. A refused or
    failed run removes only the files it created; a failed write removes
    every path that is a regular file (not a device such as /dev/stdout),
    so a run leaves all of its files or none. A symbolic link is followed:
    the file it names is what is created, written or removed, and the link
    itself is kept.
    """
    created = []
    try:
        for path in paths:
            if os.path.islink(path) and not os.path.exists(path):
                path = os.path.realpath(path)  # the file a dangling link names
            try:
                open(path, "x", encoding="utf-8").close()
                created.append(path)
            except FileExistsError:
                open(path, "a", encoding="utf-8").close()
        result = work()
    except BaseException:
        for path in created:
            os.remove(path)
        raise
    try:
        write(result)
    except BaseException:
        for path in map(os.path.realpath, paths):
            if os.path.isfile(path):
                os.remove(path)
        raise
    return result


def cmd_gen(args) -> int:
    spec = GeneratorSpec(family=args.family, n=args.n, seed=args.seed,
                         planted_size=args.size)
    meta_path = meta_path_for(args.out)
    if _same_file(args.out, meta_path):  # the sidecar would replace the instance
        raise CliError(f"--out {args.out} is its sidecar {meta_path}")

    def write(generated):
        instance, meta = generated
        write_instance(instance, args.out)
        _write_text(meta_path, dumps_meta(meta))
    _produce([args.out, meta_path], lambda: generate(spec), write)
    print(f"wrote {args.out}")
    print(f"wrote {meta_path}")
    return 0


class _RenderedTrace(list):
    """A ledger trace that holds each run as text, rendered on arrival.

    A ledger hands its trace every event through extend. dump_trace, looked
    up in this module when called, writes each event on its own line, so
    the items concatenate to the dump of the whole trace.
    """

    def extend(self, run):
        self.append(dump_trace(run))


def cmd_solve(args) -> int:
    instance = read_instance(args.in_path)
    ledger = ComparisonLedger(_RenderedTrace() if args.trace else None)
    if args.algo == "dp":
        if args.trace:
            raise CliError("--trace is not supported for the uninstrumented dp solver")
        solution = dp_solve(instance)
    else:
        solver = brute_force_solve if args.algo == "brute" else mitm_solve
        if args.trace:
            # Writing the trace would replace the instance it was read from.
            if _same_file(args.in_path, args.trace):
                raise CliError(f"--trace {args.trace} is the --in file")
            solution = _produce([args.trace], lambda: solver(instance, ledger).solution,
                                lambda _: _write_text(args.trace, *ledger.trace))
        else:
            solution = solver(instance, ledger).solution
    if solution is not None:
        print(f"SOLUTION {solution:x} {subset_sum(instance, solution)}")
    else:
        print("NOSOLUTION")
    print(f"C={ledger.compare_count} M={ledger.peak_sorted_len} T={ledger.elementary_ops}")
    return 0 if solution is not None else 1


def cmd_bench(args) -> int:
    if not args.force and os.path.lexists(args.out):
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), args.out)
    records = _produce(
        [args.out],
        lambda: run_scaling_experiment(
            args.algo, args.family, args.n_min, args.n_max, args.step,
            args.trials, args.seed, planted_size=args.size),
        lambda rows: write_records_csv(rows, args.out))
    print(f"wrote {len(records)} rows to {args.out}")
    return 0


def cmd_report(args) -> int:
    records = read_records_csv(args.csv)
    if not records:
        raise CliError("CSV contains no rows")
    groups = group_records(records)
    any_tm_violation = False
    for (algo, family), rows in sorted(groups.items()):
        # Header first: if fit_growth refuses the group, stdout ends naming it.
        print(f"group algo={algo} family={family} rows={len(rows)} "
              f"distinct_n={len({r.n for r in rows})}")
        fit_c = fit_growth((r.n, r.compare_count) for r in rows)
        fit_t = fit_growth((r.n, r.elementary_ops) for r in rows)
        report = tradeoff_report(rows)
        any_tm_violation |= bool(report.t_ge_m_violations)
        print(f"  log2(C) vs n: slope={fit_c.slope:.4f} "
              f"intercept={fit_c.intercept:.4f} rmse={fit_c.residual:.4f}")
        print(f"  log2(T) vs n: slope={fit_t.slope:.4f} "
              f"intercept={fit_t.intercept:.4f} rmse={fit_t.residual:.4f}")
        for line in report.summary().splitlines():
            print(f"  {line}")
    print("TRADEOFF VIOLATION" if any_tm_violation else "TRADEOFF OK")
    return 1 if any_tm_violation else 0


def cmd_check(args) -> int:
    instance = read_instance(args.in_path)
    # int(text, 16) would accept whitespace, "_", a sign and "0x"; the mask
    # format is bare hex digits, as decimal strings are in instance files.
    if not _HEX_RE.fullmatch(args.mask):
        raise CliError(f"mask must be hexadecimal, got {_quote(args.mask)}")
    mask = int(args.mask, 16)
    total = subset_sum(instance, mask)
    match = total == instance.target
    print(f"{'MATCH' if match else 'NOMATCH'} {mask:x} {total}")
    return 0 if match else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `subsum` argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="subsum",
        description="Exact subset-sum solvers with comparison-count instrumentation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file plus metadata sidecar")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", required=True, type=_parse_int)
    p.add_argument("--seed", type=_parse_int, default=0)
    p.add_argument("--size", type=_parse_int, default=None,
                   help="planted subset size (planted family only; default n//2)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--algo", required=True, choices=SOLVE_ALGOS)
    p.add_argument("--trace", default=None,
                   help=f"write a full event trace to this path (n <= {FULL_TRACE_MAX_N})")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run a scaling experiment to CSV")
    p.add_argument("--algo", required=True, choices=BENCH_ALGOS)
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n-min", required=True, type=_parse_int)
    p.add_argument("--n-max", required=True, type=_parse_int)
    p.add_argument("--step", type=_parse_int, default=1)
    p.add_argument("--trials", type=_parse_int, default=1)
    p.add_argument("--seed", type=_parse_int, default=0)
    p.add_argument("--size", type=_parse_int, default=None,
                   help="planted subset size (planted family only)")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true",
                   help="overwrite an existing CSV instead of refusing")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="growth fits and tradeoff checks over a bench CSV")
    p.add_argument("--csv", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("check", help="verify a solution mask against an instance")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--mask", required=True, help="candidate mask in hex")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, CapExceededError, InstanceFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # never exit 1, which reads as "no solution"
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
