"""The subsum benchmark: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload mitm_random --seed 1 --seconds 30 --trace 0

Run it from the repository root. Workloads, metrics and bounds are in
BENCHMARK.json; the layer each per-layer metric measures, and the
end-to-end metric it should move on which workload, are in
perfbench/layers.json.

--trace 0 reports the end-to-end metrics. Right after every op the worker
times its workload's calibration (calibration.py: a frozen, subsum-free
copy of the same kind of work on fixed inputs), and op times are read in
units of it, because a shared host's speed drifts by tens of percent from
minute to minute while that ratio holds steady. op_rel.p50 and op_rel.p90
are the median and p90 of per-op wall time over calibration time;
ops_per_cal is passed ops per calibration time spent on ops and checks.
Also the workload process's peak RSS, and set-up time in seconds (process
start through imports and workload prep to the first op, median over
several fresh processes). Unscaled seconds are printed and kept in the
result file, but not gated. --trace 1 makes a separate run of a fixed
number of ops, each once untraced and once traced, and reports the
per-layer metrics.

Each workload runs in its own fresh, single-threaded Python process
(worker.py), closed loop with one client, against the package in the
checkout's src/. Every op's answer is checked; an op that raises or fails
its check counts in `failed`, and `correct` is false if any did.

Every metric is printed by name with its unit, and the last stdout line is
{"correct", "attempted", "failed", "metrics"}. The same result, with the
Python version, platform, nproc, git commit, seed, op count and sample
counts, is written to perfbench/out/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5          # fresh processes timed to READY, besides the measured one
PROBE_TIMEOUT_S = 20
DEADLINE_S = 170          # the whole command, so it ends within 180 s

E2E_UNITS = {"op_rel.p50": "ratio", "op_rel.p90": "ratio", "ops_per_cal": "1/cal",
             "peak_rss_mb": "MB", "setup_s": "s"}
E2E_RAW_UNITS = {"op_s.p50": "s", "op_s.p90": "s", "ops_per_s": "1/s", "cal_s.p50": "s"}
LAYER_UNITS = {
    "solvers.half_sums.s": "s", "solvers.half_entries": "count",
    "solvers.half_sums.peak_mb": "MB", "solvers.mitm_solve.self_s": "s",
    "solvers.brute_force_solve.s": "s",
    "ledger.C": "count", "ledger.M": "count", "ledger.T": "count",
    "ledger.ns_per_compare": "ns", "ledger.ns_per_T": "ns",
    "ledger.trace_events": "count", "ledger.dump_trace.s": "s",
    "ledger.dump_bytes": "bytes", "ledger.parse_trace.s": "s",
    "ledger.witness_check.s": "s",
    "generators.generate.s": "s", "generators.has_distinct_subset_sums.s": "s",
    "generators.distinct_ok_ratio": "ratio",
    "model.write_instance.s": "s", "model.read_instance.s": "s",
    "cli.main.self_s": "s", "bench.run_scaling_experiment.self_s": "s",
    "trace_overhead": "ratio",
    "floor.brute_loop_s": "s", "floor.half_sums_int_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _seed(value: str) -> int:
    seed = int(value)
    if not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError("seed must be in [0, 2^64)")
    return seed


def _seconds(value: str) -> float:
    seconds = float(value)
    if not seconds > 0:
        raise argparse.ArgumentTypeError("seconds must be positive")
    return seconds


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description="Run one subsum benchmark workload.")
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", required=True, type=_seed)
    p.add_argument("--seconds", required=True, type=_seconds)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def _remaining(deadline: float, cap: float = DEADLINE_S) -> float:
    return max(0.0, min(cap, deadline - time.monotonic()))


def start_worker(args, deadline: float, *, setup_only: bool):
    """Start worker.py; return (process, seconds from start to its READY line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    # Unbuffered, so reading READY leaves the rest of stdout to communicate().
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0)
    ready, _, _ = select.select([proc.stdout], [], [], _remaining(deadline, PROBE_TIMEOUT_S))
    line = proc.stdout.readline() if ready else b""
    setup_s = time.perf_counter() - start
    if line != b"READY\n":
        finish_worker(proc, deadline)
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup_s


def finish_worker(proc, deadline: float) -> bytes:
    """Wait for the worker, killing it at the deadline; its remaining stdout."""
    try:
        out, _ = proc.communicate(timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def percentiles(samples: list[float]) -> dict:
    """Median and p90, with the sample count and the samples beyond p90."""
    p90 = statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]
    return {"p50": statistics.median(samples), "p90": p90, "samples": len(samples),
            "beyond_p90": sum(1 for x in samples if x > p90)}


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(args, deadline: float) -> tuple[dict, dict, dict]:
    """Returns (printed result, metrics with units, run details)."""
    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, setup_s = start_worker(args, deadline, setup_only=True)
            finish_worker(proc, deadline)
            setup_samples.append(setup_s)
    proc, setup_s = start_worker(args, deadline, setup_only=False)
    setup_samples.append(setup_s)
    raw = json.loads(finish_worker(proc, deadline).strip().splitlines()[-1])

    details = {"problems": raw["problems"], "peak_rss_kb": raw["peak_rss_kb"]}
    if args.trace:
        values = raw["layers"]
        units = LAYER_UNITS
        details.update(op_count=raw["traced_ops"], spans=raw["spans"])
    else:
        ok = raw["attempted"] - raw["failed"]
        rel = percentiles([op / cal for op, cal in zip(raw["op_s"], raw["cal_s"])])
        secs = percentiles(raw["op_s"])
        values = {
            "op_rel.p50": rel["p50"],
            "op_rel.p90": rel["p90"],
            "ops_per_cal": ok / sum(w / c for w, c in zip(raw["work_s"], raw["cal_s"])),
            "peak_rss_mb": raw["peak_rss_kb"] * 1024 / 1e6,
            "setup_s": statistics.median(setup_samples),
        }
        units = E2E_UNITS
        details.update(
            op_count=raw["attempted"], wall_s=raw["wall_s"],
            samples={"op_rel": rel["samples"], "op_rel.beyond_p90": rel["beyond_p90"],
                     "setup_s": len(setup_samples)},
            seconds_unscaled={"op_s.p50": secs["p50"], "op_s.p90": secs["p90"],
                              "ops_per_s": ok / sum(raw["work_s"]),
                              "cal_s.p50": statistics.median(raw["cal_s"])},
            setup_samples_s=setup_samples)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return result, metrics, details


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "subsum" / "__init__.py").is_file():
        print(f"error: no subsum package at {ROOT / 'src' / 'subsum'}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in config["workloads"]])
    try:
        result, metrics, details = run(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(), "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT), **result, **details,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={details['op_count']} attempted={result['attempted']} "
          f"failed={result['failed']} python={record['python']} nproc={record['nproc']}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    for name, value in details.get("seconds_unscaled", {}).items():
        print(f"(unscaled, not gated) {name} = {value!r} {E2E_RAW_UNITS[name]}")
    for problem in details["problems"]:
        print(f"problem: {problem}")
    print(f"wrote {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
