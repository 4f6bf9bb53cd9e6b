"""One workload in its own fresh, single-threaded process.

Started by run.py, never by hand. It imports subsum from the checkout's
src/, prepares the workload, prints READY (run.py times process start to
this line as set-up), then runs a closed loop with one client and prints
one JSON line with its raw results. With --setup-only it stops at READY.

Each op's seed is derive_seed(seed, op_index).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

from calibration import CALIBRATIONS  # subsum-free, so safe before sys.path is set

def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _run_op(workload, seed: int, index: int, workdir: str):
    """Run op `index`; return (seconds, answer, problems). A raise is a problem."""
    start = time.perf_counter()
    try:
        answer = workload.run(seed, index, workdir)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - start, None, [f"op raised {exc!r}"]
    return time.perf_counter() - start, answer, []


def _check(workload, answer, problems: list[str]) -> list[str]:
    if problems:
        return problems
    try:
        return workload.check(answer, workload.n)
    except Exception as exc:
        return [f"check raised {exc!r}"]


def run_closed_loop(workload, seed: int, seconds: float, workdir: str) -> dict:
    """Ops back to back until `seconds` have passed.

    Per op: op_s is the op's wall time, work_s adds its answer check, cal_s
    is the workload's calibration (calibration.py) run right after it.
    """
    calibrate = CALIBRATIONS[workload.name]
    op_s, work_s, cal_s, problems = [], [], [], []
    failed = 0
    start = time.perf_counter()
    deadline = start + seconds
    while (begun := time.perf_counter()) < deadline:
        index = len(op_s)
        elapsed, answer, found = _run_op(workload, seed, index, workdir)
        found = _check(workload, answer, found)
        checked = time.perf_counter()
        calibrate()
        cal_s.append(time.perf_counter() - checked)
        op_s.append(elapsed)
        work_s.append(checked - begun)
        if found:
            failed += 1
            problems += [f"op {index}: {p}" for p in found[:3]]
    return {"op_s": op_s, "work_s": work_s, "cal_s": cal_s, "attempted": len(op_s),
            "failed": failed, "wall_s": time.perf_counter() - start,
            "problems": problems[:20]}


def traced_op_count(workload, seconds: float) -> int:
    """Fixed by workload and run length, so two traced runs do the same ops.

    Each op runs untraced and traced, and the floors replay it: about three
    op-times per op.
    """
    return max(2, int(seconds / (3 * workload.nominal_op_s)))


def run_traced(workload, seed: int, seconds: float, workdir: str) -> dict:
    """Each op untraced then traced, back to back; spans from the traced one."""
    from tracing import Tracer, layer_metrics  # imports subsum: after sys.path is set
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    problems = []
    failed = 0
    ops = traced_op_count(workload, seconds)
    for index in range(ops):
        elapsed, answer, found = _run_op(workload, seed, index, workdir)
        found = _check(workload, answer, found)
        untraced_s += elapsed
        failed += bool(found)
        problems += found[:3]
        tracer.op = index
        with tracer.installed(), tracer.span("op"):
            elapsed, answer, found = _run_op(workload, seed, index, workdir)
        found = _check(workload, answer, found)
        traced_s += elapsed
        failed += bool(found)
        problems += found[:3]
    return {"layers": layer_metrics(tracer, untraced_s, traced_s),
            "attempted": 2 * ops, "failed": failed, "traced_ops": ops,
            "spans": tracer.dump(), "problems": problems[:20]}


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import subsum
    if not os.path.abspath(subsum.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"error: imported subsum from {subsum.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(args.root, "perfbench", "out", f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        print("READY", flush=True)
        if args.setup_only:
            return 0
        run = run_traced if args.trace else run_closed_loop
        result = run(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
