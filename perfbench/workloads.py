"""The benchmark's workloads: one op is a call into subsum's public API.

Each workload pairs an op with an answer check. The op looks up every
subsum function through its module (``bench.run_scaling_experiment``,
``cli.main``, ...) so the tracer can wrap it at that name. The check
returns a list of problems; an op with any problem counts as failed, so a
change that moves a C/M/T counter fails the run.

Sizes are fixed here so every run of a workload does the same kind of op;
``nominal_op_s`` only sizes the traced run's op count.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Callable

from subsum import bench, cli, ledger, model
from subsum.ledger import sort_charge
from subsum.rng import derive_seed


@dataclass(frozen=True)
class Step:
    """One `subsum` command run in-process: its argv, exit code and stdout."""
    argv: tuple[str, ...]
    code: int
    stdout: str


@dataclass(frozen=True)
class PlantedAnswer:
    gen: Step
    brute: Step
    mitm: Step
    check: Step | None
    instance_path: str
    witnessed: bool | None


def _cli(*argv: str) -> Step:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return Step(argv, code, out.getvalue())


def _solution(stdout: str):
    """(mask, sum) from a `solve` SOLUTION line, or None."""
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] == "SOLUTION":
            return int(parts[1], 16), int(parts[2])
    return None


def _counters(stdout: str):
    """(C, M, T) from a `solve` counter line, or None."""
    for line in stdout.splitlines():
        parts = dict(p.split("=", 1) for p in line.split() if "=" in p)
        if parts.keys() == {"C", "M", "T"}:
            return int(parts["C"]), int(parts["M"]), int(parts["T"])
    return None


def mitm_counter_problems(n: int, c: int, m: int, t: int) -> list[str]:
    """Closed-form mitm counters: M = 2^a, C <= 2^a + 2^b - 1, T - C fixed."""
    a, b = (n + 1) // 2, n // 2
    problems = []
    if m != 1 << a:
        problems.append(f"mitm M={m}, expected 2^{a}")
    if not 1 <= c <= (1 << a) + (1 << b) - 1:
        problems.append(f"mitm C={c} outside [1, 2^{a}+2^{b}-1]")
    overhead = 2 * ((1 << a) + (1 << b)) + sort_charge(1 << a) + sort_charge(1 << b)
    if t - c != overhead:
        problems.append(f"mitm T-C={t - c}, expected {overhead}")
    return problems


def _one_record(records, n: int, algo: str, family: str):
    if len(records) != 1:
        return None, [f"expected one bench row, got {len(records)}"]
    r = records[0]
    if (r.n, r.algo, r.family) != (n, algo, family):
        return None, [f"row is ({r.n}, {r.algo}, {r.family}), "
                      f"expected ({n}, {algo}, {family})"]
    return r, []


def mitm_random_op(n: int, seed: int, workdir: str):
    return bench.run_scaling_experiment("mitm", "random", n, n, 1, 1, seed)


def check_mitm_random(records, n: int) -> list[str]:
    r, problems = _one_record(records, n, "mitm", "random")
    if r is None:
        return problems
    return mitm_counter_problems(n, r.compare_count, r.peak_sorted_len, r.elementary_ops)


def brute_powers2_op(n: int, seed: int, workdir: str):
    return bench.run_scaling_experiment("brute", "powers2", n, n, 1, 1, seed)


def check_brute_powers2(records, n: int) -> list[str]:
    r, problems = _one_record(records, n, "brute", "powers2")
    if r is None:
        return problems
    # powers2 is unsolvable, so the walk visits every mask: C = 2^n.
    if r.compare_count != 1 << n:
        problems.append(f"brute C={r.compare_count}, expected 2^{n} (NOSOLUTION)")
    if r.elementary_ops != 2 * r.compare_count:
        problems.append(f"brute T={r.elementary_ops}, expected 2C")
    if r.peak_sorted_len != 1:
        problems.append(f"brute M={r.peak_sorted_len}, expected 1")
    return problems


def planted_cli_op(n: int, seed: int, workdir: str) -> PlantedAnswer:
    inst = os.path.join(workdir, "instance.json")
    trace = os.path.join(workdir, "trace.txt")
    # Planting n-1 of n elements puts the mask, where the brute walk stops,
    # at 2^n - 1 - 2^j, so ops cost about the same; with the default n//2
    # the stop point, and the op time, spread over a factor of ~4.
    gen = _cli("gen", "--family", "planted", "--n", str(n), "--seed", str(seed),
               "--size", str(n - 1), "--out", inst)
    brute = _cli("solve", "--in", inst, "--algo", "brute", "--trace", trace)
    mitm = _cli("solve", "--in", inst, "--algo", "mitm")
    found = _solution(brute.stdout)
    if found is None:
        return PlantedAnswer(gen, brute, mitm, None, inst, None)
    check = _cli("check", "--in", inst, "--mask", f"{found[0]:x}")
    with open(trace, encoding="utf-8") as fh:
        events = ledger.parse_trace(fh.read())
    witnessed = ledger.solution_witness_check(events, model.read_instance(inst))
    return PlantedAnswer(gen, brute, mitm, check, inst, witnessed)


def check_planted_cli(answer: PlantedAnswer, n: int) -> list[str]:
    problems = [f"`{s.argv[0]}` exited {s.code}"
                for s in (answer.gen, answer.brute, answer.mitm, answer.check)
                if s is not None and s.code != 0]
    instance = model.read_instance(answer.instance_path)
    if instance.n != n:
        problems.append(f"instance has n={instance.n}, expected {n}")
    for name, step in (("brute", answer.brute), ("mitm", answer.mitm)):
        found = _solution(step.stdout)
        counters = _counters(step.stdout)
        if found is None or counters is None:
            problems.append(f"{name} printed no SOLUTION and counter lines")
            continue
        mask, total = found
        if mask >> n or not model.verify(instance, mask) or total != instance.target:
            problems.append(f"{name} mask {mask:x} does not verify")
        c, m, t = counters
        if name == "brute" and (c, m, t) != (mask + 1, 1, 2 * (mask + 1)):
            problems.append(f"brute C/M/T={c}/{m}/{t}, expected {mask + 1}/1/{2 * (mask + 1)}")
        if name == "mitm":
            problems += mitm_counter_problems(n, c, m, t)
    if answer.check is None or not answer.check.stdout.startswith("MATCH "):
        problems.append("check did not print MATCH")
    if answer.witnessed is not True:
        problems.append("witness check failed on the brute trace")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    nominal_op_s: float
    op: Callable[[int, int, str], object]
    check: Callable[[object, int], list[str]]

    def run(self, seed: int, index: int, workdir: str):
        """Op `index` of a run with this workload seed."""
        return self.op(self.n, derive_seed(seed, index), workdir)


WORKLOADS = {w.name: w for w in (
    Workload("mitm_random", 30, 0.19, mitm_random_op, check_mitm_random),
    Workload("brute_powers2", 17, 0.07, brute_powers2_op, check_brute_powers2),
    Workload("planted_cli", 14, 0.08, planted_cli_op, check_planted_cli),
)}
