"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Each answer check rejects a forged result; two traced runs give identical
ledger counts; the printed metric names match BENCHMARK.json; the floors
compute what the solvers compute; without src/ the command fails.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import subsum.bench  # noqa: E402
import subsum.cli  # noqa: E402
from subsum import Half, Instance, brute_force_solve, half_sums  # noqa: E402
from subsum.ledger import CompareEvent, Ordering  # noqa: E402

import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import (WORKLOADS, check_brute_powers2, check_mitm_random,  # noqa: E402
                       check_planted_cli, planted_cli_op)

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL_N = {"mitm_random": 14, "brute_powers2": 10, "planted_cli": 10}


def _stub(real, **forge):
    """A solver that runs `real` and then rewrites fields of its result."""
    def solver(instance, ledger=None, **kwargs):
        result = real(instance, ledger, **kwargs)
        return dataclasses.replace(result, **{k: f(result) for k, f in forge.items()})
    return solver


@pytest.mark.parametrize("forge", [
    {"compare_count": lambda r: r.compare_count + (1 << 8)},
    {"peak_sorted_len": lambda r: r.peak_sorted_len // 2},
    {"elementary_ops": lambda r: r.elementary_ops + 1},
])
def test_mitm_check_rejects_forged_counters(monkeypatch, forge):
    n = SMALL_N["mitm_random"]
    assert check_mitm_random(WORKLOADS["mitm_random"].op(n, 5, ""), n) == []
    monkeypatch.setattr(subsum.bench, "mitm_solve", _stub(subsum.bench.mitm_solve, **forge))
    assert check_mitm_random(WORKLOADS["mitm_random"].op(n, 5, ""), n)


@pytest.mark.parametrize("forge", [
    {"compare_count": lambda r: r.compare_count - 1},
    {"peak_sorted_len": lambda r: 2},
    {"elementary_ops": lambda r: r.elementary_ops - 1},
])
def test_brute_check_rejects_forged_counters(monkeypatch, forge):
    n = SMALL_N["brute_powers2"]
    assert check_brute_powers2(WORKLOADS["brute_powers2"].op(n, 5, ""), n) == []
    monkeypatch.setattr(subsum.bench, "brute_force_solve",
                        _stub(subsum.bench.brute_force_solve, **forge))
    assert check_brute_powers2(WORKLOADS["brute_powers2"].op(n, 5, ""), n)


def _bump_ledger(real, counter):
    """A solver that runs `real` and then adds one to a counter the CLI prints."""
    def solver(instance, ledger=None, **kwargs):
        result = real(instance, ledger, **kwargs)
        setattr(ledger, counter, getattr(ledger, counter) + 1)
        return result
    return solver


def _drop_eq(dump_trace):
    def forged(trace):
        return dump_trace([e for e in trace
                           if not (isinstance(e, CompareEvent) and e.outcome is Ordering.EQ)])
    return forged


@pytest.mark.parametrize("attr, forged, expect", [
    ("brute_force_solve", _bump_ledger(subsum.cli.brute_force_solve, "compare_count"),
     "brute C/M/T"),
    ("brute_force_solve", _stub(subsum.cli.brute_force_solve,
                                solution=lambda r: r.solution ^ 1), "does not verify"),
    ("mitm_solve", _stub(subsum.cli.mitm_solve,
                         solution=lambda r: r.solution ^ 1), "does not verify"),
    ("mitm_solve", _bump_ledger(subsum.cli.mitm_solve, "peak_sorted_len"), "mitm M="),
    ("dump_trace", _drop_eq(subsum.cli.dump_trace), "witness check failed"),
])
def test_planted_check_rejects_forged_pipeline(monkeypatch, tmp_path, attr, forged, expect):
    n = SMALL_N["planted_cli"]
    assert check_planted_cli(planted_cli_op(n, 7, str(tmp_path)), n) == []
    monkeypatch.setattr(subsum.cli, attr, forged)
    problems = check_planted_cli(planted_cli_op(n, 7, str(tmp_path)), n)
    assert any(expect in p for p in problems), problems


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_traced_runs_give_identical_ledger_counts(tmp_path, name):
    workload = dataclasses.replace(WORKLOADS[name], n=SMALL_N[name])
    runs = [worker.run_traced(workload, 3, 1.0, str(tmp_path)) for _ in range(2)]
    counts = [{k: v for k, v in run["layers"].items() if k in ("ledger.C", "ledger.M", "ledger.T")}
              for run in runs]
    assert runs[0]["failed"] == runs[1]["failed"] == 0
    assert counts[0] == counts[1]
    assert counts[0]["ledger.C"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(name, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = CONFIG["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: m["unit"] for k, m in result["metrics"].items()}
    for m in declared:
        assert f"{m['name']} = {result['metrics'][m['name']]['value']!r} {m['unit']}" in lines


def test_layer_map_names_every_declared_metric_and_workload():
    layers = json.loads((HERE / "layers.json").read_text())
    assert set(layers["per_layer"]) == {m["name"] for m in CONFIG["per_layer"]}
    assert set(layers["end_to_end"]) == {m["name"] for m in CONFIG["end_to_end"]}
    assert set(layers["workloads"]) == {w["name"] for w in CONFIG["workloads"]} == set(WORKLOADS)
    for entry in layers["per_layer"].values():
        assert set(entry["moves"]) <= set(layers["end_to_end"])
        assert set(entry["on"]) | set(entry["zero_on"]) <= set(WORKLOADS)


@pytest.mark.parametrize("elements, target", [
    ((3, 5, 9, 14), 17), ((3, 5, 9, 14), 100), ((0, 0, 1), 0), ((4, -1, 7, 2, -3), 6),
])
def test_floors_match_the_solvers(elements, target):
    instance = Instance(elements, target)
    assert tracing.brute_loop(elements, target) == brute_force_solve(instance).solution
    for half in Half:
        assert tracing.half_sums_int(tracing.half_values(instance, half)) == [
            e.sum for e in half_sums(instance, half)]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mitm_random", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
