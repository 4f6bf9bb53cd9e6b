"""Acceptance suite: every criterion as one test with a printed verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Counter-based criteria are exact (tolerance zero); growth slopes
use the stated windows; wall-clock budgets are asserted where stated.
"""

import itertools
import time

import pytest

from subsum import (ComparisonLedger, ExperimentRecord, Instance,
                    brute_force_solve, dp_solve, fit_growth, gen_planted,
                    gen_powers_of_two, gen_random_wide, mitm_solve,
                    solution_witness_check, tradeoff_report, verify)
from subsum.cli import main as cli_main
from subsum.rng import SplitMix64, derive_seed

MASTER_SEED = 20240101


def scan_bound(n: int) -> int:
    return 2 ** ((n + 1) // 2) + 2 ** (n // 2) - 1


def run_and_record(solver_name, solver, instance, family,
                   expect_found=None) -> ExperimentRecord:
    ledger = ComparisonLedger()
    start = time.perf_counter()
    result = solver(instance, ledger)
    elapsed = time.perf_counter() - start
    assert result.solution is None or verify(instance, result.solution)
    if expect_found is not None:
        assert result.found == expect_found
    return ExperimentRecord(
        n=instance.n, family=family, algo=solver_name, seed=0, trial=0,
        compare_count=result.compare_count,
        peak_sorted_len=result.peak_sorted_len,
        elementary_ops=result.elementary_ops, wall_time=elapsed)


@pytest.fixture(scope="module")
def brute_powers2_records():
    return [run_and_record("brute", brute_force_solve, gen_powers_of_two(n),
                           "powers2", expect_found=False)
            for n in range(8, 21)]


@pytest.fixture(scope="module")
def mitm_powers2_records():
    records = []
    elapsed = 0.0
    for n in range(16, 33, 2):
        start = time.perf_counter()
        rec = run_and_record("mitm", mitm_solve, gen_powers_of_two(n),
                             "powers2", expect_found=False)
        elapsed += time.perf_counter() - start
        records.append(rec)
    return records, elapsed


def test_ac1_oracle_equivalence_exhaustive():
    start = time.perf_counter()
    checked = 0
    for n in range(0, 4):
        for elements in itertools.product(range(-4, 5), repeat=n):
            for target in range(-4, 5):
                inst = Instance(elements, target)
                brute = brute_force_solve(inst)
                mitm = mitm_solve(inst)
                assert brute.found == mitm.found, (elements, target)
                for res in (brute, mitm):
                    if res.found:
                        assert verify(inst, res.solution)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\n[AC1] PASS exhaustive agreement on {checked} instances "
          f"(n<=3, values in [-4,4]) in {elapsed:.1f}s")


def test_ac2_oracle_equivalence_randomized():
    disagreements = 0
    dp_checked = 0
    for i in range(1000):
        n = i % 17
        seed = derive_seed(MASTER_SEED, 2, i)
        if i % 2 == 0:
            inst = gen_random_wide(n, seed)
            planted = False
        else:
            size = SplitMix64(seed).next_below(n + 1)
            inst = gen_planted(n, seed, size)[0]
            planted = True
        brute = brute_force_solve(inst)
        mitm = mitm_solve(inst)
        if brute.found != mitm.found:
            disagreements += 1
        span = (sum(a for a in inst.elements if a > 0)
                - sum(a for a in inst.elements if a < 0))
        if span <= 10 ** 7:
            dp_mask = dp_solve(inst)
            dp_checked += 1
            if (dp_mask is not None) != brute.found:
                disagreements += 1
        if planted:
            assert brute.found and mitm.found
    assert disagreements == 0
    print(f"\n[AC2] PASS 1000 seeded instances (n<=16), zero disagreements "
          f"(dp joined on {dp_checked})")


def test_ac3_brute_force_exact_counts(brute_powers2_records):
    for rec in brute_powers2_records:
        assert rec.compare_count == 2 ** rec.n, rec
        assert rec.peak_sorted_len == 1, rec
    print(f"\n[AC3] PASS brute force C=2^n exactly and M=1 for n in 8..20")


def test_ac4_mitm_scaling(mitm_powers2_records):
    records, elapsed = mitm_powers2_records
    for rec in records:
        assert rec.peak_sorted_len == 2 ** ((rec.n + 1) // 2), rec
    fit = fit_growth([(r.n, r.compare_count) for r in records])
    assert 0.45 <= fit.slope <= 0.55, fit
    assert elapsed < 300.0
    print(f"\n[AC4] PASS mitm on powers2 n=16..32: log2(C) slope "
          f"{fit.slope:.4f} in [0.45,0.55], M=2^ceil(n/2), {elapsed:.1f}s")


def test_ac5_scan_bound_battery(mitm_powers2_records):
    runs = 0
    for rec in mitm_powers2_records[0]:
        assert rec.compare_count <= scan_bound(rec.n)
        runs += 1
    for n in range(0, 4):
        for elements in itertools.product(range(-2, 3), repeat=n):
            for target in range(-3, 4):
                inst = Instance(elements, target)
                res = mitm_solve(inst)
                assert res.compare_count <= scan_bound(n), inst
                runs += 1
    for i in range(200):
        n = i % 17
        inst = gen_random_wide(n, derive_seed(MASTER_SEED, 5, i))
        res = mitm_solve(inst)
        assert res.compare_count <= scan_bound(n), inst
        runs += 1
    print(f"\n[AC5] PASS scan bound C <= 2^ceil(n/2)+2^floor(n/2)-1 on "
          f"{runs} mitm runs, zero violations")


def test_ac6_witness_property_on_planted_runs():
    ns = [2 + (i % 15) for i in range(480)] + [17, 18, 19, 20] * 5
    assert len(ns) == 500
    failures = 0
    for i, n in enumerate(ns):
        seed = derive_seed(MASTER_SEED, 6, i)
        size = SplitMix64(seed).next_below(n + 1)
        inst, _ = gen_planted(n, seed, size)
        for solver in (brute_force_solve, mitm_solve):
            ledger = ComparisonLedger([])
            result = solver(inst, ledger)
            assert result.found
            if not solution_witness_check(ledger.trace, inst, ledger.encoding):
                failures += 1
    assert failures == 0
    print("\n[AC6] PASS witness check on 500 planted yes-instances (n<=20), "
          "brute and mitm full traces, zero failures")


def test_ac7_tradeoff_constraints(brute_powers2_records, mitm_powers2_records):
    records = brute_powers2_records + mitm_powers2_records[0]
    report = tradeoff_report(records)
    assert len(report.rows) == len(records)
    assert not report.t_ge_m_violations
    assert not report.mt_violations
    print(f"\n[AC7] PASS T>=M>=1 and M*T>=2^n on all {len(records)} "
          f"measured rows, zero violations")


def test_ac8_determinism_of_gen_and_bench(tmp_path):
    gen_cases = [
        ["gen", "--family", "powers2", "--n", "12"],
        ["gen", "--family", "random", "--n", "14", "--seed", "77"],
        ["gen", "--family", "planted", "--n", "16", "--seed", "3", "--size", "5"],
    ]
    for i, argv in enumerate(gen_cases):
        a = tmp_path / f"a{i}.json"
        b = tmp_path / f"b{i}.json"
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / f"a{i}.meta.json").read_bytes() == \
               (tmp_path / f"b{i}.meta.json").read_bytes()

    bench_cases = [
        ["bench", "--algo", "mitm", "--family", "powers2",
         "--n-min", "16", "--n-max", "24", "--step", "2"],
        ["bench", "--algo", "brute", "--family", "random",
         "--n-min", "4", "--n-max", "10", "--step", "2",
         "--trials", "2", "--seed", "9"],
    ]
    for i, argv in enumerate(bench_cases):
        a = tmp_path / f"a{i}.csv"
        b = tmp_path / f"b{i}.csv"
        assert cli_main(argv + ["--out", str(a)]) == 0
        assert cli_main(argv + ["--out", str(b)]) == 0
        strip = lambda p: [ln.rsplit(",", 1)[0] for ln in p.read_text().splitlines()]
        assert strip(a) == strip(b)
    print("\n[AC8] PASS repeated gen and bench invocations are byte-identical "
          "(wall_time column excluded)")


def test_ac9_empty_set_convention():
    solvable = Instance((), 0)
    assert brute_force_solve(solvable).solution == 0
    assert mitm_solve(solvable).solution == 0
    assert dp_solve(solvable) == 0
    for target in (1, -1, 7):
        unsolvable = Instance((), target)
        assert brute_force_solve(unsolvable).solution is None
        assert mitm_solve(unsolvable).solution is None
        assert dp_solve(unsolvable) is None
    print("\n[AC9] PASS empty instance: b=0 solved by the empty mask, "
          "b!=0 unsolvable, all three solvers")
