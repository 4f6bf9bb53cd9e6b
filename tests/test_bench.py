"""Scaling experiment records, CSV handling, and growth fitting."""

import dataclasses
import re
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subsum import (ExperimentRecord, fit_growth, group_records,
                    read_records_csv, run_scaling_experiment,
                    tradeoff_report, write_records_csv)
from subsum.solvers import BRUTE_FORCE_MAX_N, MITM_MAX_N


def test_fit_exact_exponential():
    fit = fit_growth([(n, 2 ** n) for n in range(8, 16)])
    assert fit.slope == pytest.approx(1.0)
    assert fit.intercept == pytest.approx(0.0)
    assert fit.residual == pytest.approx(0.0)


def test_fit_square_root_growth():
    fit = fit_growth([(n, 2 ** (n // 2)) for n in range(8, 17, 2)])
    assert fit.slope == pytest.approx(0.5)


def test_fit_requires_four_distinct_n():
    with pytest.raises(ValueError):
        fit_growth([(1, 2), (2, 4), (3, 8)])
    with pytest.raises(ValueError):
        fit_growth([(1, 2), (1, 4), (2, 8), (2, 16), (3, 32)])


def test_fit_rejects_nonpositive_counts():
    with pytest.raises(ValueError):
        fit_growth([(1, 2), (2, 0), (3, 8), (4, 16)])


def test_fit_refuses_n_past_the_int_str_limit():
    # 10**5000 has more digits than CPython will convert to str by default;
    # the message names its size instead of failing to quote it.
    with pytest.raises(ValueError, match=r"^n=<int of 16610 bits> is too large "
                       r"to fit as a float$"):
        fit_growth([(10 ** 5000 + k, 2) for k in range(4)])


def test_mitm_powers2_forced_columns(tmp_path):
    records = run_scaling_experiment("mitm", "powers2", 16, 24, 2, 1, 0)
    assert [r.n for r in records] == [16, 18, 20, 22, 24]
    for r in records:
        assert r.peak_sorted_len == 2 ** (r.n // 2)
        assert r.compare_count <= 2 ** ((r.n + 1) // 2) + 2 ** (r.n // 2) - 1
        assert 0 < r.compare_count <= r.elementary_ops
    fit = fit_growth([(r.n, r.compare_count) for r in records])
    assert 0.45 <= fit.slope <= 0.55
    # T carries lower-order sort terms, hence the wider window
    fit_t = fit_growth([(r.n, r.elementary_ops) for r in records])
    assert 0.4 <= fit_t.slope <= 0.6
    write_records_csv(records, tmp_path / "mitm.csv")
    assert read_records_csv(tmp_path / "mitm.csv") == records


def test_brute_powers2_exact_counts():
    records = run_scaling_experiment("brute", "powers2", 8, 14, 1, 1, 0)
    for r in records:
        assert r.compare_count == 2 ** r.n
        assert r.peak_sorted_len == 1
        assert r.elementary_ops == 2 ** (r.n + 1)
    fit = fit_growth([(r.n, r.compare_count) for r in records])
    assert 0.95 <= fit.slope <= 1.05
    fit_t = fit_growth([(r.n, r.elementary_ops) for r in records])
    assert 0.9 <= fit_t.slope <= 1.1
    assert tradeoff_report(records).ok


def test_rows_deterministic_except_wall_time():
    a = run_scaling_experiment("mitm", "random", 4, 10, 2, 3, 123)
    b = run_scaling_experiment("mitm", "random", 4, 10, 2, 3, 123)
    strip = lambda rs: [(r.n, r.family, r.algo, r.seed, r.trial,
                         r.compare_count, r.peak_sorted_len, r.elementary_ops)
                        for r in rs]
    assert strip(a) == strip(b)


def test_trials_get_distinct_seeds():
    records = run_scaling_experiment("mitm", "random", 6, 6, 1, 3, 7)
    assert len(records) == 3
    assert len({r.seed for r in records}) == 3
    assert [r.trial for r in records] == [0, 1, 2]


def test_planted_family_rows():
    records = run_scaling_experiment("mitm", "planted", 6, 9, 1, 1, 5,
                                     planted_size=3)
    assert len(records) == 4


def test_planted_size_above_n_skips_row(capsys):
    records = run_scaling_experiment("mitm", "planted", 4, 6, 1, 1, 5,
                                     planted_size=5)
    assert [r.n for r in records] == [5, 6]
    assert "skipping n=4" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["powers2", "random"])
def test_planted_size_refused_for_other_families(family):
    with pytest.raises(ValueError, match="planted"):
        run_scaling_experiment("mitm", family, 4, 6, 1, 1, 5, planted_size=2)


@pytest.mark.parametrize("master_seed", [-1, 1 << 64])
def test_master_seed_outside_64_bits_refused(master_seed):
    with pytest.raises(ValueError, match="seed"):
        run_scaling_experiment("mitm", "powers2", 4, 6, 1, 1, master_seed)


def test_unknown_family_refused_on_empty_grid():
    with pytest.raises(ValueError, match="unknown family"):
        run_scaling_experiment("mitm", "nope", 5, 4, 1, 1, 0)


@pytest.mark.parametrize("size", [7, -1])
def test_planted_size_no_row_fits_refused(size):
    with pytest.raises(ValueError, match=r"planted_size must be in \[0, 6\]"):
        run_scaling_experiment("mitm", "planted", 4, 6, 1, 1, 5, planted_size=size)


@pytest.mark.parametrize("n_min, n_max", [(8, 4), (-1, 4)])
def test_empty_or_negative_grid_refused(n_min, n_max):
    with pytest.raises(ValueError, match="n_min"):
        run_scaling_experiment("mitm", "powers2", n_min, n_max, 1, 1, 0)


def test_zero_trials_refused():
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run_scaling_experiment("mitm", "powers2", 4, 6, 1, 0, 0)


def test_cap_exceeded_rows_skipped(tmp_path, capsys, monkeypatch):
    import subsum.bench as bench_mod
    monkeypatch.setitem(bench_mod._N_CAPS, "brute", 6)
    records = run_scaling_experiment("brute", "powers2", 5, 8, 1, 1, 0)
    assert [r.n for r in records] == [5, 6]
    assert capsys.readouterr().err == "warning: skipping n=7..8: brute is capped at n=6\n"
    # the written CSV holds only the surviving rows
    write_records_csv(records, tmp_path / "skip.csv")
    assert len(read_records_csv(tmp_path / "skip.csv")) == 2


def test_rows_past_the_cap_skipped_before_drawing(capsys, monkeypatch):
    # Drawing a random instance costs about n^2, so a row past the solver's
    # cap is skipped before its instance is drawn.
    import subsum.bench as bench_mod
    real, limit = bench_mod.gen_random_wide, {}

    def draw(n, seed):
        if n > limit["n"]:  # raised, not asserted, so that python -O checks it too
            raise AssertionError(f"drew an instance at n={n}")
        return real(n, seed)
    monkeypatch.setattr(bench_mod, "gen_random_wide", draw)
    for algo, cap in [("brute", BRUTE_FORCE_MAX_N), ("mitm", MITM_MAX_N)]:
        limit["n"] = cap
        with pytest.raises(ValueError, match=f"^no row of the grid runs: "
                           f"n={cap + 1}..{cap + 3}: {algo} is capped at n={cap}$"):
            run_scaling_experiment(algo, "random", cap + 1, cap + 3, 1, 2, 0)
        assert capsys.readouterr().err == ""
    # Rows within the cap are those of a grid that stops at it.
    limit["n"] = 6
    want = run_scaling_experiment("brute", "random", 4, 6, 1, 2, 3)
    monkeypatch.setitem(bench_mod._N_CAPS, "brute", 6)
    got = run_scaling_experiment("brute", "random", 4, 9, 1, 2, 3)
    assert ([dataclasses.replace(r, wall_time=0.0) for r in got]
            == [dataclasses.replace(r, wall_time=0.0) for r in want])
    assert capsys.readouterr().err.splitlines() == [
        "warning: skipping n=7..9: brute is capped at n=6"]


def test_huge_grid_decided_before_any_row(capsys, monkeypatch):
    # The skipped rows are one range, never walked, so n_max may have any size.
    import subsum.bench as bench_mod
    real, drawn = bench_mod.gen_random_wide, []

    def draw(n, seed):
        drawn.append(n)
        return real(n, seed)
    monkeypatch.setattr(bench_mod, "gen_random_wide", draw)
    monkeypatch.setitem(bench_mod._N_CAPS, "mitm", 6)
    start = time.perf_counter()
    records = run_scaling_experiment("mitm", "random", 4, 10 ** 30, 1, 1, 0)
    assert time.perf_counter() - start < 1.0
    assert [r.n for r in records] == drawn == [4, 5, 6]
    assert capsys.readouterr().err.splitlines() == [
        f"warning: skipping n=7..{10 ** 30}: mitm is capped at n=6"]
    # A step past sys.maxsize and an n_max of thousands of digits.
    records = run_scaling_experiment("mitm", "random", 5, 10 ** 4000, 10 ** 20, 1, 0)
    assert [r.n for r in records] == [5]
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_skip_warning_bounds_an_end_past_the_int_str_limit(capsys):
    # The grid's last point, 5 + k * 10**20 <= 10**5000, has 5000 digits.
    records = run_scaling_experiment("mitm", "random", 5, 10 ** 5000, 10 ** 20, 1, 0)
    assert [r.n for r in records] == [5]
    assert capsys.readouterr().err == (
        f"warning: skipping n={5 + 10 ** 20}..<int of 16610 bits>: "
        f"mitm is capped at n={MITM_MAX_N}\n")
    with pytest.raises(ValueError, match=r"^need 0 <= n_min <= n_max, got "
                       r"n_min=<int of 16613 bits>, n_max=<int of 16610 bits>$"):
        run_scaling_experiment("mitm", "random", 10 ** 5001, 10 ** 5000, 1, 1, 0)


def test_planted_step_gap_refused(capsys):
    # Size 6 fits n_max = 6, but the grid's points are 0 and 5.
    with pytest.raises(ValueError, match="^no row of the grid runs: "
                       "n=0..5: planted size 6 exceeds n$"):
        run_scaling_experiment("mitm", "planted", 0, 6, 5, 1, 0, planted_size=6)
    assert capsys.readouterr().err == ""


@settings(max_examples=300, deadline=None)
@given(algo=st.sampled_from(["brute", "mitm"]), cap=st.integers(0, 12),
       n_min=st.integers(0, 12), span=st.integers(0, 12), step=st.integers(1, 7),
       size=st.integers(0, 12), trials=st.integers(1, 2))
def test_rows_run_are_the_grid_within_size_and_cap(algo, cap, n_min, span, step,
                                                  size, trials):
    import subsum.bench as bench_mod
    n_max = n_min + span
    want = [n for n in range(n_min, n_max + 1, step) if size <= n <= cap]
    with mock.patch.dict(bench_mod._N_CAPS, {algo: cap}):
        try:
            records = run_scaling_experiment(algo, "planted", n_min, n_max, step,
                                             trials, 1, planted_size=size)
        except ValueError as exc:
            # GeneratorSpec's own refusal, or a grid none of whose rows runs
            assert size > n_max or (not want and "no row of the grid runs" in str(exc))
            return
    assert [(r.n, r.trial) for r in records] == [(n, t) for n in want for t in range(trials)]


def test_csv_round_trip_and_write_order(tmp_path):
    records = run_scaling_experiment("brute", "powers2", 4, 8, 2, 2, 9)
    write_records_csv(records, tmp_path / "r.csv")
    loaded = read_records_csv(tmp_path / "r.csv")
    assert loaded == records
    assert [(r.n, r.trial) for r in loaded] == sorted((r.n, r.trial) for r in loaded)
    # unsorted input comes back out sorted
    write_records_csv(list(reversed(records)), tmp_path / "r2.csv")
    assert read_records_csv(tmp_path / "r2.csv") == records


def test_read_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope,nope\n1,2\n")
    with pytest.raises(ValueError):
        read_records_csv(path)


_GOOD_ROW = ["4", "hand", "x", "0", "0", "16", "1", "32", "0.000100"]


@pytest.mark.parametrize("column", [0, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("text", ["1_0", " 7 ", "\u0663", "+4", "4.0", "nan", ""])
def test_read_refuses_non_decimal_integers(tmp_path, column, text):
    # int() reads "1_0" as 10, " 7 " as 7 and Arabic-Indic "\u0663" as 3.
    row = list(_GOOD_ROW)
    row[column] = text
    path = tmp_path / "r.csv"
    path.write_text("n,family,algo,seed,trial,C,M,T,wall_time\n"
                    + ",".join(_GOOD_ROW) + "\n" + ",".join(row) + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match="malformed CSV row at line 3"):
        read_records_csv(path)


@pytest.mark.parametrize("column", [0, 3, 4, 5, 6, 7])
def test_read_names_line_and_column_of_integer_past_digit_limit(tmp_path, column):
    # int() refuses 5,000 digits with a message naming neither row nor column.
    row = list(_GOOD_ROW)
    row[column] = "7" * 5000
    path = tmp_path / "r.csv"
    path.write_text("n,family,algo,seed,trial,C,M,T,wall_time\n"
                    + ",".join(_GOOD_ROW) + "\n" + ",".join(row) + "\n",
                    encoding="utf-8")
    name = "n,family,algo,seed,trial,C,M,T".split(",")[column]
    with pytest.raises(ValueError, match=f"malformed CSV row at line 3: {name} has 5000 digits"):
        read_records_csv(path)


@pytest.mark.parametrize("text", ["nan", "inf", "1e-3", "1", ".5", "1.", "-0.5",
                                  " 0.5", "0_1.5", "\u0663.5"])
def test_read_refuses_wall_time_it_never_writes(tmp_path, text):
    path = tmp_path / "r.csv"
    path.write_text("n,family,algo,seed,trial,C,M,T,wall_time\n"
                    + ",".join(_GOOD_ROW[:-1] + [text]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="malformed CSV row at line 2"):
        read_records_csv(path)


def _write_rows(tmp_path, *rows):
    path = tmp_path / "r.csv"
    path.write_text("n,family,algo,seed,trial,C,M,T,wall_time\n"
                    + "".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    return path


@pytest.mark.parametrize("column", [0, 3, 4, 5, 6, 7])
def test_read_refuses_negative_integers(tmp_path, column):
    # No bench run writes a negative n, seed, trial or counter.
    row = list(_GOOD_ROW)
    row[column] = "-4"
    path = _write_rows(tmp_path, _GOOD_ROW, row)
    name = "n,family,algo,seed,trial,C,M,T".split(",")[column]
    with pytest.raises(ValueError,
                       match=f"malformed CSV row at line 3: {name} must be nonnegative, got -4"):
        read_records_csv(path)


@pytest.mark.parametrize("algo, cap", [("brute", BRUTE_FORCE_MAX_N), ("mitm", MITM_MAX_N)])
def test_read_refuses_n_past_the_solvers_cap(tmp_path, algo, cap):
    at_cap, past_cap = list(_GOOD_ROW), list(_GOOD_ROW)
    at_cap[0], at_cap[2] = str(cap), algo
    past_cap[0], past_cap[2] = str(cap + 1), algo
    assert [r.n for r in read_records_csv(_write_rows(tmp_path, at_cap))] == [cap]
    with pytest.raises(ValueError, match=f"malformed CSV row at line 3: n={cap + 1} is past"
                                         f" {algo}'s cap of n={cap}"):
        read_records_csv(_write_rows(tmp_path, at_cap, past_cap))
    # Other algo labels have no cap to check against.
    past_cap[2] = "hand"
    assert [r.n for r in read_records_csv(_write_rows(tmp_path, past_cap))] == [cap + 1]


@pytest.mark.parametrize("column, text, message", [
    (3, str(1 << 64), f"seed must be below 2^64, got {1 << 64}"),
    (3, "9" * 23, f"seed must be below 2^64, got {'9' * 23}"),
    (6, "0", "M must be at least 1, got 0"),
], ids=["seed_2^64", "seed_23_digits", "M_0"])
def test_read_refuses_seed_past_64_bits_and_zero_m(tmp_path, column, text, message):
    # derive_seed returns a 64-bit value, and a ledger's peak is at least 1.
    edge = list(_GOOD_ROW)
    edge[3] = str((1 << 64) - 1)
    assert [r.seed for r in read_records_csv(_write_rows(tmp_path, edge))] == [(1 << 64) - 1]
    row = list(_GOOD_ROW)
    row[column] = text
    with pytest.raises(ValueError, match=re.escape(f"malformed CSV row at line 3: {message}")):
        read_records_csv(_write_rows(tmp_path, _GOOD_ROW, row))


def test_group_records():
    records = run_scaling_experiment("brute", "powers2", 4, 7, 1, 1, 0)
    groups = group_records(records)
    assert set(groups) == {("brute", "powers2")}
    assert groups[("brute", "powers2")] == records


def test_unknown_algo_rejected():
    with pytest.raises(ValueError):
        run_scaling_experiment("dp", "powers2", 4, 8, 1, 1, 0)
    with pytest.raises(ValueError):
        run_scaling_experiment("brute", "nope", 4, 8, 1, 1, 0)
    with pytest.raises(ValueError):
        run_scaling_experiment("brute", "powers2", 4, 8, 0, 1, 0)


# -- tradeoff checking -----------------------------------------------------

def make_record(n, m, t):
    return ExperimentRecord(n=n, family="x", algo="x", seed=0, trial=0,
                            compare_count=0, peak_sorted_len=m,
                            elementary_ops=t, wall_time=0.0)


def test_tradeoff_brute_style_row_holds():
    report = tradeoff_report([make_record(10, 1, 1024)])
    assert report.total == 1
    assert report.t_ge_m_violations == report.mt_violations == []
    assert report.ok


def test_tradeoff_split_style_row_holds():
    report = tradeoff_report([make_record(10, 32, 96)])  # 32 * 96 = 3072 >= 1024
    assert report.total == 1
    assert report.t_ge_m_violations == report.mt_violations == []
    assert report.ok


def test_tradeoff_flags_t_less_than_m():
    record = make_record(4, 5, 4)
    report = tradeoff_report([record])
    assert report.t_ge_m_violations == [(0, record)]
    assert not report.ok
    assert "violates" in report.summary()


def test_tradeoff_flags_mt_shortfall():
    record = make_record(10, 2, 100)
    report = tradeoff_report([record])
    assert report.t_ge_m_violations == []
    assert report.mt_violations == [(0, record)]


@given(st.integers(-5, 70), st.integers(-3, 1 << 36), st.integers(-3, 1 << 36))
@example(10, 32, 32)  # M*T = 2^n exactly
@example(10, 31, 33)  # M*T = 2^n - 1
def test_tradeoff_mt_check_is_exact(n, m, t):
    # 2 ** n is an exact float for these negative n.
    report = tradeoff_report([make_record(n, m, t)])
    assert (not report.mt_violations) == (m * t >= 2 ** n)


def test_tradeoff_huge_n_builds_no_power_of_two():
    # n comes from a CSV; 2^(10^12) would take about 125 GB.
    record = make_record(10 ** 12, 2, 100)
    tracemalloc.start()
    try:
        report = tradeoff_report([record])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.mt_violations == [(0, record)]
    assert "M*T=200 < 2^1000000000000" in report.summary()
    assert peak < 64 * 1024


def test_tradeoff_negative_n():
    # 2^n < 1 for n < 0, so any positive M*T meets it.
    records = [make_record(-1, 1, 1), make_record(-4, 0, 3)]
    report = tradeoff_report(records)
    assert report.mt_violations == [(1, records[1])]
    assert "M*T=0 < 2^-4" in report.summary()


def test_tradeoff_zero_m_violates_floor():
    record = make_record(0, 0, 5)
    report = tradeoff_report([record])
    assert report.t_ge_m_violations == [(0, record)]


def test_tradeoff_requires_records():
    with pytest.raises(ValueError):
        tradeoff_report([])


def test_tradeoff_mixed_summary_counts():
    report = tradeoff_report([make_record(10, 1, 1024), make_record(4, 5, 4)])
    assert "1/2" in report.summary().splitlines()[0]
