"""End-to-end CLI behavior: output formats, files, and exit codes."""

import json
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from unittest import mock

import pytest

import subsum
from subsum import (ComparisonLedger, GeneratorSpec, Instance,
                    brute_force_solve, dump_trace, dumps_instance,
                    gen_powers_of_two, generate, mitm_solve, parse_trace, read_instance,
                    run_scaling_experiment, solution_witness_check, verify,
                    write_instance, write_records_csv)
from subsum.cli import build_parser, main, meta_path_for


def run_cli(*argv):
    return main(list(argv))


def test_gen_powers2_matches_contract(tmp_path, capsys):
    out = tmp_path / "w10.json"
    assert run_cli("gen", "--family", "powers2", "--n", "10", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc == {"n": 10, "a": [str(1 << i) for i in range(10)], "b": "1024"}
    meta = json.loads((tmp_path / "w10.meta.json").read_text())
    assert meta == {"family": "powers2", "seed": None,
                    "distinct_verified": True, "planted_mask": None}
    assert "wrote" in capsys.readouterr().out


def test_gen_byte_identical_repeats(tmp_path):
    args = ["gen", "--family", "planted", "--n", "16", "--seed", "3",
            "--size", "5"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.meta.json").read_bytes() == (tmp_path / "b.meta.json").read_bytes()


def test_gen_planted_sidecar_mask_verifies(tmp_path):
    out = tmp_path / "p.json"
    assert run_cli("gen", "--family", "planted", "--n", "16", "--seed", "3",
                   "--size", "5", "--out", str(out)) == 0
    inst = read_instance(out)
    meta = json.loads((tmp_path / "p.meta.json").read_text())
    assert verify(inst, int(meta["planted_mask"], 16))
    assert meta["distinct_verified"] is True


def test_gen_size_outside_planted_rejected(tmp_path, capsys):
    assert run_cli("gen", "--family", "random", "--n", "4", "--size", "2",
                   "--out", str(tmp_path / "x.json")) == 2
    assert "error" in capsys.readouterr().err


def test_gen_unwritable_path(tmp_path, capsys):
    assert run_cli("gen", "--family", "powers2", "--n", "4",
                   "--out", str(tmp_path / "no" / "dir" / "x.json")) == 2


def test_meta_path_rules():
    assert meta_path_for("w10.json") == "w10.meta.json"
    assert meta_path_for("data/inst") == "data/inst.meta.json"


def test_solve_brute_powers2_frozen_output(tmp_path, capsys):
    out = tmp_path / "w10.json"
    run_cli("gen", "--family", "powers2", "--n", "10", "--out", str(out))
    code = run_cli("solve", "--in", str(out), "--algo", "brute")
    assert code == 1
    lines = capsys.readouterr().out.splitlines()[-2:]
    assert lines[0] == "NOSOLUTION"
    assert lines[1] == "C=1024 M=1 T=2048"


def test_solve_mitm_powers2_counters(tmp_path, capsys):
    out = tmp_path / "w10.json"
    run_cli("gen", "--family", "powers2", "--n", "10", "--out", str(out))
    assert run_cli("solve", "--in", str(out), "--algo", "mitm") == 1
    lines = capsys.readouterr().out.splitlines()[-2:]
    assert lines == ["NOSOLUTION", "C=32 M=32 T=480"]


def test_solve_empty_instance_all_algos(tmp_path, capsys):
    path = tmp_path / "empty.json"
    write_instance(Instance((), 0), path)
    for algo in ("brute", "mitm", "dp"):
        assert run_cli("solve", "--in", str(path), "--algo", algo) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "SOLUTION 0 0"


def test_solve_planted_finds_target_sum(tmp_path, capsys):
    out = tmp_path / "p.json"
    run_cli("gen", "--family", "planted", "--n", "16", "--seed", "3",
            "--size", "5", "--out", str(out))
    capsys.readouterr()
    assert run_cli("solve", "--in", str(out), "--algo", "mitm") == 0
    line = capsys.readouterr().out.splitlines()[0]
    tag, mask_hex, total = line.split()
    assert tag == "SOLUTION"
    inst = read_instance(out)
    assert int(total) == inst.target
    assert verify(inst, int(mask_hex, 16))


@pytest.mark.parametrize("existing", [None, "old\n"])
def test_gen_writes_both_files_or_neither(tmp_path, capsys, monkeypatch, existing):
    out = tmp_path / "x.json"
    meta = tmp_path / "x.meta.json"
    argv = ["gen", "--family", "powers2", "--n", "4", "--out", str(out)]
    if existing is not None:
        out.write_text(existing)
    # An unwritable sidecar path is refused before anything is generated.
    meta.mkdir()
    calls = []
    monkeypatch.setattr(subsum.cli, "generate", _counting(subsum.cli.generate, calls))
    assert run_cli(*argv) == 2
    assert "error" in capsys.readouterr().err
    assert calls == []
    assert sorted(os.listdir(tmp_path)) == (["x.json", "x.meta.json"] if existing
                                           else ["x.meta.json"])
    if existing is not None:
        assert out.read_text() == existing
    meta.rmdir()
    # A sidecar write that fails after the instance was written removes both.
    monkeypatch.setattr(subsum.cli, "dumps_meta", mock.Mock(side_effect=OSError(28, "full")))
    assert run_cli(*argv) == 2
    assert os.listdir(tmp_path) == []
    monkeypatch.undo()
    assert run_cli(*argv) == 0
    assert sorted(os.listdir(tmp_path)) == ["x.json", "x.meta.json"]


def test_gen_past_the_digit_limit_writes_neither_file(tmp_path, capsys):
    # powers2 n = 15000 has 4,516-digit integers, past the interpreter's
    # int-to-str limit, so the instance file cannot be written; gen exits 2
    # and leaves neither the instance nor its sidecar.
    out = tmp_path / "p.json"
    assert run_cli("gen", "--family", "powers2", "--n", "15000", "--out", str(out)) == 2
    assert "error" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_solve_trace_dump(tmp_path, capsys):
    inst_path = tmp_path / "i.json"
    write_instance(Instance((2, 3, 5), 8), inst_path)
    trace_path = tmp_path / "trace.txt"
    assert run_cli("solve", "--in", str(inst_path), "--algo", "mitm",
                   "--trace", str(trace_path)) == 0
    events = parse_trace(trace_path.read_text())
    inst = read_instance(inst_path)
    assert solution_witness_check(events, inst)
    text = trace_path.read_text()
    assert "LIST 4" in text and "EMIT" in text

    brute_trace = tmp_path / "bt.txt"
    assert run_cli("solve", "--in", str(inst_path), "--algo", "brute",
                   "--trace", str(brute_trace)) == 0
    events = parse_trace(brute_trace.read_text())
    assert solution_witness_check(events, inst)


@pytest.mark.parametrize("n", [0, 1, 10, 11, 12, 16])
@pytest.mark.parametrize("family", ["random", "planted", "powers2"])
@pytest.mark.parametrize("algo, solver", [("brute", brute_force_solve),
                                          ("mitm", mitm_solve)])
def test_solve_trace_bytes_equal_library_dump(tmp_path, capsys, algo, solver,
                                              family, n):
    # The CLI renders brute's trace one block of 2^10 masks at a time; the
    # n values sit around that block size.
    inst, _ = generate(GeneratorSpec(family=family, n=n, seed=3))
    path = tmp_path / "i.json"
    write_instance(inst, path)
    led = ComparisonLedger([])
    found = solver(inst, led).found
    trace = tmp_path / "t.txt"
    assert run_cli("solve", "--in", str(path), "--algo", algo,
                   "--trace", str(trace)) == (0 if found else 1)
    assert trace.read_bytes() == dump_trace(led.trace).encode()


def test_solve_trace_bytes_equal_library_dump_for_negative_values(tmp_path, capsys):
    # Generated families hold only positive values. Signed powers of two
    # have distinct subset sums, so the one solution of target -1023 is
    # mask 2^10 + 3, in brute's second block of 2^10 masks.
    inst = Instance(tuple(-(1 << i) if i % 2 == 0 else 1 << i for i in range(11)), -1023)
    path = tmp_path / "i.json"
    write_instance(inst, path)
    led = ComparisonLedger([])
    assert brute_force_solve(inst, led).solution == (1 << 10) + 3
    trace = tmp_path / "t.txt"
    assert run_cli("solve", "--in", str(path), "--algo", "brute", "--trace", str(trace)) == 0
    assert trace.read_bytes() == dump_trace(led.trace).encode()
    assert "CMP -1 -1023 GT\n" in trace.read_text()


def test_traced_brute_past_the_digit_limit_writes_no_trace(tmp_path, capsys):
    # Each element is within the int-to-str digit limit, but their sum, an
    # lhs of brute's first block, is not, so the trace cannot be rendered.
    limit = sys.get_int_max_str_digits()
    big = 10 ** limit - 1
    path = tmp_path / "i.json"
    write_instance(Instance((big, big), 1), path)
    trace = tmp_path / "t.txt"
    solve = ("solve", "--in", str(path), "--algo", "brute")
    assert run_cli(*solve, "--trace", str(trace)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(limit) in err
    assert os.listdir(tmp_path) == ["i.json"]
    trace.write_bytes(b"old trace\n")
    assert run_cli(*solve, "--trace", str(trace)) == 2
    assert trace.read_bytes() == b"old trace\n"
    capsys.readouterr()
    assert run_cli(*solve) == 1
    assert capsys.readouterr().out.splitlines()[0] == "NOSOLUTION"


@pytest.mark.parametrize("family, n", [("planted", 14), ("random", 11)])
def test_solve_trace_builds_no_miss_events(tmp_path, capsys, monkeypatch, family, n):
    # Each brute block reaches the file as one _Misses run, which
    # dump_trace renders from its sums; iterating the run would build its
    # CompareEvents.
    inst, _ = generate(GeneratorSpec(family=family, n=n, seed=3))
    path = tmp_path / "i.json"
    write_instance(inst, path)
    led = ComparisonLedger([])
    found = brute_force_solve(inst, led).found
    assert len(led.trace) > 1024  # more than one block

    def no_events(run):
        raise AssertionError("a misses run was iterated")
    monkeypatch.setattr(subsum.ledger._Misses, "__iter__", no_events)
    trace = tmp_path / "t.txt"
    assert run_cli("solve", "--in", str(path), "--algo", "brute",
                   "--trace", str(trace)) == (0 if found else 1)
    assert trace.read_bytes() == dump_trace(led.trace).encode()


def test_solve_trace_memory_per_event(tmp_path, capsys):
    # A brute trace held as events peaks near 211 B per event; rendered a
    # block at a time, the CLI holds about 22 B per line until its write.
    n = 18
    path = tmp_path / "p.json"
    write_instance(gen_powers_of_two(n), path)
    trace = tmp_path / "t.txt"
    argv = ["solve", "--in", str(path), "--algo", "brute", "--trace", str(trace)]
    tracemalloc.start()
    try:
        assert main(argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.read_text().count("\n") == 1 << n
    assert peak < 30 << n, f"solve --trace peaked at {peak / (1 << n):.1f} B per event"


def test_solve_trace_refused_above_cap(tmp_path, capsys):
    path = tmp_path / "big.json"
    write_instance(Instance((1,) * 25, 7), path)
    assert run_cli("solve", "--in", str(path), "--algo", "mitm",
                   "--trace", str(tmp_path / "t.txt")) == 2
    assert "24" in capsys.readouterr().err


def _counting(solver, calls):
    def counted(*args, **kwargs):
        calls.append(args)
        return solver(*args, **kwargs)
    return counted


def test_solve_bad_trace_path_refused_before_solving(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(subsum.cli, "brute_force_solve",
                        _counting(subsum.cli.brute_force_solve, calls))
    path = tmp_path / "p.json"
    write_instance(Instance(tuple(1 << i for i in range(20)), 1 << 20), path)
    for bad in (tmp_path / "missing" / "t.txt", tmp_path):
        assert run_cli("solve", "--in", str(path), "--algo", "brute",
                       "--trace", str(bad)) == 2
        assert "error" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("existing", [None, "occupied\n"])
def test_refused_traced_solve_leaves_no_trace_file(tmp_path, capsys, monkeypatch,
                                                   existing):
    calls = []
    monkeypatch.setattr(subsum.cli, "mitm_solve",
                        _counting(subsum.cli.mitm_solve, calls))
    path = tmp_path / "big.json"
    write_instance(Instance((1,) * 25, 7), path)
    trace = tmp_path / "t.txt"
    if existing is not None:
        trace.write_text(existing)
    assert run_cli("solve", "--in", str(path), "--algo", "mitm",
                   "--trace", str(trace)) == 2
    assert "capped" in capsys.readouterr().err
    assert len(calls) == 1
    if existing is None:
        assert not trace.exists()
    else:
        assert trace.read_text() == existing
    # A later successful run replaces the old bytes with the whole trace.
    write_instance(Instance((2, 3, 5), 8), path)
    assert run_cli("solve", "--in", str(path), "--algo", "mitm",
                   "--trace", str(trace)) == 0
    assert parse_trace(trace.read_text())[0].length == 4


class _FullDisk:
    """A file whose first write stores 10 characters and then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:10])
        self.fh.flush()
        raise OSError(28, "No space left on device")


def _fill_disk(monkeypatch):
    """Make the output-file writer's file objects _FullDisks.

    Every file the CLI writes goes through subsum.model._write_text, which
    wraps the descriptor it opened with open(fd, "w").
    """
    def full_disk_open(file, mode="r", **kwargs):
        fh = open(file, mode, **kwargs)
        return _FullDisk(fh) if mode == "w" else fh
    monkeypatch.setattr(subsum.model, "open", full_disk_open, raising=False)


def test_failed_trace_write_removes_the_partial_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "i.json"
    write_instance(Instance((2, 3, 5), 8), path)
    trace = tmp_path / "t.txt"
    trace.write_text("old trace\n")
    _fill_disk(monkeypatch)
    assert run_cli("solve", "--in", str(path), "--algo", "brute",
                   "--trace", str(trace)) == 2
    assert "No space left" in capsys.readouterr().err
    assert not trace.exists()


def test_failed_gen_write_removes_both_files(tmp_path, capsys, monkeypatch):
    out = tmp_path / "i.json"
    out.write_text("old instance\n")
    (tmp_path / "i.meta.json").write_text("old sidecar\n")
    _fill_disk(monkeypatch)
    assert run_cli("gen", "--family", "powers2", "--n", "4", "--out", str(out)) == 2
    assert "No space left" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


_OLD_BYTES = b"x" * 100_000 + b"\n"


def _gen_and_trace(directory):
    """gen planted n = 12 into directory, then solve --trace into it."""
    inst = directory / "i.json"
    assert run_cli("gen", "--family", "planted", "--n", "12", "--seed", "4",
                   "--out", str(inst)) == 0
    assert run_cli("solve", "--in", str(inst), "--algo", "brute",
                   "--trace", str(directory / "t.txt")) == 0


def _read(directory, names=("i.json", "i.meta.json", "t.txt")):
    return {name: (directory / name).read_bytes() for name in names}


def test_outputs_onto_longer_files_match_a_fresh_write(tmp_path, capsys):
    # Existing files are overwritten in place, then cut to the new length,
    # so no byte of a longer old file may survive.
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    fresh.mkdir()
    reused.mkdir()
    _gen_and_trace(fresh)
    for name in ("i.json", "i.meta.json", "t.txt", "b.csv"):
        (reused / name).write_bytes(_OLD_BYTES)
    _gen_and_trace(reused)
    assert _read(reused) == _read(fresh)
    assert all(len(data) < len(_OLD_BYTES) for data in _read(fresh).values())
    csv_path = reused / "b.csv"
    assert run_cli("bench", "--algo", "mitm", "--family", "powers2", "--n-min", "4",
                   "--n-max", "6", "--out", str(csv_path), "--force") == 0
    data = csv_path.read_bytes()
    assert b"x" not in data and data.count(b"\r\n") == 4
    assert [r.n for r in subsum.read_records_csv(csv_path)] == [4, 5, 6]


@pytest.mark.parametrize("link", [os.symlink, os.link], ids=["symlink", "hard_link"])
def test_outputs_through_a_link_rewrite_its_inode(tmp_path, capsys, link):
    fresh, real, links = tmp_path / "fresh", tmp_path / "real", tmp_path / "links"
    for directory in (fresh, real, links):
        directory.mkdir()
    _gen_and_trace(fresh)
    names = ("i.json", "t.txt")
    for name in names:
        (real / name).write_bytes(_OLD_BYTES)
        link(real / name, links / name)
    inodes = [os.stat(real / name).st_ino for name in names]
    _gen_and_trace(links)
    assert _read(real, names) == _read(fresh, names)
    assert [os.stat(real / name).st_ino for name in names] == inodes
    assert all(os.path.islink(links / name) == (link is os.symlink) for name in names)


def test_refused_solve_through_a_dangling_symlink_creates_no_target(tmp_path, capsys):
    # The link is followed: its missing target is created for the run and
    # removed when the run is refused, and a later run writes the target.
    path = tmp_path / "p31.json"
    write_instance(Instance((1,) * 31, 7), path)
    link = tmp_path / "link.txt"
    os.symlink("target.txt", link)
    assert run_cli("solve", "--in", str(path), "--algo", "brute", "--trace", str(link)) == 2
    assert "cap" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "p31.json"]
    assert os.path.islink(link)
    write_instance(Instance((2, 3, 5), 8), path)
    assert run_cli("solve", "--in", str(path), "--algo", "brute", "--trace", str(link)) == 0
    assert (tmp_path / "target.txt").read_text().endswith("EMIT 6\n")


def test_failed_write_through_a_symlink_removes_its_target(tmp_path, capsys, monkeypatch):
    # The partial file is the link's target; removing only the link would
    # leave the target holding the first bytes of the trace.
    def partial_write(path, *pieces):
        subsum.model._write_text(path, "".join(pieces)[:100])
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(subsum.cli, "_write_text", partial_write)
    path = tmp_path / "i.json"
    write_instance(Instance(tuple(range(1, 9)), 100), path)
    real, link = tmp_path / "real.txt", tmp_path / "link.txt"
    real.write_text("old trace\n")
    os.symlink(real, link)
    assert run_cli("solve", "--in", str(path), "--algo", "brute", "--trace", str(link)) == 2
    assert "No space left" in capsys.readouterr().err
    assert not real.exists()
    assert os.path.islink(link)


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
@pytest.mark.parametrize("algo", ["brute", "mitm"])
def test_solve_trace_to_dev_null(tmp_path, capsys, algo):
    # /dev/null is not a regular file: it is written but neither cut (which
    # would fail) nor removed.
    path = tmp_path / "i.json"
    write_instance(Instance((2, 3, 5), 8), path)
    assert run_cli("solve", "--in", str(path), "--algo", algo, "--trace", "/dev/null") == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("SOLUTION ")
    assert stat.S_ISCHR(os.stat("/dev/null").st_mode)


def test_solve_out_of_memory_exits_2_and_leaves_no_trace(tmp_path, capsys, monkeypatch):
    # Exit 1 would read as NOSOLUTION.
    monkeypatch.setattr(subsum.cli, "brute_force_solve", mock.Mock(side_effect=MemoryError))
    path = tmp_path / "i.json"
    write_instance(Instance((2, 3, 5), 8), path)
    trace = tmp_path / "t.txt"
    assert run_cli("solve", "--in", str(path), "--algo", "brute",
                   "--trace", str(trace)) == 2
    assert capsys.readouterr() == ("", "error: out of memory\n")
    assert os.listdir(tmp_path) == ["i.json"]


def test_solve_trace_onto_its_own_input_refused(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(subsum.cli, "mitm_solve", _counting(subsum.cli.mitm_solve, calls))
    path = tmp_path / "same.json"
    write_instance(Instance((2, 3, 5), 8), path)
    before = path.read_bytes()
    os.link(path, tmp_path / "link.json")
    for trace in (path, tmp_path / "." / "same.json", tmp_path / "link.json"):
        assert run_cli("solve", "--in", str(path), "--algo", "mitm",
                       "--trace", str(trace)) == 2
        assert "is the --in file" in capsys.readouterr().err
    assert calls == []
    assert path.read_bytes() == before
    assert run_cli("solve", "--in", str(path), "--algo", "mitm") == 0


@pytest.mark.parametrize("kind", ["dangling_symlink", "symlink", "hard_link"])
def test_gen_onto_its_own_sidecar_refused(tmp_path, capsys, monkeypatch, kind):
    # Writing the sidecar would replace the instance, leaving an unreadable file.
    calls = []
    monkeypatch.setattr(subsum.cli, "generate", _counting(subsum.cli.generate, calls))
    path, sidecar = tmp_path / "x.json", tmp_path / "x.meta.json"
    if kind == "dangling_symlink":
        os.symlink("x.json", sidecar)
    else:
        path.write_bytes(b"old instance\n")
        (os.symlink if kind == "symlink" else os.link)(path, sidecar)
    assert run_cli("gen", "--family", "planted", "--n", "6", "--seed", "1",
                   "--out", str(path)) == 2
    assert capsys.readouterr() == ("", f"error: --out {path} is its sidecar {sidecar}\n")
    assert calls == []
    assert os.path.islink(sidecar) == (kind != "hard_link")
    if kind == "dangling_symlink":
        assert os.listdir(tmp_path) == ["x.meta.json"]
    else:
        assert path.read_bytes() == sidecar.read_bytes() == b"old instance\n"


def test_solve_trace_refused_for_dp(tmp_path, capsys):
    path = tmp_path / "i.json"
    write_instance(Instance((1, 2), 3), path)
    assert run_cli("solve", "--in", str(path), "--algo", "dp",
                   "--trace", str(tmp_path / "t.txt")) == 2
    assert "dp" in capsys.readouterr().err


def test_solve_dp_reports_floor_counters(tmp_path, capsys):
    path = tmp_path / "i.json"
    write_instance(Instance((1, 2), 3), path)
    assert run_cli("solve", "--in", str(path), "--algo", "dp") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "SOLUTION 3 3"
    assert lines[1] == "C=0 M=1 T=0"


def test_solve_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n":2,"a":["1"],"b":"0"}')
    assert run_cli("solve", "--in", str(path), "--algo", "brute") == 2
    assert "error" in capsys.readouterr().err


def test_solve_missing_file(tmp_path, capsys):
    assert run_cli("solve", "--in", str(tmp_path / "nope.json"),
                   "--algo", "brute") == 2


def test_solve_cap_exceeded(tmp_path, capsys):
    path = tmp_path / "wide.json"
    write_instance(Instance((0,) * 31, 1), path)
    assert run_cli("solve", "--in", str(path), "--algo", "brute") == 2
    assert "cap" in capsys.readouterr().err.lower()


def test_check_match_and_mismatch(tmp_path, capsys):
    path = tmp_path / "i.json"
    write_instance(Instance((3, 34, 4, 12, 5, 2), 9), path)
    assert run_cli("check", "--in", str(path), "--mask", "14") == 0
    assert capsys.readouterr().out.strip() == "MATCH 14 9"
    assert run_cli("check", "--in", str(path), "--mask", "3") == 1
    assert capsys.readouterr().out.strip() == "NOMATCH 3 37"
    assert run_cli("check", "--in", str(path), "--mask", "1F") == 1
    assert capsys.readouterr().out.strip() == "NOMATCH 1f 58"


def test_check_sums_the_mask_once(tmp_path, capsys, monkeypatch):
    walks = []
    monkeypatch.setattr(subsum.model, "mask_indices",
                        _counting(subsum.model.mask_indices, walks))
    path = tmp_path / "i.json"
    write_instance(Instance((3, 34, 4, 12, 5, 2), 9), path)
    for mask, code, line in (("14", 0, "MATCH 14 9"), ("3", 1, "NOMATCH 3 37")):
        walks.clear()
        assert run_cli("check", "--in", str(path), "--mask", mask) == code
        assert capsys.readouterr().out == line + "\n"
        assert walks == [(int(mask, 16),)]


def test_check_invalid_mask(tmp_path, capsys):
    path = tmp_path / "i.json"
    write_instance(Instance((1, 2), 3), path)
    assert run_cli("check", "--in", str(path), "--mask", "zz") == 2
    assert run_cli("check", "--in", str(path), "--mask", "7") == 2
    capsys.readouterr()
    # Forms int(text, 16) accepts but the mask format does not.
    for text in (" 1_1 ", "0x11", "-0", "+1", ""):
        assert run_cli("check", "--in", str(path), "--mask", text) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mask must be hexadecimal" in captured.err


def test_bench_and_report_end_to_end(tmp_path, capsys):
    csv_path = tmp_path / "scal.csv"
    assert run_cli("bench", "--algo", "mitm", "--family", "powers2",
                   "--n-min", "16", "--n-max", "24", "--step", "2",
                   "--out", str(csv_path)) == 0
    capsys.readouterr()
    assert run_cli("report", "--csv", str(csv_path)) == 0
    out = capsys.readouterr().out
    assert "group algo=mitm family=powers2" in out
    assert "slope=0.5000" in out
    assert "TRADEOFF OK" in out


def test_bench_deterministic_bytes_except_wall(tmp_path):
    argv = ["bench", "--algo", "brute", "--family", "random", "--n-min", "4",
            "--n-max", "10", "--step", "2", "--trials", "2", "--seed", "11"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*argv, "--out", str(a)) == 0
    assert run_cli(*argv, "--out", str(b)) == 0
    strip = lambda p: [line.rsplit(",", 1)[0] for line in p.read_text().splitlines()]
    assert strip(a) == strip(b)


def test_csv_refuses_existing_file(tmp_path, capsys):
    path = tmp_path / "out.csv"
    path.write_text("already here")
    argv = ["bench", "--algo", "mitm", "--family", "powers2", "--n-min", "4",
            "--n-max", "8", "--out", str(path)]
    assert run_cli(*argv) == 2
    assert f"error: [Errno 17] File exists: '{path}'" in capsys.readouterr().err
    assert path.read_text() == "already here"
    assert run_cli(*argv, "--force") == 0
    assert path.read_text().startswith("n,family,algo,seed,trial,C,M,T,wall_time")


def test_csv_refused_before_any_row_runs(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(subsum.bench, "brute_force_solve",
                        _counting(subsum.bench.brute_force_solve, calls))
    path = tmp_path / "out.csv"
    path.write_text("already here")
    assert run_cli("bench", "--algo", "brute", "--family", "powers2",
                   "--n-min", "4", "--n-max", "8", "--out", str(path)) == 2
    assert "File exists" in capsys.readouterr().err
    assert calls == []
    assert path.read_text() == "already here"


@pytest.mark.parametrize("out, force", [("missing/x.csv", []), ("d", ["--force"])])
def test_bench_unwritable_out_refused_before_any_row_runs(tmp_path, capsys, monkeypatch,
                                                          out, force):
    calls = []
    monkeypatch.setattr(subsum.bench, "brute_force_solve",
                        _counting(subsum.bench.brute_force_solve, calls))
    (tmp_path / "d").mkdir()
    assert run_cli("bench", "--algo", "brute", "--family", "powers2", "--n-min", "4",
                   "--n-max", "8", "--out", str(tmp_path / out), *force) == 2
    assert "error" in capsys.readouterr().err
    assert calls == []
    assert os.listdir(tmp_path) == ["d"]
    assert os.listdir(tmp_path / "d") == []


@pytest.mark.parametrize("existing", [None, "old rows\n"])
def test_bench_failed_csv_write_removes_the_partial_file(tmp_path, capsys, monkeypatch,
                                                         existing):
    path = tmp_path / "x.csv"
    argv = ["bench", "--algo", "mitm", "--family", "powers2", "--n-min", "4",
            "--n-max", "8", "--out", str(path), "--force"]
    if existing is not None:
        path.write_text(existing)
    _fill_disk(monkeypatch)
    assert run_cli(*argv) == 2
    assert "No space left" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("existing", [None, "old rows\n"])
def test_bench_row_that_raises_keeps_old_csv(tmp_path, capsys, monkeypatch, existing):
    path = tmp_path / "x.csv"
    if existing is not None:
        path.write_text(existing)
    monkeypatch.setattr(subsum.bench, "mitm_solve", mock.Mock(side_effect=MemoryError))
    assert run_cli("bench", "--algo", "mitm", "--family", "powers2", "--n-min", "4",
                   "--n-max", "8", "--out", str(path), "--force") == 2
    assert capsys.readouterr().err == "error: out of memory\n"
    if existing is None:
        assert not path.exists()
    else:
        assert path.read_text() == existing


@pytest.mark.parametrize("grid, message", [
    ("powers2 --n-min 4 --n-max 6 --size 2", "planted"),
    ("random --n-min 4 --n-max 6 --size 2", "planted"),
    ("powers2 --n-min 4 --n-max 6 --seed -1", "seed must be a 64-bit unsigned integer"),
    (f"powers2 --n-min 4 --n-max 6 --seed {1 << 64}",
     "seed must be a 64-bit unsigned integer"),
    ("planted --n-min 4 --n-max 6 --size 7", "planted_size must be in [0, 6]"),
    ("planted --n-min 4 --n-max 6 --size -1", "planted_size must be in [0, 6]"),
    ("powers2 --n-min 8 --n-max 4", "n_min"),
    ("powers2 --n-min -1 --n-max 4", "n_min"),
    ("powers2 --n-min 4 --n-max 6 --trials 0", "trials must be >= 1"),
])
@pytest.mark.parametrize("existing", [None, "old rows\n"])
def test_bench_refused_grid_writes_no_file(tmp_path, capsys, grid, message, existing):
    path = tmp_path / "x.csv"
    argv = ["bench", "--algo", "mitm", "--family", *grid.split(), "--out", str(path)]
    if existing is not None:
        path.write_text(existing)
        argv.append("--force")
    assert run_cli(*argv) == 2
    assert message in capsys.readouterr().err
    if existing is None:
        assert os.listdir(tmp_path) == []
    else:
        assert path.read_text() == existing


def test_report_flags_violation_row(tmp_path, capsys):
    path = tmp_path / "v.csv"
    rows = ["n,family,algo,seed,trial,C,M,T,wall_time"]
    rows += [f"{n},hand,x,0,0,4,1,8,0.000000" for n in (1, 2, 3)]
    rows += ["4,hand,x,0,0,4,5,4,0.000000"]
    path.write_text("\n".join(rows) + "\n")
    assert run_cli("report", "--csv", str(path)) == 1
    out = capsys.readouterr().out
    assert "violates" in out
    assert "TRADEOFF VIOLATION" in out


def test_report_mt_shortfall_reported_but_exit_zero(tmp_path, capsys):
    path = tmp_path / "mt.csv"
    rows = ["n,family,algo,seed,trial,C,M,T,wall_time"]
    # T >= M >= 1 holds everywhere; the n=30 row fails M*T >= 2^n
    rows += [f"{n},hand,x,0,0,4,2,8,0.000000" for n in (1, 2, 3, 30)]
    path.write_text("\n".join(rows) + "\n")
    assert run_cli("report", "--csv", str(path)) == 0
    out = capsys.readouterr().out
    assert "M*T>=2^n: 3/4" in out
    assert "TRADEOFF OK" in out


def test_report_full_stdout_and_exit_code(tmp_path, capsys):
    # Two interleaved groups: row numbers count within a group, not the CSV.
    path = tmp_path / "two.csv"
    ok = [(1, 2, 1, 2), (2, 4, 1, 4), (3, 8, 1, 8), (4, 16, 1, 16)]
    bad = [(4, 16, 5, 4), (5, 32, 2, 16), (6, 64, 2, 10), (7, 128, 4, 32)]
    rows = ["n,family,algo,seed,trial,C,M,T,wall_time"]
    for good, broken in zip(ok, bad):
        rows += ["{},ok,x,0,0,{},{},{},0.000000".format(*good),
                 "{},bad,x,0,0,{},{},{},0.000000".format(*broken)]
    path.write_text("\n".join(rows) + "\n")
    assert run_cli("report", "--csv", str(path)) == 1
    assert capsys.readouterr().out == (
        "group algo=x family=bad rows=4 distinct_n=4\n"
        "  log2(C) vs n: slope=1.0000 intercept=0.0000 rmse=0.0000\n"
        "  log2(T) vs n: slope=0.8322 intercept=-0.9966 rmse=0.5686\n"
        "  T>=M>=1:  3/4 rows ok\n"
        "  M*T>=2^n: 3/4 rows ok\n"
        "    row 0: T=4 M=5 violates T>=M>=1\n"
        "    row 2: M*T=20 < 2^6\n"
        "group algo=x family=ok rows=4 distinct_n=4\n"
        "  log2(C) vs n: slope=1.0000 intercept=0.0000 rmse=0.0000\n"
        "  log2(T) vs n: slope=1.0000 intercept=0.0000 rmse=0.0000\n"
        "  T>=M>=1:  4/4 rows ok\n"
        "  M*T>=2^n: 4/4 rows ok\n"
        "TRADEOFF VIOLATION\n")


def test_report_names_a_product_past_the_digit_limit(tmp_path, capsys):
    # M = T = 4,000 nines are in the CSV grammar; M*T has about 8,000 digits.
    path = tmp_path / "wide.csv"
    nines = "9" * 4000
    path.write_text("n,family,algo,seed,trial,C,M,T,wall_time\n" + "".join(
        f"{100000 + k},y,x,0,0,4,{nines},{nines},0.000000\n"
        for k in range(4)))
    assert run_cli("report", "--csv", str(path)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[3:] == [
        "  T>=M>=1:  4/4 rows ok", "  M*T>=2^n: 0/4 rows ok",
        *(f"    row {k}: M*T=<int of 26576 bits> < 2^{100000 + k}" for k in range(4)),
        "TRADEOFF OK"]


def test_report_too_few_points(tmp_path, capsys):
    path = tmp_path / "few.csv"
    assert run_cli("bench", "--algo", "mitm", "--family", "powers2",
                   "--n-min", "4", "--n-max", "8", "--step", "2",
                   "--out", str(path)) == 0
    assert run_cli("report", "--csv", str(path)) == 2
    assert "distinct n" in capsys.readouterr().err


def test_report_names_the_group_it_cannot_fit(tmp_path, capsys):
    path = tmp_path / "mixed.csv"
    records = (run_scaling_experiment("brute", "powers2", 4, 7, 1, 1, 0)
               + run_scaling_experiment("mitm", "powers2", 4, 6, 1, 1, 0))
    write_records_csv(records, path)
    assert run_cli("report", "--csv", str(path)) == 2
    captured = capsys.readouterr()
    assert "distinct n" in captured.err
    lines = captured.out.splitlines()
    assert lines[0].startswith("group algo=brute family=powers2 ")
    assert lines[-1] == "group algo=mitm family=powers2 rows=3 distinct_n=3"


def test_report_names_row_of_integer_past_digit_limit(tmp_path, capsys):
    path = tmp_path / "long.csv"
    path.write_text("n,family,algo,seed,trial,C,M,T,wall_time\n"
                    f"4,hand,x,0,0,{'7' * 5000},1,32,0.000100\n", encoding="utf-8")
    assert run_cli("report", "--csv", str(path)) == 2
    assert "malformed CSV row at line 2: C has 5000 digits" in capsys.readouterr().err


@pytest.mark.parametrize("odd, message", [
    ("-1,hand,x,0,0,4,2,8,0.000000", "n must be nonnegative, got -1"),
    ("4,hand,x,0,0,-4,2,8,0.000000", "C must be nonnegative, got -4"),
    # Exit 1 with TRADEOFF VIOLATION would read as a measured result.
    ("4,hand,x,99999999999999999999999,0,4,0,8,0.000000",
     "seed must be below 2^64, got 99999999999999999999999"),
    ("4,hand,x,0,0,4,0,8,0.000000", "M must be at least 1, got 0"),
], ids=["negative_n", "negative_C", "seed_past_64_bits", "zero_M"])
def test_report_refuses_rows_no_bench_run_writes(tmp_path, capsys, odd, message):
    # Rows n = 1, 2, 3, an odd row, then n = 10^12: the odd row is line 5.
    path = tmp_path / "odd.csv"
    rows = ["n,family,algo,seed,trial,C,M,T,wall_time"]
    rows += [f"{n},hand,x,0,0,4,2,8,0.000000" for n in (1, 2, 3)]
    rows += [odd, f"{10 ** 12},hand,x,0,0,4,2,8,0.000000"]
    path.write_text("\n".join(rows) + "\n")
    assert run_cli("report", "--csv", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"malformed CSV row at line 5: {message}" in captured.err


def test_report_header_only_csv_refused(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("n,family,algo,seed,trial,C,M,T,wall_time\n")
    assert run_cli("report", "--csv", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: CSV contains no rows\n"


def test_report_missing_csv(tmp_path):
    assert run_cli("report", "--csv", str(tmp_path / "none.csv")) == 2


@pytest.mark.parametrize("text", ["1_0", " 7 ", "\u0663", "+4", "4.0", ""])
def test_integer_flags_take_ascii_decimal_only(tmp_path, capsys, text):
    # int() reads "1_0" as 10, " 7 " as 7 and Arabic-Indic "\u0663" as 3.
    out = str(tmp_path / "x.json")
    gen = ["gen", "--family", "planted", "--n", "8", "--out", out]
    bench = ["bench", "--algo", "mitm", "--family", "planted", "--n-min", "4",
             "--n-max", "8", "--out", str(tmp_path / "x.csv")]
    for argv, flag in [(gen, "--n"), (gen, "--seed"), (gen, "--size"),
                       (bench, "--n-min"), (bench, "--n-max"), (bench, "--step"),
                       (bench, "--trials"), (bench, "--seed"), (bench, "--size")]:
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, flag, text)
        assert exc.value.code == 2
        assert f"argument {flag}: expected a decimal integer" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
    assert run_cli(*gen, "--n", "08", "--seed", "-0", "--size", "3") == 0


@pytest.mark.parametrize("text", ["1" * 5000, "-" + "7" * 5000])
def test_integer_flags_name_the_digit_limit(tmp_path, capsys, text):
    # int() refuses past the limit with a message argparse would replace by
    # one that echoes every digit.
    out = str(tmp_path / "x.json")
    gen = ["gen", "--family", "planted", "--n", "8", "--out", out]
    bench = ["bench", "--algo", "mitm", "--family", "planted", "--n-min", "4",
             "--n-max", "8", "--out", str(tmp_path / "x.csv")]
    for argv, flag in [(gen, "--n"), (gen, "--seed"), (gen, "--size"),
                       (bench, "--n-min"), (bench, "--n-max"), (bench, "--step"),
                       (bench, "--trials"), (bench, "--seed"), (bench, "--size")]:
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, flag, text)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert (f"argument {flag}: the integer has 5000 digits, over the interpreter's "
                f"limit of {sys.get_int_max_str_digits()}\n") in err
        assert len(err) < 500, err
    assert os.listdir(tmp_path) == []


def test_parser_built_once_and_reused(tmp_path, capsys):
    assert build_parser() is build_parser()
    inst = tmp_path / "i.json"
    write_instance(Instance((3, 5), 8), inst)
    # A run that exits on a usage error leaves nothing behind for the next.
    with pytest.raises(SystemExit):
        run_cli("check", "--in", str(inst))
    assert run_cli("check", "--in", str(inst), "--mask", "3") == 0
    assert run_cli("check", "--in", str(inst), "--mask", "1") == 1
    assert capsys.readouterr().out.splitlines() == ["MATCH 3 8", "NOMATCH 1 3"]


def test_readme_cli_example_as_a_subprocess(tmp_path):
    # README's gen/solve/check example, over the range CI's installed-script
    # step reads: each solve/check stdout must equal README's "# " lines.
    src = os.path.dirname(os.path.dirname(subsum.__file__))
    with open(os.path.join(os.path.dirname(src), "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("\nsubsum gen --family powers2") + 1
    lines = text[start:text.index("\n", text.index("\n# MATCH", start) + 1)].splitlines()
    shown = [line[2:] for line in lines if line.startswith("# ")]
    printed = []
    for line in lines:
        if not line.startswith("subsum "):
            continue
        proc = subprocess.run([sys.executable, "-m", "subsum", *line.split()[1:]],
                              cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert proc.stderr == "", line
        out = proc.stdout.splitlines()
        if line.startswith("subsum gen "):
            assert proc.returncode == 0, line
        else:  # exit 1 is a negative answer
            negative = out[0] in ("NOSOLUTION", "NOMATCH")
            assert proc.returncode == (1 if negative else 0), line
            printed += out
    assert shown and printed == shown


def test_readme_library_example_as_a_subprocess(tmp_path):
    src = os.path.dirname(os.path.dirname(subsum.__file__))
    readme = os.path.join(os.path.dirname(src), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("\n## Library use\n"):]
    start = section.index("```python\n") + len("```python\n")
    code = section[start:section.index("```\n", start)]
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    # README's "# " line shows what the block prints.
    shown = [line[2:] for line in code.splitlines() if line.startswith("# ")]
    assert proc.stdout.splitlines() == shown == ["0x14 8 88"]


def test_package_imports_only_the_standard_library():
    # pyproject.toml promises dependencies = []. Every module but __main__
    # (which would run the CLI) is imported; -S keeps site-packages' .pth
    # hooks, which import their own modules, out of sys.modules. statistics
    # and csv load only when a fit or a bench CSV first runs; pytest's own
    # process already holds both, so only a fresh interpreter can tell.
    src = os.path.dirname(os.path.dirname(subsum.__file__))
    code = ("import importlib, pkgutil, sys, subsum\n"
            "for m in pkgutil.iter_modules(subsum.__path__):\n"
            "    if m.name != '__main__':\n"
            "        importlib.import_module('subsum.' + m.name)\n"
            "top = {name.partition('.')[0] for name in sys.modules}\n"
            "print(sorted(top - set(sys.stdlib_module_names) - {'subsum', '__main__'}))\n"
            "print('subsum.cli' in sys.modules)\n"
            "print([m for m in ('statistics', 'csv') if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\nTrue\n[]\n")


def test_readme_cap_figures_match_the_constants():
    from subsum.ledger import FULL_TRACE_MAX_N
    from subsum.solvers import BRUTE_FORCE_MAX_N, DP_MAX_RANGE, MITM_MAX_N
    src = os.path.dirname(os.path.dirname(subsum.__file__))
    with open(os.path.join(os.path.dirname(src), "README.md"), encoding="utf-8") as fh:
        text = " ".join(fh.read().split())
    digits = len(str(DP_MAX_RANGE)) - 1
    assert DP_MAX_RANGE == 10 ** digits  # README writes it as a power of ten
    assert (f"brute `n <= {BRUTE_FORCE_MAX_N}`, mitm `n <= {MITM_MAX_N}`, "
            f"traces `n <= {FULL_TRACE_MAX_N}`, dp sum range `10^{digits}`") in text
    assert f"(brute {BRUTE_FORCE_MAX_N}, mitm {MITM_MAX_N})" in text


@pytest.mark.parametrize("command", ["solve", "check"])
def test_deeply_nested_instance_exits_2(tmp_path, capsys, command):
    # Exit 1 would read as "no solution" or NOMATCH.
    path = tmp_path / "deep.json"
    path.write_text('{"n":' + "[" * 100_000 + "]" * 100_000 + ',"a":[],"b":"0"}')
    argv = ["--algo", "brute"] if command == "solve" else ["--mask", "0"]
    assert run_cli(command, "--in", str(path), *argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: not valid JSON: nested too deeply\n"


def test_report_refuses_n_too_large_for_a_float(tmp_path, capsys):
    # Free-form labels have no n cap; exit 1 would read as TRADEOFF VIOLATION.
    path = tmp_path / "huge.csv"
    path.write_text("n,family,algo,seed,trial,C,M,T,wall_time\n" + "".join(
        f"{10 ** 400 + k},y,x,0,0,4,2,8,0.000100\n" for k in range(4)))
    assert run_cli("report", "--csv", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "group algo=x family=y rows=4 distinct_n=4"
    assert captured.err.startswith("error: n=1000")
    assert captured.err.endswith(" (401 characters) is too large to fit as a float\n")


def test_bench_grid_with_no_runnable_row_exits_2(tmp_path, capsys):
    # Size 6 fits n_max = 6, but the grid's points are 0 and 5.
    path = tmp_path / "x.csv"
    assert run_cli("bench", "--algo", "mitm", "--family", "planted", "--size", "6",
                   "--n-min", "0", "--n-max", "6", "--step", "5", "--out", str(path)) == 2
    assert capsys.readouterr().err == (
        "error: no row of the grid runs: n=0..5: planted size 6 exceeds n\n")
    assert os.listdir(tmp_path) == []


_LONG = "1_" * 50_000  # 100,000 characters
_CSV_HEAD = "n,family,algo,seed,trial,C,M,T,wall_time\n"


@pytest.mark.parametrize("text, argv, names", [
    (None, ["gen", "--family", "powers2", "--n", _LONG, "--out", "g.json"],
     "argument --n: expected a decimal integer, got '1_1_"),
    (None, ["check", "--in", "f", "--mask", _LONG], "mask must be hexadecimal, got '1_1_"),
    (json.dumps({"n": 1, "a": [_LONG], "b": "0"}), ["solve", "--in", "f", "--algo", "brute"],
     "element must be a decimal string, got '1_1_"),
    (json.dumps({"n": _LONG, "a": [], "b": "0"}), ["solve", "--in", "f", "--algo", "brute"],
     "n must be a nonnegative integer, got '1_1_"),
    (f'{{"{_LONG}":1,"{_LONG}":2}}', ["solve", "--in", "f", "--algo", "brute"],
     "duplicate key '1_1_"),
    (_CSV_HEAD + _LONG + "\n", ["report", "--csv", "f"], "malformed CSV row at line 2: ['1_1_"),
    (_LONG + "\n", ["report", "--csv", "f"], "unexpected CSV header ['1_1_"),
], ids=["int_flag", "mask", "element", "instance_n", "duplicate_key", "csv_row", "csv_header"])
def test_error_quotes_a_long_offender_bounded(tmp_path, capsys, monkeypatch, text, argv, names):
    monkeypatch.chdir(tmp_path)
    if text is None:
        write_instance(Instance((1, 2), 3), "f")
    else:
        (tmp_path / "f").write_text(text)
    try:
        code = run_cli(*argv)
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    assert code == 2
    message = capsys.readouterr().err.splitlines()[-1]
    assert names in message
    assert re.search(r"\.\.\. \(10000[24] characters\)", message)  # the repr's length
    assert len(message) < 1000, len(message)


_HUGE = 10 ** 4000  # 4,001 digits, within CPython's int-to-str digit limit


def _cli_error(text, *argv):
    """The error line of a CLI run on the file f holding text, which must exit 2."""
    def run(capsys):
        with open("f", "w", encoding="utf-8") as fh:
            fh.write(text)
        assert run_cli(*argv) == 2
        return capsys.readouterr().err.splitlines()[-1]
    return run


def _witness_error(capsys):
    with pytest.raises(subsum.TraceError) as exc:
        solution_witness_check([subsum.CompareEvent(3, 3, subsum.Ordering.EQ),
                                subsum.EmitEvent(1 << 400_000)], Instance((1, 2), 3))
    return str(exc.value)


_SOLVE_F = ("solve", "--in", "f", "--algo")


@pytest.mark.parametrize("run, names, length", [
    (_cli_error(dumps_instance(Instance((1, 2), 3)), "check", "--in", "f",
                "--mask", "f" * 100_000), "error: mask 0xffff", 100_002),
    (_witness_error, "emitted mask invalid: mask 0x1000", 100_003),
    (_cli_error(json.dumps({"n": _HUGE, "a": [], "b": "0"}), *_SOLVE_F, "brute"),
     "error: n=1000", 4001),
    (_cli_error(dumps_instance(Instance((_HUGE,), 0)), *_SOLVE_F, "dp"),
     "error: sum range 1000", 4001),
    (_cli_error(_CSV_HEAD + "".join(f"{_HUGE + k},y,x,0,0,{k},2,8,0.000100\n"
                                    for k in range(4)), "report", "--csv", "f"),
     "error: count must be positive to fit log growth, got 0 at n=1000", 4001),
    (_cli_error(_CSV_HEAD + f"{_HUGE},y,brute,0,0,4,2,8,0.000100\n", "report", "--csv", "f"),
     "line 2: n=1000", 4001),
    (_cli_error(_CSV_HEAD + f"4,y,x,{_HUGE},0,4,2,8,0.000100\n", "report", "--csv", "f"),
     "line 2: seed must be below 2^64, got 1000", 4001),
    (_cli_error(_CSV_HEAD + f"4,y,x,0,0,-{_HUGE},2,8,0.000100\n", "report", "--csv", "f"),
     "line 2: C must be nonnegative, got -1000", 4002),
], ids=["check_mask", "witness_mask", "instance_n_count", "dp_range", "fit_count",
        "csv_n_cap", "csv_seed", "csv_negative"])
def test_error_quotes_a_long_integer_bounded(tmp_path, capsys, monkeypatch, run, names, length):
    monkeypatch.chdir(tmp_path)
    message = run(capsys)
    assert names in message
    assert f"... ({length} characters)" in message  # the integer's length
    assert len(message) < 1000, len(message)
