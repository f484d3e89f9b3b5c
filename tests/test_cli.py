import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from permseq.cli import (
    EXIT_BAD_INPUT,
    EXIT_GOLDEN_MISMATCH,
    cached_count_table,
    main,
)
from permseq.enumeration import ENGINE_VERSION, count_table, row_differences
from permseq.perms import parse_basis
from permseq.tableio import (
    diffs_to_csv,
    table_from_csv,
    table_from_json,
    table_to_csv,
    table_to_json,
    table_to_markdown,
)


def test_csv_roundtrip():
    t = count_table(parse_basis("1324,1342"), 8, 8)
    again = table_from_csv(table_to_csv(t), "1324,1342")
    assert again.rows == t.rows
    assert again.basis == t.basis


def test_csv_blank_cells_match_cap():
    t = count_table(parse_basis("132"), 5, 10)
    lines = table_to_csv(t).splitlines()
    row2 = lines[2].split(",")
    assert row2[0] == "2"
    assert row2[1:3] == ["1", "1"]
    assert all(c == "" for c in row2[3:])


def test_json_roundtrip():
    t = count_table(parse_basis("1324,2341"), 7, 7)
    again = table_from_json(table_to_json(t))
    assert again == t


@pytest.mark.parametrize("text", [
    '[]',
    '{"n_max": 1, "k_max": 0, "rows": [[1]]}',
    '{"basis": 12, "n_max": 1, "k_max": 0, "rows": [[1]]}',
    '{"basis": "12", "n_max": "1", "k_max": 0, "rows": [[1]]}',
    '{"basis": "12", "n_max": 1, "k_max": null, "rows": [[1]]}',
    '{"basis": "12", "n_max": 1, "k_max": 0}',
    '{"basis": "12", "n_max": 1, "k_max": 0, "rows": [1]}',
    '{"basis": "12", "n_max": 3, "k_max": 2, "rows": [[1], [true, "x"]]}',
    '{"basis": "12", "n_max": 2, "k_max": 1, "rows": [[1, 0]]}',
    '{"basis": "12", "n_max": 2, "k_max": 1, "rows": [[1, 0], [1]]}',
    '{"basis": "12", "n_max": 2, "k_max": 1, "rows": [[1, 0], [1, true]]}',
    '{"basis": "12", "n_max": 2, "k_max": 1, "rows": [[1, 0], [1, 0.0]]}',
], ids=["list", "no-basis", "basis-int", "n_max-str", "k_max-null", "no-rows",
        "row-int", "short-rows", "row-count", "row-width", "cell-bool", "cell-float"])
def test_table_from_json_rejects_malformed(text):
    with pytest.raises(ValueError):
        table_from_json(text)


def test_markdown_shape():
    t = count_table(parse_basis("132"), 4, 4)
    md = table_to_markdown(t)
    assert md.startswith("| n\\k | 0 | 1 | 2 | 3 | 4 |")
    assert md.count("\n") == 2 + 4


def test_diffs_csv_shape():
    t = count_table(parse_basis("1324,1243"), 6, 6)
    text = diffs_to_csv(t, row_differences(t))
    lines = text.splitlines()
    assert len(lines) == 1 + 5
    first = lines[1].split(",")
    assert first[1:3] == ["0", "1"]
    assert all(c == "" for c in first[3:])


def test_cache_reuse_and_versioning(tmp_path):
    t1 = cached_count_table("1324,1342", 7, 7, str(tmp_path))
    files = list(tmp_path.glob("table_*.json"))
    assert len(files) == 1
    stamp = files[0].read_bytes()
    t2 = cached_count_table("1324,1342", 7, 7, str(tmp_path))
    assert t2 == t1
    assert files[0].read_bytes() == stamp
    # an entry is a stored table plus its engine version
    assert table_from_json(stamp) == t1
    # stale engine version forces a silent recompute
    payload = json.loads(stamp)
    payload["engine_version"] = "0.0.0"
    files[0].write_text(json.dumps(payload))
    t3 = cached_count_table("1324,1342", 7, 7, str(tmp_path))
    assert t3 == t1
    assert json.loads(files[0].read_text())["engine_version"] != "0.0.0"


def _set(key, value):
    def edit(payload):
        payload[key] = value
        return payload
    return edit


@pytest.mark.parametrize("edit", [
    lambda payload: [],
    lambda payload: "rows",
    _set("basis", "1243,1324"),
    _set("n_max", 6),
    _set("k_max", 4),
    _set("rows", [[9]]),
    _set("rows", [[1, 0, 0, 0, 0]] * 5),
    _set("rows", [[1, 0, 0, 0, 0, 0]] * 4),
    _set("rows", [[1, 0, 0, 0, 0, "0"]] * 5),
    _set("rows", None),
], ids=["list", "string", "basis", "n_max", "k_max", "rows-9", "row-width", "row-count",
        "cell-type", "no-rows"])
def test_cache_mismatch_is_a_miss(tmp_path, edit):
    want = count_table(parse_basis("1324,1342"), 5, 5)
    cached_count_table("1324,1342", 5, 5, str(tmp_path))
    [path] = tmp_path.glob("table_*.json")
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    assert cached_count_table("1324,1342", 5, 5, str(tmp_path)) == want
    assert json.loads(path.read_text())["engine_version"] == ENGINE_VERSION
    assert table_from_json(path.read_text()) == want


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("PERMSEQ_CACHE_DIR", str(tmp_path))
    cached_count_table("132", 5, 5, None)
    assert list(tmp_path.glob("table_*.json"))


@pytest.mark.parametrize("flag, env", [(None, ""), ("", ""), ("", "env-cache")])
def test_empty_cache_setting_is_unset(flag, env, tmp_path, monkeypatch, capsys):
    # an empty flag falls through to the environment, an empty variable means
    # no cache; neither writes into the working directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PERMSEQ_CACHE_DIR", env)
    argv = ["table", "--basis", "1324", "--n", "3", "--k", "1"]
    assert main(argv if flag is None else [*argv, "--cache-dir", flag]) == 0
    assert capsys.readouterr().out
    assert not list(tmp_path.glob("table_*.json"))
    assert bool(list(tmp_path.glob("env-cache/table_*.json"))) == bool(env)


def test_cmd_table_csv(capsys):
    rc = main(["table", "--basis", "1324,1243", "--n", "4", "--k", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "n\\k,0,1,2,3,4"
    assert out.splitlines()[4].startswith("4,1,1,5,")


def test_cmd_diff(capsys):
    rc = main(["diff", "--basis", "1324,1243", "--n", "4", "--k", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3].split(",")[:3] == ["3", "0", "-1"]


def test_cmd_diff_json(capsys):
    # signed differences of rows 1..3, their basis in canonical order, and a newline
    rc = main(["diff", "--basis", "1324,1243", "--n", "3", "--k", "2", "--format", "json"])
    assert rc == 0
    assert capsys.readouterr().out == (
        '{\n  "basis": "1243,1324",\n  "rows": [\n'
        '    [\n      0,\n      1,\n      0\n    ],\n'
        '    [\n      0,\n      1,\n      2\n    ]\n  ]\n}\n'
    )
    table = count_table(parse_basis("1324,1342"), 9, 8)
    assert main(["diff", "--basis", "1324,1342", "--n", "9", "--k", "8", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "basis": "1324,1342", "rows": row_differences(table)}


def test_cmd_monotone(capsys):
    rc = main(["monotone", "--basis", "1324,321", "--n", "11", "--k", "15"])
    assert rc == 0
    assert "violation at n=10, k=15: 60 > 52" in capsys.readouterr().out
    rc = main(["monotone", "--basis", "213", "--n", "9", "--k", "6"])
    assert rc == 0
    assert "no violation" in capsys.readouterr().out
    rc = main(["monotone", "--basis", "1243,2134", "--n", "9", "--k", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "zero-row certificate: av_n^k = 0 for 1 <= k <= 4, n >= k + 4" in out


def test_cmd_limit(capsys):
    rc = main(["limit", "--basis", "1324,4231", "--n", "16", "--k", "9"])
    assert rc == 0
    out = capsys.readouterr().out
    got = [int(line.split("c_k=")[1].split()[0]) for line in out.splitlines() if "c_k=" in line]
    assert got == [1, 2, 5, 10, 20, 34, 59, 96, 151, 230]


def test_cmd_gf_compare(capsys):
    rc = main(["gf", "--name", "1324,1342", "--k", "8", "--compare-table"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "1,2,4,8,14,24,40,64,100"
    assert "matches" in out


def test_cmd_bijection(capsys):
    rc = main(["bijection", "--pattern", "2341", "--k", "5"])
    assert rc == 0
    assert "MISMATCH" not in capsys.readouterr().out
    rc = main(["bijection", "--pattern", "9999", "--k", "3"])
    assert rc == EXIT_BAD_INPUT


def test_cmd_inject(capsys):
    rc = main(["inject", "--perm", "12,11,10,9,8,5,3,1,2,4,7,6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "13,12,11,7,6,5,3,1,2,4,10,8,9"
    assert "branch 3: ell=5 m=2 q=2 r=1" in out


def test_cmd_compat(tmp_path, capsys):
    out_file = tmp_path / "verdicts.json"
    rc = main(["compat", "--length", "4", "--out", str(out_file)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "1432 4231 4321" in printed
    verdicts = json.loads(out_file.read_text())
    assert len(verdicts) == 23
    by_pattern = {v["pattern"]: v for v in verdicts}
    assert by_pattern["1342"]["verdict"] == "incompatible-by-witness"
    assert "witness" in by_pattern["1342"]


def test_cmd_golden_single(capsys):
    rc = main(["golden", "--partner", "1243"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS 1324,1243 counts" in out
    assert "2/2 tables match" in out


def test_cmd_golden_detects_corruption(capsys, monkeypatch):
    import permseq.golden as gold

    real = gold.load_golden

    def corrupted(partner, kind):
        table = real(partner, kind)
        cells = {n: list(row) for n, row in table.cells.items()}
        cells[5][3] += 1
        return gold.GoldenTable(partner=partner, kind=kind, cells=cells)

    monkeypatch.setattr(gold, "load_golden", corrupted)
    rc = main(["golden", "--partner", "1243"])
    assert rc == EXIT_GOLDEN_MISMATCH
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "(n=5, k=3)" in out


# --compare-table needs rows up to k + 2 + longest pattern: 67 and 65 here
OVER_ROW_CAP = (
    ["gf", "--name", "1324,1342", "--k", "61", "--compare-table"],
    ["gf", "--name", "1324", "--k", "59", "--compare-table"],
)


@pytest.mark.parametrize("argv", [
    ["table", "--basis", "12a", "--n", "4", "--k", "4"],
    ["table", "--basis", "1324", "--n", "0", "--k", "4"],
    ["diff", "--basis", "1324", "--n", "4", "--k", "-1"],
    ["table", "--basis", "1324", "--n", "4", "--k", "4", "--threads", "0"],
    ["golden", "--all", "--threads", "-2"],
    ["compat", "--length", "0"],
    ["compat", "--length", "-2"],
    ["gf", "--name", "12345"],
    ["gf", "--name", "1324,1342", "--k", "-1"],
    ["gf", "--name", "P", "--k", "3", "--compare-table"],
    *OVER_ROW_CAP,
    ["golden", "--partner", "1234"],
    ["bijection", "--pattern", "2341", "--k", "-1"],
    ["bijection", "--pattern", "1234", "--k", "3"],
    ["golden", "--all", "--bogus"],
    ["compat"],
    ["table", "--basis", "1324", "--n", "x", "--k", "3"],
    ["compat", "--length", "3", "--threads", "2"],
    ["limit", "--basis", "1324", "--n", "9", "--k", "3", "--tail-window", "3"],
])
def test_bad_input_is_one_line_exit_1(argv, capsys):
    assert main(argv) == EXIT_BAD_INPUT == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("permseq: error: ")
    if argv in OVER_ROW_CAP:
        # the table depth comes from --k, so the error names the flag, not n
        assert "--compare-table" in lines[0]


@pytest.mark.parametrize("argv, pattern", [
    (["inject", "--perm", "12a"], "'12a'"),
    (["table", "--basis", "1324,13a4", "--n", "4", "--k", "4"], "'13a4'"),
    (["inject", "--perm", "3,1,x2"], "'3,1,x2'"),
    (["table", "--basis", "1324,135", "--n", "4", "--k", "4"], "'135'"),
    (["inject", "--perm", "0"], "'0'"),
])
def test_bad_pattern_token_is_named(argv, pattern, capsys):
    assert main(argv) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"permseq: error: invalid pattern {pattern}\n"


@pytest.mark.parametrize("argv, env", [
    (["table", "--basis", "1324", "--n", "3", "--k", "3", "--out", "{missing}"], False),
    (["diff", "--basis", "1324", "--n", "3", "--k", "3", "--out", "{dir}"], False),
    (["compat", "--length", "3", "--out", "{missing}"], False),
    (["table", "--basis", "1324", "--n", "3", "--k", "3", "--cache-dir", "{file}"], False),
    (["table", "--basis", "1324", "--n", "3", "--k", "3"], True),
    (["gf", "--name", "1324,1342", "--k", "5", "--compare-table", "--cache-dir", "{file}"],
     False),
])
def test_bad_paths_are_one_line_exit_1(argv, env, tmp_path, monkeypatch, capsys):
    # an output under a missing directory, an output that is a directory, and
    # a cache directory (flag or environment) that is a regular file
    paths = {"missing": tmp_path / "missing" / "x.out", "dir": tmp_path, "file": tmp_path / "f"}
    paths["file"].write_text("")
    if env:
        monkeypatch.setenv("PERMSEQ_CACHE_DIR", str(paths["file"]))
    else:
        monkeypatch.delenv("PERMSEQ_CACHE_DIR", raising=False)
    argv = [arg.format(**paths) for arg in argv]
    assert main(argv) == EXIT_BAD_INPUT == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("permseq: error: ")
    named = paths["file"] if env else next(p for p in paths.values() if str(p) in argv)
    assert str(named) in lines[0]
    if named == paths["file"]:
        assert "cache directory expected" in lines[0]


@pytest.mark.parametrize("bounds", [["--n", "5", "--k", "999"], ["--n", "0", "--k", "3"]])
def test_bad_bounds_make_no_cache_directory(bounds, tmp_path, capsys):
    cache = tmp_path / "a" / "b" / "c"
    argv = ["table", "--basis", "1324", *bounds, "--cache-dir", str(cache)]
    assert main(argv) == EXIT_BAD_INPUT
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "must be in" in lines[0]
    assert list(tmp_path.iterdir()) == []


TABLE_BOUNDS = [
    (["--n", "0", "--k", "3"], "--n: must be in 1..64, got 0"),
    (["--n", "65", "--k", "3"], "--n: must be in 1..64, got 65"),
    (["--n", "5", "--k", "-1"], "--k: must be in 0..200, got -1"),
    (["--n", "5", "--k", "201"], "--k: must be in 0..200, got 201"),
]


BAD_BOUNDS = [
    *(([cmd, "--basis", "1324", *bounds], message)
      for cmd in ("table", "diff", "monotone", "limit") for bounds, message in TABLE_BOUNDS),
    (["table", "--basis", "1324", "--n", "5", "--k", "3", "--threads", "0"],
     "--threads: must be at least 1, got 0"),
    (["compat", "--length", "0"], "--length: must be at least 1, got 0"),
    (["gf", "--name", "1324,1342", "--k", "-1"], "--k: must be at least 0, got -1"),
    (["bijection", "--pattern", "2341", "--k", "-1"], "--k: must be at least 0, got -1"),
]


@pytest.mark.parametrize("argv, message", BAD_BOUNDS,
                         ids=[" ".join(argv) for argv, _ in BAD_BOUNDS])
def test_bad_bound_names_its_flag(argv, message, tmp_path, monkeypatch, capsys):
    # every integer bound is checked on its flag, before a cache is touched
    monkeypatch.setenv("PERMSEQ_CACHE_DIR", str(tmp_path / "a" / "b"))
    assert main(argv) == EXIT_BAD_INPUT == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"permseq: error: argument {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_failed_cache_write_leaves_no_temp_file(tmp_path, capsys):
    # a directory at the entry's path makes the final rename fail on every run
    (tmp_path / "table_1324-1342_n5_k3.json").mkdir()
    argv = ["table", "--basis", "1324,1342", "--n", "5", "--k", "3", "--cache-dir", str(tmp_path)]
    for _ in range(2):
        assert main(argv) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("permseq: error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["table_1324-1342_n5_k3.json"]


def test_warm_main_leaves_little_cyclic_garbage(capsys):
    # the parser is built once per process; a fresh one per call left ~450 objects
    argv = ["table", "--basis", "1324", "--n", "5", "--k", "4"]
    assert main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() < 50
    finally:
        gc.enable()


@pytest.mark.parametrize("argv", [["--help"], ["compat", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as done:
        main(argv)
    assert done.value.code == 0
    assert capsys.readouterr().out


def test_python_dash_m_runs_the_cli():
    import permseq

    src = str(Path(permseq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "permseq", "--version"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, f"permseq {permseq.__version__}\n", "")


def test_cli_import_leaves_out_the_process_pool():
    import permseq

    src = str(Path(permseq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, permseq.cli; print('concurrent.futures.process' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


@pytest.fixture
def serial_pool(monkeypatch):
    """Replaces the process pool with one that runs its jobs in this process;
    returns one [workers asked for, jobs mapped] entry per pool constructed."""
    import concurrent.futures

    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append([max_workers, None])

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            jobs = list(jobs)
            pools[-1][1] = len(jobs)
            return map(fn, jobs)

    # count_table imports the pool class when a table uses workers
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return pools


def test_threads_clamped_to_cpu_count(serial_pool, monkeypatch, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    argv = ["table", "--basis", "1324", "--n", "7", "--k", "6"]
    assert main([*argv, "--threads", "100000"]) == 0
    pooled = capsys.readouterr().out
    assert [workers for workers, _ in serial_pool] == [3]
    assert main(argv) == 0
    assert capsys.readouterr().out == pooled
    # the engine, not the CLI, caps the pool, so a library call asks for 3 too
    basis = parse_basis("1324")
    assert count_table(basis, 7, 6, threads=100000) == count_table(basis, 7, 6)
    assert [workers for workers, _ in serial_pool] == [3, 3]


def test_library_threads_clamped_to_jobs(serial_pool, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1000)
    basis = parse_basis("1324,1342")
    table = count_table(basis, 9, 8, threads=1000)
    [(workers, jobs)] = serial_pool
    assert 1 < workers == jobs < 1000
    assert table == count_table(basis, 9, 8)


def test_one_cpu_builds_no_pool(serial_pool, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    basis = parse_basis("1324")
    assert count_table(basis, 7, 6, threads=2) == count_table(basis, 7, 6)
    assert main(["golden", "--partner", "1342", "--threads", "2"]) == 0
    assert serial_pool == []
