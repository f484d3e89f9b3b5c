import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from permseq.cli import (
    EXIT_BAD_INPUT,
    EXIT_BIJECTION_MISMATCH,
    EXIT_GF_MISMATCH,
    EXIT_GOLDEN_MISMATCH,
    cached_count_table,
    main,
)
import permseq.enumeration as enumeration
from permseq.enumeration import ENGINE_VERSION, count_table, row_differences
from permseq.perms import identity, parse_basis

from oracles import reference_walk
from permseq.tableio import (
    csv_to_cells,
    diffs_to_csv,
    table_from_json,
    table_to_csv,
    table_to_json,
    table_to_markdown,
)


def test_csv_roundtrip():
    t = count_table(parse_basis("1324,1342"), 8, 8)
    cells = csv_to_cells(table_to_csv(t))
    assert sorted(cells) == list(range(1, t.n_max + 1))
    # every blank cell lies above its row's cap, where the count is 0
    assert tuple(tuple(0 if v is None else v for v in cells[n]) for n in sorted(cells)) == t.rows


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


def test_json_refuses_a_basis_without_text_form():
    # the pattern 1,2,...,10 would read back as ten patterns
    t = count_table([identity(10)], 4, 2)
    with pytest.raises(ValueError, match="^pattern 1,2,3,4,5,6,7,8,9,10 has no text form"):
        table_to_json(t)


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
    # an entry is exactly the stored table, under a name with its engine version
    assert stamp == table_to_json(t1).encode()
    assert files[0].name == f"table_1324-1342_n7_k7_v{ENGINE_VERSION}.json"
    # a wrong table from another engine version is never read, nor touched
    stale = tmp_path / "table_1324-1342_n7_k7_v0.json"
    payload = json.loads(stamp)
    payload["rows"][6][7] += 1
    wrong = json.dumps(payload)
    stale.write_text(wrong)
    files[0].unlink()
    t3 = cached_count_table("1324,1342", 7, 7, str(tmp_path))
    assert t3 == t1
    assert files[0].read_bytes() == stamp
    assert stale.read_text() == wrong


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
    assert table_from_json(path.read_text()) == want


# deeper than the JSON parser recurses
_NESTED_JSON = "[" * 200_000 + "]" * 200_000


def test_deeply_nested_entry_is_a_miss(tmp_path):
    want = count_table(parse_basis("1324,1342"), 5, 5)
    cached_count_table("1324,1342", 5, 5, str(tmp_path))
    [path] = tmp_path.glob("table_*.json")
    path.write_text(_NESTED_JSON)
    with pytest.raises(ValueError):
        table_from_json(_NESTED_JSON)
    assert cached_count_table("1324,1342", 5, 5, str(tmp_path)) == want
    assert table_from_json(path.read_text()) == want


@pytest.fixture
def walks(monkeypatch):
    """Counts the walks cached_count_table starts; returns the list of their
    (basis, n, k) requests."""
    import permseq.cli as cli

    calls = []

    def walk(basis, n_max, k_max, threads=1):
        calls.append((basis, n_max, k_max))
        return count_table(basis, n_max, k_max, threads=threads)

    monkeypatch.setattr(cli, "count_table", walk)
    return calls


def _entry(cache, key, n, k):
    return cache / f"table_{key.replace(',', '-')}_n{n}_k{k}_v{ENGINE_VERSION}.json"


def _wrong_json(basis_text, n, k):
    """A well-formed stored table of these bounds whose cell (n, 0) is wrong,
    so a lookup that reads it would answer wrongly."""
    payload = json.loads(table_to_json(count_table(parse_basis(basis_text), n, k)))
    for row in payload["rows"]:
        row[0] += 1
    return json.dumps(payload)


def test_covering_entry_answers_every_smaller_request(tmp_path, walks):
    basis = parse_basis("1324,1342")
    cached_count_table("1324,1342", 12, 10, str(tmp_path))
    big = _entry(tmp_path, "1324,1342", 12, 10)
    stamp = big.read_bytes()
    assert len(walks) == 1
    grid = [(1, 0), (12, 0), (1, 10), (11, 9), (12, 9), (11, 10), (7, 4), (3, 10), (6, 0)]
    for n, k in grid:
        want = count_table(basis, n, k)
        assert cached_count_table("1324,1342", n, k, str(tmp_path)) == want
        # stored under its own name, so the next identical request is an exact hit
        assert _entry(tmp_path, "1324,1342", n, k).read_bytes() == table_to_json(want).encode()
    assert len(walks) == 1
    assert big.read_bytes() == stamp
    assert len(list(tmp_path.iterdir())) == 1 + len(grid)


def test_covering_lookup_reads_the_smallest_entry_first(tmp_path, walks, monkeypatch):
    import permseq.cli as cli

    for n, k in [(12, 10), (12, 5), (6, 10), (11, 9)]:
        cached_count_table("1324,1342", n, k, str(tmp_path))
    # the three smallest covering entries are corrupt; the largest is read
    corrupt = {(6, 10): "{", (12, 5): "[]", (11, 9): _wrong_json("1324,1342", 11, 8)}
    for (n, k), text in corrupt.items():
        _entry(tmp_path, "1324,1342", n, k).write_text(text)
    read = []
    real = cli._read_cached

    def spy(path, key, n_max, k_max):
        read.append(path.name)
        return real(path, key, n_max, k_max)

    monkeypatch.setattr(cli, "_read_cached", spy)
    walks.clear()
    assert cached_count_table("1324,1342", 6, 5, str(tmp_path)) == \
        count_table(parse_basis("1324,1342"), 6, 5)
    assert walks == []
    assert read == [_entry(tmp_path, "1324,1342", n, k).name
                    for n, k in [(6, 5), (6, 10), (12, 5), (11, 9), (12, 10)]]
    for (n, k), text in corrupt.items():
        assert _entry(tmp_path, "1324,1342", n, k).read_text() == text


@pytest.mark.parametrize("name, stored", [
    ("table_1324-1342_n12_k10_v0.json", ("1324,1342", 12, 10)),
    (f"table_1324_n12_k10_v{ENGINE_VERSION}.json", ("1324", 12, 10)),
    (f"table_1324-1342_n12_k10_v{ENGINE_VERSION}.json", ("1324,1342", 13, 10)),
    (f"table_1324-1342_n12_k10_v{ENGINE_VERSION}.json", ("1243,1324", 12, 10)),
    (f"table_1324-1342_n12_k10_v{ENGINE_VERSION}.json", '{"basis": "1324,1342"'),
    (f"table_1324-1342_n12_k10_v{ENGINE_VERSION}.json", _NESTED_JSON),
    (f"table_1324-1342_n12.0_k10_v{ENGINE_VERSION}.json", ("1324,1342", 12, 10)),
    (f"table_1324-1342_nX_k10_v{ENGINE_VERSION}.json", ("1324,1342", 12, 10)),
    (f"table_1324-1342_n012_k10_v{ENGINE_VERSION}.json", ("1324,1342", 12, 10)),
    (f"table_1324-1342_n12_k10_v{ENGINE_VERSION}.json.bak", ("1324,1342", 12, 10)),
    (f".table_1324-1342_n12_k10_v{ENGINE_VERSION}.json.1-2.tmp", ("1324,1342", 12, 10)),
], ids=["other-version", "other-basis", "bounds-disagree", "basis-disagrees", "corrupt",
        "nested", "float-bound", "text-bound", "leading-zero", "suffix", "temp-file"])
def test_unusable_covering_entry_is_skipped_and_untouched(name, stored, tmp_path, walks):
    # each holds a table that would show if read, or raw text that no parse reads
    (tmp_path / name).write_text(stored if isinstance(stored, str) else _wrong_json(*stored))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert cached_count_table("1324,1342", 5, 5, str(tmp_path)) == \
        count_table(parse_basis("1324,1342"), 5, 5)
    assert len(walks) == 1
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name in before} == before


def test_an_entry_of_a_larger_basis_does_not_answer_a_smaller_one(tmp_path, walks):
    # and the reverse: 1324 is a prefix of the key 1324,1342, not its basis
    _entry(tmp_path, "1324,1342", 12, 10).write_text(_wrong_json("1324,1342", 12, 10))
    assert cached_count_table("1324", 5, 5, str(tmp_path)) == count_table(parse_basis("1324"), 5, 5)
    assert len(walks) == 1


@pytest.mark.parametrize("n, k", [(13, 5), (5, 11), (13, 11)])
def test_request_beyond_every_entry_walks(n, k, tmp_path, walks):
    cached_count_table("1324,1342", 12, 10, str(tmp_path))
    cached_count_table("1324,1342", 6, 6, str(tmp_path))
    walks.clear()
    assert cached_count_table("1324,1342", n, k, str(tmp_path)) == \
        count_table(parse_basis("1324,1342"), n, k)
    assert walks == [(parse_basis("1324,1342"), n, k)]


@pytest.mark.parametrize("argv", [
    ["table", "--basis", "1324,1342", "--n", "10", "--k", "8"],
    ["table", "--basis", "1324,1342", "--n", "10", "--k", "8", "--format", "json"],
    ["diff", "--basis", "1324,1342", "--n", "10", "--k", "8"],
    ["monotone", "--basis", "1324,1342", "--n", "10", "--k", "8"],
    ["limit", "--basis", "1324,1342", "--n", "10", "--k", "8", "--secondary", "--tertiary"],
    ["gf", "--name", "1324,1342", "--k", "6", "--compare-table"],
], ids=["table", "table-json", "diff", "monotone", "limit", "gf"])
def test_covered_and_exact_hits_print_what_a_walk_prints(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PERMSEQ_CACHE_DIR", "")
    walked = (main(argv), *capsys.readouterr())
    cached_count_table("1324,1342", 12, 10, str(tmp_path))
    for hit in ("covered", "exact"):
        assert (main([*argv, "--cache-dir", str(tmp_path)]), *capsys.readouterr()) == walked, hit
    assert len(list(tmp_path.glob("table_*.json"))) == 2


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_cache_entry_mode_follows_umask(umask, mode, tmp_path):
    # the temp file behind an entry is made 0600; the entry is not
    old = os.umask(umask)
    try:
        cached_count_table("1324", 5, 3, str(tmp_path))
    finally:
        os.umask(old)
    [path] = tmp_path.glob("table_*.json")
    assert path.stat().st_mode & 0o777 == mode


def test_cache_write_leaves_the_umask_alone(tmp_path, monkeypatch):
    # the umask is process-wide, so setting it, even briefly, would change
    # the mode of files other threads create meanwhile
    def umask(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", umask)
    table = cached_count_table("1324", 5, 3, str(tmp_path))
    [path] = tmp_path.iterdir()
    assert path.name == f"table_1324_n5_k3_v{ENGINE_VERSION}.json"
    assert table_from_json(path.read_text()) == table


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
    rc = main(["bijection", "--pattern", "9999", "--k", "3"])
    assert rc == EXIT_BAD_INPUT


def test_cmd_gf_reports_a_mismatch(capsys, monkeypatch):
    import permseq.series as series

    real = series.CATALOGUE["1324,1342"]

    def wrong(order):
        # one coefficient off: 9 in place of 8 at k = 3
        return series.TruncatedSeries(tuple(c + (k == 3) for k, c in enumerate(real(order).coeffs)))

    monkeypatch.setitem(series.CATALOGUE, "1324,1342", wrong)
    rc = main(["gf", "--name", "1324,1342", "--k", "5", "--compare-table"])
    assert rc == EXIT_GF_MISMATCH == 4
    assert capsys.readouterr().out == (
        "1,2,4,9,14,24\n"
        "MISMATCH at k=3: series 9, table 8 (stabilized)\n"
        "comparison failed\n")


def test_cmd_gf_reports_an_unstable_column(capsys, monkeypatch):
    import permseq.cli as cli

    real = cli.limit_depth
    # two rows short of limit_depth: columns 4 and 5 are not stabilized
    monkeypatch.setattr(cli, "limit_depth", lambda basis, k: real(basis, k) - 2)
    rc = main(["gf", "--name", "1324,1342", "--k", "5", "--compare-table"])
    assert rc == EXIT_GF_MISMATCH
    assert capsys.readouterr().out == (
        "1,2,4,8,14,24\n"
        "MISMATCH at k=4: series 14, table 14 (unstable-within-range)\n"
        "MISMATCH at k=5: series 24, table 24 (unstable-within-range)\n"
        "comparison failed\n")


def test_cmd_bijection_reports_a_mismatch(capsys, monkeypatch):
    import permseq.partitions as partitions

    # the wrong rule: steep partitions stand in for the sand pile model
    monkeypatch.setitem(partitions.FAMILY_RULES, "2341", partitions.FAMILY_RULES["3241"])
    rc = main(["bijection", "--pattern", "2341", "--k", "4"])
    assert rc == EXIT_BIJECTION_MISMATCH == 3
    assert capsys.readouterr().out == (
        "k=0: permutation side 1, partition side 1 [ok]\n"
        "k=1: permutation side 1, partition side 1 [ok]\n"
        "k=2: permutation side 2, partition side 2 [ok]\n"
        "k=3: permutation side 2, partition side 3 [MISMATCH]\n"
        "  only from partitions:   (1, 1, 1)\n"
        "  partition side 3, series 132,2341 coefficient 2\n"
        "k=4: permutation side 4, partition side 4 [MISMATCH]\n"
        "  only from permutations: (2, 1, 1)\n"
        "  only from partitions:   (1, 1, 1, 1)\n")


def test_cmd_bijection_checks_the_series_size(capsys, monkeypatch):
    import permseq.series as series

    real = series.named_gf
    # both sides agree, but the catalogue counts one more at k = 2
    bump = series.TruncatedSeries((0, 0, 1, 0))
    monkeypatch.setattr(series, "named_gf", lambda name, order: real(name, order) + bump)
    rc = main(["bijection", "--pattern", "4321", "--k", "3"])
    assert rc == EXIT_BIJECTION_MISMATCH
    assert capsys.readouterr().out == (
        "k=0: permutation side 1, partition side 1 [ok]\n"
        "k=1: permutation side 1, partition side 1 [ok]\n"
        "k=2: permutation side 2, partition side 2 [ok]\n"
        "  partition side 2, series 132,4321 coefficient 3\n"
        "k=3: permutation side 3, partition side 3 [ok]\n")


def test_cmd_inject(capsys):
    rc = main(["inject", "--perm", "12,11,10,9,8,5,3,1,2,4,7,6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "13,12,11,7,6,5,3,1,2,4,10,8,9"
    assert "branch 3: ell=5 m=2 q=2 r=1" in out


@pytest.mark.parametrize("perm", ["1324", "1,2,3,4,5,6,7,8,9,11,10,12"])
def test_inject_names_a_bad_perm_as_written(perm, capsys):
    # a permutation that contains 1324 is named in one-line notation
    assert main(["inject", "--perm", perm]) == EXIT_BAD_INPUT == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"permseq: error: {perm} does not avoid {{1324, 231}}\n"


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


def test_compat_length_6_verdicts_are_pinned(tmp_path, capsys):
    # every verdict and witness of Table 4 row 6, byte for byte
    out_file = tmp_path / "verdicts.json"
    assert main(["compat", "--length", "6", "--out", str(out_file)]) == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == (
        "67bc47cbaca617cddfcd542adeaf3781dc40a9181e244184280c6846e418c1b9")
    assert capsys.readouterr().out.endswith("| 6 | 425 | 447 | 451 | 62 | 66 | 88 |\n")


PINNED_OUTPUTS = [
    (["golden", "--partner", "1243"],
     "PASS 1324,1243 counts\n"
     "PASS 1324,1243 diffs\n"
     "2/2 tables match\n"),
    (["bijection", "--pattern", "2341", "--k", "5"],
     "k=0: permutation side 1, partition side 1 [ok]\n"
     "k=1: permutation side 1, partition side 1 [ok]\n"
     "k=2: permutation side 2, partition side 2 [ok]\n"
     "k=3: permutation side 2, partition side 2 [ok]\n"
     "k=4: permutation side 4, partition side 4 [ok]\n"
     "k=5: permutation side 5, partition side 5 [ok]\n"),
    (["compat", "--length", "4"],
     "compatible patterns of length 4: 1432 4231 4321\n"
     "\n"
     "| n | suff. incompatible | CLB | nec. incompatible | nec. compatible "
     "| CUB | suff. compatible |\n"
     "|---|---|---|---|---|---|---|\n"
     "| 4 | 18 | 20 | 20 | 3 | 3 | 5 |\n"),
    # k = 7..9 need more than 12 rows to stabilize
    (["limit", "--basis", "1324,1342", "--n", "12", "--k", "9", "--secondary", "--tertiary"],
     "k=0: c_k=1 from n=1\n"
     "k=1: c_k=2 from n=3\n"
     "k=2: c_k=4 from n=4\n"
     "k=3: c_k=8 from n=5\n"
     "k=4: c_k=14 from n=6\n"
     "k=5: c_k=24 from n=7\n"
     "k=6: c_k=40 from n=8\n"
     "k=7: unstable within range (last value 64)\n"
     "k=8: unstable within range (last value 100)\n"
     "k=9: unstable within range (last value 154)\n"
     "secondary: 2 6 12\n"
     "tertiary: \n"),
    (["inject", "--perm", "321"],
     "3214\n"
     "# branch 1\n"),
    # the series alone, without --compare-table
    (["gf", "--name", "1324,1342", "--k", "8"],
     "1,2,4,8,14,24,40,64,100\n"),
]


@pytest.mark.parametrize("argv, stdout", PINNED_OUTPUTS, ids=[a[0] for a, _ in PINNED_OUTPUTS])
def test_whole_output_is_pinned(argv, stdout, capsys):
    rc = main(argv)
    assert (rc, capsys.readouterr()) == (0, (stdout, ""))


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


@pytest.mark.parametrize("kind, n, k, value, line", [
    # length 2 has at most one inversion, so `table` prints k = 3 blank
    ("counts", 2, 3, 0, "cell (n=2, k=3): golden 0, computed None"),
    # difference row 1 spans lengths 1 and 2: k = 1 is printed, k = 2 blank
    ("diffs", 1, 1, None, "cell (n=1, k=1): golden None, computed 1"),
    ("diffs", 1, 2, 0, "cell (n=1, k=2): golden 0, computed None"),
])
def test_golden_compares_the_printed_cells(capsys, monkeypatch, kind, n, k, value, line):
    # one embedded cell changed: the golden check diffs it against the CSV
    # that `table` and `diff` print, blanks beyond the inversion cap included
    import permseq.golden as gold

    real = gold.load_golden

    def changed(partner, got_kind):
        table = real(partner, got_kind)
        cells = {m: list(row) for m, row in table.cells.items()}
        if got_kind == kind:
            cells[n][k] = value
        return gold.GoldenTable(partner=partner, kind=got_kind, cells=cells)

    monkeypatch.setattr(gold, "load_golden", changed)
    assert main(["golden", "--partner", "1342"]) == EXIT_GOLDEN_MISMATCH
    out = capsys.readouterr().out.splitlines()
    assert f"FAIL 1324,1342 {kind}" in out
    assert f"  {line}" in out
    assert out[-1] == "1/2 tables match"


def test_load_golden_rejects_an_unknown_kind():
    from permseq.golden import load_golden

    with pytest.raises(ValueError, match="^kind must be counts or diffs, not 'bogus'$"):
        load_golden("1342", "bogus")


def _cut(cells):
    return {n: row[:3] for n, row in cells.items() if n <= 4}


def _extra_row(cells):
    return {**cells, max(cells) + 1: [0] * 16}


def _missing_row(cells):
    return {n: row for n, row in cells.items() if n != 7}


def _extra_cell(cells):
    return {n: row + [0] if n == 9 else row for n, row in cells.items()}


def _missing_cell(cells):
    return {n: row[:-1] if n == 9 else row for n, row in cells.items()}


MISSHAPEN = (_cut, _extra_row, _missing_row, _extra_cell, _missing_cell)


def _misshape(monkeypatch, reshape, kind):
    import permseq.golden as gold

    real = gold.load_golden

    def misshapen(partner, got_kind):
        table = real(partner, got_kind)
        cells = {n: list(row) for n, row in table.cells.items()}
        if got_kind == kind:
            cells = reshape(cells)
        return gold.GoldenTable(partner=partner, kind=got_kind, cells=cells)

    monkeypatch.setattr(gold, "load_golden", misshapen)


@pytest.mark.parametrize("kind", ("counts", "diffs"))
@pytest.mark.parametrize("reshape", MISSHAPEN)
def test_check_partner_rejects_misshapen_golden(monkeypatch, reshape, kind):
    from permseq.golden import check_partner

    _misshape(monkeypatch, reshape, kind)
    rows = "1..15" if kind == "counts" else "1..14"
    with pytest.raises(ValueError, match=f"golden {kind} table of 1324,1342 must have "
                                         f"rows n = {rows} of cells k = 0..15"):
        check_partner("1342")


@pytest.mark.parametrize("kind", ("counts", "diffs"))
@pytest.mark.parametrize("reshape", (_cut, _extra_row))
def test_cmd_golden_rejects_misshapen_golden(capsys, monkeypatch, reshape, kind):
    _misshape(monkeypatch, reshape, kind)
    rc = main(["golden", "--partner", "1342"])
    assert rc == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert captured.err.startswith(f"permseq: error: golden {kind} table of 1324,1342 must have")
    assert "Traceback" not in captured.err


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
    ["compat", "--length", "3", "--f-priority", "alternate"],
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


@pytest.mark.parametrize("argv", OVER_ROW_CAP)
def test_row_cap_error_comes_before_the_series(argv, monkeypatch, capsys):
    # the cap depends only on --name and --k, so no series is built first
    import permseq.series

    calls = []
    monkeypatch.setattr(permseq.series, "named_gf", lambda *a: calls.append(a))
    assert main(argv) == EXIT_BAD_INPUT
    assert calls == []
    assert "--compare-table" in capsys.readouterr().err


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
    (["compat", "--length", "0"], "--length: must be in 1..61, got 0"),
    (["compat", "--length", "62"], "--length: must be in 1..61, got 62"),
    (["gf", "--name", "1324,1342", "--k", "-1"], "--k: must be in 0..200, got -1"),
    (["gf", "--name", "1324,1342", "--k", "201"], "--k: must be in 0..200, got 201"),
    (["bijection", "--pattern", "2341", "--k", "-1"], "--k: must be in 0..63, got -1"),
    (["bijection", "--pattern", "4321", "--k", "70"], "--k: must be in 0..63, got 70"),
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
    entry = f"table_1324-1342_n5_k3_v{ENGINE_VERSION}.json"
    (tmp_path / entry).mkdir()
    argv = ["table", "--basis", "1324,1342", "--n", "5", "--k", "3", "--cache-dir", str(tmp_path)]
    for _ in range(2):
        assert main(argv) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("permseq: error: ")
    assert [p.name for p in tmp_path.iterdir()] == [entry]


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
    # a table this small is walked inline unless the pool threshold is 0
    monkeypatch.setattr(enumeration, "_POOL_MIN_TALLY", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)), raising=False)
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
    monkeypatch.setattr(enumeration, "_POOL_MIN_TALLY", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(1000)), raising=False)
    basis = parse_basis("1324,1342")
    table = count_table(basis, 9, 8, threads=1000)
    [(workers, jobs)] = serial_pool
    assert 1 < workers == jobs < 1000
    assert table == count_table(basis, 9, 8)


def test_small_table_builds_no_pool(serial_pool, monkeypatch):
    # 2,736 indecomposables over 22 jobs: the first job projects about 2,400
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)), raising=False)
    basis = parse_basis("1324,1342")
    assert count_table(basis, 18, 12, threads=2) == count_table(basis, 18, 12)
    assert serial_pool == []


def spy_job_walks(monkeypatch, record):
    """Wraps the compiled tally walks so that every call that walks one job
    uncut (jobs is None), inline or in the serial pool's worker, calls
    record(job's node, its tally's increase); inline jobs share the table's
    tally, so a job's total is its increase."""
    real = enumeration._walk_kernel

    def kernel(plans, mode):
        walk = real(plans, mode)

        def spy(stack, n_max, k_max, tally, jobs, cut):
            node, before = stack[0], enumeration._total(tally)
            walk(stack, n_max, k_max, tally, jobs, cut)
            if jobs is None:
                record(node, enumeration._total(tally) - before)

        return spy

    monkeypatch.setattr(enumeration, "_walk_kernel", kernel)


def test_pool_takes_the_jobs_left_unwalked(serial_pool, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)), raising=False)
    monkeypatch.setattr(enumeration, "_POOL_MIN_TALLY", 500)
    calls = []  # (job's permutation, its tally's total, run by the pool)
    spy_job_walks(monkeypatch, lambda node, found: calls.append(
        (node[0], found, bool(serial_pool))))
    basis = parse_basis("1324")
    table = count_table(basis, 10, 9, threads=2)
    walked = [found for _, found, pooled in calls if not pooled]
    [(workers, jobs)] = serial_pool
    assert (workers, jobs) == (2, len(calls) - len(walked))
    assert [pooled for _, _, pooled in calls] == sorted(pooled for _, _, pooled in calls)
    assert len({vals for vals, _, _ in calls}) == len(calls)
    # the inline walk goes on while the projection stays at or below 500
    # and stops at the first job that takes it above
    for m in range(1, len(walked)):
        assert sum(walked[:m]) * len(calls) <= 500 * m
    assert sum(walked) * len(calls) > 500 * len(walked)
    assert 1 < len(walked) < len(calls) - 1
    assert table == count_table(basis, 10, 9)


@pytest.mark.parametrize("basis_text, n_max, k_max, tally", [
    ("1324", 12, 5, "list"),
    ("1324", 12, 6, "list"),
    ("1324,21354", 12, 7, "list"),
    ("123456789,213465879", 12, 6, "defaultdict"),
])
def test_frontier_jobs_are_the_reference_walks_nodes(serial_pool, monkeypatch,
                                                     basis_text, n_max, k_max, tally):
    # the root's tally walk, cut at the split depth, tallies the levels
    # above it and lists the jobs: the reference walk's non-leaf nodes at
    # that depth, in its order and with every mask, except the
    # indecomposables with one inversion left, which it closes at their
    # parent and tallies there
    monkeypatch.setattr(enumeration, "_POOL_MIN_TALLY", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)), raising=False)
    jobs = []
    spy_job_walks(monkeypatch, lambda node, found: jobs.append(node))
    basis = parse_basis(basis_text)
    want = count_table(basis, n_max, k_max, threads=1)
    jobs.clear()
    assert count_table(basis, n_max, k_max, threads=2) == want
    [(workers, pooled)] = serial_pool
    assert workers == 2 and 0 < pooled < len(jobs)
    tracked = tuple(enumeration._plan(q) for q in enumeration._automaton(basis)[0])
    plans, root = enumeration._start(basis, tracked)
    depth = min(n_max, k_max + 1)
    assert type(enumeration._new_tally(depth, k_max, len(tracked))).__name__ == tally
    split = enumeration._SPLIT_DEPTH
    nodes = [node for node in reference_walk(root, plans, depth, k_max)
             if len(node[0]) == split and node[2] is not None]
    closed = [node for node in nodes if node[3] == split and node[1] == k_max - 1]
    assert closed
    assert jobs == [node for node in nodes if node not in closed]


def test_last_job_is_walked_inline(serial_pool, monkeypatch):
    # {132, 231} at (8, 6) cuts two jobs: at a threshold of 0 the first one
    # found indecomposables, so the second would be the pool's, but a pool
    # of one job only adds its start, so the inline walk takes it too
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)), raising=False)
    monkeypatch.setattr(enumeration, "_POOL_MIN_TALLY", 0)
    basis = parse_basis("132,231")
    want = count_table(basis, 8, 6)
    jobs = []
    spy_job_walks(monkeypatch, lambda node, found: jobs.append(found))
    assert count_table(basis, 8, 6, threads=2) == want
    assert serial_pool == []
    assert len(jobs) == 2 and jobs[0] > 0


def test_one_cpu_builds_no_pool(serial_pool, monkeypatch):
    # every job after the first would go to the pool if a second CPU were usable
    monkeypatch.setattr(enumeration, "_POOL_MIN_TALLY", 0)
    basis = parse_basis("1324")
    want = count_table(basis, 7, 6)
    # the affinity set allows one of the machine's two CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert count_table(basis, 7, 6, threads=2) == want
    assert main(["golden", "--partner", "1342", "--threads", "2"]) == 0
    # where the platform has no affinity set, the CPU count caps the pool
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert count_table(basis, 7, 6, threads=2) == want
    assert serial_pool == []


@pytest.mark.parametrize("threads, cpus, n_max, k_max", [
    (1, 2, 10, 9),
    (2, 1, 10, 9),
    # a walk no deeper than the split depth: min(n_max, k_max + 1) = 4
    (2, 2, 8, 3),
])
def test_one_worker_walks_the_root_as_its_one_job(serial_pool, monkeypatch,
                                                 threads, cpus, n_max, k_max):
    basis = parse_basis("1324,2143")
    # the reference on two workers, which split a walk deeper than 4 into depth-4 jobs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)), raising=False)
    want = count_table(basis, n_max, k_max, threads=2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    real = enumeration._walk_kernel
    calls = []  # (stack, n_max, k_max, cut, jobs listed) of each tally-walk call

    def kernel(plans, mode):
        walk = real(plans, mode)

        def spy(stack, n_max, k_max, tally, jobs, cut):
            calls.append((list(stack), n_max, k_max, cut, jobs))
            walk(stack, n_max, k_max, tally, jobs, cut)

        return spy

    monkeypatch.setattr(enumeration, "_walk_kernel", kernel)
    assert count_table(basis, n_max, k_max, threads=threads) == want
    # one call, on the root (no entries, no inversions, no tracked pattern
    # seen), cut at the walk's own depth, so it lists no job
    [([node], depth, budget, cut, listed)] = calls
    assert node[:2] == (b"", 0) and node[4] == 0
    assert depth == cut and listed == []
    assert (depth, budget) == (min(n_max, k_max + 1), k_max)
