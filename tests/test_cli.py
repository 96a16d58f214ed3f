import csv
import io
import json
import subprocess
import sys
import tracemalloc

import pytest

from sqrtpoly import cli

from .fixtures import ALL_COUNTS, P41_MINIMAL, TS_COUNTS


def run_json(capsys, argv):
    rc = cli.main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    return json.loads(out)


def test_ctx(capsys):
    obj = run_json(capsys, ["ctx", "--p", "41"])
    assert obj == {"p": 41, "s": 3, "q": 5, "r": 20, "gamma": 6,
                   "zeta2r": 6, "zetaR": 36, "zetaTS": 32}


def test_ctx_table_format(capsys):
    assert cli.main(["ctx", "--p", "13"]) == 0
    out = capsys.readouterr().out
    assert "p: 13" in out and "gamma: 2" in out


def test_ts_family(capsys):
    obj = run_json(capsys, ["ts-family", "--p", "41"])
    assert obj["counts"] == {"18": "16"}
    assert obj["admissible_degrees"] == [18]
    assert len(obj["polynomials"]) == 16
    assert "26x^18 + 10x^13 + 11x^8 + 36x^3" in obj["polynomials"]


def test_census(capsys):
    obj = run_json(capsys, ["census", "--p", "29"])
    assert obj["counts"] == {str(d): str(n) for d, n in ALL_COUNTS[29].items()}
    assert obj["total"] == str(1 << 14)


def test_census_csv(capsys, tmp_path):
    path = tmp_path / "c.csv"
    assert cli.main(["census", "--p", "13", "--format", "csv",
                     "--out", str(path)]) == 0
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p", "s", "q", "degree", "count", "family",
                       "shard_count"]
    assert all(row[0] == "13" for row in rows[1:])


def test_census_shards_and_merge(capsys, tmp_path):
    paths = []
    for i in range(3):
        obj = run_json(capsys, ["census", "--p", "29", "--shard", f"{i}/3"])
        path = tmp_path / f"shard{i}.json"
        path.write_text(json.dumps(obj))
        paths.append(str(path))
    merged_path = tmp_path / "merged.json"
    assert cli.main(["merge", *paths, "--out", str(merged_path)]) == 0
    merged = json.loads(merged_path.read_text())
    assert merged["counts"] == {str(d): str(n) for d, n in ALL_COUNTS[29].items()}


def test_census_shard_skips_full_census(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a single shard must not run the whole census")

    monkeypatch.setattr(cli.census_mod, "full_census", refuse)
    obj = run_json(capsys, ["census", "--p", "29", "--shard", "2/5"])
    assert obj["meta"]["shard"] == [2, 5]
    assert int(obj["total"]) == (1 << 14) * 3 // 5 - (1 << 14) * 2 // 5
    assert cli.main(["census", "--p", "29", "--shard", "5/5"]) == 2
    assert cli.main(["census", "--p", "29", "--shard", "2"]) == 2


def test_census_checkpoint_flag(capsys):
    # --checkpoint is gone; --shards still reaches the meta
    obj = run_json(capsys, ["census", "--p", "13", "--shards", "4"])
    assert obj["meta"]["shards"] == 4


def test_census_shard_csv_shard_count(capsys):
    assert cli.main(["census", "--p", "29", "--shard", "1/4",
                     "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0][-1] == "shard_count"
    assert {row[-1] for row in rows[1:]} == {"4"}


def test_removed_options_are_rejected():
    for argv in (["census", "--p", "13", "--checkpoint", "x"],
                 ["ctx", "--p", "13", "--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


def test_csv_only_where_there_are_csv_rows():
    # csv is offered on ts-family, census and family-census only; elsewhere
    # argparse refuses it rather than printing the table format
    with pytest.raises(SystemExit) as exc:
        cli.main(["minimal", "--p", "41", "--format", "csv"])
    assert exc.value.code == 2
    parse = cli.build_parser().parse_args
    for argv in (["ts-family"], ["census"], ["family-census", "--d", "2"]):
        assert parse([*argv, "--p", "13", "--format", "csv"]).format == "csv"


def test_merge_refuses_mixed_primes(capsys, tmp_path):
    paths = []
    for p in (29, 37):
        obj = run_json(capsys, ["census", "--p", str(p), "--shard", "0/2"])
        path = tmp_path / f"c{p}.json"
        path.write_text(json.dumps(obj))
        paths.append(str(path))
    assert cli.main(["merge", *paths]) == 2
    assert "p = 29" in capsys.readouterr().err


def test_census_past_the_default_cap(capsys):
    # p = 73, r = 36: one join of 2^18 + 2^18 rows from quarter tables
    obj = run_json(capsys, ["census", "--p", "73", "--max-r", "36"])
    head = {31: 2088, 32: 172480, 33: 12716784, 34: 928438416,
            35: 67778146968}
    assert {int(d): int(n) for d, n in list(obj["counts"].items())[:5]} == head
    assert obj["total"] == str(1 << 36)


def test_census_needs_no_max_r_below_the_join_cap(capsys):
    # p = 67, r = 33: only the join cap applies, and one join of
    # 2^16 + 2^17 rows is far below it
    obj = run_json(capsys, ["census", "--p", "67"])
    assert obj["total"] == str(1 << 33)


def test_family_census(capsys):
    obj = run_json(capsys, ["family-census", "--p", "97", "--d", "16"])
    assert obj["counts"] == {str(d): str(n) for d, n in TS_COUNTS[97].items()}


def test_count_vanishing(capsys):
    obj = run_json(capsys, ["count-vanishing", "--p", "13", "--ell", "1"])
    brute = run_json(capsys, ["count-vanishing", "--p", "13", "--ell", "1",
                              "--bruteforce"])
    assert obj["formula"] == brute["bruteforce"]


def test_count_vanishing_fallback(capsys):
    # ell sharing a factor with p-1: formula inapplicable, brute force used
    obj = run_json(capsys, ["count-vanishing", "--p", "13", "--ell", "3"])
    assert obj["formula"].startswith("inapplicable")
    assert "bruteforce" in obj


def test_count_vanishing_d_below_r(capsys):
    # the closed formula holds for d = r only; d = 7 at p = 29 (r = 14) is
    # answered by the join
    obj = run_json(capsys, ["count-vanishing", "--p", "29", "--d", "7", "--ell", "1"])
    assert obj["d"] == 7 and "formula" not in obj
    assert obj["bruteforce"] == "2"


def test_count_vanishing_shard(capsys):
    # the formula counts the full range; a shard is answered by the join
    shards = [run_json(capsys, ["count-vanishing", "--p", "29", "--ell", "1",
                                "--shard", f"{i}/4"]) for i in range(4)]
    assert shards[1] == {"p": 29, "d": 14, "ell": 1, "bruteforce": "141"}
    full = run_json(capsys, ["count-vanishing", "--p", "29", "--ell", "1"])
    assert sum(int(obj["bruteforce"]) for obj in shards) == int(full["formula"]) == 564


def test_count_vanishing_bad_shard():
    # an out-of-range shard is invalid input (2), not a resource cap (3)
    assert cli.main(["count-vanishing", "--p", "13", "--ell", "1",
                     "--bruteforce", "--shard", "5/5"]) == 2


def test_heuristic(capsys):
    obj = run_json(capsys, ["heuristic", "--p", "97"])
    assert obj["ts_expected"] == {"41": "7", "44": "669", "47": "64860"}
    assert obj["predicted_min_degree"]["ts_model_a_closed_form"] == 44
    assert obj["predicted_min_degree"]["ts_model_b_lambda_threshold"] == 41
    with_family = run_json(capsys, ["heuristic", "--p", "41", "--d", "4"])
    assert with_family["family"]["18"] == "2"  # round(12/8) half-up


def test_minimal(capsys):
    obj = run_json(capsys, ["minimal", "--p", "41", "--keep", "2"])
    assert obj["min_degree"] == 17
    assert obj["minimizer_count"] == "640"
    assert len(obj["representatives"]) == 2


def test_minimal_dump_tree(capsys):
    obj = run_json(capsys, ["minimal", "--p", "29", "--dump-tree"])
    assert any("level=1" in line for line in obj["tree"])


def test_verify_inline(capsys):
    coeffs = [0, 0, 0, 36, 0, 0, 0, 0, 11, 0, 0, 0, 0, 10, 0, 0, 0, 0, 26]
    obj = run_json(capsys, ["verify", "--p", "41", "--poly",
                            json.dumps(coeffs)])
    assert obj["is_sqrt_poly"] is True
    assert obj["degree"] == 18
    bad = run_json(capsys, ["verify", "--p", "41", "--poly", "[1, 2]"])
    assert bad["is_sqrt_poly"] is False


def test_verify_poly_file(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(P41_MINIMAL))
    obj = run_json(capsys, ["verify", "--p", "41", "--poly-file", str(path)])
    assert obj["is_sqrt_poly"] is True and obj["degree"] == 17


def test_verify_evaluates_once(capsys, monkeypatch):
    from sqrtpoly import _modmat
    calls = []
    evaluate = _modmat.eval_on_squares
    monkeypatch.setattr(_modmat, "eval_on_squares",
                        lambda *a: calls.append(1) or evaluate(*a))
    for coeffs, ok in ((P41_MINIMAL, True), ([1, 2], False)):
        calls.clear()
        obj = run_json(capsys, ["verify", "--p", "41", "--poly", json.dumps(coeffs)])
        assert obj["is_sqrt_poly"] is ok and len(calls) == 1


def test_decompose(capsys):
    rc = cli.main(["decompose", "--p", "41", "--poly", json.dumps(P41_MINIMAL)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "19x^4 + 33x^3 + 6x^2 + 38x + 28" in out


def test_decompose_out_and_json(capsys, tmp_path):
    argv = ["decompose", "--p", "41", "--poly", json.dumps(P41_MINIMAL)]
    path = tmp_path / "tree.txt"
    assert cli.main(argv + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert "19x^4 + 33x^3 + 6x^2 + 38x + 28" in path.read_text()
    obj = run_json(capsys, argv)
    assert len(obj["tree"]) == 7 and sum("level=0" in line for line in obj["tree"]) == 4


def test_exit_code_validation():
    assert cli.main(["ctx", "--p", "15"]) == 2
    assert cli.main(["family-census", "--p", "13", "--d", "5"]) == 2
    assert cli.main(["decompose", "--p", "41", "--poly", "[2]"]) == 2


def test_exit_code_resource_cap():
    assert cli.main(["census", "--p", "67", "--max-r", "30"]) == 3
    # r = 56: a join side of 2^28 rows, past the join cap
    assert cli.main(["census", "--p", "113", "--max-r", "60"]) == 3
    # p = 10^9 + 7: a gamma^j table of 10^9 entries is refused, not built
    assert cli.main(["family-census", "--p", "1000000007", "--d", "1"]) == 3
    # m = 25012: a side of 2^24996 rows or more is named by its power of two
    assert cli.main(["minimal", "--p", "100049"]) == 3


@pytest.mark.parametrize("text", ["[1.5]", "[1e30]", "[true]", "[[1,2]]", '{"a":1}',
                                  '"abc"', "[null]", "[1,", "not json"])
def test_malformed_poly_exits_2(capsys, text):
    # a float would be truncated and a non-list read as one; exit 2, no traceback
    for cmd in ("verify", "decompose"):
        assert cli.main([cmd, "--p", "13", "--poly", text]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_poly_of_any_integer_size_is_read(capsys):
    # JSON integers of any size are reduced mod p, as before
    obj = run_json(capsys, ["verify", "--p", "13", "--poly", f"[{13 ** 30 + 1}]"])
    assert obj["poly"] == "1"


def test_missing_poly_file_exits_2(capsys, tmp_path):
    path = str(tmp_path / "f.json")
    assert cli.main(["verify", "--p", "13", "--poly-file", path]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_malformed_merge_input_exits_2(capsys, tmp_path):
    bad = {"text.json": "not json", "nocounts.json": json.dumps({"meta": {}}),
           "list.json": "[1, 2]", "badcount.json": json.dumps({"counts": {"a": "1"}})}
    for name, text in bad.items():
        (tmp_path / name).write_text(text)
        assert cli.main(["merge", str(tmp_path / name)]) == 2, name
        assert capsys.readouterr().err.startswith("error: "), name
    assert cli.main(["merge", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("argv", [["verify", "--poly", "[1]"],
                                  ["decompose", "--poly", "[1]"], ["minimal"]])
def test_refuse_past_the_table_cap_before_any_list(monkeypatch, capsys, argv):
    # p = 10^9 + 7 (3 mod 4): the r-entry coefficient list would be 4 GB;
    # the builders are stubbed, so the list cannot be built even if asked for
    def refuse(*args):
        raise AssertionError("an r-entry coefficient list was built")

    monkeypatch.setattr(cli.poly, "from_coeffs", refuse)
    monkeypatch.setattr(cli.search, "monomial", refuse)
    tracemalloc.start()
    try:
        assert cli.main([argv[0], "--p", "1000000007", *argv[1:]]) == 3
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "cap 2^28" in capsys.readouterr().err
    assert peak < 1 << 20, peak


def test_reproduce_tables_cap_default():
    args = cli.build_parser().parse_args(["reproduce-tables", "--primes", "13"])
    assert args.max_r == cli.REPRODUCE_MAX_R == 26


def test_reproduce_tables(tmp_path):
    long_path, ts_path = cli.reproduce_tables([13, 41], out_dir=str(tmp_path))
    with open(long_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p", "s", "q", "degree", "ALL_Counts", "ALL_expected",
                       "TS_counts", "TS_expected"]
    by_key = {(r[0], r[3]): r for r in rows[1:]}
    assert by_key[("41", "18")][4] == "24936"
    assert by_key[("41", "18")][6] == "16"
    assert by_key[("41", "17")][6] == "0"  # explicit zero for non-TS degrees
    with open(ts_path) as fh:
        ts_rows = list(csv.reader(fh))
    assert ts_rows[0] == ["p", "s", "q", "degree", "TS_counts", "TS_expected"]
    assert ["13", "2", "3", "5", "4", "4"] in ts_rows


def test_entry_point_subprocess():
    out = subprocess.run([sys.executable, "-m", "sqrtpoly.cli", "ctx", "--p",
                          "13", "--format", "json"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stderr == ""
    assert json.loads(out.stdout)["r"] == 6
