"""Command line behaviour: output shapes and exit codes."""

from __future__ import annotations

import json
import time

import pytest

from twistlab.cli import main
from twistlab.kauffman import LaurentPoly2, lambda_poly
from twistlab.diagram import build_standard, connected_sum, mirror, to_pd
from twistlab.notation import parse_conway

from helpers import DATA, skein_calls

FIXTURES = str(DATA / "links.jsonl")


def test_compute_human(capsys):
    assert main(["compute", "2", "2"]) == 0
    out = capsys.readouterr().out
    assert "u = (1, 2, 1)" in out
    assert "fraction: 5/2" in out
    assert "a^2 z^2" in out  # staggered block


def test_compute_json_round_trips(capsys):
    assert main(["compute", "2", "1", "1", "1", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["u"] == [2, 5, 3]
    assert payload["fraction"] == [21, 8]
    direct = lambda_poly(build_standard(parse_conway("2 1 1 1 2")))
    assert LaurentPoly2.from_triples(payload["lambda"]) == direct


def test_compute_accepts_commas(capsys):
    assert main(["compute", "2,2"]) == 0
    assert "u = (1, 2, 1)" in capsys.readouterr().out


def test_verify_single_code(capsys):
    assert main(["verify", "4", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "theorem_match=ok" in out


def test_verify_enumerate_summary(capsys):
    assert main(["verify", "--enumerate", "--max-crossings", "6", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["codes"] == payload["passed"] == 16
    assert all(r["overall"] for r in payload["reports"])


def test_verify_enumerate_human_summary(capsys):
    assert main(["verify", "--enumerate", "--max-crossings", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "8 codes, 8 passed"


def test_pd_fixtures_all_pass(capsys):
    assert main(["pd", "--file", FIXTURES]) == 0
    out = capsys.readouterr().out
    for name in ("hopf", "trefoil", "l6a5", "pretzel_3_3_2"):
        assert name in out


def test_pd_expect_match(tmp_path, capsys):
    record = None
    with open(FIXTURES, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["name"] == "l6a5":
                record = line
    target = tmp_path / "one.jsonl"
    target.write_text(record, encoding="utf-8")
    assert main(["pd", "--file", str(target), "--expect", "1,4,3"]) == 0
    capsys.readouterr()
    assert main(["pd", "--file", str(target), "--expect", "3,4,1"]) == 1


def test_pd_json_output(capsys):
    assert main(["pd", "--file", FIXTURES, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["overall"] is True
    assert len(payload["records"]) == 4


def test_sum_command(capsys):
    assert main(["sum", "2 2", "2"]) == 0
    out = capsys.readouterr().out
    assert "product_match: ok" in out
    assert "crossings=6" in out


def test_mirror_command(capsys):
    assert main(["mirror", "3"]) == 0
    out = capsys.readouterr().out
    assert "substitution_match: ok" in out
    assert "(0, 1, 1) -> (1, 1, 0)" in out


def test_input_errors_exit_two(capsys):
    assert main(["compute", "2 x"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["compute", "1"]) == 2
    assert main(["verify"]) == 2
    assert main(["pd", "--file", "/no/such/file.jsonl"]) == 2
    assert main(["pd", "--file", FIXTURES, "--expect", "1,2"]) == 2


@pytest.mark.parametrize("token", ["1_0", "\u0663"])
def test_non_ascii_or_underscored_counts_exit_two(capsys, token):
    assert main(["compute", token]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "pd",
    [
        5,
        [[[1], 2, 3, 4], [4, 3, 2, [1]]],
        [[1, 2, 3, 4], [1, 3, 2, 4]],  # not planar
    ],
)
def test_bad_pd_record_exits_two(tmp_path, capsys, pd):
    target = tmp_path / "bad.jsonl"
    target.write_text(json.dumps({"name": "x", "pd": pd}) + "\n", encoding="utf-8")
    assert main(["pd", "--file", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("name", [[1, 2], 7, None])
def test_pd_record_name_must_be_a_string(tmp_path, capsys, name):
    target = tmp_path / "named.jsonl"
    pd = [[1, 5, 2, 4], [3, 1, 4, 6], [5, 3, 6, 2]]
    target.write_text(json.dumps({"name": name, "pd": pd}) + "\n", encoding="utf-8")
    assert main(["pd", "--file", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["pd", "--file", FIXTURES, "--expect", "1_0,1,1"],
        ["pd", "--file", FIXTURES, "--expect", "\u0661,2,1"],
        ["pd", "--file", FIXTURES, "--expect", "1, 4,-3"],
        ["verify", "--enumerate", "--max-crossings", "1_0"],
        ["verify", "--enumerate", "--max-crossings", "\u0666"],
    ],
)
def test_integer_flags_take_ascii_digits(capsys, argv):
    # int() would read 1_0 as 10 and arabic-indic digits as their values
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("text", ["", "\n  \n\n"])
def test_pd_file_without_records_exits_two(tmp_path, capsys, text):
    # a check that ran nothing must not report PASS
    target = tmp_path / "empty.jsonl"
    target.write_text(text, encoding="utf-8")
    assert main(["pd", "--file", str(target), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no pd records in {target}\n"


def test_pd_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    target = tmp_path / "bom16.jsonl"
    target.write_bytes(b"\xff\xfe")
    assert main(["pd", "--file", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {target}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("n", ["-3", "1"])
def test_enumerate_needs_two_crossings(capsys, n):
    assert main(["verify", "--enumerate", "--max-crossings", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--enumerate", "--max-crossings", "3", "4", "3"],
        ["verify", "3", "--max-crossings", "5"],
        ["verify", "--enumerate", "--max-crossings", "17"],
    ],
)
def test_verify_flag_misuse_exits_two(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_cache_env_does_not_change_output(monkeypatch, capsys):
    assert main(["compute", "2 1 2", "--json"]) == 0
    with_cache = capsys.readouterr().out
    monkeypatch.setenv("TWISTLAB_CACHE", "off")
    assert main(["compute", "2 1 2", "--json"]) == 0
    assert capsys.readouterr().out == with_cache


def test_mirror_and_sum_evaluate_their_diagram_once(monkeypatch, capsys):
    # with no memo, a second skein run would double the _resolve count
    monkeypatch.setenv("TWISTLAB_CACHE", "off")
    code = parse_conway("2 1 1 2")
    once = skein_calls(monkeypatch, lambda: lambda_poly(mirror(build_standard(code))))
    assert skein_calls(monkeypatch, lambda: main(["mirror", "2", "1", "1", "2"])) == once
    d = connected_sum(build_standard(parse_conway("2 1 2")), build_standard(parse_conway("3")))
    once = skein_calls(monkeypatch, lambda: lambda_poly(d))
    assert skein_calls(monkeypatch, lambda: main(["sum", "2 1 2", "3"])) == once
    assert "product_match: ok" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "2000"],
        ["verify", "201"],
        ["mirror", "5", "4", "10", "1,2"],  # 22 crossings
        ["sum", "2 1 1 1 2", "2 1 1 1 1 2"],  # 15 crossings
        ["pd", "--file", "BIG"],  # one 15-crossing record
    ],
)
def test_work_over_budget_is_refused_at_once(tmp_path, capsys, argv):
    big = tmp_path / "big.jsonl"
    pd = to_pd(build_standard(parse_conway("2 1 1 1 1 1 1 1 1 1 1 1 2")))
    big.write_text(json.dumps({"name": "big", "pd": pd}) + "\n", encoding="utf-8")
    argv = [str(big) if a == "BIG" else a for a in argv]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
