"""Command line behaviour: output shapes and exit codes."""

from __future__ import annotations

import importlib
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time

import pytest

from twistlab import cli
from twistlab.cli import main
from twistlab.kauffman import LaurentPoly2, lambda_poly
from twistlab.diagram import DiagramKey, build_standard, connected_sum, mirror, to_pd
from twistlab.notation import enumerate_standard, parse_conway

from helpers import DATA, relabel, skein_calls

FIXTURES = str(DATA / "links.jsonl")
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


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
    assert payload["lambda"] == [list(t) for t in direct.terms()]


def test_compute_accepts_commas(capsys):
    assert main(["compute", "2,2"]) == 0
    assert "u = (1, 2, 1)" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["2, 2", "2 ,2", "2 , 2"])
def test_compute_accepts_blanks_around_commas(capsys, text):
    assert main(["compute", text]) == 0
    assert "u = (1, 2, 1)" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["2,,3", ",2,2", "2,2,", "2, ,2"])
@pytest.mark.parametrize("command", ["compute", "verify", "mirror", "sum"])
def test_empty_code_field_exits_two(capsys, command, text):
    # a comma with no number on one side is refused, not read as a blank
    argv = [command, text] + (["3"] if command == "sum" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: empty twist count")
    assert captured.err.count("\n") == 1


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
    for expect in ("1,4,3", "1, 4, 3", "1 4 3"):
        assert main(["pd", "--file", str(target), "--expect", expect]) == 0
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
    capsys.readouterr()
    for expect in ("1,,2,3", "1,2,3,", ""):
        assert main(["pd", "--file", FIXTURES, "--expect", expect]) == 2
        assert capsys.readouterr().err.startswith("error: --expect wants three ")


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


def test_pd_code_given_as_json_text_exits_two(tmp_path, capsys):
    # the pd value must be the code itself, not a string that encodes it
    target = tmp_path / "text.jsonl"
    pd = json.dumps(to_pd(build_standard(parse_conway("3"))))
    target.write_text(json.dumps({"name": "x", "pd": pd}) + "\n", encoding="utf-8")
    assert main(["pd", "--file", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_pd_record_nested_too_deeply_exits_two(tmp_path, capsys):
    target = tmp_path / "deep.jsonl"
    target.write_text("[" * 100000 + "\n", encoding="utf-8")
    assert main(["pd", "--file", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


_TREFOIL_PD = [[1, 5, 2, 4], [3, 1, 4, 6], [5, 3, 6, 2]]


@pytest.mark.parametrize("flags", [[], ["--json"]])
@pytest.mark.parametrize(
    "record",
    [None, [1, 2], "x", 3, {"pd": _TREFOIL_PD}, {"name": "k"}],
    ids=["null", "list", "string", "number", "no_name", "no_pd"],
)
def test_pd_record_that_is_not_a_name_and_pd_object_exits_two(tmp_path, capsys, record, flags):
    target = tmp_path / "shape.jsonl"
    target.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert main(["pd", "--file", str(target), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad pd record ") and captured.err.count("\n") == 1
    assert captured.err.endswith('wanted an object with "name" and "pd"\n')
    for word in ("NoneType", "subscriptable", "indices"):
        assert word not in captured.err


def test_max_crossings_without_enumerate_names_the_missing_flag(capsys):
    assert main(["verify", "--max-crossings", "5"]) == 2
    assert capsys.readouterr().err == "error: --max-crossings needs --enumerate\n"


@pytest.mark.parametrize("name", [[1, 2], 7, None])
def test_pd_record_name_must_be_a_string(tmp_path, capsys, name):
    target = tmp_path / "named.jsonl"
    pd = [[1, 5, 2, 4], [3, 1, 4, 6], [5, 3, 6, 2]]
    target.write_text(json.dumps({"name": name, "pd": pd}) + "\n", encoding="utf-8")
    assert main(["pd", "--file", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_pd_record_name_that_cannot_be_printed_exits_two(tmp_path, capsys, flags):
    # JSON reads "\ud800" as a lone surrogate, which has no UTF-8 form
    target = tmp_path / "surrogate.jsonl"
    pd = [[1, 5, 2, 4], [3, 1, 4, 6], [5, 3, 6, 2]]
    target.write_text(json.dumps({"name": "\ud800", "pd": pd}) + "\n", encoding="utf-8")
    assert main(["pd", "--file", str(target), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad pd record ") and captured.err.count("\n") == 1


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


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "1" * 5000],
        ["verify", "--enumerate", "--max-crossings", "1" * 5000],
        ["pd", "--file", FIXTURES, "--expect", "1" * 5000 + ",1,1"],
        ["pd", "--file", "LONG"],  # a 5000-digit arc label
    ],
)
def test_numbers_too_long_for_int_exit_two(tmp_path, capsys, argv):
    # past 4300 digits int() and json.loads raise a plain ValueError
    long_label = tmp_path / "long.jsonl"
    long_label.write_text('{"name": "x", "pd": [[%s, 2, 3, 4]]}\n' % ("1" * 5000), encoding="utf-8")
    argv = [str(long_label) if a == "LONG" else a for a in argv]
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
        ["verify", "--enumerate"],
    ],
)
def test_verify_flag_misuse_exits_two(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, options",
    [
        (["--help"], ["compute", "verify", "mirror", "sum", "pd"]),
        (["compute", "--help"], ["code", "--json"]),
        (["verify", "--help"], ["code", "--enumerate", "--max-crossings", "--json"]),
        (["mirror", "--help"], ["code", "--json"]),
        (["sum", "--help"], ["code1", "code2", "--json"]),
        (["pd", "--help"], ["--file", "--expect", "u_minus,u_zero,u_plus", "--json"]),
    ],
)
def test_help_lists_the_options(capsys, argv, options):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: twistlab")
    assert all(opt in out for opt in options), out


def test_help_is_wrapped_to_the_width_of_each_call(monkeypatch, capsys):
    # the terminal width is read once per call, never kept between calls
    def help_lines(columns):
        monkeypatch.setenv("COLUMNS", str(columns))
        with pytest.raises(SystemExit):
            main(["pd", "--help"])
        return capsys.readouterr().out.splitlines()

    narrow, wide = help_lines(40), help_lines(200)
    assert max(map(len, narrow)) <= 38
    assert len(wide) < len(narrow)


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


def test_a_shared_memo_does_not_change_pd_output(monkeypatch, tmp_path, capsys):
    # one memo serves the whole file, so keys of different diagrams that
    # hash alike meet in it and only the isomorphism test tells them
    # apart; builds of up to 9 crossings make no such meeting
    rng = random.Random(29)
    lines = []
    for c in range(3, 11):
        for code in enumerate_standard(c):
            for d in (build_standard(code), mirror(build_standard(code))):
                perm = list(range(d.crossings))
                rng.shuffle(perm)
                d = relabel(d, perm, [rng.choice([0, 2]) for _ in perm])
                lines.append(json.dumps({"name": f"{code} {len(lines)}", "pd": to_pd(d)}))
    path = tmp_path / "builds.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["pd", "--file", str(path), "--json"]
    monkeypatch.delenv("TWISTLAB_CACHE", raising=False)
    unequal = []
    real = DiagramKey.__eq__

    def counting(key, other):
        same = real(key, other)
        unequal.append(not same)
        return same

    monkeypatch.setattr(DiagramKey, "__eq__", counting)
    assert main(argv) == 0
    with_cache = capsys.readouterr().out
    assert any(unequal)
    monkeypatch.setenv("TWISTLAB_CACHE", "off")
    assert main(argv) == 0
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


def test_import_leaves_out_the_heavy_stdlib_modules():
    # every CLI call is one short process, so what import loads is paid per call;
    # dataclasses alone pulls in inspect, which pulls in ast, dis and tokenize,
    # and fractions pulls in decimal and numbers
    script = (
        "import sys; before = set(sys.modules); import twistlab, twistlab.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    loaded = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "twistlab.cli" in loaded
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal",
             "_decimal", "numbers"}
    assert not heavy & set(loaded)


def test_a_top_row_of_the_wrong_shape_exits_one(monkeypatch, capsys):
    # truncate refuses the polynomial; main reports it as a failed check
    monkeypatch.setattr(cli, "lambda_code", lambda code: LaurentPoly2.monomial(1))
    assert main(["compute", "2", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("check failed: ") and captured.err.count("\n") == 1


def test_python_dash_m_runs_main(capsys):
    argv = ["verify", "2", "1", "2", "--json"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run(
        [sys.executable, "-m", "twistlab", *argv], env=env, capture_output=True, text=True
    )
    assert main(argv) == 0
    assert (run.returncode, run.stdout) == (0, capsys.readouterr().out)


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_a_reader_that_closes_the_pipe_gets_no_traceback(flags):
    # the sweep prints far more than a pipe holds, so a write fails
    # once the reader has gone
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "twistlab", "verify", "--enumerate", "--max-crossings", "12"]
    proc = subprocess.Popen(
        [*argv, *flags], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    proc.stdout.read(16)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


def test_console_script_runs_main():
    # tomllib is 3.11+, so the one line is read with a regex
    text = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    script = re.search(r'^\[project\.scripts\]\ntwistlab = "([\w.]+):(\w+)"$', text, re.M)
    module, attr = script.groups()
    assert getattr(importlib.import_module(module), attr) is main
