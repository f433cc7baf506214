"""Pinned CLI output: exit status, stdout and stderr, byte for byte.

Every case runs in-process twice, once human and once with --json, and
is compared with tests/data/golden/cli.json.  When an output change is
intended, regenerate that file with

    PYTHONPATH=src:tests python tests/test_golden.py

and name the change in the change notes.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from twistlab.cli import main

from helpers import DATA

GOLDEN = DATA / "golden"
EXPECTED = GOLDEN / "cli.json"

_CASES = {
    "compute_2_1_1_1_2": ["compute", "2", "1", "1", "1", "2"],
    "compute_2": ["compute", "2"],
    "compute_3,3": ["compute", "3,3"],
    "verify_4_3": ["verify", "4", "3"],
    "verify_2": ["verify", "2"],
    "verify_2_1_1_2": ["verify", "2", "1", "1", "2"],
    "verify_enumerate_6": ["verify", "--enumerate", "--max-crossings", "6"],
    "mirror_3": ["mirror", "3"],
    "mirror_2_1_2": ["mirror", "2", "1", "2"],
    "mirror_2": ["mirror", "2"],
    "sum_2-2_2": ["sum", "2 2", "2"],
    "sum_3_3": ["sum", "3", "3"],
    "sum_2_2": ["sum", "2", "2"],
    "pd_fixtures": ["pd", "--file", str(DATA / "links.jsonl")],
    "pd_expect_match": ["pd", "--file", str(GOLDEN / "l6a5.jsonl"), "--expect", "1,4,3"],
    "pd_expect_mismatch": ["pd", "--file", str(GOLDEN / "l6a5.jsonl"), "--expect", "3,4,1"],
    "pd_truncate_fails": ["pd", "--file", str(GOLDEN / "switched_trefoil.jsonl")],
}
CASES = {**_CASES, **{f"{name}_json": argv + ["--json"] for name, argv in _CASES.items()}}


def run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return {"status": status, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_golden_file_holds_exactly_the_cases():
    # a case left in the file when its entry here goes would pass every
    # pinned test above and show only when the file is regenerated
    assert sorted(json.loads(EXPECTED.read_text(encoding="utf-8"))) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_pinned(name):
    want = json.loads(EXPECTED.read_text(encoding="utf-8"))[name]
    assert run(CASES[name]) == want


if __name__ == "__main__":
    table = {name: run(CASES[name]) for name in sorted(CASES)}
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
