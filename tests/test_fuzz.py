"""Seeded fuzz of the CLI input boundary.

Mutated PD records and argument lists drawn from a fixed token pool go
through main; every one must end with status 0, 1 or 2 (argparse's
SystemExit(2) counts as 2) and raise nothing else.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random

from twistlab.cli import main
from twistlab.diagram import LinkDiagram, to_pd

from helpers import DATA

RECORDS = [json.loads(ln) for ln in (DATA / "links.jsonl").read_text(encoding="utf-8").splitlines()]

TOKENS = ["1", "2", "2", "3", "4", "0", "-1", "1_0", ",", "2,1", "3,2", "x", "", "1.5", "+2", "٣",
          "9" * 4301]
COMMANDS = ["compute", "verify", "mirror", "sum"]


def _status(argv) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


def _random_matching(rng) -> list[list[int]]:
    # most random matchings have no plane embedding; they are built
    # unchecked, so that the CLI is what refuses them
    ends = list(range(4 * rng.randint(1, 4)))
    rng.shuffle(ends)
    mate = [0] * len(ends)
    for a, b in zip(ends[::2], ends[1::2]):
        mate[a], mate[b] = b, a
    return to_pd(LinkDiagram._trusted(tuple(mate), 0))


def _mutated_line(rng) -> str:
    rec = copy.deepcopy(rng.choice(RECORDS))
    pd = rec["pd"]
    kind = rng.randrange(7)
    if kind == 0:  # drop a label
        rng.choice(pd).pop(rng.randrange(4))
    elif kind == 1:  # retype a label
        tup = rng.choice(pd)
        i = rng.randrange(4)
        tup[i] = rng.choice([str(tup[i]), float(tup[i]), None, True, [tup[i]], -tup[i]])
    elif kind == 2:  # truncated JSON
        text = json.dumps(rec)
        return text[: rng.randrange(1, len(text))]
    elif kind == 3:  # missing key
        del rec[rng.choice(["name", "pd"])]
    elif kind == 4:  # shuffled tuple
        rng.shuffle(rng.choice(pd))
    elif kind == 5:  # shuffled crossing order and a shuffled tuple
        rng.shuffle(pd)
        rng.shuffle(pd[0])
    else:
        rec["pd"] = _random_matching(rng)
    return json.dumps(rec)


def _code_argv(rng) -> list[str]:
    cmd = rng.choice(COMMANDS)
    if cmd == "sum":
        args = rng.choices(TOKENS, k=rng.choice([1, 2, 2, 3]))
    else:
        args = rng.choices(TOKENS, k=rng.randint(0, 4))
    if rng.random() < 0.3:
        args.insert(rng.randint(0, len(args)), "--json")
    return [cmd] + args


def test_pd_records_never_escape(tmp_path):
    rng = random.Random(20261018)
    target = tmp_path / "case.jsonl"
    seen = set()
    for _ in range(300):
        line = _mutated_line(rng)
        target.write_text(line + "\n", encoding="utf-8")
        status = _status(["pd", "--file", str(target)])
        assert status in (0, 1, 2), line
        seen.add(status)
    assert seen == {0, 1, 2}


def test_code_commands_never_escape():
    rng = random.Random(20261018)
    seen = set()
    for _ in range(300):
        argv = _code_argv(rng)
        status = _status(argv)
        assert status in (0, 1, 2), argv
        seen.add(status)
    assert {0, 2} <= seen
