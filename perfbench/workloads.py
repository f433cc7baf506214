"""The two workloads: seeded inputs, one timed operation, result checks.

Each workload is a fixed list of distinct ops, made from the seed at
set-up.  The timed loop runs it as whole rounds, every op once per
round, until its time is used up, so each op is repeated many times in a
run.  Most ops of ``query`` and ``pd`` are the same whatever the seed, so the
seed cannot change how much work a round is by much.

- ``query``: ``twistlab verify <code> --json`` in-process on every code
  with 6 or 7 crossings and one seeded 8-crossing code per sites count,
  in a seeded order each round.
- ``pd``: ``twistlab pd --file <f> --expect u-,u0,u+ --json`` in-process
  on one scrambled PD record per file: every 8-crossing build, a seeded
  half of them mirrored; crossings are listed in a seeded order, with
  seeded half-turn relabels and arc labels.  The seed does not choose
  the codes here: the scramble already moves an op's cost by up to 2x,
  and a seeded draw of the heaviest ops on top of that moved the tail
  latency between seeds by more than its bound.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

from twistlab import cli, diagram, kauffman, notation

import reference

QUERY_ALL, QUERY_DRAWN = (6, 7), 8
PD_ALL = 8
ORDERS = 64  # seeded round orders drawn at set-up; the loop cycles through them
LABEL_RANGE = 10**6

NAMES = ("query", "pd")


def cli_call(argv) -> tuple[int, str]:
    """Run the CLI in-process; return its exit status and captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue()


def _one_per_sites(rng: random.Random, crossings: int) -> list:
    """One seeded code for every sites count with this many crossings."""
    groups: dict[int, list] = {}
    for code in notation.enumerate_standard(crossings):
        groups.setdefault(code.sites, []).append(code)
    return [rng.choice(g) for _, g in sorted(groups.items())]


def _orders(rng: random.Random, specs: list) -> list[list]:
    out = []
    for _ in range(ORDERS):
        order = list(specs)
        rng.shuffle(order)
        out.append(order)
    return out


def scrambled_pd(rng: random.Random, code, mirrored: bool) -> list[list[int]]:
    """PD code of a standard build, or its mirror, with its labels scrambled.

    The mirror switches every crossing, which moves the arc at slot s to
    slot s-1.  Crossings are then listed in a random order, some get a
    half-turn slot relabel, and arc labels are renamed at random.
    """
    pd = diagram.to_pd(diagram.build_standard(code))
    if mirrored:
        pd = [t[1:] + t[:1] for t in pd]
    rng.shuffle(pd)
    pd = [t[2:] + t[:2] if rng.random() < 0.5 else t for t in pd]
    labels = sorted({x for t in pd for x in t})
    rename = dict(zip(labels, rng.sample(range(1, LABEL_RANGE), len(labels))))
    return [[rename[x] for x in t] for t in pd]


LOAD = "closed loop, one client, one process, in-process calls"


class Query:
    name = "query"
    sizing = ("30 ops per round (every code with 6 or 7 crossings, one seeded "
              "8-crossing code per sites count), seeded order, whole rounds until the time is used")

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        codes = [code for c in QUERY_ALL for code in notation.enumerate_standard(c)]
        self.specs = [str(code) for code in codes + _one_per_sites(rng, QUERY_DRAWN)]
        self.rounds = _orders(rng, self.specs)

    def op(self, code: str):
        return cli_call(["verify", code, "--json"])

    def check(self, code: str, out, ref) -> str | None:
        rc, text = out
        if rc != 0:
            return f"{code}: exit status {rc}"
        payload = json.loads(text)
        want = list(reference.expected_u([int(x) for x in code.split()]))
        if not payload["overall"] or payload["computed_u"] != want:
            return f"{code}: u={payload['computed_u']} overall={payload['overall']}, want {want}"
        return None

    def check_end(self, specs, ref) -> dict:
        """Lambda of every code run, against the reference digest."""
        memo: dict = {}
        bad = {}
        for code in specs:
            d = diagram.build_standard(notation.parse_conway(code))
            if reference.digest(kauffman.lambda_poly(d, memo).terms()) != ref.get(code):
                bad[code] = f"{code}: Lambda differs from the reference digest"
        return bad


class PD:
    name = "pd"
    sizing = ("32 ops per round, one file each (every 8-crossing build, a seeded half of "
              "them mirrored, each scrambled), seeded order, whole rounds until the time is used")

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        base = notation.enumerate_standard(PD_ALL)
        flipped = set(rng.sample(range(len(base)), len(base) // 2))
        builds = [(code, i in flipped) for i, code in enumerate(base)]
        self.specs = []
        for k, (code, mirrored) in enumerate(builds):
            path = os.path.join(workdir, f"op{k:02d}.jsonl")
            name = f"{code} mirror" if mirrored else str(code)
            record = {"name": name, "pd": scrambled_pd(rng, code, mirrored)}
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
            u = reference.expected_u(code.entries, mirrored)
            self.specs.append((path, str(code), mirrored, ",".join(map(str, u))))
        self.rounds = _orders(rng, self.specs)

    def op(self, spec):
        path, _, _, expect = spec
        return cli_call(["pd", "--file", path, "--expect", expect, "--json"])

    def check(self, spec, out, ref) -> str | None:
        path, code, mirrored, expect = spec
        rc, text = out
        if rc != 0:
            return f"{path}: exit status {rc}"
        payload = json.loads(text)
        records = payload["records"]
        want = [int(x) for x in expect.split(",")]
        if (not payload["overall"] or len(records) != 1
                or records[0]["computed_u"] != want):
            return f"{path}: records {records}, want u={want}"
        return None

    def check_end(self, specs, ref) -> dict:
        """Lambda of every file run, mirror undone, against the digest."""
        memo: dict = {}
        bad = {}
        for spec in specs:
            path, code, mirrored, _ = spec
            with open(path, encoding="utf-8") as fh:
                d = diagram.parse_pd(json.loads(fh.readline())["pd"])
            got = reference.digest(kauffman.lambda_poly(d, memo).terms(), mirrored)
            if got != ref.get(code):
                bad[spec] = f"{path}: Lambda of {code} differs from the reference digest"
        return bad


def make(name: str, seed: int, workdir: str):
    """Generate the inputs of one workload (writing any files into workdir)."""
    cls = {"query": Query, "pd": PD}[name]
    return cls(seed, workdir)
