"""Command line front end.

Exit status is 0 when every check run by the command passed, 1 when a
verification check failed or the reader closed stdout early, 2 for
malformed input.  Codes are given as one argument per twist count, or
as a single quoted string with spaces or commas.  Each command returns
(exit status, JSON payload, human lines), and main prints the payload
or the lines.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from .diagram import DiagramError, build_standard, components, parse_pd
from .kauffman import TopDegreeMismatchError, lambda_code, staggered, truncate
from .notation import _FIELDS, NotationError, continued_fraction, parse_conway, parse_int
from .verify import (
    amphicheiral_obstruction,
    chirality_class,
    check_diagram,
    sweep,
    verify_code,
    verify_connected_sum,
    verify_mirror,
)


def cmd_compute(args):
    code = parse_conway(" ".join(args.code))
    p = lambda_code(code)
    u = truncate(p, code.crossings)
    frac = continued_fraction(code)
    payload = {
        "code": str(code),
        "crossings": code.crossings,
        "sites": code.sites,
        "components": components(build_standard(code)),
        "fraction": [frac.numerator, frac.denominator],
        "lambda": [list(term) for term in p.terms()],
        "u": list(u),
        "chirality": chirality_class(u),
        "amphicheiral": amphicheiral_obstruction(code),
    }
    lines = [
        f"code: {code}",
        f"crossings: {code.crossings}  sites: {code.sites}"
        f"  components: {payload['components']}  fraction: {frac}",
        f"Lambda = {p.pretty()}",
        "top rows:",
        staggered(p, code.crossings),
        f"u = {u}  chirality: {payload['chirality']}"
        f"  amphicheiral: {payload['amphicheiral']}",
    ]
    return 0, payload, lines


def cmd_verify(args):
    if args.enumerate:
        if args.max_crossings is None:
            raise NotationError("--enumerate needs --max-crossings")
        if args.code:
            raise NotationError("give a code or use --enumerate, not both")
        reports = sweep(parse_int(args.max_crossings, "--max-crossings value"))
        passed = sum(1 for r in reports if r.overall)
        payload = {
            "reports": [r.as_dict() for r in reports],
            "codes": len(reports),
            "passed": passed,
        }
        lines = [r.summary() for r in reports]
        lines.append(f"{len(reports)} codes, {passed} passed")
        return 0 if passed == len(reports) else 1, payload, lines
    if args.max_crossings is not None:
        raise NotationError("--max-crossings needs --enumerate")
    if not args.code:
        raise NotationError("give a code or use --enumerate")
    report = verify_code(parse_conway(" ".join(args.code)))
    return 0 if report.overall else 1, report.as_dict(), [report.summary()]


def cmd_mirror(args):
    code = parse_conway(" ".join(args.code))
    rep = verify_mirror(code)
    if rep.failure:
        print(f"{code}: {rep.failure}", file=sys.stderr)
    q = rep.polynomial
    u = rep.predicted[::-1]
    ok = rep.checks["substitution_match"]
    payload = {
        "code": str(code),
        "lambda_mirror": [list(term) for term in q.terms()],
        "u": list(u),
        "u_mirror": list(rep.computed_u) if rep.computed_u else None,
        "substitution_match": ok,
    }
    lines = [
        f"mirror of {code}: Lambda = {q.pretty()}",
        f"u = {u} -> {rep.computed_u}  substitution_match: {'ok' if ok else 'FAIL'}",
    ]
    return 0 if rep.overall else 1, payload, lines


def cmd_sum(args):
    code1 = parse_conway(args.code1)
    code2 = parse_conway(args.code2)
    rep = verify_connected_sum(code1, code2)
    p = rep.polynomial
    c = rep.crossings
    payload = {
        "codes": [str(code1), str(code2)],
        "crossings": c,
        "lambda": [list(term) for term in p.terms()],
        "product_match": rep.checks["product_match"],
        "sum_top_degree": rep.checks["sum_top_degree"],
    }
    lines = [
        f"{code1} # {code2}: crossings={c}",
        f"Lambda = {p.pretty()}",
        f"product_match: {'ok' if rep.checks['product_match'] else 'FAIL'}"
        f"  top z-degree {p.max_z()} (crossings-2 = {c - 2})",
    ]
    return 0 if rep.overall else 1, payload, lines


def cmd_pd(args):
    expected = None
    if args.expect is not None:
        fields = _FIELDS.split(args.expect.strip())
        parts = [parse_int(x, "--expect value") for x in fields if x]
        if len(fields) != 3 or len(parts) != 3 or min(parts) < 0:
            raise DiagramError(
                "--expect wants three nonnegative integers: u_minus,u_zero,u_plus"
            )
        expected = tuple(parts)
    try:
        with open(args.file, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise DiagramError(f"cannot read {args.file}: {exc}") from None
    if not lines:
        raise DiagramError(f"no pd records in {args.file}")
    memo: dict = {}
    reports = []
    for ln in lines:
        try:
            rec = json.loads(ln)
            if not (isinstance(rec, dict) and "name" in rec and "pd" in rec):
                raise TypeError('wanted an object with "name" and "pd"')
            name, pd = rec["name"], rec["pd"]
            if not isinstance(name, str):
                raise TypeError("name must be a string")
            name.encode()  # a lone surrogate would fail only when printed
        except (ValueError, RecursionError, TypeError) as exc:
            raise DiagramError(f"bad pd record {ln[:40]!r}: {exc}") from None
        rep = check_diagram(parse_pd(pd), expected=expected, name=name, cache=memo)
        if rep.failure:
            print(f"{name}: {rep.failure}", file=sys.stderr)
        reports.append(rep)
    ok = all(r.overall for r in reports)
    payload = {"records": [r.as_dict() for r in reports], "overall": ok}
    return 0 if ok else 1, payload, [r.summary() for r in reports]


def main(argv=None) -> int:
    # argparse makes a formatter for every argument it adds, and each
    # would look up the terminal size; look it up once, as argparse does
    width = shutil.get_terminal_size().columns - 2

    def formatter(prog):
        return argparse.HelpFormatter(prog, width=width)

    ap = argparse.ArgumentParser(
        prog="twistlab",
        description="Kauffman polynomials and twist-site checks for rational links",
        formatter_class=formatter,
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        p = sub.add_parser(name, help=help, formatter_class=formatter)
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=fn)
        return p

    p = command("compute", cmd_compute, "polynomial and u triple of a code")
    p.add_argument("code", nargs="+")

    p = command("verify", cmd_verify, "run the checks for one code or a sweep")
    p.add_argument("code", nargs="*")
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--max-crossings", default=None)

    p = command("mirror", cmd_mirror, "polynomial of the mirrored build")
    p.add_argument("code", nargs="+")

    p = command("sum", cmd_sum, "connected sum of two codes")
    p.add_argument("code1")
    p.add_argument("code2")

    p = command("pd", cmd_pd, "check diagrams from a pd-code file")
    p.add_argument("--file", required=True)
    p.add_argument(
        "--expect",
        default=None,
        help="u_minus,u_zero,u_plus in ascending a-exponent order",
    )

    args = ap.parse_args(argv)
    try:
        status, payload, lines = args.fn(args)
        if args.json:
            print(json.dumps(payload))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except (NotationError, DiagramError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TopDegreeMismatchError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed the pipe: send what is still buffered to
        # devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status
