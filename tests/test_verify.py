"""Reports and checks tying coefficients to twist-site counts."""

from __future__ import annotations

import json

import pytest

from twistlab import kauffman, verify
from twistlab.cli import main
from twistlab.diagram import (
    INFINITY,
    ZERO,
    DiagramError,
    build_standard,
    canonical_key,
    components,
    connected_sum,
    is_alternating,
    mirror,
    parse_pd,
    remove_curls,
    self_writhe,
    smooth,
    switch,
    to_pd,
)
from twistlab.kauffman import LaurentPoly2, lambda_code, lambda_poly, staggered, truncate
from twistlab.notation import (
    ConwayCode,
    NotationError,
    continued_fraction,
    enumerate_standard,
    minimal_code,
    parse_conway,
    predicted_u,
)
from twistlab.verify import (
    BALANCED,
    BOTTOM_HEAVY,
    TOP_HEAVY,
    VerificationReport,
    amphicheiral_obstruction,
    check_diagram,
    chirality_class,
    sweep,
    verify_code,
    verify_connected_sum,
    verify_mirror,
)

from helpers import DATA


def _code(text):
    return parse_conway(text)


def _fixture(name):
    with open(DATA / "links.jsonl", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["name"] == name:
                return parse_pd(rec["pd"])
    raise KeyError(name)


def test_twist_counts_on_known_codes():
    for text, want in (
        ("2", (0, 1, 0)),
        ("3", (0, 1, 1)),
        ("2 2", (1, 2, 1)),
        ("2 1 1 1 2", (2, 5, 3)),
        ("4 3", (1, 2, 1)),
    ):
        rep = verify_code(_code(text))
        assert rep.overall, rep.summary()
        assert rep.computed_u == want
        assert rep.predicted == want


def test_twist_count_report_fields():
    rep = verify_code(_code("2 2"))
    d = rep.as_dict()
    assert set(d) == {"input", "c", "sites", "computed_u", "predicted_u", "checks", "overall"}
    assert d["input"] == "2 2" and d["c"] == 4 and d["sites"] == 2
    assert d["computed_u"] == [1, 2, 1] and d["overall"] is True
    assert set(rep.checks) == {"degree_bounds", "theorem_match"}


def test_side_counts_sum_to_total_on_sweep():
    for rep in sweep(8):
        um, u0, up = rep.computed_u
        if rep.input == "2":
            assert (um, u0, up) == (0, 1, 0)
        else:
            assert um + up == u0


def test_truncated_skein_holds_at_the_first_and_last_crossing():
    # switching either end crossing of an alternating standard build
    # drops the z-degree by at least three, so the two top rows of
    # Lambda are z times those of the sum over its two smoothings
    z = LaurentPoly2.monomial(1, 0, 1)
    for text in ("3", "2 2", "4 3", "2 1 1 1 2"):
        d = build_standard(_code(text))
        c = d.crossings
        p = lambda_poly(d)
        for x in (0, c - 1):
            rhs = z * (lambda_poly(smooth(d, x, ZERO)) + lambda_poly(smooth(d, x, INFINITY)))
            for row in (c - 1, c - 2):
                assert p.z_row(row) == rhs.z_row(row), (text, x, row)


def test_connected_sum_report():
    rep = verify_connected_sum(_code("2 2"), _code("2"))
    assert rep.overall
    assert rep.checks == {"product_match": True, "sum_top_degree": True}
    rep = verify_connected_sum(_code("3"), _code("3"))
    assert rep.overall and rep.crossings == 6
    trefoil = build_standard(_code("3"))
    assert rep.polynomial == lambda_poly(connected_sum(trefoil, trefoil))


def test_reports_start_empty_and_own_their_checks():
    rep = VerificationReport(input="x", crossings=3)
    assert (rep.input, rep.crossings) == ("x", 3)
    assert rep.sites is rep.computed_u is rep.predicted is rep.polynomial is rep.failure is None
    assert rep.checks == {} and rep.overall
    other = VerificationReport(input="y", crossings=4, sites=2, computed_u=(1, 2, 1))
    rep.checks["a"] = False
    assert other.checks == {} and other.overall and not rep.overall
    assert other.as_dict()["computed_u"] == [1, 2, 1] and other.sites == 2


def test_chirality_classes():
    t3 = truncate(lambda_poly(build_standard(_code("3"))), 3)
    assert chirality_class(t3) == TOP_HEAVY
    t4 = truncate(lambda_poly(build_standard(_code("2 2"))), 4)
    assert chirality_class(t4) == BALANCED
    tm = truncate(lambda_poly(mirror(build_standard(_code("3")))), 3)
    assert chirality_class(tm) == BOTTOM_HEAVY


def test_amphicheiral_obstruction():
    assert amphicheiral_obstruction(_code("3")) == "obstructed"
    assert amphicheiral_obstruction(_code("2 1 2")) == "obstructed"
    assert amphicheiral_obstruction(_code("2 2")) == "inconclusive"
    assert amphicheiral_obstruction(_code("2")) == "inconclusive"


def test_check_diagram_on_fixtures():
    rep = check_diagram(_fixture("l6a5"), expected=(1, 4, 3), name="l6a5")
    assert rep.overall and rep.computed_u == (1, 4, 3)
    assert rep.as_dict()["predicted_u"] is None

    rep = check_diagram(_fixture("trefoil"), name="trefoil")
    assert rep.computed_u in ((0, 1, 1), (1, 1, 0))

    rep = check_diagram(_fixture("hopf"), expected=(0, 1, 0), name="hopf")
    assert rep.overall


def test_check_diagram_reports_u_zero_excess_without_asserting():
    # a non-rational alternating knot whose middle count exceeds its
    # visible twist sites by one; the report only carries the numbers
    rep = check_diagram(_fixture("pretzel_3_3_2"), name="pretzel_3_3_2")
    assert rep.computed_u == (1, 4, 3)
    assert rep.computed_u[1] == 3 + 1


def test_check_diagram_flags_mismatch():
    rep = check_diagram(_fixture("l6a5"), expected=(3, 4, 1), name="l6a5")
    assert not rep.overall
    assert rep.checks["expected_match"] is False


@pytest.mark.parametrize(
    "bad",
    [(True, 3, 2), (1, 2), "abc", (1, 4, -3), (1, 4.0, 3)],
    ids=["bool", "pair", "text", "negative", "float"],
)
def test_check_diagram_refuses_an_expectation_that_is_not_a_count_triple(bad):
    with pytest.raises(DiagramError, match="three nonnegative ints"):
        check_diagram(_fixture("l6a5"), expected=bad)
    assert check_diagram(_fixture("l6a5"), expected=[1, 4, 3]).overall


def test_check_diagram_reports_a_failed_truncation():
    # a switched trefoil is an unknot diagram: its top z rows are not an
    # alternating diagram's, so top_pair fails and is the only check
    rep = check_diagram(switch(_fixture("trefoil"), 0), expected=(0, 1, 1), name="sw")
    assert rep.checks == {"top_pair": False} and not rep.overall
    assert rep.computed_u is None
    assert rep.failure == "z^2 row is {}, wanted exactly a + 1/a"
    assert "failure" not in rep.as_dict()


def test_verify_code_merges_applicable_checks():
    for text in ("4 3", "2"):
        rep = verify_code(_code(text))
        assert set(rep.checks) == {"degree_bounds", "theorem_match"}
        assert rep.overall


def test_verify_code_memo_does_not_change_the_report(monkeypatch):
    # the reports come from the transfer-matrix engine; the skein engine,
    # memoized, is the reference for their u triples
    monkeypatch.delenv("TWISTLAB_CACHE", raising=False)
    memo = {}
    codes = [code for c in range(2, 9) for code in enumerate_standard(c)]
    want = [verify_code(code).as_dict() for code in codes]
    for code, rep in zip(codes, want):
        ref = truncate(lambda_poly(build_standard(code), memo), code.crossings)
        assert rep["computed_u"] == list(ref), code
    monkeypatch.setenv("TWISTLAB_CACHE", "off")
    assert [verify_code(code).as_dict() for code in codes] == want


def test_verify_code_never_enters_the_skein_engine(monkeypatch):
    resolved = []
    real = kauffman._resolve

    def counting(d, cache):
        resolved.append(d)
        return real(d, cache)

    monkeypatch.setattr(kauffman, "_resolve", counting)
    for text in ("2", "3", "4 3", "2 1 1 2", "2 1 3 1 2"):
        assert verify_code(_code(text)).overall
    assert sweep(6)
    assert resolved == []


def test_verify_code_walks_a_code_once(monkeypatch):
    # one walk gives the code's Lambda, and no other code is walked
    walks = []
    real = verify.lambda_code

    def counting(code):
        walks.append(code)
        return real(code)

    monkeypatch.setattr(verify, "lambda_code", counting)
    for text in ("2", "3", "2 2", "2 1 1 2", "4 3"):
        walks.clear()
        verify_code(_code(text))
        assert walks == [_code(text)], (text, walks)


def _wrong_prediction(monkeypatch):
    monkeypatch.setattr(verify, "predicted_u", lambda code: (0, 0, 0))


def _wrong_step(monkeypatch, edit, axes=(1, -1)):
    """Patch ``kauffman._twist`` by edit(x, (near', x', far'), e) on the given axes."""
    real = kauffman._twist

    def wrong(near, x, far, e):
        out = real(near, x, far, e)
        return edit(x, out, e) if e in axes else out

    monkeypatch.setattr(kauffman, "_twist", wrong)


def _wrong_horizontal_step(monkeypatch):
    # X -> +H instead of -H on a horizontal site only
    _wrong_step(monkeypatch, lambda x, out, e: (x,) + out[1:], axes=(1,))


def _wrong_near_sign(monkeypatch):
    # X -> +near instead of -near on every site
    _wrong_step(monkeypatch, lambda x, out, e: (x,) + out[1:])


def _wrong_far_dropped(monkeypatch):
    # far -> 0 instead of far -> a^e far on every site
    _wrong_step(monkeypatch, lambda x, out, e: out[:2] + (x.shift(a_exp=e, z_exp=1),))


@pytest.mark.parametrize(
    "break_it, check",
    [
        (_wrong_prediction, "theorem_match"),
        (_wrong_horizontal_step, "theorem_match"),
        (_wrong_near_sign, "theorem_match"),
        (_wrong_far_dropped, "theorem_match"),
    ],
)
def test_verify_reports_a_wrong_value_as_failed(monkeypatch, capsys, break_it, check):
    break_it(monkeypatch)
    rep = verify_code(_code("4 3"))
    assert rep.checks[check] is False and not rep.overall
    assert main(["verify", "4", "3"]) == 1
    assert "FAIL" in capsys.readouterr().out
    assert main(["verify", "4", "3", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["overall"] is False


def test_a_wrong_polynomial_fails_the_code_it_corrupts(monkeypatch):
    # one extra a^2 z^(c-2) term on every code but 4 3: the code's own
    # theorem_match fails, in verify_code and in a sweep alike
    real = verify.lambda_code

    def wrong(code):
        p = real(code)
        if code != _code("4 3"):
            p = p + LaurentPoly2.monomial(1, 2, code.crossings - 2)
        return p

    monkeypatch.setattr(verify, "lambda_code", wrong)
    assert verify_code(_code("4 3")).overall
    rep = verify_code(_code("2 2"))
    assert rep.checks["theorem_match"] is False and not rep.overall
    reports = sweep(7)
    failed = [r.input for r in reports if not r.checks["theorem_match"]]
    assert failed == [r.input for r in reports if r.input != "4 3"]


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: verify_code((2, 1, 2)), NotationError),
        (lambda: lambda_code([3]), NotationError),
        (lambda: build_standard((2, 1, 2)), NotationError),
        (lambda: minimal_code((3,)), NotationError),
        (lambda: continued_fraction((2,)), NotationError),
        (lambda: lambda_poly(None), DiagramError),
        (lambda: connected_sum(build_standard(_code("3")), None), DiagramError),
        (lambda: to_pd(None), DiagramError),
    ],
    ids=[
        "verify_code",
        "lambda_code",
        "build_standard",
        "minimal_code",
        "continued_fraction",
        "lambda_poly",
        "connected_sum",
        "to_pd",
    ],
)
def test_entry_points_refuse_the_wrong_type_with_their_layers_error(call, error):
    with pytest.raises(error, match="wanted a"):
        call()


@pytest.mark.parametrize("bad", [(2, 1, 2), None], ids=["tuple", "None"])
@pytest.mark.parametrize(
    "call, error",
    [
        (predicted_u, NotationError),
        (amphicheiral_obstruction, NotationError),
        (mirror, DiagramError),
        (components, DiagramError),
        (is_alternating, DiagramError),
        (self_writhe, DiagramError),
        (remove_curls, DiagramError),
        (canonical_key, DiagramError),
        (lambda d: switch(d, 0), DiagramError),
        (lambda d: smooth(d, 0, ZERO), DiagramError),
        (lambda p: truncate(p, 3), NotationError),
        (lambda p: staggered(p, 3), NotationError),
    ],
    ids=[
        "predicted_u",
        "amphicheiral_obstruction",
        "mirror",
        "components",
        "is_alternating",
        "self_writhe",
        "remove_curls",
        "canonical_key",
        "switch",
        "smooth",
        "truncate",
        "staggered",
    ],
)
def test_exported_functions_refuse_the_wrong_type_with_their_layers_error(call, error, bad):
    with pytest.raises(error, match="wanted a"):
        call(bad)


def test_verify_passes_on_a_hundred_crossing_code():
    code = ConwayCode((2,) + (1,) * 96 + (2,))
    rep = verify_code(code)
    assert rep.checks["theorem_match"] and rep.overall
    assert rep.computed_u == (49, 98, 49)


def test_verify_mirror():
    # the report is the mirrored build's: its z^(c-2) row reads the
    # code's own triple with the ends swapped, on every code of 2..10
    # crossings (3, 2 1 2 and 2 among them)
    codes = [code for c in range(2, 11) for code in enumerate_standard(c)]
    assert len(codes) == 256
    for code in codes:
        rep = verify_mirror(code)
        assert rep.polynomial == lambda_poly(mirror(build_standard(code))), code
        assert rep.checks == {
            "degree_bounds": True, "top_pair": True, "substitution_match": True
        }, code
        assert rep.computed_u == rep.predicted == predicted_u(code)[::-1], code


def test_a_mirror_whose_rows_have_the_wrong_shape_fails_top_pair(monkeypatch, capsys):
    # the mirror's rows are read by check_diagram, so a wrong shape is a
    # failed check with a reason, not an error that escapes the command
    monkeypatch.setattr(verify, "lambda_poly", lambda d, cache=None: LaurentPoly2.monomial(1))
    rep = verify_mirror(_code("3"))
    assert rep.checks == {"top_pair": False, "substitution_match": False}
    assert rep.computed_u is None and rep.failure
    assert main(["mirror", "3", "--json"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["u_mirror"] is None
    assert err.startswith("3: ") and err.count("\n") == 1 and "Traceback" not in err
    assert main(["mirror", "3"]) == 1
    assert "(0, 1, 1) -> None" in capsys.readouterr().out


def test_sweep_rejects_too_few_crossings():
    for n in (-3, 1):
        with pytest.raises(NotationError):
            sweep(n)


def test_sweep_refuses_counts_that_are_not_ints():
    for bad in (2.5, 7.0, "7", True):
        with pytest.raises(NotationError, match="crossing count must be an int"):
            sweep(bad)


@pytest.mark.parametrize(
    "make",
    [lambda: verify_code(ConwayCode((10**5000,))), lambda: sweep(10**5000)],
    ids=["code_budget", "sweep_budget"],
)
def test_budget_errors_show_ints_too_long_to_print(make):
    # an f-string of an int past 4300 digits raises a plain ValueError
    with pytest.raises(NotationError, match="-bit int>"):
        make()


def test_sweep_passes_and_reports():
    reports = sweep(7)
    assert len(reports) == sum(
        len(enumerate_standard(c)) for c in range(2, 8)
    )
    assert all(r.overall for r in reports)
    as_json = json.dumps([r.as_dict() for r in reports])
    assert json.loads(as_json)[0]["overall"] is True
