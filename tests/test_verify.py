"""Reports and checks tying coefficients to twist-site counts."""

from __future__ import annotations

import json

import pytest

from twistlab import kauffman, verify
from twistlab.cli import main
from twistlab.diagram import (
    INFINITY,
    ZERO,
    build_standard,
    connected_sum,
    mirror,
    parse_pd,
    smooth,
    switch,
)
from twistlab.kauffman import LaurentPoly2, lambda_poly, truncate
from twistlab.notation import (
    ConwayCode,
    NotationError,
    enumerate_standard,
    parse_conway,
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
    assert set(rep.checks) == {
        "degree_bounds",
        "theorem_match",
        "reduction_match",
    }


def test_side_counts_sum_to_total_on_sweep():
    for rep in sweep(8):
        um, u0, up = rep.computed_u
        if rep.input == "2":
            assert (um, u0, up) == (0, 1, 0)
        else:
            assert um + up == u0


def test_minimal_reduction():
    rep = verify_code(_code("4 3"))
    assert rep.checks["reduction_match"] and rep.computed_u == rep.predicted == (1, 2, 1)
    rep = verify_code(_code("5"))
    assert rep.checks["reduction_match"] and rep.computed_u == (0, 1, 1)
    rep = verify_code(_code("2 1 1 1 2"))
    assert rep.checks["reduction_match"]  # already minimal, trivially equal
    assert "reduction_match" not in verify_code(_code("2")).checks


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


def test_check_diagram_reports_a_failed_truncation():
    # a switched trefoil is an unknot diagram: its top z rows are not an
    # alternating diagram's, so top_pair fails and is the only check
    rep = check_diagram(switch(_fixture("trefoil"), 0), expected=(0, 1, 1), name="sw")
    assert rep.checks == {"top_pair": False} and not rep.overall
    assert rep.computed_u is None
    assert rep.failure == "z^2 row is {}, wanted exactly a + 1/a"
    assert "failure" not in rep.as_dict()


def test_verify_code_merges_applicable_checks():
    rep = verify_code(_code("4 3"))
    assert set(rep.checks) == {
        "degree_bounds",
        "theorem_match",
        "reduction_match",
    }
    rep = verify_code(_code("2"))
    assert "reduction_match" not in rep.checks
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


def test_verify_code_walks_a_code_once_and_its_minimal_code_once(monkeypatch):
    # one walk gives the code's Lambda; the minimal code takes a second
    # walk unless the code is its own minimal code
    walks = []
    real = verify.lambda_code

    def counting(code):
        walks.append(code)
        return real(code)

    monkeypatch.setattr(verify, "lambda_code", counting)
    for text, count in (("2", 1), ("3", 1), ("2 2", 1), ("2 1 1 2", 1), ("4 3", 2)):
        walks.clear()
        verify_code(_code(text))
        assert len(walks) == count, (text, walks)


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


def _wrong_minimal_polynomial(monkeypatch):
    real = verify.lambda_code

    def wrong(code):
        p = real(code)
        if code != _code("4 3"):
            p = p + LaurentPoly2.monomial(1, 2, code.crossings - 2)
        return p

    monkeypatch.setattr(verify, "lambda_code", wrong)


@pytest.mark.parametrize(
    "break_it, check",
    [
        (_wrong_prediction, "theorem_match"),
        (_wrong_horizontal_step, "theorem_match"),
        (_wrong_near_sign, "theorem_match"),
        (_wrong_far_dropped, "theorem_match"),
        (_wrong_minimal_polynomial, "reduction_match"),
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


def test_verify_passes_on_a_hundred_crossing_code():
    code = ConwayCode((2,) + (1,) * 96 + (2,))
    rep = verify_code(code)
    assert rep.checks["theorem_match"] and rep.overall
    assert rep.computed_u == (49, 98, 49)


def test_verify_mirror():
    for text in ("3", "2 1 2", "2"):
        rep = verify_mirror(_code(text))
        assert rep.checks == {"substitution_match": True}
        assert rep.computed_u == truncate(lambda_poly(build_standard(_code(text))), rep.crossings)
        assert rep.polynomial == lambda_poly(mirror(build_standard(_code(text))))


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
