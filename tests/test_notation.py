"""Conway code parsing, site-count arithmetic, and enumeration."""

from __future__ import annotations

import copy
import pickle
import sys
from fractions import Fraction

import pytest

from twistlab.notation import (
    ConwayCode,
    NotationError,
    _shown,
    continued_fraction,
    crossing_axes,
    enumerate_standard,
    minimal_code,
    parse_conway,
    predicted_u,
)


def test_parse_valid():
    code = parse_conway("2 1 1 1 2")
    assert code.entries == (2, 1, 1, 1, 2)
    assert code.sites == 5
    assert code.crossings == 7
    assert str(code) == "2 1 1 1 2"


def test_parse_single_site():
    assert parse_conway("3").entries == (3,)
    assert parse_conway(" 2 ").entries == (2,)


def test_parse_rejects_garbage():
    with pytest.raises(NotationError, match="no twist counts given"):
        parse_conway("   ")
    with pytest.raises(NotationError, match="bad twist count 'x'"):
        parse_conway("2 x 2")
    with pytest.raises(NotationError, match="must be positive, got 0"):
        parse_conway("2 0 2")
    with pytest.raises(NotationError, match="must be positive, got -1"):
        parse_conway("2 -1 2")


def test_parse_refuses_non_text():
    for bad in (3, None, b"2 1 2", ["2", "1", "2"]):
        with pytest.raises(NotationError, match="parsed from text"):
            parse_conway(bad)


def test_parse_splits_at_commas_blanks_or_both():
    for text in ("2,2", "2 , 2", " 2,\t2 ", "2 2"):
        assert parse_conway(text).entries == (2, 2)
    for text in ("2,,3", "2,2,", ",2,2", "2, ,2", ","):
        with pytest.raises(NotationError, match="empty twist count"):
            parse_conway(text)


def test_parse_takes_only_ascii_digits():
    assert parse_conway("+2 1 +2").entries == (2, 1, 2)
    for bad in ("1_0", "٣", "2 ３", "0x3", "3.0", "++3"):
        with pytest.raises(NotationError, match="bad twist count"):
            parse_conway(bad)


def test_numbers_too_long_for_int_are_notation_errors():
    # int() refuses more than 4300 digits with a plain ValueError
    with pytest.raises(NotationError, match=r"\(5000 digits\)"):
        parse_conway("1" * 5000)


@pytest.mark.parametrize(
    "entries, message",
    [
        ((-(10**5000),), r"must be positive, got <\d+-bit int>"),
        ((1, 10**5000), r"at least two crossings: \(1, <\d+-bit int>\)"),
        ((2, (10**5000,), 2), r"entry \(<\d+-bit int>,\) is not an integer"),
    ],
    ids=["negative", "end_entry", "not_an_int"],
)
def test_code_errors_show_ints_too_long_to_print(entries, message):
    # an f-string of an int past 4300 digits raises a plain ValueError
    with pytest.raises(NotationError, match=message):
        ConwayCode(entries)


def test_shown_prints_every_int_python_can_print():
    limit = sys.get_int_max_str_digits()
    assert _shown(10**limit - 1) == "9" * limit
    bits = (10**limit).bit_length()
    assert _shown(-(10**limit)) == f"<{bits}-bit int>"
    assert _shown((1, 10**limit, "x")) == f"(1, <{bits}-bit int>, 'x')"
    assert _shown((3,)) == "(3,)" and _shown(True) == "True"


def test_end_entries_need_two_crossings():
    for bad in ("1", "1 2", "2 1", "1 1 1"):
        with pytest.raises(NotationError, match="end sites need at least two crossings"):
            parse_conway(bad)


def test_constructor_validates_like_parser():
    with pytest.raises(NotationError, match="must be positive"):
        ConwayCode((2, 0, 2))
    with pytest.raises(NotationError, match="entry 1.5 is not an integer"):
        ConwayCode((2, 1.5, 2))


def test_constructor_refuses_an_empty_code():
    with pytest.raises(NotationError, match="needs at least one entry"):
        ConwayCode(())


def test_codes_are_immutable_values():
    code = ConwayCode(entries=(2, 1, 2))
    assert code == parse_conway("2 1 2") and code != parse_conway("2 2")
    assert code != (2, 1, 2)
    assert hash(code) == hash(parse_conway("2 1 2")) == hash(((2, 1, 2),))
    assert {code: "x"}[parse_conway("2 1 2")] == "x"
    assert len({code, parse_conway("2 1 2"), parse_conway("3")}) == 2
    assert repr(code) == "ConwayCode(entries=(2, 1, 2))"
    assert copy.copy(code) == code == pickle.loads(pickle.dumps(code))
    with pytest.raises(AttributeError):
        code.entries = (3,)
    with pytest.raises(AttributeError):
        del code.entries
    assert code.entries == (2, 1, 2)
    # entries given as a list are kept as a tuple
    listed = ConwayCode([2, 1, 2])
    assert listed.entries == (2, 1, 2) and listed == code and hash(listed) == hash(code)


def test_crossing_axes_alternate_by_site_and_end_horizontal():
    assert crossing_axes(parse_conway("3")) == [True] * 3
    assert crossing_axes(parse_conway("2 1 3")) == [True, True, False, True, True, True]
    assert crossing_axes(parse_conway("2 2")) == [False, False, True, True]
    for c in range(2, 9):
        for code in enumerate_standard(c):
            axes = crossing_axes(code)
            assert len(axes) == c and axes[-1]
            assert sum(axes) == sum(code.entries[-1::-2])


def test_continued_fraction_frozen_values():
    # worked by hand: 2; 1+1/2=3/2; 1+2/3=5/3; 1+3/5=8/5; 2+5/8=21/8
    assert continued_fraction(parse_conway("2 1 1 1 2")) == Fraction(21, 8)
    assert continued_fraction(parse_conway("2 2")) == Fraction(5, 2)
    assert continued_fraction(parse_conway("3")) == 3
    assert continued_fraction(parse_conway("2 1 2")) == Fraction(8, 3)
    assert continued_fraction(parse_conway("2 1 3")) == Fraction(11, 3)


def test_continued_fraction_shape():
    for c in range(2, 9):
        for code in enumerate_standard(c):
            f = continued_fraction(code)
            assert f > 1
            assert f.denominator >= 1


def test_predicted_u_values():
    assert predicted_u(parse_conway("2")) == (0, 1, 0)
    assert predicted_u(parse_conway("3")) == (0, 1, 1)
    assert predicted_u(parse_conway("2 2")) == (1, 2, 1)
    assert predicted_u(parse_conway("2 1 1 1 2")) == (2, 5, 3)
    assert predicted_u(parse_conway("2 1 1 1 1 2")) == (3, 6, 3)


def test_predicted_u_splits_sites():
    for c in range(2, 9):
        for code in enumerate_standard(c):
            um, u0, up = predicted_u(code)
            if code.entries == (2,):
                assert (um, u0, up) == (0, 1, 0)
            else:
                assert um + up == u0 == code.sites
                assert up - um in (0, 1)


def test_minimal_code():
    assert minimal_code(parse_conway("5")).entries == (3,)
    assert minimal_code(parse_conway("4 3")).entries == (2, 2)
    assert minimal_code(parse_conway("2 3 1 2")).entries == (2, 1, 1, 2)
    with pytest.raises(NotationError, match="clasp has no smaller standard form"):
        minimal_code(parse_conway("2"))


def test_minimal_code_is_minimal():
    for c in range(3, 9):
        for code in enumerate_standard(c):
            small = minimal_code(code)
            assert minimal_code(small) == small
            assert small.sites == code.sites and small.crossings == code.sites + 2


def test_enumerate_small_sets():
    assert [c.entries for c in enumerate_standard(2)] == [(2,)]
    assert [c.entries for c in enumerate_standard(3)] == [(3,)]
    assert [c.entries for c in enumerate_standard(4)] == [(2, 2), (4,)]
    assert [c.entries for c in enumerate_standard(5)] == [
        (2, 1, 2),
        (2, 3),
        (3, 2),
        (5,),
    ]


def _compositions(total):
    if total == 0:
        yield []
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield [first] + rest


def test_enumerate_matches_brute_force():
    for c in range(2, 11):
        got = [list(code.entries) for code in enumerate_standard(c)]
        want = sorted(
            combo
            for combo in _compositions(c)
            if combo[0] >= 2 and combo[-1] >= 2
        )
        assert got == want
        assert all(sum(e) == c for e in got)


def test_enumerate_rejects_tiny():
    with pytest.raises(ValueError):
        enumerate_standard(1)


def test_enumerate_refuses_counts_that_are_not_ints():
    for bad in (3.0, "3", True):
        with pytest.raises(NotationError, match="crossing count must be an int"):
            enumerate_standard(bad)
