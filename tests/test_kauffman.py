"""Polynomial arithmetic and the skein engine."""

from __future__ import annotations

import ast
import hashlib
import importlib
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from twistlab import diagram, kauffman
from twistlab.diagram import (
    INFINITY,
    ZERO,
    DiagramError,
    build_standard,
    connected_sum,
    mirror,
    parse_pd,
    remove_curls,
    smooth,
    switch,
    to_pd,
    unlink,
)
from twistlab.kauffman import (
    MAX_SKEIN_CROSSINGS,
    LaurentPoly2,
    TopDegreeMismatchError,
    delta_unlink,
    lambda_code,
    lambda_poly,
    staggered,
    truncate,
)
from twistlab.notation import (
    ConwayCode,
    continued_fraction,
    enumerate_standard,
    parse_conway,
)

from helpers import (
    a_mul,
    a_power,
    add_curl,
    bracket,
    determinant_squared,
    pretzel,
    random_diagrams,
    relabel,
    signed_pretzel,
    skein_calls,
    turks_head,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# no 2-gon face, so no twist bigon: the skein engine takes the walk
BORROMEAN = [[1, 2, 3, 4], [5, 6, 2, 7], [6, 8, 9, 3], [10, 11, 8, 5], [11, 12, 4, 9], [7, 1, 12, 10]]


def _build(text):
    return build_standard(parse_conway(text))


def _poly(terms):
    return LaurentPoly2(terms)


def _scramble(d, rng):
    perm = list(range(d.crossings))
    rng.shuffle(perm)
    return relabel(d, perm, [rng.choice([0, 2]) for _ in perm])


def lambda_digest() -> str:
    """sha256 of Lambda over a fixed set of diagrams the transfer walk cannot check.

    Seeded random diagrams (switches, smoothings, kinks; up to 9
    crossings) and their mirrors, pretzels, scrambled connected sums of
    standard builds up to 14 crossings (half of them mirrored) and the
    Borromean rings, each polynomial hashed as the JSON of its terms.
    """
    rng = random.Random(61)
    out = random_diagrams(200, seed=59, max_crossings=9)
    out += [mirror(d) for d in out]
    for twists in ((1, 1, 1), (2, 2, 2), (3, 3, 2), (3, 3, 3), (2, 3, 4), (2, 2, 2, 2), (3, 1, 3, 1), (4, 4, 3)):
        out.append(pretzel(*twists))
    pool = [code for c in range(2, 10) for code in enumerate_standard(c)]
    sums = 0
    while sums < 24:
        c1, c2 = rng.choice(pool), rng.choice(pool)
        if c1.crossings + c2.crossings <= 14:
            d = connected_sum(_scramble(build_standard(c1), rng), _scramble(build_standard(c2), rng))
            out.append(_scramble(mirror(d) if rng.random() < 0.5 else d, rng))
            sums += 1
    out.append(parse_pd(BORROMEAN))
    return _digest(out)


def pretzel_digest() -> str:
    """sha256 of Lambda over pretzels with long twists, mirrored and scrambled.

    Each pretzel, its mirror and a scrambled copy of both; the mirror
    turns every twist the other way.
    """
    rng = random.Random(67)
    out = []
    for twists in ((3, 3, 3), (4, 4, 4), (2, 3, 4), (5, 5, 3), (2, 2, 2, 2, 2), (3, 3, 3, 3), (6, 7)):
        for d in (pretzel(*twists), mirror(pretzel(*twists))):
            out += [d, _scramble(d, rng)]
    return _digest(out)


def twist_free_digest() -> str:
    """sha256 of Lambda over twist-free knots, which only the descending walk reaches.

    Turk's heads of 4, 5 and 7 crossing pairs, and the mirror of the
    5; as knots, their tails carry the self-writhe of every crossing.
    """
    knots = [turks_head(4), turks_head(5), mirror(turks_head(5)), turks_head(7)]
    assert all(diagram.components(d) == 1 for d in knots)
    return _digest(knots)


def _digest(diagrams) -> str:
    h = hashlib.sha256()
    for d in diagrams:
        h.update(json.dumps(lambda_poly(d).terms()).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# ring operations

def test_add_and_mul():
    p = _poly({(1, 0): 1, (0, 1): 1})  # a + z
    q = _poly({(1, 0): 1, (0, 1): -1})  # a - z
    assert p * q == _poly({(2, 0): 1, (0, 2): -1})
    assert p + q == _poly({(1, 0): 2})
    assert p - p == LaurentPoly2()
    assert not (p - p)


def test_scalar_and_shift():
    d = delta_unlink()
    assert 2 * d == d + d
    assert d.shift(a_exp=1, z_exp=2) == _poly({(2, 1): 1, (0, 1): 1, (1, 2): -1})


def test_mirror_a_swaps_exponents():
    p = _poly({(2, 1): 3, (-1, 0): 5})
    assert p.mirror_a() == _poly({(-2, 1): 3, (1, 0): 5})
    assert p.mirror_a().mirror_a() == p


def test_equal_diagrams_and_polynomials_hash_equal():
    d = _build("2 1 2")
    copy = relabel(d, [2, 0, 4, 1, 3], [2, 0, 0, 2, 2])
    assert copy.mate != d.mate and hash(copy) == hash(d) and len({d, copy}) == 1
    p = lambda_poly(d)
    assert len({p, p.mirror_a().mirror_a()}) == 1


def test_terms_are_sorted_and_round_trip():
    p = _poly({(1, -1): -1, (-1, -1): -1, (0, 0): 1, (1, 1): 1, (-1, 1): 1})
    ts = p.terms()
    assert ts == sorted(ts, key=lambda t: (t[1], t[0]))
    assert LaurentPoly2({(a, z): c for a, z, c in ts}) == p


def test_zero_coefficients_vanish():
    p = _poly({(0, 0): 1}) + _poly({(0, 0): -1})
    assert p.terms() == []
    assert _poly({(3, 3): 0}) == LaurentPoly2()


def test_pretty_formats():
    assert delta_unlink().pretty() == "a^-1 z^-1 + a z^-1 - 1"
    assert LaurentPoly2().pretty() == "0"
    assert _poly({(0, 2): 2}).pretty() == "2 z^2"


# ---------------------------------------------------------------------------
# base values

def test_unknot_and_unlinks():
    # past delta^MAX_SKEIN_CROSSINGS the table ends and the binomial sum
    # takes over
    power = LaurentPoly2.monomial(1)
    for loops in range(1, MAX_SKEIN_CROSSINGS + 6):
        assert lambda_poly(unlink(loops)) == power, loops
        power = power * delta_unlink()


def test_free_loops_leave_the_delta_table_as_it_was():
    # a fresh interpreter, so the table is as import built it
    script = "\n".join([
        "from twistlab import kauffman",
        "from twistlab.diagram import unlink",
        "table = kauffman._DELTA_POWERS",
        "size = len(table)",
        "assert len(kauffman.lambda_poly(unlink(60)).terms()) == 60 * 61 // 2",
        "assert kauffman._DELTA_POWERS is table and len(table) == size",
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_empty_diagram_has_no_value():
    with pytest.raises(DiagramError, match="empty diagram has no polynomial"):
        lambda_poly(unlink(0))


def test_two_unlink_from_switched_clasp():
    assert lambda_poly(switch(_build("2"), 0)) == delta_unlink()


# ---------------------------------------------------------------------------
# published values

def test_hopf_polynomial_exact():
    want = _poly({(1, -1): -1, (-1, -1): -1, (0, 0): 1, (1, 1): 1, (-1, 1): 1})
    assert lambda_poly(_build("2")) == want


def test_trefoil_polynomial():
    # by hand from the skein at one crossing: the switched diagram
    # reduces to a -1 kink (value 1/a), the smoothings are the Hopf
    # link and a 2-kink unknot (value a^2), so
    # Lambda = z*(Lambda_hopf + a^2) - 1/a
    want = _poly(
        {(-1, 0): -2, (1, 0): -1, (0, 1): 1, (2, 1): 1, (-1, 2): 1, (1, 2): 1}
    )
    assert lambda_poly(_build("3")) == want


def test_trefoil_truncation():
    t = truncate(lambda_poly(_build("3")), 3)
    assert t == (0, 1, 1)


def test_figure_eight_top_rows():
    p = lambda_poly(_build("2 2"))
    assert p.z_row(3) == {1: 1, -1: 1}
    assert p.z_row(2) == {2: 1, 0: 2, -2: 1}
    assert truncate(p, 4) == (1, 2, 1)


def test_figure_eight_staggered_layout():
    got = staggered(lambda_poly(_build("2 2")), 4)
    assert got.splitlines() == [
        "  a^2 z^2",
        "            + a z^3",
        "+ 2 z^2",
        "            + a^-1 z^3",
        "+ a^-2 z^2",
    ]


def test_five_site_seven_crossing_counts():
    assert truncate(lambda_poly(_build("2 1 1 1 2")), 7) == (2, 5, 3)


# ---------------------------------------------------------------------------
# structural identities

def test_skein_relation_on_builds():
    cache = {}
    z = LaurentPoly2.monomial(1, 0, 1)
    for text in ("2", "3", "2 2", "2 1 2"):
        d = _build(text)
        p = lambda_poly(d, cache)
        for x in range(d.crossings):
            lhs = p + lambda_poly(switch(d, x), cache)
            rhs = z * (
                lambda_poly(smooth(d, x, ZERO), cache)
                + lambda_poly(smooth(d, x, INFINITY), cache)
            )
            assert lhs == rhs


def test_kink_multiplies_by_a():
    rng = random.Random(5)
    cache = {}
    for text in ("2", "3", "2 2"):
        d = _build(text)
        p = lambda_poly(d, cache)
        e = rng.randrange(len(d.mate))
        assert lambda_poly(add_curl(d, e, 1), cache) == p.shift(a_exp=1)
        assert lambda_poly(add_curl(d, e, -1), cache) == p.shift(a_exp=-1)


def test_switching_a_trefoil_crossing_collapses_it():
    # one R2 move then a -1 kink: a single power of a
    for x in range(3):
        assert lambda_poly(switch(_build("3"), x)) == _poly({(-1, 0): 1})


def test_switching_the_last_crossing_drops_degree():
    cache = {}
    for text in ("3", "2 2", "2 1 2", "4 3"):
        d = _build(text)
        q = lambda_poly(switch(d, d.crossings - 1), cache)
        assert q.max_z() <= d.crossings - 3


def test_bigon_cancellation_keeps_lambda(monkeypatch):
    # Lambda of a switched build, from the skein relation at the switched
    # crossing, against Lambda of what remove_curls leaves of it; the
    # build itself has only twist bigons, which are never cancelled
    monkeypatch.setenv("TWISTLAB_CACHE", "off")
    z = LaurentPoly2.monomial(1, 0, 1)
    for c in range(3, 8):
        for code in enumerate_standard(c):
            d = build_standard(code)
            for k in range(d.crossings):
                want = z * (
                    lambda_poly(smooth(d, k, ZERO)) + lambda_poly(smooth(d, k, INFINITY))
                ) - lambda_code(code)
                stripped, shift = remove_curls(switch(d, k))
                assert lambda_poly(stripped).shift(a_exp=shift) == want, (code, k)


def test_bigon_cancellation_bounds_the_skein_nodes(monkeypatch):
    # without cancelling Reidemeister II bigons these take 5807, 9166 and
    # 3793 nodes
    monkeypatch.setenv("TWISTLAB_CACHE", "off")
    d = _build("2 1 1 1 1 2")
    assert skein_calls(monkeypatch, lambda: lambda_poly(d)) <= 100
    assert skein_calls(monkeypatch, lambda: lambda_poly(mirror(d))) <= 100
    summed = connected_sum(_build("2 1 2"), _build("3"))
    assert skein_calls(monkeypatch, lambda: lambda_poly(summed)) <= 300


def test_walk_start_bounds_the_work_on_a_connected_sum(monkeypatch):
    # walks started where the crossing labels put them took 601 nodes
    monkeypatch.delenv("TWISTLAB_CACHE", raising=False)
    d = connected_sum(_build("2 1 1 1 2"), _build("2 1 1 1 2"))
    assert d.crossings == 14
    assert skein_calls(monkeypatch, lambda: lambda_poly(d)) <= 100


def test_engine_work_on_scrambled_builds_is_fixed(monkeypatch):
    # nodes, memo lookups and misses over every 8-crossing build and its
    # mirror, scrambled: a cheaper node must not change how many there are
    monkeypatch.delenv("TWISTLAB_CACHE", raising=False)
    calls = dict.fromkeys(("remove_curls", "canonical_key", "_traversal_entries"), 0)
    for name in calls:
        real = getattr(kauffman, name)

        def counting(d, name=name, real=real):
            calls[name] += 1
            return real(d)

        monkeypatch.setattr(kauffman, name, counting)
    serials = 0
    real_serial = diagram._bfs_serial

    def serial(*args):
        nonlocal serials
        serials += 1
        return real_serial(*args)

    monkeypatch.setattr(diagram, "_bfs_serial", serial)
    rng = random.Random(83)
    for code in enumerate_standard(8):
        for d in (build_standard(code), mirror(build_standard(code))):
            lambda_poly(_scramble(d, rng))
    # walks started where the crossing labels put them took 4278, 1920
    # and 791, walks started where they switch fewest crossings 2584,
    # 1484 and 682, and a twist step of one crossing at each miss 1642,
    # 1134 and 526; a whole twist region at each miss cuts them
    assert calls == {"remove_curls": 1222, "canonical_key": 650, "_traversal_entries": 386}
    # serializations of a crossing component: keys searched for their
    # smallest over every start took 5548; a key now serializes only
    # when it meets a key of the same invariant but another matching
    assert serials == 232


def _twist_chain(c):
    return _build(" ".join(["2"] + ["1"] * (c - 4) + ["2"]))


def test_twist_steps_bound_the_work_on_mirrors_and_sums(monkeypatch):
    # with only the walk, the mirror at 14 crossings took 113 nodes and
    # the sums up to 151
    monkeypatch.delenv("TWISTLAB_CACHE", raising=False)
    for c in range(10, 15):
        diagrams = [_twist_chain(c), mirror(_twist_chain(c))]
        diagrams += [connected_sum(_twist_chain(k), _twist_chain(c - k)) for k in range(4, c - 3)]
        for d in diagrams:
            assert d.crossings == c
            assert skein_calls(monkeypatch, lambda: lambda_poly(d)) <= 2 * c


def test_one_miss_resolves_a_whole_twist_region(monkeypatch):
    # with a twist step of one crossing at each miss these took 13, 13,
    # 13 and 18 nodes
    monkeypatch.delenv("TWISTLAB_CACHE", raising=False)
    seven = _build("7")
    for d, most in ((_build("14"), 2), (mirror(_build("14")), 2), (_build("7 7"), 4),
                    (connected_sum(seven, seven), 4)):
        assert d.crossings == 14
        assert skein_calls(monkeypatch, lambda: lambda_poly(d)) <= most


def test_twist_step_children_match_whole_diagram_excisions(monkeypatch):
    # at every twist-step node the engine meets, d0 and dc, smoothed from
    # d1, equal the reference construction: one excision of the whole
    # diagram each, x_1 together with the rest of the chain
    monkeypatch.delenv("TWISTLAB_CACHE", raising=False)
    real_excise, real_region = diagram._excise, diagram.twist_region
    bridges, steps = [], []

    def excise(d, chosen):
        bridges.append(chosen)
        return real_excise(d, chosen)

    def region(d):
        bridges.clear()
        got = real_region(d)
        if got is None:
            assert bridges == []
            return got
        k, along, children = got
        cross = ZERO if along == INFINITY else INFINITY
        rest, *smoothings = bridges
        (x1,) = smoothings[0]
        pairs = diagram._SMOOTH_PAIRS
        assert smoothings == [{x1: pairs[along]}, {x1: pairs[cross]}]
        assert rest == dict.fromkeys(rest, pairs[along]) and len(rest) == k - 1
        twisted = [c for c in range(d.crossings) if diagram._bigon_partner(d.mate, c, True) >= 0]
        assert x1 == twisted[0]
        want = [real_excise(d, rest)] + [real_excise(d, {**x, **rest}) for x in smoothings]
        assert [(g.mate, g.free_loops) for g in children] == [(g.mate, g.free_loops) for g in want]
        steps.append(k)
        return got

    monkeypatch.setattr(diagram, "_excise", excise)
    monkeypatch.setattr(kauffman, "twist_region", region)
    rng = random.Random(29)
    builds = [build_standard(code) for c in range(3, 11) for code in enumerate_standard(c)]
    builds += [pretzel(*t) for t in ((2, 2, 2), (3, 3, 3), (4, 3, 5), (2, 1, 3, 2), (5, 2))]
    for d in builds:
        for e in (d, mirror(d)):
            lambda_poly(_scramble(e, rng))
    assert len(steps) > len(builds) and max(steps) >= 5
    steps.clear()
    for n in range(3, 7):
        assert real_region(_scramble(turks_head(n), rng)) is None
        lambda_poly(_scramble(turks_head(n), rng))
    assert steps  # the walk's smoothings leave twist bigons


def test_walk_bounds_the_work_on_twist_free_diagrams(monkeypatch):
    # closed 3-braids (s1 s2^-1)^n have no twist bigon, so every miss
    # walks.  Walks started only forward took 127 nodes on n = 7, walks
    # in plain ``_walks`` order 148 and 102, and components taken in
    # ``_walks`` order 88 on the sum
    monkeypatch.delenv("TWISTLAB_CACHE", raising=False)
    seven = turks_head(7)
    summed = connected_sum(turks_head(3), turks_head(4))
    for d, most in ((seven, 108), (summed, 73)):
        assert d.crossings == 14 and diagram.twist_region(d) is None
        assert skein_calls(monkeypatch, lambda: lambda_poly(d)) <= most


def test_twist_free_diagrams_mirror_and_relabel():
    rng = random.Random(3)
    for n in range(3, 8):
        d = turks_head(n)
        p = lambda_poly(d)
        assert lambda_poly(mirror(d)) == p.mirror_a()
        assert lambda_poly(_scramble(d, rng)) == p


def test_twist_free_borromean_rings_take_the_walk(monkeypatch):
    # the root node smooths, in order, every crossing its walk first
    # meets going under; a twist region step would smooth none
    d = parse_pd(BORROMEAN)
    assert remove_curls(d) == (d, 0)
    assert diagram.twist_region(d) is None
    met, under_first = set(), []
    for e in (e for walk in diagram._traversal_entries(d) for e in walk):
        if e >> 2 not in met and not e & 1:
            under_first.append(e >> 2)
        met.add(e >> 2)
    depth, root = [0], []
    real_resolve, real_smooth = kauffman._resolve, kauffman.smooth

    def resolving(sub, cache):
        depth[0] += 1
        try:
            return real_resolve(sub, cache)
        finally:
            depth[0] -= 1

    def smoothing(base, c, mode):
        if depth[0] == 1:
            root.append((c, mode))
        return real_smooth(base, c, mode)

    monkeypatch.setattr(kauffman, "_resolve", resolving)
    monkeypatch.setattr(kauffman, "smooth", smoothing)
    lambda_poly(d)
    assert len(under_first) > 1
    assert root == [(c, mode) for c in under_first for mode in (ZERO, INFINITY)]


def test_lambda_digest_is_the_walk_engine_value():
    # read at c0abaea, where the skein engine only walks, by running
    #   PYTHONPATH=src:tests python3 -c 'import test_kauffman as t; print(t.lambda_digest())'
    # from the root of a checkout of that commit with this file copied
    # into its tests/
    assert lambda_digest() == "a8236f2ad0090148dfe884008b759d5820478217928ea60058306a9e4e542499"


def test_pretzel_digest_is_the_twist_step_value():
    # read at d410a90, where a skein miss resolves one twist crossing, by
    # running
    #   PYTHONPATH=src:tests python3 -c 'import test_kauffman as t; print(t.pretzel_digest())'
    # from the root of a checkout of that commit with this file copied
    # into its tests/
    assert pretzel_digest() == "18c359d1d9df23e5e6060e875cbbd62e28d7b64352c00ccd1b98b93c460e379d"


def test_twist_free_digest_pins_the_descending_tail():
    # read at 7880708, where the walk read each self-crossing's sign off
    # the walk itself, by running
    #   PYTHONPATH=src:tests python3 -c 'import test_kauffman as t; print(t.twist_free_digest())'
    # from the root of a checkout of that commit with this file copied
    # into its tests/.  The mirror and relabel test checks symmetries of
    # these diagrams; this pins their values
    assert twist_free_digest() == "7acc7fe35f54eb08eaa1dcc54e6a733daad1fc1ac563335c29696dc46818ba20"


def test_scrambled_and_mirrored_builds_match_the_transfer_walk():
    rng = random.Random(29)
    for c in range(2, 10):
        for code in enumerate_standard(c):
            scrambled = parse_pd(to_pd(_scramble(build_standard(code), rng)))
            p = lambda_code(code)
            assert lambda_poly(scrambled) == p, code
            assert lambda_poly(mirror(scrambled)) == p.mirror_a(), code


def test_standard_builds_have_the_fraction_numerator_as_determinant():
    # an oracle outside both engines: the determinant of a rational
    # link is the numerator of its continued fraction
    for c in range(2, 11):
        for code in enumerate_standard(c):
            p = continued_fraction(code).numerator
            assert determinant_squared(lambda_code(code)) == (p * p, 0, 0, 0), code


def test_a_reversed_code_has_the_same_or_the_mirrored_polynomial():
    # read backwards a code names the same rational link (Schubert); an
    # even number of sites puts every site on the other axis, the mirror
    counts = {0: 0, 1: 0}
    for c in range(2, 13):
        for code in enumerate_standard(c):
            p = lambda_code(code)
            reversed_p = lambda_code(ConwayCode(code.entries[::-1]))
            assert reversed_p == (p if code.sites % 2 else p.mirror_a()), code
            counts[code.sites % 2] += 1
    assert counts == {0: 511, 1: 513}


def test_scrambled_mirrors_have_the_fraction_numerator_as_determinant():
    rng = random.Random(6)
    for c in range(2, 9):
        for code in enumerate_standard(c):
            p = continued_fraction(code).numerator
            d = _scramble(mirror(build_standard(code)), rng)
            assert determinant_squared(lambda_poly(d)) == (p * p, 0, 0, 0), code


def test_turks_heads_have_the_wheel_spanning_tree_count_as_determinant():
    # the Tait graph of turks_head(n) is the wheel W_n, which has
    # L_2n - 2 spanning trees, L the Lucas numbers; these values come
    # from the skein engine's descending walk, with no transfer walk
    lucas = [2, 1]
    while len(lucas) <= 12:
        lucas.append(lucas[-1] + lucas[-2])
    for n in range(3, 7):
        trees = lucas[2 * n] - 2
        assert determinant_squared(lambda_poly(turks_head(n))) == (trees * trees, 0, 0, 0), n


def test_lambda_at_the_bracket_point_is_the_state_sum():
    # Lambda(a = -A^3, z = A + 1/A) is the Kauffman bracket (Kauffman,
    # "State models and the Jones polynomial", Topology 26, 1987); both
    # sides are taken times (A + 1/A)^N to clear z^-1.  The twist-free
    # Turk's heads and their switchings take the walk, so the walk's
    # values are checked against something other than a digest
    rng = random.Random(43)
    pool = [code for c in range(3, 11) for code in enumerate_standard(c)]
    diagrams = []
    for code in rng.sample(pool, 40):
        d = build_standard(code)
        for c in rng.sample(range(d.crossings), rng.randrange(d.crossings)):
            d = switch(d, c)
        diagrams += [d, mirror(d)]
    for n in (3, 4, 5):
        d = turks_head(n)
        diagrams += [d] + [switch(d, c) for c in range(d.crossings)]
    diagrams += random_diagrams(40, seed=47)
    z = {1: 1, -1: 1}
    for d in diagrams:
        p = lambda_poly(d)
        n = max(0, -min(z_exp for _, z_exp, _ in p.terms()))
        value: dict[int, int] = {}
        for a_exp, z_exp, coeff in p.terms():
            for e, c in a_power(z, z_exp + n).items():
                k = 3 * a_exp + e
                value[k] = value.get(k, 0) + (-coeff if a_exp % 2 else coeff) * c
        assert {e: c for e, c in value.items() if c} == a_mul(bracket(d), a_power(z, n)), d


def test_lambda_is_a_mutation_invariant():
    # permuting the columns of a pretzel is a Conway mutation, which no
    # value of Lambda sees; most permutations give diagrams of different
    # canonical keys, so a memo that took two of them for one would show.
    # Pretzels resolve by twist regions alone, so the two walk mutants
    # of the skein engine are out of this test's reach
    rng = random.Random(61)
    groups = []
    while len(groups) < 40:
        cols = [rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(rng.randint(4, 5))]
        if sum(map(abs, cols)) <= 12:
            groups.append(cols)
    for cols in groups:
        values = {lambda_poly(signed_pretzel(p)) for p in set(itertools.permutations(cols))}
        assert len(values) == 1, cols


_Z = LaurentPoly2.monomial(1, 0, 1)
_A = LaurentPoly2.monomial(1, 1, 0)
_A_INV = LaurentPoly2.monomial(1, -1, 0)


def _horizontal_relation(h, x, v):
    """hH + xX + vV after H -> X, X -> -H + zX + zaV, V -> aV, as (h, x, v)."""
    return -x, h + _Z * x, _Z * _A * x + _A * v


def _vertical_relation(h, x, v):
    """hH + xX + vV after V -> X, X -> -V + zX + z/a H, H -> H/a, as (h, x, v)."""
    return _A_INV * h + _Z * _A_INV * x, v + _Z * x, -x


def _random_poly(rng):
    terms = {}
    for _ in range(rng.randrange(5)):
        terms[rng.randint(-3, 3), rng.randint(-2, 3)] = rng.randint(-4, 4)
    return LaurentPoly2(terms)


def test_one_twist_step_turned_is_the_vertical_relation():
    # the one step serves a vertical site in the diagonally reflected frame
    rng = random.Random(24)
    for _ in range(300):
        h, x, v = (_random_poly(rng) for _ in range(3))
        assert kauffman._twist(h, x, v, 1) == _horizontal_relation(h, x, v)
        v2, x2, h2 = kauffman._twist(v, x, h, -1)
        assert (h2, x2, v2) == _vertical_relation(h, x, v)


@pytest.mark.parametrize("along, e", [(INFINITY, 1), (ZERO, -1)])
def test_twist_coefficients_follow_the_docstring_recurrences(along, e):
    zero, one = LaurentPoly2(), LaurentPoly2.monomial(1)
    p, q, r = [zero, one], [one, zero], [zero, zero]
    for j in range(2, MAX_SKEIN_CROSSINGS + 1):
        p.append(_Z * p[-1] - p[-2])
        q.append(_Z * q[-1] - q[-2])
        r.append(_Z * r[-1] - r[-2] + LaurentPoly2.monomial(1, e * (j - 1), 1))
    rows = kauffman._TWISTS[along]
    assert type(rows) is tuple and len(rows) == MAX_SKEIN_CROSSINGS
    for k in range(1, MAX_SKEIN_CROSSINGS + 1):
        assert rows[k - 1] == (q[k], p[k], r[k]), k


def test_a_patched_twist_step_leaves_the_skein_engine_as_it_was():
    # a fresh interpreter, so no earlier call has built any twist
    # coefficients: the step patched for one skein evaluation, an extra
    # a^e on far, must not reach a later one once it is undone
    script = "\n".join([
        "from twistlab import kauffman",
        "from twistlab.diagram import build_standard",
        "from twistlab.notation import parse_conway",
        "code = parse_conway('14')",
        "step = kauffman._twist",
        "def patched(near, x, far, e):",
        "    near, x, far = step(near, x, far, e)",
        "    return near, x, far.shift(a_exp=e)",
        "kauffman._twist = patched",
        "kauffman.lambda_poly(build_standard(code))",
        "kauffman._twist = step",
        "assert kauffman.lambda_poly(build_standard(code)) == kauffman.lambda_code(code)",
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_mirror_substitutes_a_inverse():
    cache = {}
    for text in ("3", "2 2", "2 1 1 1 2"):
        d = _build(text)
        assert lambda_poly(mirror(d), cache) == lambda_poly(d, cache).mirror_a()


def test_mirrored_hopf_has_the_same_polynomial():
    hopf = _build("2")
    assert lambda_poly(mirror(hopf)) == lambda_poly(hopf)


def test_connected_sum_multiplies():
    cache = {}
    pairs = (("2", "2"), ("3", "2 2"), ("2 1 2", "3"))
    for t1, t2 in pairs:
        d1, d2 = _build(t1), _build(t2)
        s = connected_sum(d1, d2)
        assert lambda_poly(s, cache) == lambda_poly(d1, cache) * lambda_poly(d2, cache)


def test_unknot_summand_keeps_lambda():
    hopf = _build("2")
    assert lambda_poly(connected_sum(unlink(1), hopf)) == lambda_poly(hopf)


def test_parity_and_degree_bounds():
    cache = {}
    for c in range(2, 8):
        for code in enumerate_standard(c):
            p = lambda_poly(build_standard(code), cache)
            assert p.max_z() == c - 1
            assert p.max_weight() <= c
            assert all((a + z - c) % 2 == 0 for a, z, _ in p.terms())


# ---------------------------------------------------------------------------
# reduction behaviour

def test_extra_crossings_shift_top_rows():
    cache = {}
    p43 = lambda_poly(_build("4 3"), cache)
    p22 = lambda_poly(_build("2 2"), cache)
    for offset in (1, 2):
        assert p43.z_row(7 - offset) == p22.z_row(4 - offset)
    p5 = lambda_poly(_build("5"), cache)
    p3 = lambda_poly(_build("3"), cache)
    for offset in (1, 2):
        assert p5.z_row(5 - offset) == p3.z_row(3 - offset)


# ---------------------------------------------------------------------------
# truncation errors

def test_truncate_rejects_wrong_top_row():
    with pytest.raises(TopDegreeMismatchError):
        truncate(delta_unlink(), 2)
    with pytest.raises(TopDegreeMismatchError):
        truncate(LaurentPoly2.monomial(1), 1)
    # connected sums fall one z short of the bound
    s = connected_sum(_build("2 2"), _build("2"))
    with pytest.raises(TopDegreeMismatchError):
        truncate(lambda_poly(s), s.crossings)


def test_truncate_rejects_stray_exponents():
    p = _poly({(1, 3): 1, (-1, 3): 1, (4, 2): 1})
    with pytest.raises(TopDegreeMismatchError):
        truncate(p, 4)
    q = _poly({(1, 3): 1, (-1, 3): 1, (0, 2): -1})
    with pytest.raises(TopDegreeMismatchError):
        truncate(q, 4)


def test_truncate_rejects_excess_degree():
    p = _poly({(0, 5): 1})
    with pytest.raises(TopDegreeMismatchError):
        truncate(p, 4)


# ---------------------------------------------------------------------------
# caching

def test_cache_off_gives_identical_values(monkeypatch):
    d = _build("2 1 2")
    with_cache = lambda_poly(d)
    monkeypatch.setenv("TWISTLAB_CACHE", "off")
    assert lambda_poly(d) == with_cache


def test_only_off_turns_the_memo_off(monkeypatch):
    monkeypatch.setenv("TWISTLAB_CACHE", "0")
    memo = {}
    lambda_poly(_build("2 1 2"), memo)
    assert memo


def test_cache_off_leaves_a_passed_dict_empty(monkeypatch):
    monkeypatch.setenv("TWISTLAB_CACHE", "off")
    memo = {}
    assert lambda_poly(_build("2 1 2"), memo) == lambda_poly(_build("2 1 2"))
    assert memo == {}


def test_shared_cache_gives_identical_values(monkeypatch):
    monkeypatch.delenv("TWISTLAB_CACHE", raising=False)
    cache = {}
    for text in ("3", "2 2", "3", "2 2"):
        assert lambda_poly(_build(text), cache) == lambda_poly(_build(text))
    assert cache  # the shared dict actually accumulated entries


def test_randomized_diagrams_agree_without_cache(monkeypatch):
    diagrams = random_diagrams(12, seed=99)
    cached = [lambda_poly(d) for d in diagrams]
    monkeypatch.setenv("TWISTLAB_CACHE", "off")
    plain = [lambda_poly(d) for d in diagrams]
    assert cached == plain


def test_names_the_benchmark_tracer_wraps_exist():
    # perfbench/spans.py wraps these by name, and a renamed one would
    # otherwise show only when the benchmark runs; its tables are read
    # from the source, not imported
    tree = ast.parse((SRC.parent / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    tables = {
        t.id: ast.literal_eval(node.value)
        for node in tree.body if isinstance(node, ast.Assign)
        for t in node.targets if t.id in ("_PRIVATE", "_ONLY", "_LAURENT")
    }
    assert len(tables) == 3
    for layer, names in {**tables["_PRIVATE"], **tables["_ONLY"]}.items():
        module = importlib.import_module(f"twistlab.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    for attr in tables["_LAURENT"]:
        assert callable(LaurentPoly2.__dict__.get(attr)), attr
