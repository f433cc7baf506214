"""Diagram combinatorics: builds, moves, keys, and planar diagram codes."""

from __future__ import annotations

import functools
import hashlib
import json
import random

import pytest

from twistlab import diagram
from twistlab.diagram import (
    INFINITY,
    ZERO,
    DiagramError,
    LinkDiagram,
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
    unlink,
)
from twistlab.notation import enumerate_standard, parse_conway, continued_fraction

from helpers import (
    DATA,
    add_curl,
    all_splices,
    pretzel,
    random_diagrams,
    reference_key,
    relabel,
    turks_head,
)


def _build(text):
    return build_standard(parse_conway(text))


# ---------------------------------------------------------------------------
# construction

def test_build_counts():
    hopf = _build("2")
    assert hopf.crossings == 2 and components(hopf) == 2
    tre = _build("3")
    assert tre.crossings == 3 and components(tre) == 1
    f8 = _build("2 2")
    assert f8.crossings == 4 and components(f8) == 1


def test_builds_are_alternating_and_curl_free():
    # every bigon of an alternating diagram is a twist bigon, which
    # remove_curls must keep
    for c in range(2, 9):
        for code in enumerate_standard(c):
            for d in (build_standard(code), mirror(build_standard(code))):
                assert d.crossings == code.crossings
                assert is_alternating(d)
                stripped, shift = remove_curls(d)
                assert shift == 0 and stripped == d


def test_component_count_follows_fraction_parity():
    # the closure is a two-bridge link: two components iff the fraction
    # numerator is even
    for c in range(2, 9):
        for code in enumerate_standard(c):
            want = 2 if continued_fraction(code).numerator % 2 == 0 else 1
            assert components(build_standard(code)) == want


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def _build_mates() -> list:
    """The matching of every standard build of 2 to 12 crossings."""
    return [build_standard(code).mate for c in range(2, 13) for code in enumerate_standard(c)]


def _walk_cases(count=150, seed=4099, max_crossings=7) -> list:
    """Seeded diagrams, each with every switch and smoothing."""
    out = []
    for d in random_diagrams(count, seed=seed, max_crossings=max_crossings):
        out.append(d)
        for x in range(d.crossings):
            out += [switch(d, x), smooth(d, x, ZERO), smooth(d, x, INFINITY)]
    return out


def _walk_outputs(cases) -> list:
    """Component count, alternation and self-crossing signs of each case."""
    return [
        (components(e), is_alternating(e), sorted(diagram._self_crossing_signs(e).items()))
        for e in cases
    ]


# The first two digests were read in a checkout of commit 5b0960d with
# this file copied into its tests/:  PYTHONPATH=src:tests python -c
# "import test_diagram as t; print(t._digest(t._build_mates()),
# t._digest(t._walk_outputs(t._walk_cases())))".  The traversal digest
# was read when walks began to start at the base point that switches
# the fewest crossings.

def test_standard_build_matchings_are_pinned():
    assert _digest(_build_mates()) == (
        "a5c51a06aa56a4fd9babca062a5cb085b75d29d54fb5456e50a2e37f5767a468"
    )


def test_walk_helper_outputs_are_pinned():
    cases = _walk_cases()
    assert len(cases) == 2745
    assert _digest(_walk_outputs(cases)) == (
        "9311323685cf56108f8ec0022dcd9aad67ba0173bf3860b44691a0da169b8c0d"
    )
    assert _digest([diagram._traversal_entries(e) for e in cases]) == (
        "021e49d87441b2409f3d796a1dd656d397e901d346f68492cdde715b6a267d68"
    )


def _under_first(walks) -> int:
    """Crossings that walks, taken in order, first meet on the under strand."""
    seen, count = set(), 0
    for w in walks:
        for e in w:
            if e >> 2 not in seen:
                seen.add(e >> 2)
                count += not e & 1
    return count


def test_traversal_is_a_closed_walk_that_switches_fewest():
    for e in _walk_cases(120, seed=61, max_crossings=9):
        walks = diagram._traversal_entries(e)
        # each crossing's under and over passage, once
        passages = sorted(f & ~2 for w in walks for f in w)
        assert passages == [b + k for b in range(0, len(e.mate), 4) for k in (0, 1)]
        for w in walks:
            assert all(e.mate[f ^ 2] == w[(i + 1) % len(w)] for i, f in enumerate(w))
        if len(walks) == 1:
            # every endpoint starts one walk in one direction
            every = []
            for f0 in range(len(e.mate)):
                w, f = [f0], e.mate[f0 ^ 2]
                while f != f0:
                    w.append(f)
                    f = e.mate[f ^ 2]
                every.append(_under_first([w]))
            assert _under_first(walks) == min(every)


def test_unlink_and_validation():
    assert components(unlink(3)) == 3
    assert unlink(0).crossings == 0
    with pytest.raises(DiagramError):
        LinkDiagram((1, 0, 3), 0)  # not a multiple of four
    with pytest.raises(DiagramError):
        LinkDiagram((0, 1, 3, 2), 0)  # fixed point
    with pytest.raises(DiagramError, match="matched out of range: True"):
        LinkDiagram((True, False, 3, 2))
    # crossing 1 joins opposite slots: two circles that cross once, which
    # no plane diagram has; Lambda of it would have z^-2 terms
    with pytest.raises(DiagramError, match="no plane embedding"):
        LinkDiagram((1, 0, 3, 2, 6, 7, 4, 5))


def test_matching_must_be_a_list_or_tuple():
    for bad in (None, 5, "1032", {0: 1, 1: 0, 2: 3, 3: 2}):
        with pytest.raises(DiagramError, match="a matching is a list or tuple"):
            LinkDiagram(bad)
    assert LinkDiagram([1, 0, 3, 2]) == LinkDiagram((1, 0, 3, 2))


def test_fields_are_read_only_however_the_diagram_was_made():
    # a write would skip the validator: this matching has no plane
    # embedding and a negative loop count would index the delta table
    # from its far end
    made = {
        "constructor": LinkDiagram((1, 0, 3, 2), 1),
        "parse_pd": parse_pd([[1, 2, 2, 1]]),
        "_excise": diagram._excise(_build("3"), {0: diagram._SMOOTH_PAIRS[ZERO]}),
    }
    for how, d in made.items():
        mate, loops = d.mate, d.free_loops
        for name, value in (("mate", (1, 0, 3, 2, 6, 7, 4, 5)), ("free_loops", -1)):
            with pytest.raises(AttributeError):
                setattr(d, name, value)
            with pytest.raises(AttributeError):
                delattr(d, name)
        assert (d.mate, d.free_loops) == (mate, loops), how


def test_crossings_are_ints_not_bools():
    tre = _build("3")
    with pytest.raises(DiagramError, match="no crossing True"):
        smooth(tre, True, ZERO)
    with pytest.raises(DiagramError, match="no crossing True"):
        switch(tre, True)


def test_loop_counts_must_be_nonnegative_ints():
    for bad in (1.5, "x", True, -1):
        with pytest.raises(DiagramError):
            LinkDiagram((), bad)
        with pytest.raises(DiagramError):
            unlink(bad)


# ---------------------------------------------------------------------------
# smoothings

def test_trefoil_axial_smoothing_is_hopf():
    tre = _build("3")
    hopf = _build("2")
    for x in range(3):
        assert smooth(tre, x, INFINITY) == hopf


def test_trefoil_cross_sectional_smoothing_leaves_two_positive_curls():
    tre = _build("3")
    for x in range(3):
        d, shift = remove_curls(smooth(tre, x, ZERO))
        assert shift == 2
        assert d.crossings == 0 and d.free_loops == 1


def test_smoothing_singleton_site_axially_merges_neighbours():
    d = _build("2 1 1 1 2")
    # crossing 4 is the singleton at site 3, a vertical site, so the zero
    # smoothing runs along its axis
    assert smooth(d, 4, ZERO) == _build("2 1 3")


def test_smoothing_singleton_site_crosswise_gives_a_splice():
    d = _build("2 1 1 1 2")
    cut = smooth(d, 4, INFINITY)
    stripped, shift = remove_curls(cut)
    assert shift == 0
    assert any(s == stripped for s in all_splices(_build("2 2"), _build("2")))


def test_smoothing_a_kink_parallel_to_its_arc_frees_a_circle():
    d = smooth(_build("2"), 0, ZERO)  # one crossing with a +1 kink
    assert d.crossings == 1
    assert remove_curls(d) == (unlink(1), 1)
    dd = smooth(d, 0, ZERO)
    assert dd.crossings == 0 and dd.free_loops == 2
    assert components(dd) == 2


def test_smooth_changes_components_by_at_most_one():
    rng = random.Random(7)
    for c in range(2, 8):
        for code in enumerate_standard(c):
            d = build_standard(code)
            x = rng.randrange(d.crossings)
            for mode in (ZERO, INFINITY):
                assert abs(components(smooth(d, x, mode)) - components(d)) <= 1


def test_smooth_rejects_bad_input():
    d = _build("2")
    with pytest.raises(DiagramError, match="no crossing 2 in"):
        smooth(d, 2, ZERO)
    with pytest.raises(DiagramError):
        smooth(d, 0, "sideways")


# ---------------------------------------------------------------------------
# switch and mirror

def test_switch_is_an_involution_and_keeps_counts():
    for text in ("2", "3", "2 1 2"):
        d = _build(text)
        for x in range(d.crossings):
            s = switch(d, x)
            assert s.crossings == d.crossings
            assert components(s) == components(d)
            assert switch(s, x) == d
            assert s != d


def test_switch_breaks_alternation():
    assert not is_alternating(switch(_build("3"), 1))
    assert not is_alternating(switch(_build("2"), 0))


def test_mirror_is_an_involution():
    for text in ("2", "2 2", "2 1 1 1 2"):
        d = _build(text)
        m = mirror(d)
        assert mirror(m) == d
        assert components(m) == components(d)
        assert is_alternating(m)


def test_mirror_of_chiral_build_is_a_different_diagram():
    tre = _build("3")
    assert mirror(tre) != tre


def test_mirrored_clasp_is_the_same_diagram():
    # the unoriented clasp is its own mirror image: relabel one crossing
    # by a half turn and the tables coincide
    hopf = _build("2")
    assert mirror(hopf) == hopf


# ---------------------------------------------------------------------------
# writhe

def test_self_writhe_values():
    assert self_writhe(_build("2")) == 0  # no self-crossings in a 2-link
    assert self_writhe(_build("3")) == -3
    assert self_writhe(mirror(_build("3"))) == 3
    assert self_writhe(switch(_build("3"), 0)) == -1


def test_self_writhe_flips_under_mirror():
    for text in ("3", "2 2", "2 1 2", "2 1 1 1 2"):
        d = _build(text)
        assert self_writhe(mirror(d)) == -self_writhe(d)


# ---------------------------------------------------------------------------
# curls

def test_remove_curls_finds_inserted_kinks():
    rng = random.Random(11)
    for text in ("2", "3", "2 2"):
        d = _build(text)
        total = 0
        kinked = d
        for _ in range(3):
            sign = rng.choice([1, -1])
            total += sign
            kinked = add_curl(kinked, rng.randrange(len(kinked.mate)), sign)
        stripped, shift = remove_curls(kinked)
        assert shift == total
        assert stripped == d


def test_remove_curls_on_clean_diagram():
    d = _build("2 2")
    assert remove_curls(d) == (d, 0)


def test_switched_clasp_cancels_to_an_unlink():
    assert remove_curls(switch(_build("2"), 0)) == (unlink(2), 0)


def test_remove_curls_excises_disjoint_kinks_in_one_pass(monkeypatch):
    # kinks on distinct arcs of a curl-free build share no crossing, so
    # the first pass removes them all and the second finds nothing
    calls = []
    real = diagram._excise

    def counting(d, *args):
        calls.append(args)
        return real(d, *args)

    monkeypatch.setattr(diagram, "_excise", counting)
    rng = random.Random(23)
    for text in ("3", "2 2", "2 1 2"):
        d = _build(text)
        arcs = sorted(e for e in range(len(d.mate)) if e < d.mate[e])
        for k in (2, 3, 4):
            kinked, total = d, 0
            for e in rng.sample(arcs, k):
                sign = rng.choice([1, -1])
                total += sign
                kinked = add_curl(kinked, e, sign)
            calls.clear()
            stripped, shift = remove_curls(kinked)
            assert len(calls) == 1, (text, k)
            assert sorted(calls[0][0]) == list(range(d.crossings, d.crossings + k))
            assert (stripped, shift) == (d, total)


def test_one_excision_counts_every_closed_chain():
    # both crossings of a switched clasp: two circles, each chain running
    # through both removed crossings
    clasp = switch(_build("2"), 0)
    assert diagram._excise(clasp, {0: diagram._STRAIGHT, 1: diagram._STRAIGHT}) == unlink(2)
    # a 2-crossing unlink of two kinked circles, beside one free circle
    two = LinkDiagram((1, 0, 3, 2, 5, 4, 7, 6), 1)
    for mode, loops in ((INFINITY, 3), (ZERO, 5)):
        pairs = diagram._SMOOTH_PAIRS[mode]
        assert diagram._excise(two, {0: pairs, 1: pairs}) == unlink(loops)


def test_one_excision_equals_successive_smoothings():
    rng = random.Random(29)
    for d in random_diagrams(40, seed=31):
        chosen = rng.sample(range(d.crossings), rng.randrange(1, d.crossings + 1))
        modes = {c: rng.choice([ZERO, INFINITY]) for c in chosen}
        one = diagram._excise(d, {c: diagram._SMOOTH_PAIRS[m] for c, m in modes.items()})
        step = d
        for c in sorted(chosen, reverse=True):  # lower crossings keep their numbers
            step = smooth(step, c, modes[c])
        assert (one.mate, one.free_loops) == (step.mate, step.free_loops)


def test_internal_diagrams_are_valid_matchings():
    # the engine's builders skip validation, so the public constructor,
    # plane check included, must accept everything they make; a pd code
    # holds no free loop, so the loops are dropped before to_pd
    rng = random.Random(37)
    modes = (diagram._SMOOTH_PAIRS[ZERO], diagram._SMOOTH_PAIRS[INFINITY])
    pool = random_diagrams(60, seed=41)
    for d in pool:
        perm = list(range(d.crossings))
        rng.shuffle(perm)
        pd = to_pd(mirror(relabel(LinkDiagram(d.mate), perm, [rng.choice([0, 2]) for _ in perm])))
        labels = sorted({x for row in pd for x in row})
        fresh = [7 * x for x in labels] + [f"a{x}" for x in labels]
        names = dict(zip(labels, rng.sample(fresh, len(labels))))
        parsed = parse_pd([[names[x] for x in row] for row in pd])
        assert (parsed.crossings, parsed.free_loops) == (d.crossings, 0)
        other = rng.choice(pool + [unlink(1), unlink(2)])
        made = [mirror(d), remove_curls(d)[0], parsed, connected_sum(d, other),
                connected_sum(other, d)]
        for c in range(d.crossings):
            made += [smooth(d, c, ZERO), smooth(d, c, INFINITY), switch(d, c)]
        chosen = rng.sample(range(d.crossings), rng.randrange(1, d.crossings + 1))
        made.append(diagram._excise(d, {c: rng.choice(modes) for c in chosen}))
        made.append(remove_curls(diagram._rotate_crossings(d, chosen))[0])
        region = diagram.twist_region(d)
        if region is not None:
            made += region[2]
        for r in made:
            LinkDiagram(r.mate, r.free_loops)
    # a straight bridge alone makes a virtual crossing, which only the
    # Reidemeister II excision's pair of them avoids
    lone = diagram._excise(_build("3"), {0: diagram._STRAIGHT})
    with pytest.raises(DiagramError, match="no plane embedding"):
        LinkDiagram(lone.mate, lone.free_loops)


def test_twist_region_takes_the_whole_twist():
    # a closed twist is taken whole and a pretzel column is one region;
    # the children keep one crossing of it or none, and a mirror turns
    # the twist the other way
    for d, k, along in ((_build("7"), 7, INFINITY), (mirror(_build("7")), 7, ZERO),
                        (pretzel(4, 3, 5), 4, ZERO), (mirror(pretzel(4, 3, 5)), 4, INFINITY)):
        got, got_along, children = diagram.twist_region(d)
        assert (got, got_along) == (k, along)
        assert [x.crossings for x in children] == [d.crossings - k + 1] + [d.crossings - k] * 2
    assert diagram.twist_region(unlink(1)) is None


def test_bigon_cancellation_ignores_crossing_labels():
    rng = random.Random(17)
    for c in range(3, 8):
        for code in enumerate_standard(c):
            d = build_standard(code)
            for k in range(d.crossings):
                s = switch(d, k)
                stripped, shift = remove_curls(s)
                perm = list(range(s.crossings))
                rng.shuffle(perm)
                rots = [rng.choice([0, 2]) for _ in perm]
                other, other_shift = remove_curls(relabel(s, perm, rots))
                assert other_shift == shift
                assert canonical_key(other) == canonical_key(stripped), (code, k)


def test_single_kink_on_unknot():
    # a one-crossing unknot: slots 0-1 and 2-3 joined
    ring = LinkDiagram((1, 0, 3, 2))
    assert remove_curls(ring) == (unlink(1), 1)
    ringneg = LinkDiagram((3, 2, 1, 0))
    assert remove_curls(ringneg) == (unlink(1), -1)


# ---------------------------------------------------------------------------
# connected sum

def test_connected_sum_counts():
    a, b = _build("2 2"), _build("2")
    s = connected_sum(a, b)
    assert s.crossings == a.crossings + b.crossings
    assert components(s) == components(a) + components(b) - 1


def test_connected_sum_unknot_is_identity():
    hopf = _build("2")
    assert connected_sum(unlink(1), hopf) == hopf
    assert connected_sum(hopf, unlink(1)) == hopf
    assert connected_sum(unlink(2), unlink(2)) == unlink(3)


def test_connected_sum_rejects_empty():
    with pytest.raises(DiagramError, match="cannot sum with an empty diagram"):
        connected_sum(unlink(0), _build("2"))


# ---------------------------------------------------------------------------
# canonical keys

def test_canonical_key_ignores_crossing_labels():
    rng = random.Random(3)
    for text in ("3", "2 2", "2 1 2", "2 1 1 1 2"):
        d = _build(text)
        key = canonical_key(d)
        for _ in range(5):
            perm = list(range(d.crossings))
            rng.shuffle(perm)
            rots = [rng.choice([0, 2]) for _ in range(d.crossings)]
            assert canonical_key(relabel(d, perm, rots)) == key


def test_canonical_key_separates_links():
    keys = {
        canonical_key(d)
        for d in (
            _build("2"),
            switch(_build("2"), 0),
            _build("3"),
            mirror(_build("3")),
            _build("2 2"),
        )
    }
    assert len(keys) == 5


def _split_pds():
    hopf = to_pd(_build("2"))
    trefoil, mirrored = (
        [[x + 10 for x in row] for row in to_pd(t)] for t in (_build("3"), mirror(_build("3")))
    )
    return hopf + trefoil, trefoil + hopf, hopf + mirrored


def test_split_diagram_keys_ignore_component_order():
    a, b, c = (canonical_key(parse_pd(pd)) for pd in _split_pds())
    assert a == b
    assert a != c


def _union(d1, d2):
    """The split diagram of d1 and d2 side by side."""
    off = len(d1.mate)
    return LinkDiagram(d1.mate + tuple(m + off for m in d2.mate), d1.free_loops + d2.free_loops)


def test_canonical_key_agrees_with_the_unpruned_reference():
    # two keys are equal exactly when their reference keys are, and then
    # hash alike.  The hashed invariant sees faces, not which strand is
    # over: the Borromean rings have only triangles, so all 64 ways of
    # switching some of their crossings share it, and only the
    # isomorphism test tells them apart
    rng = random.Random(43)
    builds = [build_standard(code) for c in range(2, 7) for code in enumerate_standard(c)]
    base = random_diagrams(80, seed=47) + [parse_pd(pd) for pd in _split_pds()]
    base += [d for b in builds for d in (b, mirror(b))]
    base += [_union(a, m) for a in builds[:4] for b in builds[:4] for m in (b, mirror(b))]
    rings = turks_head(3)
    for mask in range(64):
        base.append(functools.reduce(switch, (c for c in range(6) if mask >> c & 1), rings))
    pool = []
    for d in base:
        perm = list(range(d.crossings))
        rng.shuffle(perm)
        rots = [rng.choice([0, 2]) for _ in perm]
        pool += [d, relabel(d, perm, rots)]
    keys = [canonical_key(d) for d in pool]
    refs = [reference_key(d) for d in pool]
    met = 0
    for k1, r1 in zip(keys, refs):
        for k2, r2 in zip(keys, refs):
            assert (k1 == k2) == (r1 == r2)
            if k1 == k2:
                assert hash(k1) == hash(k2)
            elif k1.invariant == k2.invariant:
                met += 1
    assert met and len(set(keys)) < len(pool)


def test_free_loops_enter_the_key():
    d = _build("2")
    plus = LinkDiagram(d.mate, 1)
    assert plus != d


# ---------------------------------------------------------------------------
# planar diagram codes

def test_pd_round_trip():
    for text in ("2", "3", "2 2", "2 1 1 1 2"):
        d = _build(text)
        assert parse_pd(to_pd(d)) == d


def test_to_pd_refuses_free_loops():
    # a pd code has no way to write a free circle
    for d in (LinkDiagram(_build("3").mate, 2), unlink(3)):
        with pytest.raises(DiagramError, match="free loops"):
            to_pd(d)


def test_pd_labels_appear_twice():
    pd = to_pd(_build("2 2"))
    flat = [x for row in pd for x in row]
    assert sorted(set(flat)) == list(range(1, 9))
    assert all(flat.count(x) == 2 for x in set(flat))


PD_TYPE = "a pd code is a list of crossings"


def test_parse_pd_errors():
    with pytest.raises(DiagramError, match="arc labels, wanted 4"):
        parse_pd([[1, 2, 3]])
    with pytest.raises(DiagramError, match="appears only once"):
        parse_pd([[1, 2, 3, 4], [4, 3, 2, 5]])
    with pytest.raises(DiagramError, match="appears 3 times"):
        parse_pd([[1, 1, 2, 2], [2, 3, 3, 1]])
    text = json.dumps(to_pd(_build("3")))  # decoding is the caller's job
    for bad in (5, [5], [[[1], 2, 3, 4], [4, 3, 2, [1]]], [[True, 2, 3, 4], [4, 3, 2, 1]], text):
        with pytest.raises(DiagramError, match=PD_TYPE):
            parse_pd(bad)
    with pytest.raises(DiagramError, match="no plane embedding"):
        parse_pd([[1, 2, 3, 4], [1, 3, 2, 4]])


# parse_pd takes a decoded code and refuses text, whatever it would decode to

def test_parse_pd_rejects_text_that_is_not_json():
    with pytest.raises(DiagramError, match=PD_TYPE):
        parse_pd("nope")


def test_parse_pd_rejects_text_nested_too_deeply():
    with pytest.raises(DiagramError, match=PD_TYPE):
        parse_pd("[" * 100000)


def test_parse_pd_rejects_labels_too_long_for_int():
    with pytest.raises(DiagramError, match=PD_TYPE):
        parse_pd("[[" + "1" * 5000 + ", 2, 3, 4]]")


HUGE = 10**5000  # past Python's 4300-digit limit for turning an int into text


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: parse_pd([[HUGE, 2, 3, 4]]), r"arc label <\d+-bit int> appears only once"),
        (lambda: parse_pd([[HUGE, HUGE, HUGE, 4]]), r"arc label <\d+-bit int> appears 3 times"),
        (lambda: LinkDiagram((HUGE, 0, 3, 2)), r"matched out of range: <\d+-bit int>"),
        (lambda: smooth(_build("3"), HUGE, ZERO), r"no crossing <\d+-bit int> in"),
        (lambda: smooth(_build("3"), 0, HUGE), r"unknown smoothing mode <\d+-bit int>"),
        (lambda: switch(_build("3"), -HUGE), r"no crossing <\d+-bit int> in"),
    ],
    ids=["dangling_label", "label_count", "matching", "smooth_crossing", "smooth_mode",
         "switch_crossing"],
)
def test_error_messages_show_ints_too_long_to_print(make, message):
    # an f-string of such an int raises a plain ValueError of its own
    with pytest.raises(DiagramError, match=message):
        make()


def test_parse_pd_accepts_split_and_summed_diagrams():
    hopf = to_pd(_build("2"))
    trefoil = [[x + 10 for x in row] for row in to_pd(_build("3"))]
    split = parse_pd(hopf + trefoil)
    assert (split.crossings, components(split)) == (5, 3)
    summed = connected_sum(_build("3"), mirror(_build("2 2")))
    assert parse_pd(to_pd(summed)) == summed


def test_fixture_file_parses():
    expected = {
        "hopf": (2, 2),
        "trefoil": (3, 1),
        "l6a5": (6, 3),
        "pretzel_3_3_2": (8, 1),
    }
    seen = set()
    with open(DATA / "links.jsonl", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            d = parse_pd(rec["pd"])
            c, comp = expected[rec["name"]]
            assert (d.crossings, components(d)) == (c, comp)
            assert is_alternating(d)
            seen.add(rec["name"])
    assert seen == set(expected)


def test_pretzel_helper_matches_fixture_shape():
    d = pretzel(2, 2, 2)
    assert d.crossings == 6 and components(d) == 3 and is_alternating(d)
