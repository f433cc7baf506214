"""Acceptance gate: one test per published claim, exact arithmetic throughout.

Each test prints a single PASS/FAIL line naming its criterion; pytest -v
adds its own verdict per test.  A shared polynomial cache keeps the
sweeps fast; correctness never depends on it (see the cache tests).
"""

from __future__ import annotations

import json
import random
import time

import pytest

from twistlab.diagram import (
    INFINITY,
    ZERO,
    build_standard,
    canonical_key,
    connected_sum,
    mirror,
    parse_pd,
    smooth,
    switch,
)
from twistlab.kauffman import LaurentPoly2, lambda_code, lambda_poly, truncate
from twistlab.notation import enumerate_standard, parse_conway, predicted_u
from twistlab.verify import BALANCED, chirality_class

from helpers import DATA, add_curl, random_diagrams, relabel

_CACHE: dict = {}
_POLYS_SEEN: list = []  # (poly, crossings) pairs from criteria 1-4


def _build(text):
    return build_standard(parse_conway(text))


def _lam(d):
    p = lambda_poly(d, _CACHE)
    _POLYS_SEEN.append((p, d.crossings))
    return p


def _report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_criterion_01_hopf_exactness():
    want = LaurentPoly2(
        {(1, -1): -1, (-1, -1): -1, (0, 0): 1, (1, 1): 1, (-1, 1): 1}
    )
    d = _build("2")
    _lam(d)  # warm the cache before timing
    t0 = time.perf_counter()
    p = lambda_poly(d, _CACHE)
    dt = time.perf_counter() - t0
    _report("01 hopf-exactness", p == want and dt < 0.001)


def test_criterion_02_trefoil_and_figure_eight_truncations():
    ok = True
    for text, c, want in (("3", 3, (0, 1, 1)), ("2 2", 4, (1, 2, 1))):
        d = _build(text)
        _lam(d)  # warm
        t0 = time.perf_counter()
        p = lambda_poly(d, _CACHE)
        dt = time.perf_counter() - t0
        t = truncate(p, c)
        ok = ok and t == want and p.z_row(c - 1) == {1: 1, -1: 1} and dt < 0.010
    _report("02 trefoil-fig8-truncations", ok)


def test_criterion_03_theorem_sweep_to_ten_crossings():
    t0 = time.perf_counter()
    ok = True
    n = 0
    for c in range(2, 11):
        for code in enumerate_standard(c):
            t = truncate(_lam(build_standard(code)), c)
            ok = ok and t == predicted_u(code)
            n += 1
    dt = time.perf_counter() - t0
    ok = ok and n > 200 and dt < 60
    _report(f"03 theorem-sweep ({n} codes, {dt:.1f}s)", ok)


def test_criterion_04_reduction_sweep():
    from twistlab.notation import minimal_code

    ok = True
    for c in range(2, 11):
        for code in enumerate_standard(c):
            small = None if code.entries == (2,) else minimal_code(code)
            if small in (None, code):
                continue
            p_big = _lam(build_standard(code))
            p_small = _lam(build_standard(small))
            for offset in (1, 2):
                ok = ok and p_big.z_row(c - offset) == p_small.z_row(
                    small.crossings - offset
                )
    _report("04 reduction-sweep", ok)


def test_criterion_05_degree_bounds_on_everything_seen():
    ok = bool(_POLYS_SEEN)
    for p, c in _POLYS_SEEN:
        ok = ok and p.max_weight() <= c and p.max_z() == c - 1
    _report(f"05 degree-bounds ({len(_POLYS_SEEN)} polynomials)", ok)


def test_criterion_06_connected_sum_multiplicativity():
    d1, d2 = _build("2 2"), _build("2")
    s = connected_sum(d1, d2)
    p = lambda_poly(s, _CACHE)
    ok = p == lambda_poly(d1, _CACHE) * lambda_poly(d2, _CACHE)
    ok = ok and p.max_z() == 4
    _report("06 connected-sum-multiplicativity", ok)


def test_criterion_07_mirror_identity_on_sampled_codes():
    pool = [code for c in range(2, 10) for code in enumerate_standard(c)]
    sample = random.Random(424242).sample(pool, 20)
    ok = True
    for code in sample:
        d = build_standard(code)
        p, q = lambda_poly(d, _CACHE), lambda_poly(mirror(d), _CACHE)
        ok = ok and q == p.mirror_a()
        t, tm = truncate(p, code.crossings), truncate(q, code.crossings)
        ok = ok and t == tm[::-1]
        if chirality_class(t) == BALANCED:
            ok = ok and chirality_class(tm) == BALANCED
        else:
            ok = ok and chirality_class(tm) != chirality_class(t)
    _report("07 mirror-identity (20 codes)", ok)


def test_criterion_08_l6a5_fixture():
    with open(DATA / "links.jsonl", encoding="utf-8") as fh:
        recs = {json.loads(line)["name"]: json.loads(line)["pd"] for line in fh}
    d = parse_pd(recs["l6a5"])
    t = truncate(lambda_poly(d, _CACHE), d.crossings)
    _report("08 l6a5-fixture", t == (1, 4, 3))


def test_criterion_09_truncated_skein_sweep():
    z = LaurentPoly2.monomial(1, 0, 1)
    ok = True
    for c in range(3, 10):
        for code in enumerate_standard(c):
            d = build_standard(code)
            x = d.crossings - 1
            p = lambda_poly(d, _CACHE)
            rhs = z * (
                lambda_poly(smooth(d, x, ZERO), _CACHE)
                + lambda_poly(smooth(d, x, INFINITY), _CACHE)
            )
            for row in (c - 1, c - 2):
                ok = ok and p.z_row(row) == rhs.z_row(row)
    _report("09 truncated-skein-sweep", ok)


def test_criterion_10_axiom_property_suite(monkeypatch):
    rng = random.Random(1009)
    diagrams = random_diagrams(50, seed=1009)
    z = LaurentPoly2.monomial(1, 0, 1)
    ok = True
    for d in diagrams:
        p = lambda_poly(d, _CACHE)
        # four-term skein at a random crossing
        x = rng.randrange(d.crossings)
        lhs = p + lambda_poly(switch(d, x), _CACHE)
        rhs = z * (
            lambda_poly(smooth(d, x, ZERO), _CACHE)
            + lambda_poly(smooth(d, x, INFINITY), _CACHE)
        )
        ok = ok and lhs == rhs
        # loop relation on a random arc
        e = rng.randrange(len(d.mate))
        sign = rng.choice([1, -1])
        ok = ok and lambda_poly(add_curl(d, e, sign), _CACHE) == p.shift(a_exp=sign)
        # canonical key survives relabeling
        perm = list(range(d.crossings))
        rng.shuffle(perm)
        rots = [rng.choice([0, 2]) for _ in range(d.crossings)]
        ok = ok and canonical_key(relabel(d, perm, rots)) == canonical_key(d)
    # cache transparency on a subsample
    sub = diagrams[::10]
    cached = [lambda_poly(d) for d in sub]
    monkeypatch.setenv("TWISTLAB_CACHE", "off")
    ok = ok and [lambda_poly(d) for d in sub] == cached
    _report("10 axiom-property-suite (50 diagrams)", ok)


def test_criterion_11_transfer_matrices_agree_with_the_skein_engine():
    # criteria 03, 04 and 09 have filled the cache with these diagrams
    rng = random.Random(1112)
    codes = [code for c in range(2, 11) for code in enumerate_standard(c)]
    codes += [rng.choice(enumerate_standard(c)) for c in (11, 12)]
    ok = True
    for code in codes:
        ok = ok and lambda_code(code) == lambda_poly(build_standard(code), _CACHE)
    _report(f"11 engine-agreement ({len(codes)} codes)", ok)
