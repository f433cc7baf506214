"""Shared builders for the test suite."""

from __future__ import annotations

import pathlib
import random
from collections import Counter
from fractions import Fraction

from twistlab import kauffman
from twistlab.diagram import _SMOOTH_PAIRS, LinkDiagram, _excise, parse_pd
from twistlab import (
    INFINITY,
    ZERO,
    build_standard,
    enumerate_standard,
    mirror,
    smooth,
    switch,
)

DATA = pathlib.Path(__file__).parent / "data"


def pretzel(*twists: int) -> LinkDiagram:
    """Vertical twist columns side by side, tops and bottoms chained."""
    arcs, corners, cr = [], [], 0
    for m in twists:
        ids = list(range(cr, cr + m))
        cr += m
        for a, b in zip(ids, ids[1:]):
            arcs += [((a, 3), (b, 2)), ((a, 0), (b, 1))]
        corners.append(
            {"NW": (ids[0], 2), "NE": (ids[0], 1), "SW": (ids[-1], 3), "SE": (ids[-1], 0)}
        )
    for c1, c2 in zip(corners, corners[1:]):
        arcs += [(c1["NE"], c2["NW"]), (c1["SE"], c2["SW"])]
    arcs += [(corners[0]["NW"], corners[-1]["NE"]), (corners[0]["SW"], corners[-1]["SE"])]
    mate = [0] * (4 * cr)
    for (c1, s1), (c2, s2) in arcs:
        mate[4 * c1 + s1], mate[4 * c2 + s2] = 4 * c2 + s2, 4 * c1 + s1
    return LinkDiagram(mate)


def signed_pretzel(cols) -> LinkDiagram:
    """``pretzel`` of the column sizes |cols|, every crossing of a negative column switched."""
    d, first = pretzel(*map(abs, cols)), 0
    for m in cols:
        if m < 0:
            for c in range(first, first - m):
                d = switch(d, c)
        first += abs(m)
    return d


def turks_head(n: int) -> LinkDiagram:
    """The closed 3-braid (s1 s2^-1)^n; n = 3 is the Borromean rings.

    Strands run upward.  A crossing s_i has the PD tuple [BL, BR, TR,
    TL] of its bottom-left, bottom-right, top-right and top-left arcs,
    and s_i^-1 the tuple [BR, TR, TL, BL].  The closure joins each top
    arc to the bottom arc at the same position.  Every n >= 3 gives an
    alternating diagram with no twist bigon.
    """
    bottom = [0, 1, 2]
    at, pd = list(bottom), []
    for k in range(2 * n):
        i = k % 2
        bl, br, tl, tr = at[i], at[i + 1], 3 + 2 * k, 4 + 2 * k
        pd.append([bl, br, tr, tl] if i == 0 else [br, tr, tl, bl])
        at[i], at[i + 1] = tl, tr
    top = dict(zip(at, bottom))
    return parse_pd([[top.get(x, x) for x in t] for t in pd])


def add_curl(d: LinkDiagram, endpoint: int, sign: int) -> LinkDiagram:
    """Insert a kink of the given writhe into the arc at one endpoint."""
    n = d.crossings
    b = 4 * n
    f = d.mate[endpoint]
    mate = list(d.mate) + [-1] * 4
    if sign > 0:
        mate[endpoint], mate[b + 2] = b + 2, endpoint
        mate[f], mate[b + 3] = b + 3, f
        mate[b + 0], mate[b + 1] = b + 1, b + 0
    else:
        mate[endpoint], mate[b + 3] = b + 3, endpoint
        mate[f], mate[b + 0] = b + 0, f
        mate[b + 1], mate[b + 2] = b + 2, b + 1
    return LinkDiagram(tuple(mate), d.free_loops)


def _cyclotomic_mul(x, y) -> list:
    """Product in Q[A]/(A^4 + 1), elements as coefficients of 1, A, A^2, A^3."""
    out = [Fraction(0)] * 4
    for i, c in enumerate(x):
        for j, b in enumerate(y):
            if i + j < 4:
                out[i + j] += c * b
            else:
                out[i + j - 4] -= c * b
    return out


def determinant_squared(p: kauffman.LaurentPoly2) -> tuple:
    """|Lambda|^2 at a = -A^3, z = A - A^3, A = e^(i pi/4), exactly.

    There Lambda is the Kauffman bracket up to a unit (Kauffman,
    Topology 26, 1987), so its modulus is the determinant.  Values live
    in Q(zeta_8) = Q[A]/(A^4 + 1), where a = A^-1 and z^2 = 2, so
    z^-1 = z/2; conjugation sends A to A^-1 = -A^3.  The result is the
    product's coefficients of 1, A, A^2, A^3, so (det^2, 0, 0, 0).
    """
    value = [Fraction(0)] * 4
    for a_exp, z_exp, coeff in p.terms():
        k = -a_exp % 8  # a = -A^3 = A^-1, and A^4 = -1
        term = [Fraction(0)] * 4
        term[k % 4] = (-coeff if k >= 4 else coeff) * Fraction(2) ** (z_exp // 2)
        if z_exp % 2:
            term = _cyclotomic_mul(term, [0, 1, 0, -1])
        value = [u + t for u, t in zip(value, term)]
    c0, c1, c2, c3 = value
    return tuple(_cyclotomic_mul(value, [c0, -c3, -c2, -c1]))


def a_mul(x: dict, y: dict) -> dict:
    """Product of Laurent polynomials in A given as {exponent: coefficient}, zeros dropped."""
    out: dict[int, int] = {}
    for i, c in x.items():
        for j, b in y.items():
            out[i + j] = out.get(i + j, 0) + c * b
    return {e: c for e, c in out.items() if c}


def a_power(x: dict, k: int) -> dict:
    out = {0: 1}
    for _ in range(k):
        out = a_mul(out, x)
    return out


def bracket(d: LinkDiagram) -> dict:
    """Kauffman bracket of d from its state sum, as {exponent of A: coefficient}.

    The sum over the 2^c states, each crossing smoothed by ZERO (the
    A-smoothing in this slot picture) or INFINITY, of
    A^(#ZERO - #INFINITY) (-A^2 - A^-2)^(loops - 1).  A state's loops
    are counted by one ``_excise`` of every crossing; nothing else is
    shared with the skein engine or the transfer walk.
    """
    n = d.crossings
    states = Counter()
    for bits in range(1 << n):
        bridges = {c: _SMOOTH_PAIRS[ZERO if bits >> c & 1 else INFINITY] for c in range(n)}
        states[2 * bin(bits).count("1") - n, _excise(d, bridges).free_loops - 1] += 1
    out: dict[int, int] = {}
    for (shift, k), m in states.items():
        for e, c in a_power({2: -1, -2: -1}, k).items():
            out[shift + e] = out.get(shift + e, 0) + m * c
    return {e: c for e, c in out.items() if c}


def relabel(d: LinkDiagram, perm, rots=None) -> LinkDiagram:
    """Renumber crossings by perm and half-turn those with rots[c] == 2."""
    n = d.crossings
    rots = rots or [0] * n

    def f(e: int) -> int:
        c, s = divmod(e, 4)
        return 4 * perm[c] + (s ^ rots[c])

    mate = [-1] * (4 * n)
    for e, m in enumerate(d.mate):
        mate[f(e)] = f(m)
    return LinkDiagram(tuple(mate), d.free_loops)


def all_splices(d1: LinkDiagram, d2: LinkDiagram):
    """Every way of cutting one arc of each diagram and joining them."""
    off = len(d1.mate)
    arcs1 = sorted({tuple(sorted((e, d1.mate[e]))) for e in range(len(d1.mate))})
    arcs2 = sorted({tuple(sorted((e, d2.mate[e]))) for e in range(len(d2.mate))})
    for a1, b1 in arcs1:
        for a2, b2 in arcs2:
            for flip in (False, True):
                mate = list(d1.mate) + [m + off for m in d2.mate]
                x2, y2 = (b2, a2) if flip else (a2, b2)
                mate[a1], mate[x2 + off] = x2 + off, a1
                mate[b1], mate[y2 + off] = y2 + off, b1
                yield LinkDiagram(tuple(mate))


def skein_calls(monkeypatch, run) -> int:
    """Number of skein nodes (``kauffman._resolve`` calls) that run() makes."""
    calls = []
    real = kauffman._resolve

    def counting(d, cache):
        calls.append(d)
        return real(d, cache)

    monkeypatch.setattr(kauffman, "_resolve", counting)
    run()
    monkeypatch.setattr(kauffman, "_resolve", real)
    return len(calls)


def random_diagrams(count: int, seed: int = 20217, max_crossings: int = 6):
    """Seeded batch of small diagrams derived from standard builds."""
    rng = random.Random(seed)
    pool = [code for c in range(2, max_crossings + 1) for code in enumerate_standard(c)]
    out = []
    while len(out) < count:
        d = build_standard(rng.choice(pool))
        for _ in range(rng.randrange(3)):
            move = rng.randrange(4)
            if move == 0:
                d = switch(d, rng.randrange(d.crossings))
            elif move == 1:
                d = mirror(d)
            elif move == 2 and d.crossings > 1:
                d = smooth(d, rng.randrange(d.crossings), rng.choice([ZERO, INFINITY]))
            elif d.crossings < max_crossings:
                d = add_curl(d, rng.randrange(len(d.mate)), rng.choice([1, -1]))
        if d.crossings:
            out.append(d)
    return out


def reference_key(d: LinkDiagram) -> tuple:
    """Canonical key without pruning: every start serialized in full.

    Crossing components come from a union-find over the arcs.  Each is
    serialized from every start crossing and both start rotations as
    ``(index, slot)`` pairs, and the smallest serialization is kept.
    """
    n = d.crossings
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e, m in enumerate(d.mate):
        ra, rb = find(e // 4), find(m // 4)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for c in range(n):
        groups.setdefault(find(c), []).append(c)

    def serial(start: int, rot0: int) -> tuple:
        index, rot, order, edges = {start: 0}, {start: rot0}, [start], []
        for c in order:
            for s in range(4):
                tc, ts = divmod(d.mate[4 * c + (s ^ rot[c])], 4)
                if tc not in index:
                    index[tc] = len(order)
                    rot[tc] = 0 if ts < 2 else 2
                    order.append(tc)
                edges.append((index[tc], ts ^ rot[tc]))
        return tuple(edges)

    comp_keys = sorted(
        min(serial(start, rot0) for start in comp for rot0 in (0, 2))
        for comp in groups.values()
    )
    return (n, d.free_loops, tuple(comp_keys))
