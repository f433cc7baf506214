"""Exact Kauffman polynomials in the regular-isotopy normalization.

The polynomial Lambda(a, z) of a diagram satisfies

    Lambda(unknot) = 1
    Lambda(D+) + Lambda(D-) = z (Lambda(D0) + Lambda(Dinf))
    Lambda(kinked D) = a^(+-1) Lambda(D)

where D+ and D- differ by a switch at one crossing and D0, Dinf are its
two smoothings.  Coefficients are unbounded integers; no floating point
is involved anywhere.  Two engines evaluate it, and the input type
picks one.

The skein engine (``lambda_poly``) takes any diagram.  At every node it
first simplifies: ``remove_curls`` strips kinks, shifting a by the
writhe shed, and cancels Reidemeister II bigons, which leaves Lambda
unchanged because Lambda is a regular-isotopy invariant.  Each pass of
``remove_curls`` removes, in one rewiring of the diagram, every kink
and bigon it finds that shares no crossing with another.

A diagram that still has a twist bigon, a 2-gon face whose strands
alternate, takes one twist-region step.  ``diagram.twist_region``
follows twist bigons from the lowest crossing x_1 in one to the chain
x_1..x_k.  At each of its crossings the cross smoothing joins the two
slots of a bigon corner and the along smoothing passes the strands on
along the twist.  By Kauffman's tangle relations (below) the chain's
tangle is P_k X + Q_k H + R_k V, where X keeps one crossing, H
along-smooths all and V cross-smooths one, the rest along-smoothed, so

    Lambda(D) = P_k Lambda(D1) + Q_k Lambda(D0) + R_k Lambda(Dc)

where D1 along-smooths x_2..x_k, and D0 and Dc along- and
cross-smooth x_1 in D1: D1, then the skein relation at x_1.  Here

    P_j = z P_(j-1) - P_(j-2),                  P_0 = 0, P_1 = 1,
    Q_j = z Q_(j-1) - Q_(j-2),                  Q_0 = 1, Q_1 = 0,
    R_j = z R_(j-1) - R_(j-2) + z a^(e(j-1)),   R_0 = R_1 = 0,

with e = +1 when along is INFINITY, else -1.  Such a chain is a
horizontal twist of ``lambda_code`` when e = +1 and a vertical one
when e = -1: k - 1 of its ``_twist`` steps take (near, X, far) from X
to (Q_k, P_k, R_k).  At k = 2 this is the skein relation at x_2.  All
three children lose the region, D1 but for x_1, which keeps the lowest
label, so the next step starts from it; a k-crossing twist costs one
memo miss.  The coefficients are a table fixed at import for every
k <= MAX_SKEIN_CROSSINGS, so no call changes them, and so are the
powers of the unlink value delta up to delta^MAX_SKEIN_CROSSINGS.  A
higher power, which only many free loops ask for, is summed afresh
from its binomial expansion each time and never kept.

A diagram with no twist bigon is walked instead: the engine switches
each crossing first met on its under strand, accumulating the skein
relation on a running diagram that keeps every switch made so far;
the fully switched diagram is descending, so it is a to its
``self_writhe`` times a power of the unlink value delta.  Every switch
branches the recursion, and any base points and component order leave
a descending diagram, so the walk is chosen to switch few crossings:
each component starts at the base point and direction that meet the
fewest of its self-crossings under-first (Shimizu, "The warping degree
of a knot diagram", J. Knot Theory Ramifications 19, 2010), and the
components go in a greedy order, each passing under as few later ones
as it can.  The cost is still exponential in crossings on diagrams
with few bigons, such as the Borromean rings.  Subdiagrams are
memoized by ``diagram.canonical_key``, one key per lookup.  A key
hashes a label-free invariant of the faces and searches nothing when
built; the isomorphism test runs inside the memo's dict probe, only
when two keys with the same invariant meet.  The memo is a fresh
private dict per call unless the caller passes one in;
TWISTLAB_CACHE=off disables it entirely, passed dicts included, which
must never change any value.

The transfer-matrix engine (``lambda_code``) takes a Conway code and
evaluates the standard build of ``diagram.build_standard`` with one
3x3 step per crossing.  By Kauffman's tangle skein relations ("An
invariant of regular isotopy", Trans. AMS 318, 1990) every 4-ended
tangle reduces to a combination of three basis tangles: H (arcs NW-NE
and SW-SE), V (arcs NW-SW and NE-SE) and X (one site crossing).  A
vertical site is a horizontal one reflected in the NW-SE diagonal,
which swaps H with V and a with 1/a, so one step ``_twist`` adds a
crossing to either:

    near -> X,   X -> -near + z X + z a^e far,   far -> a^e far,

on (near, X, far) = (H, X, V) with e = +1 at a horizontal site and on
(V, X, H) with e = -1 at a vertical one.  The walk starts at H if the
first site is horizontal and at V if it is vertical.  Closing the
tangle top to top and bottom to bottom gives Lambda = delta h + a^-1 x
+ v for the vector h H + x X + v V.  The 2-strand BMW algebra
(Birman-Wenzl 1989) is the same relations in matrix form.  Cost is
linear in crossings times the size of the polynomials, and verify_code
walks a code once.

Work that could not finish is refused up front.  The skein engine
takes at most MAX_SKEIN_CROSSINGS = 14 crossings.  On 2 vCPUs with
Python 3.11, standard builds of 2 1...1 2, their mirrors and connected
sums of two such builds each take 3.7 to 7.5 ms at 12 to 14 crossings,
and, with the budget lifted, at most 10 ms at 15 and 16; the build of
14, one twist, takes 0.27 ms (medians of five calls).  Diagrams with
few twist bigons still cost time exponential in crossings, so the
budget stays.  Larger diagrams raise
DiagramError.  The transfer walk takes at most MAX_CODE_CROSSINGS =
200 crossings: it takes one step per crossing, and every step touches
every term of polynomials that grow with the code, so verify_code's
time grows about as the cube of the crossings (x6 to x10 from 2 1x96 2
to 2 1x196 2, 100 to 200 crossings).  Larger codes raise NotationError.
"""

from __future__ import annotations

import os
from math import comb

from .diagram import (
    INFINITY,
    ZERO,
    DiagramError,
    LinkDiagram,
    _require_diagram,
    _rotate_crossings,
    _traversal_entries,
    canonical_key,
    remove_curls,
    self_writhe,
    smooth,
    twist_region,
)
from .notation import NotationError, _is_int, _require_code, _shown, crossing_axes

_CACHE_ENV = "TWISTLAB_CACHE"

MAX_CODE_CROSSINGS = 200
MAX_SKEIN_CROSSINGS = 14


class LaurentPoly2:
    """Sparse Laurent polynomial in a and z with integer coefficients.

    Built from a ``{(a_exp, z_exp): coeff}`` mapping, zero coefficients
    dropped, and kept as such a dict.  Instances are treated as
    immutable; all arithmetic returns new objects.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = {k: c for k, c in terms.items() if c} if terms else {}

    @classmethod
    def monomial(cls, coeff: int, a_exp: int = 0, z_exp: int = 0) -> "LaurentPoly2":
        return cls({(a_exp, z_exp): coeff})

    def terms(self) -> list[tuple[int, int, int]]:
        """Sorted [(a_exp, z_exp, coeff)], ordered by z then a exponent."""
        out = [(a, z, c) for (a, z), c in self._terms.items()]
        out.sort(key=lambda t: (t[1], t[0]))
        return out

    def z_row(self, z_exp: int) -> dict[int, int]:
        """Coefficients of one z power, keyed by a exponent."""
        return {a: c for (a, z), c in self._terms.items() if z == z_exp}

    def max_z(self):
        """Highest z exponent present, or None for the zero polynomial."""
        if not self._terms:
            return None
        return max(z for _, z in self._terms)

    def max_weight(self):
        """Largest z_exp + |a_exp| over all terms, or None if zero."""
        if not self._terms:
            return None
        return max(z + abs(a) for (a, z) in self._terms)

    def shift(self, a_exp: int = 0, z_exp: int = 0) -> "LaurentPoly2":
        """Multiply by the monomial a^a_exp z^z_exp."""
        return LaurentPoly2(
            {(a + a_exp, z + z_exp): c for (a, z), c in self._terms.items()}
        )

    def mirror_a(self) -> "LaurentPoly2":
        """Substitute a -> 1/a."""
        return LaurentPoly2({(-a, z): c for (a, z), c in self._terms.items()})

    def __add__(self, other):
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        data = dict(self._terms)
        for k, c in other._terms.items():
            s = data.get(k, 0) + c
            if s:
                data[k] = s
            elif k in data:
                del data[k]
        out = LaurentPoly2()
        out._terms = data
        return out

    def __neg__(self):
        return LaurentPoly2({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly2({k: c * other for k, c in self._terms.items()})
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        data: dict[tuple[int, int], int] = {}
        for (a1, z1), c1 in self._terms.items():
            for (a2, z2), c2 in other._terms.items():
                k = (a1 + a2, z1 + z2)
                s = data.get(k, 0) + c1 * c2
                if s:
                    data[k] = s
                elif k in data:
                    del data[k]
        out = LaurentPoly2()
        out._terms = data
        return out

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        return f"LaurentPoly2({self._terms!r})"

    def pretty(self) -> str:
        """Single-line human form, terms in z-then-a order."""
        if not self._terms:
            return "0"
        parts = []
        for a, z, c in self.terms():
            word = _term_str(a, z, c)
            if not parts:
                parts.append(word if c > 0 else "-" + word)
            else:
                parts.append(("+ " if c > 0 else "- ") + word)
        return " ".join(parts)


def _monomial_str(a_exp: int, z_exp: int) -> str:
    bits = []
    if a_exp == 1:
        bits.append("a")
    elif a_exp:
        bits.append(f"a^{a_exp}")
    if z_exp == 1:
        bits.append("z")
    elif z_exp:
        bits.append(f"z^{z_exp}")
    return " ".join(bits)


def _term_str(a_exp: int, z_exp: int, coeff: int) -> str:
    """One term without its sign: the magnitude, unless 1, then the monomial."""
    body = _monomial_str(a_exp, z_exp)
    mag = abs(coeff)
    if mag == 1 and body:
        return body
    return f"{mag} {body}".rstrip()


_ZERO = LaurentPoly2()
_ONE = LaurentPoly2.monomial(1)


def delta_unlink() -> LaurentPoly2:
    """Value of a two-component crossingless unlink: (a + 1/a)/z - 1."""
    return _DELTA_POWERS[1]


def _delta_sum(k: int) -> LaurentPoly2:
    """delta^k as the binomial sum of ((a + 1/a)/z - 1)^k.

    delta^k = sum over j <= k and i <= j of C(k, j) (-1)^(k-j) C(j, i)
    a^(j-2i) z^-j, each (j, i) its own monomial.
    """
    return LaurentPoly2({
        (j - 2 * i, -j): comb(k, j) * comb(j, i) * (-1) ** (k - j)
        for j in range(k + 1) for i in range(j + 1)
    })


# delta^0..delta^MAX_SKEIN_CROSSINGS, fixed at import; standard builds,
# their sums and Turk's heads ask for no more than delta^2
_DELTA_POWERS = tuple(_delta_sum(k) for k in range(MAX_SKEIN_CROSSINGS + 1))


def _delta_power(k: int) -> LaurentPoly2:
    return _DELTA_POWERS[k] if k < len(_DELTA_POWERS) else _delta_sum(k)


def lambda_poly(d: LinkDiagram, cache=None) -> LaurentPoly2:
    """Kauffman regular-isotopy polynomial of a diagram.

    Pass a dict as cache to share memoized subdiagram values across
    calls; by default each call uses a private dict.  Nothing at all
    is memoized, not even in a passed dict, when TWISTLAB_CACHE=off.
    Diagrams above MAX_SKEIN_CROSSINGS crossings are refused.
    """
    _require_diagram(d)
    if d.crossings > MAX_SKEIN_CROSSINGS:
        raise DiagramError(
            f"the skein engine stops at {MAX_SKEIN_CROSSINGS} crossings, got {d.crossings}"
        )
    if d.crossings == 0 and d.free_loops == 0:
        # checked once: every excision below leaves a crossing or a loop
        raise DiagramError("the empty diagram has no polynomial")
    if os.environ.get(_CACHE_ENV) == "off":
        cache = None
    elif cache is None:
        cache = {}
    return _lambda(d, cache)


def _lambda(d: LinkDiagram, cache) -> LaurentPoly2:
    d, shift = remove_curls(d)
    if d.crossings == 0:
        val = _delta_power(d.free_loops - 1)
    else:
        key = canonical_key(d) if cache is not None else None
        val = cache.get(key) if cache is not None else None
        if val is None:
            val = _resolve(d, cache)
            if cache is not None:
                cache[key] = val
    return val.shift(a_exp=shift) if shift else val


def _resolve(d: LinkDiagram, cache) -> LaurentPoly2:
    """Skein recursion for a simplified diagram with at least one crossing.

    A diagram with a twist bigon takes the twist-region step of the
    module docstring on ``diagram.twist_region`` and nothing else: the
    region's k crossings go in one step, whose coefficients, k - 1
    transfer steps of ``lambda_code`` on one crossing, are row k of the
    table ``_TWISTS``, fixed at import.  Its walk is computed all the
    same and left unused: one ``_traversal_entries`` call per miss is
    how perfbench's tracer counts memo misses, so it stays until the
    engine counts its own.

    ``_traversal_entries`` gives the one walk of the diagram: each
    component from the base point and direction that meet the fewest
    of its self-crossings under-first, the components in a greedy order
    that passes under few later ones.  Following it, a crossing first met on
    its under strand blocks descent, so it gets switched; the skein
    relation turns the switch into the two smoothings of the running
    diagram, which is d with every earlier switch made; the crossing is
    then switched in the running diagram, and the walk goes on.
    The walk is computed once, on the unswitched diagram, and followed
    to its end; it is not recomputed after a switch, which renumbers
    endpoints and could reorder it.  What remains after the walk is
    descending: each component lies entirely over the later ones and
    descends along itself, so its value is a to the ``self_writhe`` of
    the running diagram times delta to the components minus one.
    """
    walks = _traversal_entries(d)
    region = twist_region(d)
    if region is not None:
        k, along, (d1, d0, dc) = region
        q, p, r = _TWISTS[along][k - 1]
        return p * _lambda(d1, cache) + q * _lambda(d0, cache) + r * _lambda(dc, cache)
    acc = _ZERO
    sign = 1
    base = d  # d with every crossing switched so far
    met: set[int] = set()
    for e in (e for entries in walks for e in entries):
        c = e >> 2
        if c in met:
            continue
        met.add(c)
        if (e & 1) == 0:  # first met going under
            branch = _lambda(smooth(base, c, ZERO), cache) + _lambda(
                smooth(base, c, INFINITY), cache
            )
            branch = branch.shift(z_exp=1)
            acc = acc + branch if sign > 0 else acc - branch
            base = _rotate_crossings(base, (c,))
            sign = -sign
    tail = _delta_power(len(walks) + d.free_loops - 1).shift(a_exp=self_writhe(base))
    return acc + tail if sign > 0 else acc - tail


# ---------------------------------------------------------------------------
# transfer matrices for standard builds

def _twist(near, x, far, e):
    """One more crossing on a site: near -> X, X -> -near + zX + z a^e far, far -> a^e far."""
    xz = x.shift(z_exp=1)
    return -x, near + xz, (xz + far).shift(a_exp=e)


def _twist_rows(e):
    """(near, X, far), which is (Q_k, P_k, R_k), for k = 1..MAX_SKEIN_CROSSINGS."""
    rows = [(_ZERO, _ONE, _ZERO)]
    while len(rows) < MAX_SKEIN_CROSSINGS:
        rows.append(_twist(*rows[-1], e))
    return tuple(rows)


# twists along INFINITY (e = +1) and along ZERO (e = -1)
_TWISTS = {INFINITY: _twist_rows(1), ZERO: _twist_rows(-1)}


def lambda_code(code) -> LaurentPoly2:
    """Lambda of ``build_standard(code)``, by transfer matrices.

    One ``_twist`` per crossing, on the axes of ``notation.crossing_axes``
    that ``build_standard`` also follows, starting from the basis
    tangle of the first crossing's axis; then the tangle is closed.
    Codes above MAX_CODE_CROSSINGS crossings are refused.
    """
    _require_code(code)
    if code.crossings > MAX_CODE_CROSSINGS:
        raise NotationError(
            f"codes stop at {MAX_CODE_CROSSINGS} crossings, got {_shown(code.crossings)}"
        )
    axes = crossing_axes(code)
    h, x, v = (_ONE, _ZERO, _ZERO) if axes[0] else (_ZERO, _ZERO, _ONE)
    for horizontal in axes:
        if horizontal:
            h, x, v = _twist(h, x, v, 1)
        else:
            v, x, h = _twist(v, x, h, -1)
    return _delta_power(1) * h + x.shift(a_exp=-1) + v


# ---------------------------------------------------------------------------
# truncation

class TopDegreeMismatchError(ValueError):
    """The polynomial does not look like an alternating diagram's."""


def _require_rows(p, crossings) -> None:
    """Refuse anything but a LaurentPoly2 and an int crossing count."""
    if not isinstance(p, LaurentPoly2):
        raise NotationError(f"wanted a LaurentPoly2, got {type(p).__name__}")
    if not _is_int(crossings):
        raise NotationError(f"crossing count must be an int, got {_shown(crossings)}")


def truncate(p: LaurentPoly2, crossings: int) -> tuple[int, int, int]:
    """(u_minus, u_zero, u_plus) from the two top z rows, checking their shape.

    For a c-crossing reduced alternating diagram the z-degree is c-1,
    the z^(c-1) row is exactly a + 1/a, and the z^(c-2) row is
    supported on a exponents -2, 0, 2 with nonnegative coefficients
    u_minus, u_zero, u_plus.
    """
    _require_rows(p, crossings)
    c = crossings
    top = p.max_z()
    if top is None or top > c - 1:
        raise TopDegreeMismatchError(
            f"z-degree {top} does not fit a {c}-crossing alternating diagram"
        )
    if p.z_row(c - 1) != {1: 1, -1: 1}:
        raise TopDegreeMismatchError(
            f"z^{c - 1} row is {p.z_row(c - 1)!r}, wanted exactly a + 1/a"
        )
    row = p.z_row(c - 2)
    stray = set(row) - {-2, 0, 2}
    if stray:
        raise TopDegreeMismatchError(
            f"z^{c - 2} row touches unexpected a exponents {sorted(stray)}"
        )
    um, u0, up = row.get(-2, 0), row.get(0, 0), row.get(2, 0)
    if min(um, u0, up) < 0:
        raise TopDegreeMismatchError(f"negative twist-site count in {row!r}")
    return (um, u0, up)


def staggered(p: LaurentPoly2, crossings: int) -> str:
    """Two-column display of the top two z rows, one monomial per line.

    The z^(c-2) column is flush left with a exponents descending; each
    z^(c-1) monomial is indented and interleaved where it belongs.
    """
    _require_rows(p, crossings)
    c = crossings
    low = p.z_row(c - 2)
    high = p.z_row(c - 1)
    lines = []

    def fmt(a, z, coeff, indent):
        sign = "- " if coeff < 0 else ("+ " if lines else "  ")
        return " " * indent + sign + _term_str(a, z, coeff)

    for a in sorted(set(low) | {x + 1 for x in high}, reverse=True):
        if a in low:
            lines.append(fmt(a, c - 2, low[a], 0))
        if a - 1 in high:
            lines.append(fmt(a - 1, c - 1, high[a - 1], 12))
    return "\n".join(lines)
