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
alternate, takes one twist step at a crossing x of that bigon:

    Lambda(D) = z (Lambda(D0) + Lambda(Dinf)) - Lambda(switch_x D).

This is the skein relation at x, so it holds whichever x is taken; on
a horizontal twist it is the tangle relation X X = -H + z X + z a V
that ``lambda_code`` below applies once per crossing.  All three
children shrink once simplified: the switch turns the twist bigon into
a Reidemeister II bigon, which cancels two crossings; one smoothing
leaves a kink at the bigon partner, again two fewer; the other
shortens the twist by one.  x is the partner of the lowest crossing
that has a twist bigon, and excision keeps the order of the crossings
that survive, so the children go on along the same twist and share
memo entries.

A diagram with no twist bigon is walked instead: the engine switches
each crossing first met on its under strand, accumulating the skein
relation; the fully switched diagram is descending, so it is a power
of a times a power of the unlink value delta.  Every switch branches
the recursion, and any base points and component order leave a
descending diagram, so the walk is chosen to switch few crossings:
each component starts at the base point and direction that meet the
fewest of its self-crossings under-first (Shimizu, "The warping degree
of a knot diagram", J. Knot Theory Ramifications 19, 2010), and the
components go in a greedy order, each passing under as few later ones
as it can.  The cost is still exponential in crossings on diagrams
with few bigons, such as the Borromean rings.  Subdiagrams are
memoized by canonical key.  The memo is a fresh private dict per call
unless the caller passes one in; TWISTLAB_CACHE=off disables it
entirely, passed dicts included, which must never change any value.

The transfer-matrix engine (``lambda_code``) takes a Conway code and
evaluates the standard build of ``diagram.build_standard`` with one
3x3 step per crossing.  By Kauffman's tangle skein relations ("An
invariant of regular isotopy", Trans. AMS 318, 1990) every 4-ended
tangle reduces to a combination of three basis tangles: H (arcs NW-NE
and SW-SE), V (arcs NW-SW and NE-SE) and X (one site crossing).  Adding
a crossing to a horizontal site maps

    H -> X,   X -> -H + z X + z a V,   V -> a V,

and adding one to a vertical site maps

    V -> X,   X -> -V + z X + z a^-1 H,   H -> a^-1 H.

The walk starts at H if the first site is horizontal and at V if it is
vertical.  Closing the tangle top to top and bottom to bottom gives
Lambda = delta h + a^-1 x + v for the vector h H + x X + v V.  The
2-strand BMW algebra (Birman-Wenzl 1989) is the same relations in
matrix form.  Cost is linear in crossings times the size of the
polynomials.

Work that could not finish is refused up front.  The skein engine
takes at most MAX_SKEIN_CROSSINGS = 14 crossings.  On 2 vCPUs with
Python 3.11, standard builds of 2 1...1 2, their mirrors and connected
sums of two such builds each take 3 to 5 ms at 12 to 14 crossings,
and, with the budget lifted, at most 6.4 ms at 15 and 16 (medians of
five calls).  Diagrams with few twist bigons still cost time
exponential in crossings, so the budget stays.  Larger diagrams raise
SkeinBudgetError.  The transfer walk takes at most MAX_CODE_CROSSINGS =
200 crossings: the polynomials grow with the code, so verify_code
takes 0.43 s on 2 1x96 2 (100 crossings) and 3.1 s on 2 1x196 2 (200),
medians of five calls on 2 vCPUs with Python 3.11, about x7 for twice
the crossings.  Larger codes raise CodeBudgetError.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .diagram import (
    INFINITY,
    ZERO,
    DiagramError,
    EmptyDiagramError,
    LinkDiagram,
    _rotate_crossings,
    _traversal_entries,
    _twist_crossing,
    canonical_key,
    remove_curls,
    smooth,
)
from .notation import NotationError, crossing_axes

_CACHE_ENV = "TWISTLAB_CACHE"

MAX_CODE_CROSSINGS = 200
MAX_SKEIN_CROSSINGS = 14


class CodeBudgetError(NotationError):
    """The code has more crossings than the transfer walk accepts."""


class SkeinBudgetError(DiagramError):
    """The diagram has more crossings than the skein engine accepts."""


class LaurentPoly2:
    """Sparse Laurent polynomial in a and z with integer coefficients.

    Terms live in a dict keyed by (a_exp, z_exp).  Instances are
    treated as immutable; all arithmetic returns new objects.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data: dict[tuple[int, int], int] = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for key, coeff in items:
                ae, ze = key
                if coeff:
                    k = (ae, ze)
                    c = data.get(k, 0) + coeff
                    if c:
                        data[k] = c
                    elif k in data:
                        del data[k]
        self._terms = data

    @classmethod
    def monomial(cls, coeff: int, a_exp: int = 0, z_exp: int = 0) -> "LaurentPoly2":
        return cls({(a_exp, z_exp): coeff})

    @classmethod
    def from_triples(cls, triples) -> "LaurentPoly2":
        """Rebuild from [a_exp, z_exp, coeff] rows as emitted by terms()."""
        return cls(((int(a), int(z)), int(c)) for a, z, c in triples)

    def terms(self) -> list[tuple[int, int, int]]:
        """Sorted [(a_exp, z_exp, coeff)], ordered by z then a exponent."""
        out = [(a, z, c) for (a, z), c in self._terms.items()]
        out.sort(key=lambda t: (t[1], t[0]))
        return out

    def coeff(self, a_exp: int, z_exp: int) -> int:
        return self._terms.get((a_exp, z_exp), 0)

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
_Z = LaurentPoly2.monomial(1, 0, 1)


def delta_unlink() -> LaurentPoly2:
    """Value of a two-component crossingless unlink: (a + 1/a)/z - 1."""
    return LaurentPoly2({(1, -1): 1, (-1, -1): 1, (0, 0): -1})


_DELTA_POWERS = [_ONE, delta_unlink()]


def _delta_power(k: int) -> LaurentPoly2:
    while len(_DELTA_POWERS) <= k:
        _DELTA_POWERS.append(_DELTA_POWERS[-1] * _DELTA_POWERS[1])
    return _DELTA_POWERS[k]


def lambda_poly(d: LinkDiagram, cache=None) -> LaurentPoly2:
    """Kauffman regular-isotopy polynomial of a diagram.

    Pass a dict as cache to share memoized subdiagram values across
    calls; by default each call uses a private dict.  Nothing at all
    is memoized, not even in a passed dict, when TWISTLAB_CACHE=off.
    Diagrams above MAX_SKEIN_CROSSINGS crossings are refused.
    """
    if d.crossings > MAX_SKEIN_CROSSINGS:
        raise SkeinBudgetError(
            f"the skein engine stops at {MAX_SKEIN_CROSSINGS} crossings, got {d.crossings}"
        )
    if os.environ.get(_CACHE_ENV, "").strip().lower() in {"off", "0", "false", "no"}:
        cache = None
    elif cache is None:
        cache = {}
    return _lambda(d, cache)


def _lambda(d: LinkDiagram, cache) -> LaurentPoly2:
    d, shift = remove_curls(d)
    if d.crossings == 0:
        if d.free_loops == 0:
            raise EmptyDiagramError("the empty diagram has no polynomial")
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

    A diagram with a twist bigon takes the twist step of the module
    docstring at ``diagram._twist_crossing`` and nothing else.  Its walk
    is computed all the same and left unused: one ``_traversal_entries``
    call per miss is how perfbench's tracer counts memo misses, so it
    stays until the engine counts its own.

    ``_traversal_entries`` gives the one walk of the diagram: each
    component from the base point and direction that meet the fewest
    of its self-crossings under-first, the components in a greedy order
    that passes under few later ones.  Following it, a crossing first met on
    its under strand blocks descent, so it gets switched; the skein
    relation turns the switch into the two smoothings of the current
    partially switched diagram, and the recursion continues along the
    walk.  The walk is computed once, on the unswitched diagram, and
    followed to its end; it is not recomputed after a switch, which
    renumbers endpoints and could reorder it.  What remains after the
    walk is descending: each component lies entirely over the later
    ones and descends along itself, so its value is a to the
    self-writhe times delta to the components minus one.  The component
    count and the sign of each self-crossing, met twice by one walk,
    are read off the same walk.
    """
    walks = _traversal_entries(d)
    x = _twist_crossing(d)
    if x >= 0:
        branch = _lambda(smooth(d, x, ZERO), cache) + _lambda(smooth(d, x, INFINITY), cache)
        return branch * _Z - _lambda(_rotate_crossings(d, (x,)), cache)
    acc = _ZERO
    sign = 1
    switched: list[int] = []
    first: dict[int, tuple[int, int]] = {}  # crossing -> (walk, entry) first met
    writhe = 0  # self-writhe of the fully switched diagram
    for w, entries in enumerate(walks):
        for e in entries:
            c = e >> 2
            met = first.get(c)
            if met is not None:
                if met[0] == w:  # a self-crossing; see diagram._self_crossing_signs
                    s = 1 if (e ^ met[1]) & 2 else -1
                    writhe += s if met[1] & 1 else -s  # first met under: switched
                continue
            first[c] = (w, e)
            if (e & 1) == 0:  # first met going under
                base = _rotate_crossings(d, switched) if switched else d
                branch = _lambda(smooth(base, c, ZERO), cache) + _lambda(
                    smooth(base, c, INFINITY), cache
                )
                branch = branch * _Z
                acc = acc + branch if sign > 0 else acc - branch
                switched.append(c)
                sign = -sign
    tail = _delta_power(len(walks) + d.free_loops - 1).shift(a_exp=writhe)
    return acc + tail if sign > 0 else acc - tail


# ---------------------------------------------------------------------------
# transfer matrices for standard builds

def _twist_horizontal(h, x, v):
    """One more crossing on a horizontal site: H -> X, X -> -H + zX + zaV, V -> aV."""
    xz = x.shift(z_exp=1)
    return -x, h + xz, (xz + v).shift(a_exp=1)


def _twist_vertical(h, x, v):
    """One more crossing on a vertical site: V -> X, X -> -V + zX + z/a H, H -> H/a."""
    xz = x.shift(z_exp=1)
    return (h + xz).shift(a_exp=-1), v + xz, -x


def _close(h, x, v) -> LaurentPoly2:
    return _delta_power(1) * h + x.shift(a_exp=-1) + v


def _open_state(code) -> tuple[LaurentPoly2, LaurentPoly2, LaurentPoly2]:
    """(H, X, V) vector of the standard build's tangle minus its last crossing.

    One step per crossing, on the axes of ``notation.crossing_axes``
    that ``build_standard`` also follows, starting from the basis
    tangle of the first crossing's axis.  The last crossing is always
    horizontal and is left to the caller.  Codes above
    MAX_CODE_CROSSINGS crossings are refused.
    """
    if code.crossings > MAX_CODE_CROSSINGS:
        raise CodeBudgetError(
            f"codes stop at {MAX_CODE_CROSSINGS} crossings, got {code.crossings}"
        )
    axes = crossing_axes(code)
    vec = (_ONE, _ZERO, _ZERO) if axes[0] else (_ZERO, _ZERO, _ONE)
    for horizontal in axes[:-1]:
        vec = (_twist_horizontal if horizontal else _twist_vertical)(*vec)
    return vec


def lambda_code(code) -> LaurentPoly2:
    """Lambda of ``build_standard(code)``, by transfer matrices."""
    return _close(*_twist_horizontal(*_open_state(code)))


def lambda_code_smoothings(code) -> tuple[LaurentPoly2, LaurentPoly2]:
    """Lambda of the ZERO and INFINITY smoothings of the build's last crossing.

    They equal ``lambda_poly(smooth(build_standard(code), c - 1, mode))``
    for ZERO and INFINITY, c being the crossing count.
    """
    h, x, v = _open_state(code)
    return h + x.shift(a_exp=1) + _delta_power(1) * v, _close(h, x, v)


# ---------------------------------------------------------------------------
# truncation

class TopDegreeMismatchError(ValueError):
    """The polynomial does not look like an alternating diagram's."""


@dataclass(frozen=True)
class TruncatedLambda:
    """The five leading coefficients of an alternating diagram's polynomial.

    For a c-crossing reduced alternating diagram the z-degree is c-1,
    the z^(c-1) row is exactly a + 1/a, and the z^(c-2) row is
    supported on a exponents -2, 0, 2 with nonnegative coefficients
    u_minus, u_zero, u_plus.
    """

    crossings: int
    u_minus: int
    u_zero: int
    u_plus: int

    @property
    def u(self) -> tuple[int, int, int]:
        return (self.u_minus, self.u_zero, self.u_plus)


def truncate(p: LaurentPoly2, crossings: int) -> TruncatedLambda:
    """Extract the two top z rows, checking their alternating shape."""
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
    return TruncatedLambda(c, um, u0, up)


def staggered(p: LaurentPoly2, crossings: int) -> str:
    """Two-column display of the top two z rows, one monomial per line.

    The z^(c-2) column is flush left with a exponents descending; each
    z^(c-1) monomial is indented and interleaved where it belongs.
    """
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
