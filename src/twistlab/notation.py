"""Conway codes for rational links in standard alternating format.

A code is a sequence of positive twist counts, one per twist site, read
from the first site to the last.  The two end sites need at least two
crossings each (a single-site code is its own end twice, so it also
needs at least two), interior sites need at least one.  Site axes are
forced: sites alternate between horizontal and vertical and the last
site is always horizontal, so the axis of every site is fixed by its
distance from the end of the code.  ``crossing_axes`` is the one place
that rule is written; the diagram build and the transfer walk both
follow it crossing by crossing.
"""

from __future__ import annotations

import re
import sys

_ASCII_INT = re.compile(r"[+-]?[0-9]+")
_FIELDS = re.compile(r"\s*,\s*|\s+")  # a comma, blanks or both end a field


def _shown(value) -> str:
    """``repr(value)`` for an error message, safe on ints too long to print.

    An int of more than ``sys.get_int_max_str_digits()`` digits, alone
    or in a tuple, is shown by its bit length and never turned into text.
    """
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_shown, value)) + ("," if len(value) == 1 else "") + ")"
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    if isinstance(value, int) and limit and abs(value) >= 10**limit:
        return f"<{value.bit_length()}-bit int>"
    return repr(value)


def _is_int(value) -> bool:
    """True for an int that is not a bool, the rule for every count and index."""
    return isinstance(value, int) and not isinstance(value, bool)


class NotationError(ValueError):
    """Invalid Conway code input, or a code past the transfer walk's budget."""


class ConwayCode:
    """A validated twist-count sequence, immutable and hashable by value.

    Entries may come as any sequence of ints; they are kept as a tuple.
    """

    __slots__ = ("_entries",)
    entries = property(lambda self: self._entries)

    def __init__(self, entries: tuple[int, ...]) -> None:
        self._entries = tuple(entries)
        if not self.entries:
            raise NotationError("a Conway code needs at least one entry")
        for e in self.entries:
            if not _is_int(e):
                raise NotationError(f"entry {_shown(e)} is not an integer")
            if e < 1:
                raise NotationError(f"twist counts must be positive, got {_shown(e)}")
        if self.entries[0] < 2 or self.entries[-1] < 2:
            raise NotationError(
                f"end sites need at least two crossings: {_shown(self.entries)}"
            )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.entries,))

    def __repr__(self) -> str:
        return f"ConwayCode(entries={self.entries!r})"

    @property
    def sites(self) -> int:
        return len(self.entries)

    @property
    def crossings(self) -> int:
        return sum(self.entries)

    def __str__(self) -> str:
        return " ".join(str(e) for e in self.entries)


def _require_code(code) -> None:
    """Refuse anything but a ConwayCode where a code is due."""
    if not isinstance(code, ConwayCode):
        raise NotationError(f"wanted a ConwayCode, got {type(code).__name__}")


def crossing_axes(code: ConwayCode) -> list[bool]:
    """Axis of every crossing in build order, True for horizontal.

    Crossings are listed site by site from the first site to the last,
    so the last crossing is always horizontal.
    """
    _require_code(code)
    n = code.sites
    return [(n - 1 - i) % 2 == 0 for i, m in enumerate(code.entries) for _ in range(m)]


def parse_conway(text: str) -> ConwayCode:
    """Parse twist counts split at commas, blanks or both into a ConwayCode.

    Each count is read by ``parse_int``, and an empty field is refused.
    """
    if not isinstance(text, str):
        raise NotationError(f"a Conway code is parsed from text, got {type(text).__name__}")
    fields = _FIELDS.split(text.strip())
    if fields == [""]:
        raise NotationError("no twist counts given")
    if "" in fields:
        raise NotationError("empty twist count: a comma with no number on one side")
    return ConwayCode(tuple(map(parse_int, fields)))


def parse_int(text: str, what: str = "twist count") -> int:
    """An int written as ASCII digits with an optional sign.

    Underscores, blanks and non-ASCII digits, which ``int`` would
    accept, are refused, and so are numbers too long for ``int`` to
    convert; ``what`` names the value in the error.
    """
    if not _ASCII_INT.fullmatch(text):
        raise NotationError(f"bad {what} {text!r}")
    try:
        return int(text)
    except ValueError:
        raise NotationError(f"bad {what} {text[:20]}... ({len(text)} digits)") from None


def continued_fraction(code: ConwayCode) -> Fraction:
    """Evaluate the code as a continued fraction, last entry outermost.

    For entries a1 .. an the value is an + 1/(a(n-1) + 1/(... + 1/a1)),
    so folding from the first entry outward gives the fraction exactly.
    """
    from fractions import Fraction  # loads decimal: import it only when called

    _require_code(code)
    value = Fraction(code.entries[0])
    for e in code.entries[1:]:
        value = e + 1 / value
    return value


def predicted_u(code: ConwayCode) -> tuple[int, int, int]:
    """Expected (u_minus, u_zero, u_plus) for a standard-format code.

    u_zero counts all sites, u_plus the horizontal ones and u_minus the
    vertical ones, so the trefoil ``3`` gives (0, 1, 1); the abstract
    calls the a^2 sites right-turning.  Horizontal and vertical sites
    balance exactly when the site count is even, except the clasp,
    whose polynomial has no spread at all in the second-highest z row.
    """
    s = code.sites
    if s == 1 and code.crossings == 2:
        return (0, 1, 0)
    return (s // 2, s, (s + 1) // 2)


def minimal_code(code: ConwayCode) -> ConwayCode:
    """Smallest standard-format code with the same number of sites.

    That is two crossings at each end site and one at each interior
    site, except that a single site needs three crossings to close into
    something other than the clasp, which has no smaller standard form.
    """
    _require_code(code)
    if code.sites == 1:
        if code.crossings == 2:
            raise NotationError("the clasp has no smaller standard form")
        return ConwayCode((3,))
    return ConwayCode((2,) + (1,) * (code.sites - 2) + (2,))


def enumerate_standard(crossings: int) -> list[ConwayCode]:
    """All valid codes with the given crossing total, lexicographically.

    The first entry runs from 2 upward; later entries are free except
    that the last must reach 2.  Generation is depth-first with entries
    tried in increasing order, which yields lexicographic order.
    """
    if not _is_int(crossings):
        raise NotationError(f"crossing count must be an int, got {_shown(crossings)}")
    if crossings < 2:
        raise NotationError("standard-format codes need at least two crossings")
    out: list[ConwayCode] = []

    def extend(prefix: list[int], remaining: int) -> None:
        if remaining == 0:
            if prefix[-1] >= 2:
                out.append(ConwayCode(tuple(prefix)))
            return
        for e in range(1, remaining + 1):
            prefix.append(e)
            extend(prefix, remaining - e)
            prefix.pop()

    for first in range(2, crossings + 1):
        extend([first], crossings - first)
    return out
