"""Mechanical checks tying polynomial coefficients to twist-site counts.

verify_code makes one VerificationReport per code; verify_mirror,
verify_connected_sum and check_diagram each make one per diagram.  A
report holds named boolean checks plus the computed and predicted
coefficient triples, JSON-serializable for scripting.  A check that
evaluates a diagram with the skein engine keeps that Lambda in the
report's ``polynomial``, which is not serialized, so callers print it
instead of evaluating it again.  Nothing here ever adjusts a computed
value to match a prediction; a failed check stays failed in the report.

Checks on a code evaluate its standard build once with the
transfer-matrix engine (``lambda_code``).  Diagrams that are not a
standard build go to the skein engine: connected sums, and mirrors and
PD input, whose reports are ``check_diagram``'s.
"""

from __future__ import annotations

from .diagram import DiagramError, LinkDiagram, build_standard, connected_sum, mirror
from .kauffman import (
    LaurentPoly2,
    TopDegreeMismatchError,
    lambda_code,
    lambda_poly,
    truncate,
)
from .notation import (
    ConwayCode,
    NotationError,
    _is_int,
    _shown,
    enumerate_standard,
    predicted_u,
)

TOP_HEAVY = "top_heavy"
BOTTOM_HEAVY = "bottom_heavy"
BALANCED = "balanced"

MAX_SWEEP_CROSSINGS = 16


class VerificationReport:
    def __init__(
        self,
        input: str,
        crossings: int,
        sites: int | None = None,
        computed_u: tuple[int, int, int] | None = None,
        predicted: tuple[int, int, int] | None = None,
        polynomial: LaurentPoly2 | None = None,
    ) -> None:
        self.input = input
        self.crossings = crossings
        self.sites = sites
        self.computed_u = computed_u
        self.predicted = predicted
        self.checks: dict[str, bool] = {}
        self.polynomial = polynomial  # the diagram's Lambda; not serialized
        self.failure: str | None = None  # why a check failed; not serialized

    @property
    def overall(self) -> bool:
        return all(self.checks.values())

    def as_dict(self) -> dict:
        return {
            "input": self.input,
            "c": self.crossings,
            "sites": self.sites,
            "computed_u": list(self.computed_u) if self.computed_u else None,
            "predicted_u": list(self.predicted) if self.predicted else None,
            "checks": dict(self.checks),
            "overall": self.overall,
        }

    def summary(self) -> str:
        bits = [f"{self.input}: c={self.crossings}"]
        if self.sites is not None:
            bits.append(f"sites={self.sites}")
        if self.computed_u is not None:
            bits.append(f"u={self.computed_u}")
        if self.predicted is not None:
            bits.append(f"predicted={self.predicted}")
        flags = " ".join(
            f"{name}={'ok' if good else 'FAIL'}" for name, good in self.checks.items()
        )
        status = "PASS" if self.overall else "FAIL"
        return "  ".join(bits) + "  [" + flags + "]  " + status


def chirality_class(u: tuple[int, int, int]) -> str:
    """Classify the a-spread (u_minus, u_zero, u_plus) of the z^(c-2) row."""
    u_minus, _, u_plus = u
    if u_plus > u_minus:
        return TOP_HEAVY
    if u_plus < u_minus:
        return BOTTOM_HEAVY
    return BALANCED


def amphicheiral_obstruction(code: ConwayCode) -> str:
    """'obstructed' when the site counts alone rule out amphicheirality.

    A mirror image swaps u_plus and u_minus, so a link whose predicted
    triple is unbalanced cannot equal its mirror.  Everything else is
    'inconclusive'; a balanced top row proves nothing.
    """
    if chirality_class(predicted_u(code)) == BALANCED:
        return "inconclusive"
    return "obstructed"


def verify_connected_sum(code1: ConwayCode, code2: ConwayCode) -> VerificationReport:
    """Check multiplicativity and the degree deficit of a connected sum."""
    p1, p2 = lambda_code(code1), lambda_code(code2)
    d = connected_sum(build_standard(code1), build_standard(code2))
    p = lambda_poly(d)
    c = d.crossings
    rep = VerificationReport(input=f"{code1} # {code2}", crossings=c, polynomial=p)
    rep.checks["product_match"] = p == p1 * p2
    rep.checks["sum_top_degree"] = p.max_z() == c - 2
    return rep


def check_diagram(
    d: LinkDiagram,
    expected: tuple[int, int, int] | None = None,
    name: str = "diagram",
    cache=None,
) -> VerificationReport:
    """Truncate an externally supplied diagram and report what is found.

    No site-count prediction is applied; for a non-rational diagram
    there is nothing to predict, only coefficients to report and
    optionally compare against the caller's expectation, a triple of
    nonnegative ints.  When the two top z rows do not have the
    alternating shape, top_pair fails, it is the only check, and
    ``failure`` says why.
    """
    if expected is not None and not (
        isinstance(expected, (list, tuple))
        and len(expected) == 3
        and all(_is_int(n) and n >= 0 for n in expected)
    ):
        raise DiagramError("expected wants three nonnegative ints: u_minus, u_zero, u_plus")
    p = lambda_poly(d, cache)
    rep = VerificationReport(input=name, crossings=d.crossings, polynomial=p)
    try:
        u = truncate(p, d.crossings)
    except TopDegreeMismatchError as exc:
        rep.checks["top_pair"] = False
        rep.failure = str(exc)
        return rep
    rep.computed_u = u
    rep.checks["degree_bounds"] = p.max_weight() <= d.crossings
    rep.checks["top_pair"] = True
    if expected is not None:
        rep.checks["expected_match"] = u == tuple(expected)
    return rep


def verify_mirror(code: ConwayCode) -> VerificationReport:
    """``check_diagram`` of the mirrored build, plus substitution_match (a -> 1/a).

    A mirror turns every twist site the other way, so ``predicted`` is the
    code's own triple, read off the transfer walk, with its ends swapped.
    """
    p = lambda_code(code)  # first: it refuses a code past its budget up front
    rep = check_diagram(mirror(build_standard(code)), name=str(code))
    rep.predicted = truncate(p, code.crossings)[::-1]
    rep.checks["substitution_match"] = rep.polynomial == p.mirror_a()
    return rep


def verify_code(code: ConwayCode) -> VerificationReport:
    """Run every check that applies to one code on one transfer walk of its build.

    degree_bounds checks that every term has z_exp + |a_exp| at most c;
    that the z-degree is c - 1 is already proved by ``truncate``.
    theorem_match compares the whole truncated triple with the
    site-count prediction.
    """
    p = lambda_code(code)
    c = code.crossings
    u = truncate(p, c)
    expect = predicted_u(code)
    rep = VerificationReport(
        input=str(code), crossings=c, sites=code.sites, computed_u=u, predicted=expect
    )
    rep.checks["degree_bounds"] = p.max_weight() <= c
    rep.checks["theorem_match"] = u == expect
    return rep


def sweep(max_crossings: int) -> list[VerificationReport]:
    """verify_code over every standard code with 2..max_crossings crossings.

    There are 2^(N-2) codes up to N crossings, so a sweep above
    MAX_SWEEP_CROSSINGS is refused up front rather than left running.
    """
    if not _is_int(max_crossings):
        raise NotationError(f"crossing count must be an int, got {_shown(max_crossings)}")
    if max_crossings < 2:
        raise NotationError("standard-format codes need at least two crossings")
    if max_crossings > MAX_SWEEP_CROSSINGS:
        raise NotationError(
            f"sweeps stop at {MAX_SWEEP_CROSSINGS} crossings, got {_shown(max_crossings)}"
        )
    return [
        verify_code(code)
        for c in range(2, max_crossings + 1)
        for code in enumerate_standard(c)
    ]
