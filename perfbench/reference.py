"""Reference values the benchmark checks results against.

``reference.json`` holds, for every standard code up to MAX_CROSSINGS
crossings, a digest of its sorted Lambda terms.  The digests were made
once by the engine at the commit that introduced the benchmark and are
never regenerated by a benchmark run, so a later engine is checked
against a fixed record rather than against itself.  The expected twist
triple comes from the closed formula below, not from ``predicted_u``.

Regenerate it, confirming every code up to CONFIRM_UNCACHED crossings
with memoization off, with

    python3 perfbench/reference.py
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
MAX_CROSSINGS = 10
CONFIRM_UNCACHED = 9  # largest crossing count recomputed with TWISTLAB_CACHE=off


def digest(terms, mirrored: bool = False) -> str:
    """Digest of (a_exp, z_exp, coeff) terms, sorted here, not by the engine.

    ``mirrored`` applies a -> 1/a first, which turns the polynomial of a
    mirror image back into that of the original build.
    """
    rows = sorted((-a if mirrored else a, z, c) for a, z, c in terms)
    return hashlib.sha256(json.dumps(rows).encode("ascii")).hexdigest()[:24]


def expected_u(entries, mirrored: bool = False) -> tuple[int, int, int]:
    """(u_minus, u_zero, u_plus) for the standard build of a code.

    Twist sites split floor(s/2) / ceil(s/2) by turning direction; the
    two-crossing clasp has no handedness.  A mirror swaps the ends.
    """
    s, c = len(entries), sum(entries)
    u = (0, 1, 0) if (s, c) == (1, 2) else (s // 2, s, (s + 1) // 2)
    return u[::-1] if mirrored else u


def load(path=REFERENCE_FILE) -> dict[str, str]:
    """Code string -> digest of its Lambda terms."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["codes"]


def _build(max_crossings: int, confirm_uncached: int) -> dict:
    from twistlab import build_standard, enumerate_standard, lambda_poly

    codes = {}
    memo: dict = {}
    for c in range(2, max_crossings + 1):
        for code in enumerate_standard(c):
            codes[str(code)] = digest(lambda_poly(build_standard(code), memo).terms())
    os.environ["TWISTLAB_CACHE"] = "off"
    confirmed = 0
    for c in range(2, confirm_uncached + 1):
        for code in enumerate_standard(c):
            t0 = time.perf_counter()
            got = digest(lambda_poly(build_standard(code)).terms())
            if got != codes[str(code)]:
                raise SystemExit(f"uncached Lambda of {code} disagrees with the memoized one")
            confirmed += 1
            print(f"confirmed {code} uncached in {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    return {
        "max_crossings": max_crossings,
        "confirmed_uncached_max_crossings": confirm_uncached,
        "confirmed_uncached_codes": confirmed,
        "codes": codes,
    }


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    data = _build(MAX_CROSSINGS, CONFIRM_UNCACHED)
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(data['codes'])} digests to {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
