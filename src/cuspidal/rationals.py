"""Exact rational arithmetic.

All coefficient arithmetic in the library is exact.  gmpy2's mpq is used
when available because it is several times faster than the stdlib Fraction
on the long truncated-series computations; Fraction is a drop-in fallback
with identical semantics for everything we do.

Canonical text form: lowest terms, the sign on the numerator, no spaces,
denominator omitted when it is 1 ("3", "-11", "23/22").
"""

from __future__ import annotations

import re

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Q

ZERO = Q(0)
_TEXT = re.compile(r"\s*([+-]?[0-9]+)\s*(?:/\s*([0-9]+)\s*)?")


def rat(num, den=1):
    """Build an exact rational from integers (or another rational)."""
    return Q(num) if den == 1 and isinstance(num, (int, Q)) else Q(num, den)


def rat_from_str(text: str):
    """Parse "p" or "p/q" in ASCII digits, a sign allowed on p only;
    whitespace is tolerated, and any other text raises ValueError."""
    match = _TEXT.fullmatch(text)
    if match is None:
        raise ValueError("not a rational: %r" % text)
    return rat(int(match[1]), int(match[2] or 1))


def rat_to_str(x) -> str:
    """Canonical text form of a rational or an int (see module docstring)."""
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)
