"""Exact rational arithmetic.

All coefficient arithmetic in the library is exact.  gmpy2's mpq replaces
the stdlib Fraction when gmpy2 is installed, with identical output.

Canonical text form: lowest terms, the sign on the numerator, no spaces,
denominator omitted when it is 1 ("3", "-11", "23/22").  Text of any
height is printed.  Rational and integer text share one grammar (ASCII
digits, a sign, surrounding whitespace), read up to the interpreter's
digit cap per integer (sys.get_int_max_str_digits(), 4300 by default
from CPython 3.11); a refusal echoes at most 20 characters of any text
or integer it was given (cut, and echo for quoted text).  Text off the
grammar or with a zero denominator raises errors.InputError, an integer
over the cap OverDigitCap, one kind of it.
"""

from __future__ import annotations

import re
import sys

from .errors import InputError

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Q

_INTEGER = re.compile(r"\s*([+-]?[0-9]+)\s*")
_TEXT = re.compile(_INTEGER.pattern + r"(?:/\s*([0-9]+)\s*)?")


def cut(value) -> str:
    """Text, a rational's canonical text at any height (so it cannot fail
    on one) or another value's repr, as it is up to 20 characters; longer,
    its first 20 characters and "..."."""
    text = value if isinstance(value, str) else (
        rat_to_str(value) if isinstance(value, (int, Q)) else repr(value))
    return text if len(text) <= 20 else text[:20] + "..."


def echo(text: str) -> str:
    """repr of text, cut to 20 characters and "..." when it is longer."""
    return repr(cut(text))


class OverDigitCap(InputError):
    """Text with an integer over the digit cap; names the rule."""

    def __init__(self, text: str):
        super().__init__("over the digit cap: an integer of more than %d "
                         "digits in %s" % (sys.get_int_max_str_digits(),
                                           echo(text)))


def is_int(x) -> bool:
    """An int that is not a bool: the library's one integer test."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_rational(x) -> bool:
    """An integer (is_int) or a Q: the library's one rational test."""
    return is_int(x) or isinstance(x, Q)


def rat(num, den=1):
    """Build an exact rational from integers (or another rational)."""
    return Q(num) if den == 1 and isinstance(num, (int, Q)) else Q(num, den)


def _read(grammar, text: str, what: str) -> list:
    """The integers of text's groups in grammar, 1 for an absent one; other
    text raises InputError, an integer over the digit cap OverDigitCap."""
    match = grammar.fullmatch(text)
    if match is None:
        raise InputError("not %s: %s" % (what, echo(text)))
    try:
        return [int(group) for group in match.groups("1")]
    except ValueError:  # the grammar admits digits only: it is the cap
        raise OverDigitCap(text) from None


def rat_from_str(text: str):
    """Parse "p" or "p/q" in ASCII digits, q nonzero and a sign allowed on
    p only; whitespace is tolerated, and any other text raises InputError,
    as does an integer over the digit cap (OverDigitCap, see the module)."""
    num, den = _read(_TEXT, text, "a rational")
    if not den:
        raise InputError("zero denominator in %s" % echo(text))
    return rat(num, den)


def int_from_str(text: str) -> int:
    """Parse "p" in the grammar of rat_from_str, which int() widens with
    underscores and non-ASCII digits; errors as in rat_from_str."""
    return _read(_INTEGER, text, "an integer")[0]


def _digits(k: int) -> str:
    """str(k) at any height: past the digit cap, str refuses, so k is
    split at 10^h, about half its digits, and each part is printed."""
    try:
        return str(k)
    except ValueError:
        if k < 0:
            return "-" + _digits(-k)
        h = k.bit_length() * 3 // 20  # log10(2) / 2 is about 3 / 20
        high, low = divmod(k, 10 ** h)
        return _digits(high) + _digits(low).zfill(h)


def rat_to_str(x) -> str:
    """Canonical text form of a rational or an int (see module docstring)."""
    text = _digits(x.numerator)
    return text if x.denominator == 1 else text + "/" + _digits(x.denominator)
