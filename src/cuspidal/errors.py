"""Exception types shared across the library.

Grouped here so that lower modules can raise errors that higher modules
catch without import cycles.  Everything derives from CuspidalError, so
callers can catch the whole family at once.
"""

from __future__ import annotations


class CuspidalError(Exception):
    """Base class for all errors raised by this library."""


class InputError(CuspidalError, ValueError):
    """Input breaks a documented rule; the message names the rule."""


class NotInSemigroup(CuspidalError):
    """The integer has no representation a*n + b*m with a, b >= 0."""


class NotUniqueRange(CuspidalError):
    """Representation requested for a value >= n*m, where it stops being unique."""


class IndexOutOfRange(InputError):
    """A basis or truncation index outside the valid range."""


class ZeroForm(CuspidalError):
    """An operation needing a nonzero 1-form received the zero form."""


class QAboveOrder(CuspidalError):
    """Weight-q part requested for q above the divisorial order."""


class NotPreBasic(CuspidalError):
    """The form has no vertex, so resonance is undefined."""


class OrderTooLow(CuspidalError):
    """Series order below the conductor; integration step not available."""


class NotACusp(InputError):
    """PuiseuxCurve's refusal of a non-cusp: bad order or leading coefficient, or n < 2."""


class InternalDisagreement(CuspidalError):
    """Two independent routes to the same verdict disagreed; indicates a bug."""


class ZeroPivot(InputError):
    """The branch parameter a is zero, so the branch solve has no pivot."""


class NotDicritical(CuspidalError):
    """Invariant-branch solving requires a totally dicritical form."""


class VerificationFailure(CuspidalError):
    """A structure-theorem check failed; carries the report of its checks."""

    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report
