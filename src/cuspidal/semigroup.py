"""Numerical semigroup of a cusp with a single characteristic pair.

A branch (t^n, a t^m + ...) with gcd(n, m) = 1 has value semigroup
Gamma = <n, m> = {a*n + b*m : a, b >= 0}.  This module holds the pair,
which is the semigroup: membership and representation queries take it and
read its per-residue minima (no enumeration).  It also holds the co-pair
(b, d) with d*n - b*m = 1 that drives the region geometry of the 1-forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import (InputError, InternalDisagreement, NotInSemigroup,
                     NotUniqueRange)
from .rationals import cut, integer, is_int


@dataclass(frozen=True)
class PuiseuxPair:
    """A coprime pair (n, m) of integers (rationals.is_int), 1 <= n <= m,
    and so the semigroup <n, m>; repr, == and hash read (n, m) alone.

    n = 1 is legal here (the blow-up chain walks down to (1, 1));
    series.PuiseuxCurve refuses it, as a smooth branch.
    """

    n: int
    m: int

    def __post_init__(self):
        if not (is_int(self.n) and is_int(self.m)):
            raise InputError("pair entries must be integers")
        if not 1 <= self.n <= self.m:
            raise InputError("need 1 <= n <= m, got (%s, %s)"
                             % (cut(self.n), cut(self.m)))
        if math.gcd(self.n, self.m) != 1:
            raise InputError("pair (%s, %s) is not coprime"
                             % (cut(self.n), cut(self.m)))

    @cached_property
    def apery(self) -> tuple:
        """apery[r] = b*m with b = r m^-1 mod n, the least member in class
        r: p is a member iff p >= apery[p mod n].  Built on first use."""
        minv = self.m_inverse_mod_n
        return tuple(((r * minv) % self.n) * self.m for r in range(self.n))

    @property
    def conductor(self) -> int:
        """Conductor (n-1)(m-1) of <n, m>: least c with [c, oo) inside the semigroup."""
        return (self.n - 1) * (self.m - 1)

    @property
    def m_inverse_mod_n(self) -> int:
        """m^-1 mod n (0 when n = 1, where every residue is 0 anyway)."""
        return pow(self.m, -1, self.n)


@dataclass(frozen=True)
class GammaRepresentation:
    """Witness p = a*n + b*m with a, b >= 0."""

    p: int
    a: int
    b: int


def contains(pair: PuiseuxPair, p: int) -> bool:
    """Membership p in <n, m>, answered by the residue table; a p that is
    not an integer raises InputError.

    Examples: 16 in <5, 11>; 0 in <5, 11>; 39 not in <5, 11>.
    """
    if not is_int(p):  # inline: the rule's call costs on this hot path
        integer(p, "semigroup element")
    if p < 0:
        return False
    return p >= pair.apery[p % pair.n]


def represent(pair: PuiseuxPair, p: int) -> GammaRepresentation:
    """The unique (a, b) with p = a*n + b*m, valid for members p < n*m.

    Raises InputError for a p that is not an integer, NotUniqueRange for
    p >= n*m (several representations exist there) and NotInSemigroup for
    non-members.
    """
    n, m = pair.n, pair.m
    if integer(p, "semigroup element") >= n * m:
        raise NotUniqueRange("representation of %s >= %s is not unique"
                             % (cut(p), cut(n * m)))
    return minimal_b_representation(pair, p)


def minimal_b_representation(pair: PuiseuxPair, p: int) -> GammaRepresentation:
    """Representation of any member with the least possible b (a as large as needed).

    Unlike represent() this works above n*m; used by the greedy
    integration step where orders run past the conductor.
    """
    n, m = pair.n, pair.m
    if not contains(pair, p):
        raise NotInSemigroup("%s is not in <%s, %s>"
                             % (cut(p), cut(n), cut(m)))
    b = (p * pair.m_inverse_mod_n) % n
    a = (p - b * m) // n
    return GammaRepresentation(p, a, b)


def copair(pair: PuiseuxPair) -> tuple:
    """The co-pair (b, d) with d*n - b*m = 1, 0 <= b < n and 0 < d <= m.

    copair((5, 11)) = (4, 9); copair((4, 9)) = (3, 7); copair((1, 1)) = (0, 1).
    """
    n, m = pair.n, pair.m
    if m == 1:
        # then n == 1 and the only admissible solution is d = 1, b = 0
        return (0, 1)
    d = pow(n, -1, m)
    b = (d * n - 1) // m
    if not (d * n - b * m == 1 and 0 <= b < n and 0 < d <= m):
        raise InternalDisagreement("co-pair %r off for %r" % ((b, d), (n, m)))
    return (b, d)
