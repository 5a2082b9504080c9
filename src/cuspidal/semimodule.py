"""Gamma-semimodules: sets closed under addition by <n, m>.

A semimodule Lambda = Gamma(lambda_-1, ..., lambda_s) is the union of the
translated semigroups lambda_j + Gamma.  The library works with the unique
minimal system of generators, ordered increasingly; generators are then
automatically pairwise non-congruent mod n, so a semimodule of a cusp has
at most n of them.

Everything here is exact residue-class arithmetic.  Each lambda_j + Gamma
meets a residue class r mod n in a full arithmetic ray of step n, so a
semimodule is described completely by the n starting points of those rays
(the per-class minima).  Axes, limits, conductors and level sets all come
out of these tables with no unbounded search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IndexOutOfRange, InputError
from .rationals import cut, integer, is_int
from .semigroup import PuiseuxPair


def _scan(pair: PuiseuxPair, generators) -> tuple:
    """The greedy per-class scan behind the constructor and minimal_basis,
    and the owner of their rules: a nonempty system of integers >= 0.

    Walks the generators in the given (increasing) order and keeps those
    outside the semimodule of the ones already kept; the smallest element
    of the complement is always a generator, so the pass is exact.  The
    ray lam + Gamma starts in class r at lam + apery[(r - lam) mod n], and
    a semimodule's table is the per-class minimum of its rays.  Returns
    the kept generators, their axes (the first generator, then where each
    new ray meets the semimodule of the earlier ones) and the table after
    each kept generator.
    """
    if not generators:
        raise InputError("empty generator system")
    if not all(map(is_int, generators)):
        raise InputError("generators must be integers")
    if min(generators) < 0:
        raise InputError("generators must be non-negative")
    n, apery = pair.n, pair.apery
    kept, axes, tables = [], [], []
    for g in generators:
        if tables and g >= tables[-1][g % n]:
            continue
        # sized lists, then tuples: tuple() over an iterator here raised
        # the peak RSS of verify --all-semiroots runs by about 3 %
        ray = [g + apery[(r - g) % n] for r in range(n)]
        if tables:
            # both sides are unions of per-class rays of step n, so their
            # intersection in class r starts at the larger start
            axes.append(min(map(max, tables[-1], ray)))
            tables.append(tuple([min(a, b) for a, b in zip(tables[-1], ray)]))
        else:
            axes.append(g)
            tables.append(tuple(ray))
        kept.append(g)
    return tuple(kept), tuple(axes), tuple(tables)


class GammaSemimodule:
    """A Gamma-semimodule presented by its minimal basis.

    The constructor converts no generator and validates minimality (each
    must lie outside the semimodule spanned by the earlier ones): after
    _scan's rules it rejects unsorted or redundant systems; use
    minimal_basis() to normalize arbitrary generators first.

    Attributes
    ----------
    pair : PuiseuxPair, whose semigroup Gamma = <n, m> acts on the semimodule
    basis : tuple of int, the generators lambda_-1 < lambda_0 < ... < lambda_s
    axes : tuple of int, (u_0, ..., u_{s+1}) where u_0 = lambda_-1 and
        u_i = min of Lambda_{i-2} intersected with (lambda_{i-1} + Gamma)
    critical_orders : tuple of int or None, (t_-1, ..., t_{s+1}) defined by
        t_-1 = n, t_0 = m, t_i = t_{i-1} + u_i - lambda_{i-1}; present only
        when the basis starts with (n, m)
    conductor : int, least c with [c, oo) contained in the semimodule
    """

    __slots__ = ("pair", "basis", "axes", "critical_orders", "conductor",
                 "_prefix_tables")

    def __init__(self, pair: PuiseuxPair, basis):
        basis = tuple(basis)
        kept, axes, tables = _scan(pair, basis)
        if any(x >= y for x, y in zip(basis, basis[1:])):
            raise InputError("generators must be strictly increasing; "
                             "call minimal_basis() to normalize")
        if kept != basis:
            extra = next(b for b in basis if b not in kept)
            raise InputError("generator %s is redundant: already in the "
                             "semimodule of the previous ones" % cut(extra))
        self.pair = pair
        self.basis = basis
        self.axes = axes
        self._prefix_tables = tables
        n, m = pair.n, pair.m
        self.conductor = max(0, max(tables[-1]) - n + 1)

        self.critical_orders = None
        if len(basis) >= 2 and basis[0] == n and basis[1] == m:
            t = [n, m]
            for i in range(1, len(basis)):
                t.append(t[-1] + self.axes[i] - basis[i])
            self.critical_orders = tuple(t)

    # s in the lambda_-1 .. lambda_s indexing
    @property
    def s_index(self) -> int:
        return len(self.basis) - 2

    def contains(self, p: int) -> bool:
        if not is_int(p):  # inline, as in semigroup.contains
            integer(p, "semimodule element")
        if p < 0:
            return False
        return p >= self._prefix_tables[-1][p % self.pair.n]

    def truncated(self, k: int) -> "GammaSemimodule":
        """The semimodule of the generators lambda_-1 .. lambda_k, k <= s."""
        integer(k, "truncation index", -1, self.s_index, IndexOutOfRange)
        return GammaSemimodule(self.pair, self.basis[:k + 2])

    def __eq__(self, other):
        return (isinstance(other, GammaSemimodule)
                and self.pair == other.pair and self.basis == other.basis)

    def __hash__(self):
        return hash((self.pair, self.basis))

    def __repr__(self):
        return "GammaSemimodule(<%d,%d>; %s)" % (
            self.pair.n, self.pair.m, list(self.basis))


@dataclass(frozen=True)
class Limits:
    """ell1 = min{p >= 1 : n p + lambda_i in Lambda_{i-1}}, ell2 likewise with m."""

    ell1: int
    ell2: int

    def __iter__(self):
        return iter((self.ell1, self.ell2))


@dataclass(frozen=True)
class LevelSet:
    """Indices (via k -> k*m mod n) of the members found in I_q = [nq, nq+n-1]."""

    q: int
    members: frozenset


@dataclass(frozen=True)
class Tops:
    q1: int
    q2: int
    main: int


def minimal_basis(pair: PuiseuxPair, generators) -> tuple:
    """The minimal generator system of the semimodule spanned by `generators`.

    The greedy scan of _scan, and its rules, over the sorted generators.

    minimal_basis(<5,11>, {5, 11, 16, 17}) == (5, 11, 17)
    minimal_basis(<5,11>, {5}) == (5,)
    """
    gens = tuple(generators)
    # only integers are sorted: _scan refuses any other input as given
    return _scan(pair, sorted(set(gens))
                 if all(map(is_int, gens)) else gens)[0]


def limits(sm: GammaSemimodule, i: int) -> Limits:
    """Limits of the truncation Lambda_i, for 0 <= i <= s.

    Read off the table of Lambda_{i-1}: lambda_i + step p is a member once
    it reaches the start of its class's ray, and p + n falls in the class
    of p, so each p = 1 .. n is lifted by whole periods until it gets
    there and the limit is the least lifted p (step = n, resp. m).
    """
    integer(i, "limits index", 0, sm.s_index, IndexOutOfRange)
    n, m = sm.pair.n, sm.pair.m
    lam, table = sm.basis[i + 1], sm._prefix_tables[i]

    def first(step: int) -> int:
        # value v climbs ceil((start - v) / (step n)) periods, if under it
        return min(p + n * max(0, -((v - table[v % n]) // (step * n)))
                   for p, v in ((p, lam + step * p) for p in range(1, n + 1)))

    return Limits(first(n), first(m))


def is_increasing(sm: GammaSemimodule) -> bool:
    """Whether lambda_i > u_i for every 0 <= i <= s."""
    return all(sm.basis[i + 1] > sm.axes[i] for i in range(len(sm.basis) - 1))


def level_set(sm: GammaSemimodule, q: int) -> LevelSet:
    """Classes hit by the semimodule inside the window I_q = [nq, n(q+1)-1].

    Classes are indexed by k -> the class of k*m, which straightens the
    members into the circular-interval picture.
    """
    if integer(q, "level index") < 0:
        raise InputError("level index must be >= 0")
    n = sm.pair.n
    minv = sm.pair.m_inverse_mod_n
    hits = frozenset((p * minv) % n
                     for p in range(n * q, n * q + n) if sm.contains(p))
    return LevelSet(q, hits)


def ray_level_set(pair: PuiseuxPair, mu: int, q: int) -> frozenset:
    """Level set of the single ray mu + Gamma (same indexing as level_set)."""
    return level_set(GammaSemimodule(pair, (mu,)), q).members


def is_circular_interval(members, n: int) -> bool:
    """True when the subset of Z/n is empty, full, or one contiguous cyclic arc."""
    transitions = sum(1 for r in range(n)
                      if (r in members) != ((r + 1) % n in members))
    return transitions in (0, 2)


def tops(sm: GammaSemimodule) -> Tops:
    """Window indices of the two limit multiples of the last generator.

    q1 carries lambda_s + n*ell1, q2 carries lambda_s + m*ell2; the main
    top is the larger.  Level sets are circular intervals from the window
    of u_{s+1} on, and the conductor sits below n*(main - 1) for
    increasing semimodules whose first generator is a multiple of n.
    """
    if len(sm.basis) < 2:
        raise IndexOutOfRange("tops need at least two generators")
    lim = limits(sm, sm.s_index)
    n, m = sm.pair.n, sm.pair.m
    lam = sm.basis[-1]
    q1 = (lam + n * lim.ell1) // n
    q2 = (lam + m * lim.ell2) // n
    return Tops(q1, q2, max(q1, q2))
