"""Brute-force enumeration oracles used to cross-check the fast routes.

Everything in this file works by listing set members up to an explicit
bound, with none of the residue-class shortcuts the library itself uses.
"""

from __future__ import annotations


def semigroup_members(n: int, m: int, bound: int) -> set:
    out = set()
    for a in range(0, bound // n + 1):
        for b in range(0, (bound - a * n) // m + 1):
            v = a * n + b * m
            if v < bound:
                out.add(v)
    return out


def semimodule_members(n: int, m: int, basis, bound: int) -> set:
    gamma = semigroup_members(n, m, bound)
    out = set()
    for lam in basis:
        out.update(lam + g for g in gamma if lam + g < bound)
    return out


def enum_bound(n: int, m: int, basis) -> int:
    # large enough for every conductor/axis/limit question below
    return (n - 1) * (m - 1) + max(basis) + 2 * n * m + 1


def conductor_of(members: set, bound: int) -> int:
    worst = -1
    for p in range(bound):
        if p not in members:
            worst = p
    return worst + 1


def minimal_basis_of(n: int, m: int, generators) -> tuple:
    bound = enum_bound(n, m, generators)
    target = semimodule_members(n, m, generators, bound)
    kept = []
    while True:
        have = semimodule_members(n, m, kept, bound) if kept else set()
        rest = target - have
        if not rest:
            return tuple(kept)
        kept.append(min(rest))


def axes_of(n: int, m: int, basis) -> tuple:
    """u_i by enumerating lambda_{i-1} + Gamma against the earlier prefix."""
    basis = tuple(basis)
    bound = enum_bound(n, m, basis)
    out = [basis[0]]
    for i in range(1, len(basis)):
        prefix = semimodule_members(n, m, basis[:i], bound)
        ray = semimodule_members(n, m, (basis[i],), bound)
        out.append(min(prefix & ray))
    return tuple(out)


def limits_of(n: int, m: int, basis, i: int) -> tuple:
    basis = tuple(basis)
    bound = enum_bound(n, m, basis)
    prefix = semimodule_members(n, m, basis[:i + 1], bound)
    lam = basis[i + 1]
    ell1 = next(p for p in range(1, bound) if n * p + lam in prefix)
    ell2 = next(p for p in range(1, bound) if m * p + lam in prefix)
    return (ell1, ell2)


def level_set_of(n: int, m: int, members: set, q: int) -> frozenset:
    """Indices k (class of k*m mod n) of the members in [nq, nq + n - 1]."""
    return frozenset(k for p in range(n * q, n * q + n) if p in members
                     for k in range(n) if (k * m - p) % n == 0)
