"""Reference routes used to cross-check the fast ones.

The enumeration oracles list set members up to an explicit bound, with
none of the residue-class shortcuts the library itself uses.
branch_by_rationals is the invariant-branch solver as it stood before the
library's went fraction-free: the same recursion, on reduced rationals.
"""

from __future__ import annotations

from cuspidal.blowup import is_totally_dicritical
from cuspidal.errors import NotDicritical, ZeroPivot
from cuspidal.forms import nu_E_form
from cuspidal.rationals import ZERO, rat
from cuspidal.series import PuiseuxCurve, default_truncation


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


def branch_by_rationals(omega, a, trunc=None):
    """The invariant branch (t^n, a t^m + ...) of omega, order by order
    on rationals: at order q + r the t^(q+r) coefficient of the pullback
    is linear in y_{m+r} with pivot r zeta a^(beta - 1) at the vertex."""
    pair = omega.pair
    n, m = pair.n, pair.m
    a = rat(a)
    verdict = is_totally_dicritical(omega)
    if not verdict:
        raise NotDicritical("form has no invariant branch family: %r" % omega)
    if a == 0:
        raise ZeroPivot("branch parameter a must be nonzero")
    if trunc is None:
        trunc = default_truncation(pair)
    q = nu_E_form(omega)
    points = sorted(omega.cloud.items())
    top_beta = max(be for (_, be), _ in points)
    apow = [rat(1)]
    for _ in range(top_beta):
        apow.append(apow[-1] * a)
    beta = verdict.vertex[1]
    pivot = omega.cloud[verdict.vertex][1] * apow[beta - 1]
    # P[b]: coefficients of y(t)^b; entry m b + r holds the partial sum
    # without y_{m+r} until y_{m+r} is known
    P = [dict() for _ in range(top_beta + 1)]
    P[0][0] = rat(1)
    for b in range(1, top_beta + 1):
        P[b][m * b] = apow[b]
    weights = [(n * al, P[be], n * mu, ze / be if be else ZERO)
               for (al, be), (mu, ze) in points]
    y = {m: a}
    for r in range(1, trunc - q):
        for b in range(1, top_beta + 1):
            acc = rat(0)
            prev = P[b - 1]
            base = m * b + r
            for u, yu in y.items():
                v = prev.get(base - u)
                if v is not None:
                    acc += yu * v
            if acc != 0:
                P[b][base] = acc
        K = q + r
        known = rat(0)
        for nal, row, nmu, zb in weights:
            idx = K - nal
            c = row.get(idx)
            if c:
                known += c * (nmu + zb * idx)
        y_new = -known / (rat(r) * pivot)
        if y_new != 0:
            y[m + r] = y_new
        for b in range(1, top_beta + 1):
            full = P[b].pop(m * b + r, ZERO) + rat(b) * apow[b - 1] * y_new
            if full != 0:
                P[b][m * b + r] = full
    return PuiseuxCurve(pair, y, trunc)
