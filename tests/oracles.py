"""Reference routes used to cross-check the fast ones.

The enumeration oracles list set members up to an explicit bound, with
none of the residue-class shortcuts the library itself uses.
branch_by_rationals is the invariant-branch solver as it stood before the
library's went fraction-free: the same recursion, on reduced rationals.
pullback_function_by_rationals, pullback_form_by_rationals and
integrate_by_rationals are the pullbacks and the potential as they stood
before the curve's power table went fraction-free: the same formulas on
reduced rationals, with every power y^b a repeated product of y.
FractionGcdCounter counts the normalisations of fractions.Fraction for
the tests that bound them.
"""

from __future__ import annotations

import fractions
import math
import types

from cuspidal.blowup import is_totally_dicritical
from cuspidal.errors import NotDicritical, OrderTooLow, ZeroPivot
from cuspidal.forms import BivariatePolynomial, nu_E_form
from cuspidal.rationals import ZERO, rat
from cuspidal.semigroup import minimal_b_representation
from cuspidal.series import PuiseuxCurve, TruncatedSeries, default_truncation


class FractionGcdCounter:
    """Counts the math.gcd calls fractions.Fraction makes while installed."""

    def __init__(self, monkeypatch):
        self.calls = 0
        real_gcd = math.gcd

        def gcd(*args):
            self.calls += 1
            return real_gcd(*args)
        shim = types.ModuleType("math")
        shim.__dict__.update(math.__dict__)
        shim.gcd = gcd
        monkeypatch.setattr(fractions, "math", shim)


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


def _rational_powers(curve):
    """power(b, prec): y^b on rationals below prec, all of it for None or
    prec above T, by repeated products of y."""
    powers = [TruncatedSeries.monomial(0, 1)]

    def power(b, prec=None):
        while len(powers) <= b:
            powers.append(powers[-1] * curve.y)
        if prec is None or prec > curve.trunc:
            return powers[b]
        return powers[b].truncate(prec)
    return power


def pullback_function_by_rationals(curve, h, prec=None):
    """h(phi(t)) as the sum of c t^(n a) y^b below prec."""
    coeffs = h.coeffs if isinstance(h, BivariatePolynomial) else dict(h)
    power = _rational_powers(curve)
    n = curve.pair.n
    out = TruncatedSeries.zero(prec)
    for (a, b), c in coeffs.items():
        if c != 0:
            out = out + power(b, prec).shifted(n * a).scaled(c)
    return out


def pullback_form_by_rationals(curve, omega, prec=None):
    """a(t) with phi*(omega) = a(t) dt/t: c x^a y^b dx gives
    c n t^(n (a+1)) y^b and c x^a y^b dy gives c t^(n a) theta(y) y^b,
    read as theta(y^(b+1)) / (b + 1)."""
    power = _rational_powers(curve)
    n = curve.pair.n
    out = TruncatedSeries.zero(prec)
    for (a, b), c in omega.A.items():
        out = out + power(b, prec).shifted(n * (a + 1)).scaled(c * n)
    for (a, b), c in omega.B.items():
        weight = power(b + 1, prec).theta().scaled(rat(1, b + 1))
        out = out + weight.shifted(n * a).scaled(c)
    return out


def integrate_by_rationals(curve, xi):
    """A polynomial h with h(phi(t)) = integral of xi: greedily, the least-b
    monomial x^a y^b of weight r kills the residual's leading order r."""
    if xi.is_zero():
        return BivariatePolynomial.zero()
    if xi.order_lb() < curve.gamma.conductor:
        raise OrderTooLow("integrand order %s below the conductor %d"
                          % (xi.order_lb(), curve.gamma.conductor))
    power = _rational_powers(curve)
    n = curve.pair.n
    alpha = curve.y.coefficient(curve.pair.m)
    residual = xi.antiderivative()
    out = {}
    while not residual.is_zero():
        r = residual.order_lb()
        rep = minimal_b_representation(curve.gamma, r)
        c = residual.coefficient(r) / alpha ** rep.b
        out[(rep.a, rep.b)] = c
        residual = residual - power(rep.b).shifted(n * rep.a).scaled(c)
        assert residual.order_lb() > r
    return BivariatePolynomial(out)
