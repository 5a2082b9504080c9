"""Reference routes used to cross-check the fast ones.

The enumeration oracles list set members up to an explicit bound, with
none of the residue-class shortcuts the library itself uses.
branch_by_rationals is the invariant-branch solver as it stood before the
library's went fraction-free: the same recursion, on reduced rationals.
pullback_function_by_rationals, pullback_form_by_rationals and
integrate_by_rationals are the pullbacks and the potential as they stood
before the curve's power table went fraction-free: the same formulas on
reduced rationals, with every power y^b a repeated product of y.
cancel_by_rationals and oracle_by_rationals are the cancellation engine
and the semimodule oracle as they stood before they went fraction-free:
the same eliminations on reduced rational pullbacks.
combination_by_rationals is the level sum sum f_ell omega_ell of the
construction and of Delorme's certificate, on reduced rationals.
combine, theta and antiderivative are the rational series arithmetic
these references need, which the library itself no longer carries.
FractionGcdCounter counts the normalisations of fractions.Fraction for
the tests that bound them.  no_digit_cap lifts the interpreter's cap on
int-text conversion, so that a test can read text of any height.
random_coprime_pair and random_increasing_semimodule draw the pairs and
the increasing semimodules of the combinatorial suites.
"""

from __future__ import annotations

import contextlib
import fractions
import math
import random
import sys
import types

from cuspidal.blowup import is_totally_dicritical
from cuspidal.errors import (InternalDisagreement, NotDicritical, OrderTooLow,
                             ZeroPivot)
from cuspidal.forms import BivariatePolynomial, OneForm, nu_E_form
from cuspidal.rationals import Q, rat
from cuspidal.semigroup import PuiseuxPair, minimal_b_representation
from cuspidal.semimodule import GammaSemimodule, minimal_basis
from cuspidal.series import (PuiseuxCurve, TruncatedSeries, default_truncation,
                             pullback_form)
from cuspidal.stdbasis import TraceStep, _cancellation_site

ZERO = Q(0)


def combine(terms, trunc=None):
    """The sum of c t^shift f over the (f, c, shift) in terms, on reduced
    rationals, known below trunc and below every f's shifted truncation."""
    bound = math.inf if trunc is None else trunc
    out = {}
    for f, c, shift in terms:
        bound = min(bound, f.trunc + shift)
        for k, v in f.coeffs.items():
            out[k + shift] = out.get(k + shift, ZERO) + c * v
    return TruncatedSeries(out, bound)


def theta(f):
    """t d/dt, the logarithmic derivative operator."""
    return TruncatedSeries({k: k * v for k, v in f.coeffs.items()}, f.trunc)


def antiderivative(f):
    """Termwise integral with zero constant term."""
    return TruncatedSeries({k + 1: v / (k + 1) for k, v in f.coeffs.items()},
                           f.trunc + 1)


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


@contextlib.contextmanager
def no_digit_cap():
    if not hasattr(sys, "set_int_max_str_digits"):  # no cap before 3.11
        yield
        return
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


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
    powers = [TruncatedSeries({0: 1})]

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
    return combine([(power(b, prec), c, n * a)
                    for (a, b), c in coeffs.items() if c != 0], prec)


def pullback_form_by_rationals(curve, omega, prec=None):
    """a(t) with phi*(omega) = a(t) dt/t: c x^a y^b dx gives
    c n t^(n (a+1)) y^b and c x^a y^b dy gives c t^(n a) theta(y) y^b,
    read as theta(y^(b+1)) / (b + 1)."""
    power = _rational_powers(curve)
    n = curve.pair.n
    return combine([(power(b, prec), c * n, n * (a + 1))
                    for (a, b), c in omega.A.items()]
                   + [(theta(power(b + 1, prec)), c * rat(1, b + 1), n * a)
                      for (a, b), c in omega.B.items()], prec)


def integrate_by_rationals(curve, xi):
    """A polynomial h with h(phi(t)) = integral of xi: greedily, the least-b
    monomial x^a y^b of weight r kills the residual's leading order r."""
    if xi.is_zero():
        return BivariatePolynomial()
    if xi.order_lb() < curve.pair.conductor:
        raise OrderTooLow("integrand order %s below the conductor %d"
                          % (xi.order_lb(), curve.pair.conductor))
    power = _rational_powers(curve)
    n = curve.pair.n
    alpha = curve.y.coeffs.get(curve.pair.m, 0)
    residual = antiderivative(xi)
    out = {}
    while not residual.is_zero():
        r = residual.order_lb()
        rep = minimal_b_representation(curve.pair, r)
        c = residual.coeffs.get(r, 0) / alpha ** rep.b
        out[(rep.a, rep.b)] = c
        residual = combine([(residual, 1, 0),
                            (power(rep.b), -c, n * rep.a)])
        assert residual.order_lb() > r
    return BivariatePolynomial(out)


def cancel_by_rationals(curve, sm, forms, eta, first_stop, stop, prec=None):
    """stdbasis._cancel on reduced rationals: a_eta is the rational
    pullback of eta, and each step subtracts mu times the rational
    pullback of the cancelling term.  Returns eta, a_eta, the steps and
    the value it stopped at."""
    a_eta = pullback_form(curve, eta, prec)
    steps = []
    while True:
        nu = a_eta.order_lb()
        if nu >= (stop if steps else first_stop) or not sm.contains(nu):
            return eta, a_eta, tuple(steps), nu
        j, c, d = _cancellation_site(curve.pair, sm.basis, nu)
        term = forms[j + 1].times_monomial(c, d)
        canc = pullback_form(curve, term, prec)
        mu = a_eta.coeffs.get(nu, 0) / canc.coeffs.get(nu, 0)
        a_eta = combine([(a_eta, 1, 0), (canc, -mu, 0)])
        eta = eta - term.times_monomial(0, 0, mu)
        steps.append(TraceStep(j, c, d, mu))
        if not a_eta.order_lb() > nu:
            raise InternalDisagreement("cancellation at %d did not raise"
                                       " the value" % nu)


def combination_by_rationals(forms, levels):
    """sum f_ell omega_ell on reduced rationals, levels[k] against
    forms[k]: the rational sum the construction and Delorme's certificate
    ran before both went onto forms._combined."""
    total = OneForm(forms[0].pair)
    for omega, f in zip(forms, levels):
        total = total + omega.times_polynomial(f)
    return total


def oracle_by_rationals(curve):
    """stdbasis.semimodule_oracle on reduced rationals: pivot rows are
    normalised to a leading 1 and each elimination subtracts a rational
    multiple of one."""
    pair = curve.pair
    n, m = pair.n, pair.m
    cap = pair.conductor + n * m
    monos = sorted((w, kind, a, b) for a in range(cap // n)
                   for b in range(cap // m)
                   for kind, w in ((0, n * (a + 1) + m * b),
                                   (1, n * a + m * (b + 1))) if w < cap)
    table = {}
    span = None
    bound = cap
    for w, kind, a, b in monos:
        if w >= bound:
            break
        mono = {(a, b): 1}
        s = pullback_form(curve, OneForm(pair, mono, None) if kind == 0
                          else OneForm(pair, None, mono), bound)
        while True:
            o = s.order_lb()
            if o >= bound:
                break
            pivot = table.get(o)
            if pivot is None:
                table[o] = combine([(s, 1 / s.coeffs.get(o, 0), 0)])
                if span is None or not span.contains(o):
                    span = GammaSemimodule(pair, minimal_basis(pair, table))
                    bound = min(bound, span.conductor + n)
                break
            s = combine([(s, 1, 0), (pivot, -s.coeffs.get(o, 0), 0)])
    return span


def random_coprime_pair(rng: random.Random, max_n: int = 8) -> PuiseuxPair:
    """Pick a coprime pair with 2 <= n <= max_n and n < m <= 3 n + 7."""
    while True:
        n = rng.randint(2, max_n)
        m = rng.randint(n + 1, 3 * n + 7)
        if math.gcd(n, m) == 1:
            return PuiseuxPair(n, m)


def random_increasing_semimodule(rng: random.Random, max_n: int = 8,
                                 max_steps: int = 4) -> GammaSemimodule:
    """Grow a basis (n, m, ...) where each new value exceeds the axis u_{i+1}.

    Each extension keeps the semimodule increasing by construction: the
    candidate pool is the gap set strictly between the next axis and the
    point past which no gaps remain.
    """
    pair = random_coprime_pair(rng, max_n=max_n)
    sm = GammaSemimodule(pair, (pair.n, pair.m))
    for _ in range(max_steps):
        if rng.random() < 0.25:
            break
        pool = [p for p in range(sm.axes[-1] + 1, sm.conductor)
                if not sm.contains(p)]
        if not pool:
            break
        sm = GammaSemimodule(pair, sm.basis + (rng.choice(pool),))
    return sm
