"""Truncated power series in t and Puiseux parametrizations of cusps.

A TruncatedSeries stores a sparse exponent -> coefficient map together
with a truncation level T; exponents at or above T are unknown rather
than zero.  trunc = math.inf (None in the constructor) means the series
is known exactly (polynomials in t).  Its one constructor keeps the
nonzero entries below T as it is given them.  The library does no
rational series arithmetic: its sums run on integer numerators in the
kernel _accumulate, acc += t^shift (c + d k) src[k] t^k below a bound,
the twin of forms._accumulate.

A PuiseuxCurve is the parametrization phi(t) = (t^n, y(t)) with
ord y = m.  Pullbacks of polynomials and forms are assembled term by
term from one power table of the curve; this keeps the cost linear in
the number of monomials of the input.  A form is read by cloud point:
x^alpha y^beta (mu dx/x + zeta dy/y) pulls back to
t^(n alpha) (n mu y^beta + (zeta / beta) theta(y^beta)) dt/t
(theta = t d/dt), whose t^(n alpha + k) coefficient is
[y^beta]_k (n mu + zeta k / beta): the row of y^beta with a weight linear
in k, over the integers of forms._integer_cloud.  A monomial multiple
x^c y^d omega is read off omega's own cloud, moved by (c, d).  The table is
fraction-free (Bareiss, Math. Comp. 22, 1968; Geddes, Czapor and Labahn,
1992): y is held as integer numerators Y over one denominator D (the
curve's den), the lcm of its denominators, and the entry of each b is
one row, the integer numerators of y^b over D^b, at the highest
precision asked for; an even row is the square of row b/2 when that
takes fewer products than Y times row b - 1, either grown by the one
series product TruncatedSeries.__mul__, which squares a self-product.
A dense rational tail puts all of D on every coefficient, so a curve
splits y = lo + hi at s = ceil((T + m) / 2) when lo, the curve of y's
terms below t^s, has a smaller lcm of denominators D_lo: 2s >= T + m puts
every hi^2 term of y^b past the table's precision, and row b is the
two-term lift r^b [lo^b] + b r^(b-1) [lo^(b-1)] Y_hi, r = D / D_lo, of
lo's own rows over D_lo^b.
A pullback sums integer rows over one scale, each exponent's group with
small weights and then scaled once; pullback_form and pullback_function
build one rational per nonzero coefficient, the orders nu_C_* build
none.  Rational input (y, a polynomial, an integrand) is cleared by
forms._cleared.  The table is
the one series cache: only the branch solver holds a private one.
_eliminate, the one elimination step, kills the leading term of an
integer row with a multiple of another; the cancellation engine, the
semimodule oracle and the potential all run on it.

The differential value of a form is the t-order of a(t) in
phi*(omega) = a(t) dt/t.  Orders are reported as Finite(v) or
AtLeast(T): with exact arithmetic a vanishing truncated computation
proves the order is at least T, and the callers that need "infinite"
arrange for that to be enough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (IndexOutOfRange, InputError, InternalDisagreement,
                     NotACusp, OrderTooLow)
from .forms import BivariatePolynomial, OneForm, _cleared, _integer_cloud
from .rationals import Q, cut, integer, is_int, is_rational, rat
from .semigroup import PuiseuxPair, minimal_b_representation

__all__ = [
    "TruncatedSeries", "PuiseuxCurve", "OrderResult", "default_truncation",
    "pullback_function", "pullback_form", "nu_C_function", "nu_C_form",
    "integrate_against_conductor",
]


def _accumulate(acc: dict, src: dict, shift: int, c, d, bound):
    """acc += sum over k of (c + d k) src[k] t^(k + shift) in place, for
    keys below bound, deleting entries that cancel: d = 0 scales src, and
    a row of y^beta with d != 0 adds a multiple of theta(y^beta)."""
    for k, v in src.items():
        key = k + shift
        if key >= bound:
            continue
        v = (c + d * k) * v
        w = acc.get(key)
        if w is not None:
            v += w
        if v:
            acc[key] = v
        elif w is not None:
            del acc[key]


class TruncatedSeries:
    """Sparse series in t: its nonzero entries below the truncation level,
    kept as given (rationals, or integer numerators over a den elsewhere)."""

    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs=None, trunc=None):
        self.trunc = trunc = math.inf if trunc is None else trunc
        self.coeffs = {k: v for k, v in (coeffs or {}).items()
                       if k < trunc and v}

    def is_zero(self) -> bool:
        """No nonzero known coefficient (the tail may still be anything)."""
        return not self.coeffs

    def order_lb(self):
        """Order when a nonzero coefficient is known, else the truncation."""
        return min(self.coeffs) if self.coeffs else self.trunc

    def truncate(self, top: int) -> "TruncatedSeries":
        """The orders below top; self when that cuts nothing."""
        return self if top >= self.trunc else TruncatedSeries(self.coeffs, top)

    def __mul__(self, other):
        # trunc(f*g) = min(trunc f + ord g, trunc g + ord f), which is at
        # most every row's own trunc g + k; a self-product is squared
        bound = min(self.trunc + other.order_lb(),
                    other.trunc + self.order_lb())
        if other is self:
            return _square(self, bound)
        return _assemble(((other, k, v, 0) for k, v in self.coeffs.items()),
                         bound)

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries)
                and self.coeffs == other.coeffs and self.trunc == other.trunc)

    def __repr__(self):
        if not self.coeffs:
            body = "0"
        else:
            body = " + ".join("%s*t^%d" % (v, k)
                              for k, v in sorted(self.coeffs.items()))
        if self.trunc == math.inf:
            return body
        return "%s + O(t^%d)" % (body, self.trunc)


@dataclass(frozen=True)
class OrderResult:
    """Finite(v): the order is exactly v.  AtLeast(T): everything known
    vanished; the order is T or more (possibly infinite)."""

    finite: bool
    value: int

    @classmethod
    def Finite(cls, v: int) -> "OrderResult":
        return cls(True, v)

    @classmethod
    def AtLeast(cls, threshold: int) -> "OrderResult":
        return cls(False, threshold)

    def __repr__(self):
        return ("Finite(%d)" if self.finite else "AtLeast(%d)") % self.value


def default_truncation(pair: PuiseuxPair) -> int:
    """T = c_Gamma + 2nm, the least truncation a cusp may carry."""
    return pair.conductor + 2 * pair.n * pair.m


def _truncation(pair: PuiseuxPair, trunc) -> int:
    """trunc checked against the truncation rules, an integer (is_int) of
    at least default_truncation(pair), or that floor for None."""
    floor = default_truncation(pair)
    if trunc is None:
        return floor
    if integer(trunc, "truncation") < floor:
        raise InputError("truncation must be an integer >= %s for the pair "
                         "(%s, %s)" % (cut(floor), cut(pair.n), cut(pair.m)))
    return trunc


def _singular(pair: PuiseuxPair) -> None:
    """The cusp rule on the pair: n >= 2, or NotACusp (n = 1 is a smooth
    branch)."""
    if pair.n < 2:
        raise NotACusp("(%s, %s) parametrizes a smooth branch"
                       % (cut(pair.n), cut(pair.m)))


class PuiseuxCurve:
    """phi(t) = (t^n, y(t)) with ord y = m, known below the truncation T.

    The cusp rules live here: T and y's exponents are integers
    (rationals.is_int) and y's coefficients integers or rationals (curve.y
    holds rationals), y has a nonzero t^m term and no nonzero term below
    t^m or at or above T (refused, not dropped), T is at least
    default_truncation(pair), under which every structural decision of
    the basis algorithms is taken, and n >= 2 (_singular).  The
    truncation rules (_truncation) come first, the n rule last; the branch
    solver runs both before any work.

    The power table holds y as integer numerators Y over den, the lcm of
    y's denominators, and one row per b: the integer numerators of y^b
    over den^b, known below T + (b - 1) m.  A request at or below y^b's
    order b m is the empty row there and grows none; one below the stored
    precision truncates the row, one above it regrows it through the
    series product: an even b as row b/2 times itself (squared) when, by
    the stored rows' term counts, that takes fewer products than Y times
    row b - 1, any other b by that chain step.  Dense branch rows are
    squared; a short polynomial y keeps the chain for its high rows (from
    b = 8 on for three terms).
    theta(y^b) is read off the same row, never stored.

    The two-half rule: at s = ceil((T + m) / 2), lo is the curve of y's
    terms below t^s and hi the rest, Y_hi their numerators over den.  A
    hi^2 term of y^b lies at or past t^((b - 2) m + 2 s), and 2 s >= T + m
    puts it at or past T + (b - 1) m, row b's highest precision.  So exactly
    y^b den^b = r^b lo^b den_lo^b + b r^(b-1) lo^(b-1) den_lo^(b-1) Y_hi
    with den_lo = lo.den and r = den / den_lo.  When den_lo < den the
    curve holds lo, whose own table grows its rows over den_lo^b by the
    rule above, and grows each of its rows b >= 2 as that one two-term
    sum; an integer curve, one with no term at or past t^s, or one whose
    high terms raise no denominator, never splits.
    """

    __slots__ = ("pair", "y", "trunc", "den", "_powers", "_split")

    def __init__(self, pair: PuiseuxPair, y_coeffs, trunc=None):
        trunc = _truncation(pair, trunc)
        _typed(y_coeffs, "y")
        m = pair.m
        terms = [k for k, v in y_coeffs.items() if v != 0]
        if m not in terms:
            raise NotACusp("zero leading coefficient: y must start with a "
                           "nonzero t^%s term" % cut(m))
        if min(terms) < m:
            raise NotACusp("y-series has a term below t^%s" % cut(m))
        high = [k for k in terms if k >= trunc]
        if high:
            raise InputError("y term t^%s at or above the truncation %s"
                             % (cut(min(high)), cut(trunc)))
        _singular(pair)
        self.pair = pair
        self.trunc = trunc
        self.y = TruncatedSeries({k: rat(v) for k, v in y_coeffs.items()},
                                 trunc)
        self.den, (Y,) = _cleared(self.y.coeffs)
        # b -> the numerators of y^b over den^b, at the highest precision
        # asked for
        self._powers = {0: TruncatedSeries({0: 1}),
                        1: TruncatedSeries(Y, trunc)}
        self._split = None
        # the two-half rule: lo, the curve of y's terms below t^s
        s = (trunc + m + 1) // 2
        if max(terms) >= s:
            lo = PuiseuxCurve(pair, {k: c for k, c in self.y.coeffs.items()
                                     if k < s}, trunc)
            if lo.den < self.den:
                self._split = (lo, self.den // lo.den, TruncatedSeries(
                    {k: v for k, v in Y.items() if k >= s}, trunc))

    def _precision(self, b: int, prec) -> float:
        """Integer prec; for None or above T, all of y^b (b = 0: infinite)."""
        if prec is None or integer(prec, "precision") > self.trunc:
            return self.trunc + (b - 1) * self.pair.m if b else math.inf
        return prec

    def y_power(self, b: int, prec=None) -> TruncatedSeries:
        """The integer numerators of y^b over den^b, below prec; all of
        them when prec is None or above T."""
        if not is_int(b) or b < 0:
            raise IndexOutOfRange("y power must be an integer >= 0")
        want, m = self._precision(b, prec), self.pair.m
        if want <= b * m:  # below y^b's order: nothing to grow
            return TruncatedSeries(None, want)
        row = self._powers.get(b)
        if row is None or row.trunc < want:
            if self._split:
                # the two-half rule; lo's row b - 1 below want - ord Y_hi
                # is exact against Y_hi
                lo, r, hi = self._split
                cross = lo.y_power(b - 1, want - hi.order_lb()) * hi
                row = _assemble(((lo.y_power(b, want), 0, r ** b, 0),
                                 (cross, 0, b * r ** (b - 1), 0)), want)
            else:
                h, p, y = (len(self._powers[k].coeffs) if k in self._powers
                           else None for k in (b // 2, b - 1, 1))
                if b % 2 == 0 and h and (p is None or h * h + h < 2 * p * y):
                    # row b / 2, of order b m / 2, squared is exact below want
                    half = self.y_power(b // 2, want - b // 2 * m)
                    row = half * half
                else:
                    # Y times row b - 1 below want - m is exact below want
                    row = self._powers[1] * self.y_power(b - 1, want - m)
            self._powers[b] = row
        return row.truncate(want)

    def theta_y_times_power(self, b: int, prec=None) -> TruncatedSeries:
        """The integer numerators of theta(y^(b+1)) over den^(b+1), below
        prec: (b + 1) theta(y) y^b times den^(b+1), one coefficient sweep
        k v over the row of y^(b+1), kept in no table.  The library reads
        theta off that row inside _pullback instead."""
        row = self.y_power(b + 1, prec)
        return TruncatedSeries({k: k * v for k, v in row.coeffs.items()},
                               row.trunc)

    def __eq__(self, other):
        return (isinstance(other, PuiseuxCurve) and self.pair == other.pair
                and self.trunc == other.trunc and self.y == other.y)

    def __repr__(self):
        return "PuiseuxCurve(t^%d, %r)" % (self.pair.n, self.y)


def _typed(coeffs: dict, what: str):
    """Refuse exponents that are not integers (rationals.is_int) and
    coefficients that are neither integers nor rationals."""
    if not all(map(is_int, coeffs)):
        raise InputError("%s exponents must be integers" % what)
    if not all(map(is_rational, coeffs.values())):
        raise InputError("%s coefficients must be rationals" % what)


def _assemble(terms, bound) -> TruncatedSeries:
    """The sum of t^shift (c + d k) src over the (src, shift, c, d) in
    terms, known below bound and below every term's own truncation."""
    acc = {}
    for src, shift, c, d in terms:
        bound = min(bound, src.trunc + shift)
        _accumulate(acc, src.coeffs, shift, c, d, bound)
    return TruncatedSeries(acc, bound)  # bound may fall after a key is set


def _square(h: TruncatedSeries, bound) -> TruncatedSeries:
    """h * h below bound, at most h.trunc + ord h: each cross product
    h[j] h[k], j < k, is taken once and doubled."""
    items = sorted(h.coeffs.items())
    acc = {}
    for i, (j, u) in enumerate(items):
        if 2 * j >= bound:
            break
        acc[2 * j] = acc.get(2 * j, 0) + u * u
        u += u
        for k, v in items[i + 1:]:
            if j + k >= bound:
                break
            acc[j + k] = acc.get(j + k, 0) + u * v
    return TruncatedSeries(acc, bound)


def _pullback(curve: PuiseuxCurve, f, prec, c: int = 0, d: int = 0):
    """(row, scale): the pullback of x^c y^d f below prec is row / scale,
    row integer numerators known below prec and every term's truncation.

    For a OneForm it is a(t) with phi*(omega) = a(t) dt/t: the cloud point
    x^alpha y^beta (mu dx/x + zeta dy/y) of f moves to (alpha + c,
    beta + d) with the same (mu, zeta), and adds [y^beta']_k (n mu + zeta
    k / beta') at t^(n alpha' + k) for the moved point (alpha', beta'),
    read off the kept integer cloud (mu L, zeta L) as the row of y^beta'
    with weight n mu L B + (zeta L B / beta') k over L B, B the lcm of the
    moved cloud's nonzero beta'.  For a BivariatePolynomial h it is
    x^c y^d h at phi(t), each monomial x^(a + c) y^(b + d) a row with a
    constant weight.  So a monomial multiple of a form or a polynomial
    needs no product of its own.  Each exponent's row is fetched once,
    terms shifted to prec or past it are skipped, and the rows, over
    den^e, are summed over the scale times den^top for the top e: the
    terms of one e are summed with their small weights and the sum is
    multiplied by den^(top - e) once.
    """
    n = curve.pair.n
    bound = math.inf if prec is None else integer(prec, "precision")
    if isinstance(f, OneForm):
        cloud, L = _integer_cloud(f)
        B = math.lcm(*(be + d for _, be in cloud if be + d))
        scale = L * B
        terms = [(be + d, n * (al + c), n * mu * B, ze * B // (be + d or 1))
                 for (al, be), (mu, ze) in cloud.items()
                 if n * (al + c) < bound]
    else:
        scale, (F,) = _cleared({(a, b): v for (a, b), v in f.coeffs.items()
                                if n * (a + c) < bound})
        terms = [(b + d, n * (a + c), v, 0) for (a, b), v in F.items()]
    rows = {e: curve.y_power(e, prec) for e in {e for e, *_ in terms}}
    top = max(rows, default=0)
    bound = min([bound] + [rows[e].trunc + shift for e, shift, *_ in terms])
    groups = {}
    for e, shift, c, d in terms:
        groups.setdefault(e, []).append((rows[e], shift, c, d))
    parts = []
    for e, group in groups.items():
        s = curve.den ** (top - e)
        parts += group if s == 1 else [(_assemble(group, bound), 0, s, 0)]
    return _assemble(parts, bound), scale * curve.den ** top


def _rational(row: TruncatedSeries, scale: int) -> TruncatedSeries:
    """row / scale in place, one reduced rational per coefficient."""
    row.coeffs = {k: Q(v, scale) for k, v in row.coeffs.items()}
    return row


def pullback_function(curve: PuiseuxCurve, h, prec=None) -> TruncatedSeries:
    """h(phi(t)) as a truncated series; prec caps the working precision."""
    return _rational(*_pullback(curve, h, prec))


def pullback_form(curve: PuiseuxCurve, omega: OneForm, prec=None) -> TruncatedSeries:
    """a(t) with phi*(omega) = a(t) dt/t; prec caps the working precision."""
    return _rational(*_pullback(curve, omega, prec))


def _order_result(curve: PuiseuxCurve, row: TruncatedSeries) -> OrderResult:
    """The order of a pullback read off its numerators, capped at T."""
    clipped = row.truncate(curve.trunc)
    if clipped.coeffs:
        return OrderResult.Finite(min(clipped.coeffs))
    return OrderResult.AtLeast(clipped.trunc)


def nu_C_function(curve: PuiseuxCurve, h, prec=None) -> OrderResult:
    """Intersection order of h = 0 with the curve: ord_t h(phi(t))."""
    return _order_result(curve, _pullback(curve, h, prec)[0])


def nu_C_form(curve: PuiseuxCurve, omega: OneForm, prec=None) -> OrderResult:
    """Differential value: ord_t a(t) for phi*(omega) = a(t) dt/t."""
    return _order_result(curve, _pullback(curve, omega, prec)[0])


def _eliminate(acc: TruncatedSeries, E: int, r: int, row: TruncatedSeries,
               shift: int = 0):
    """Kill the t^r term of acc / E with a multiple of t^shift row, in
    place, acc and row integer numerators: for lead the row's t^(r - shift)
    term and g = gcd(acc[r], lead) with the sign of lead, acc and E are
    rescaled by lead / g > 0 only, so the residual keeps its sign, and
    acc / E loses (f / E') t^shift row, f = acc[r] / g, E' the new E.
    Returns (E', f).  Raises InternalDisagreement unless the order rose.
    """
    lead = row.coeffs.get(r - shift)
    if lead:
        g = math.gcd(acc.coeffs[r], lead)
        if lead < 0:
            g = -g
        f, scale = acc.coeffs[r] // g, lead // g
        top = min(acc.trunc, row.trunc + shift)
        if scale != 1 or top < acc.trunc:
            acc.coeffs = {k: v * scale for k, v in acc.coeffs.items()
                          if k < top}
            acc.trunc = top
            E *= scale
        _accumulate(acc.coeffs, row.coeffs, shift, -f, 0, top)
    if acc.order_lb() <= r:
        raise InternalDisagreement("elimination at t^%d did not raise the"
                                   " order" % r)
    return E, f


def integrate_against_conductor(curve: PuiseuxCurve,
                                xi: TruncatedSeries) -> BivariatePolynomial:
    """A polynomial h with h(phi(t)) = integral of xi, up to truncation.

    Works greedily above the conductor: the leading order r of the
    residual is always in Gamma there, so the monomial x^a y^b with
    n a + m b = r and least b kills it; least b keeps a >= 0 for every
    member, not only below n m.  The residual is held as integers R over
    one denominator E, and each step is _eliminate against a row of the
    power table; it builds one rational, the monomial's coefficient.
    The integrand's entries are refused as a curve's y is (_typed).
    """
    _typed(xi.coeffs, "integrand")
    if xi.is_zero():
        return BivariatePolynomial()
    if xi.order_lb() < curve.pair.conductor:
        raise OrderTooLow("integrand order %s below the conductor %d"
                          % (xi.order_lb(), curve.pair.conductor))
    E, (R,) = _cleared(xi.coeffs)
    return _integrate(curve, R, E, xi.trunc)


def _integrate(curve: PuiseuxCurve, xi: dict, E: int,
               trunc: int) -> BivariatePolynomial:
    """integrate_against_conductor of the integrand sum xi[k] t^k / E,
    known below trunc: integer numerators by exponent, none of them zero,
    the least exponent at or above the conductor."""
    n = curve.pair.n
    # the residual, the antiderivative of xi, is R / E with integer R
    L = math.lcm(*(k + 1 for k in xi))
    acc = TruncatedSeries({k + 1: v * (L // (k + 1)) for k, v in xi.items()},
                          trunc + 1)
    E *= L
    out = {}
    while not acc.is_zero():
        r = acc.order_lb()
        rep = minimal_b_representation(curve.pair, r)
        # alpha^b = lead / den^b, so the residual loses c t^(n a) y^b
        # with c = R[r] den^b / (E lead) = f den^b / E'
        E, f = _eliminate(acc, E, r, curve.y_power(rep.b), n * rep.a)
        out[(rep.a, rep.b)] = Q(f * curve.den ** rep.b, E)
    return BivariatePolynomial(out)
