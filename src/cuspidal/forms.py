"""Polynomial 1-forms in adapted coordinates.

A form omega = A dx + B dy is stored in the plain view (two sparse
coefficient maps).  All order theory happens in the logarithmic view
omega = sum x^alpha y^beta (mu dx/x + zeta dy/y): the set of (alpha, beta)
carrying a nonzero (mu, zeta) is the cloud, the divisorial order nu_E is
the least n*alpha + m*beta over it, and the basic / pre-basic / resonant
predicates are conditions on the cloud's shape around its vertex.

The translation between the views is a shift by one in the differential
variable: mu at (alpha, beta) is the A-coefficient of x^(alpha-1) y^beta,
zeta the B-coefficient of x^alpha y^(beta-1).

Sums and products run on the kernel _accumulate, acc += c x^a y^b src,
the twin of series._accumulate.  _cleared is the one routine turning
rationals into integers, _integer_cloud owns a form's integers, computed
once and kept on the form, and the level sum _combined on them builds
the standard basis and certifies Delorme's decompositions.
"""

from __future__ import annotations

import math

from .errors import InputError, NotPreBasic, QAboveOrder, ZeroForm
from .rationals import Q, cut, integer, is_int, rat
from .semigroup import PuiseuxPair, copair

__all__ = [
    "BivariatePolynomial", "OneForm", "Region",
    "nu_E_form", "initial_part", "rdo", "is_basic", "is_prebasic",
    "is_resonant", "differential",
]


def _clean(coeffs) -> dict:
    return {k: v for k, v in coeffs.items() if v}


def _accumulate(acc: dict, src: dict, a: int = 0, b: int = 0, c=None):
    """acc += c * x^a y^b * src in place, deleting entries that cancel;
    c=None adds src unscaled."""
    for (i, j), v in src.items():
        k = (i + a, j + b)
        if c is not None:
            v = c * v
        w = acc.get(k)
        if w is not None:
            v += w
        if v:
            acc[k] = v
        elif w is not None:
            del acc[k]


def _convolve(p: dict, q: dict) -> dict:
    """The product of two monomial-keyed coefficient maps."""
    out = {}
    for (a, b), c in p.items():
        _accumulate(out, q, a, b, c)
    return out


def _fmt_monomial(a: int, b: int) -> str:
    parts = []
    if a:
        parts.append("x" if a == 1 else "x^%d" % a)
    if b:
        parts.append("y" if b == 1 else "y^%d" % b)
    return "*".join(parts)


def _fmt_poly(coeffs: dict) -> str:
    if not coeffs:
        return "0"
    chunks = []
    for (a, b) in sorted(coeffs):
        c = coeffs[(a, b)]
        mono = _fmt_monomial(a, b)
        body = str(c) if not mono else (mono if c == 1 else
                                        "-" + mono if c == -1 else
                                        "%s*%s" % (c, mono))
        if chunks and not body.startswith("-"):
            chunks.append("+" + body)
        else:
            chunks.append(body)
    return "".join(chunks)


class BivariatePolynomial:
    """Sparse rational polynomial in x and y."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = _clean(dict(coeffs) if coeffs else {})

    @classmethod
    def monomial(cls, a: int, b: int, c=1) -> "BivariatePolynomial":
        return cls({(a, b): rat(c)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        _accumulate(out, other.coeffs)
        return BivariatePolynomial(out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return BivariatePolynomial({k: -v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, BivariatePolynomial):
            return BivariatePolynomial(_convolve(self.coeffs, other.coeffs))
        c = rat(other)
        return BivariatePolynomial({k: c * v for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, BivariatePolynomial) and \
            self.coeffs == other.coeffs

    def __repr__(self):
        return _fmt_poly(self.coeffs)


class OneForm:
    """omega = A dx + B dy with exact rational sparse coefficients.

    The integer cloud (_integer_cloud) and the dicriticalness verdict
    (blowup.is_totally_dicritical) are computed once, on first request,
    and kept on the form.
    """

    __slots__ = ("pair", "A", "B", "_cloud", "_verdict")

    def __init__(self, pair: PuiseuxPair, A=None, B=None):
        self.pair = pair
        self.A = _clean(dict(A) if A else {})
        self.B = _clean(dict(B) if B else {})
        self._cloud = None
        self._verdict = None

    @classmethod
    def from_cloud(cls, pair: PuiseuxPair, cloud) -> "OneForm":
        """Build from {(alpha, beta): (mu, zeta)}; needs alpha >= 1 where
        mu != 0 and beta >= 1 where zeta != 0 (else the plain view would
        have a pole)."""
        A, B = {}, {}
        for (alpha, beta), (mu, zeta) in cloud.items():
            if mu != 0:
                if alpha < 1:
                    raise InputError("mu at alpha=0 is not a regular form")
                A[(alpha - 1, beta)] = mu
            if zeta != 0:
                if beta < 1:
                    raise InputError("zeta at beta=0 is not a regular form")
                B[(alpha, beta - 1)] = zeta
        return cls(pair, A, B)

    @property
    def cloud(self) -> dict:
        """{(alpha, beta): (mu, zeta)}, the integer cloud over L."""
        pts, L = _integer_cloud(self)
        return {p: (Q(mu, L), Q(zeta, L)) for p, (mu, zeta) in pts.items()}

    def is_zero(self) -> bool:
        return not self.A and not self.B

    def __add__(self, other):
        A, B = dict(self.A), dict(self.B)
        _accumulate(A, other.A)
        _accumulate(B, other.B)
        return OneForm(self.pair, A, B)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return OneForm(self.pair, {k: -v for k, v in self.A.items()},
                       {k: -v for k, v in self.B.items()})

    def times_monomial(self, a: int, b: int, c=1) -> "OneForm":
        return self.times_polynomial(BivariatePolynomial.monomial(a, b, c))

    def times_polynomial(self, h: BivariatePolynomial) -> "OneForm":
        return OneForm(self.pair, _convolve(h.coeffs, self.A),
                       _convolve(h.coeffs, self.B))

    def __eq__(self, other):
        return (isinstance(other, OneForm) and self.pair == other.pair
                and self.A == other.A and self.B == other.B)

    def __repr__(self):
        return "(%s)dx + (%s)dy" % (_fmt_poly(self.A), _fmt_poly(self.B))


def _cleared(*tables):
    """(L, ints): L the least positive integer clearing every denominator
    of the rational tables, ints each table as {key: c L} over it."""
    L = math.lcm(*(int(c.denominator) for plain in tables
                   for c in plain.values()))
    return L, [{k: int(c.numerator) * (L // int(c.denominator))
                for k, c in plain.items()} for plain in tables]


def _integer_cloud(omega: OneForm):
    """(cloud, L): L the least positive integer clearing every denominator
    of omega's cloud, cloud {(alpha, beta): (mu L, zeta L)} as ints.  The
    pullback, the branch solver, the blow-up walk, the order theory and
    the level sum _combined all read a form's integers here.  Computed
    once from A and B and kept on the form, so the cloud is shared:
    readers must not mutate it."""
    if omega._cloud is None:
        L, (A, B) = _cleared(omega.A, omega.B)
        pts = {(a + 1, b): (v, 0) for (a, b), v in A.items()}
        for (a, b), v in B.items():
            pts[(a, b + 1)] = (pts.get((a, b + 1), (0,))[0], v)
        omega._cloud = (pts, L)
    return omega._cloud


def _combined(forms, levels):
    """(M, A, B): sum levels[k] * forms[k], its dx and dy coefficients as
    integer numerators over one M.  x^a y^b moves a cloud by (a, b), so
    f omega is f's integer numerators over D accumulated at each kept
    cloud point of omega, scaled by its (mu, zeta); each level is cleared
    once and every term goes over M = lcm(D_k L_k)."""
    terms = [(_cleared(f.coeffs), _integer_cloud(omega))
             for omega, f in zip(forms, levels) if f.coeffs]
    M = math.lcm(*(D * L for (D, _), (_, L) in terms))
    A, B = {}, {}
    for (D, (F,)), (cloud, L) in terms:
        scale = M // (D * L)
        for (a, b), (mu, zeta) in cloud.items():
            if mu:
                _accumulate(A, F, a - 1, b, mu * scale)
            if zeta:
                _accumulate(B, F, a, b - 1, zeta * scale)
    return M, A, B


def _recomposes(target: OneForm, forms, levels) -> bool:
    """Whether target == sum levels[k] * forms[k], decided on ints: the
    sum less the target cancels."""
    _, A, B = _combined((target, *forms),
                        (BivariatePolynomial.monomial(0, 0, -1), *levels))
    return not A and not B


class Region:
    """R^{n,m}(a0, b0), a0 and b0 integers: where two co-pair halfplanes meet.

    (alpha, beta) belongs iff (n-b)(alpha-a0) + (m-d)(beta-b0) >= 0 and
    b(alpha-a0) + d(beta-b0) >= 0, where (b, d) is the co-pair.  The two
    linear forms add up to the weight form n*alpha + m*beta (shifted), so
    the base point is the strict weight minimum of its region.
    """

    __slots__ = ("pair", "base", "b", "d")

    def __init__(self, pair: PuiseuxPair, base):
        self.pair = pair
        self.base = tuple(base)
        if len(self.base) != 2 or not all(map(is_int, self.base)):
            raise InputError("region base must be two integers")
        self.b, self.d = copair(pair)

    def contains(self, point) -> bool:
        n, m = self.pair.n, self.pair.m
        da = point[0] - self.base[0]
        db = point[1] - self.base[1]
        return ((n - self.b) * da + (m - self.d) * db >= 0
                and self.b * da + self.d * db >= 0)

    def __eq__(self, other):
        return (isinstance(other, Region) and self.pair == other.pair
                and self.base == other.base)

    def __repr__(self):
        return "R^{%d,%d}%s" % (self.pair.n, self.pair.m, self.base)


def _weight(pair: PuiseuxPair, point) -> int:
    return pair.n * point[0] + pair.m * point[1]


def nu_E_form(omega: OneForm) -> int:
    """Divisorial order: min of n*alpha + m*beta over the cloud."""
    if omega.is_zero():
        raise ZeroForm("nu_E of the zero form")
    return min(_weight(omega.pair, p) for p in _integer_cloud(omega)[0])


def initial_part(omega: OneForm, q: int) -> OneForm:
    """The sub-form supported on cloud points of weight exactly q.

    Zero when q < nu_E(omega); rejects q above the order, where the slice
    is not meaningful, and then any q but an integer.
    """
    nu = nu_E_form(omega)
    if q > nu:
        raise QAboveOrder("initial part at %s above nu_E = %s"
                          % (cut(q), cut(nu)))
    integer(q, "weight")
    pair = omega.pair
    keep = {p: c for p, c in omega.cloud.items() if _weight(pair, p) == q}
    return OneForm.from_cloud(pair, keep)


def rdo(omega: OneForm) -> int:
    """Reduced divisorial order: nu_E after stripping the cloud's gcd monomial.

    The stripped monomial is x^a y^b with a = min alpha, b = min beta over
    the cloud; stripping translates the cloud to touch both axes.
    """
    if omega.is_zero():
        raise ZeroForm("rdo of the zero form")
    nu = nu_E_form(omega)
    a = min(p[0] for p in _integer_cloud(omega)[0])
    b = min(p[1] for p in _integer_cloud(omega)[0])
    return nu - omega.pair.n * a - omega.pair.m * b


def is_basic(omega: OneForm) -> bool:
    return rdo(omega) < omega.pair.n * omega.pair.m


def is_prebasic(omega: OneForm):
    """The vertex (a, b) with cloud contained in R^{n,m}(a, b), or None.

    Only the weight-minimal cloud point can work (the base point is the
    strict weight minimum of its region), so a weight tie already rules
    the form out.
    """
    if omega.is_zero():
        raise ZeroForm("pre-basic test on the zero form")
    pair = omega.pair
    q = nu_E_form(omega)
    cloud = _integer_cloud(omega)[0]
    vertex, *ties = [p for p in cloud if _weight(pair, p) == q]
    region = Region(pair, vertex)
    if not ties and all(region.contains(p) for p in cloud):
        return vertex
    return None


def is_resonant(omega: OneForm) -> bool:
    """Whether n*mu + m*zeta = 0 at the vertex; needs a pre-basic form."""
    vertex = is_prebasic(omega)
    if vertex is None:
        raise NotPreBasic("form has no region vertex")
    return _resonant_at(omega, vertex)


def _resonant_at(omega: OneForm, vertex) -> bool:
    """n*mu + m*zeta = 0 at a vertex that is_prebasic has already found."""
    mu, zeta = _integer_cloud(omega)[0][vertex]
    return omega.pair.n * mu + omega.pair.m * zeta == 0


def differential(h: BivariatePolynomial, pair: PuiseuxPair) -> OneForm:
    """dh as a OneForm.  nu_E(dh) = nu_E(h), the least n a + m b over h's
    support, only when h has no constant term: d drops it and moves every
    other monomial to the cloud point of the same weight."""
    A, B = {}, {}
    for (a, b), c in h.coeffs.items():
        if a:
            A[(a - 1, b)] = a * c
        if b:
            B[(a, b - 1)] = b * c
    return OneForm(pair, A, B)
