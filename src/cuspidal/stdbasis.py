"""Standard bases of 1-forms along a cusp.

Builds the chain omega_-1 = dx, omega_0 = dy, omega_1, ..., omega_s whose
differential values are the minimal generators lambda_i of the semimodule,
extends it with a dicritically adjusted omega_{s+1} whose value escapes
every finite order, and rewrites any omega_{i+1} as a combination
sum f_ell omega_ell (Delorme decomposition).  Each form is built once
from its level coefficients f_ell, which its trace keeps for Delorme;
one integer level sum, forms._combined, builds the form and certifies
the decomposition.

Index conventions, used throughout: a "math" index i runs over
-1, 0, 1, ..., s (+1 for the adjusted form) and lives at python position
i + 1 inside `forms`, `semimodule.basis` and the critical-order tuple.
"""

import math
from dataclasses import dataclass

from .errors import IndexOutOfRange, InternalDisagreement
from .forms import (BivariatePolynomial, OneForm, _combined, _recomposes,
                    differential, is_basic, is_resonant, nu_E_form)
from .semigroup import contains
from .semimodule import GammaSemimodule, limits, minimal_basis
from .rationals import Q, cut, is_int
from .series import (OrderResult, PuiseuxCurve, _eliminate, _integrate,
                     _pullback, nu_C_form, nu_C_function)
from .blowup import is_totally_dicritical


@dataclass(frozen=True)
class TraceStep:
    """One cancellation: the candidate lost mu x^c y^d omega_j."""

    j: int
    c: int
    d: int
    mu: object


@dataclass(frozen=True)
class ConstructionTrace:
    """How the basis form omega_i was assembled from the earlier ones.

    omega_i = rho * (seed - sum of the steps) - d(potential), the seed
    x^ell omega_{i-1} or y^ell omega_{i-1} and rho its clearing scalar;
    only the adjusted form takes a potential, and there rho == 1.
    `steps` are the cancellations in order.  `levels` = (f_-1, ...,
    f_{i-1}) with omega_i = sum f_ell omega_ell is the one record of the
    combination, -dh included, and the one Delorme substitutes.
    """

    steps: tuple
    levels: tuple


@dataclass(frozen=True)
class DelormeDecomposition:
    """omega_{i+1} = sum_{ell=-1}^{j} coefficients[ell+1] * omega_ell.

    Every summand has value >= vij = t_{i+1} - t_j + lambda_j, with
    equality exactly at ell = j and at the single ell = distinguished_index.
    """

    i: int
    j: int
    coefficients: tuple
    distinguished_index: int
    vij: int


class ExtendedStandardBasis:
    """The standard basis of a curve, with room for the adjusted form.

    `forms` holds omega_-1 .. omega_s; `adjusted` stays None until
    dicritically_adjust fills it, which form(s+1) runs the first time it
    is asked for.  `traces` keeps, for every constructed form, its level
    coefficients, the one record of how it was built; Delorme substitutes
    them instead of re-deriving them.  It keeps no pullbacks:
    series._pullback reads them off the curve's power table.
    """

    __slots__ = ("curve", "semimodule", "forms", "traces", "adjusted")

    def __init__(self, curve, semimodule, forms, traces):
        self.curve = curve
        self.semimodule = semimodule
        self.forms = tuple(forms)
        self.traces = dict(traces)
        self.adjusted = None

    @property
    def s_index(self) -> int:
        return self.semimodule.s_index

    def form(self, i: int) -> OneForm:
        """omega_i by math index; i = s+1 reaches the adjusted form."""
        if not is_int(i):
            raise IndexOutOfRange("form index must be an integer")
        if -1 <= i <= self.s_index:
            return self.forms[i + 1]
        if i == self.s_index + 1:
            return dicritically_adjust(self)
        raise IndexOutOfRange("no form at index %s" % cut(i))

    def __repr__(self):
        tag = "+adjusted" if self.adjusted is not None else ""
        return ("ExtendedStandardBasis(lambdas=%r%s)"
                % (list(self.semimodule.basis), tag))


def _cancellation_site(pair, lambdas, value):
    """Smallest math index j with value - lambda_j in Gamma, then the
    lexicographically least (c, d) with n c + m d = value - lambda_j;
    value lies in the semimodule of lambdas, so there is such a j."""
    n, m = pair.n, pair.m
    for pos, lam in enumerate(lambdas):
        gap = value - lam
        if gap < 0 or not contains(pair, gap):
            continue
        c = (gap * pow(n, -1, m)) % m
        d = (gap - n * c) // m
        if d < 0:
            raise InternalDisagreement("member %d lost its representation"
                                       % gap)
        return pos - 1, c, d


def _seed(sm):
    """Exponents (a, b) of the monomial opening the next stage, the cheaper
    of x^l1 omega_s' and y^l2 omega_s'.  Its value must be the last axis
    u_{s'+1} of sm, which the scan found independently.  No form is built:
    the engine reads the seed off the cloud of omega_s'."""
    n, m = sm.pair.n, sm.pair.m
    ell1, ell2 = limits(sm, sm.s_index)
    a, b = (ell1, 0) if n * ell1 <= m * ell2 else (0, ell2)
    u = n * a + m * b + sm.basis[-1]
    if u != sm.axes[-1]:
        raise InternalDisagreement("seed value %d off the last axis %d"
                                   % (u, sm.axes[-1]))
    return a, b


def _cancel(curve, sm, forms, seed, first_stop, stop, prec=None):
    """The cancellation engine shared by the construction and the adjustment.

    eta is the seed x^a y^b omega_s' with seed = (a, b), forms[-1] =
    omega_s'.  While the leading value nu of a_eta, the pullback of eta
    below prec, lies in the semimodule and under the stop order
    (first_stop before the first step, stop after it), cancel it against
    the cheapest x^c y^d omega_j.  a_eta is integer numerators over E, and
    each step is series._eliminate against the cancelling term's integer
    pullback, known at full precision below T - m + t_j + m d + n c, which
    sets how far a_eta, and so the potential, reaches.  Every monomial
    multiple, the seed included, is pulled back off the kept integer
    cloud of the form it multiplies, moved by its exponents: only mu is a
    rational and no form is built.  Returns a_eta, E, the steps taken and
    the value it stopped at; the caller decides what that value means.
    """
    a_eta, E = _pullback(curve, forms[-1], prec, *seed)
    steps = []
    while True:
        nu = a_eta.order_lb()
        if nu >= (stop if steps else first_stop) or not sm.contains(nu):
            return a_eta, E, tuple(steps), nu
        j, c, d = _cancellation_site(curve.pair, sm.basis, nu)
        canc, F = _pullback(curve, forms[j + 1], prec, c, d)
        # a_eta loses (f / E) canc, which is mu times the pullback canc / F
        E, f = _eliminate(a_eta, E, nu, canc)
        steps.append(TraceStep(j, c, d, Q(f * F, E)))


def _built(curve, forms, seed, steps, potential):
    """The next basis form and its trace, built once from its levels: the
    steps take mu x^c y^d off f_j, f_top gains the seed x^a y^b, and eta =
    sum f_ell omega_ell = (A dx + B dy) / M by forms._combined.  omega =
    rho eta, integral for rho = M / gcd(M, A, B), or eta - dh with dh taken
    off f_-1 and f_0; dh stays out of the integer sum, where each of
    omega's coefficients would need its own reduction."""
    f = [BivariatePolynomial()] * len(forms)
    for st in steps:
        f[st.j + 1] -= BivariatePolynomial.monomial(st.c, st.d, st.mu)
    f[-1] += BivariatePolynomial.monomial(*seed)
    M, A, B = _combined(forms, f)
    if potential is None:
        g = math.gcd(M, *A.values(), *B.values())
        omega = OneForm(curve.pair, {k: Q(v // g) for k, v in A.items()},
                        {k: Q(v // g) for k, v in B.items()})
        f = [h * (M // g) for h in f]
    else:
        dh = differential(potential, curve.pair)
        omega = OneForm(curve.pair, {k: Q(v, M) for k, v in A.items()},
                        {k: Q(v, M) for k, v in B.items()}) - dh
        f[0] -= BivariatePolynomial(dh.A)
        f[1] -= BivariatePolynomial(dh.B)
    return omega, ConstructionTrace(steps, tuple(f))


def compute_standard_basis(curve: PuiseuxCurve) -> ExtendedStandardBasis:
    """Construct omega_1, ..., omega_s and the semimodule of the curve.

    Starts from the semimodule Gamma(n, m) of dx and dy and grows it by
    one generator a stage.  Each stage opens with the seed of _seed, whose
    value is the semimodule's last axis, and hands it to _cancel with stop
    order c_Gamma for every step: the engine cancels the leading value
    against the cheapest x^c y^d omega_j while it stays in the current
    semimodule.  A value outside it is a new generator, above the axis;
    _built assembles its form and _certify checks it before the next stage
    opens.  A value reaching the semigroup conductor ends the
    construction.  Both run at order conductor + 2, which decides every
    branch exactly; the truncation T only matters for the adjustment.
    """
    pair = curve.pair
    n, m = pair.n, pair.m
    c_gamma = pair.conductor
    work = c_gamma + 2
    sm = GammaSemimodule(pair, (n, m))
    forms = [OneForm(pair, {(0, 0): 1}, None), OneForm(pair, None, {(0, 0): 1})]
    traces = {}
    while True:
        seed = _seed(sm)
        _, _, steps, value = _cancel(curve, sm, forms, seed, c_gamma, c_gamma,
                                     work)
        if value >= c_gamma:
            return ExtendedStandardBasis(curve, sm, forms, traces)
        if value <= sm.axes[-1]:
            raise InternalDisagreement("generator %d at or under the axis %d"
                                       % (value, sm.axes[-1]))
        i = sm.s_index + 1
        omega, traces[i] = _built(curve, forms, seed, steps, None)
        _certify(curve, sm, omega, i, OrderResult.Finite(value), work)
        forms.append(omega)
        if len(forms) > n:
            raise InternalDisagreement("more generators than residues mod %d"
                                       % n)
        sm = GammaSemimodule(pair, sm.basis + (value,))


def _certify(curve, sm, omega: OneForm, i: int, value, prec):
    """The certificate of every basis form past dy, the adjusted one
    included: omega_i, built over the semimodule sm of omega_-1 ..
    omega_{i-1}, has the differential value `value` by its own pullback
    below prec, the divisorial order t_i that sm reads off its axes, and
    is basic and resonant."""
    got = nu_C_form(curve, omega, prec)
    if got != value:
        raise InternalDisagreement("omega_%d has value %r, not %r"
                                   % (i, got, value))
    order = nu_E_form(omega)
    if order != sm.critical_orders[-1]:
        raise InternalDisagreement("omega_%d has order %d, not t = %d"
                                   % (i, order, sm.critical_orders[-1]))
    if not is_basic(omega):
        raise InternalDisagreement("omega_%d is not basic" % i)
    if not is_resonant(omega):
        raise InternalDisagreement("omega_%d is not resonant" % i)


def dicritically_adjust(basis: ExtendedStandardBasis) -> OneForm:
    """Extend the basis with omega_{s+1}, invariant up to the truncation.

    The last stage of the construction: the seed of _seed, on the last
    axis u_{s+1}, goes to _cancel at the full curve truncation with stop
    order T for the first step and c_Gamma + 1 after it: u_{s+1} always
    has a second representation over some omega_k with k < s, so the
    first cancellation fires even past the conductor, and later ones stop
    there.  Whatever finite value survives is integrated into a potential
    h, and _built assembles omega = eta - dh once from its levels.
    _certify checks it as it checks every omega_i, with value AtLeast(T)
    by its own pullback below T and order t_{s+1}; it is also checked to
    be totally dicritical before it is stored.
    """
    if basis.adjusted is not None:
        return basis.adjusted
    curve, sm = basis.curve, basis.semimodule
    seed = _seed(sm)
    stop = curve.pair.conductor + 1
    a_eta, E, steps, nu = _cancel(curve, sm, basis.forms, seed,
                                  curve.trunc, stop)
    if nu < (stop if steps else curve.trunc):
        raise InternalDisagreement("value %d under the conductor escaped"
                                   " the construction" % nu)
    potential = None
    if not a_eta.truncate(curve.trunc).is_zero():
        # a(t) dt/t: the integrand is a(t) / t, on the same integers
        potential = _integrate(curve, {k - 1: v for k, v in
                                       a_eta.coeffs.items()},
                               E, a_eta.trunc - 1)
    omega, trace = _built(curve, basis.forms, seed, steps, potential)
    i = sm.s_index + 1
    _certify(curve, sm, omega, i, OrderResult.AtLeast(curve.trunc),
             curve.trunc)
    if not is_totally_dicritical(omega):
        raise InternalDisagreement("adjusted form is not totally dicritical")
    basis.adjusted = omega
    basis.traces[i] = trace
    return omega


def delorme_decompose(basis: ExtendedStandardBasis, i: int,
                      j: int) -> DelormeDecomposition:
    """Rewrite omega_{i+1} over omega_-1, ..., omega_j and certify the
    value pattern of the summands.

    Starts from the kept levels of omega_{i+1} and substitutes those of
    omega_i, ..., omega_{j+1} in descending order; the result is an exact
    polynomial identity, re-checked here together with the level values.
    The identity is certified on integers (forms._recomposes): each level
    is cleared once and accumulated over the kept integer clouds.
    """
    s, sm = basis.s_index, basis.semimodule
    if not (is_int(i) and is_int(j)):
        raise IndexOutOfRange("Delorme index must be an integer")
    if not 0 <= j <= i <= s:
        raise IndexOutOfRange("need 0 <= j <= i <= %d, got (%s, %s)"
                              % (s, cut(i), cut(j)))
    # first, so that omega_{s+1} and its trace exist when i = s
    target = basis.form(i + 1)
    f = list(basis.traces[i + 1].levels)
    for level in range(i, j, -1):
        h_top = f.pop()
        f = [g + h_top * h for g, h in zip(f, basis.traces[level].levels)]
    k = basis.traces[j + 1].steps[0].j
    t, lam = sm.critical_orders, sm.basis
    vij = t[i + 2] - t[j + 1] + lam[j + 1]
    if not _recomposes(target, basis.forms, f):
        raise InternalDisagreement("decomposition (%d, %d) does not recompose"
                                   % (i, j))
    at_minimum = []
    for ell, g in enumerate(f, -1):
        if g.is_zero():
            continue
        # nu_C(g omega_ell) = nu_C(g) + lambda_ell, so the value needs g
        # only up to vij - lambda_ell; AtLeast means above vij
        order = nu_C_function(basis.curve, g, vij - lam[ell + 1] + 1)
        if not order.finite:
            continue
        value = order.value + lam[ell + 1]
        if value < vij:
            raise InternalDisagreement("summand %d of (%d, %d) has value %s"
                                       " under %d" % (ell, i, j, value, vij))
        if value == vij:
            at_minimum.append(ell)
    if sorted(at_minimum) != sorted((j, k)):
        raise InternalDisagreement("levels touching %d are %r, expected"
                                   " {%d, %d}" % (vij, at_minimum, j, k))
    return DelormeDecomposition(i, j, tuple(f), k, vij)


def semimodule_oracle(curve: PuiseuxCurve) -> GammaSemimodule:
    """The semimodule of differential values, found by brute force.

    Triangularizes the pullbacks of the monomial forms x^a y^b dx and
    x^a y^b dy in weight order, recording every new leading order: the
    rows are unnormalised integer numerators and each elimination is
    series._eliminate, so no rational is built.  A
    recorded order set spanning a semimodule with conductor c makes any
    monomial of weight >= c + n redundant (each minimal generator is the
    least member of its residue class, hence under c + n), so the scan
    stops there; c_Gamma + n m is a hard ceiling.  The only forms built
    are dx and dy: each monomial form is pulled back as one of them moved
    by (a, b).  It shares only the pullbacks, _eliminate and the
    semimodule type with the construction.
    """
    pair = curve.pair
    n, m = pair.n, pair.m
    cap = pair.conductor + n * m
    # (weight, kind, a, b): kind 0 is x^a y^b dx, kind 1 is x^a y^b dy
    monos = sorted((w, kind, a, b) for a in range(cap // n)
                   for b in range(cap // m)
                   for kind, w in ((0, n * (a + 1) + m * b),
                                   (1, n * a + m * (b + 1))) if w < cap)
    # pivot rows of integer numerators, keyed by the recorded orders
    table = {}
    span = None
    bound = cap
    dxdy = (OneForm(pair, {(0, 0): 1}), OneForm(pair, None, {(0, 0): 1}))
    for w, kind, a, b in monos:
        if w >= bound:
            break
        s, _ = _pullback(curve, dxdy[kind], bound, a, b)
        while True:
            o = s.order_lb()
            if o >= bound:
                break
            pivot = table.get(o)
            if pivot is None:
                table[o] = s
                # an order inside the span changes neither it nor bound
                if span is None or not span.contains(o):
                    span = GammaSemimodule(pair, minimal_basis(pair, table))
                    bound = min(bound, span.conductor + n)
                break
            _eliminate(s, 1, o, pivot)
    return span
