"""Differential checks on inputs the other suites do not reach: curves
with rational tail coefficients and leading coefficients, and branch
parameters away from the CLI defaults 1, 2, -1 and 1/2.  The fast routes
are checked against the rational references of oracles.py."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from cuspidal.forms import BivariatePolynomial, OneForm, _integer_cloud
from cuspidal.rationals import Q, rat
from cuspidal.semigroup import PuiseuxPair
from cuspidal.semimodule import GammaSemimodule
from cuspidal.series import (PuiseuxCurve, TruncatedSeries, _pullback,
                             default_truncation, integrate_against_conductor,
                             pullback_form, pullback_function)
from cuspidal.semiroot import solve_invariant_branch, verify_main_theorem
from cuspidal.stdbasis import (_built, _cancel, _seed,
                               compute_standard_basis, semimodule_oracle)

from oracles import (branch_by_rationals, cancel_by_rationals,
                     integrate_by_rationals, oracle_by_rationals,
                     pullback_form_by_rationals, pullback_function_by_rationals)

# m by n, n <= 6 and n m <= 60; drawing n first keeps n = 2, where s = 0
# always, from crowding out the pairs with room for generators
SECOND = {n: [m for m in range(n + 1, 60 // n + 1) if math.gcd(n, m) == 1]
          for n in range(2, 7)}
DEFAULT_PARAMETERS = {rat(1), rat(2), rat(-1), rat(1, 2)}


def small_rationals():
    """p/q with 0 < |p| <= 3 and 0 < q <= 3."""
    return st.builds(rat, st.integers(-3, 3).filter(bool), st.integers(1, 3))


@st.composite
def rational_tail_curves(draw, leads=st.just(rat(1))):
    n = draw(st.integers(2, 6))
    m = draw(st.sampled_from(SECOND[n]))
    exponents = draw(st.lists(st.integers(m + 1, m + 2 * n + 5),
                              max_size=4, unique=True))
    coeffs = {m: draw(leads)}
    for k in exponents:
        coeffs[k] = draw(small_rationals())
    # up to two terms in [s, T), s = ceil((T + m) / 2), over a prime that
    # is new to den, so that the power table splits y (series' two-half
    # rule)
    pair = PuiseuxPair(n, m)
    T = default_truncation(pair)
    for k in draw(st.lists(st.integers((T + m + 1) // 2, T - 1),
                           max_size=2, unique=True)):
        coeffs[k] = rat(draw(st.integers(-3, 3).filter(bool)),
                        draw(st.sampled_from([5, 7, 11])))
    return PuiseuxCurve(pair, coeffs)


@settings(max_examples=100, deadline=None)
@given(rational_tail_curves(), st.data())
def test_rational_tails_oracle_and_semiroot_agree(curve, data):
    basis = compute_standard_basis(curve)
    assert semimodule_oracle(curve) == basis.semimodule
    i = data.draw(st.integers(1, basis.s_index + 1), label="i")
    a = data.draw(small_rationals().filter(
        lambda x: x not in DEFAULT_PARAMETERS), label="a")
    report = verify_main_theorem(basis, i, a)
    assert report["pass"]


@settings(max_examples=40, deadline=None)
@given(rational_tail_curves(), st.data())
def test_fraction_free_solver_matches_the_rational_one(curve, data):
    """c omega has the branches of omega; with c not an integer its
    integer cloud mostly needs a clearing scalar L > 1, which no basis
    form does."""
    basis = compute_standard_basis(curve)
    a = data.draw(small_rationals().filter(
        lambda x: x not in DEFAULT_PARAMETERS), label="a")
    c = data.draw(small_rationals().filter(lambda x: x.denominator > 1),
                  label="c")
    for i in range(1, basis.s_index + 2):
        omega = basis.form(i)
        got = solve_invariant_branch(omega, a, curve.trunc)
        want = branch_by_rationals(omega, a, curve.trunc)
        assert got.y.coeffs == want.y.coeffs
        assert got.trunc == want.trunc
        multiple = omega.times_monomial(0, 0, c)
        assert solve_invariant_branch(multiple, a, curve.trunc) == got
        assert branch_by_rationals(multiple, a, curve.trunc) == want


def monomial_maps(max_size=4):
    """{(a, b): c} with a, b <= 4 and small rational c."""
    return st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                           small_rationals(), max_size=max_size)


@settings(max_examples=80, deadline=None)
@given(rational_tail_curves(leads=small_rationals().filter(
           lambda x: abs(x) != 1)), st.data())
def test_integer_pullbacks_and_potential_match_the_rational_ones(curve,
                                                                 data):
    """The power table holds y over a denominator D > 1 for most of these
    curves, and alpha is not +-1, so every rescale of a row or of the
    residual is exercised."""
    pair = curve.pair
    prec = data.draw(st.one_of(
        st.none(), st.integers(1, curve.trunc - 1),
        st.integers(curve.trunc + 1, curve.trunc + 2 * pair.m)), label="prec")
    omega = OneForm(pair, data.draw(monomial_maps(), label="A"),
                    data.draw(monomial_maps(), label="B"))
    h = BivariatePolynomial(data.draw(monomial_maps(), label="h"))
    for got, want in ((pullback_form(curve, omega, prec),
                       pullback_form_by_rationals(curve, omega, prec)),
                      (pullback_function(curve, h, prec),
                       pullback_function_by_rationals(curve, h, prec))):
        assert got.coeffs == want.coeffs
        assert got.trunc == want.trunc
    c = pair.conductor
    xi = TruncatedSeries(
        data.draw(st.dictionaries(st.integers(c, c + 3 * pair.n),
                                  small_rationals(), min_size=1, max_size=5),
                  label="xi"),
        data.draw(st.sampled_from([None, curve.trunc]), label="xi_trunc"))
    assert integrate_against_conductor(curve, xi).coeffs == \
        integrate_by_rationals(curve, xi).coeffs


@settings(max_examples=80, deadline=None)
@given(rational_tail_curves(leads=small_rationals().filter(
           lambda x: abs(x) != 1)), st.data())
def test_shifted_pullback_is_the_pullback_of_the_monomial_multiple(curve,
                                                                   data):
    """_pullback(curve, f, prec, c, d) moves f's cloud or support by
    (c, d): the row and the scale of x^c y^d f, with no product built."""
    pair = curve.pair
    prec = data.draw(st.one_of(
        st.none(), st.integers(1, curve.trunc - 1),
        st.integers(curve.trunc + 1, curve.trunc + 2 * pair.m)), label="prec")
    c = data.draw(st.integers(0, 3), label="c")
    d = data.draw(st.integers(0, 3), label="d")
    omega = OneForm(pair, data.draw(monomial_maps(), label="A"),
                    data.draw(monomial_maps(), label="B"))
    h = BivariatePolynomial(data.draw(monomial_maps(), label="h"))
    for (got, got_scale), (want, want_scale) in (
            (_pullback(curve, omega, prec, c, d),
             _pullback(curve, omega.times_monomial(c, d), prec)),
            (_pullback(curve, h, prec, c, d),
             _pullback(curve, BivariatePolynomial.monomial(c, d) * h, prec))):
        assert got.coeffs == want.coeffs
        assert got.trunc == want.trunc
        assert got_scale == want_scale


@settings(max_examples=60, deadline=None)
@given(rational_tail_curves(leads=small_rationals()))
def test_fraction_free_cancellation_and_oracle_match_the_rational_ones(curve):
    """Every stage of the construction (at c_Gamma + 2) and the adjustment
    (at full precision) take the same steps as the engine on reduced
    rationals, and stop at the same value with the same a_eta; the form
    assembled from the steps is the reference eta times its clearing
    scalar.  The rational tails put the pullbacks over D > 1, so the
    steps rescale."""
    basis = compute_standard_basis(curve)
    c = curve.pair.conductor
    runs = [(GammaSemimodule(curve.pair, basis.semimodule.basis[:k]),
             basis.forms[:k], c, c, c + 2)
            for k in range(2, len(basis.semimodule.basis) + 1)]
    runs.append((basis.semimodule, basis.forms, curve.trunc, c + 1, None))
    for sm, forms, first_stop, stop, prec in runs:
        seed = _seed(sm)
        A, E, got_steps, got_nu = _cancel(
            curve, sm, forms, seed, first_stop, stop, prec)
        want_eta, a_eta, want_steps, want_nu = cancel_by_rationals(
            curve, sm, forms, forms[-1].times_monomial(*seed), first_stop,
            stop, prec)
        assert _built(curve, forms, seed, got_steps, None)[0] == \
            want_eta.times_monomial(0, 0, _integer_cloud(want_eta)[1])
        assert got_steps == want_steps
        assert got_nu == want_nu
        assert {k: Q(v, E) for k, v in A.coeffs.items()} == a_eta.coeffs
        assert A.trunc == a_eta.trunc
    assert semimodule_oracle(curve) == oracle_by_rationals(curve)
