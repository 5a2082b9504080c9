import dataclasses
import fractions
import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspidal import blowup, forms, stdbasis
from cuspidal.corpus import random_cusp_curve
from cuspidal.errors import IndexOutOfRange, InternalDisagreement, NotACusp
from cuspidal.forms import (BivariatePolynomial, OneForm, is_basic,
                            is_prebasic, is_resonant, nu_E_form)
from cuspidal.rationals import Q, rat
from cuspidal.semigroup import PuiseuxPair, contains
from cuspidal.semimodule import GammaSemimodule, Limits, minimal_basis
from cuspidal.series import (OrderResult, PuiseuxCurve, TruncatedSeries,
                             nu_C_form, nu_C_function)
from cuspidal.stdbasis import (compute_standard_basis, delorme_decompose,
                               dicritically_adjust, semimodule_oracle)

from oracles import FractionGcdCounter, combination_by_rationals

P511 = PuiseuxPair(5, 11)


def curve_5_11():
    return PuiseuxCurve(P511, {11: 1, 12: 1, 13: 1})


def curve_7_17():
    return PuiseuxCurve(PuiseuxPair(7, 17), {17: 1, 30: 1, 33: 1, 36: 1})


def test_reference_basis_values():
    basis = compute_standard_basis(curve_5_11())
    assert basis.semimodule.basis == (5, 11, 17, 23, 29)
    assert basis.semimodule.critical_orders == (5, 11, 16, 21, 26, 31)
    assert basis.semimodule.axes == (5, 16, 22, 28, 34)
    assert basis.s_index == 3
    sm = basis.semimodule
    for i in range(-1, 4):
        assert nu_C_form(basis.curve, basis.form(i)) == \
            OrderResult.Finite(sm.basis[i + 1])
        assert nu_E_form(basis.form(i)) == sm.critical_orders[i + 1]


def test_reference_basis_exact_forms():
    # The deterministic tie-break pins the first three forms completely:
    # w1 = 5x dy - 11y dx, w2 = 11x w1 - 5y dy, w3 = x w2 + y w1.
    basis = compute_standard_basis(curve_5_11())
    w1 = OneForm(P511, A={(0, 1): rat(-11)}, B={(1, 0): rat(5)})
    w2 = OneForm(P511, A={(1, 1): rat(-121)},
                 B={(2, 0): rat(55), (0, 1): rat(-5)})
    w3 = OneForm(P511, A={(2, 1): rat(-121), (0, 2): rat(-11)},
                 B={(3, 0): rat(55)})
    assert basis.form(1) == w1
    assert basis.form(2) == w2
    assert basis.form(3) == w3
    assert w2 == w1.times_monomial(1, 0, 11) - OneForm(
        P511, B={(0, 1): rat(5)})
    assert w3 == w2.times_monomial(1, 0) + w1.times_monomial(0, 1)


def test_seven_seventeen_semimodule():
    basis = compute_standard_basis(curve_7_17())
    assert basis.semimodule.basis == (7, 17, 37, 57)
    assert semimodule_oracle(basis.curve) == basis.semimodule


def test_quasi_homogeneous_collapses():
    basis = compute_standard_basis(PuiseuxCurve(P511, {11: 1}))
    assert basis.s_index == 0
    assert basis.semimodule.basis == (5, 11)
    adjusted = dicritically_adjust(basis)
    assert adjusted == OneForm(P511, A={(0, 1): rat(-11)}, B={(1, 0): rat(5)})
    assert nu_E_form(adjusted) == 16
    assert nu_C_form(basis.curve, adjusted, basis.curve.trunc) == \
        OrderResult.AtLeast(basis.curve.trunc)


def corpus_007():
    """Member 7 of criterion 06's sequence, (t^9, t^11): its adjustment
    leaves no residual, so it takes no potential."""
    rng = random.Random(1319)
    for _ in range(8):
        curve = random_cusp_curve(rng, max_n=9, max_extra=4, max_weight=110)
    return curve


def integrated_potentials(monkeypatch) -> list:
    """The potentials h that stdbasis._integrate returns from now on."""
    real = stdbasis._integrate
    out = []

    def recorded(*args):
        out.append(real(*args))
        return out[-1]

    monkeypatch.setattr(stdbasis, "_integrate", recorded)
    return out


@pytest.mark.parametrize("curve, potential",
                         [(curve_5_11, True), (curve_7_17, True),
                          (corpus_007, False)],
                         ids=["ex5_11", "ex7_17", "corpus_007"])
def test_certificate_is_the_adjusted_forms_own_value(monkeypatch, curve,
                                                     potential):
    # the adjustment takes a potential exactly when it integrates one
    potentials = integrated_potentials(monkeypatch)
    c = curve()
    basis = compute_standard_basis(c)
    omega = dicritically_adjust(basis)
    assert (potentials != []) == potential
    assert nu_C_form(c, omega, c.trunc) == nu_C_form(c, omega) == \
        OrderResult.AtLeast(c.trunc)
    # each trace's levels are the one record of how its form was built
    for k in range(1, basis.s_index + 2):
        levels = basis.traces[k].levels
        assert len(levels) == k + 1
        assert combination_by_rationals(basis.forms[:k + 1], levels) == \
            basis.form(k)


@pytest.mark.parametrize("curve", [curve_5_11, curve_7_17],
                         ids=["ex5_11", "ex7_17"])
def test_cancellation_engine_builds_no_form(monkeypatch, curve):
    # _seed names the seed monomial and _cancel hands back only its steps,
    # reading every x^c y^d omega_j off omega_j's cloud; _built assembles
    # the form once
    c = curve()
    basis = compute_standard_basis(c)
    s = basis.s_index
    basis.form(s + 1)

    def refuse(*args, **kwargs):
        raise AssertionError("the cancellation engine built a form")

    monkeypatch.setattr(OneForm, "__sub__", refuse)
    monkeypatch.setattr(OneForm, "__init__", refuse)
    monkeypatch.setattr(BivariatePolynomial, "__init__", refuse)
    conductor = c.pair.conductor
    runs = [(GammaSemimodule(c.pair, basis.semimodule.basis[:k + 1]),
             basis.forms[:k + 1], conductor, conductor, conductor + 2, k)
            for k in range(1, s + 1)]
    runs.append((basis.semimodule, basis.forms, c.trunc, conductor + 1,
                 None, s + 1))
    for sm, forms, first_stop, stop, prec, k in runs:
        seed = stdbasis._seed(sm)
        *_, steps, _ = stdbasis._cancel(c, sm, forms, seed, first_stop, stop,
                                        prec)
        assert steps == basis.traces[k].steps


def test_stage_certificate_refuses_a_wrong_form(monkeypatch):
    # with the last mu doubled, omega_1 keeps the value 16 that the step
    # was meant to cancel; its own pullback says so
    real = stdbasis._cancel

    def doubled(*args):
        a_eta, E, steps, nu = real(*args)
        if steps:
            steps = steps[:-1] + (dataclasses.replace(
                steps[-1], mu=2 * steps[-1].mu),)
        return a_eta, E, steps, nu

    monkeypatch.setattr(stdbasis, "_cancel", doubled)
    with pytest.raises(InternalDisagreement) as caught:
        compute_standard_basis(curve_5_11())
    assert str(caught.value) == ("omega_1 has value Finite(16), not"
                                 " Finite(17)")


def test_adjustment_refuses_a_potential_that_leaves_a_residue(monkeypatch):
    # without its least-weight monomial c x^a y^b, the potential leaves
    # d(c x^a y^b) in the adjusted form, of value 5 a + 11 b < T
    real = stdbasis._integrate
    dropped = []

    def short(curve, xi, E, trunc):
        h = real(curve, xi, E, trunc)
        low = min(h.coeffs, key=lambda p: 5 * p[0] + 11 * p[1])
        dropped.append(5 * low[0] + 11 * low[1])
        return BivariatePolynomial({p: c for p, c in h.coeffs.items()
                                    if p != low})

    monkeypatch.setattr(stdbasis, "_integrate", short)
    basis = compute_standard_basis(curve_5_11())
    with pytest.raises(InternalDisagreement) as caught:
        dicritically_adjust(basis)
    assert str(caught.value) == ("omega_4 has value Finite(%d), not"
                                 " AtLeast(150)" % dropped[0])
    assert basis.adjusted is None and basis.s_index + 1 not in basis.traces


def off_axis_limits(monkeypatch):
    """From now on stdbasis reads ell1 one too large, so the x seed of the
    (5, 11) basis lands 5 past the last axis."""
    real = stdbasis.limits
    monkeypatch.setattr(stdbasis, "limits", lambda sm, i: Limits(
        real(sm, i).ell1 + 1, real(sm, i).ell2))


def counted_calls(monkeypatch, name: str) -> list:
    """The argument tuples of every call to stdbasis.<name> from now on."""
    real = getattr(stdbasis, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(stdbasis, name, counted)
    return calls


def test_stage_seed_off_the_axis_is_refused_before_it_cancels(monkeypatch):
    off_axis_limits(monkeypatch)
    cancels = counted_calls(monkeypatch, "_cancel")
    with pytest.raises(InternalDisagreement) as caught:
        compute_standard_basis(curve_5_11())
    assert str(caught.value) == "seed value 21 off the last axis 16"
    assert cancels == []


def test_adjustment_seed_off_the_axis_is_refused(monkeypatch):
    basis = compute_standard_basis(curve_5_11())
    off_axis_limits(monkeypatch)
    with pytest.raises(InternalDisagreement) as caught:
        dicritically_adjust(basis)
    assert str(caught.value) == "seed value 39 off the last axis 34"
    assert basis.adjusted is None


def test_certificate_reads_the_order_off_the_semimodule(monkeypatch):
    # t_1 = 16 and t_4 = 31 are the semimodule's critical orders
    basis = compute_standard_basis(curve_5_11())
    real = stdbasis.nu_E_form
    monkeypatch.setattr(stdbasis, "nu_E_form", lambda omega: real(omega) + 1)
    with pytest.raises(InternalDisagreement) as caught:
        compute_standard_basis(curve_5_11())
    assert str(caught.value) == "omega_1 has order 17, not t = 16"
    with pytest.raises(InternalDisagreement) as caught:
        dicritically_adjust(basis)
    assert str(caught.value) == "omega_4 has order 32, not t = 31"
    assert basis.adjusted is None


def test_stage_shape_is_certified_before_the_next_stage(monkeypatch):
    built = counted_calls(monkeypatch, "_built")
    monkeypatch.setattr(stdbasis, "is_basic", lambda omega: False)
    with pytest.raises(InternalDisagreement) as caught:
        compute_standard_basis(curve_5_11())
    assert str(caught.value) == "omega_1 is not basic"
    assert len(built) == 1


@pytest.mark.skipif(Q is not fractions.Fraction,
                    reason="counts the normalisations of fractions.Fraction")
@pytest.mark.parametrize("curve", [curve_5_11(), curve_7_17()],
                         ids=["5,11", "7,17"])
def test_adjustment_integrates_on_integers(monkeypatch, curve):
    # from the engine's return to the potential, the adjustment builds one
    # rational per monomial of the potential and none per coefficient of
    # its integrand, which reaches the integrator as integer numerators
    counter = FractionGcdCounter(monkeypatch)
    returns, potentials = [], []
    real_cancel, real_integrate = stdbasis._cancel, stdbasis._integrate

    def cancel(*args):
        out = real_cancel(*args)
        returns.append(counter.calls)
        return out

    def integrate(curve, xi, E, trunc):
        assert all(type(v) is int for v in xi.values())
        h = real_integrate(curve, xi, E, trunc)
        potentials.append((counter.calls - returns[-1], len(xi),
                           len(h.coeffs)))
        return h

    monkeypatch.setattr(stdbasis, "_cancel", cancel)
    monkeypatch.setattr(stdbasis, "_integrate", integrate)
    dicritically_adjust(compute_standard_basis(curve))
    [(calls, integrand, monomials)] = potentials
    assert integrand > 0 and monomials > 0
    assert calls <= monomials


def test_smooth_pair_rejected():
    # PuiseuxCurve refuses n = 1, so no smooth branch reaches the
    # construction
    with pytest.raises(NotACusp):
        compute_standard_basis(PuiseuxCurve(PuiseuxPair(1, 3), {3: 1}))


def test_adjusted_form_of_reference_curve():
    basis = compute_standard_basis(curve_5_11())
    adjusted = dicritically_adjust(basis)
    assert nu_E_form(adjusted) == 31
    assert nu_C_form(basis.curve, adjusted) == \
        OrderResult.AtLeast(basis.curve.trunc)
    assert nu_C_form(basis.curve, adjusted, basis.curve.trunc) == \
        OrderResult.AtLeast(basis.curve.trunc)
    assert is_basic(adjusted) and is_resonant(adjusted)
    # idempotent: the second call hands back the stored form
    assert dicritically_adjust(basis) is adjusted


def test_adjustment_finds_the_adjusted_vertex_twice(monkeypatch):
    # _certify's is_resonant finds the vertex once, and the
    # dicriticalness verdict finds it again and reads resonance off it
    basis = compute_standard_basis(curve_5_11())
    calls = []
    real = forms.is_prebasic

    def counted(omega):
        calls.append(omega)
        return real(omega)

    monkeypatch.setattr(forms, "is_prebasic", counted)
    monkeypatch.setattr(blowup, "is_prebasic", counted)
    adjusted = dicritically_adjust(basis)
    assert len(calls) == 2 and all(w is adjusted for w in calls)


def test_adjustment_with_potential_small_even_n(monkeypatch):
    # (t^2, t^7 + t^8): u_1 = 9 passes the conductor 6, so the loop takes
    # exactly the opening cancellation and integrates the rest.
    potentials = integrated_potentials(monkeypatch)
    pair = PuiseuxPair(2, 7)
    basis = compute_standard_basis(PuiseuxCurve(pair, {7: 1, 8: 1}))
    assert basis.s_index == 0
    adjusted = dicritically_adjust(basis)
    expected = OneForm(pair,
                       A={(0, 1): rat(-7, 2), (4, 0): rat(-1, 2)},
                       B={(1, 0): rat(1)})
    assert adjusted == expected
    [h] = potentials
    assert h is not None
    assert nu_E_form(adjusted) == 9


def test_oracle_matches_on_reference_curves():
    for c in (curve_5_11(), curve_7_17(), PuiseuxCurve(P511, {11: 1})):
        assert semimodule_oracle(c) == compute_standard_basis(c).semimodule


@pytest.mark.parametrize("curve", [curve_5_11, curve_7_17],
                         ids=["ex5_11", "ex7_17"])
def test_oracle_builds_only_dx_and_dy(monkeypatch, curve):
    # each x^a y^b dx and x^a y^b dy it scans is dx or dy moved by (a, b)
    c = curve()
    want = compute_standard_basis(c).semimodule
    built = []
    real = OneForm.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(OneForm, "__init__", counted)
    assert semimodule_oracle(c) == want
    assert len(built) <= 2


@pytest.mark.parametrize("curve", [curve_5_11, curve_7_17],
                         ids=["ex5_11", "ex7_17"])
def test_oracle_rebuilds_its_span_only_when_it_grows(monkeypatch, curve):
    import cuspidal.stdbasis as stdbasis
    calls = []

    def counted(pair, generators):
        calls.append(tuple(generators))
        return minimal_basis(pair, generators)

    monkeypatch.setattr(stdbasis, "minimal_basis", counted)
    result = semimodule_oracle(curve())
    # one rebuild per new generator: an order inside the span adds nothing
    assert len(calls) == len(result.basis)


@pytest.mark.parametrize("curve", [curve_5_11, curve_7_17],
                         ids=["ex5_11", "ex7_17"])
def test_every_product_is_a_power_table_entry(monkeypatch, curve):
    # the curve's power table is the one series cache: the construction,
    # the adjustment, Delorme and the oracle multiply no series of their own
    depth = [0]
    outside = []
    y_power, mul = PuiseuxCurve.y_power, TruncatedSeries.__mul__

    def nested_y_power(self, *args, **kwargs):
        depth[0] += 1
        try:
            return y_power(self, *args, **kwargs)
        finally:
            depth[0] -= 1

    def recorded_mul(self, other):
        if not depth[0]:
            outside.append((self.order_lb(), other.order_lb()))
        return mul(self, other)

    monkeypatch.setattr(PuiseuxCurve, "y_power", nested_y_power)
    monkeypatch.setattr(TruncatedSeries, "__mul__", recorded_mul)
    c = curve()
    basis = compute_standard_basis(c)
    s = basis.s_index
    basis.form(s + 1)
    for i in range(s + 1):
        for j in range(i + 1):
            delorme_decompose(basis, i, j)
    semimodule_oracle(c)
    assert outside == []


def test_form_s_plus_one_adjusts_on_first_request():
    fresh = compute_standard_basis(curve_5_11())
    s = fresh.s_index
    assert fresh.adjusted is None
    omega = fresh.form(s + 1)
    assert omega is dicritically_adjust(fresh)
    assert fresh.adjusted is omega
    adjusted_first = compute_standard_basis(curve_5_11())
    assert dicritically_adjust(adjusted_first) == omega
    assert len(fresh.traces[s + 1].steps) == \
        len(adjusted_first.traces[s + 1].steps)
    with pytest.raises(IndexOutOfRange):
        fresh.form(s + 2)


def test_delorme_level_zero_of_omega1():
    basis = compute_standard_basis(curve_5_11())
    dec = delorme_decompose(basis, 0, 0)
    assert dec.vij == 16
    assert dec.distinguished_index == -1
    assert dec.coefficients == (BivariatePolynomial({(0, 1): rat(-11)}),
                                BivariatePolynomial({(1, 0): rat(5)}))


def test_delorme_one_one_of_omega2():
    basis = compute_standard_basis(curve_5_11())
    dec = delorme_decompose(basis, 1, 1)
    assert dec.vij == 22
    assert dec.distinguished_index == 0
    assert dec.coefficients == (BivariatePolynomial(),
                                BivariatePolynomial({(0, 1): rat(-5)}),
                                BivariatePolynomial({(1, 0): rat(11)}))


def test_delorme_descends_to_plain_coefficients():
    basis = compute_standard_basis(curve_5_11())
    dec = delorme_decompose(basis, 1, 0)
    assert dec.vij == 21
    assert dec.distinguished_index == -1
    f_m1, f_0 = dec.coefficients
    assert f_m1 == BivariatePolynomial({(1, 1): rat(-121)})
    assert f_0 == BivariatePolynomial({(2, 0): rat(55), (0, 1): rat(-5)})


def test_delorme_all_pairs_reference():
    # the operation re-checks recomposition and the level pattern itself;
    # here we pin the v table and that every pair goes through
    basis = compute_standard_basis(curve_5_11())
    lam, t = basis.semimodule.basis, basis.semimodule.critical_orders
    for i in range(0, basis.s_index + 1):
        for j in range(0, i + 1):
            dec = delorme_decompose(basis, i, j)
            assert dec.vij == t[i + 2] - t[j + 1] + lam[j + 1]
            assert len(dec.coefficients) == j + 2
            assert -1 <= dec.distinguished_index < j


def test_delorme_vii_is_the_axis():
    basis = compute_standard_basis(curve_5_11())
    for i in range(0, basis.s_index + 1):
        assert delorme_decompose(basis, i, i).vij == \
            basis.semimodule.axes[i + 1]


def test_delorme_refuses_a_decomposition_that_does_not_recompose():
    basis = compute_standard_basis(curve_5_11())
    for target in (2, 3):
        trace = basis.traces[target]
        f = list(trace.levels)
        f[0] = f[0] + BivariatePolynomial.monomial(1, 1, rat(1, 3))
        basis.traces[target] = dataclasses.replace(trace, levels=tuple(f))
    for i, j in ((1, 1), (2, 0)):
        with pytest.raises(InternalDisagreement, match="does not recompose"):
            delorme_decompose(basis, i, j)


@functools.cache
def decomposed(curve):
    """The basis of curve() and its Delorme coefficients at every (i, j),
    built once per test run; the adjusted form is built too."""
    basis = compute_standard_basis(curve())
    s = basis.s_index
    return basis, {(i, j): delorme_decompose(basis, i, j).coefficients
                   for i in range(s + 1) for j in range(i + 1)}


def random_curve(seed):
    """The curve random_cusp_curve draws from seed, as a callable."""
    def curve():
        return random_cusp_curve(random.Random(seed), max_n=6, max_weight=60)
    return curve


def recomposes_by_rationals(basis, i, levels):
    return basis.form(i + 1) == combination_by_rationals(basis.forms, levels)


# seed 37's omega_2 sums to integers with gcd 7, so its levels carry a
# clearing scalar M / g below the common denominator M
RECOMPOSED_SEEDS = (0, 1, 2, 3, 4, 37)


@pytest.mark.parametrize("curve", [curve_5_11, curve_7_17,
                                   *map(random_curve, RECOMPOSED_SEEDS)],
                         ids=["ex5_11", "ex7_17",
                              *("random%d" % seed
                                for seed in RECOMPOSED_SEEDS)])
def test_integer_recomposition_agrees_with_the_rational_sum(curve):
    # the construction and Delorme's certificate share forms._combined,
    # so a check at j = i re-adds the levels a form was built from; the
    # rational sum of every form's own levels is the independent check
    basis, pairs = decomposed(curve)
    for i in range(1, basis.s_index + 2):
        assert basis.form(i) == combination_by_rationals(
            basis.forms[:i + 1], basis.traces[i].levels)
    for (i, j), levels in pairs.items():
        assert forms._recomposes(basis.form(i + 1), basis.forms, levels)
        assert recomposes_by_rationals(basis, i, levels)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([curve_5_11, curve_7_17]), st.data())
def test_integer_recomposition_refuses_every_perturbation(curve, data):
    # a monomial added to one level, or one nonzero level scaled by p/q
    # != 1, changes the sum by a nonzero multiple of a basis form
    basis, pairs = decomposed(curve)
    i, j = data.draw(st.sampled_from(sorted(pairs)), label="(i, j)")
    levels = list(pairs[i, j])
    k = data.draw(st.integers(0, len(levels) - 1), label="k")
    scale = data.draw(st.builds(rat, st.integers(-9, 9),
                                st.integers(1, 9)), label="p/q")
    if levels[k].is_zero() or scale == 1 or data.draw(st.booleans()):
        a, b = data.draw(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                         label="(a, b)")
        c = data.draw(st.builds(rat, st.integers(-9, 9).filter(bool),
                                st.integers(1, 9)), label="c")
        levels[k] = levels[k] + BivariatePolynomial.monomial(a, b, c)
    else:
        levels[k] = levels[k] * scale
    assert not recomposes_by_rationals(basis, i, levels)
    assert not forms._recomposes(basis.form(i + 1), basis.forms, levels)


@pytest.mark.parametrize("curve", [curve_5_11, curve_7_17],
                         ids=["ex5_11", "ex7_17"])
def test_delorme_substitutes_the_kept_levels(monkeypatch, curve):
    # on a warm basis the potential's differential is already in the
    # levels of omega_{s+1}; no pair takes it again
    basis = compute_standard_basis(curve())
    s = basis.s_index
    basis.form(s + 1)
    calls = []
    real = stdbasis.differential

    def counted(h, pair):
        calls.append(h)
        return real(h, pair)

    monkeypatch.setattr(stdbasis, "differential", counted)
    for i in range(s + 1):
        for j in range(i + 1):
            delorme_decompose(basis, i, j)
    assert calls == []


def test_delorme_index_errors():
    basis = compute_standard_basis(curve_5_11())
    with pytest.raises(IndexOutOfRange):
        delorme_decompose(basis, 4, 0)
    with pytest.raises(IndexOutOfRange):
        delorme_decompose(basis, 1, 2)
    with pytest.raises(IndexOutOfRange):
        delorme_decompose(basis, 0, -1)


def test_vertex_chain_is_monotone():
    basis = compute_standard_basis(curve_5_11())
    n, m = 5, 11
    prev = None
    for i in range(1, basis.s_index + 2):
        form = dicritically_adjust(basis) if i == basis.s_index + 1 \
            else basis.form(i)
        a, b = is_prebasic(form)
        assert n * a + m * b == basis.semimodule.critical_orders[i + 1]
        if prev is not None:
            assert a >= prev[0] and b >= prev[1]
        prev = (a, b)


@settings(deadline=None, max_examples=12)
@given(st.integers(0, 10 ** 6))
def test_random_curves_basis_and_oracle_agree(seed):
    rng = random.Random(seed)
    curve = random_cusp_curve(rng, max_n=6, max_weight=60)
    basis = compute_standard_basis(curve)
    assert semimodule_oracle(curve) == basis.semimodule
    # Thm-style sanity on every run: values, orders, shape
    for i in range(1, basis.s_index + 1):
        assert is_basic(basis.form(i)) and is_resonant(basis.form(i))
    adjusted = dicritically_adjust(basis)
    assert nu_C_form(curve, adjusted) == OrderResult.AtLeast(curve.trunc)
    lam, t = basis.semimodule.basis, basis.semimodule.critical_orders
    for i in range(0, basis.s_index + 1):
        dec = delorme_decompose(basis, i, 0)
        assert dec.vij == t[i + 2] - t[1] + lam[1]


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 10 ** 6))
def test_random_upper_bound_on_values_at_critical_order(seed):
    # sup { nu_C(w) : nu_E(w) = t_i } = lambda_i; random forms stay under
    rng = random.Random(seed)
    curve = random_cusp_curve(rng, max_n=6, max_weight=60)
    basis = compute_standard_basis(curve)
    pair = curve.pair
    n, m = pair.n, pair.m
    sm = basis.semimodule
    for i in range(1, basis.s_index + 1):
        t_i = sm.critical_orders[i + 1]
        from cuspidal.semigroup import represent
        rep = represent(pair, t_i)
        for _ in range(6):
            cloud = {(rep.a, rep.b): (rat(rng.randint(-3, 3)),
                                      rat(rng.randint(1, 3)))}
            for _ in range(rng.randint(0, 2)):
                da, db = rng.randint(0, 2), rng.randint(0, 2)
                pt = (rep.a + da, rep.b + db)
                if pt == (rep.a, rep.b):
                    continue
                cloud[pt] = (rat(rng.randint(-2, 2)), rat(rng.randint(-2, 2)))
            try:
                omega = OneForm.from_cloud(pair, cloud)
            except ValueError:
                continue
            if omega.is_zero() or nu_E_form(omega) != t_i:
                continue
            value = nu_C_form(curve, omega)
            assert value.finite and value.value <= sm.basis[i + 1]
        # ... and the basis form attains the bound
        assert nu_C_form(curve, basis.form(i)) == \
            OrderResult.Finite(sm.basis[i + 1])


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 10 ** 6))
def test_random_value_gap_dominates_order_gap(seed):
    # whenever nu_C(w) leaves Lambda_{i-1}: nu_E(w) - t_i lands in Gamma
    # and nu_C - nu_E >= lambda_i - t_i
    rng = random.Random(seed)
    curve = random_cusp_curve(rng, max_n=6, max_weight=60)
    basis = compute_standard_basis(curve)
    sm = basis.semimodule
    pair = curve.pair
    for _ in range(8):
        i = rng.randint(1, basis.s_index + 1)
        if i > basis.s_index:
            continue
        a, b = rng.randint(0, 2), rng.randint(0, 2)
        omega = basis.form(i).times_monomial(a, b)
        j = rng.randint(0, i - 1)
        omega = omega + basis.form(j).times_monomial(rng.randint(0, 2),
                                                     rng.randint(0, 2),
                                                     rng.choice((-2, -1, 1, 2)))
        value = nu_C_form(curve, omega)
        if not value.finite:
            continue
        order = nu_E_form(omega)
        hit = [k for k in range(0, basis.s_index + 1)
               if not sm.truncated(k - 1).contains(value.value)]
        for k in hit:
            lam_k, t_k = sm.basis[k + 1], sm.critical_orders[k + 1]
            assert contains(pair, order - t_k)
            assert value.value - order >= lam_k - t_k


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 10 ** 6))
def test_random_membership_vs_higher_order_witness(seed):
    # k = lambda_i + n a + m b sits in Lambda_{i-1} exactly when some form
    # of value k has order above t_i + n a + m b
    rng = random.Random(seed)
    curve = random_cusp_curve(rng, max_n=6, max_weight=60)
    basis = compute_standard_basis(curve)
    sm = basis.semimodule
    n, m = curve.pair.n, curve.pair.m
    for _ in range(8):
        i = rng.randint(1, max(1, basis.s_index))
        if i > basis.s_index:
            continue
        a, b = rng.randint(0, 3), rng.randint(0, 2)
        k = sm.basis[i + 1] + n * a + m * b
        inside = sm.truncated(i - 1).contains(k)
        witness = None
        for j in range(-1, i):
            gap = k - sm.basis[j + 1]
            if gap >= 0 and contains(curve.pair, gap):
                c = (gap * pow(n, -1, m)) % m
                d = (gap - n * c) // m
                witness = basis.form(j).times_monomial(c, d)
                break
        assert inside == (witness is not None)
        if witness is not None:
            assert nu_C_form(curve, witness) == OrderResult.Finite(k)
            assert nu_E_form(witness) > \
                sm.critical_orders[i + 1] + n * a + m * b
