import fractions

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspidal.errors import NotPreBasic, QAboveOrder, ZeroForm
from cuspidal.forms import (BivariatePolynomial, OneForm, Region,
                            _integer_cloud, differential, initial_part,
                            is_basic, is_prebasic, is_resonant, nu_E_form,
                            rdo)
from cuspidal.rationals import Q, rat
from cuspidal.semigroup import PuiseuxPair

from oracles import FractionGcdCounter

P511 = PuiseuxPair(5, 11)
P49 = PuiseuxPair(4, 9)


def omega1(pair=P511):
    # n x dy - m y dx, the universal first resonant form
    return OneForm(pair, A={(0, 1): rat(-pair.m)}, B={(1, 0): rat(pair.n)})


def dicritical_49_form():
    A = {(0, 5): rat(7), (9, 1): rat(2), (9, 2): rat(-2), (2, 4): rat(-9)}
    B = {(3, 3): rat(4), (10, 0): rat(-1), (10, 1): rat(2),
         (1, 4): rat(-3), (8, 2): rat(-1)}
    return OneForm(P49, A, B)


@st.composite
def small_forms(draw, pair=P511, max_exp=6):
    n_terms = draw(st.integers(min_value=1, max_value=5))
    A, B = {}, {}
    for _ in range(n_terms):
        a = draw(st.integers(min_value=0, max_value=max_exp))
        b = draw(st.integers(min_value=0, max_value=max_exp))
        c = draw(st.integers(min_value=-4, max_value=4))
        if draw(st.booleans()):
            A[(a, b)] = A.get((a, b), rat(0)) + rat(c)
        else:
            B[(a, b)] = B.get((a, b), rat(0)) + rat(c)
    return OneForm(pair, A, B)


def test_cloud_of_reference_form():
    w = dicritical_49_form()
    assert w.cloud == {
        (1, 5): (rat(7), rat(-3)),
        (10, 1): (rat(2), rat(-1)),
        (10, 2): (rat(-2), rat(2)),
        (3, 4): (rat(-9), rat(4)),
        (8, 3): (rat(0), rat(-1)),
    }


def test_nu_E_examples():
    assert nu_E_form(omega1()) == 16
    assert nu_E_form(dicritical_49_form()) == 48
    assert nu_E_form(OneForm(P511, A={(0, 0): rat(1)})) == 5
    assert nu_E_form(OneForm(P511, B={(0, 0): rat(1)})) == 11
    with pytest.raises(ZeroForm):
        nu_E_form(OneForm(P511))


def test_initial_part_slices():
    w = dicritical_49_form()
    expected = OneForm(P49, A={(2, 4): rat(-9)}, B={(3, 3): rat(4)})
    assert initial_part(w, 48) == expected
    assert initial_part(w, 40).is_zero()
    with pytest.raises(QAboveOrder):
        initial_part(w, 49)
    assert initial_part(omega1(), 16) == omega1()


def test_rdo_and_basic():
    assert rdo(omega1()) == 0
    assert is_basic(omega1())
    w = dicritical_49_form()
    assert rdo(w) == 35
    assert is_basic(w)


@settings(max_examples=80)
@given(small_forms(), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=3))
def test_rdo_ignores_monomial_factors(w, a, b):
    if w.is_zero():
        return
    assert rdo(w.times_monomial(a, b)) == rdo(w)
    assert nu_E_form(w.times_monomial(a, b)) == \
        nu_E_form(w) + a * w.pair.n + b * w.pair.m


def test_prebasic_vertices():
    assert is_prebasic(omega1()) == (1, 1)
    assert is_prebasic(dicritical_49_form()) == (3, 4)
    # two cloud points on one weight level can never have a vertex
    level_tie = differential(
        BivariatePolynomial({(11, 0): rat(-1), (0, 5): rat(1)}), P511)
    assert is_prebasic(level_tie) is None
    # a skew two-point cloud still has one: (0,1) sits in R(1,0)
    assert is_prebasic(OneForm(P511, A={(0, 0): rat(1)},
                               B={(0, 0): rat(1)})) == (1, 0)


def test_resonance():
    assert is_resonant(omega1())
    assert is_resonant(dicritical_49_form())
    assert not is_resonant(OneForm(P511, B={(0, 0): rat(1)}))
    with pytest.raises(NotPreBasic):
        is_resonant(differential(
            BivariatePolynomial({(11, 0): rat(-1), (0, 5): rat(1)}), P511))


def test_initial_part_data_vertex_coefficients():
    # the vertex and its logarithmic coefficients (mu, zeta)
    w = dicritical_49_form()
    vertex = is_prebasic(w)
    assert vertex == (3, 4)
    assert w.cloud[vertex] == (rat(-9), rat(4))


def test_region_base_is_strict_weight_minimum():
    region = Region(P49, (3, 4))
    base_w = 4 * 3 + 9 * 4
    for alpha in range(0, 15):
        for beta in range(0, 15):
            if region.contains((alpha, beta)) and (alpha, beta) != (3, 4):
                assert 4 * alpha + 9 * beta > base_w
    # boundary points of the two halfplanes stay inside
    assert region.contains((1, 5)) and region.contains((10, 1))


@settings(max_examples=80)
@given(small_forms())
def test_cloud_round_trip(w):
    if w.is_zero():
        return
    assert OneForm.from_cloud(w.pair, w.cloud) == w


@settings(max_examples=80)
@given(small_forms(), small_forms())
def test_form_arithmetic(u, v):
    assert (u + v) - v == u
    assert (u - v) + v == u
    assert u + v == v + u


@settings(max_examples=80)
@given(small_forms(), small_forms())
def test_kernel_products_store_no_zeros(w, v):
    # the A part of a second random form serves as a random polynomial
    p = BivariatePolynomial(v.A)
    total = OneForm(w.pair)
    for (a, b), c in p.coeffs.items():
        total = total + w.times_monomial(a, b, c)
    product = w.times_polynomial(p)
    assert product == total
    assert (w - w).is_zero() and (p - p).is_zero()
    for table in (product.A, product.B, (p * p).coeffs, (w + v).A,
                  (w - v).B):
        assert 0 not in table.values()


def test_constructors_drop_zero_coefficients():
    # the filter reads a coefficient's truth, the same for int, Q(0) and
    # Q(0, 7), which is Q(0)
    for zero in (0, Q(0), Q(0, 7)):
        assert OneForm(P511, {(0, 1): zero}, {(1, 0): zero}).is_zero()
        assert BivariatePolynomial({(2, 3): zero}).is_zero()
    assert BivariatePolynomial.monomial(1, 1, 0).is_zero()
    assert OneForm(P511, {(0, 1): Q(0), (1, 1): rat(2)}).A == \
        {(1, 1): rat(2)}


@settings(max_examples=80)
@given(small_forms())
def test_differential_preserves_order(w):
    # reuse the A part of a random form as a random constant-free polynomial
    h = BivariatePolynomial({k: v for k, v in w.A.items() if k != (0, 0)})
    if h.is_zero():
        return
    order = min(w.pair.n * a + w.pair.m * b for (a, b) in h.coeffs)
    assert nu_E_form(differential(h, w.pair)) == order


def rational_forms():
    coeffs = st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.builds(rat, st.integers(-20, 20), st.integers(1, 12)), max_size=5)
    return st.builds(lambda A, B: OneForm(P511, A, B), coeffs, coeffs)


def prime_factors(k):
    out, p = set(), 2
    while p * p <= k:
        while k % p == 0:
            out.add(p)
            k //= p
        p += 1
    return out | ({k} if k > 1 else set())


@settings(max_examples=150)
@given(rational_forms())
def test_integer_cloud_clears_with_the_least_scalar(w):
    cloud, L = _integer_cloud(w)
    assert cloud == {p: (mu * L, zeta * L)
                     for p, (mu, zeta) in w.cloud.items()}
    assert all(type(c) is int for mz in cloud.values() for c in mz)
    for p in prime_factors(L):
        assert any((c * (L // p)).denominator != 1
                   for mz in w.cloud.values() for c in mz)


@pytest.mark.skipif(Q is not fractions.Fraction,
                    reason="counts the normalisations of fractions.Fraction")
def test_negation_builds_no_rational(monkeypatch):
    # -omega flips every sign: no product, so no normalisation
    w = OneForm(P511, A={(0, 1): rat(-11, 6), (2, 3): rat(5, 4)},
                B={(1, 0): rat(5, 6), (4, 1): rat(-7, 9)})
    counter = FractionGcdCounter(monkeypatch)
    negated = -w
    assert counter.calls == 0
    assert negated.A == {(0, 1): rat(11, 6), (2, 3): rat(-5, 4)}
    assert negated.B == {(1, 0): rat(-5, 6), (4, 1): rat(7, 9)}
    assert negated == w.times_monomial(0, 0, -1)
