import json
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuspidal import series
from cuspidal.cli import main
from cuspidal.corpus import example_curve_5_11
from cuspidal.errors import (CuspidalError, InputError,
                             InternalDisagreement, NotACusp, OrderTooLow)
from cuspidal.forms import (BivariatePolynomial, OneForm, _integer_cloud,
                            differential, is_basic, is_prebasic, is_resonant,
                            nu_E_form)
from cuspidal.jsonio import curve_to_json, parse_curve
from cuspidal.rationals import rat, rat_from_str
from cuspidal.semigroup import PuiseuxPair, contains
from cuspidal.series import (OrderResult, PuiseuxCurve, TruncatedSeries,
                             integrate_against_conductor, nu_C_form,
                             nu_C_function, pullback_form, pullback_function)
from cuspidal.semiroot import solve_invariant_branch
from cuspidal.stdbasis import compute_standard_basis, dicritically_adjust

from oracles import _rational_powers, antiderivative, combine, theta

P511 = PuiseuxPair(5, 11)


def curve_5_11():
    return PuiseuxCurve(P511, {11: 1, 12: 1, 13: 1})


def test_series_arithmetic_and_truncation():
    f = TruncatedSeries({3: rat(2), 7: rat(-1)}, trunc=10)
    g = TruncatedSeries({0: rat(1), 5: rat(1)})
    assert combine([(f, 1, 0), (g, 1, 0)]).trunc == 10
    h = f * g
    # trunc(f*g) = min(10 + 0, inf + 3) = 10
    assert h.trunc == 10
    assert h.coeffs == {3: rat(2), 7: rat(-1), 8: rat(2)}
    assert combine([(f, 1, 4)]).trunc == 14
    assert theta(f).coeffs == {3: rat(6), 7: rat(-7)}
    assert antiderivative(f).coeffs == {4: rat(1, 2), 8: rat(-1, 8)}
    assert TruncatedSeries({12: rat(1)}, trunc=10).is_zero()


def test_exact_series_and_cancellation():
    assert TruncatedSeries().trunc == math.inf
    assert TruncatedSeries(None, None) == TruncatedSeries({}, math.inf)
    f = TruncatedSeries({3: rat(2), 7: rat(-1)}, trunc=10)
    g = TruncatedSeries({0: rat(1), 5: rat(1)})
    assert g.trunc == math.inf and g.order_lb() == 0
    assert combine([(f, 1, 0), (f, -1, 0)]).coeffs == {}
    assert combine([(g, 1, 0), (g, -1, 0)]).coeffs == {}
    assert combine([(f * g, 1, 0), (g * f, -1, 0)]).coeffs == {}
    assert combine([(g, 1, 0), (combine([(g, -1, 0)]), 1, 0)]).is_zero()


def test_curve_validation():
    with pytest.raises(NotACusp, match="zero leading coefficient"):
        PuiseuxCurve(P511, {12: 1})
    with pytest.raises(NotACusp, match="zero leading coefficient"):
        PuiseuxCurve(P511, {11: 0, 12: 1})
    with pytest.raises(NotACusp, match="zero leading coefficient"):
        PuiseuxCurve(P511, {})
    with pytest.raises(NotACusp, match=r"term below t\^11"):
        PuiseuxCurve(P511, {10: 1, 11: 1})
    with pytest.raises(ValueError):
        PuiseuxCurve(P511, {11: 1}, trunc=100)
    c = PuiseuxCurve(P511, {11: 1})
    assert c.trunc == 40 + 2 * 55
    # a nonzero term at or above T is refused, not dropped
    with pytest.raises(ValueError,
                       match=r"y term t\^40 at or above the truncation 14"):
        PuiseuxCurve(PuiseuxPair(2, 3), {3: 1, 40: 5})
    with pytest.raises(ValueError,
                       match=r"y term t\^150 at or above the truncation 150"):
        PuiseuxCurve(P511, {11: 1, 150: 2})
    # zero-valued entries are not terms
    assert PuiseuxCurve(P511, {10: 0, 11: 1, 150: 0}) == c


@pytest.mark.parametrize("y", [{11: 1}, {12: 1}, {11: 1, 12.5: 1},
                               {11: 1, 12: True}],
                         ids=["cusp", "not-a-cusp", "float-exponent",
                              "bool-coefficient"])
@pytest.mark.parametrize("trunc", [150.5, True], ids=["float", "bool"])
def test_truncation_must_be_an_integer(y, trunc):
    # the type rule comes before y's type rules and the cusp rules, so a
    # curve that breaks several is refused for its truncation
    with pytest.raises(InputError, match="^truncation must be an integer$"):
        PuiseuxCurve(P511, y, trunc)


@pytest.mark.parametrize("y, rule", [
    ({11: 1, 12.5: 1}, "y exponents must be integers"),
    ({12.0: 1}, "y exponents must be integers"),
    ({True: 1, 11: 1}, "y exponents must be integers"),
    ({11: 1, 12: True}, "y coefficients must be rationals"),
    ({12: 0.5}, "y coefficients must be rationals"),
    ({11: 1, 12: "1"}, "y coefficients must be rationals"),
], ids=["float-exponent", "float-exponent-no-lead", "bool-exponent",
        "bool-coefficient", "float-coefficient-no-lead", "text-coefficient"])
def test_y_entries_are_integers_and_rationals(y, rule):
    # y's type rules come before the cusp rules, and nothing is truncated
    # or converted into a curve
    with pytest.raises(InputError, match="^%s$" % rule):
        PuiseuxCurve(P511, y)


def test_curve_holds_rationals_and_the_series_keeps_what_it_is_given():
    curve = PuiseuxCurve(P511, {11: 1, 12: rat(1, 2), 13: 0})
    assert curve.y.coeffs == {11: 1, 12: rat(1, 2)}
    assert all(type(v) is type(rat(1)) for v in curve.y.coeffs.values())
    f = TruncatedSeries({3: 2, 7: -1, 8: 0, 12: 5}, 10)
    assert f.coeffs == {3: 2, 7: -1}
    assert all(type(v) is int for v in f.coeffs.values())


@example({"n": 2, "m": 3, "y": [[3, "1"], [14, "5"]]})
@example({"n": 2, "m": 3, "y": [[3, "1"], [20, "-1/2"]], "truncation": 20})
@settings(max_examples=150, deadline=None)
@given(st.builds(
    lambda pair, y, trunc: dict(
        {"n": pair[0], "m": pair[1],
         "y": [[k, c] for k, c in sorted(y.items())]},
        **({} if trunc is None else {"truncation": trunc})),
    st.sampled_from([(2, 3), (2, 5), (3, 4), (3, 5), (1, 2)]),
    st.dictionaries(st.integers(0, 40),
                    st.sampled_from(["0", "1", "-2", "1/3"]), max_size=5),
    st.one_of(st.none(), st.integers(0, 45))))
def test_json_and_library_curves_follow_one_set_of_rules(obj):
    """parse_curve refuses exactly the curves PuiseuxCurve refuses, with
    the same message, and builds the same curve otherwise."""
    def outcome(build):
        try:
            return build()
        except (ValueError, CuspidalError) as exc:
            return str(exc)

    coeffs = {k: rat_from_str(c) for k, c in obj["y"]}
    assert outcome(lambda: parse_curve(obj)) == outcome(
        lambda: PuiseuxCurve(PuiseuxPair(obj["n"], obj["m"]), coeffs,
                             obj.get("truncation")))


def test_sums_and_products_rebuild_no_coefficient(monkeypatch):
    c = PuiseuxCurve(P35, Y35)
    omega = OneForm(P35, {(1, 0): rat(2), (0, 2): rat(-1, 3)},
                    {(0, 1): rat(5), (2, 0): rat(1, 7)})
    f = c.y_power(2)
    g = TruncatedSeries({0: rat(1), 4: rat(-2, 7), 9: rat(3)}, 30)
    expected = [f * g, pullback_form(c, omega)]
    calls = []
    real = series.rat

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(series, "rat", counted)
    assert [f * g, pullback_form(c, omega)] == expected
    assert calls == []


def _over(row, den):
    """A power-table row of integer numerators, read over den."""
    return TruncatedSeries({k: rat(v, den) for k, v in row.coeffs.items()},
                           row.trunc)


def test_power_table_reads_below_a_full_power_without_products(monkeypatch):
    c = curve_5_11()
    b = 4
    c.y_power(b)
    full = _repeated_product(c, b)
    products, grown = [], []
    mul, accumulate = TruncatedSeries.__mul__, series._accumulate
    square = series._square

    def counted(self, other):
        products.append((self, other))
        return mul(self, other)

    def counted_accumulate(*args):
        grown.append(args[2:])
        return accumulate(*args)

    def counted_square(*args):
        grown.append(args[1:])
        return square(*args)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    monkeypatch.setattr(series, "_accumulate", counted_accumulate)
    monkeypatch.setattr(series, "_square", counted_square)
    for p in (20, 61, 100, c.trunc):
        assert c.y_power(b, p).trunc == p
        assert c.theta_y_times_power(b - 1, p).trunc == p
        assert _over(c.y_power(b, p), c.den ** b) == full.truncate(p)
        assert _over(c.theta_y_times_power(b - 1, p), b * c.den ** b) == \
            TruncatedSeries({k: v * k / b for k, v in full.coeffs.items()}, p)
    assert products == []
    assert grown == []


P35 = PuiseuxPair(3, 5)
Y35 = {5: rat(1), 6: rat(-2), 7: rat(1, 3), 9: rat(1)}


def _repeated_product(curve, b):
    out = TruncatedSeries({0: 1})
    for _ in range(b):
        out = out * curve.y
    return out


def _watch_squares(monkeypatch):
    """The term counts of the rows that y_power squares, in call order."""
    squared, square = [], series._square

    def counted(h, bound):
        squared.append(len(h.coeffs))
        return square(h, bound)

    monkeypatch.setattr(series, "_square", counted)
    return squared


@pytest.fixture(scope="module")
def branch_7_17():
    """ex7_17's omega_3 branch at a = 1/2 and its rows y^1 .. y^6 by
    repeated products on the integer numerators."""
    basis = compute_standard_basis(
        PuiseuxCurve(PuiseuxPair(7, 17), {17: 1, 30: 1, 33: 1, 36: 1}))
    omega = basis.form(3)
    branch = solve_invariant_branch(omega, rat(1, 2), basis.curve.trunc)
    rows = [TruncatedSeries({0: 1}), branch.y_power(1)]
    for _ in range(2, max(be for _, be in omega.cloud) + 1):
        rows.append(rows[-1] * rows[1])
    return branch, rows


@pytest.mark.parametrize("seed", [0, 1])
def test_squared_rows_equal_repeated_products(monkeypatch, branch_7_17, seed):
    branch, rows = branch_7_17
    T = branch.trunc
    assert branch.den.bit_length() > 1400 and len(rows) == 7
    requests = [(b, p) for b in range(1, 7) for p in (None, 60, 150, T - 7)]
    random.Random(seed).shuffle(requests)
    squared = _watch_squares(monkeypatch)
    cold = PuiseuxCurve(branch.pair, branch.y.coeffs, T)
    for b, p in requests:
        top = rows[b].trunc if p is None else p
        assert cold.y_power(b, p) == rows[b].truncate(top)
    assert squared


def test_polynomial_y_keeps_the_chain(monkeypatch):
    # |y^k| = 2k + 1 for y = t^11 + t^12 + t^13: squaring y^(b/2) takes
    # (b + 1)(b + 2) / 2 products and the chain step y^(b-1) times y
    # takes 3 (2b - 1), so the square is cheaper only below b = 8
    c = curve_5_11()
    squared = _watch_squares(monkeypatch)
    rows = [c.y_power(b) for b in range(1, 11)]
    assert squared == [3, 5, 7]
    assert rows == [_repeated_product(c, b) for b in range(1, 11)]


@pytest.fixture(scope="module")
def branch_7_17_omega_2():
    """ex7_17's omega_2 branch at a = 1/2, whose den the high half raises."""
    basis = compute_standard_basis(
        PuiseuxCurve(PuiseuxPair(7, 17), {17: 1, 30: 1, 33: 1, 36: 1}))
    return solve_invariant_branch(basis.form(2), rat(1, 2), basis.curve.trunc)


# a rational tail with terms right at t^(s - 1) and t^s, s = 22 for
# T = 38, whose high half raises den from 6 to 210
Y35_SPLIT = {5: rat(1), 7: rat(1, 3), 21: rat(1, 2), 22: rat(1, 5),
             30: rat(1, 7)}


@pytest.mark.parametrize("name", ["branch", "tail"])
def test_split_rows_equal_rational_powers(branch_7_17_omega_2, name):
    # rows grown by the two-half rule against y * ... * y on rationals,
    # at the full precision T + (b - 1) m, at T and at and below s; a
    # split moved to s - 1 drops the hi^2 term t^(2 (s - 1) + (b - 2) m)
    c = branch_7_17_omega_2 if name == "branch" else PuiseuxCurve(
        P35, Y35_SPLIT)
    T, m = c.trunc, c.pair.m
    s = (T + m + 1) // 2
    power = _rational_powers(c)
    for b in range(1, 5):
        for prec in (None, T, s, s - 1):
            row = c.y_power(b, prec)
            assert row.trunc == (T + (b - 1) * m if prec is None else prec)
            assert _over(row, c.den ** b) == power(b, prec).truncate(
                row.trunc)
    lo, r, hi = c._split
    assert lo.den * r == c.den and r > 1
    assert {s - 1, s} <= set(c.y.coeffs) and min(hi.coeffs) == s


@pytest.mark.parametrize("y, products", [
    # an integer curve
    ({11: 1, 12: 1, 13: 1},
     [(3, 150), (5, 161), (3, 150, 9, 183), (9, 183)]),
    # a rational tail wholly below s = 22
    (Y35, [(4, 20), (4, 38, 8, 25), (4, 38), (4, 38, 8, 43), (12, 48),
           (8, 43), (4, 38, 16, 53), (16, 53)]),
    # a high tail, at s - 1 and s, whose denominators divide den_lo = 6
    ({5: rat(1), 7: rat(1, 6), 21: rat(-2, 3), 22: rat(1, 3), 30: rat(5, 2)},
     [(2, 20), (5, 38, 3, 25), (5, 38), (5, 38, 10, 43), (14, 48), (10, 43),
      (5, 38, 18, 53), (18, 53)]),
], ids=["integer", "low-tail", "dividing-tail"])
def test_split_stays_off_when_it_cannot_pay(monkeypatch, y, products):
    # no split: the flat rows of the square and chain rule, product for
    # product, (terms, trunc) of a squared row or of both chain factors
    c = PuiseuxCurve(P511 if 11 in y else P35, y)
    assert c._split is None
    calls, mul = [], TruncatedSeries.__mul__

    def counted(self, other):
        calls.append((len(self.coeffs), self.trunc) + (
            () if other is self else (len(other.coeffs), other.trunc)))
        return mul(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    for b, p in ((3, 30), (2, None), (6, 40), (5, None), (8, None), (4, 12)):
        c.y_power(b, p)
    assert calls == products


def test_pullback_scales_each_exponent_group_once(monkeypatch):
    # the adjusted form has several cloud points on each beta below its
    # top, and the branch has den > 1: every row is read with the cloud's
    # own small weight, and den^(top - beta) multiplies the group's sum
    basis = compute_standard_basis(curve_5_11())
    omega = dicritically_adjust(basis)
    branch = solve_invariant_branch(basis.form(2), rat(-2, 3))
    cloud, _ = _integer_cloud(omega)
    betas = [be for _, be in cloud]
    assert branch.den > 1
    assert any(betas.count(be) > 1 for be in betas if be < max(betas))
    B = math.lcm(*(be for be in betas if be))
    weights = {(5 * mu * B, ze * B // (be or 1))
               for (_, be), (mu, ze) in cloud.items()}
    expected = pullback_form(branch, omega)
    fetched, read = [], []
    y_power, accumulate = PuiseuxCurve.y_power, series._accumulate

    def fetch(self, b, prec=None):
        fetched.append(y_power(self, b, prec))
        return fetched[-1]

    def watched(acc, src, shift, c, d, bound):
        if any(src is row.coeffs for row in fetched):
            read.append((c, d))
        return accumulate(acc, src, shift, c, d, bound)

    monkeypatch.setattr(PuiseuxCurve, "y_power", fetch)
    monkeypatch.setattr(series, "_accumulate", watched)
    assert pullback_form(branch, omega) == expected
    assert len(read) == len(cloud)
    assert set(read) <= weights


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(("y", "theta")),
                          st.integers(min_value=0, max_value=6),
                          st.one_of(st.none(),
                                    st.integers(min_value=0, max_value=60))),
                min_size=1, max_size=12))
def test_power_table_answers_any_request_order(requests):
    """Every answer, read over D^e (and e for theta), is y * ... * y (or
    theta of the next power over its exponent) known below prec, or all
    of it for None or prec above T."""
    c = PuiseuxCurve(P35, Y35)
    assert c.den == 3
    answers = []
    for kind, b, prec in requests:
        e = b + 1 if kind == "theta" else b
        full = _repeated_product(c, e)
        top = full.trunc if prec is None or prec > c.trunc else prec
        if kind == "theta":
            want = TruncatedSeries({k: v * k / e
                                    for k, v in full.coeffs.items()}, top)
            row, den = c.theta_y_times_power(b, prec), e * c.den ** e
        else:
            want = TruncatedSeries(full.coeffs, top)
            row, den = c.y_power(b, prec), c.den ** e
        got = _over(row, den)
        assert got == want
        answers.append((row, den, want))
    # a later request never changes an earlier answer
    assert all(_over(row, den) == want for row, den, want in answers)


def test_power_table_keeps_one_row_per_power():
    c = curve_5_11()
    basis = compute_standard_basis(c)
    pullback_form(c, basis.form(basis.s_index))
    powers = set(c._powers)
    for b in sorted(powers - {0}):
        c.theta_y_times_power(b - 1)
        c.theta_y_times_power(b - 1, 40)
    # theta is read off the row of the next power and never stored
    assert set(c._powers) == powers
    assert all(type(row) is TruncatedSeries for row in c._powers.values())


def test_power_rows_grow_through_the_series_product(monkeypatch):
    # a request at or below y^b's order b m is the empty row there and
    # stores none; every row grown is a TruncatedSeries product, a square
    # or Y times the row below
    c = curve_5_11()
    for b, prec in ((2, 0), (2, 22), (3, -4), (5, 55)):
        row = c.y_power(b, prec)
        assert (row.coeffs, row.trunc) == ({}, prec)
        assert c.theta_y_times_power(b - 1, prec) == row
    assert set(c._powers) == {0, 1}
    products, mul = [], TruncatedSeries.__mul__

    def counted(self, other):
        products.append(other is self)
        return mul(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    argv = ["standard-basis", "--curve", json.dumps(
        curve_to_json(example_curve_5_11()))]
    assert main(argv) == 0
    assert products
    assert c.y_power(2, 23).coeffs == {22: 1}
    assert set(c._powers) == {0, 1, 2} and products[-1] is True


def test_pullbacks_fetch_each_power_once(monkeypatch):
    c = curve_5_11()
    omega = compute_standard_basis(c).form(3)
    h = BivariatePolynomial({(0, 2): rat(1), (3, 2): rat(-2, 3),
                             (1, 0): rat(5), (5, 0): rat(1), (2, 1): rat(7)})
    calls, depth = [], [0]
    y_power = PuiseuxCurve.y_power

    def counted(self, b, prec=None):
        # a row grown from the row below it calls y_power again; only the
        # outermost call is a fetch
        if not depth[0]:
            calls.append(b)
        depth[0] += 1
        try:
            return y_power(self, b, prec)
        finally:
            depth[0] -= 1

    def refused(self, b, prec=None):
        raise AssertionError("theta row requested")

    monkeypatch.setattr(PuiseuxCurve, "y_power", counted)
    monkeypatch.setattr(PuiseuxCurve, "theta_y_times_power", refused)
    pullback_form(c, omega)
    assert sorted(calls) == sorted({beta for _, beta in omega.cloud})
    assert len(calls) < len(omega.A) + len(omega.B)
    calls.clear()
    pullback_function(c, h)
    assert sorted(calls) == [0, 1, 2]


def test_nu_C_function_examples():
    c = curve_5_11()
    x = BivariatePolynomial({(1, 0): rat(1)})
    y = BivariatePolynomial({(0, 1): rat(1)})
    assert nu_C_function(c, x) == OrderResult.Finite(5)
    assert nu_C_function(c, y) == OrderResult.Finite(11)
    h = BivariatePolynomial({(0, 5): rat(1), (11, 0): rat(-1)})
    assert nu_C_function(c, h) == OrderResult.Finite(56)


def test_nu_C_form_examples():
    c = curve_5_11()
    dx = OneForm(P511, A={(0, 0): rat(1)})
    assert nu_C_form(c, dx) == OrderResult.Finite(5)
    w1 = OneForm(P511, A={(0, 1): rat(-11)}, B={(1, 0): rat(5)})
    assert nu_C_form(c, w1) == OrderResult.Finite(17)


def test_invariant_form_on_its_own_curve():
    c = PuiseuxCurve(P511, {11: 1})
    h = BivariatePolynomial({(0, 5): rat(1), (11, 0): rat(-1)})
    assert nu_C_function(c, h) == OrderResult.AtLeast(c.trunc)
    assert nu_C_form(c, differential(h, P511)) == OrderResult.AtLeast(c.trunc)


def test_integrate_zero_and_monomial():
    c = PuiseuxCurve(P511, {11: 1})
    assert integrate_against_conductor(c, TruncatedSeries()).is_zero()
    h = integrate_against_conductor(c, TruncatedSeries({40: 1}))
    assert h == BivariatePolynomial({(6, 1): rat(1, 41)})
    with pytest.raises(OrderTooLow):
        integrate_against_conductor(c, TruncatedSeries({39: 1}))


@pytest.mark.parametrize("xi, rule", [
    ({40: 0.5}, "integrand coefficients must be rationals"),
    ({40: True}, "integrand coefficients must be rationals"),
    ({40.0: 1}, "integrand exponents must be integers"),
    ({40: 1, 41.5: rat(1, 2)}, "integrand exponents must be integers"),
], ids=["float-coefficient", "bool-coefficient", "float-exponent",
        "float-exponent-late"])
def test_integrand_entries_are_integers_and_rationals(xi, rule):
    # the series constructor keeps what it is given, so the one entry
    # that takes a caller's series refuses its entries as a curve's y
    c = PuiseuxCurve(P511, {11: 1})
    with pytest.raises(InputError, match="^%s$" % rule):
        integrate_against_conductor(c, TruncatedSeries(xi))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_integrate_round_trip(seed):
    rng = random.Random(seed)
    c = curve_5_11()
    xi = TruncatedSeries({45 + k: rat(rng.randint(-3, 3))
                          for k in range(0, 40, rng.randint(1, 7))},
                         trunc=c.trunc)
    h = integrate_against_conductor(c, xi)
    diff = combine([(pullback_function(c, h), 1, 0),
                    (antiderivative(xi), -1, 0)])
    assert diff.order_lb() >= c.trunc - 1


def test_integrate_exact_integrand_stops_at_truncation():
    c = curve_5_11()
    far = 3 * c.trunc
    xi = TruncatedSeries({45: rat(1), 47: rat(-2), far: rat(1)})
    assert xi.trunc == math.inf
    h = integrate_against_conductor(c, xi)
    # t^46 = x^7 y opens the potential; y is known below T, so the
    # residual is known below T + 35 and the far term is never reached
    top = c.trunc + 35
    assert h.coeffs[(7, 1)] == rat(1, 46)
    assert all(5 * a + 11 * b < top for a, b in h.coeffs)
    diff = combine([(pullback_function(c, h), 1, 0),
                    (antiderivative(xi), -1, 0)])
    assert diff.order_lb() >= top


def _numerators(coeffs, trunc=None):
    """A series of integer numerators, as the pullbacks and power table
    hold them."""
    out = TruncatedSeries(None, trunc)
    out.coeffs = dict(coeffs)
    return out


def test_elimination_step_rescales_by_the_lead_over_the_gcd():
    # 3/2 t^5 + 1/2 t^7 less 3/4 (2 t^5 + t^6): the rescale is 2 / gcd(3, 2)
    acc = _numerators({5: 3, 7: 1}, 20)
    assert series._eliminate(acc, 2, 5, _numerators({5: 2, 6: 1}, 10)) == \
        (4, 3)
    assert acc.coeffs == {6: -3, 7: 2} and acc.trunc == 10
    # (4 t^9 + t^11) / 3 less 2/3 t^2 (2 t^7 + t^12), the row known below
    # 10: no rescale, and the result is known below 12 only
    acc = _numerators({9: 4, 11: 1})
    assert series._eliminate(acc, 3, 9, _numerators({7: 2, 12: 1}, 10),
                             2) == (3, 2)
    assert acc.coeffs == {11: 1} and acc.trunc == 12


def test_elimination_step_keeps_the_residual_sign_on_a_negative_lead():
    # 3/2 t^5 + 1/2 t^7 less -3/4 (-2 t^5 + t^6): g takes the lead's sign,
    # so the rescale is 2, not -2, and f / E' is the same -3/4
    acc = _numerators({5: 3, 7: 1}, 20)
    E, f = series._eliminate(acc, 2, 5, _numerators({5: -2, 6: 1}, 20))
    assert (E, f) == (4, -3) and rat(f, E) == rat(3, -4)
    assert acc.coeffs == {6: 3, 7: 2} and acc.trunc == 20
    # a lead of -1 rescales nothing: the residual is not rebuilt
    acc = _numerators({5: 3, 7: 1}, 20)
    coeffs = acc.coeffs
    assert series._eliminate(acc, 2, 5, _numerators({5: -1, 8: 1}, 20)) == \
        (2, -3)
    assert acc.coeffs is coeffs and coeffs == {7: 1, 8: 3}


@pytest.mark.parametrize("row", [{4: 1, 5: 2}, {6: 1}, {}])
def test_elimination_step_raises_when_the_order_does_not_rise(row):
    """A row with a term below its lead, or none at the order, leaves a
    term at or below it; the check is a raise, so python -O keeps it."""
    acc = _numerators({5: 3, 7: 1}, 20)
    with pytest.raises(InternalDisagreement, match="did not raise"):
        series._eliminate(acc, 1, 5, _numerators(row, 20))


@st.composite
def small_forms(draw, max_exp=5):
    A, B = {}, {}
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        key = (draw(st.integers(min_value=0, max_value=max_exp)),
               draw(st.integers(min_value=0, max_value=max_exp)))
        c = rat(draw(st.integers(min_value=-3, max_value=3)))
        if draw(st.booleans()):
            A[key] = A.get(key, rat(0)) + c
        else:
            B[key] = B.get(key, rat(0)) + c
    return OneForm(P511, A, B)


@settings(max_examples=60, deadline=None)
@given(small_forms())
def test_nu_E_below_nu_C(w):
    if w.is_zero():
        return
    c = curve_5_11()
    nu = nu_C_form(c, w)
    if nu.finite:
        assert nu_E_form(w) <= nu.value


@settings(max_examples=60, deadline=None)
@given(small_forms(), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=3))
def test_nu_C_multiplicative(w, a, b):
    if w.is_zero():
        return
    c = curve_5_11()
    nu = nu_C_form(c, w)
    shifted = nu_C_form(c, w.times_monomial(a, b))
    gain = 5 * a + 11 * b
    if nu.finite and nu.value + gain < c.trunc:
        assert shifted == OrderResult.Finite(nu.value + gain)
    else:
        assert not shifted.finite


@settings(max_examples=80, deadline=None)
@given(small_forms())
def test_resonance_detects_value_jump(w):
    """Basic forms gain differential value over nu_E exactly when resonant."""
    if w.is_zero() or not is_basic(w):
        return
    assert is_prebasic(w) is not None
    c = curve_5_11()
    nu = nu_C_form(c, w)
    jumped = (not nu.finite) or nu.value > nu_E_form(w)
    assert is_resonant(w) == jumped


@settings(max_examples=80, deadline=None)
@given(small_forms())
def test_value_outside_semigroup_forces_resonance(w):
    if w.is_zero():
        return
    c = curve_5_11()
    nu = nu_C_form(c, w)
    if nu.finite and not contains(P511, nu.value):
        assert is_basic(w) and is_resonant(w)