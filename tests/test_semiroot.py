import fractions
import importlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspidal.blowup import is_totally_dicritical
from cuspidal.corpus import random_cusp_curve
from cuspidal.errors import (IndexOutOfRange, NotACusp, NotDicritical,
                             VerificationFailure, ZeroPivot)
from cuspidal.forms import OneForm, _integer_cloud, nu_E_form
from cuspidal.rationals import Q, rat
from cuspidal.semigroup import PuiseuxPair
from cuspidal.semiroot import (semiroot, solve_invariant_branch,
                               verify_main_theorem, zariski_invariant)
from cuspidal.series import OrderResult, PuiseuxCurve, nu_C_form, pullback_form
from cuspidal.stdbasis import (compute_standard_basis, dicritically_adjust,
                               semimodule_oracle)

from oracles import FractionGcdCounter, branch_by_rationals

P511 = PuiseuxPair(5, 11)


def basis_5_11():
    return compute_standard_basis(PuiseuxCurve(P511, {11: 1, 12: 1, 13: 1}))


def basis_7_17():
    return compute_standard_basis(
        PuiseuxCurve(PuiseuxPair(7, 17), {17: 1, 30: 1, 33: 1, 36: 1}))


def test_omega2_branch_series():
    basis = basis_5_11()
    for a in (rat(1), rat(2)):
        branch = solve_invariant_branch(basis.form(2), a)
        c = branch.y.coeffs
        assert c[11] == a
        assert c[12] == a ** 2
        assert c[13] == rat(23, 22) * a ** 3
        assert c[14] == rat(136, 121) * a ** 4


@pytest.mark.skipif(Q is not fractions.Fraction,
                    reason="counts the normalisations of fractions.Fraction")
def test_solver_normalises_a_bounded_number_of_times_per_order(monkeypatch):
    # the fraction-free solver builds one rational per returned
    # coefficient and none in its order loop; beyond those only the
    # dicriticalness check it starts with normalises anything
    omega = basis_7_17().form(3)
    counter = FractionGcdCounter(monkeypatch)
    assert is_totally_dicritical(omega)
    check = counter.calls
    counter.calls = 0
    branch = solve_invariant_branch(omega, rat(1, 2))
    orders = branch.trunc - nu_E_form(omega) - 1
    assert len(branch.y.coeffs) > 200
    assert counter.calls <= check + 2 * orders


@pytest.mark.skipif(Q is not fractions.Fraction,
                    reason="counts the normalisations of fractions.Fraction")
def test_solver_normalises_once_per_returned_coefficient(monkeypatch):
    # with the verdict cached, each coefficient and the growth of d it
    # asks for come from one integer gcd: the only normalisations are the
    # returned coefficients', one each
    omega = basis_7_17().form(3)
    assert is_totally_dicritical(omega)
    a = rat(1, 2)
    counter = FractionGcdCounter(monkeypatch)
    branch = solve_invariant_branch(omega, a)
    assert counter.calls == len(branch.y.coeffs) > 200


@pytest.mark.skipif(Q is not fractions.Fraction,
                    reason="counts the normalisations of fractions.Fraction")
def test_pullbacks_normalise_once_per_nonzero_coefficient(monkeypatch):
    # the curve's power table holds integer numerators: the invariance
    # recheck, whose pullback cancels to nothing, builds no rational, and
    # any pullback builds one per nonzero coefficient, on a cold table too
    basis = basis_5_11()
    omega = basis.form(2)
    branch = solve_invariant_branch(omega, rat(-2, 3))
    assert branch.den > 1
    assert not nu_C_form(branch, omega, branch.trunc).finite
    cold = PuiseuxCurve(branch.pair, branch.y.coeffs, branch.trunc)
    lower = basis.form(1).times_monomial(0, 0, rat(3, 7)) + omega
    counter = FractionGcdCounter(monkeypatch)
    assert not nu_C_form(branch, omega, branch.trunc).finite
    assert counter.calls == 0
    a_lower = pullback_form(cold, lower)
    assert a_lower.coeffs
    assert counter.calls <= len(a_lower.coeffs)


@pytest.mark.skipif(Q is not fractions.Fraction,
                    reason="counts the normalisations of fractions.Fraction")
def test_oracle_and_window_checks_build_no_rational(monkeypatch):
    # both read only orders: the oracle eliminates on unnormalised integer
    # pivot rows and the window checks read the order off the numerators
    basis = basis_5_11()
    i = 2
    branch = solve_invariant_branch(basis.form(i), rat(-2, 3))
    assert branch.den > 1
    window = branch.pair.conductor + branch.pair.n * branch.pair.m

    def checks():
        oracle = semimodule_oracle(branch)
        values = [nu_C_form(branch, basis.form(j), window)
                  for j in range(-1, i)]
        return oracle, values
    expected = checks()  # warms the power table
    assert expected[1] == [OrderResult.Finite(lam)
                           for lam in basis.semimodule.basis[:i + 1]]
    counter = FractionGcdCounter(monkeypatch)
    assert checks() == expected
    assert counter.calls == 0


@pytest.mark.parametrize("i, j, bump, moved", [(2, 1, -1, 18), (3, 2, 0, 22)],
                         ids=["omega_1 rises", "omega_2 drops"])
def test_lower_form_checks_catch_a_perturbed_coefficient(monkeypatch, i, j,
                                                         bump, moved):
    # the branch's t^12 coefficient c set to 0 (bump -1) lifts omega_1's
    # value past lambda_1, and set to c + 1 (bump 0) drops omega_2's
    # below lambda_2: the window lambda_j + 1 fails both, like the wider
    # c_Gamma + nm that reads the moved value itself
    basis = basis_5_11()
    branch = solve_invariant_branch(basis.form(i), rat(-2, 3))
    y = dict(branch.y.coeffs)
    y[12] = (y[12] + 1) * (bump + 1)
    perturbed = PuiseuxCurve(branch.pair, y, branch.trunc)
    window = branch.pair.conductor + branch.pair.n * branch.pair.m
    lam_j = basis.semimodule.basis[j + 1]
    assert nu_C_form(perturbed, basis.form(j), window) == \
        OrderResult.Finite(moved) != OrderResult.Finite(lam_j)
    monkeypatch.setattr(importlib.import_module("cuspidal.semiroot"),
                        "solve_invariant_branch",
                        lambda omega, a, trunc=None: perturbed)
    with pytest.raises(VerificationFailure) as caught:
        verify_main_theorem(basis, i, rat(-2, 3))
    assert caught.value.report["checks"]["values_of_lower_forms"] is False


@pytest.fixture(scope="module")
def basis_7_17_shared():
    return basis_7_17()


@pytest.mark.parametrize("i, a", [(1, rat(1, 2)), (2, rat(-1, 3)),
                                  (2, rat(-3, 2)), (3, rat(-1, 3)),
                                  (3, rat(-3, 2))],
                         ids=["1,1/2", "2,-1/3", "2,-3/2", "3,-1/3", "3,-3/2"])
def test_graded_denominators_match_the_rational_branch(basis_7_17_shared,
                                                       i, a):
    # on these (7,17) branches the denominators grow at most orders, so
    # d grows at many orders and the event-only lcm is exercised; the
    # omega_1 branch keeps den(a) throughout
    omega = basis_7_17_shared.form(i)
    branch = solve_invariant_branch(omega, a)
    assert branch == branch_by_rationals(omega, a)
    den, growth = a.denominator, 0
    for _, c in sorted(branch.y.coeffs.items()):
        growth += math.lcm(den, c.denominator) != den
        den = math.lcm(den, c.denominator)
    assert growth == 0 if i == 1 else growth > 100


BIG = rat(12345678901234567891, 98765432109876543217)


@pytest.mark.parametrize("n, i, a", [(7, 2, rat(-7, 12)), (7, 2, rat(1, 30)),
                                     (7, 3, rat(1, 6)), (5, 2, rat(5, 8)),
                                     (5, 2, BIG)],
                         ids=["7,2,-7/12", "7,2,1/30", "7,3,1/6", "5,2,5/8",
                              "5,2,20-digit"])
def test_step_ratio_weights_match_the_rational_branch(basis_7_17_shared,
                                                      n, i, a):
    # parameters whose denominators share primes with the orders, and one
    # of 20 digits over 20: in each, some growth factor g > 1 lands where
    # e[r] > 1, and some gcd(e[r - i], W[i]) is neither 1 nor e[r - i]
    basis = basis_7_17_shared if n == 7 else basis_5_11()
    omega = basis.form(i)
    assert solve_invariant_branch(omega, a) == branch_by_rationals(omega, a)


@pytest.mark.parametrize("a", [rat(1, 2), rat(2)], ids=["1/2", "2"])
@pytest.mark.parametrize("n, m, y, i, least_gaps", [
    (7, 13, {13: 1, 23: -2}, 2, [0, 0, 0, 0, 20, 40, 60]),
    (9, 11, {11: 1, 14: 2}, 3, [0, 0, 0, 0, 0, 24, 24, 24]),
], ids=["7,13 omega_2", "9,11 omega_3"])
def test_row_ceilings_and_offset_jumps_match_the_rational_branch(
        n, m, y, i, least_gaps, a):
    # row b stops least_gaps[b] orders before the last: rows 4 to 6 of the
    # (7,13) omega_2 and rows 5 to 7 of the (9,11) omega_3, whose cloud
    # has beta in {1, 4, 7} and gaps 3 apart, so the known sum's offsets
    # jump from one point to the next
    omega = compute_standard_basis(
        PuiseuxCurve(PuiseuxPair(n, m), y)).form(i)
    q = nu_E_form(omega)
    assert [min(n * al + m * be - q for al, be in omega.cloud if be >= b)
            for b in range(len(least_gaps))] == least_gaps
    assert solve_invariant_branch(omega, a) == branch_by_rationals(omega, a)


def _scale(omega, a):
    """The solver's pivot term Bl zeta z0^(beta - 1) D^(top - beta + 1),
    read on omega's integer cloud at its vertex (alpha, beta)."""
    vertex = is_totally_dicritical(omega).vertex
    cloud, _ = _integer_cloud(omega)
    beta, top = vertex[1], max(be for _, be in cloud)
    Bl = math.lcm(*(be for _, be in cloud if be))
    return (Bl * cloud[vertex][1] * a.numerator ** (beta - 1)
            * a.denominator ** (top - beta + 1))


@pytest.mark.parametrize("i, sign, a", [
    (2, 1, rat(1000003, 999983)), (3, 1, rat(-7, 3)), (2, -1, rat(-7, 3)),
], ids=["omega_2,1000003/999983", "omega_3,-7/3", "-omega_2,-7/3"])
def test_integer_growth_matches_the_rational_branch(basis_7_17_shared, i,
                                                    sign, a):
    # parameters of large height and a form whose pivot term is negative:
    # the growth factor and the new numerator come off one gcd of the
    # known sum with the pivot term, whose sign moves onto D
    omega = basis_7_17_shared.form(i).times_monomial(0, 0, rat(sign))
    assert (_scale(omega, a) < 0) == (sign < 0)
    assert solve_invariant_branch(omega, a) == branch_by_rationals(omega, a)


def test_smooth_pair_is_refused_before_the_walk(monkeypatch):
    # n >= 2 is checked right after the truncation, so a pair with n = 1
    # never reaches the dicriticalness walk or the order loop
    def walk(omega):
        raise AssertionError("the walk ran")
    monkeypatch.setattr(importlib.import_module("cuspidal.semiroot"),
                        "is_totally_dicritical", walk)
    omega = OneForm(PuiseuxPair(1, 3), {(0, 1): -3}, {(1, 0): 1})
    with pytest.raises(NotACusp,
                       match=r"^\(1, 3\) parametrizes a smooth branch$"):
        solve_invariant_branch(omega, 1)


def test_branch_is_exact_below_m_plus_trunc_minus_q(basis_7_17_shared):
    # orders below trunc only are solved, so y_{m+r} is final for
    # m + r < m + T - q; a solve q - m orders longer reaches every
    # exponent below T and agrees up to that edge
    omega = basis_7_17_shared.form(2)
    m, q, T = 17, nu_E_form(omega), basis_7_17_shared.curve.trunc
    edge = m + T - q
    short = solve_invariant_branch(omega, 1)
    long = solve_invariant_branch(omega, 1, T + q - m)
    assert (short.trunc, q, edge) == (T, 38, 313)
    assert ({k: c for k, c in short.y.coeffs.items() if k < edge}
            == {k: c for k, c in long.y.coeffs.items() if k < edge})
    # and the edge is tight: the branch has terms between it and T
    assert any(edge <= k < T for k in long.y.coeffs)


def test_omega1_branch_is_monomial():
    basis = basis_5_11()
    branch = solve_invariant_branch(basis.form(1), 3)
    assert dict(branch.y.coeffs) == {11: rat(3)}


def test_adjusted_branch_recovers_the_curve():
    # the source curve is one of its own adjusted form's invariant branches
    basis = basis_5_11()
    branch = solve_invariant_branch(dicritically_adjust(basis), 1)
    assert branch.y.coeffs == basis.curve.y.coeffs


def test_seven_seventeen_branch_jet():
    basis = basis_7_17()
    for a in (rat(1), rat(2), rat(3)):
        sr = semiroot(basis, 2, a)
        assert sr.semimodule.basis == (7, 17, 37)
        c = sr.curve.y.coeffs
        assert c[17] == a and c[30] == a ** 3 and c[33] == a ** 4
        assert all(k not in c for k in range(18, 30))


def test_semiroot_semimodule_is_a_proper_prefix():
    basis = basis_5_11()
    sr = semiroot(basis, 2, 1)
    assert sr.semimodule.basis == (5, 11, 17)
    assert basis.semimodule.basis == (5, 11, 17, 23, 29)
    assert sr.index == 2 and sr.parameter == rat(1)


def test_verify_reference_curve_all_indices():
    basis = basis_5_11()
    for i in range(1, basis.s_index + 2):
        for a in (1, -1):
            report = verify_main_theorem(basis, i, a)
            assert report["pass"] is True
            assert set(report["checks"]) == {
                "standard_basis_semimodule", "oracle_semimodule",
                "values_of_lower_forms", "invariance", "critical_order"}
            assert report["expected"] == list(basis.semimodule.basis[:i + 1])


def test_zariski_invariant():
    assert zariski_invariant(basis_5_11().curve) == 12
    assert zariski_invariant(PuiseuxCurve(P511, {11: 1})) == "quasi-homogeneous"


def test_zero_parameter_rejected():
    basis = basis_5_11()
    with pytest.raises(ZeroPivot):
        solve_invariant_branch(basis.form(1), 0)


def test_non_dicritical_form_rejected():
    with pytest.raises(NotDicritical):
        solve_invariant_branch(OneForm(P511, A={(0, 0): rat(1)}), 1)


def test_bad_semiroot_index():
    basis = basis_5_11()
    with pytest.raises(IndexOutOfRange):
        verify_main_theorem(basis, 0, 1)
    with pytest.raises(IndexOutOfRange):
        verify_main_theorem(basis, basis.s_index + 2, 1)


def test_failure_report_is_attached():
    # feeding omega_1's branch machinery a wrong expectation is awkward to
    # stage from outside, so instead check the exception type plumbing on a
    # doctored curve comparison: a branch of omega_2 never carries the full
    # semimodule of a curve with s >= 2
    basis = basis_5_11()
    sr = semiroot(basis, 2, 1)
    assert sr.semimodule != basis.semimodule
    with pytest.raises(VerificationFailure) as exc:
        raise VerificationFailure("synthetic", report={"pass": False})
    assert exc.value.report == {"pass": False}


def test_a_checked_semiroot_encodes_nothing(monkeypatch):
    # semiroot builds the report of its check only on a mismatch; verify
    # builds it on every run
    def refused(root):
        raise AssertionError("semiroot encoded")

    basis = basis_5_11()
    monkeypatch.setattr(importlib.import_module("cuspidal.semiroot"),
                        "semiroot_to_json", refused)
    assert semiroot(basis, 2, 1).semimodule.basis == (5, 11, 17)
    with pytest.raises(AssertionError, match="semiroot encoded"):
        verify_main_theorem(basis, 2, 1)


@settings(deadline=None, max_examples=6)
@given(st.integers(0, 10 ** 6))
def test_random_curves_satisfy_the_theorem(seed):
    rng = random.Random(seed)
    curve = random_cusp_curve(rng, max_n=5, max_weight=45)
    basis = compute_standard_basis(curve)
    i = rng.randint(1, basis.s_index + 1)
    a = rng.choice((rat(1), rat(2), rat(-1), rat(1, 2)))
    report = verify_main_theorem(basis, i, a)
    assert report["pass"] is True
