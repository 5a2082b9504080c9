"""Exact strings of the reprs and refusals the rest of the suite does not
run.  Error messages embed some of these reprs (a semimodule in a
semiroot's VerificationFailure, a basis in a failed check), so the pins
guard those bytes too."""

import pytest

from cuspidal.blowup import build_sequence
from cuspidal.corpus import example_curve_5_11
from cuspidal.errors import IndexOutOfRange, ZeroForm
from cuspidal.forms import OneForm, Region, is_prebasic, rdo
from cuspidal.semigroup import PuiseuxPair
from cuspidal.semimodule import GammaSemimodule, tops
from cuspidal.series import OrderResult, TruncatedSeries
from cuspidal.stdbasis import compute_standard_basis

P511 = PuiseuxPair(5, 11)


def test_series_and_curve_reprs():
    assert repr(TruncatedSeries({3: 2, 7: -1}, 10)) == \
        "2*t^3 + -1*t^7 + O(t^10)"
    assert repr(example_curve_5_11()) == \
        "PuiseuxCurve(t^5, 1*t^11 + 1*t^12 + 1*t^13 + O(t^150))"
    assert (repr(OrderResult.Finite(5)), repr(OrderResult.AtLeast(9))) == \
        ("Finite(5)", "AtLeast(9)")


def test_sequence_region_and_form_reprs():
    assert repr(build_sequence(P511)) == \
        "(5,11)-free->(5,6)-corner->(1,5)-free->(1,4)-free->(1,3)-free" \
        "->(1,2)-free->(1,1)"
    assert repr(Region(PuiseuxPair(4, 9), (1, 2))) == "R^{4,9}(1, 2)"
    basis = compute_standard_basis(example_curve_5_11())
    assert repr(basis.form(1)) == "(-11*y)dx + (5*x)dy"


def test_basis_repr_before_and_after_the_adjustment():
    basis = compute_standard_basis(example_curve_5_11())
    assert repr(basis) == "ExtendedStandardBasis(lambdas=[5, 11, 17, 23, 29])"
    basis.form(basis.s_index + 1)
    assert repr(basis) == \
        "ExtendedStandardBasis(lambdas=[5, 11, 17, 23, 29]+adjusted)"


def test_semimodule_hash_and_negative_membership():
    sm = GammaSemimodule(P511, (5, 11))
    assert hash(sm) == hash(GammaSemimodule(P511, (5, 11))) == \
        hash((P511, (5, 11)))
    assert {sm, GammaSemimodule(P511, (5, 11))} == {sm}
    assert not sm.contains(-1)


@pytest.mark.parametrize("build, kind, message", [
    (lambda: tops(GammaSemimodule(P511, (5,))), IndexOutOfRange,
     "tops need at least two generators"),
    (lambda: rdo(OneForm(P511)), ZeroForm, "rdo of the zero form"),
    (lambda: is_prebasic(OneForm(P511)), ZeroForm,
     "pre-basic test on the zero form"),
], ids=["tops-one-generator", "rdo-zero-form", "prebasic-zero-form"])
def test_refusals_the_suite_did_not_run(build, kind, message):
    with pytest.raises(kind) as caught:
        build()
    assert str(caught.value) == message
