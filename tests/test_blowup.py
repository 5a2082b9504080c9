import fractions
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspidal import blowup
from cuspidal.blowup import (CORNER, FREE, CuspidalSequence, build_sequence,
                             is_totally_dicritical, transform_form)
from cuspidal.errors import IndexOutOfRange, InternalDisagreement
from cuspidal.forms import (BivariatePolynomial, OneForm, Region,
                            differential, is_prebasic, is_resonant,
                            nu_E_form, rdo)
from cuspidal.rationals import Q, rat
from cuspidal.semigroup import PuiseuxPair, copair

from oracles import FractionGcdCounter

P511 = PuiseuxPair(5, 11)


@st.composite
def coprime_pairs(draw, max_n=9, max_m=30):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=n, max_value=max_m).filter(
        lambda m: math.gcd(n, m) == 1))
    return PuiseuxPair(n, m)


@st.composite
def forms_for(draw, pair_strategy=coprime_pairs()):
    pair = draw(pair_strategy)
    A, B = {}, {}
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        key = (draw(st.integers(min_value=0, max_value=5)),
               draw(st.integers(min_value=0, max_value=5)))
        c = rat(draw(st.integers(min_value=-3, max_value=3)))
        if draw(st.booleans()):
            A[key] = A.get(key, rat(0)) + c
        else:
            B[key] = B.get(key, rat(0)) + c
    return OneForm(pair, A, B)


def leading_free_steps(seq) -> int:
    """The free blow-ups before the first corner: m // n - 1 for n < m."""
    return len(list(itertools.takewhile(FREE.__eq__, seq.kinds)))


def test_sequence_terminal_pair():
    seq = build_sequence(PuiseuxPair(1, 1))
    assert seq.length == 1 and leading_free_steps(seq) == 0
    assert seq.pairs == (PuiseuxPair(1, 1),)
    assert seq.kinds == ()


def test_sequence_2_3():
    seq = build_sequence(PuiseuxPair(2, 3))
    assert [(p.n, p.m) for p in seq.pairs] == [(2, 3), (1, 2), (1, 1)]
    assert seq.kinds == (CORNER, FREE)
    assert seq.length == 3
    assert leading_free_steps(seq) == 0


def test_sequence_5_11():
    seq = build_sequence(P511)
    assert seq.kinds[0] == FREE
    assert [(p.n, p.m) for p in seq.pairs] == \
        [(5, 11), (5, 6), (1, 5), (1, 4), (1, 3), (1, 2), (1, 1)]
    assert leading_free_steps(seq) == 1


@settings(max_examples=120)
@given(coprime_pairs())
def test_sequence_recursion_invariants(pair):
    seq = build_sequence(pair)
    assert seq.pairs[-1] == PuiseuxPair(1, 1)
    for p, kind, nxt in zip(seq.pairs, seq.kinds, seq.pairs[1:]):
        if kind == FREE:
            assert p.m >= 2 * p.n and (nxt.n, nxt.m) == (p.n, p.m - p.n)
        else:
            assert p.m < 2 * p.n and (nxt.n, nxt.m) == (p.m - p.n, p.n)
    if seq.length > 1:
        assert (leading_free_steps(seq) >= 1) == (pair.m >= 2 * pair.n)
        assert leading_free_steps(seq) == pair.m // pair.n - 1


def test_transform_dx_free_step():
    seq = build_sequence(P511)
    dx = OneForm(P511, A={(0, 0): rat(1)})
    out = transform_form(seq, dx, 0)
    assert out == OneForm(seq.pairs[1], A={(0, 0): rat(1)})


def test_transform_resonant_form_free_step():
    seq = build_sequence(P511)
    w1 = OneForm(P511, A={(0, 1): rat(-11)}, B={(1, 0): rat(5)})
    out = transform_form(seq, w1, 0)
    assert out.cloud == {(2, 1): (rat(-6), rat(5))}
    assert out.pair == PuiseuxPair(5, 6)
    assert is_resonant(out)
    with pytest.raises(IndexOutOfRange):
        transform_form(seq, w1, seq.length - 1)


@settings(max_examples=100, deadline=None)
@given(forms_for())
def test_transform_preserves_weights_and_verdicts(w):
    if w.is_zero():
        return
    seq = build_sequence(w.pair)
    current = w
    for step in range(seq.length - 1):
        pair = seq.pairs[step]
        r = (min(a + b for (a, b) in current.cloud)
             - min(a for (a, b) in current.cloud)
             - min(b for (a, b) in current.cloud))
        moved = transform_form(seq, current, step)
        assert nu_E_form(moved) == nu_E_form(current)
        assert rdo(moved) == rdo(current) - pair.n * r
        v_here = is_prebasic(current)
        v_there = is_prebasic(moved)
        assert (v_here is None) == (v_there is None)
        if v_here is not None:
            assert is_resonant(current) == is_resonant(moved)
        current = moved


@settings(max_examples=120)
@given(coprime_pairs())
def test_copair_recursion(pair):
    seq = build_sequence(pair)
    for p, kind, nxt in zip(seq.pairs, seq.kinds, seq.pairs[1:]):
        b, d = copair(p)
        if kind == FREE:
            predicted = (b, d - b)
        else:
            predicted = (p.m - p.n - d + b, p.n - b)
        assert copair(nxt) == predicted


@settings(max_examples=40, deadline=None)
@given(coprime_pairs(max_n=7, max_m=20),
       st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=6))
def test_region_transport(pair, a0, b0):
    seq = build_sequence(pair)
    for step, kind in enumerate(seq.kinds):
        here = Region(seq.pairs[step], (a0, b0))
        image = (a0 + b0, b0) if kind == FREE else (b0, a0 + b0)
        there = Region(seq.pairs[step + 1], image)
        for alpha in range(0, 16):
            for beta in range(0, 16):
                moved = (alpha + beta, beta) if kind == FREE \
                    else (beta, alpha + beta)
                assert here.contains((alpha, beta)) == there.contains(moved)
        break  # one step per example keeps the suite quick


def dicritical_49_form():
    A = {(0, 5): rat(7), (9, 1): rat(2), (9, 2): rat(-2), (2, 4): rat(-9)}
    B = {(3, 3): rat(4), (10, 0): rat(-1), (10, 1): rat(2),
         (1, 4): rat(-3), (8, 2): rat(-1)}
    return OneForm(PuiseuxPair(4, 9), A, B)


def test_dicritical_examples():
    verdict = is_totally_dicritical(dicritical_49_form())
    assert verdict and verdict.combinatorial and verdict.geometric
    assert verdict.vertex == (3, 4)
    assert len(verdict.multiplicities) == 5

    w1 = OneForm(P511, A={(0, 1): rat(-11)}, B={(1, 0): rat(5)})
    assert is_totally_dicritical(w1)

    dy = OneForm(P511, B={(0, 0): rat(1)})
    assert not is_totally_dicritical(dy)

    two_pt = differential(
        BivariatePolynomial({(11, 0): rat(-1), (0, 5): rat(1)}), P511)
    assert not is_totally_dicritical(two_pt)


@settings(max_examples=120, deadline=None)
@given(forms_for())
def test_dicritical_routes_agree(w):
    """The cross-check inside is_totally_dicritical must never trip."""
    if w.is_zero():
        return
    is_totally_dicritical(w)


def test_disagreeing_routes_raise(monkeypatch):
    real = blowup._terminal_condition
    monkeypatch.setattr(blowup, "_terminal_condition",
                        lambda cloud: not real(cloud))
    for w in (dicritical_49_form(), OneForm(P511, B={(0, 0): rat(1)})):
        with pytest.raises(InternalDisagreement, match="disagree"):
            is_totally_dicritical(w)


@pytest.mark.skipif(Q is not fractions.Fraction,
                    reason="counts the normalisations of fractions.Fraction")
def test_verdict_builds_no_rational(monkeypatch):
    # both routes read the integer cloud: the resonance test and every
    # mu + zeta of the blow-up walk are int operations
    forms = [dicritical_49_form().times_monomial(0, 0, rat(-2, 3)),
             OneForm(P511, A={(0, 1): rat(-11, 6), (2, 3): rat(5, 4)},
                     B={(1, 0): rat(5, 6), (4, 1): rat(-7, 9)})]
    counter = FractionGcdCounter(monkeypatch)
    verdicts = [is_totally_dicritical(w) for w in forms]
    assert counter.calls == 0
    assert verdicts[0].vertex == (3, 4) and all(verdicts)
