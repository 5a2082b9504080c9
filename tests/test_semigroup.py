import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspidal import PuiseuxPair, contains, copair, represent
from cuspidal.errors import InputError, NotInSemigroup, NotUniqueRange
from cuspidal.semigroup import minimal_b_representation

from oracles import semigroup_members


@st.composite
def coprime_pairs(draw, max_n=12, max_m=40):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=n, max_value=max_m).filter(
        lambda m: math.gcd(n, m) == 1))
    return PuiseuxPair(n, m)


def test_pair_validation():
    with pytest.raises(ValueError):
        PuiseuxPair(4, 6)
    with pytest.raises(ValueError):
        PuiseuxPair(5, 3)
    with pytest.raises(ValueError):
        PuiseuxPair(0, 1)
    with pytest.raises(InputError):
        PuiseuxPair(5.0, 11)


def test_conductor_and_apery_5_11():
    g = PuiseuxPair(5, 11)
    assert g.conductor == 40
    assert g.apery == (0, 11, 22, 33, 44)


def test_contains_5_11():
    g = PuiseuxPair(5, 11)
    assert contains(g, 16)
    assert contains(g, 0)
    assert not contains(g, 39)
    assert not contains(g, -5)
    assert contains(g, 40)


def test_represent_5_11():
    g = PuiseuxPair(5, 11)
    r = represent(g, 16)
    assert (r.a, r.b) == (1, 1)
    assert represent(g, 0).a == 0 and represent(g, 0).b == 0
    with pytest.raises(NotUniqueRange):
        represent(g, 55)
    with pytest.raises(NotInSemigroup):
        represent(g, 39)


def test_represent_7_17():
    g = PuiseuxPair(7, 17)
    r = represent(g, 51)
    assert (r.a, r.b) == (0, 3)


def test_copair_examples():
    assert copair(PuiseuxPair(5, 11)) == (4, 9)
    assert copair(PuiseuxPair(4, 9)) == (3, 7)
    assert copair(PuiseuxPair(1, 1)) == (0, 1)
    assert copair(PuiseuxPair(1, 3)) == (0, 1)


@settings(max_examples=200)
@given(coprime_pairs())
def test_membership_matches_enumeration(pair):
    g = pair
    members = semigroup_members(pair.n, pair.m, 200)
    for p in range(200):
        assert contains(g, p) == (p in members)


@settings(max_examples=200)
@given(coprime_pairs())
def test_representation_recomposes(pair):
    g = pair
    for p in range(pair.n * pair.m):
        if contains(g, p):
            r = represent(g, p)
            assert r.a >= 0 and 0 <= r.b < pair.n
            assert r.a * pair.n + r.b * pair.m == p


@settings(max_examples=200)
@given(coprime_pairs())
def test_minimal_b_representation(pair):
    g = pair
    top = 3 * pair.n * pair.m
    for p in range(top):
        if not contains(g, p):
            continue
        r = minimal_b_representation(g, p)
        a, b = r.a, r.b
        assert a >= 0 and 0 <= b < pair.n
        assert a * pair.n + b * pair.m == p
        # no representation with a smaller y-exponent exists
        for bb in range(b):
            assert (p - bb * pair.m) % pair.n != 0 or p - bb * pair.m < 0


@settings(max_examples=200)
@given(coprime_pairs())
def test_conductor_is_tight(pair):
    g = pair
    c = g.conductor
    for k in range(2 * pair.n * pair.m):
        assert contains(g, c + k)
    if pair.n > 1:
        assert not contains(g, c - 1)


@settings(max_examples=200)
@given(coprime_pairs())
def test_copair_identity_and_slopes(pair):
    n, m = pair.n, pair.m
    b, d = copair(pair)
    assert d * n - b * m == 1
    assert 0 <= b < n or (n, m) == (1, 1)
    assert 1 <= d <= m
    if d > 0 and m - d > 0:
        # the co-pair slope brackets the pair slope
        assert Fraction(b, d) < Fraction(n, m) < Fraction(n - b, m - d)
