import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspidal import (GammaSemimodule, PuiseuxPair, contains, is_increasing,
                      level_set, limits, minimal_basis, tops)
from cuspidal.errors import IndexOutOfRange
from cuspidal.semimodule import is_circular_interval, ray_level_set

import oracles
from oracles import random_increasing_semimodule


def sm_5_11():
    return GammaSemimodule(PuiseuxPair(5, 11), (5, 11, 17, 23, 29))


def test_reference_semimodule_axes_and_limits():
    sm = sm_5_11()
    assert sm.axes == (5, 16, 22, 28, 34)
    assert tuple(limits(sm, 0)) == (1, 4)
    assert tuple(limits(sm, 1)) == (1, 3)


def test_reference_semimodule_conductor_and_orders():
    sm = sm_5_11()
    assert sm.conductor == 25
    assert sm.critical_orders == (5, 11, 16, 21, 26, 31)
    assert is_increasing(sm)


def test_reference_semimodule_tops():
    t = tops(sm_5_11())
    assert (t.q1, t.q2, t.main) == (6, 8, 8)


def test_membership_against_enumeration():
    sm = sm_5_11()
    bound = oracles.enum_bound(5, 11, sm.basis)
    members = oracles.semimodule_members(5, 11, sm.basis, bound)
    for p in range(bound):
        assert sm.contains(p) == (p in members)


def test_minimal_basis_examples():
    pair = PuiseuxPair(5, 11)
    assert minimal_basis(pair, [5, 11, 16, 17]) == (5, 11, 17)
    assert minimal_basis(pair, [5]) == (5,)
    assert minimal_basis(pair, [11, 5, 17, 28]) == (5, 11, 17)


def test_constructor_rejects_redundant_generator():
    with pytest.raises(ValueError):
        GammaSemimodule(PuiseuxPair(5, 11), (5, 11, 16))
    with pytest.raises(ValueError):
        GammaSemimodule(PuiseuxPair(5, 11), (11, 5))
    with pytest.raises(ValueError):
        GammaSemimodule(PuiseuxPair(5, 11), ())


def test_limits_index_errors():
    sm = sm_5_11()
    with pytest.raises(IndexOutOfRange):
        limits(sm, -1)
    with pytest.raises(IndexOutOfRange):
        limits(sm, sm.s_index + 1)


def test_critical_orders_need_full_start():
    sm = GammaSemimodule(PuiseuxPair(5, 11), (7, 11))
    assert sm.critical_orders is None


def test_level_sets_small():
    sm = sm_5_11()
    assert level_set(sm, 0).members == frozenset()
    assert level_set(sm, 1).members == frozenset({0})
    assert level_set(sm, 2).members == frozenset({0, 1})
    with pytest.raises(ValueError):
        level_set(sm, -1)


def test_ray_level_set_growth():
    pair = PuiseuxPair(5, 11)
    sizes = [len(ray_level_set(pair, 7, q)) for q in range(30)]
    for a, b in zip(sizes, sizes[1:]):
        assert 0 <= b - a <= 1
    assert sizes[-1] == 5


def test_circular_interval_shapes():
    assert is_circular_interval(frozenset(), 5)
    assert is_circular_interval(frozenset({2}), 5)
    assert is_circular_interval(frozenset({4, 0, 1}), 5)
    assert is_circular_interval(frozenset({0, 1, 2, 3, 4}), 5)
    assert not is_circular_interval(frozenset({0, 2}), 5)
    assert not is_circular_interval(frozenset({0, 1, 3}), 7)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_random_semimodules_match_enumeration(seed):
    rng = random.Random(seed)
    sm = random_increasing_semimodule(rng, max_n=7, max_steps=3)
    n, m = sm.pair.n, sm.pair.m
    assert minimal_basis(sm.pair, sm.basis) == sm.basis
    assert sm.axes == oracles.axes_of(n, m, sm.basis)
    bound = oracles.enum_bound(n, m, sm.basis)
    members = oracles.semimodule_members(n, m, sm.basis, bound)
    assert sm.conductor == oracles.conductor_of(members, bound)
    for i in range(sm.s_index + 1):
        assert tuple(limits(sm, i)) == oracles.limits_of(n, m, sm.basis, i)


def test_limits_of_arbitrary_generator_systems_match_enumeration():
    # minimal bases of arbitrary generators, increasing or not, not only
    # the increasing semimodules random_increasing_semimodule draws
    rng = random.Random(1906)
    shapes = set()
    for _ in range(300):
        n = rng.randint(2, 9)
        m = rng.choice([k for k in range(n + 1, 4 * n) if math.gcd(n, k) == 1])
        pair = PuiseuxPair(n, m)
        gens = [rng.randint(0, 2 * n * m) for _ in range(rng.randint(1, n))]
        sm = GammaSemimodule(pair, minimal_basis(pair, gens))
        shapes.add(is_increasing(sm))
        for i in range(sm.s_index + 1):
            assert tuple(limits(sm, i)) == \
                oracles.limits_of(n, m, sm.basis, i)
    assert shapes == {False, True}


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_axis_consistency_with_limits(seed):
    rng = random.Random(seed)
    sm = random_increasing_semimodule(rng, max_n=7, max_steps=3)
    n, m = sm.pair.n, sm.pair.m
    u = sm.axes
    t = sm.critical_orders
    for i in range(sm.s_index + 1):
        ell1, ell2 = limits(sm, i)
        lam = sm.basis[i + 1]
        # the next axis is reached along one of the two limit directions
        assert u[i + 1] == min(n * ell1 + lam, m * ell2 + lam)
    # value minus critical order never decreases, strictly after the start
    gaps = [sm.basis[j] - t[j] for j in range(len(sm.basis))]
    assert gaps[0] == 0 and gaps[1] == 0
    for a, b in zip(gaps[1:], gaps[2:]):
        assert b > a


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_axis_two_representations(seed):
    """u_{i+1} lands on the lambda_i ray and on an earlier ray at once."""
    rng = random.Random(seed)
    sm = random_increasing_semimodule(rng, max_n=7, max_steps=3)
    n, m = sm.pair.n, sm.pair.m
    u = sm.axes
    for i in range(1, len(u)):
        diff = u[i] - sm.basis[i]
        assert diff >= 0 and contains(sm.pair, diff)
        assert sm.truncated(i - 2).contains(u[i])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_increasing_semimodule_level_sets_become_circular(seed):
    rng = random.Random(seed)
    sm = random_increasing_semimodule(rng, max_n=7, max_steps=3)
    n = sm.pair.n
    t = tops(sm)
    assert sm.conductor <= n * (t.main - 1)
    # circularity holds from the window carrying u_{s+1} onwards
    v = sm.axes[-1] // n
    assert v == min(t.q1, t.q2)
    for q in range(v, t.main + 2 * n):
        assert is_circular_interval(level_set(sm, q).members, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_rays_prefixes_and_redundancy_against_enumeration(seed):
    rng = random.Random(seed)
    sm = random_increasing_semimodule(rng, max_n=7, max_steps=3)
    n, m = sm.pair.n, sm.pair.m
    bound = oracles.enum_bound(n, m, sm.basis)
    for k in range(-1, sm.s_index + 1):
        members = oracles.semimodule_members(n, m, sm.basis[:k + 2], bound)
        assert sm.truncated(k).conductor == \
            oracles.conductor_of(members, bound)
    for mu in sm.basis:
        ray = oracles.semimodule_members(n, m, (mu,), bound)
        for q in range(bound // n):
            assert (ray_level_set(sm.pair, mu, q)
                    == oracles.level_set_of(n, m, ray, q))
    # mu + n lies in mu + Gamma; no other generator shares its class
    extra = rng.choice(sm.basis) + n
    with pytest.raises(ValueError, match="generator %d is redundant" % extra):
        GammaSemimodule(sm.pair, tuple(sorted(sm.basis + (extra,))))


def test_conductor_shifts_with_leading_generator():
    pair = PuiseuxPair(5, 11)
    sm = sm_5_11()
    shifted = GammaSemimodule(pair, tuple(b - 5 for b in sm.basis))
    assert shifted.conductor == sm.conductor - 5
