"""Acceptance suite: ten numbered end-to-end checks at exact equality.

Every test covers one fixed workload, asserts its content exactly, and
then asserts a wall-clock budget.  Run with -s to see one summary line
per criterion; under -v the test names themselves give the pass/fail
roll call.
"""

import random
import time

from cuspidal import (GammaSemimodule, OneForm, PuiseuxPair, Region,
                      build_sequence, compute_standard_basis, copair,
                      delorme_decompose, dicritically_adjust, initial_part,
                      is_circular_interval, is_increasing, is_prebasic,
                      is_resonant, is_totally_dicritical, level_set, limits,
                      nu_E_form, pullback_form, pullback_function,
                      ray_level_set, semimodule_oracle,
                      semiroot, solve_invariant_branch, tops, transform_form,
                      verify_main_theorem, zariski_invariant)
from cuspidal.corpus import (example_curve_5_11, example_curve_7_17,
                             example_form_4_9, random_cusp_curve)
from cuspidal.rationals import rat

from oracles import random_coprime_pair, random_increasing_semimodule


def _finish(label, started, budget=None):
    elapsed = time.perf_counter() - started
    if budget is not None:
        assert elapsed < budget, ("%s took %.2fs, budget %.0fs"
                                  % (label, elapsed, budget))
    print("acceptance %s: PASS (%.2fs)" % (label, elapsed))


def test_criterion_01_semimodule_axes_and_limits():
    started = time.perf_counter()
    sm = GammaSemimodule(PuiseuxPair(5, 11), (5, 11, 17, 23, 29))
    assert sm.axes == (5, 16, 22, 28, 34)
    l0 = limits(sm, 0)
    assert (l0.ell1, l0.ell2) == (1, 4)
    l1 = limits(sm, 1)
    assert (l1.ell1, l1.ell2) == (1, 3)
    _finish("01 semimodule axes and limits", started, 1)


def test_criterion_02_standard_basis_of_the_reference_curve():
    started = time.perf_counter()
    basis = compute_standard_basis(example_curve_5_11())
    assert basis.semimodule.basis == (5, 11, 17, 23, 29)
    assert basis.semimodule.critical_orders == (5, 11, 16, 21, 26, 31)
    pair = basis.curve.pair
    w1 = OneForm(pair, {(0, 1): -11}, {(1, 0): 5})
    w2 = w1.times_monomial(1, 0, 11) - OneForm(pair, None, {(0, 1): 5})
    w3 = w2.times_monomial(1, 0) + w1.times_monomial(0, 1)
    assert basis.form(1) == w1
    assert basis.form(2) == w2
    assert basis.form(3) == w3
    dicritically_adjust(basis)
    t = basis.semimodule.critical_orders
    for i in range(-1, basis.s_index + 2):
        assert nu_E_form(basis.form(i)) == t[i + 1]
    _finish("02 standard basis of (t^5, t^11+t^12+t^13)", started, 5)


def test_criterion_03_semiroot_series_of_the_reference_curve():
    started = time.perf_counter()
    basis = compute_standard_basis(example_curve_5_11())
    for a in (1, 2):
        a = rat(a)
        branch = solve_invariant_branch(basis.form(2), a, basis.curve.trunc)
        y = branch.y.coeffs
        assert y[11] == a
        assert y[12] == a * a
        assert y[13] == rat(23, 22) * a ** 3
        assert y[14] == rat(136, 121) * a ** 4
        monomial = solve_invariant_branch(basis.form(1), a, basis.curve.trunc)
        assert monomial.y.coeffs == {11: a}
    _finish("03 semiroot series at omega_1 and omega_2", started, 5)


def test_criterion_04_seven_seventeen_semiroots():
    started = time.perf_counter()
    basis = compute_standard_basis(example_curve_7_17())
    assert basis.semimodule.basis == (7, 17, 37, 57)
    for a in (1, 2, 3):
        a = rat(a)
        root = semiroot(basis, 2, a)
        assert root.semimodule.basis == (7, 17, 37)
        y = root.curve.y.coeffs
        assert y[17] == a
        assert y[30] == a ** 3
        assert y[33] == a ** 4
        assert all(k not in y for k in range(18, 30))
    _finish("04 semiroots of (t^7, t^17+t^30+t^33+t^36)", started, 10)


def test_criterion_05_dicritical_form_and_zariski_invariants():
    started = time.perf_counter()
    pair = PuiseuxPair(4, 9)
    omega = example_form_4_9()
    assert nu_E_form(omega) == 48
    assert copair(pair) == (3, 7)
    assert is_prebasic(omega) == (3, 4)
    assert initial_part(omega, 48) == OneForm(pair, {(2, 4): -9},
                                              {(3, 3): 4})
    verdict = is_totally_dicritical(omega)
    assert verdict.combinatorial and verdict.geometric
    assert zariski_invariant(solve_invariant_branch(omega, 2)) == 10
    assert zariski_invariant(solve_invariant_branch(omega, 1)) == 19
    _finish("05 dicritical (4,9) form and its invariant curves", started, 10)


def test_criterion_06_main_theorem_on_random_curves():
    started = time.perf_counter()
    rng = random.Random(1319)
    parameters = (rat(1), rat(2), rat(-1), rat(1, 2))
    verified = 0
    for _ in range(25):
        curve = random_cusp_curve(rng, max_n=9, max_extra=4, max_weight=110)
        basis = compute_standard_basis(curve)
        assert is_increasing(basis.semimodule)
        for i in range(1, basis.s_index + 2):
            for a in parameters:
                report = verify_main_theorem(basis, i, a)
                assert report["pass"]
                assert report["checks"]["standard_basis_semimodule"]
                assert report["checks"]["oracle_semimodule"]
                verified += 1
    assert verified >= 50
    _finish("06 main theorem on 25 random curves (%d semiroots)" % verified,
            started, 300)


def test_criterion_07_oracle_equivalence_on_all_suite_curves():
    started = time.perf_counter()
    curves = [example_curve_5_11(), example_curve_7_17()]
    basis = compute_standard_basis(curves[1])
    for a in (1, 2, 3):
        curves.append(semiroot(basis, 2, a).curve)
    rng = random.Random(1319)
    for _ in range(25):
        curves.append(random_cusp_curve(rng, max_n=9, max_extra=4,
                                        max_weight=110))
    for curve in curves:
        assert (semimodule_oracle(curve)
                == compute_standard_basis(curve).semimodule)
    _finish("07 oracle equivalence on %d curves" % len(curves), started)


def test_criterion_08_semimodule_combinatorics():
    started = time.perf_counter()
    rng = random.Random(808)
    for _ in range(100):
        sm = random_increasing_semimodule(rng, max_n=9)
        n = sm.pair.n
        pair = sm.pair
        tp = tops(sm)
        conductor = sm.conductor
        assert conductor <= n * (tp.main - 1)
        v = min(tp.q1, tp.q2)
        assert v == sm.axes[-1] // n
        saturation = -(-conductor // n) + 1
        for q in range(v, saturation + 1):
            assert is_circular_interval(level_set(sm, q).members, n)
        assert level_set(sm, saturation).members == frozenset(range(n))
        for i in range(sm.s_index + 1):
            for k in range(-1, i):
                assert sm.axes[i + 1] < sm.truncated(k).conductor + n
        for mu in sm.basis:
            previous = ray_level_set(pair, mu, 0)
            for q in range(1, saturation + 1):
                current = ray_level_set(pair, mu, q)
                assert previous <= current
                assert len(current) - len(previous) <= 1
                previous = current
        for q in range(saturation + 1):
            union = frozenset()
            for mu in sm.basis:
                union |= ray_level_set(pair, mu, q)
            assert union == level_set(sm, q).members
    _finish("08 semimodule combinatorics on 100 random semimodules",
            started, 30)


def test_criterion_09_delorme_decompositions():
    started = time.perf_counter()
    for curve in (example_curve_5_11(), example_curve_7_17()):
        basis = compute_standard_basis(curve)
        s = basis.s_index
        lam, t = basis.semimodule.basis, basis.semimodule.critical_orders
        for i in range(s + 1):
            for j in range(i + 1):
                dec = delorme_decompose(basis, i, j)
                assert dec.vij == t[i + 2] - t[j + 1] + lam[j + 1]
                assert -1 <= dec.distinguished_index < j
                target = basis.form(i + 1)
                recomposed = OneForm(curve.pair)
                for ell in range(-1, j + 1):
                    recomposed = recomposed + basis.form(ell).times_polynomial(
                        dec.coefficients[ell + 1])
                assert (target - recomposed).is_zero()
                touching = []
                for ell in range(-1, j + 1):
                    f = dec.coefficients[ell + 1]
                    if f.is_zero():
                        continue
                    value = (pullback_function(curve, f) * pullback_form(
                        curve, basis.form(ell))).order_lb()
                    assert value >= dec.vij
                    if value == dec.vij:
                        touching.append(ell)
                assert sorted(touching) == sorted({j, dec.distinguished_index})
    _finish("09 Delorme decompositions of both reference curves", started, 60)


def _random_form(rng, pair):
    while True:
        A = {}
        B = {}
        for _ in range(rng.randint(0, 3)):
            A[(rng.randint(0, 6), rng.randint(0, 6))] = rng.choice(
                (-3, -2, -1, 1, 2, 3))
        for _ in range(rng.randint(0, 3)):
            B[(rng.randint(0, 6), rng.randint(0, 6))] = rng.choice(
                (-3, -2, -1, 1, 2, 3))
        omega = OneForm(pair, A, B)
        if not omega.is_zero():
            return omega


def _psi(kind, point):
    a, b = point
    if kind == "free":
        return (a + b, b)
    return (b, a + b)


def test_criterion_10_blowup_stability():
    started = time.perf_counter()
    rng = random.Random(1010)
    transported = set()
    box = [(x, y) for x in range(30) for y in range(30)]
    bases = ((0, 0), (2, 1), (4, 5))
    for _ in range(200):
        pair = random_coprime_pair(rng, max_n=8)
        seq = build_sequence(pair)
        assert seq.pairs[-1] == PuiseuxPair(1, 1)
        omega = _random_form(rng, pair)
        for step, kind in enumerate(seq.kinds):
            n, m = seq.pairs[step].n, seq.pairs[step].m
            following = seq.pairs[step + 1]
            assert kind == ("free" if m >= 2 * n else "corner")
            assert (following.n, following.m) == (
                (n, m - n) if kind == "free" else (m - n, n))
            b, d = copair(seq.pairs[step])
            recursed = (b, d - b) if kind == "free" else (m - n - d + b, n - b)
            assert copair(following) == recursed
            image = transform_form(seq, omega, step)
            vertex = is_prebasic(omega)
            vertex_after = is_prebasic(image)
            assert (vertex is None) == (vertex_after is None)
            if vertex is not None:
                assert vertex_after == _psi(kind, vertex)
                assert is_resonant(omega) == is_resonant(image)
            key = (seq.pairs[step], kind)
            if key not in transported:
                transported.add(key)
                for base in bases:
                    before = Region(seq.pairs[step], base)
                    after = Region(following, _psi(kind, base))
                    for point in box:
                        assert (before.contains(point)
                                == after.contains(_psi(kind, point)))
            omega = image
    _finish("10 blow-up stability over 200 random forms", started, 60)
