"""Seeded random generators for stress-testing the combinatorial layer."""

from __future__ import annotations

import math
import random

from .semigroup import PuiseuxPair
from .semimodule import GammaSemimodule
from .series import PuiseuxCurve

__all__ = ["random_coprime_pair", "random_increasing_semimodule",
           "random_cusp_curve", "example_curve_5_11", "example_curve_7_17",
           "example_form_4_9"]


def random_coprime_pair(rng: random.Random, max_n: int = 8) -> PuiseuxPair:
    """Pick a coprime pair with 2 <= n <= max_n and n < m <= 3 n + 7."""
    while True:
        n = rng.randint(2, max_n)
        m = rng.randint(n + 1, 3 * n + 7)
        if math.gcd(n, m) == 1:
            return PuiseuxPair(n, m)


def random_increasing_semimodule(rng: random.Random, max_n: int = 8,
                                 max_steps: int = 4) -> GammaSemimodule:
    """Grow a basis (n, m, ...) where each new value exceeds the axis u_{i+1}.

    Each extension keeps the semimodule increasing by construction: the
    candidate pool is the gap set strictly between the next axis and the
    point past which no gaps remain.
    """
    pair = random_coprime_pair(rng, max_n=max_n)
    sm = GammaSemimodule(pair, (pair.n, pair.m))
    for _ in range(max_steps):
        if rng.random() < 0.25:
            break
        pool = [p for p in range(sm.axes[-1] + 1, sm.conductor)
                if not sm.contains(p)]
        if not pool:
            break
        sm = GammaSemimodule(pair, sm.basis + (rng.choice(pool),))
    return sm


def random_cusp_curve(rng: random.Random, max_n: int = 9,
                      max_extra: int = 4, max_weight: int = 110) -> PuiseuxCurve:
    """A cusp (t^n, t^m + tail) with a short integer tail.

    The product n m is capped so the default truncation stays small
    enough for the heavy verification suites; the tail has up to
    `max_extra` terms with coefficients in -2..2 right above m.
    """
    while True:
        n = rng.randint(2, max_n)
        hi = min(3 * n + 7, max_weight // n)
        if hi <= n:
            continue
        m = rng.randint(n + 1, hi)
        if math.gcd(n, m) == 1:
            break
    pair = PuiseuxPair(n, m)
    coeffs = {m: 1}
    exponents = list(range(m + 1, m + 2 * n + 6))
    rng.shuffle(exponents)
    for k in exponents[:rng.randint(0, max_extra)]:
        coeffs[k] = rng.choice((-2, -1, 1, 2))
    return PuiseuxCurve(pair, coeffs)


def example_curve_5_11() -> PuiseuxCurve:
    """(t^5, t^11 + t^12 + t^13), the running standard-basis example."""
    return PuiseuxCurve(PuiseuxPair(5, 11), {11: 1, 12: 1, 13: 1})


def example_curve_7_17() -> PuiseuxCurve:
    """(t^7, t^17 + t^30 + t^33 + t^36), the semiroot family example."""
    return PuiseuxCurve(PuiseuxPair(7, 17), {17: 1, 30: 1, 33: 1, 36: 1})


def example_form_4_9() -> "OneForm":
    """The totally dicritical (4, 9) form with nu_E = 48 and vertex (3, 4)."""
    from .forms import OneForm
    from .rationals import rat
    A = {(0, 5): rat(7), (9, 1): rat(2), (9, 2): rat(-2), (2, 4): rat(-9)}
    B = {(3, 3): rat(4), (10, 0): rat(-1), (10, 1): rat(2),
         (1, 4): rat(-3), (8, 2): rat(-1)}
    return OneForm(PuiseuxPair(4, 9), A, B)
