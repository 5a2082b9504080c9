"""The bundled example curves and form, and the seeded random cusps of
the CLI's seed-corpus."""

from __future__ import annotations

import math
import random

from .forms import OneForm
from .rationals import rat
from .semigroup import PuiseuxPair
from .series import PuiseuxCurve

__all__ = ["random_cusp_curve", "example_curve_5_11", "example_curve_7_17",
           "example_form_4_9"]


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


def example_form_4_9() -> OneForm:
    """The totally dicritical (4, 9) form with nu_E = 48 and vertex (3, 4)."""
    A = {(0, 5): rat(7), (9, 1): rat(2), (9, 2): rat(-2), (2, 4): rat(-9)}
    B = {(3, 3): rat(4), (10, 0): rat(-1), (10, 1): rat(2),
         (1, 4): rat(-3), (8, 2): rat(-1)}
    return OneForm(PuiseuxPair(4, 9), A, B)
