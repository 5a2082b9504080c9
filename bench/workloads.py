"""Seeded inputs of the benchmark workloads.

Every workload draws its items from a fixed pool; the run's --seed picks
which pool items run.  A finite pool is what lets every item carry a
golden digest of its CLI output (``golden.json``, written by
``make_golden.py``).  The program only ever sees the curve JSON and the
CLI arguments of an item.

An item is ``(item_id, argv)`` with ``argv`` the argument list of
``cuspidal.cli.main``.

The curve workloads draw sign images: the seed picks, for every base
curve, one of the four curves (t^n, s1 y(s2 t)).  The maps
(x, y) -> ((-1)^n x, y) and (x, y) -> (x, -y) carry one image to
another, so the images differ in their inputs and outputs but cost about
the same; curves with other random tails differ by 20 % and more, which
would move the median item from seed to seed by as much.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

WORKLOADS = ("basis_ladder", "verify_corpus", "semiroot_family")
SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

# basis_ladder: term counts and the truncation T = c + 2nm climb with the
# pair while coefficients stay a few bits high.  The top rung is (8,19),
# about 3 s, so that a run times every rung several times; (9,22) takes
# about 8 s and (11,27) 20 s or more on 2 CPUs.
LADDER = ((5, 11), (6, 13), (7, 16), (8, 19))

# verify_corpus: criterion 06 of the acceptance suite draws its 25
# curves from this seed, and these indices continue the same sequence.
# They span the corpus from trivial to height-bound curves, by their time
# on 2 CPUs: 0.02, 0.05, 0.25, 0.7, 1.1, 1.8 and 2.8 s.  A third of the
# first 60 curves take 10 s or more; one of them would fill a run.
CORPUS_SEED = 1319
CORPUS_INDICES = (24, 7, 8, 31, 36, 35, 57)

# semiroot_family: every (i, a) on the reference (7,17) curve, for the
# fixed parameters and SEMIROOT_DRAW seeded ones.
SEMIROOT_CURVE = {"n": 7, "m": 17,
                  "y": [[17, "1"], [30, "1"], [33, "1"], [36, "1"]]}
SEMIROOT_FIXED = ("1", "1/2")
SEMIROOT_DRAW = 1


def ladder_curve(n: int, m: int) -> dict:
    """(t^n, t^m + tail) with every exponent m+1 .. m+2n-1 in the tail and
    integer coefficients in {-2, -1, 1, 2}."""
    rng = random.Random("ladder:%d,%d:0" % (n, m))
    y = [[m, "1"]] + [[k, str(rng.choice((-2, -1, 1, 2)))]
                      for k in range(m + 1, m + 2 * n)]
    return {"n": n, "m": m, "y": y}


def corpus_curve(rng: random.Random, max_n: int = 9, max_extra: int = 4,
                 max_weight: int = 110) -> dict:
    """The criterion-06 recipe: n <= 9, nm <= 110, up to four tail terms
    with coefficients in {-2, -1, 1, 2} right above m.

    Draws from ``rng`` in the same order as
    ``cuspidal.corpus.random_cusp_curve``, so one seed gives the same
    curve sequence; the benchmark's own test holds the two together.
    """
    while True:
        n = rng.randint(2, max_n)
        hi = min(3 * n + 7, max_weight // n)
        if hi <= n:
            continue
        m = rng.randint(n + 1, hi)
        if math.gcd(n, m) == 1:
            break
    exponents = list(range(m + 1, m + 2 * n + 6))
    rng.shuffle(exponents)
    tail = {k: rng.choice((-2, -1, 1, 2))
            for k in exponents[:rng.randint(0, max_extra)]}
    y = [[m, "1"]] + [[k, str(tail[k])] for k in sorted(tail)]
    return {"n": n, "m": m, "y": y}


def sign_image(curve: dict, s1: int, s2: int) -> dict:
    """(t^n, s1 y(s2 t)) of a curve with integer coefficients."""
    return dict(curve, y=[[k, str(s1 * s2 ** k * int(c))]
                          for k, c in curve["y"]])


def semiroot_parameters() -> list:
    """Small rationals p/q, |p| <= 3, q <= 3, other than 0 and the
    fixed parameters, in lowest terms."""
    seen = set()
    for q in (1, 2, 3):
        for p in range(-3, 4):
            a = Fraction(p, q)
            if p and str(a) not in SEMIROOT_FIXED:
                seen.add(a)
    return [str(a) for a in sorted(seen)]


def _inline(curve: dict) -> str:
    return json.dumps(curve, separators=(",", ":"))


def base_curves(workload: str) -> dict:
    """The curves a curve workload takes sign images of, by name."""
    if workload == "basis_ladder":
        return {"ladder_%d_%d" % (n, m): ladder_curve(n, m)
                for n, m in LADDER}
    rng = random.Random(CORPUS_SEED)
    sequence = [corpus_curve(rng) for _ in range(max(CORPUS_INDICES) + 1)]
    return {"corpus_%03d" % k: sequence[k] for k in CORPUS_INDICES}


def pool(workload: str) -> dict:
    """Every item a run of ``workload`` may draw, by item id."""
    if workload == "semiroot_family":
        curve = _inline(SEMIROOT_CURVE)
        return {"semiroot_i%d_a%s" % (i, a):
                ["semiroots", "--curve", curve, "--i", str(i), "--a=" + a]
                for a in SEMIROOT_FIXED + tuple(semiroot_parameters())
                for i in (1, 2, 3)}
    if workload == "basis_ladder":
        command, flags = "standard-basis", []
    elif workload == "verify_corpus":
        command, flags = "verify", ["--all-semiroots"]
    else:
        raise ValueError("unknown workload %r" % workload)
    return {"%s_%+d%+d" % (name, s1, s2):
            [command, "--curve", _inline(sign_image(curve, s1, s2))] + flags
            for name, curve in base_curves(workload).items()
            for s1, s2 in SIGNS}


def load_golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def select(workload: str, seed: int) -> list:
    """The items one run executes, in run order, as (item_id, argv)."""
    items = pool(workload)
    rng = random.Random(seed)
    if workload == "semiroot_family":
        params = SEMIROOT_FIXED + tuple(rng.sample(semiroot_parameters(),
                                                   SEMIROOT_DRAW))
        chosen = ["semiroot_i%d_a%s" % (i, a)
                  for a in params for i in (1, 2, 3)]
    else:
        chosen = ["%s_%+d%+d" % ((name,) + rng.choice(SIGNS))
                  for name in base_curves(workload)]
    return [(i, items[i]) for i in chosen]
