"""Cuspidal sequences of blow-ups as exact symbolic data.

The sequence attached to a coprime pair is the Euclid recursion
(n, m) -> (n, m-n) while m >= 2n (a free step, substitution x = x1,
y = x1 y1) and (n, m) -> (m-n, n) otherwise (a corner step, y = x1 y1,
x = y1), ending at (1, 1).  On logarithmic clouds each step acts by the
unimodular map Psi on cloud points and their coefficients alike, so
everything here is integer linear algebra; no series are touched.

The total-dicriticalness test runs both characterizations independently:
the combinatorial one (pre-basic and resonant) and the geometric one
(push the cloud down the whole sequence, factoring the exceptional
multiplicity at every step, and inspect the weight-zero slice in the
terminal chart).  Disagreement is an internal bug, not a data error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IndexOutOfRange, InputError, InternalDisagreement
from .forms import OneForm, _integer_cloud, _resonant_at, is_prebasic
from .rationals import cut, integer
from .semigroup import PuiseuxPair

__all__ = [
    "CuspidalSequence", "DicriticalVerdict", "build_sequence",
    "transform_form", "is_totally_dicritical",
]

FREE = "free"
CORNER = "corner"


@dataclass(frozen=True)
class CuspidalSequence:
    """The pair chain (length N, ending at (1,1)) and the N-1 step kinds."""

    pairs: tuple
    kinds: tuple

    @property
    def length(self) -> int:
        return len(self.pairs)

    def __repr__(self):
        bits = []
        for i, p in enumerate(self.pairs):
            bits.append("(%d,%d)" % (p.n, p.m))
            if i < len(self.kinds):
                bits.append("-%s->" % self.kinds[i])
        return "".join(bits)


def build_sequence(pair: PuiseuxPair) -> CuspidalSequence:
    pairs = [pair]
    kinds = []
    n, m = pair.n, pair.m
    while (n, m) != (1, 1):
        if m >= 2 * n:
            kinds.append(FREE)
            m = m - n
        else:
            kinds.append(CORNER)
            n, m = m - n, n
        pairs.append(PuiseuxPair(n, m))
    return CuspidalSequence(tuple(pairs), tuple(kinds))


def _psi(kind: str, u, v) -> tuple:
    """Psi of a step, on a cloud point and on its (mu, zeta) alike."""
    return (u + v, v) if kind == FREE else (v, u + v)


def _transform_cloud(kind: str, cloud: dict) -> dict:
    # Psi is injective and never sends a nonzero pair to (0, 0), so the
    # cloud neither merges nor loses points.
    return {_psi(kind, *p): _psi(kind, *c) for p, c in cloud.items()}


def transform_form(seq: CuspidalSequence, omega: OneForm, step: int) -> OneForm:
    """Full single-step pullback of omega into the next chart.

    The cloud becomes Psi(cloud); the exceptional factor is visible as
    the common x1 (free) or y1 (corner) content and is deliberately not
    divided out here.
    """
    integer(step, "step index", kind=IndexOutOfRange)
    if not 0 <= step <= seq.length - 2:
        raise IndexOutOfRange("step %s outside 0..%d"
                              % (cut(step), seq.length - 2))
    if omega.pair != seq.pairs[step]:
        raise InputError("form lives at pair (%s, %s), not (%s, %s)" % tuple(
            cut(k) for p in (omega.pair, seq.pairs[step]) for k in (p.n, p.m)))
    cloud = _transform_cloud(seq.kinds[step], omega.cloud)
    return OneForm.from_cloud(seq.pairs[step + 1], cloud)


@dataclass(frozen=True)
class DicriticalVerdict:
    """Shared result of the two total-dicriticalness characterizations.

    multiplicities: the exceptional order factored at each step of the
    geometric walk (empty when the sequence has length 1).
    """

    combinatorial: bool
    geometric: bool
    vertex: object
    multiplicities: tuple

    def __bool__(self) -> bool:
        return self.combinatorial


def _geometric_walk(seq: CuspidalSequence, cloud: dict):
    """Strip-and-transform down to the terminal chart.

    Free steps factor x1^r and corner steps y1^r with r = min(alpha+beta)
    of the incoming cloud, matching the per-step exceptional multiplicity.
    Returns the final cloud (gcd-stripped) and the multiplicity trail.
    """
    trail = []
    for kind in seq.kinds:
        r = min(a + b for (a, b) in cloud)
        trail.append(r)
        moved = _transform_cloud(kind, cloud)
        if kind == FREE:
            cloud = {(a - r, b): c for (a, b), c in moved.items()}
        else:
            cloud = {(a, b - r): c for (a, b), c in moved.items()}
    # final normalization in the (1,1) chart: pull out the gcd monomial
    a0 = min(a for (a, b) in cloud)
    b0 = min(b for (a, b) in cloud)
    cloud = {(a - a0, b - b0): c for (a, b), c in cloud.items()}
    return cloud, tuple(trail)


def _terminal_condition(cloud: dict) -> bool:
    """Weight-zero slice must be exactly mu (dx/x - dy/y), mu != 0."""
    if (0, 0) not in cloud:
        return False
    mu, zeta = cloud[(0, 0)]
    return mu != 0 and zeta == -mu


def is_totally_dicritical(omega: OneForm) -> DicriticalVerdict:
    """Both characterizations of total dicriticalness, cross-checked.

    Combinatorial: omega is pre-basic and its vertex is resonant.
    Geometric: after the full blow-up sequence with exceptional factors
    removed, the weight-zero part in the terminal chart is a nonzero
    multiple of dx/x - dy/y.  The sequence is that of omega's own pair.
    The verdict depends on the form alone: the first call runs both
    routes and keeps it on the form, later calls return it.
    """
    if omega._verdict is None:
        vertex = is_prebasic(omega)
        combinatorial = vertex is not None and _resonant_at(omega, vertex)
        seq = build_sequence(omega.pair)
        # the integer cloud, a positive multiple, walks to the same verdict
        final_cloud, trail = _geometric_walk(seq, _integer_cloud(omega)[0])
        geometric = _terminal_condition(final_cloud)
        if combinatorial != geometric:
            raise InternalDisagreement(
                "dicriticalness checks disagree: combinatorial=%s geometric=%s"
                % (combinatorial, geometric))
        omega._verdict = DicriticalVerdict(combinatorial, geometric, vertex,
                                           trail)
    return omega._verdict
