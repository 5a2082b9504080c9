"""Analytic semiroots: invariant branches of the standard-basis forms.

A totally dicritical form has a one-parameter family of invariant cusp
branches (t^n, a t^m + ...).  Solving for the branch coefficient by
coefficient is an online triangular process: at each order past nu_E the
next y-coefficient appears through a single nonzero pivot.  The solver
is fraction-free (Bareiss, Math. Comp. 22, 1968) on graded denominators:
it holds y_{m+j} as an integer over D d[j], with D = den(a) and
d[i] d[j] | d[i+j], so that the offset-k coefficient of y^b is an
integer over D^b d[k], as in the divided-power product of Hurwitz series
(Keigher, Comm. Algebra 25, 1997).  Every ratio of d is read off its
small steps e[k] = d[k] / d[k - 1], which exceed 1 only at the orders
where a product or a new coefficient demands it.  The order loop builds
no rational: one small gcd gives each new coefficient and the growth it
asks of d.  The semiroot attached to omega_i carries, by the
structure theorem, exactly the truncated semimodule generated by
lambda_-1 .. lambda_{i-1}; this module solves the branches and checks
that statement, semiroot by its first check, verify_main_theorem from
scratch, both failing with the one report that _report builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (IndexOutOfRange, InputError, NotDicritical,
                     VerificationFailure, ZeroPivot)
from .forms import OneForm, _integer_cloud, nu_E_form
from .jsonio import semiroot_to_json
from .rationals import Q, integer, is_rational, rat
from .series import (OrderResult, PuiseuxCurve, _singular, _truncation,
                     nu_C_form)
from .stdbasis import (ExtendedStandardBasis, compute_standard_basis,
                       semimodule_oracle)
from .blowup import is_totally_dicritical

__all__ = [
    "Semiroot", "solve_invariant_branch", "semiroot",
    "verify_main_theorem", "zariski_invariant",
]


@dataclass(frozen=True)
class Semiroot:
    """An invariant branch of omega_i, with its checked semimodule.

    index: the math index i of the source form (1 .. s+1).
    parameter: the leading y-coefficient a of the branch.
    semimodule: the branch's own semimodule of differential values,
    recomputed from the branch and compared against the source prefix
    before this object is handed out.
    """

    index: int
    parameter: object
    curve: PuiseuxCurve
    semimodule: object


def solve_invariant_branch(omega: OneForm, a, trunc: int = None) -> PuiseuxCurve:
    """The invariant branch (t^n, a t^m + ...) of a totally dicritical form.

    Writing the pullback as a(t) dt/t, each cloud point (alpha, beta)
    contributes P_beta[K - n alpha] * (n mu + zeta (K - n alpha) / beta)
    to the t^K coefficient, where P_beta is the coefficient series of
    y^beta.  The order-q slice dies for every a by resonance; at order
    q + r the newest coefficient y_{m+r} enters through the pivot
    r * zeta a^(beta - 1) at the vertex (alpha, beta), the only point of
    weight q, so the branch is determined one order at a time.

    The elimination is fraction-free in the manner of Bareiss (Math.
    Comp. 22, 1968; Geddes, Czapor and Labahn, Algorithms for Computer
    Algebra, 1992), on graded denominators.  The form is read on its
    integer cloud (forms._integer_cloud), a positive multiple with the
    same branches.  With D = den(a), y_{m+j} is held as Z[j] / (D d[j]),
    d[0] = 1, and d[i] d[j] | d[i+j]: any product of coefficients whose
    offsets sum to k then has a denominator dividing D^b d[k], so the
    offset-k coefficient of y^b is an integer over D^b d[k].  This is the
    divided-power product of Hurwitz series (W. F. Keigher, Comm.
    Algebra 25, 1997), with d[k] in place of k!.  A row update is
    P[b][r] = Z[0] P[b-1][r] + sum C[j] P[b-1][r - j] over the keys j > 0
    of Z, with the held weights C[j] = Z[j] W[j], W[j] = d[r] / (d[j]
    d[r - j]): C moves from order to order as W does, so no weight is
    rebuilt per order, and W itself is kept only at the events, which the
    lcm step below reads.  The known part of order q + r is one integer
    over Bl D^top d[r] (Bl the lcm of the cloud's nonzero beta, top the
    largest), summed by Horner in ascending offset k = r - gap: the running
    sum moves to the next point's offset by e[k] where the offsets are
    adjacent, by d[k] / d[k'] where they jump from k', and once by
    d[r] / d[k] at the end.  Row b is read to offset trunc - q - 1 - gap
    by the points of beta b and, through row b + 1, of every larger beta,
    so past last[b], that ceiling for the least such gap, it is neither
    updated, rescaled nor completed.
    d[r] is the least multiple of d[r - 1] divisible by d[i] d[r - i] for
    the events i < r, the orders where d grew past it: expanded into those
    lcms, a product over a split of r divides d[i] d[r - i] for an event
    part i, or d[r - 1].  Each ratio is read off the small steps e[k] =
    d[k] / d[k - 1]: W[j] moves to W[j] e[r + 1] / e[r + 1 - j], and as
    d[i] d[r - i] | d[r - 1] e[r] exactly when e[r - i] | W[i] e[r] (W of
    order r - 1), e[r] is the lcm of e[r - i] / gcd(e[r - i], W[i]).
    No rational is built in the loop: y_{m+r} D d[r] = -known D / M (M =
    r times the pivot term, small beside known), and d[r] grows by the
    least g = |M| / gcd(M, known D) that makes it whole, as do only the
    offset-r entries, one per live row, and C[j] and W[j], 0 < j < r.

    Orders below trunc, default_truncation(omega.pair) by default, are
    solved, so y is exact below m + trunc - q; the coefficients from there
    to trunc read 0.  A trunc or an n that PuiseuxCurve refuses raises its
    InputError before any work; then NotDicritical when the form fails the
    dual dicriticalness check, ZeroPivot when a = 0.
    """
    pair = omega.pair
    n, m = pair.n, pair.m
    a = _parameter(a)
    trunc = _truncation(pair, trunc)
    _singular(pair)
    verdict = is_totally_dicritical(omega)
    if not verdict:
        raise NotDicritical("form has no invariant branch family")
    if a == 0:
        raise ZeroPivot("branch parameter a must be nonzero")
    q = nu_E_form(omega)
    cloud, _ = _integer_cloud(omega)
    points = sorted(cloud.items())
    top = max(be for (_, be), _ in points)
    # Bl clears every 1/beta
    Bl = math.lcm(*(be for (_, be), _ in points if be))
    # the vertex is the one cloud point of weight q; being resonant, its
    # zeta is nonzero, and so is the pivot r * zeta * a^(beta - 1)
    beta = verdict.vertex[1]
    pivot = Bl * cloud[verdict.vertex][1]

    # P[b][k]: numerator over D^b d[k] of the t^(m b + k) coefficient of
    # y(t)^b, so a^b = P[b][0] / D^b; at order r, offset r holds the
    # nonzero partial sum without y_{m+r} until y_{m+r} is known
    D = int(a.denominator)
    P = [{0: int(a.numerator) ** b} for b in range(top + 1)]
    Z = P[1]  # y^1 = y: Z[j] / (D d[j]) is y_{m+j}
    z0 = Z[0]
    d = [1]
    e = [1]  # e[k] = d[k] / d[k - 1], small beside d[k]
    # the held weights C[j] = Z[j] W[j] for the keys j > 0 of Z, and W[i]
    # at the events i only, the orders at which d[i] grew past its lcm
    C = {}
    W = {}
    # the cloud points by weight gap w - q, descending, so that at order r
    # their offsets r - gap ascend, each with its P row, m beta and the
    # integers n mu Bl D^(top - beta) and zeta Bl D^(top - beta) / beta
    # (0 at beta = 0): at order r a point reads offset r - gap of its row,
    # over D^beta d[r - gap]
    by_gap = sorted(
        ((n * al + m * be - q, P[be], m * be, n * mu * Bl * D ** (top - be),
          ze * Bl // be * D ** (top - be) if be else 0)
         for (al, be), (mu, ze) in points), key=lambda point: -point[0])
    # row b is read to offset trunc - q - 1 - gap by a point of beta = b
    # and to last[b + 1] by row b + 1's update, so it is dead past last[b]
    last = [trunc - q - 1 - min(n * al + m * be - q for al, be in cloud
                                if be >= b) for b in range(top + 1)]
    live, lo = top, len(by_gap)
    # y_{m+r} D d[r] = known sD / (r |scale|), sD = -D sign(scale)
    scale = pivot * z0 ** (beta - 1) * D ** (top - beta + 1)
    sD, scale = (-D if scale > 0 else D), abs(scale)
    for r in range(1, trunc - q):
        while last[live] < r:
            live -= 1
        # with top = 1 no row multiplies coefficients, so e[r] = 1; else
        # d[i] d[r - i] | d[r - 1] already unless e[r - i] > 1
        er = 1
        if top > 1:
            er = math.lcm(*[e[r - i] // math.gcd(e[r - i], w)
                            for i, w in W.items() if e[r - i] != 1])
            for held in C, W:
                for j, c in held.items():
                    if e[r - j] != er:
                        held[j] = c * er // e[r - j]
        e.append(er)
        dr = d[r - 1] * er
        d.append(dr)
        # y_{m+j} times offset r - j of y^(b-1) lands over D^b d[r]
        for b in range(2, live + 1):
            prev = P[b - 1]
            acc = z0 * prev.get(r, 0)
            for j, c in C.items():
                v = prev.get(r - j)
                if v is not None:
                    acc += c * v
            if acc:
                P[b][r] = acc
        # known: the t^(q+r) coefficient without y_{m+r}, over Bl D^top
        # d[r], by Horner over the points with gap <= r: moved from d[k0]
        # to d[k] by e[k] or d[k] / d[k0], and to d[r] once at the end
        known = 0
        while lo and by_gap[lo - 1][0] <= r:
            lo -= 1
        for gap, row, mb, nmu, zb in by_gap[lo:]:
            k = r - gap
            c = row.get(k)
            if c:
                if known:
                    known *= e[k] if k == k0 + 1 else d[k] // d[k0]
                known += c * (nmu + zb * (mb + k))
                k0 = k
        if not known:  # y_{m+r} = 0, and the partial sums are complete
            continue
        if k0 != r:
            known *= dr // d[k0]
        # d[r] grows by the least g that makes known sD g / (r scale) whole
        kD = known * sD
        G = math.gcd(r * scale, kD)
        g = r * scale // G
        if g != 1:
            d[r] = dr * g
            e[r] *= g
            for held in C, W:
                for j in held:
                    held[j] *= g
            W[r] = 1
            for b in range(2, live + 1):
                v = P[b].get(r)
                if v is not None:
                    P[b][r] = v * g
        zr = C[r] = kD // G
        for b in range(1, live + 1):
            full = P[b].get(r, 0) + b * P[b - 1][0] * zr
            if full:
                P[b][r] = full
            else:
                P[b].pop(r, None)
    return PuiseuxCurve(pair, {m + j: Q(z, D * d[j]) for j, z in Z.items()},
                        trunc)


def _parameter(a) -> Q:
    """The branch parameter a as a Q; any a but an integer (not a bool)
    or a Q is refused."""
    if not is_rational(a):
        raise InputError("branch parameter a must be a rational")
    return rat(a)


def _solve(basis: ExtendedStandardBasis, i: int, a):
    """omega_i, the Semiroot of its branch at parameter a with the
    branch's own standard-basis semimodule, and the prefix Lambda_{i-1} it
    must equal; the index and a are checked before any work."""
    integer(i, "semiroot index", 1, basis.s_index + 1, IndexOutOfRange)
    a = _parameter(a)
    omega = basis.form(i)
    branch = solve_invariant_branch(omega, a, basis.curve.trunc)
    root = Semiroot(i, a, branch, compute_standard_basis(branch).semimodule)
    return omega, root, basis.semimodule.truncated(i - 1)


def _report(root: Semiroot, expected, checks: dict) -> dict:
    """The report of checks on root against the prefix expected; raises
    VerificationFailure carrying it unless every check passed."""
    report = {**semiroot_to_json(root), "expected": list(expected.basis),
              "pass": all(checks.values()), "checks": checks}
    if not report["pass"]:
        bad = [name for name, good in checks.items() if not good]
        raise VerificationFailure("semiroot check failed at i=%d, a=%s: %s"
                                  % (root.index, report["a"], ", ".join(bad)),
                                  report=report)
    return report


def semiroot(basis: ExtendedStandardBasis, i: int, a) -> Semiroot:
    """The omega_i-semiroot with parameter a, its semimodule checked.

    The branch is solved from omega_i, its standard basis recomputed,
    and the resulting semimodule compared against the source prefix
    Lambda_{i-1}, verify_main_theorem's first check.  A mismatch raises
    VerificationFailure with that check's report; a match encodes none.
    """
    _, root, expected = _solve(basis, i, a)
    if root.semimodule != expected:
        _report(root, expected, {"standard_basis_semimodule": False})
    return root


def verify_main_theorem(basis: ExtendedStandardBasis, i: int, a) -> dict:
    """Recheck the semiroot structure statement for omega_i at parameter a.

    Five independent checks: the branch's semimodule equals the source
    prefix Lambda_{i-1} by the standard-basis algorithm and again by the
    brute-force oracle; every lower form omega_j takes value lambda_j on
    the branch; omega_i itself is invariant on it; and the branch's last
    critical order is nu_E(omega_i).  Returns the report on success and
    raises VerificationFailure carrying it otherwise.
    """
    omega, root, expected = _solve(basis, i, a)
    branch = root.curve
    checks = {"standard_basis_semimodule": root.semimodule == expected}
    checks["oracle_semimodule"] = semimodule_oracle(branch) == expected
    # a pullback is exact below its precision, so below lambda_j + 1 it
    # reads Finite(lambda_j) exactly when it does at any higher one
    checks["values_of_lower_forms"] = all(
        nu_C_form(branch, basis.form(j), expected.basis[j + 1] + 1)
        == OrderResult.Finite(expected.basis[j + 1]) for j in range(-1, i))
    # capping at the truncation keeps the certificate but spares the
    # power cache the dead band above it
    checks["invariance"] = not nu_C_form(branch, omega, branch.trunc).finite
    checks["critical_order"] = (nu_E_form(omega)
                                == root.semimodule.critical_orders[-1])
    return _report(root, expected, checks)


def zariski_invariant(curve: PuiseuxCurve):
    """lambda_1 - n, or the string "quasi-homogeneous" when s = 0."""
    basis = compute_standard_basis(curve)
    if basis.s_index == 0:
        return "quasi-homogeneous"
    return basis.semimodule.basis[2] - curve.pair.n
