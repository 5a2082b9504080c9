"""Analytic semiroots: invariant branches of the standard-basis forms.

A totally dicritical form has a one-parameter family of invariant cusp
branches (t^n, a t^m + ...).  Solving for the branch coefficient by
coefficient is an online triangular process: at each order past nu_E the
next y-coefficient appears through a single nonzero pivot.  The solver
is fraction-free (Bareiss, Math. Comp. 22, 1968): it holds y as integer
numerators over one common denominator, y_u = Y[u] / D, and reduces one
rational per order, the new coefficient, instead of every sum and
product of the elimination.  The semiroot attached to omega_i carries,
by the structure theorem, exactly the truncated semimodule generated by
lambda_-1 .. lambda_{i-1}; this module solves the branches, packages
them, and rechecks that statement from scratch on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (IndexOutOfRange, NotDicritical, VerificationFailure,
                     ZeroPivot)
from .forms import OneForm, _integer_cloud, nu_E_form
from .jsonio import y_to_json
from .rationals import Q, rat, rat_to_str
from .series import OrderResult, PuiseuxCurve, default_truncation, nu_C_form
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
    Algebra, 1992).  The form is read on its integer cloud
    (forms._integer_cloud), a positive multiple with the same branches.
    y_u is held as Y[u] / D over one common denominator D, the
    coefficients of y^b as integers over D^b, and the known part of each
    order as one integer over Bl D^top (Bl the lcm of the cloud's nonzero
    beta, top the largest).
    One rational per order: y_{m+r} is the only reduced fraction built
    at order r, and when its denominator does not divide D, D grows by
    the missing factor g and every numerator over D^b by g^b.

    The branch is known below trunc, default_truncation(omega.pair) by
    default.  Raises NotDicritical when the form fails the dual
    dicriticalness check, ZeroPivot when a = 0.
    """
    pair = omega.pair
    n, m = pair.n, pair.m
    a = rat(a)
    verdict = is_totally_dicritical(omega)
    if not verdict:
        raise NotDicritical("form has no invariant branch family: %r" % omega)
    if a == 0:
        raise ZeroPivot("branch parameter a must be nonzero")
    if trunc is None:
        trunc = default_truncation(pair)
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

    # y_u = Y[u] / D; P[b]: numerators over D^b of the coefficients of
    # y(t)^b by exponent, so a^b = P[b][m b] / D^b; at order r, entry
    # m b + r holds the nonzero partial sum without y_{m+r} until y_{m+r}
    # is known
    D = int(a.denominator)
    Y = {m: int(a.numerator)}
    P = [{m * b: Y[m] ** b} for b in range(top + 1)]
    # per beta: its P row and, per cloud point, n alpha, n mu Bl and
    # zeta Bl / beta (0 at beta = 0), all integers
    rows = {}
    for (al, be), (mu, ze) in points:
        rows.setdefault(be, (P[be], []))[1].append(
            (n * al, n * mu * Bl, ze * Bl // be if be else 0))
    rows = sorted(rows.items())
    dpow = [D ** k for k in range(top + 1)]
    for r in range(1, trunc - q):
        for b in range(1, top + 1):
            acc = 0
            prev = P[b - 1]
            base = m * b + r
            for u, yu in Y.items():
                v = prev.get(base - u)
                if v is not None:
                    acc += yu * v
            if acc:
                P[b][base] = acc
        K = q + r
        # known: the t^K coefficient without y_{m+r}, over Bl D^top
        known = 0
        for be, (row, pts) in rows:
            part = 0
            for nal, nmu, zb in pts:
                idx = K - nal
                c = row.get(idx)
                if c:
                    part += c * (nmu + zb * idx)
            if part:
                known += part * dpow[top - be]
        if not known:  # y_{m+r} = 0, and the partial sums are complete
            continue
        # y_{m+r} = -known / (Bl D^top r zeta a^(beta - 1))
        y_new = Q(-known, r * pivot * P[beta - 1][m * (beta - 1)]
                  * dpow[top - beta + 1])
        num, den = int(y_new.numerator), int(y_new.denominator)
        if D % den:
            g = den // math.gcd(D, den)
            D *= g
            for u in Y:
                Y[u] *= g
            for b in range(1, top + 1):
                gb = g ** b
                row = P[b]
                for k in row:
                    row[k] *= gb
            dpow = [D ** k for k in range(top + 1)]
        Y[m + r] = num * (D // den)
        for b in range(1, top + 1):
            key = m * b + r
            full = (P[b].get(key, 0)
                    + b * P[b - 1][m * (b - 1)] * Y[m + r])
            if full:
                P[b][key] = full
            else:
                P[b].pop(key, None)
    return PuiseuxCurve(pair, {u: Q(yu, D) for u, yu in Y.items()}, trunc)


def _solve(basis: ExtendedStandardBasis, i: int, a):
    """omega_i, its invariant branch at parameter a, the branch's standard
    basis and the prefix Lambda_{i-1} that basis must carry."""
    if not 1 <= i <= basis.s_index + 1:
        raise IndexOutOfRange("semiroot index %d outside 1..%d"
                              % (i, basis.s_index + 1))
    omega = basis.form(i)
    branch = solve_invariant_branch(omega, a, basis.curve.trunc)
    return (omega, branch, compute_standard_basis(branch),
            basis.semimodule.truncated(i - 1))


def semiroot(basis: ExtendedStandardBasis, i: int, a) -> Semiroot:
    """The omega_i-semiroot with parameter a, its semimodule checked.

    The branch is solved from omega_i, its standard basis recomputed,
    and the resulting semimodule compared against the source prefix
    Lambda_{i-1}.  A mismatch raises VerificationFailure.
    """
    _, branch, branch_basis, expected = _solve(basis, i, a)
    sm = branch_basis.semimodule
    if sm != expected:
        raise VerificationFailure(
            "omega_%d-semiroot carries %r, expected %r" % (i, sm, expected),
            report={"i": i, "a": rat_to_str(rat(a)),
                    "semimodule": list(sm.basis),
                    "expected": list(expected.basis)})
    return Semiroot(i, rat(a), branch, sm)


def verify_main_theorem(basis: ExtendedStandardBasis, i: int, a) -> dict:
    """Recheck the semiroot structure statement for omega_i at parameter a.

    Five independent checks: the branch's semimodule equals the source
    prefix Lambda_{i-1} by the standard-basis algorithm and again by the
    brute-force oracle; every lower form omega_j takes value lambda_j on
    the branch; omega_i itself is invariant on it; and the branch's last
    critical order is nu_E(omega_i).  Returns the report on success and
    raises VerificationFailure carrying it otherwise.
    """
    a = rat(a)
    omega, branch, branch_basis, expected = _solve(basis, i, a)
    checks = {}
    checks["standard_basis_semimodule"] = branch_basis.semimodule == expected
    checks["oracle_semimodule"] = semimodule_oracle(branch) == expected
    # lambda_j < c_Gamma + n for every j, so this window decides exactly
    window = branch.pair.conductor + branch.pair.n * branch.pair.m
    checks["values_of_lower_forms"] = all(
        nu_C_form(branch, basis.form(j), window)
        == OrderResult.Finite(basis.lambdas[j + 1]) for j in range(-1, i))
    # capping at the truncation keeps the certificate but spares the
    # power cache the dead band above it
    checks["invariance"] = not nu_C_form(branch, omega, branch.trunc).finite
    checks["critical_order"] = nu_E_form(omega) == branch_basis.t[-1]
    report = {
        "i": i,
        "a": rat_to_str(a),
        "parametrization": y_to_json(branch),
        "semimodule": list(branch_basis.semimodule.basis),
        "expected": list(expected.basis),
        "pass": all(checks.values()),
        "checks": checks,
    }
    if not report["pass"]:
        bad = [name for name, good in checks.items() if not good]
        raise VerificationFailure("semiroot check failed at i=%d, a=%s: %s"
                                  % (i, rat_to_str(a), ", ".join(bad)),
                                  report=report)
    return report


def zariski_invariant(curve: PuiseuxCurve):
    """lambda_1 - n, or the string "quasi-homogeneous" when s = 0."""
    basis = compute_standard_basis(curve)
    if basis.s_index == 0:
        return "quasi-homogeneous"
    return basis.lambdas[2] - curve.pair.n
