"""Analytic semiroots: invariant branches of the standard-basis forms.

A totally dicritical form has a one-parameter family of invariant cusp
branches (t^n, a t^m + ...).  Solving for the branch coefficient by
coefficient is an online triangular process: at each order past nu_E the
next y-coefficient appears through a single nonzero pivot.  The semiroot
attached to omega_i carries, by the structure theorem, exactly the
truncated semimodule generated by lambda_-1 .. lambda_{i-1}; this module
solves the branches, packages them, and rechecks that statement from
scratch on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (IndexOutOfRange, NotDicritical, VerificationFailure,
                     ZeroPivot)
from .forms import OneForm, nu_E_form
from .jsonio import y_to_json
from .rationals import ZERO, rat, rat_to_str
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
    points = sorted(omega.cloud.items())
    top_beta = max(be for (_, be), _ in points)
    apow = [rat(1)]
    for _ in range(top_beta):
        apow.append(apow[-1] * a)
    # the vertex is the one cloud point of weight q; being resonant, its
    # zeta is nonzero, and so is the pivot
    beta = verdict.vertex[1]
    pivot = omega.cloud[verdict.vertex][1] * apow[beta - 1]

    # P[b]: coefficients of y(t)^b by exponent; at order r, entry m b + r
    # holds the nonzero partial sum without y_{m+r} until y_{m+r} is known
    P = [dict() for _ in range(top_beta + 1)]
    P[0][0] = rat(1)
    for b in range(1, top_beta + 1):
        P[b][m * b] = apow[b]
    # per cloud point: n alpha, P_beta, n mu, zeta / beta (0 at beta = 0)
    weights = [(n * al, P[be], n * mu, ze / be if be else ZERO)
               for (al, be), (mu, ze) in points]
    y = {m: a}
    for r in range(1, trunc - q):
        for b in range(1, top_beta + 1):
            acc = rat(0)
            prev = P[b - 1]
            base = m * b + r
            for u, yu in y.items():
                v = prev.get(base - u)
                if v is not None:
                    acc += yu * v
            if acc != 0:
                P[b][base] = acc
        K = q + r
        known = rat(0)
        for nal, row, nmu, zb in weights:
            idx = K - nal
            c = row.get(idx)
            if c:
                known += c * (nmu + zb * idx)
        y_new = -known / (rat(r) * pivot)
        if y_new != 0:
            y[m + r] = y_new
        for b in range(1, top_beta + 1):
            full = P[b].pop(m * b + r, ZERO) + rat(b) * apow[b - 1] * y_new
            if full != 0:
                P[b][m * b + r] = full
    return PuiseuxCurve(pair, y, trunc)


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
