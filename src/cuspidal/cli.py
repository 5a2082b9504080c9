"""Command-line front end.

Every subcommand reads JSON (inline or from a file), runs one
computation, and prints one canonical JSON document.  Exit codes:
0 success, 1 bad input (errors.InputError, whose message names the
violated rule) or any other CuspidalError, 2 a structure check failed.
On exit 2 stdout holds {"pass": false, "error", "report"}, the report
semiroot.verify_main_theorem builds whether semiroots or verify failed
(i, a, parametrization, semimodule, expected, pass, checks), so batch
drivers can triage without scraping stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys

from .blowup import is_totally_dicritical
from .corpus import (example_curve_5_11, example_curve_7_17,
                     example_form_4_9, random_cusp_curve)
from .errors import CuspidalError, InputError, VerificationFailure
from .jsonio import (basis_to_json, curve_to_json, delorme_to_json,
                     dicritical_to_json, dumps, form_to_json, parse_curve,
                     parse_form, semimodule_to_json, semiroot_to_json,
                     verify_report_to_json)
from .rationals import (OverDigitCap, cut, echo, int_from_str,
                        rat_from_str)
from .semigroup import PuiseuxPair, copair
from .semimodule import GammaSemimodule, is_increasing, minimal_basis
from .semiroot import semiroot, verify_main_theorem
from .stdbasis import compute_standard_basis, delorme_decompose

DEFAULT_PARAMETERS = "1,2,-1,1/2"
_PARSER = None  # built by the first main() call, not at import, then reused
# what argparse's refusals echo of argv: the unrecognized arguments, a
# quoted value, or a run between spaces and quotes, each over 20 characters
_ECHOED = re.compile(r"(?s)(?<=unrecognized arguments: ).{21,}"
                     r"|(?<=')[^']{21,}(?=')|[^\s']{21,}")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for failed checks.
    # Its messages quote argv whole, so each echo of over 20 characters is
    # cut as rationals.cut cuts; an echo cut already, as the type errors
    # of _integer echo one, stays as it is
    def error(self, message):
        message = _ECHOED.sub(lambda echoed: cut(echoed.group()), message)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _load_json(source: str):
    if source.lstrip().startswith("{"):
        text = source
    else:
        try:
            with open(source, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise InputError("cannot read %s: %s"
                             % (echo(source), exc.strerror or exc)) from None
        except UnicodeDecodeError:
            raise InputError("cannot read %s: not UTF-8 text"
                             % echo(source)) from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("malformed JSON in %s: %s"
                         % (echo(source), exc)) from None
    except ValueError as exc:  # an integer over the digit cap
        raise InputError(str(exc)) from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError("cannot write %s: %s"
                         % (echo(path), exc.strerror or exc)) from None


def _integer(text: str) -> int:
    """The argparse type of every integer flag: text in the grammar of
    rationals.int_from_str.  Other text is refused in type=int's words,
    and an integer over the digit cap by naming that rule; either echoes
    at most 20 characters."""
    try:
        return int_from_str(text)
    except OverDigitCap as exc:
        raise argparse.ArgumentTypeError(exc) from None
    except InputError:
        raise argparse.ArgumentTypeError("invalid int value: %s"
                                         % echo(text)) from None


def _integers(text: str, rule: str) -> list:
    """The comma-separated integers of text, refused under `rule`."""
    try:
        return [int_from_str(v) for v in text.split(",")]
    except OverDigitCap as exc:
        raise InputError("%s: %s" % (rule, exc)) from None
    except InputError:
        raise InputError("%s, got %s" % (rule, echo(text))) from None


def _pair_argument(text: str) -> PuiseuxPair:
    if len(text.split(",")) != 2:
        raise InputError("--pair wants the form n,m")
    return PuiseuxPair(*_integers(text, "--pair wants two integers"))


def _parameter_list(text: str) -> list:
    out = []
    for chunk in text.split(","):
        try:
            out.append(rat_from_str(chunk))
        except OverDigitCap as exc:
            raise InputError("unreadable parameter: %s" % exc) from None
        except InputError:
            raise InputError("unreadable parameter %s" % echo(chunk)) from None
    return out


def _curve_from(ns, source: str):
    return parse_curve(_load_json(source), trunc_override=ns.truncation)


def cmd_semigroup(ns):
    pair = _pair_argument(ns.pair)
    if ns.copair:
        return {"copair": list(copair(pair))}
    return {"pair": [pair.n, pair.m],
            "conductor": pair.conductor,
            "apery": list(pair.apery)}


def cmd_semimodule(ns):
    if (ns.curve is None) == (ns.generators is None):
        raise InputError("give exactly one of --curve or --generators")
    if ns.generators is not None and ns.truncation is not None:
        raise InputError("--truncation needs --curve")
    if ns.curve is not None:
        sm = compute_standard_basis(_curve_from(ns, ns.curve)).semimodule
    else:
        values = _integers(ns.generators, "--generators wants integers")
        if len(values) < 2:
            raise InputError("--generators wants at least n,m")
        pair = PuiseuxPair(values[0], values[1])
        sm = GammaSemimodule(pair, minimal_basis(pair, values))
    return {**semimodule_to_json(sm), "conductor": sm.conductor,
            "increasing": is_increasing(sm)}


def cmd_standard_basis(ns):
    basis = compute_standard_basis(_curve_from(ns, ns.curve))
    return basis_to_json(basis, [delorme_decompose(basis, i, j)
                                 for i in range(basis.s_index + 1)
                                 for j in range(i + 1)])


def cmd_delorme(ns):
    basis = compute_standard_basis(_curve_from(ns, ns.curve))
    return delorme_to_json(delorme_decompose(basis, ns.i, ns.j))


def cmd_dicritical_check(ns):
    omega = parse_form(_load_json(ns.form))
    return dicritical_to_json(omega, is_totally_dicritical(omega))


def cmd_semiroots(ns):
    curve = _curve_from(ns, ns.curve)
    parameters = _parameter_list(ns.a)
    basis = compute_standard_basis(curve)
    indices = [ns.i] if ns.i is not None else \
        list(range(1, basis.s_index + 2))
    out = []
    for i in indices:
        for a in parameters:
            out.append(semiroot_to_json(semiroot(basis, i, a)))
    return {"semiroots": out}


def _verify_one(ns, curve, parameters: list):
    basis = compute_standard_basis(curve)
    indices = range(1, basis.s_index + 2) if ns.all_semiroots else [ns.i]
    reports = [verify_report_to_json(verify_main_theorem(basis, i, a))
               for i in indices for a in parameters]
    return {"curve": curve_to_json(curve),
            "pass": all(r["pass"] for r in reports),
            "reports": reports}


def cmd_verify(ns):
    if ns.all_semiroots and (ns.i is not None or ns.a is not None):
        raise InputError("--all-semiroots takes no --i or --a")
    if not ns.all_semiroots and (ns.i is None or ns.a is None):
        raise InputError("verify wants --all-semiroots or both --i and --a")
    results, parameters = [], None
    for source in ns.curve:
        curve = _curve_from(ns, source)
        if parameters is None:  # a bad first curve is reported first
            parameters = _parameter_list(
                DEFAULT_PARAMETERS if ns.all_semiroots else ns.a)
        results.append(_verify_one(ns, curve, parameters))
    return results[0] if len(results) == 1 else results


def cmd_seed_corpus(ns):
    if ns.count < 0:
        raise InputError("--count must be >= 0")
    try:
        os.makedirs(ns.directory, exist_ok=True)
    except OSError as exc:
        raise InputError("cannot write %s: %s" % (
            echo(ns.directory), exc.strerror or exc)) from None
    written = []

    def emit(name, obj):
        path = os.path.join(ns.directory, name)
        _write(path, dumps(obj))
        written.append(path)

    emit("ex5_11.json", curve_to_json(example_curve_5_11()))
    emit("ex7_17.json", curve_to_json(example_curve_7_17()))
    emit("ex4_9_form.json", form_to_json(example_form_4_9()))
    rng = random.Random(ns.seed)
    for k in range(ns.count):
        emit("rand_%03d.json" % k, curve_to_json(random_cusp_curve(rng)))
    return {"written": written}


def build_parser() -> _Parser:
    parser = _Parser(prog="cuspidal",
                     description="Exact invariants of plane cusps with one "
                                 "Puiseux pair.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("semigroup", parents=[], help="semigroup of a pair")
    p.add_argument("--pair", required=True, metavar="N,M")
    p.add_argument("--copair", action="store_true",
                   help="print only the co-pair (b, d) with d n - b m = 1")
    p.set_defaults(func=cmd_semigroup)

    p = sub.add_parser("semimodule",
                       help="semimodule of differential values")
    p.add_argument("--curve", metavar="JSON")
    p.add_argument("--generators", metavar="N,M,...")
    p.add_argument("--truncation", type=_integer)
    p.set_defaults(func=cmd_semimodule)

    p = sub.add_parser("standard-basis",
                       help="standard basis, adjusted form, decompositions")
    p.add_argument("--curve", required=True, metavar="JSON")
    p.add_argument("--truncation", type=_integer)
    p.set_defaults(func=cmd_standard_basis)

    p = sub.add_parser("delorme", help="one Delorme decomposition")
    p.add_argument("--curve", required=True, metavar="JSON")
    p.add_argument("--i", type=_integer, required=True)
    p.add_argument("--j", type=_integer, required=True)
    p.add_argument("--truncation", type=_integer)
    p.set_defaults(func=cmd_delorme)

    p = sub.add_parser("dicritical-check",
                       help="dual dicriticalness verdict for a 1-form")
    p.add_argument("--form", required=True, metavar="JSON")
    p.set_defaults(func=cmd_dicritical_check)

    p = sub.add_parser("semiroots", help="invariant branches of basis forms")
    p.add_argument("--curve", required=True, metavar="JSON")
    p.add_argument("--i", type=_integer)
    p.add_argument("--a", default=DEFAULT_PARAMETERS, metavar="A1,A2,...")
    p.add_argument("--truncation", type=_integer)
    p.set_defaults(func=cmd_semiroots)

    p = sub.add_parser("verify", help="recheck the semiroot theorem")
    p.add_argument("--curve", required=True, nargs="+", metavar="JSON")
    p.add_argument("--all-semiroots", action="store_true")
    p.add_argument("--i", type=_integer)
    p.add_argument("--a", metavar="A1,A2,...")
    p.add_argument("--truncation", type=_integer)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("seed-corpus", help="write example and random curves")
    p.add_argument("--directory", default=".")
    p.add_argument("--count", type=_integer, default=5)
    p.add_argument("--seed", type=_integer, default=0)
    p.set_defaults(func=cmd_seed_corpus)

    for sp in sub.choices.values():
        sp.add_argument("--output", metavar="PATH",
                        help="write the JSON document here instead of stdout")
    return parser


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        ns = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        # an --output that can never be a file fails before any work
        if ns.output and (os.path.isdir(ns.output) or not os.path.isdir(
                os.path.dirname(os.path.abspath(ns.output)))):
            raise InputError("cannot write %s: it is a directory or its "
                             "directory is missing" % echo(ns.output))
        text = dumps(ns.func(ns))
        if ns.output:
            _write(ns.output, text)
    except VerificationFailure as exc:
        sys.stdout.write(dumps({"pass": False, "error": str(exc),
                                "report": verify_report_to_json(exc.report)}))
        return 2
    except CuspidalError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    if not ns.output:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
