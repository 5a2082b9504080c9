"""Canonical JSON encoding of curves, forms, bases and reports.

Rationals travel as strings ("p/q", lowest terms, sign on the numerator)
so no JSON consumer can round them.  Objects are built with a fixed key
order and dumped without sorting, which makes every emission byte
deterministic.  dumps writes json.dumps(indent=2)'s bytes directly, its
leaves through the C string encoder and int.__repr__, with no cyclic
garbage.  poly_to_json hands it a table's sorted terms as one leaf kind,
written a row at a time; each coefficient's text is made once per dumps
call, memoised by object identity in a dict that lives for that call
alone.  Parsers are strict: an unknown key is an error, not a warning,
because silently ignored input has burned us before.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

from .errors import InputError
from .forms import OneForm, is_basic, nu_E_form
from .rationals import (OverDigitCap, cut, echo, is_int, rat_from_str,
                        rat_to_str)
from .semigroup import PuiseuxPair, copair
from .series import PuiseuxCurve

__all__ = [
    "InputError", "dumps", "semimodule_to_json",
    "curve_to_json", "parse_curve", "form_to_json", "parse_form",
    "poly_to_json", "y_to_json", "basis_to_json", "delorme_to_json",
    "semiroot_to_json", "verify_report_to_json", "dicritical_to_json",
]


_LEAVES = {str: encode_basestring_ascii, int: int.__repr__,
           bool: lambda b: "true" if b else "false",
           type(None): lambda _: "null"}


class _Terms(list):
    """A term table's sorted ((a, b), c) items, written as the list of
    [a, b, "c"] entries."""
    __slots__ = ()


def dumps(obj) -> str:
    """json.dumps(obj, indent=2)'s bytes and a line break, written by
    direct recursion into one list of chunks: the stdlib takes its
    pure-Python encoder whenever indent is given."""
    chunks = []
    _emit(obj, chunks, "\n", "", {})
    chunks.append("\n")
    return "".join(chunks)


def _emit(obj, out: list, newline: str, head: str, texts: dict) -> None:
    """Append head and obj's chunks to out; newline is a line break and
    obj's indent, texts the coefficient texts written so far, by id (obj
    keeps each coefficient alive, so no id is reused).  Types dispatch
    exactly, so a bool is never an int; a type the CLI never emits (a
    float, a tuple, a non-str key) raises TypeError."""
    kind = type(obj)
    leaf = _LEAVES.get(kind)
    if leaf is not None:
        out.append(head + leaf(obj))
        return
    if kind is _Terms:
        i1 = newline + "  "
        i2 = i1 + "  "
        row = "[" + i2 + "%d," + i2 + "%d," + i2 + "\"%s\"" + i1 + "]"
        rows = []
        for (a, b), c in obj:
            text = texts.get(id(c))
            if text is None:
                text = texts[id(c)] = rat_to_str(c)
            rows.append(row % (a, b, text))
        out.append(head + ("[" + i1 + ("," + i1).join(rows) + newline + "]"
                           if rows else "[]"))
        return
    if kind is not list and kind is not dict:
        raise TypeError("%s is not written as JSON" % kind.__name__)
    if not obj:
        out.append(head + ("[]" if kind is list else "{}"))
        return
    inner = newline + "  "
    sep = head + ("[" if kind is list else "{") + inner
    for item in obj:
        if kind is dict:
            if type(item) is not str:
                raise TypeError("JSON keys are str, not %s"
                                % type(item).__name__)
            sep += encode_basestring_ascii(item) + ": "
            item = obj[item]
        _emit(item, out, inner, sep, texts)
        sep = "," + inner
    out.append(newline + ("]" if kind is list else "}"))


def _require_keys(obj: dict, allowed, required, what: str):
    if not isinstance(obj, dict):
        raise InputError("%s must be a JSON object" % what)
    for key in obj:
        if key not in allowed:
            raise InputError("unknown field %s in %s" % (echo(key), what))
    for key in required:
        if key not in obj:
            raise InputError("missing field %r in %s" % (key, what))


def _parse_pair(n, m) -> PuiseuxPair:
    if not (is_int(n) and is_int(m)):
        raise InputError("pair entries must be integers")
    try:
        return PuiseuxPair(n, m)
    except InputError as exc:
        raise InputError("invalid Puiseux pair (%s, %s): %s"
                         % (cut(n), cut(m), exc)) from None


def y_to_json(curve: PuiseuxCurve) -> list:
    """The parametrization y(t) as [exponent, "coefficient"] entries."""
    return [[k, rat_to_str(v)] for k, v in sorted(curve.y.coeffs.items())]


def curve_to_json(curve: PuiseuxCurve) -> dict:
    return {
        "n": curve.pair.n,
        "m": curve.pair.m,
        "y": y_to_json(curve),
        "truncation": curve.trunc,
    }


def parse_curve(obj, trunc_override: int = None) -> PuiseuxCurve:
    """The curve of a JSON object; PuiseuxCurve enforces the cusp rules,
    the truncation's type among them."""
    _require_keys(obj, ("n", "m", "y", "truncation"), ("n", "m", "y"),
                  "curve object")
    pair = _parse_pair(obj["n"], obj["m"])
    coeffs = _parse_entries(obj["y"], "y", ("exponent",))
    trunc = obj.get("truncation") if trunc_override is None else trunc_override
    return PuiseuxCurve(pair, coeffs, trunc)


def _shown(entry: list) -> str:
    """An entry, or its exponents, as in a refusal: the list's repr with
    every exponent and the coefficient text cut to 20 characters."""
    return "[%s]" % ", ".join(echo(e) if isinstance(e, str) else cut(e)
                              for e in entry)


def _parse_entries(entries, what: str, exponents: tuple) -> dict:
    """The [exponent, ..., "coefficient"] entries of y or of dx and dy.

    `exponents` names the integer exponents of one entry: ("exponent",)
    for y, ("a", "b") for a form.  The table is keyed by the exponent, or
    by the tuple of exponents when there are several.
    """
    k = len(exponents)
    shape = '[%s, "coefficient"]' % ", ".join(exponents)
    if not isinstance(entries, list):
        raise InputError("%s must be a list of %s entries" % (what, shape))
    table = {}
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == k + 1
                and all(is_int(e) for e in entry[:k])
                and isinstance(entry[k], str)):
            raise InputError("%s entries must be %s with integer exponents"
                             % (what, shape))
        key = entry[0] if k == 1 else tuple(entry[:k])
        if min(entry[:k]) < 0:
            raise InputError("negative exponent in %s entry %s"
                             % (what, _shown(entry)))
        if key in table:
            raise InputError("duplicate exponent in %s entry %s"
                             % (what, _shown(entry)))
        try:
            table[key] = rat_from_str(entry[k])
        except OverDigitCap as exc:
            raise InputError("unreadable coefficient in %s entry at %s: %s"
                             % (what, _shown(entry[:k]), exc)) from None
        except InputError:
            raise InputError("unreadable coefficient in %s entry %s"
                             % (what, _shown(entry))) from None
    return table


def form_to_json(omega: OneForm) -> dict:
    return {
        "pair": [omega.pair.n, omega.pair.m],
        "dx": poly_to_json(omega.A),
        "dy": poly_to_json(omega.B),
    }


def parse_form(obj) -> OneForm:
    _require_keys(obj, ("pair", "dx", "dy"), ("pair",), "form object")
    if not (isinstance(obj["pair"], list) and len(obj["pair"]) == 2):
        raise InputError("form pair must be [n, m]")
    pair = _parse_pair(*obj["pair"])
    return OneForm(pair,
                   A=_parse_entries(obj.get("dx", []), "dx", ("a", "b")),
                   B=_parse_entries(obj.get("dy", []), "dy", ("a", "b")))


def poly_to_json(table: dict) -> list:
    """A {(a, b): c} term table as [a, b, "c"] entries, held as its sorted
    items until dumps writes them."""
    terms = _Terms(table.items())
    terms.sort()
    return terms


def delorme_to_json(dec) -> dict:
    return {
        "i": dec.i,
        "j": dec.j,
        "k": dec.distinguished_index,
        "vij": dec.vij,
        "coefficients": [poly_to_json(f.coeffs) for f in dec.coefficients],
    }


def semimodule_to_json(sm) -> dict:
    """lambda, t (null unless the basis starts with n, m) and u."""
    return {
        "lambda": list(sm.basis),
        "t": list(sm.critical_orders) if sm.critical_orders else None,
        "u": list(sm.axes),
    }


def basis_to_json(basis, decompositions) -> dict:
    return {
        **semimodule_to_json(basis.semimodule),
        "forms": [form_to_json(basis.form(i))
                  for i in range(-1, basis.s_index + 1)],
        "adjusted_form": form_to_json(basis.form(basis.s_index + 1)),
        "delorme": [delorme_to_json(d) for d in decompositions],
    }


def semiroot_to_json(sr) -> dict:
    return {
        "i": sr.index,
        "a": rat_to_str(sr.parameter),
        "parametrization": y_to_json(sr.curve),
        "semimodule": list(sr.semimodule.basis),
    }


def verify_report_to_json(report: dict) -> dict:
    return {**report, "checks": [{"name": name, "pass": good}
                                 for name, good in report["checks"].items()]}


def dicritical_to_json(omega: OneForm, verdict) -> dict:
    return {
        "pair": [omega.pair.n, omega.pair.m],
        "nu_E": nu_E_form(omega),
        "copair": list(copair(omega.pair)),
        "vertex": list(verdict.vertex) if verdict.vertex is not None else None,
        "basic": is_basic(omega),
        "resonant": verdict.combinatorial,
        "combinatorial": verdict.combinatorial,
        "geometric": verdict.geometric,
        "totally_dicritical": verdict.combinatorial and verdict.geometric,
        "multiplicities": list(verdict.multiplicities),
    }
