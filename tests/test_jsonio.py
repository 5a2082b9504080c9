"""jsonio.dumps, the direct writer: json.dumps(indent=2)'s bytes and a line
break on every document the CLI emits, term tables included, a TypeError on
any type it never emits, each coefficient printed once per document, and no
cyclic garbage left behind."""

import fractions
import gc
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cuspidal.jsonio as jsonio
from cuspidal.cli import main
from cuspidal.corpus import (example_curve_5_11, example_curve_7_17,
                             example_form_4_9)
from cuspidal.jsonio import (basis_to_json, curve_to_json, delorme_to_json,
                             dumps, form_to_json, poly_to_json)
from cuspidal.rationals import Q, rat_to_str
from cuspidal.stdbasis import compute_standard_basis, delorme_decompose

CAP = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
# integers of up to CAP digits, either sign
BOUND = 10 ** CAP - 1

leaves = (st.text()
          | st.sampled_from(["\"", "\\", "\x00\x1f\x7f", "é ",
                             "\U0001f600", ""])
          | st.integers()
          | st.sampled_from([BOUND, -BOUND, 0])
          | st.booleans()
          | st.none())
documents = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(documents)
def test_writer_has_the_bytes_of_the_stdlib_indent_encoder(doc):
    assert dumps(doc) == json.dumps(doc, indent=2) + "\n"


def plain(doc):
    """doc with every term table as the [a, b, "c"] lists it stands for."""
    if type(doc) is jsonio._Terms:
        return [[a, b, rat_to_str(c)] for (a, b), c in doc]
    if type(doc) is list:
        return [plain(item) for item in doc]
    if type(doc) is dict:
        return {key: plain(item) for key, item in doc.items()}
    return doc


def coefficients(doc) -> list:
    """Every coefficient object of doc's term tables, in order."""
    if type(doc) is jsonio._Terms:
        return [c for _, c in doc]
    items = doc.values() if type(doc) is dict else doc
    return [c for item in items if type(item) in (list, dict, jsonio._Terms)
            for c in coefficients(item)]


def cli_documents(curve) -> dict:
    """The standard-basis, delorme and seed-corpus documents of curve."""
    basis = compute_standard_basis(curve)
    s = basis.s_index
    return {
        "standard-basis": basis_to_json(basis, [
            delorme_decompose(basis, i, j)
            for i in range(s + 1) for j in range(i + 1)]),
        "delorme": delorme_to_json(delorme_decompose(basis, s, 0)),
        "seed-corpus": [curve_to_json(curve),
                        form_to_json(example_form_4_9())],
    }


EXAMPLES = {"ex5_11": example_curve_5_11, "ex7_17": example_curve_7_17}


@pytest.mark.parametrize("command", ["standard-basis", "delorme",
                                     "seed-corpus"])
@pytest.mark.parametrize("example", sorted(EXAMPLES))
def test_term_tables_have_the_bytes_of_the_stdlib_encoder(example, command):
    doc = cli_documents(EXAMPLES[example]())[command]
    assert coefficients(doc)
    assert dumps(doc) == json.dumps(plain(doc), indent=2) + "\n"


# past the digit cap, so rat_to_str splits the numerator to print it
TALL = Q(-(10 ** (CAP + 5)) - 1, 7)
coefficient_values = (st.builds(Q, st.integers(), st.integers(1, 10 ** 30))
                      | st.sampled_from([Q(0), Q(-1), Q(-3, 2), TALL]))
tables = st.dictionaries(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                         coefficient_values, max_size=8)


@settings(max_examples=200, deadline=None)
@given(tables, tables)
def test_drawn_term_tables_have_the_bytes_of_the_stdlib_encoder(p, q):
    shared = {key: TALL for key in p}  # one object at several rows
    doc = {"dx": poly_to_json(p), "dy": poly_to_json(q),
           "levels": [poly_to_json(shared), [poly_to_json(p)], {}],
           "empty": poly_to_json({})}
    assert dumps(doc) == json.dumps(plain(doc), indent=2) + "\n"


def test_each_coefficient_is_printed_once_per_document(monkeypatch):
    doc = cli_documents(example_curve_7_17())["standard-basis"]
    distinct = len({id(c) for c in coefficients(doc)})
    # Delorme levels share their coefficient objects
    assert distinct < len(coefficients(doc))
    calls = []

    def counted(x):
        calls.append(x)
        return rat_to_str(x)

    monkeypatch.setattr(jsonio, "rat_to_str", counted)
    text = dumps(doc)
    assert len(calls) == distinct
    # the memo lives for one call: a second one prints them all again
    assert dumps(doc) == text
    assert len(calls) == 2 * distinct


@pytest.mark.parametrize("doc", [
    1.5, (1, 2), fractions.Fraction(1, 3), {1: "x"}, [{"k": [0.0]}],
    {None: 1},
], ids=["float", "tuple", "fraction", "int-key", "nested-float", "none-key"])
def test_writer_refuses_a_type_the_cli_never_emits(doc):
    with pytest.raises(TypeError):
        dumps(doc)


def test_writer_leaves_no_cyclic_garbage(capsys, tmp_path):
    assert main(["seed-corpus", "--directory", str(tmp_path), "--count",
                 "0", "--output", str(tmp_path / "manifest.json")]) == 0
    assert main(["standard-basis", "--curve",
                 str(tmp_path / "ex5_11.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    # the parsed document, and the one the command wrote, with term tables
    for doc in (doc, cli_documents(example_curve_5_11())["standard-basis"]):
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.garbage.clear()
            dumps(doc)
            gc.collect()
            left = len(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert left == 0
