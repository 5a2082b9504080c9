"""jsonio.dumps, the direct writer: json.dumps(indent=2)'s bytes and a line
break on every document the CLI emits, a TypeError on any type it never
emits, and no cyclic garbage left behind."""

import fractions
import gc
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspidal.cli import main
from cuspidal.jsonio import dumps

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
