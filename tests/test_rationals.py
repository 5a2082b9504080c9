"""The canonical text form of rationals, the one the JSON documents use."""

import pytest

from cuspidal.rationals import Q, rat, rat_from_str, rat_to_str


def test_text_form_of_ints_and_rationals():
    cases = [(5, "5"), (0, "0"), (-7, "-7"), (rat(-11), "-11"),
             (rat(23, 22), "23/22"), (rat(-1, 3), "-1/3"), (Q(6, -4), "-3/2")]
    for x, text in cases:
        assert rat_to_str(x) == text
        assert rat_from_str(text) == x


def test_text_form_tolerates_whitespace():
    assert rat_from_str(" -3 / 4\n") == rat(-3, 4)
    assert rat_from_str("+5") == 5


@pytest.mark.parametrize("text", ["1_000", "١٢", "１２",
                                  "3/-4", "3/+4", "", "3/", "/4", "1.5",
                                  "1e3", "- 3", "3 4", "0x10"])
def test_text_outside_the_grammar_is_refused(text):
    # int() alone would read the first five as 1000, 12, 12, -3/4 and 3/4
    with pytest.raises(ValueError):
        rat_from_str(text)
