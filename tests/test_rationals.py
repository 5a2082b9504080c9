"""The canonical text form of rationals, the one the JSON documents use."""

import random
import sys

import pytest

from cuspidal.rationals import (OverDigitCap, Q, cut, echo, int_from_str,
                                rat, rat_from_str, rat_to_str)

from oracles import no_digit_cap


def test_text_form_of_ints_and_rationals():
    cases = [(5, "5"), (0, "0"), (-7, "-7"), (rat(-11), "-11"),
             (rat(23, 22), "23/22"), (rat(-1, 3), "-1/3"), (Q(6, -4), "-3/2")]
    for x, text in cases:
        assert rat_to_str(x) == text
        assert rat_from_str(text) == x


def test_text_form_tolerates_whitespace():
    assert rat_from_str(" -3 / 4\n") == rat(-3, 4)
    assert rat_from_str("+5") == 5
    # integer text is the same grammar without the denominator
    assert [int_from_str(text) for text in ("7", " -3\n", "+5", "0012")] \
        == [7, -3, 5, 12]
    with pytest.raises(ValueError):
        int_from_str("5/1")


@pytest.mark.parametrize("text", ["1_000", "١٢", "１２",
                                  "3/-4", "3/+4", "", "3/", "/4", "1.5",
                                  "1e3", "- 3", "3 4", "0x10"])
def test_text_outside_the_grammar_is_refused(text):
    # int() alone would read the first five as 1000, 12, 12, -3/4 and 3/4
    with pytest.raises(ValueError):
        rat_from_str(text)
    with pytest.raises(ValueError):
        int_from_str(text)


def test_text_of_any_height_round_trips():
    # past the interpreter's digit cap (4300 by default from CPython 3.11)
    # str refuses; rat_to_str still prints, and its text reads back
    rng = random.Random(5)
    big = [10 ** 6000 + 7, -(10 ** 5001), rng.getrandbits(40000) | 1,
           (10 ** 9000 - 1) // 9 * 7]
    cases = [Q(big[0], 3), Q(big[1], big[2]), Q(big[3]),
             Q(-big[2], 10 ** 4400)]
    for x in cases:
        text = rat_to_str(x)
        with no_digit_cap():
            assert text == ("%d" % x.numerator if x.denominator == 1
                            else "%d/%d" % (x.numerator, x.denominator))
            assert rat_from_str(text) == x
        assert len(text) > 5000


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no digit cap before CPython 3.11")
def test_text_over_the_digit_cap_is_refused_by_name():
    with pytest.raises(ValueError, match="digit cap"):
        rat_from_str("1/" + "3" * (sys.get_int_max_str_digits() + 1))
    with pytest.raises(OverDigitCap, match="digit cap"):
        int_from_str("3" * (sys.get_int_max_str_digits() + 1))


def test_refusals_cut_text_and_ints_of_any_height_to_twenty_characters():
    # an int past the digit cap, which str() refuses, is cut too
    assert cut("x" * 20) == "x" * 20
    assert cut("x" * 21) == cut("x" * 5000) == "x" * 20 + "..."
    assert cut(-(10 ** 5000)) == "-1" + "0" * 18 + "..."
    assert cut(12345) == "12345" and cut(True) == "1"
    assert echo("x" * 21) == repr("x" * 20 + "...")


def test_cut_shows_any_other_number_as_it_is():
    # a rational in canonical text at any height, anything else by repr:
    # a refusal that echoes a caller's float truncates nothing and keeps
    # its own type
    assert cut(Q(19, 2)) == "19/2" and cut(9.5) == "9.5"
    assert cut(Q(10 ** 5000, 3)) == "1" + "0" * 19 + "..."
    assert cut([5] * 10) == "[5, 5, 5, 5, 5, 5, 5..."
