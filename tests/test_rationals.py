"""The canonical text form of rationals, the one the JSON documents use."""

from cuspidal.rationals import Q, rat, rat_from_str, rat_to_str


def test_text_form_of_ints_and_rationals():
    cases = [(5, "5"), (0, "0"), (-7, "-7"), (rat(-11), "-11"),
             (rat(23, 22), "23/22"), (rat(-1, 3), "-1/3"), (Q(6, -4), "-3/2")]
    for x, text in cases:
        assert rat_to_str(x) == text
        assert rat_from_str(text) == x
