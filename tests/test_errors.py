"""The one cap check: a refusal carries its exact numbers and prints them,
in decimal below the interpreter's digit limit and as a power of ten past it."""

import math

import pytest

from symbreak.autsearch import automorphism_group
from symbreak.colourings import DEFAULT_COLOUR_CAP, distinguishing_probability_exact
from symbreak.errors import CapExceededError, check_cap
from symbreak.graphs import path_graph, star_graph
from symbreak.groups import DEFAULT_ENUMERATION_CAP
from symbreak.topology import ExhaustionSequence, ball_decomposition, expected_stabiliser_measure


def test_a_count_above_the_cap_raises_with_both_numbers():
    check_cap(5, 5, "{required} over {cap}")
    with pytest.raises(CapExceededError) as info:
        check_cap(6, 5, "{required} over {cap}")
    assert str(info.value) == "6 over 5"
    assert (info.value.required, info.value.cap) == (6, 5)


def test_numbers_past_the_digit_limit_print_as_a_power_of_ten(digit_limit):
    with pytest.raises(CapExceededError) as info:
        check_cap(10**700 + 1, 10**640 - 1, "{required} over {cap}")
    # 10^640 - 1 has 640 digits, the most the limit prints
    assert str(info.value) == f"at least 10^640 over {10**640 - 1}"
    assert (info.value.required, info.value.cap) == (10**700 + 1, 10**640 - 1)


def star_balls(g):
    """K_{1,320}'s balls at its last level: one per element, 320! of them."""
    return ball_decomposition(automorphism_group(g), ExhaustionSequence.balls(g, 0), 2)


@pytest.mark.parametrize(
    "call, g, required, cap, message",
    [
        (distinguishing_probability_exact, path_graph(2200), 2**2200, DEFAULT_COLOUR_CAP,
         "at least 10^640 colourings exceed cap 1048576"),
        (expected_stabiliser_measure, path_graph(2200), 2**2200, DEFAULT_COLOUR_CAP,
         "at least 10^640 colourings exceed cap 1048576"),
        (lambda g: automorphism_group(g).elements(), star_graph(320), math.factorial(320),
         DEFAULT_ENUMERATION_CAP, "group order at least 10^640 exceeds enumeration cap 1000000"),
        (star_balls, star_graph(320), math.factorial(320), DEFAULT_ENUMERATION_CAP,
         "at least 10^640 balls exceed the cap 1000000"),
    ],
    ids=["prob-exact P2200", "haar P2200", "elements K1,320", "balls K1,320"],
)
def test_counts_past_the_digit_limit_refuse_as_caps(digit_limit, call, g, required, cap, message):
    with pytest.raises(CapExceededError) as info:
        call(g)
    assert str(info.value) == message
    assert (info.value.required, info.value.cap) == (required, cap)
