import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from unikirch.rational import format_rational, parse_rational

rationals = st.fractions(
    min_value=-(10**9), max_value=10**9, max_denominator=10**6
)


def test_parse_examples():
    assert parse_rational("655/8") == Fraction(655, 8)
    assert parse_rational("-0/5") == Fraction(0)
    assert format_rational(parse_rational("-0/5")) == "0"
    assert parse_rational("+3/6") == Fraction(1, 2)
    assert parse_rational(" 42 ") == Fraction(42)


def test_format_examples():
    assert format_rational(Fraction(34, 3)) == "34/3"
    assert format_rational(Fraction(160, 3)) == "160/3"
    assert format_rational(Fraction(5, 1)) == "5"
    assert format_rational(Fraction(-7, 2)) == "-7/2"


@pytest.mark.parametrize("bad", ["", "1/0", "abc", "1.5", "1/-2", "3/", "/4", "1 2"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@given(rationals)
def test_representation_invariants(x):
    assert x.denominator > 0
    assert math.gcd(abs(x.numerator), x.denominator) == 1
    assert parse_rational(format_rational(x)) == x


def test_round_trip_large_values():
    rng = random.Random(20240810)
    bound = 2**128
    for _ in range(10_000):
        num = rng.randrange(-bound, bound + 1)
        den = rng.randrange(1, bound)
        x = Fraction(num, den)
        assert parse_rational(format_rational(x)) == x
