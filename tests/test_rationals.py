"""Rational backend plumbing: parsing, formatting, coercion."""

import random
from fractions import Fraction

import pytest

from ceub.rationals import BACKEND, ONE, ZERO, Rational, format_rational, parse_rational, rat


def test_backend_is_a_known_choice():
    assert BACKEND == "fractions"
    assert Rational is Fraction
    assert ZERO == 0
    assert ONE == 1


def test_parse_basic_forms():
    assert parse_rational("3/4") == rat(3, 4)
    assert parse_rational("7") == 7
    assert parse_rational("-9/8") == rat(-9, 8)
    assert parse_rational("0") == 0
    assert parse_rational("6/8") == rat(3, 4)  # normalized to lowest terms


@pytest.mark.parametrize(
    "bad",
    ["", "a", "1.5", "1/2/3", " 1/2", "1/2 ", "+3", "3/+4", "1//2", "/2", "2/", "1/2\n", "3\n"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_parse_rejects_bad_denominators():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")
    with pytest.raises(ValueError, match="positive"):
        parse_rational("1/-2")


def test_parse_rejects_non_strings():
    with pytest.raises(ValueError):
        parse_rational(5)


def test_format_is_canonical():
    assert format_rational(rat(3, 4)) == "3/4"
    assert format_rational(rat(8, 4)) == "2"
    assert format_rational(7) == "7"
    assert format_rational(rat(-1, 3)) == "-1/3"
    assert format_rational(rat(0, 9)) == "0"


def test_format_parse_round_trip_random():
    rng = random.Random(421)
    for _ in range(300):
        num = rng.randrange(-10**6, 10**6)
        den = rng.randrange(1, 10**6)
        value = rat(num, den)
        assert parse_rational(format_rational(value)) == value


def test_literals_beyond_the_str_limit_round_trip():
    # Python converts ints of at most 4300 digits to and from str by
    # default; a 4301-digit literal, and its negative over a 4301-digit
    # denominator, still round-trip exactly.
    rng = random.Random(4301)
    num = rng.randrange(10**4300, 10**4301)
    den = rng.randrange(10**4300, 10**4301) | 1
    for value in (Rational(num), Rational(-num, den), Rational(den, 10**4300)):
        text = format_rational(value)
        assert parse_rational(text) == value
        assert format_rational(parse_rational(text)) == text
    literal = format_rational(Rational(num))
    assert len(literal) == 4301
    assert int(literal[:600]) == num // 10**3701 and int(literal[-600:]) == num % 10**600


def test_rat_coercions():
    assert rat(3) == 3
    assert rat(1, 2) * 2 == 1
    assert rat("2/3") == rat(2, 3)
    assert rat(rat(5, 7)) == rat(5, 7)
    assert rat(Fraction(2, 6)) == rat(1, 3)
    half = rat(1, 2)
    assert rat(half) is half  # already a Rational: returned as is


def test_rat_reads_other_rational_types():
    # Any exact rational exposing numerator and denominator, such as
    # gmpy2.mpq, converts to a Rational in lowest terms.
    class Ratio:
        numerator, denominator = 4, 6

    value = rat(Ratio())
    assert type(value) is Rational
    assert (value.numerator, value.denominator) == (2, 3)


def test_rat_rejects_inexact_and_nonsense():
    with pytest.raises(TypeError):
        rat(1.5)
    with pytest.raises(TypeError):
        rat(True)
    with pytest.raises(TypeError):
        rat(1, True)
    with pytest.raises(TypeError):
        rat("1/2", 3)
    with pytest.raises(TypeError):
        rat(rat(1, 2), 3)
    with pytest.raises(TypeError):
        rat(object())
    with pytest.raises(ZeroDivisionError):
        rat(1, 0)


def test_arithmetic_is_exact():
    third = rat(1, 3)
    assert third + third + third == 1
    assert rat(1, 10) + rat(2, 10) == rat(3, 10)
    assert isinstance(third / rat(7, 5), type(Rational(0)))
