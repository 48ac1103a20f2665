from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeasure.exact import (
    MAX_EXPONENT, ComplexRational, ceil_rational, format_rational, parse_rational, rational_parts,
)


def test_parse_rational_forms():
    assert parse_rational(3) == Fraction(3)
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-5/7") == Fraction(-5, 7)
    assert parse_rational(" 2 ") == Fraction(2)
    assert parse_rational("0.001") == Fraction(1, 1000)
    assert parse_rational(Fraction(1, 3)) == Fraction(1, 3)


def test_parse_rational_rejects_floats_and_junk():
    with pytest.raises(TypeError):
        parse_rational(0.5)
    with pytest.raises(TypeError):
        parse_rational(True)
    with pytest.raises(ValueError):
        parse_rational("a/b")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def _fraction_outcome(text):
    """The value ``Fraction`` reads from the stripped string, or ValueError."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        return ValueError


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # the class is the outcome
        return type(exc)


def _assert_parses_as_fraction(text):
    expected = _fraction_outcome(text)
    assert _outcome(parse_rational, text) == expected
    assert _outcome(lambda s: Fraction(*rational_parts(s)), text) == expected


SPELLINGS = (
    "3/4", "+3/4", "-3/4", " 3/4 ", "\t-5/7\n", "007", "-007/010", "0/5", "-0", "+0",
    "1/0", "1/00", "-0/0", "3/-4", "3 / 4", "3/ 4", "1_000", "1_0/3", "0.001", "-.5", "5.",
    "1e-3", "2E+2", "1.5/2", "a/b", "", " ", "/", "1/", "/2", "--1", "+-1", "0x10",
    "\u0663/4",
)


def test_parser_matches_fraction_on_named_spellings():
    for text in SPELLINGS:
        _assert_parses_as_fraction(text)


def test_parser_refuses_long_exponents_up_front():
    for text in (f"1e{MAX_EXPONENT}", f"-3.5E-{MAX_EXPONENT}", f"2e+{MAX_EXPONENT}"):
        _assert_parses_as_fraction(text)
    # Fraction would write out a hundred-million-digit power of ten
    for text in (f"1e{MAX_EXPONENT + 1}", f"1E-{MAX_EXPONENT + 1}", "1e-99999999", "7e99_999_999"):
        with pytest.raises(ValueError, match="not a rational"):
            parse_rational(text)


# exponents stay within MAX_EXPONENT, where the parser defers to Fraction
@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(alphabet=" \t+-/._0123456789", max_size=12),
    st.from_regex(r"\s?[+-]?[0-9]{1,6}(/[+-]?[0-9]{0,6})?\s?", fullmatch=True),
    st.from_regex(r"\s?[+-]?[0-9_]{0,4}(\.[0-9_]{0,3})?([eE][+-]?[0-9]{1,2})?\s?", fullmatch=True),
))
def test_parser_matches_fraction(text):
    _assert_parses_as_fraction(text)


def test_format_round_trip():
    for text in ("3/4", "-2", "0", "17/5"):
        assert format_rational(parse_rational(text)) == text


def test_ceil_rational():
    assert ceil_rational(Fraction(3, 125)) == 1
    assert ceil_rational(Fraction(7, 1)) == 7
    assert ceil_rational(Fraction(-1, 2)) == 0
    assert ceil_rational(Fraction(5, 2)) == 3


def test_complex_arithmetic():
    a = ComplexRational.of(1, 2)
    b = ComplexRational.of("1/2", "-1/3")
    assert (a + b).real == Fraction(3, 2)
    assert (a + b).imag == Fraction(5, 3)
    assert repr(b) == "(1/2-1/3i)"
    assert repr(ComplexRational.of(0)) == "(0+0i)"
