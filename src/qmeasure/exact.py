"""Exact scalars: rational parsing, and the exact (real, imag) value at the boundary.

Every numeric quantity in this package is an exact rational.  Preclusion is
the predicate ``measure == 0`` and approximate preclusion is ``measure < eps``;
both are meaningless under floating point, so floats are rejected at every
boundary instead of being silently converted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction


# integers and "p/q", q nonzero, skip Fraction's parser, which doubles a table load
_INTEGER_RATIO = re.compile(r"[+-]?[0-9]+(?:/0*[1-9][0-9]*)?")

#: Largest exponent read, as in "1e-3": Fraction writes the power of ten out in full.
MAX_EXPONENT = 1000


def rational_parts(value) -> tuple[int, int]:
    """An exact rational as ``(numerator, denominator)``, the denominator
    positive but not always in lowest terms, from an int, a Fraction, or a
    string: ``[+-]digits[/digits]`` (denominator nonzero) is read with
    ``int``, any other spelling ("0.001", "1e-3", exponents up to
    ``MAX_EXPONENT``) by ``Fraction``.  Decimal strings are exact; floats
    are rejected because their binary value is not what was written."""
    # strings first: the isinstance test against the Fraction ABC is slow
    if type(value) is not str:
        if isinstance(value, bool):
            raise TypeError("booleans are not rationals")
        if isinstance(value, (int, Fraction)):
            return value.as_integer_ratio()
        if not isinstance(value, str):
            raise TypeError(f"expected int, Fraction, or 'p/q' string, got {type(value).__name__}")
    text = value.strip()
    try:
        if _INTEGER_RATIO.fullmatch(text):
            num, _, den = text.partition("/")
            return int(num), int(den or 1)
        _, marker, exponent = text.lower().rpartition("e")
        if marker and abs(int(exponent)) > MAX_EXPONENT:
            raise ValueError(f"exponent beyond {MAX_EXPONENT}")
        return Fraction(text).as_integer_ratio()
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {value!r}") from exc


def parse_rational(value) -> Fraction:
    """Parse an exact rational, spelled as ``rational_parts`` accepts."""
    return value if isinstance(value, Fraction) else Fraction(*rational_parts(value))


def format_rational(value: Fraction) -> str:
    """Render a rational as "p/q" (or "p" for integers)."""
    return str(value)


def ceil_rational(value: Fraction) -> int:
    """Least integer greater than or equal to ``value``."""
    return -((-value.numerator) // value.denominator)


@dataclass(frozen=True)
class ComplexRational:
    """The exact (real, imag) value of a decoherence entry at the boundary,
    as ``decoherence_value`` returns it and ``from_decoherence`` accepts it."""

    real: Fraction
    imag: Fraction

    @classmethod
    def of(cls, real, imag=0) -> "ComplexRational":
        return cls(parse_rational(real), parse_rational(imag))

    def __add__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(self.real + other.real, self.imag + other.imag)

    def __repr__(self) -> str:
        return f"({self.real}{'+' if self.imag >= 0 else ''}{self.imag}i)"
