"""Exact rational arithmetic.

Everything in this package computes over exact rationals; floats are
rejected at every boundary. The number type is ``fractions.Fraction``,
and BACKEND names it. The hot loops (the simplex, the demand
certificate, the settle check) run on Python ints read from the
numerators and denominators, and build Rationals only for results.
"""

import re
from fractions import Fraction as Rational

BACKEND = "fractions"

ZERO = Rational(0)
ONE = Rational(1)

# A rational literal: optionally signed integer, optionally over an
# integer denominator, matched against the whole text (fullmatch: "$"
# would also match before a final newline). Denominator sign and zero
# are checked separately so the error can say what is actually wrong.
_LITERAL = re.compile(r"(-?[0-9]+)(?:/(-?[0-9]+))?")


def parse_rational(text: str):
    """Parse a ``num/den`` (or plain integer) string into a Rational.

    Accepts any well-formed literal and normalizes it to lowest terms;
    zero or negative denominators and anything non-numeric are errors.
    """
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {type(text).__name__}")
    match = _LITERAL.fullmatch(text)
    if match is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(match.group(1))
    if match.group(2) is None:
        return Rational(num)
    den = int(match.group(2))
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    if den < 0:
        raise ValueError(f"denominator must be positive: {text!r}")
    return Rational(num, den)


def format_rational(value) -> str:
    """Canonical string form: lowest terms, ``num/den``, integers as ``k``."""
    return str(rat(value))


def rat(value, den=None):
    """Coerce to Rational. Ints, literal strings, and rationals of any
    type with int numerator and denominator are accepted; floats never
    are."""
    if type(value) is Rational and den is None:
        return value
    if den is not None:
        if isinstance(value, bool) or isinstance(den, bool):
            raise TypeError("bool is not a rational component")
        if not isinstance(value, int) or not isinstance(den, int):
            raise TypeError("two-argument form takes integers")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        return Rational(value, den)
    if isinstance(value, bool):
        raise TypeError("bool is not a rational")
    if isinstance(value, int):
        return Rational(value)
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, Rational):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass a string, int, or rational")
    # Another exact rational type (gmpy2.mpq, say): it exposes
    # numerator and denominator.
    num = getattr(value, "numerator", None)
    denom = getattr(value, "denominator", None)
    if num is not None and denom is not None:
        return Rational(int(num), int(denom))
    raise TypeError(f"cannot make an exact rational from {type(value).__name__}")
