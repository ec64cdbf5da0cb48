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

# Python limits int <-> decimal string conversion to
# sys.get_int_max_str_digits() digits, 4300 by default, 0 (no limit) or
# at least 640 when set. Ints of up to _CHUNK digits convert under any
# setting; longer ones are converted here in pieces of at most _CHUNK
# digits, so that every Rational written can be read back, whatever the
# interpreter's limit, without changing it.
_CHUNK = 600
_CHUNK_BITS = 1993  # 2**1993 < 10**600


def _to_int(digits: str) -> int:
    """int(digits) for an optionally signed decimal literal of any length."""
    if len(digits) <= _CHUNK:
        return int(digits)
    if digits[0] == "-":
        return -_to_int(digits[1:])
    half = len(digits) // 2
    return _to_int(digits[:-half]) * 10**half + _to_int(digits[-half:])


def _to_decimal(k: int) -> str:
    """str(k) for an int of any size."""
    if k.bit_length() <= _CHUNK_BITS:
        return str(k)
    if k < 0:
        return "-" + _to_decimal(-k)
    # About half of k's digits: bit length times log10(2) / 2.
    half = k.bit_length() * 1505 // 10000
    high, low = divmod(k, 10**half)
    return _to_decimal(high) + _to_decimal(low).zfill(half)


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
    to_int = int if len(text) <= _CHUNK else _to_int
    num = to_int(match.group(1))
    if match.group(2) is None:
        return Rational(num)
    den = to_int(match.group(2))
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    if den < 0:
        raise ValueError(f"denominator must be positive: {text!r}")
    return Rational(num, den)


def format_rational(value) -> str:
    """Canonical string form: lowest terms, ``num/den``, integers as ``k``."""
    value = rat(value)
    try:
        return str(value)
    except ValueError:  # more digits than the interpreter converts
        num, den = value.numerator, value.denominator
        return _to_decimal(num) if den == 1 else f"{_to_decimal(num)}/{_to_decimal(den)}"


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
    # Another exact rational type: it exposes numerator and denominator.
    num = getattr(value, "numerator", None)
    denom = getattr(value, "denominator", None)
    if num is not None and denom is not None:
        return Rational(int(num), int(denom))
    raise TypeError(f"cannot make an exact rational from {type(value).__name__}")
