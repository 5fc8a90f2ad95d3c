"""Helpers for exact rational values at package boundaries.

Values enter the package as ints, Fractions or "p/q" strings; floats are
rejected on input so that every comparison stays exact. An int is kept as
it is; `as_fraction` reads the rest. From there on values are integers over
a common denominator: a cost table's numerators (`game.CostTable`), a
compiled game's scaled tables (`game.CompiledGame`). A value leaving the
package becomes `Fraction(value, scale)`, or is written by `format_scaled`
without one.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import GameFileError


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to a Fraction.

    Floats are refused: they would silently break exactness guarantees.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rational values")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise GameFileError(f"bad rational literal {value!r}") from exc
    raise TypeError(f"expected int, Fraction, or 'p/q' string, got {type(value).__name__}")


def format_rational(value: Fraction):
    """Render a Fraction as a JSON-friendly value: int when integral, else "p/q"."""
    return format_scaled(value.numerator, value.denominator)


def format_scaled(numerator: int, scale: int):
    """`format_rational(Fraction(numerator, scale))` for `scale >= 1`,
    without building the Fraction."""
    if numerator % scale == 0:
        return numerator // scale
    g = math.gcd(numerator, scale)
    return f"{numerator // g}/{scale // g}"
