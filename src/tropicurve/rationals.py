"""Exact rational scalars and their two-sided extension by infinity.

All lengths, offsets and coordinate values in this package are
:class:`fractions.Fraction` instances (arbitrary precision, stored reduced
with positive denominator).  Coordinates of points in a tropical toric space
additionally admit the values +inf and -inf; those are modelled by
:class:`ExtRational`, a thin tagged wrapper.

Serialization uses decimal-free strings: "p/q" (or "p" when q == 1),
"+inf", "-inf".
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import ParseError

RatLike = Union[Fraction, int, str]


def rat(value: RatLike) -> Fraction:
    """Coerce ints and "p/q" strings to Fraction.  Floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rat(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def parse_rat(text: str) -> Fraction:
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            denominator = int(den)
            if denominator == 0:
                raise ParseError(f"zero denominator in rational {text!r}")
            return Fraction(int(num), denominator)
        return Fraction(int(text))
    except ValueError as exc:
        raise ParseError(f"malformed rational {text!r}") from exc


def format_rat(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class ExtRational:
    """A rational number, +inf, or -inf.

    Instances are immutable and hashable.  ``sign`` is -1, 0, +1 for
    -inf, finite, +inf respectively; ``value`` is the Fraction for finite
    instances and None otherwise.
    """

    __slots__ = ("sign", "value")

    def __init__(self, sign: int, value: Fraction | None = None):
        if sign == 0:
            if value is None:
                raise ValueError("finite ExtRational needs a value")
            object.__setattr__(self, "value", rat(value))
        else:
            if sign not in (-1, 1):
                raise ValueError("sign must be -1, 0 or +1")
            object.__setattr__(self, "value", None)
        object.__setattr__(self, "sign", sign)

    def __setattr__(self, name, val):  # pragma: no cover - immutability guard
        raise AttributeError("ExtRational is immutable")

    @staticmethod
    def finite(value: RatLike) -> "ExtRational":
        return ExtRational(0, rat(value))

    @property
    def is_finite(self) -> bool:
        return self.sign == 0

    def _key(self):
        # (-1, 0), finite -> (0, value), (+1, 0)
        return (self.sign, self.value if self.sign == 0 else Fraction(0))

    def __eq__(self, other):
        if not isinstance(other, ExtRational):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"ExtRational({format_ext(self)!r})"


PLUS_INF = ExtRational(+1)
MINUS_INF = ExtRational(-1)


def format_ext(value: ExtRational) -> str:
    if value.sign > 0:
        return "+inf"
    if value.sign < 0:
        return "-inf"
    return format_rat(value.value)
