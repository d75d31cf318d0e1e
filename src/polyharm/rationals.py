"""Exact scalar arithmetic: rationals and Gaussian rationals.

Every symbolic coefficient in the toolkit is a :class:`GaussianRational`,
a complex number whose real and imaginary parts are exact arbitrary
precision rationals.  There is no floating point anywhere in the symbolic
layer, so equality of coefficients is a decision procedure, not a
tolerance.

A value is stored as three Python integers ``(a, b, d)`` meaning
``(a + b*i) / d``, always in the normal form ``d > 0`` and
``math.gcd(a, b, d) == 1`` (so zero is ``(0, 0, 1)``).  The normal form is
unique, so two values are equal exactly when their triples are.  Each
operation costs a few integer multiplications and one gcd, with shorter
paths for a real operand (``b == 0``) and an ``int`` factor.  The real and
imaginary parts are read as ``fractions.Fraction`` through ``re`` and
``im``.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import gcd
from typing import Union

from .errors import UsageError

ScalarLike = Union[int, Fraction, "GaussianRational"]


class GaussianRational:
    """Complex number with exact rational real and imaginary parts.

    ``a``, ``b`` and ``d`` are the integers of the normal form.  Instances
    are immutable: assigning an attribute raises FrozenInstanceError.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        re, im = Fraction(re), Fraction(im)
        p, q = re.denominator, im.denominator
        d = p * q // gcd(p, q)  # both parts reduced, so the triple is normal
        _set_a(self, re.numerator * (d // p))
        _set_b(self, im.numerator * (d // q))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    @staticmethod
    def coerce(value: ScalarLike) -> "GaussianRational":
        o = _operand(value)
        if o is None:
            raise TypeError(f"cannot coerce {value!r} to a GaussianRational")
        return o

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other: ScalarLike):
        if (o := _operand(other)) is None:
            return NotImplemented
        return _sum(self.a, self.b, self.d, o.a, o.b, o.d)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike):
        if (o := _operand(other)) is None:
            return NotImplemented
        return _sum(self.a, self.b, self.d, -o.a, -o.b, o.d)

    def __rsub__(self, other: ScalarLike):
        return (-self).__add__(other)

    def __neg__(self) -> "GaussianRational":
        return _make(-self.a, -self.b, self.d)

    def __mul__(self, other: ScalarLike):
        a, b, d = self.a, self.b, self.d
        if type(other) is int:
            g = gcd(other, d)  # gcd(a*k, b*k, d) == gcd(k, d) in normal form
            k = other // g
            return _make(a * k, b * k, d // g)
        if (o := _operand(other)) is None:
            return NotImplemented
        c, e, f = o.a, o.b, o.d
        if e == 0:
            if b == 0:
                n, m = a * c, d * f
                g = gcd(n, m)
                return _make(n // g, 0, m // g)
            return _reduced(a * c, b * c, d * f)
        if b == 0:
            return _reduced(a * c, a * e, d * f)
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike):
        if (o := _operand(other)) is None:
            return NotImplemented
        c, e, f = o.a, o.b, o.d
        if e == 0:
            if c == 0:
                raise ZeroDivisionError("division by zero GaussianRational")
            if c < 0:
                c, f = -c, -f
            return _reduced(self.a * f, self.b * f, self.d * c)
        # (a + bi)/d / ((c + ei)/f) = f (a + bi)(c - ei) / (d (c^2 + e^2))
        a, b = self.a * f, self.b * f
        return _reduced(a * c + b * e, b * c - a * e, self.d * (c * c + e * e))

    def __rtruediv__(self, other: ScalarLike):
        return NotImplemented if (o := _operand(other)) is None else o / self

    def is_zero(self) -> bool:
        return not (self.a or self.b)

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __complex__(self) -> complex:
        # int / int rounds correctly, so this equals float() of each part
        return complex(self.a / self.d, self.b / self.d)

    def signed_text(self) -> tuple[bool, str]:
        """(negative sign extracted, magnitude text).

        Fully complex values are parenthesised and never carry an outer
        sign, so the printed form always re-parses.
        """
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return a < 0, _ratio_text(abs(a), d)
        if a == 0:
            return b < 0, _ratio_text(abs(b), d) + "i"
        sign = "+" if b > 0 else "-"
        return False, f"({_ratio_text(a, d)}{sign}{_ratio_text(abs(b), d)}i)"

    def __str__(self) -> str:
        negative, text = self.signed_text()
        return "-" + text if negative else text


_new = object.__new__
_set_a = GaussianRational.a.__set__
_set_b = GaussianRational.b.__set__
_set_d = GaussianRational.d.__set__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """A value from a triple already in normal form."""
    r = _new(GaussianRational)
    _set_a(r, a)
    _set_b(r, b)
    _set_d(r, d)
    return r


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """A value from any triple with d > 0."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _make(a, b, d)


def _sum(a: int, b: int, d: int, c: int, e: int, f: int) -> GaussianRational:
    """(a + bi)/d + (c + ei)/f."""
    if d == f:
        if d == 1:
            return _make(a + c, b + e, 1)
        return _reduced(a + c, b + e, d)
    return _reduced(a * f + c * d, b * f + e * d, d * f)


def _operand(value) -> GaussianRational | None:
    if type(value) is GaussianRational:
        return value
    if isinstance(value, int):
        return _make(int(value), 0, 1)
    if isinstance(value, Fraction):
        return _make(value.numerator, 0, value.denominator)
    return None


def _ratio_text(n: int, d: int) -> str:
    """n/d in lowest terms, printed the way ``str(Fraction(n, d))`` is."""
    if d != 1:
        g = gcd(n, d)
        n, d = n // g, d // g
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise UsageError("coefficient has too many digits to print") from None


ZERO = _make(0, 0, 1)
ONE = _make(1, 0, 1)
I = _make(0, 1, 1)
