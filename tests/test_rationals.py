import copy
import operator
import pickle
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Union

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyharm.rationals import GaussianRational, I, ONE, ZERO

from conftest import fractions, gaussian_rationals, nonzero_gaussian_rationals


def test_construction_and_normalization():
    q = GaussianRational(Fraction(2, 4), Fraction(-6, 4))
    assert q.re == Fraction(1, 2)
    assert q.im == Fraction(-3, 2)
    assert not q.is_zero()
    assert GaussianRational().is_zero()


def test_imaginary_unit_squares_to_minus_one():
    assert I * I == GaussianRational(Fraction(-1))


@given(gaussian_rationals(), nonzero_gaussian_rationals())
def test_add_then_subtract_is_identity(a, b):
    assert (a + b) - b == a


@given(gaussian_rationals(), nonzero_gaussian_rationals())
def test_multiply_then_divide_is_identity(a, b):
    assert (a * b) / b == a


@given(nonzero_gaussian_rationals())
def test_reciprocal(a):
    assert ONE / a * a == ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / GaussianRational()


def test_scalar_coercion_from_int_and_fraction():
    assert GaussianRational.coerce(3) == GaussianRational(Fraction(3))
    assert GaussianRational.coerce(Fraction(1, 2)).re == Fraction(1, 2)
    with pytest.raises(TypeError):
        GaussianRational.coerce(0.5)


def test_complex_conversion():
    assert complex(GaussianRational(Fraction(1, 2), Fraction(-3))) == 0.5 - 3j


# -- the integer kernel against the frozen-dataclass body it replaced ----------

ScalarLike = Union[int, Fraction, "RefGaussianRational"]


@dataclass(frozen=True)
class RefGaussianRational:
    """The previous kernel: two Fractions, each operation built from Fraction
    arithmetic.  Kept verbatim as the reference for the integer triples."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def coerce(value: ScalarLike) -> "RefGaussianRational":
        if isinstance(value, RefGaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return RefGaussianRational(Fraction(value))
        raise TypeError(f"cannot coerce {value!r} to a RefGaussianRational")

    @staticmethod
    def _try_coerce(value) -> "RefGaussianRational | None":
        try:
            return RefGaussianRational.coerce(value)
        except TypeError:
            return None

    def __add__(self, other: ScalarLike):
        o = RefGaussianRational._try_coerce(other)
        if o is None:
            return NotImplemented
        return RefGaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike):
        o = RefGaussianRational._try_coerce(other)
        if o is None:
            return NotImplemented
        return RefGaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: ScalarLike):
        o = RefGaussianRational._try_coerce(other)
        return NotImplemented if o is None else o - self

    def __neg__(self) -> "RefGaussianRational":
        return RefGaussianRational(-self.re, -self.im)

    def __mul__(self, other: ScalarLike):
        o = RefGaussianRational._try_coerce(other)
        if o is None:
            return NotImplemented
        return RefGaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "RefGaussianRational":
        o = RefGaussianRational.coerce(other)
        n = o.abs2()
        if n == 0:
            raise ZeroDivisionError("division by zero RefGaussianRational")
        return self * o.conjugate() * RefGaussianRational(Fraction(1, 1) / n)

    def __rtruediv__(self, other: ScalarLike):
        o = RefGaussianRational._try_coerce(other)
        return NotImplemented if o is None else o / self

    def conjugate(self) -> "RefGaussianRational":
        return RefGaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus, an exact non-negative rational."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"


def both(re, im):
    return GaussianRational(re, im), RefGaussianRational(re, im)


def outcome(fn):
    try:
        return fn()
    except ZeroDivisionError:
        return ZeroDivisionError


def assert_same(x, ref):
    """x (integer kernel) and ref (reference) hold one value, read alike."""
    if ref is ZeroDivisionError:
        assert x is ZeroDivisionError
        return
    assert type(x) is GaussianRational
    assert x.d > 0 and gcd(x.a, x.b, x.d) == 1  # normal form
    assert type(x.re) is Fraction and type(x.im) is Fraction
    assert (x.re, x.im) == (ref.re, ref.im)
    assert str(x) == str(ref)
    assert repr(x) == repr(ref).replace("RefGaussianRational", "GaussianRational")
    assert complex(x) == complex(ref)
    assert hash(x) == hash(ref)
    assert x.is_zero() == ref.is_zero() and bool(x) == bool(ref)


parts = st.tuples(
    st.one_of(fractions(), fractions(max_num=10**25, max_den=10**18)),
    st.one_of(st.just(Fraction(0)), fractions(), fractions(max_num=10**25, max_den=10**18)),
)
OPERATORS = (operator.add, operator.sub, operator.mul, operator.truediv)


@given(parts, parts)
def test_operations_match_reference(p, q):
    (x, rx), (y, ry) = both(*p), both(*q)
    assert_same(x, rx)
    for op in OPERATORS:
        assert_same(outcome(lambda: op(x, y)), outcome(lambda: op(rx, ry)))
    assert_same(-x, -rx)
    assert (x == y) == (rx == ry)
    assert (x != y) == (rx != ry)


@given(parts, st.one_of(st.integers(-60, 60), st.integers(), fractions()))
def test_int_and_fraction_operands_match_reference(p, k):
    x, rx = both(*p)
    for op in OPERATORS:
        assert_same(outcome(lambda: op(x, k)), outcome(lambda: op(rx, k)))
    for op in OPERATORS:  # the reflected operators
        assert_same(outcome(lambda: op(k, x)), outcome(lambda: op(k, rx)))
    assert_same(GaussianRational.coerce(k), RefGaussianRational.coerce(k))
    assert (x == k) is (rx == k) is False


@pytest.mark.parametrize("other", ["x", 0.5, None])
def test_non_scalar_operands_are_not_implemented(other):
    # Python then raises its own TypeError, never the "cannot coerce" of coerce
    x = GaussianRational(Fraction(1, 2), 3)
    for name in ("add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv"):
        assert getattr(x, f"__{name}__")(other) is NotImplemented
    for op in OPERATORS:
        for a, b in ((x, other), (other, x)):
            with pytest.raises(TypeError) as exc:
                op(a, b)
            assert "cannot coerce" not in str(exc.value)


def test_equal_values_built_differently_are_one_triple():
    q = GaussianRational
    pairs = [
        (q(2, 4) / 2, q(1, 2)),
        (q(Fraction(6, 4), 3) * 2, q(3, 6)),
        (q(1, 1) * q(1, -1), q(2)),
        (I * I, GaussianRational(Fraction(-1))),
        (q(Fraction(1, 3), Fraction(1, 6)) * 6, q(2, 1)),
        (q(1, 2) - q(1, 2), ZERO),
        (ONE / q(0, 1), -I),
        (q(Fraction(-5, 10), 0) * -2, ONE),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
        assert (x.a, x.b, x.d) == (y.a, y.b, y.d)
        assert str(x) == str(y) and repr(x) == repr(y)
    assert (ZERO.a, ZERO.b, ZERO.d) == (0, 0, 1)
    assert (ONE.a, ONE.b, ONE.d) == (1, 0, 1) and (I.a, I.b, I.d) == (0, 1, 1)


def test_equality_and_hash_semantics_are_kept():
    half = GaussianRational(Fraction(1, 2))
    assert GaussianRational(Fraction(1)) != 1
    assert not GaussianRational(Fraction(1)) == 1
    assert half != Fraction(1, 2)
    assert hash(half) == hash((Fraction(1, 2), Fraction(0)))
    assert {half: 1}[GaussianRational(2, 0) / 4] == 1


@pytest.mark.parametrize("divisor", [ZERO, 0, Fraction(0), GaussianRational(0, 0)])
def test_zero_divisor_raises(divisor):
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1, 2) / divisor


def test_instances_are_immutable():
    x = GaussianRational(Fraction(1, 2), 3)
    for name in ("re", "im", "a", "b", "d", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 7)
    with pytest.raises(AttributeError):
        del x.a
    assert x == GaussianRational(Fraction(1, 2), 3)
    assert pickle.loads(pickle.dumps(x)) == x
    assert copy.deepcopy(x) == x
