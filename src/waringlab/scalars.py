"""Exact scalars: rationals and Gaussian rationals.

A Scalar is re + im*i held as one Gaussian-integer numerator over one
denominator, (a + b*i) / d with ints a, b, d > 0 and gcd(a, b, d) == 1, the
shape of univariate.Interval.  So + - * / take a few int products and one
gcd and build no Fraction; re and im are Fraction views.  Nothing here ever
rounds a Scalar to a float.  Scalars with im == 0 report field_tag
"Rational", everything else reports "GaussianRational".

Serialization uses canonical strings "p/q" with q >= 1 and gcd(|p|, q) == 1,
so equal scalars always serialize to identical bytes.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Union

ScalarLike = Union["Scalar", int, Fraction]

# Fraction itself also reads decimals, underscores and exponents, and an
# exponent such as "1e999999999" would build a huge integer.
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
MAX_LITERAL = 10_000

# Primes p = 4q + 1 with q prime, each paired with a square root s of -1
# (2 is a non-residue because p = 5 mod 8).  Sending re + im*i to re + im*s
# is a ring map from the p-integral Gaussian rationals onto F_p.
_CERT_PRIMES = tuple((p, pow(2, (p - 1) // 4, p))
                     for p in (1000003157, 2305843009213694597))


def format_rational(q: Fraction) -> str:
    """Canonical "p/q" string, always with an explicit denominator."""
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse [+-]?digits(/digits)?, after strip(), into a Fraction."""
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {type(text).__name__}")
    if len(text) > MAX_LITERAL:
        raise ValueError(f"a rational literal of {len(text)} characters "
                         f"exceeds the limit of {MAX_LITERAL}")
    text = text.strip()
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"rational must read [+-]digits[/digits], got {text!r}")
    return Fraction(text)


def parse_int(obj: dict, key: str) -> int:
    """obj[key], which must be a JSON integer: neither a float nor a bool."""
    value = obj[key]
    if type(value) is not int:
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return value


def parse_list(value, what: str) -> list:
    """value, which must be a JSON array, not a string or an object."""
    if type(value) is not list:
        raise ValueError(f"{what} must be a JSON array, "
                         f"got {type(value).__name__}")
    return value


def _scalar(a: int, b: int, d: int) -> "Scalar":
    """(a + b*i) / d from ints already in lowest terms with d > 0."""
    z = object.__new__(Scalar)
    z.a, z.b, z.d = a, b, d
    return z


def gaussian(a: int, b: int = 0, d: int = 1) -> "Scalar":
    """(a + b*i) / d for ints with d != 0, in lowest terms."""
    g = gcd(a, b, d) if d > 0 else -gcd(a, b, d)
    return _scalar(a // g, b // g, d // g)


class Scalar:
    """re + im*i held as (a + b*i) / d: ints a, b and d > 0 with
    gcd(a, b, d) == 1, so zero is (0, 0, 1) and equality is on the ints.

    A Scalar is immutable by contract: nothing assigns a, b or d after
    construction, as hashes and the cached keys of points and curves rely
    on them.  Slots without a raising __setattr__ keep construction at
    plain attribute stores on the arithmetic path."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0) -> None:
        (p, q), (r, s) = re.as_integer_ratio(), im.as_integer_ratio()
        d = q * s // gcd(q, s)
        # each part in lowest terms over the lcm leaves gcd(a, b, d) == 1
        self.a, self.b, self.d = p * (d // q), r * (d // s), d

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(value: ScalarLike, imag: ScalarLike | None = None) -> "Scalar":
        if imag is not None:
            a, b = Scalar.of(value), Scalar.of(imag)
            if a.b or b.b:
                raise ValueError("Scalar.of(re, im) expects rational parts")
            return gaussian(a.a * b.d, b.a * a.d, a.d * b.d)
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            n, d = value.as_integer_ratio()
            return _scalar(n, 0, d)
        raise ValueError(f"cannot coerce {value!r} to Scalar")

    @staticmethod
    def from_json(obj) -> "Scalar":
        # a bare "p/q" string is accepted as a real value
        if isinstance(obj, str):
            return Scalar(parse_rational(obj))
        if not isinstance(obj, dict):
            raise ValueError(f"cannot read a scalar from {obj!r}")
        return Scalar(parse_rational(obj["re"]), parse_rational(obj.get("im", "0")))

    def to_json(self) -> dict:
        g, h = gcd(self.a, self.d), gcd(self.b, self.d)
        return {"re": f"{self.a // g}/{self.d // g}",
                "im": f"{self.b // h}/{self.d // h}"}

    # -- views and predicates ----------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    @property
    def is_zero(self) -> bool:
        return not (self.a or self.b)

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    @property
    def is_real(self) -> bool:
        return self.b == 0

    @property
    def field_tag(self) -> str:
        return "Rational" if self.b == 0 else "GaussianRational"

    def __eq__(self, o: object) -> bool:
        if not isinstance(o, Scalar):
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: ScalarLike) -> "Scalar":
        o = other if type(other) is Scalar else Scalar.of(other)
        d, e = self.d, o.d
        g = gcd(d, e)
        if g == 1:
            return _scalar(self.a * e + o.a * d, self.b * e + o.b * d, d * e)
        # as for Fraction, only the primes of g can divide the result
        s, t = e // g, d // g
        a, b = self.a * s + o.a * t, self.b * s + o.b * t
        h = gcd(a, b, g)
        return _scalar(a // h, b // h, d * s // h)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "Scalar":
        return self + -(other if type(other) is Scalar else Scalar.of(other))

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return Scalar.of(other) - self

    def __neg__(self) -> "Scalar":
        return _scalar(-self.a, -self.b, self.d)

    def __mul__(self, other: ScalarLike) -> "Scalar":
        o = other if type(other) is Scalar else Scalar.of(other)
        a, b, c, e = self.a, self.b, o.a, o.b
        return gaussian(a * c - b * e, a * e + b * c, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        o = other if type(other) is Scalar else Scalar.of(other)
        a, b, c, e = self.a, self.b, o.a, o.b
        if not e:
            if not c:
                raise ZeroDivisionError("division by zero Scalar")
            return gaussian(a * o.d, b * o.d, self.d * c)
        return gaussian((a * c + b * e) * o.d, (b * c - a * e) * o.d,
                        self.d * (c * c + e * e))

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        return Scalar.of(other) / self

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return ONE / (self ** (-n))
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "Scalar":
        return _scalar(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """Squared absolute value, an exact rational."""
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    # -- ordering (for deterministic output only, not a field order) -------

    def sort_key(self) -> tuple[Fraction, Fraction]:
        return (self.re, self.im)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        im = f", {self.im}i" if self.b else ""
        return f"Scalar({self.re}{im})"


ZERO = _scalar(0, 0, 1)
ONE = _scalar(1, 0, 1)
