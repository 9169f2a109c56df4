"""Exact scalars: rationals and Gaussian rationals.

A Scalar is a pair (re, im) of `fractions.Fraction` values representing
re + im*i.  All arithmetic is exact; nothing in this package ever rounds a
Scalar to a float.  Scalars with im == 0 behave as plain rationals and report
field_tag "Rational", everything else reports "GaussianRational".

Serialization uses canonical strings "p/q" with q >= 1 and gcd(|p|, q) == 1,
so equal scalars always serialize to identical bytes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

_ZERO_F = Fraction(0)
_ONE_F = Fraction(1)

ScalarLike = Union["Scalar", int, Fraction]

# Fraction itself also reads decimals, underscores and exponents, and an
# exponent such as "1e999999999" would build a huge integer.
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
MAX_LITERAL = 10_000

# Primes p = 4q + 1 with q prime, each paired with a square root s of -1
# (2 is a non-residue because p = 5 mod 8).  Sending re + im*i to re + im*s
# is a ring map from the p-integral Gaussian rationals onto F_p.  As
# gcd(r, p - 1) <= 4 whenever 4 < r < q, no binomial t^r - c with c != 0 of
# such a degree splits mod p, which is the shape of a monomial's kernel.
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


@dataclass(frozen=True)
class Scalar:
    re: Fraction = _ZERO_F
    im: Fraction = _ZERO_F

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(value: ScalarLike, imag: ScalarLike | None = None) -> "Scalar":
        if imag is not None:
            a = Scalar.of(value)
            b = Scalar.of(imag)
            if not (a.im == 0 and b.im == 0):
                raise ValueError("Scalar.of(re, im) expects rational parts")
            return Scalar(a.re, b.re)
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(Fraction(value))
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
        return {"re": format_rational(self.re), "im": format_rational(self.im)}

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    @property
    def is_real(self) -> bool:
        return self.im == 0

    @property
    def field_tag(self) -> str:
        return "Rational" if self.im == 0 else "GaussianRational"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: ScalarLike) -> "Scalar":
        o = Scalar.of(other)
        if o.re == 0 and o.im == 0:
            return self
        if self.re == 0 and self.im == 0:
            return o
        return Scalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "Scalar":
        o = Scalar.of(other)
        return Scalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return Scalar.of(other) - self

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im)

    def __mul__(self, other: ScalarLike) -> "Scalar":
        o = Scalar.of(other)
        if self.im == 0 and o.im == 0:
            return Scalar(self.re * o.re)
        return Scalar(self.re * o.re - self.im * o.im,
                      self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        o = Scalar.of(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar((self.re * o.re + self.im * o.im) / n,
                      (self.im * o.re - self.re * o.im) / n)

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
        return Scalar(self.re, -self.im)

    def norm(self) -> Fraction:
        """Squared absolute value, an exact rational."""
        return self.re * self.re + self.im * self.im

    # -- ordering (for deterministic output only, not a field order) -------

    def sort_key(self) -> tuple[Fraction, Fraction]:
        return (self.re, self.im)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.im == 0:
            return f"Scalar({self.re})"
        return f"Scalar({self.re}, {self.im}i)"


ZERO = Scalar()
ONE = Scalar(_ONE_F)
