"""Exact scalar arithmetic against Python's own Fraction/complex."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waringlab.scalars import (ONE, ZERO, Scalar, format_rational,
                               parse_rational)

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12)
scalars = st.builds(Scalar, rationals, rationals)


def as_sympy(s: Scalar):
    import sympy
    return sympy.Rational(s.re) + sympy.I * sympy.Rational(s.im)


def test_constants():
    assert ZERO.is_zero and ZERO.is_real
    assert ONE == Scalar.of(1)
    assert Scalar.of(Fraction(3, 6)) == Scalar.of(Fraction(1, 2))


def test_bool_is_nonzero():
    assert not ZERO and not Scalar() and not Scalar.of(0, 0)
    assert Scalar.of(Fraction(-1, 3))
    assert Scalar.of(0, Fraction(2, 5))
    assert Scalar.of(1, -1)


@given(scalars)
def test_bool_agrees_with_is_zero(z):
    assert bool(z) is not z.is_zero


def test_of_two_arguments():
    z = Scalar.of(Fraction(1, 2), 3)
    assert z.re == Fraction(1, 2) and z.im == 3
    assert not z.is_real
    assert z.field_tag == "GaussianRational"


def test_format_rational_always_has_denominator():
    assert format_rational(Fraction(3)) == "3/1"
    assert format_rational(Fraction(-7, 2)) == "-7/2"
    assert parse_rational("3/1") == 3
    assert parse_rational("-7/2") == Fraction(-7, 2)


def test_parse_rejects_non_strings():
    with pytest.raises(ValueError):
        parse_rational(3)  # type: ignore[arg-type]


def test_parse_accepts_only_signed_digits_over_digits():
    # Fraction reads the first three, and an exponent can cost 10**exp
    for text in ("1e3", "1.5", "1_0", "3/", "/2", "1/-2", "inf"):
        with pytest.raises(ValueError):
            parse_rational(text)
    assert parse_rational(" -7/2 ") == Fraction(-7, 2)
    assert parse_rational("+3") == 3


@settings(max_examples=60, deadline=None)
@given(scalars, scalars)
def test_mul_matches_sympy(a: Scalar, b: Scalar):
    import sympy
    got = a * b
    want = sympy.expand(as_sympy(a) * as_sympy(b))
    assert sympy.expand(as_sympy(got) - want) == 0


@settings(max_examples=150, deadline=None)
@given(scalars, scalars)
def test_add_sub_roundtrip(a: Scalar, b: Scalar):
    assert (a + b) - b == a
    assert a + b == b + a


@settings(max_examples=100, deadline=None)
@given(scalars)
def test_division_inverts(a: Scalar):
    if a.is_zero:
        with pytest.raises(ZeroDivisionError):
            ONE / a
    else:
        assert a * (ONE / a) == ONE
        assert (a / a) == ONE


@settings(max_examples=100, deadline=None)
@given(scalars, st.integers(min_value=0, max_value=6))
def test_powers_agree_with_repeated_product(a: Scalar, n: int):
    by_mul = ONE
    for _ in range(n):
        by_mul = by_mul * a
    assert a ** n == by_mul


def test_conjugate_and_norm():
    z = Scalar.of(2, 3)
    w = z * z.conjugate()
    assert w.is_real and w.re == 13


@settings(max_examples=100, deadline=None)
@given(scalars)
def test_json_roundtrip(a: Scalar):
    assert Scalar.from_json(a.to_json()) == a


def test_json_is_canonical_bytes():
    a = Scalar.of(Fraction(2, 4))
    b = Scalar.of(Fraction(1, 2))
    assert a.to_json() == b.to_json() == {"re": "1/2", "im": "0/1"}


def test_json_accepts_bare_rational_strings():
    assert Scalar.from_json("-3/2") == Scalar.of(Fraction(-3, 2))
    assert Scalar.from_json("7") == Scalar.of(7)
    with pytest.raises(ValueError):
        Scalar.from_json(7)
    with pytest.raises(ValueError):
        Scalar.from_json(["1/2"])


def test_sort_key_is_lexicographic_re_then_im():
    xs = [Scalar.of(1), Scalar.of(0, 1), Scalar.of(0), Scalar.of(0, -1)]
    xs.sort(key=lambda s: s.sort_key())
    assert xs == [Scalar.of(0, -1), Scalar.of(0), Scalar.of(0, 1),
                  Scalar.of(1)]
