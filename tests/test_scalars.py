"""Exact scalar arithmetic against Python's own Fraction/complex."""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waringlab import linalg
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


# -- against a reference on Fraction pairs ------------------------------------

wide = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                    max_denominator=10 ** 4)
any_scalars = st.one_of(scalars, st.builds(Scalar, rationals),
                        st.builds(Scalar, st.just(0), rationals),
                        st.builds(Scalar, wide, wide))
small_ints = st.integers(-10 ** 4, 10 ** 4)
gints = st.tuples(small_ints, small_ints)


def ref(z: Scalar) -> tuple[Fraction, Fraction]:
    return (z.re, z.im)


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def assert_canonical(z: Scalar) -> None:
    assert all(type(v) is int for v in (z.a, z.b, z.d))
    assert z.d > 0 and math.gcd(z.a, z.b, z.d) == 1
    if z.is_zero:
        assert (z.a, z.b, z.d) == (0, 0, 1)


@settings(max_examples=300, deadline=None)
@given(any_scalars, any_scalars)
def test_arithmetic_matches_fraction_pairs(x: Scalar, y: Scalar):
    rx, ry = ref(x), ref(y)
    for got, want in ((x + y, (rx[0] + ry[0], rx[1] + ry[1])),
                      (x - y, (rx[0] - ry[0], rx[1] - ry[1])),
                      (x * y, ref_mul(rx, ry)),
                      (-x, (-rx[0], -rx[1])),
                      (x.conjugate(), (rx[0], -rx[1])),
                      (x + y.re, (rx[0] + ry[0], rx[1])),
                      (3 * x, (3 * rx[0], 3 * rx[1])),
                      (1 - x, (1 - rx[0], -rx[1]))):
        assert_canonical(got)
        assert ref(got) == want
    if y.is_zero:
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        assert_canonical(x / y)
        assert ref(x / y) == ref_div(rx, ry)
        assert ref(2 / y) == ref_div((2, 0), ry)
    if y.re:
        assert ref(x / y.re) == (rx[0] / ry[0], rx[1] / ry[0])
    assert x.norm() == rx[0] ** 2 + rx[1] ** 2
    assert type(x.norm()) is Fraction


@settings(max_examples=150, deadline=None)
@given(scalars, st.integers(min_value=-5, max_value=5))
def test_powers_match_fraction_pairs(x: Scalar, n: int):
    if x.is_zero and n < 0:
        with pytest.raises(ZeroDivisionError):
            x ** n
        return
    want = (Fraction(1), Fraction(0))
    for _ in range(abs(n)):
        want = ref_mul(want, ref(x)) if n > 0 else ref_div(want, ref(x))
    got = x ** n
    assert_canonical(got)
    assert ref(got) == want


@settings(max_examples=200, deadline=None)
@given(any_scalars, any_scalars)
def test_equality_is_by_value_and_hash_follows(x: Scalar, y: Scalar):
    assert (x == y) is (ref(x) == ref(y))
    for same in (Scalar(x.re, x.im), (x + y) - y, Scalar.of(x.re, x.im)):
        assert same == x and hash(same) == hash(x)


def test_constructor_accepts_int_and_fraction_parts():
    for z in (Scalar(3), Scalar(3, 0), Scalar(Fraction(6, 2)),
              Scalar(Fraction(6, 2), Fraction(0, 5))):
        assert (z.a, z.b, z.d) == (3, 0, 1)
    z = Scalar(Fraction(1, 6), Fraction(-3, 4))
    assert (z.a, z.b, z.d) == (2, -9, 12)
    assert (Scalar().a, Scalar().b, Scalar().d) == (0, 0, 1)


@settings(max_examples=100, deadline=None)
@given(st.lists(any_scalars, max_size=8))
def test_sort_key_orders_as_fraction_pairs(xs):
    assert ([ref(z) for z in sorted(xs, key=Scalar.sort_key)]
            == sorted(ref(z) for z in xs))


@settings(max_examples=200, deadline=None)
@given(any_scalars)
def test_json_bytes_are_lowest_terms_and_round_trip(x: Scalar):
    re, im = ref(x)
    text = json.dumps(x.to_json())
    assert text == json.dumps({"re": f"{re.numerator}/{re.denominator}",
                               "im": f"{im.numerator}/{im.denominator}"})
    back = Scalar.from_json(json.loads(text))
    assert back == x
    assert_canonical(back)


@settings(max_examples=150, deadline=None)
@given(st.lists(any_scalars, max_size=6))
def test_clear_matches_fraction_pairs(row):
    ints, lcm = linalg._clear(row)
    parts = [v for z in row for v in ref(z)]
    assert lcm == math.lcm(*(v.denominator for v in parts))
    assert ints == [(int(re * lcm), int(im * lcm))
                    for re, im in map(ref, row)]
    assert all(type(v) is int for pair in ints for v in pair)


@settings(max_examples=200, deadline=None)
@given(gints, gints)
def test_quotient_matches_fraction_pairs(a, b):
    if b == (0, 0):
        return
    z = linalg._quotient(a, b)
    assert_canonical(z)
    assert ref(z) == ref_div(tuple(map(Fraction, a)), tuple(map(Fraction, b)))


def test_arithmetic_builds_no_fraction(monkeypatch):
    """A structural guard, with no timing: the int representation is the
    point of the class, so + - * / and the linalg readers count zero
    Fraction constructions."""
    xs = [Scalar(Fraction(3, 4), Fraction(-5, 6)), Scalar.of(7),
          Scalar(0, Fraction(2, 9)), Scalar(Fraction(-1, 10)),
          Scalar(Fraction(5, 6), Fraction(5, 6))]
    built = []
    real_new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    for x, y in itertools.product(xs, repeat=2):
        x + y, x - y, x * y, x / y, -x, x.conjugate(), x ** 3, x ** -2
        x + 1, 2 * x, x / 3, x == y, hash(x), bool(x), x.is_real
    linalg._clear(xs)
    linalg._quotient((3, -4), (6, 2))
    linalg._quotient((3, -4), (-6, 0))
    assert built == []
    Fraction(1, 2)
    assert built == [(1, 2)]
