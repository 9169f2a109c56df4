"""Homogeneous forms with exact coefficients.

A HomogeneousForm of degree d in num_vars variables is a sparse map from
exponent tuples (e_0, ..., e_{num_vars-1}) with sum d to nonzero Scalars.
The monomial order is fixed once and for all: graded lexicographic, which for
a single degree block means plain lexicographic descending, so x0^d comes
first and x_{n-1}^d last.  Every coefficient vector in the package is aligned
to this order.

The package expands forms in two ways, both on Gaussian integers (pairs
of ints), so no Fraction enters an expansion:

- gaussian_power expands the d-th power of a linear form whose
  coefficients are Gaussian integers, by the multinomial theorem;
  spans.power_row caches these rows for the primitive integer
  representatives of points, and linalg eliminates them as they are.
- substitution_rows is the one table for pushing forms through a
  polynomial substitution x_i -> images_i(t).  One common L clears the
  images' denominators, and the table holds the products of the cleared
  images together with their scale L^d.  The curve power bases in spans
  keep the table's rows and scale; substitute (the conic check in
  spans.parametrize_conic, the GL2 transplants in factory) sums the rows
  against a form's coefficients and divides by the scale once per entry.

HomogeneousForm.combination likewise sums Gaussian-integer rows, such as
power rows and power-basis pieces, against Scalar coefficients: the
coefficients are cleared once and each entry is divided once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Sequence

from . import linalg
from .linalg import GInt
from .scalars import ONE, ZERO, Scalar, parse_int, parse_list

Exponent = tuple[int, ...]


@lru_cache(maxsize=None)
def monomial_exponents(num_vars: int, degree: int) -> tuple[Exponent, ...]:
    """All exponent tuples of the given total degree, lexicographic descending."""
    if num_vars <= 0:
        raise ValueError("num_vars must be positive")
    if num_vars == 1:
        return ((degree,),)
    out: list[Exponent] = []
    for e in range(degree, -1, -1):
        for rest in monomial_exponents(num_vars - 1, degree - e):
            out.append((e,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def multinomial(degree: int, exps: Exponent) -> int:
    """d! / (e_0! * ... * e_k!) for sum(exps) == degree."""
    out = 1
    remaining = degree
    for e in exps:
        out *= math.comb(remaining, e)
        remaining -= e
    return out


@dataclass(frozen=True, eq=False)
class HomogeneousForm:
    num_vars: int
    degree: int
    coeffs: Mapping[Exponent, Scalar] = field(default_factory=dict)

    # coeffs never stores zeros; from_coeff_map is the canonicalizing door.

    @staticmethod
    def from_coeff_map(num_vars: int, degree: int,
                       coeffs: Mapping[Exponent, Scalar]) -> "HomogeneousForm":
        clean: dict[Exponent, Scalar] = {}
        for exp, c in coeffs.items():
            exp = tuple(exp)
            if len(exp) != num_vars or any(e < 0 for e in exp) or sum(exp) != degree:
                raise ValueError(f"bad exponent {exp} for degree {degree}")
            if not c.is_zero:
                clean[exp] = c
        return HomogeneousForm(num_vars, degree, clean)

    @staticmethod
    def from_coeff_vector(num_vars: int, degree: int,
                          vec: Sequence[Scalar]) -> "HomogeneousForm":
        exps = monomial_exponents(num_vars, degree)
        if len(vec) != len(exps):
            raise ValueError("coefficient vector has wrong length")
        return HomogeneousForm.from_coeff_map(
            num_vars, degree, dict(zip(exps, vec)))

    @staticmethod
    def combination(num_vars: int, degree: int, coeffs: Sequence[Scalar],
                    rows: Sequence[Sequence[GInt]]) -> "HomogeneousForm":
        """sum coeff * row over Gaussian-integer coefficient rows, such as
        spans.power_row, read as a form."""
        if len(coeffs) != len(rows):
            raise ValueError("need one coefficient per vector")
        width = len(monomial_exponents(num_vars, degree))
        if any(len(row) != width for row in rows):
            raise ValueError("coefficient vector has wrong length")
        return HomogeneousForm.from_coeff_vector(
            num_vars, degree, linalg._combine(coeffs, rows, width))

    # -- basic structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_real(self) -> bool:
        return all(c.is_real for c in self.coeffs.values())

    def coeff(self, exp: Exponent) -> Scalar:
        return self.coeffs.get(tuple(exp), ZERO)

    def coeff_vector(self) -> tuple[Scalar, ...]:
        return tuple(self.coeffs.get(e, ZERO)
                     for e in monomial_exponents(self.num_vars, self.degree))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomogeneousForm):
            return NotImplemented
        return (self.num_vars == other.num_vars
                and self.degree == other.degree
                and dict(self.coeffs) == dict(other.coeffs))

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "HomogeneousForm") -> None:
        if self.num_vars != other.num_vars or self.degree != other.degree:
            raise ValueError("forms live in different spaces")

    def __add__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        self._check_compatible(other)
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            out[exp] = out.get(exp, ZERO) + c
        return HomogeneousForm.from_coeff_map(self.num_vars, self.degree, out)

    def scale(self, factor: Scalar) -> "HomogeneousForm":
        if factor.is_zero:
            return HomogeneousForm(self.num_vars, self.degree)
        return HomogeneousForm(
            self.num_vars, self.degree,
            {e: c * factor for e, c in self.coeffs.items()})

    def canonical(self) -> "HomogeneousForm":
        """Projective representative: first nonzero coefficient scaled to 1."""
        for exp in monomial_exponents(self.num_vars, self.degree):
            c = self.coeffs.get(exp)
            if c is not None:
                return self.scale(ONE / c)
        return self

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        terms = []
        for exp in monomial_exponents(self.num_vars, self.degree):
            c = self.coeffs.get(exp)
            if c is not None:
                terms.append({"exp": list(exp), **c.to_json()})
        return {"m": self.num_vars - 1, "d": self.degree, "terms": terms}

    @staticmethod
    def from_json(obj: dict) -> "HomogeneousForm":
        num_vars = parse_int(obj, "m") + 1
        degree = parse_int(obj, "d")
        coeffs = {}
        for t in parse_list(obj["terms"], "'terms'"):
            exp = t["exp"]
            if type(exp) is not list or any(type(e) is not int for e in exp):
                raise ValueError(f"'exp' must list integers, got {exp!r}")
            coeffs[tuple(exp)] = Scalar.from_json(t)
        return HomogeneousForm.from_coeff_map(num_vars, degree, coeffs)


def gaussian_powers(z: GInt, degree: int) -> list[GInt]:
    """z^0, z^1, ..., z^degree for a Gaussian integer z = (re, im)."""
    a, b = z
    table = [(1, 0)]
    for _ in range(degree):
        x, y = table[-1]
        table.append((x * a - y * b, x * b + y * a))
    return table


def gaussian_power(z: Sequence[tuple[int, int]],
                   degree: int) -> tuple[tuple[int, int], ...]:
    """Coefficients of (sum z_i x_i)^degree, all pairs (re, im) of ints.

    By the multinomial theorem: one table z_i^0..z_i^degree per coordinate,
    and per monomial one product of table entries and its multinomial
    coefficient, skipping imaginary parts where both factors are real.
    """
    tables = [gaussian_powers(c, degree) for c in z]
    out = []
    for exp in monomial_exponents(len(z), degree):
        re, im = multinomial(degree, exp), 0
        for table, e in zip(tables, exp):
            if e:
                a, b = table[e]
                if im or b:
                    re, im = re * a - im * b, re * b + im * a
                else:
                    re *= a
        out.append((re, im))
    return tuple(out)


def _gpoly_mul(a: Sequence[GInt], b: Sequence[GInt]) -> list[GInt]:
    """Product of two polynomials with Gaussian-integer coefficients."""
    out_re, out_im = [0] * (len(a) + len(b) - 1), [0] * (len(a) + len(b) - 1)
    for i, (ar, ai) in enumerate(a):
        if not (ar or ai):
            continue
        for j, (br, bi) in enumerate(b, i):
            if br or bi:
                out_re[j] += ar * br - ai * bi
                out_im[j] += ar * bi + ai * br
    return list(zip(out_re, out_im))


def substitution_rows(images: Sequence[Sequence[Scalar]],
                      degree: int) -> tuple[list[list[GInt]], int]:
    """t-coefficients of prod_i images[i](t)^e_i, one row per monomial x^e,
    in Gaussian integers, and their scale.

    images[i] is the image of x_i as a coefficient list in t (ascending);
    all images share one length k + 1, and every row is padded to length
    degree*k + 1.  Rows follow monomial_exponents(len(images), degree).
    One common L clears every image's denominators, and the cleared
    images are multiplied out on (re, im) int pairs: the rows are L^degree
    times the true ones, and L^degree is the scale returned with them.
    Like gaussian_power, each coordinate gets one table of powers, so
    every monomial costs one product of table entries.
    """
    lengths = {len(image) for image in images}
    if len(lengths) != 1:
        raise ValueError("images must share one length")
    size = lengths.pop()
    width = degree * (size - 1) + 1
    flat, lcm = linalg._clear([c for image in images for c in image])
    tables = []
    for i in range(len(images)):
        image = flat[i * size:(i + 1) * size]
        table = [[(1, 0)]]
        for _ in range(degree):
            table.append(_gpoly_mul(table[-1], image))
        tables.append(table)
    rows = []
    for exp in monomial_exponents(len(images), degree):
        row = None
        for table, e in zip(tables, exp):
            if e:
                row = table[e] if row is None else _gpoly_mul(row, table[e])
        row = row or [(1, 0)]
        rows.append(row + [(0, 0)] * (width - len(row)))
    return rows, lcm ** degree


def substitute(form: HomogeneousForm,
               images: Sequence[Sequence[Scalar]]) -> list[Scalar]:
    """t-coefficients of form(images(t)): sum_e F_e * row_e / scale."""
    if len(images) != form.num_vars:
        raise ValueError("need one image per variable")
    rows, scale = substitution_rows(images, form.degree)
    return linalg._combine(form.coeff_vector(), rows, len(rows[0]), scale)
