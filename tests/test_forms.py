"""Multivariate forms: coefficient bookkeeping against sympy expansion."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
import sympy

from waringlab.forms import (HomogeneousForm, monomial_exponents,
                             multinomial, substitute)
from waringlab.scalars import ONE, ZERO, Scalar

X = sympy.symbols("x0 x1 x2 x3")
T = sympy.Symbol("t")


@dataclass(frozen=True)
class LinearForm:
    """A nonzero linear form in canonical projective scale."""

    coeffs: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        lead = next((c for c in self.coeffs if not c.is_zero), None)
        if lead is None:
            raise ValueError("linear form must be nonzero")
        if lead != ONE:
            object.__setattr__(
                self, "coeffs", tuple(c / lead for c in self.coeffs))

    @property
    def num_vars(self) -> int:
        return len(self.coeffs)


def power_of_linear(linear: LinearForm, degree: int) -> HomogeneousForm:
    """(sum c_i x_i)^degree by the multinomial theorem, in Scalars."""
    tables = []
    for c in linear.coeffs:
        table = [ONE]
        for _ in range(degree):
            table.append(table[-1] * c)
        tables.append(table)
    out = {}
    for exp in monomial_exponents(linear.num_vars, degree):
        c = Scalar.of(multinomial(degree, exp))
        for table, e in zip(tables, exp):
            if e:
                c = c * table[e]
        if not c.is_zero:
            out[exp] = c
    return HomogeneousForm(linear.num_vars, degree, out)


def combine(terms, degree: int) -> HomogeneousForm:
    """sum of lambda_i * L_i^degree, exactly."""
    terms = list(terms)
    if not terms:
        raise ValueError("combine needs at least one term")
    out = HomogeneousForm(terms[0][1].num_vars, degree)
    for lam, lin in terms:
        out = out + power_of_linear(lin, degree).scale(lam)
    return out


def product(a: HomogeneousForm, b: HomogeneousForm) -> HomogeneousForm:
    """The product form, term by term."""
    if a.num_vars != b.num_vars:
        raise ValueError("forms live in different spaces")
    out: dict = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, ZERO) + c1 * c2
    return HomogeneousForm.from_coeff_map(a.num_vars, a.degree + b.degree,
                                          out)


def conjugate(form: HomogeneousForm) -> HomogeneousForm:
    return HomogeneousForm.from_coeff_map(
        form.num_vars, form.degree,
        {e: c.conjugate() for e, c in form.coeffs.items()})


def evaluate(form: HomogeneousForm, point) -> Scalar:
    acc = ZERO
    for exp, c in form.coeffs.items():
        term = c
        for v, e in zip(point, exp):
            term = term * (v ** e)
        acc = acc + term
    return acc


def form_substitute(form: HomogeneousForm,
                    images: list[HomogeneousForm]) -> HomogeneousForm:
    """Substitute x_i -> images[i]; images share a space and a degree."""
    tgt_vars = images[0].num_vars
    one = HomogeneousForm.from_coeff_map(tgt_vars, 0, {(0,) * tgt_vars: ONE})
    out = HomogeneousForm(tgt_vars, form.degree * images[0].degree)
    for exp, c in form.coeffs.items():
        term = one
        for g, e in zip(images, exp):
            for _ in range(e):
                term = product(term, g)
        out = out + term.scale(c)
    return out


def sym(c: Scalar):
    return sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)


def to_sympy(form: HomogeneousForm):
    expr = sympy.Integer(0)
    for exp, c in form.coeffs.items():
        term = sym(c)
        for v, e in zip(X, exp):
            term *= v ** e
        expr += term
    return sympy.expand(expr)


def rand_form(rng, n, d, complex_entries=False):
    coeffs = {}
    for exp in monomial_exponents(n, d):
        if rng.random() < 0.5:
            continue
        im = rng.randint(-2, 2) if complex_entries else 0
        coeffs[exp] = Scalar.of(rng.randint(-3, 3), im)
    return HomogeneousForm.from_coeff_map(n, d, coeffs)


def test_monomial_exponents_order_and_count():
    exps = monomial_exponents(3, 2)
    assert len(exps) == 6
    assert exps[0] == (2, 0, 0)
    assert all(sum(e) == 2 for e in exps)
    assert exps == tuple(sorted(exps, reverse=True))


def test_multinomial_values():
    assert multinomial(3, (3, 0, 0)) == 1
    assert multinomial(3, (1, 1, 1)) == 6
    assert multinomial(4, (2, 2, 0)) == 6


def test_from_coeff_map_drops_zeros_and_validates():
    f = HomogeneousForm.from_coeff_map(2, 2, {(2, 0): ONE, (0, 2): ZERO})
    assert (0, 2) not in f.coeffs
    with pytest.raises(ValueError):
        HomogeneousForm.from_coeff_map(2, 2, {(1, 0): ONE})


def test_product_matches_sympy():
    rng = random.Random(41)
    for trial in range(25):
        n = rng.randint(2, 3)
        a = rand_form(rng, n, rng.randint(1, 2), trial % 3 == 0)
        b = rand_form(rng, n, rng.randint(1, 2))
        assert to_sympy(product(a, b)) == sympy.expand(
            to_sympy(a) * to_sympy(b))


def test_power_of_linear_matches_sympy():
    rng = random.Random(43)
    for _ in range(15):
        n = rng.randint(2, 4)
        d = rng.randint(1, 5)
        coords = tuple(Scalar.of(rng.randint(-3, 3)) for _ in range(n))
        if all(c.is_zero for c in coords):
            continue
        lin = LinearForm(coords)
        f = power_of_linear(lin, d)
        expr = sum(sympy.Rational(c.re) * v
                   for c, v in zip(lin.coeffs, X)) ** d
        # LinearForm canonicalizes; compare with the canonical coeffs
        assert to_sympy(f) == sympy.expand(expr)


def test_substitute_matches_sympy():
    rng = random.Random(71)
    entries = [ZERO, ZERO, ONE, Scalar.of(-2), Scalar.of(Fraction(1, 3)),
               Scalar.of(0, 1), Scalar.of(2, -1)]
    cases = []
    for trial in range(30):
        n = rng.randint(1, 4)
        d = 1 if trial < 4 else (8 if trial < 7 else rng.randint(2, 6))
        k = 0 if trial % 5 == 0 else rng.randint(1, 3)
        images = [[rng.choice(entries) for _ in range(k + 1)]
                  for _ in range(n)]
        form = (HomogeneousForm(n, d) if trial % 7 == 3
                else rand_form(rng, n, d, trial % 2 == 0))
        cases.append((form, images, k))
    # trailing zeros everywhere: every row needs its padding
    cases.append((rand_form(rng, 3, 4), [[ONE, ZERO, ZERO]] * 3, 2))
    for form, images, k in cases:
        got = substitute(form, images)
        assert len(got) == form.degree * k + 1
        expr = to_sympy(form).subs(
            {x: sum(sym(c) * T ** j for j, c in enumerate(image))
             for x, image in zip(X, images)}, simultaneous=True)
        want = sympy.Poly(sympy.expand(expr), T).all_coeffs()[::-1]
        want += [0] * (len(got) - len(want))
        assert [sym(c) for c in got] == want, (form, images)
    with pytest.raises(ValueError):
        substitute(rand_form(rng, 2, 2), [[ONE]])
    with pytest.raises(ValueError):
        substitute(rand_form(rng, 2, 2), [[ONE], [ONE, ONE]])


def test_evaluate_agrees_with_substitution():
    rng = random.Random(47)
    for _ in range(20):
        f = rand_form(rng, 3, 3)
        pt = [Scalar.of(rng.randint(-2, 2)) for _ in range(3)]
        got = evaluate(f, pt)
        want = to_sympy(f).subs(
            {v: sympy.Rational(p.re) for v, p in zip(X, pt)})
        assert sympy.Rational(got.re) == sympy.nsimplify(want)


def test_combine_power_sums():
    # x^2 + 2 y^2 as a combination of squares of the coordinates
    terms = [(ONE, LinearForm((ONE, ZERO))),
             (Scalar.of(2), LinearForm((ZERO, ONE)))]
    f = combine(terms, 2)
    assert f.coeff((2, 0)) == ONE
    assert f.coeff((0, 2)) == Scalar.of(2)
    assert f.coeff((1, 1)).is_zero


def test_combination_equals_repeated_sums_of_scaled_forms():
    # Gaussian-integer rows against coefficients with denominators
    rng = random.Random(61)
    for trial in range(12):
        n, d = rng.randint(2, 4), rng.randint(1, 4)
        count = trial % 4
        width = len(monomial_exponents(n, d))
        rows = [[(rng.randint(-4, 4) * (rng.random() < 0.7),
                  rng.randint(-2, 2) * (trial % 2))
                 for _ in range(width)] for _ in range(count)]
        coeffs = [Scalar.of(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                            Fraction(rng.randint(-1, 1), rng.randint(1, 3)))
                  for _ in range(count)]
        want = HomogeneousForm(n, d)
        for lam, row in zip(coeffs, rows):
            want = want + HomogeneousForm.from_coeff_vector(
                n, d, [Scalar.of(a, b) for a, b in row]).scale(lam)
        got = HomogeneousForm.combination(n, d, coeffs, rows)
        assert got == want
        assert dict(got.coeffs) == dict(want.coeffs)
    assert HomogeneousForm.combination(3, 2, [], []).is_zero
    with pytest.raises(ValueError):
        HomogeneousForm.combination(2, 2, [ONE], [((1, 0), (0, 0))])
    with pytest.raises(ValueError):
        HomogeneousForm.combination(2, 1, [ONE, ONE], [((1, 0), (0, 0))])


def test_is_real_and_conjugate():
    f = HomogeneousForm.from_coeff_map(2, 1, {(1, 0): Scalar.of(0, 1)})
    assert not f.is_real
    assert (f + conjugate(f)).is_zero
    g = HomogeneousForm.from_coeff_map(2, 1, {(1, 0): ONE})
    assert g.is_real and conjugate(g) == g


def test_canonical_scales_first_nonzero_to_one():
    f = HomogeneousForm.from_coeff_map(
        2, 2, {(2, 0): Scalar.of(3), (0, 2): Scalar.of(6)})
    c = f.canonical()
    assert c.coeff((2, 0)) == ONE
    assert c.coeff((0, 2)) == Scalar.of(2)
    assert f.canonical() == f.scale(Scalar.of(5)).canonical()


def test_coeff_vector_roundtrip():
    rng = random.Random(53)
    for _ in range(10):
        f = rand_form(rng, 3, 2, True)
        g = HomogeneousForm.from_coeff_vector(3, 2, list(f.coeff_vector()))
        assert f == g


def test_json_roundtrip():
    rng = random.Random(59)
    for _ in range(10):
        f = rand_form(rng, 3, 3, True)
        assert HomogeneousForm.from_json(f.to_json()) == f


def test_form_substitute_linear_change():
    # substitute x -> x + y into x^2 gives x^2 + 2xy + y^2
    f = HomogeneousForm.from_coeff_map(2, 2, {(2, 0): ONE})
    images = [
        HomogeneousForm.from_coeff_map(2, 1, {(1, 0): ONE, (0, 1): ONE}),
        HomogeneousForm.from_coeff_map(2, 1, {(0, 1): ONE}),
    ]
    g = form_substitute(f, images)
    assert g.coeff((2, 0)) == ONE
    assert g.coeff((1, 1)) == Scalar.of(2)
    assert g.coeff((0, 2)) == ONE


def test_zero_degree_mismatch_rejected():
    a = HomogeneousForm(2, 2)
    b = HomogeneousForm(2, 3)
    with pytest.raises(ValueError):
        _ = a + b
