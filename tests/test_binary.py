"""Binary form rank engines.

The independent oracle reimplements the kernel scan in sympy: build each
Hankel matrix from the binomial-scaled coefficients, take its nullspace,
and test square-freeness of the kernel through sympy's factorization.
The package result must match that scan exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy

from waringlab import binary, linalg
from waringlab.binary import (BinaryForm, _binary_squarefree, _steps,
                              binary_gcd, binary_roots_exact, complex_rank,
                              hankel_kernel, hankel_matrix, moment_vector,
                              power_point, real_rank, reconstruct,
                              reconstruction_check)
from waringlab.factory import conjugate_pair_form
from waringlab.scalars import ONE, ZERO, Scalar
from waringlab.univariate import poly_mul, poly_trim

X, Y = sympy.symbols("x y")


def poly_monic(a):
    a = poly_trim(a)
    return [c / a[-1] for c in a] if a else []


def plain(*ints) -> BinaryForm:
    return BinaryForm.from_plain([Scalar.of(v) for v in ints])


def to_sympy_expr(f: BinaryForm):
    d = f.degree
    expr = sympy.Integer(0)
    for k, a in enumerate(f.plain_coeffs()):
        expr += (sympy.Rational(a.re) + sympy.I * sympy.Rational(a.im)) \
            * X ** (d - k) * Y ** k
    return sympy.expand(expr)


def oracle_squarefree(expr) -> bool:
    """Squarefree as a binary form: no repeated projective root.

    Dehomogenize at x = 1 and compare with the derivative; the point at
    infinity repeats exactly when the total degree drops by two or more.
    """
    poly = sympy.Poly(sympy.expand(expr), X, Y, extension=sympy.I)
    if poly.is_zero:
        return False
    total = poly.total_degree()
    g = sympy.Poly(poly.as_expr().subs(X, 1), Y, extension=sympy.I)
    if total - g.degree() >= 2:
        return False
    return sympy.degree(sympy.gcd(g, g.diff()), Y) == 0


def oracle_complex_rank(f: BinaryForm) -> int:
    """Brute-force kernel scan in sympy, independent of the package code."""
    d = f.degree
    scaled = [sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)
              for c in f.coeffs]
    for r in range(1, d + 1):
        h = sympy.Matrix(d - r + 1, r + 1,
                         lambda i, j: scaled[i + j])
        kernel = h.nullspace()
        if not kernel:
            continue
        gens = []
        for vec in kernel:
            gens.append(sum(vec[j] * X ** (r - j) * Y ** j
                            for j in range(r + 1)))
        g = gens[0]
        for other in gens[1:]:
            g = sympy.gcd(g, other)
        if oracle_squarefree(g):
            return r
    raise AssertionError("oracle found no squarefree apolar form")


def test_monomial_law_with_oracle():
    # max(a,b)+1 for interior monomials; pure powers have rank one
    for d in range(2, 7):
        for a in range(0, d + 1):
            b = d - a
            coeffs = [ZERO] * (d + 1)
            coeffs[b] = ONE
            f = BinaryForm.from_plain(coeffs)
            rc, dec = complex_rank(f)
            assert rc == oracle_complex_rank(f)
            if a == 0 or b == 0:
                assert rc == 1
            else:
                assert rc == max(a, b) + 1
            assert reconstruction_check(f, dec)


def test_hankel_matrix_shape_and_entries():
    f = plain(1, 3, 3, 1)  # (x+y)^3: scaled coeffs all one
    h = hankel_matrix(f, 2)
    assert len(h) == 2 and len(h[0]) == 3
    for i in range(2):
        for j in range(3):
            assert h[i][j] == ONE


def test_hankel_kernel_elements_are_apolar_operators():
    # h(dx, dy) f = 0 for every kernel element, checked in sympy
    rng = random.Random(61)
    for _ in range(15):
        d = rng.randint(2, 6)
        f = BinaryForm.from_plain(
            [Scalar.of(rng.randint(-4, 4)) for _ in range(d + 1)])
        if f.is_zero:
            continue
        f_expr = to_sympy_expr(f)
        for r in range(1, d):
            for h in hankel_kernel(f, r):
                acc = sympy.Integer(0)
                for j, c in enumerate(h):
                    term = sympy.Rational(c.re) + sympy.I * sympy.Rational(
                        c.im)
                    acc += term * sympy.diff(f_expr, X, r - j, Y, j)
                assert sympy.expand(acc) == 0


def test_moment_vector_and_power_point():
    v = moment_vector((Scalar.of(2), Scalar.of(3)), 2)
    assert v == [Scalar.of(4), Scalar.of(6), Scalar.of(9)]
    f = power_point((ONE, Scalar.of(-1)), 3)
    # (x - y)^3 in plain coefficients
    assert f.plain_coeffs() == (ONE, Scalar.of(-3), Scalar.of(3),
                                Scalar.of(-1))


def moment_vector_coeffs(f, points):
    """The coefficients as solved on moment_vector columns, each cleared by
    its own lcm, for reference."""
    cleared = [linalg._clear(moment_vector(p, f.degree)) for p in points]
    sol = linalg.solve_columns([col for col, _ in cleared], f.coeffs)
    return [x * lcm for x, (_, lcm) in zip(sol, cleared)]


def test_moment_columns_with_non_trivial_denominators():
    # (1+i)/2 has L = 2 but its powers clear by less than 2^d, and -3/4
    # has L = 4; the coefficients must not see how a column was cleared
    pts = [(ONE, Scalar.of(Fraction(1, 2), Fraction(1, 2))),
           (ONE, Scalar.of(Fraction(-3, 4))), (ZERO, ONE)]
    coeffs = [Scalar.of(2, -1), Scalar.of(Fraction(-5, 3)), Scalar.of(7)]
    for d in (3, 4, 6):
        f = BinaryForm.zero(d)
        for c, p in zip(coeffs, pts):
            f = f + power_point(p, d).scale(c)
        assert linalg._clear(moment_vector(pts[0], d))[1] < 2 ** d
        # the apolar form whose roots are pts: prod (b x - a y)
        h = [ONE]
        for a, b in pts:
            h = poly_mul(h, [b, -a])
        dec = binary._exact_decomposition(f, h, pts, "C", True, ())
        assert list(dec.coeffs) == coeffs
        assert list(dec.coeffs) == moment_vector_coeffs(f, pts)
        assert reconstruction_check(f, dec)


def test_gap_form_frozen_values():
    f = plain(2, 0, -6, 0)  # 2x^3 - 6xy^2
    rc, dec_c = complex_rank(f)
    rr, dec_r = real_rank(f)
    assert (rc, rr) == (2, 3)
    assert dec_c.mode == "exact" and dec_r.mode == "exact"
    assert dec_c.minimality_certified and dec_r.minimality_certified
    # (x+iy)^3 + (x-iy)^3
    i = Scalar.of(0, 1)
    assert set(dec_c.points) == {(ONE, i), (ONE, -i)}
    assert all(c == ONE for c in dec_c.coeffs)
    # 4x^3 - (x+y)^3 - (x-y)^3
    want = {((ONE, ZERO), Scalar.of(4)),
            ((ONE, ONE), Scalar.of(-1)),
            ((ONE, Scalar.of(-1)), Scalar.of(-1))}
    assert set(zip(dec_r.points, dec_r.coeffs)) == want
    assert reconstruct(dec_c, 3) == f
    assert reconstruct(dec_r, 3) == f


def test_conjugate_pair_family_rank_gap():
    from waringlab.factory import conjugate_pair_form
    for d in range(3, 8):
        f = conjugate_pair_form(d)
        rc, dec_c = complex_rank(f)
        rr, dec_r = real_rank(f)
        assert rc == 2 and rr == d
        assert dec_c.minimality_certified and dec_r.minimality_certified
        assert reconstruction_check(f, dec_c)
        assert reconstruction_check(f, dec_r)


def test_rank_one_powers():
    rng = random.Random(67)
    for _ in range(10):
        a, b = Scalar.of(rng.randint(-3, 3)), Scalar.of(rng.randint(1, 3))
        d = rng.randint(1, 6)
        f = power_point((a, b), d)
        rc, dec = complex_rank(f)
        assert rc == 1
        assert dec.points == ((a / b, ONE),) or dec.points == (
            (ONE, b / a),) or len(dec.points) == 1


def test_random_power_sums_bound_rank():
    rng = random.Random(71)
    for _ in range(20):
        d = rng.randint(3, 6)
        k = rng.randint(1, (d + 1) // 2)
        pts = set()
        while len(pts) < k:
            pts.add((1, Fraction(rng.randint(-5, 5), rng.choice((1, 2)))))
        f = BinaryForm.zero(d)
        for s, t in pts:
            f = f + power_point((Scalar.of(s), Scalar.of(t)), d).scale(
                Scalar.of(rng.choice((-2, -1, 1, 2, 3))))
        if f.is_zero:
            continue
        rc, dec = complex_rank(f)
        assert rc <= k
        assert rc == oracle_complex_rank(f)
        assert reconstruction_check(f, dec)


def test_complex_rank_at_most_real_rank():
    rng = random.Random(73)
    for _ in range(15):
        d = rng.randint(2, 5)
        f = BinaryForm.from_plain(
            [Scalar.of(rng.randint(-3, 3)) for _ in range(d + 1)])
        if f.is_zero:
            continue
        rc, _ = complex_rank(f)
        rr, dec_r = real_rank(f)
        assert rc <= rr <= d
        if dec_r.minimality_certified:
            assert reconstruction_check(f, dec_r)
        if dec_r.mode == "exact":
            assert all(a.is_real and b.is_real for a, b in dec_r.points)
            assert all(c.is_real for c in dec_r.coeffs)


def test_real_rank_rejects_nonreal_input():
    f = BinaryForm.from_plain([ONE, Scalar.of(0, 1)])
    with pytest.raises(ValueError):
        real_rank(f)


def test_zero_form_has_no_rank():
    with pytest.raises(ValueError):
        complex_rank(BinaryForm.zero(3))


def test_implicit_mode_for_irrational_roots():
    # apolar generator x^2 - 2y^2: real irrational roots, so both ranks
    # are 2 but no exact Gaussian-rational decomposition exists
    f = BinaryForm.from_scaled([Scalar.of(1), Scalar.of(1), Scalar.of(2),
                                Scalar.of(2)])
    rc, dec_c = complex_rank(f)
    rr, dec_r = real_rank(f)
    assert rc == 2 and rr == 2
    assert dec_c.mode == "implicit" and dec_r.mode == "implicit"
    assert reconstruction_check(f, dec_c)
    assert reconstruction_check(f, dec_r)
    assert dec_r.generator is not None


def test_complex_rank_searches_each_candidate_once(monkeypatch):
    # 2x^3 + 12xy^2 = 2x(x^2 + 6y^2): its rank-2 kernel is spanned by one
    # generator without Gaussian-rational roots, which is its own witness
    calls = []
    search = binary.binary_roots_exact

    def counting(h):
        calls.append(h)
        return search(h)

    monkeypatch.setattr(binary, "binary_roots_exact", counting)
    f = BinaryForm.from_scaled([Scalar.of(v) for v in (2, 0, 4, 0)])
    rc, dec = complex_rank(f)
    assert (rc, dec.mode) == (2, "implicit")
    assert reconstruction_check(f, dec)
    assert len(calls) == 1
    # a two-dimensional kernel (d = 4, c = 3): 24 candidates, 21 distinct,
    # none with Gaussian-rational roots
    calls.clear()
    f = plain(-2, 3, -2, -1, -1)
    rc, dec = complex_rank(f)
    assert (rc, dec.mode) == (3, "implicit")
    assert len(calls) == len({tuple(h) for h in calls}) == 21


@pytest.mark.parametrize("f, searched", [
    # step 2 of the gap sextic has a one-dimensional kernel, whose
    # generator the step's gcd test already proved squarefree
    (conjugate_pair_form(6), False),
    # d = 4, c = 3: 2c = d + 2, so step c has a two-dimensional kernel
    (plain(1, 2, 0, -1, 3), True)])
def test_complex_rank_searches_only_kernels_of_dimension_two_or_more(
        monkeypatch, f, searched):
    entered = []
    search = binary._squarefree_elements

    def counting(kernel):
        entered.append(len(kernel))
        return search(kernel)

    monkeypatch.setattr(binary, "_squarefree_elements", counting)
    rc, dec = complex_rank(f)
    assert reconstruction_check(f, dec)
    assert entered == ([2] if searched else [])


def test_binary_gcd_common_factor():
    # y(y-x) and y^2(y-x) share y(y-x); in the chart t = y/x that is
    # t(t-1) with no x factor
    h1 = [ZERO, Scalar.of(-1), ONE]
    h2 = [ZERO, ZERO, Scalar.of(-1), ONE]
    x_mult, g = binary_gcd([h1, h2])
    assert x_mult == 0
    assert g == [ZERO, Scalar.of(-1), ONE]


def test_binary_roots_exact_charts():
    # the form y vanishes at [1:0]; the form x vanishes at [0:1]
    assert binary_roots_exact([ZERO, ONE]) == [(ONE, ZERO)]
    assert binary_roots_exact([ONE, ZERO]) == [(ZERO, ONE)]


def test_decomposition_determinism():
    f = plain(2, 0, -6, 0)
    a = real_rank(f)[1].to_json()
    b = real_rank(f)[1].to_json()
    assert a == b


def test_degree_one():
    f = BinaryForm.from_plain([Scalar.of(5), Scalar.of(-2)])
    rc, dec = complex_rank(f)
    assert rc == 1 and reconstruction_check(f, dec)


# -- the step walk against the walk over every r ---------------------------

def oracle_steps(f: BinaryForm) -> tuple[list, int]:
    """Every r from 1: Hankel kernel and gcd, keeping squarefree gcds.

    A later step whose gcd is the first nonempty kernel's nontrivial gcd
    g1 holds only multiples of g1, which the first step already decided;
    such steps are counted instead of kept.
    """
    out, g1, same = [], None, 0
    for r in range(1, f.degree + 1):
        kernel = hankel_kernel(f, r)
        if not kernel:
            continue
        x_mult, g = binary_gcd(kernel)
        if g1 is None:
            g1 = (x_mult, poly_monic(g))
        elif (x_mult, poly_monic(g)) == g1 and x_mult + len(g) > 1:
            same += 1
            continue
        if _binary_squarefree(x_mult, g):
            out.append((r, kernel, x_mult, g))
    return out, same


def monomials(max_degree: int) -> list[BinaryForm]:
    out = []
    for d in range(1, max_degree + 1):
        for b in range(d + 1):
            coeffs = [ZERO] * (d + 1)
            coeffs[b] = ONE
            out.append(BinaryForm.from_plain(coeffs))
    return out


def seeded_forms(count: int) -> list[BinaryForm]:
    rng = random.Random(83)
    out = []
    while len(out) < count:
        d = 1 + len(out) % 8
        f = BinaryForm.from_plain(
            [Scalar.of(rng.randint(-3, 3)) for _ in range(d + 1)])
        if not f.is_zero:
            out.append(f)
    return out


def gap_forms() -> list[BinaryForm]:
    return [conjugate_pair_form(d, t) for d in range(3, 9)
            for t in (None, (2, 1, 1, 1), (1, -2, 0, 1))]


def test_steps_match_the_walk_over_every_step(monkeypatch):
    real_kernel, real_gcd = binary.hankel_kernel, binary.binary_gcd
    kernel_steps: list[int] = []
    gcd_steps: list[int] = []

    def kernel(f, r):
        kernel_steps.append(r)
        return real_kernel(f, r)

    def gcd(forms):
        gcd_steps.append(len(forms[0]) - 1)
        return real_gcd(forms)

    forms = monomials(8) + seeded_forms(40) + gap_forms()
    middle = skipped = 0
    for f in forms:
        want, same = oracle_steps(f)
        skipped += same
        d = f.degree
        c = next(r for r in range(1, d + 1) if real_kernel(f, r))
        middle += 2 * c == d + 2
        kernel_steps.clear()
        gcd_steps.clear()
        monkeypatch.setattr(binary, "hankel_kernel", kernel)
        monkeypatch.setattr(binary, "binary_gcd", gcd)
        got = list(_steps(f))
        monkeypatch.undo()
        assert [(r, k) for r, k, _ in got] == [(r, k) for r, k, _, _ in want]
        for (r, _, g), (_, _, x_mult, old_g) in zip(got, want):
            assert poly_monic(g) == poly_monic(old_g)
            if r > c:
                assert g == [ONE] and x_mult == 0
        # no empty kernel below c, no gcd from d + 2 - c on
        assert min(kernel_steps) == c
        assert gcd_steps == [c]
        assert c < d + 2 - c or 2 * c == d + 2
    assert middle >= 10 and skipped >= 20


def test_gap_sextic_real_rank_takes_two_kernels_and_one_gcd(monkeypatch):
    calls = {"kernel": [], "gcd": 0}
    real_kernel, real_gcd = binary.hankel_kernel, binary.binary_gcd

    def kernel(f, r):
        calls["kernel"].append(r)
        return real_kernel(f, r)

    def gcd(forms):
        calls["gcd"] += 1
        return real_gcd(forms)

    monkeypatch.setattr(binary, "hankel_kernel", kernel)
    monkeypatch.setattr(binary, "binary_gcd", gcd)
    rr, dec = real_rank(conjugate_pair_form(6))
    assert rr == 6 and dec.minimality_certified
    assert calls == {"kernel": [2, 6], "gcd": 1}


@pytest.mark.parametrize("f, c", [(conjugate_pair_form(6), 2),
                                  (plain(1, 2, 0, -1, 3), 3)])
def test_steps_reject_kernels_off_sylvester_dimensions(monkeypatch, f, c):
    real_kernel = binary.hankel_kernel
    for bad in (lambda r, k: k[:-1] if r == c else k,
                lambda r, k: k + k[:1] if r == c else k,
                lambda r, k: k[:-1] if r > c else k):
        monkeypatch.setattr(binary, "hankel_kernel",
                            lambda g, r, bad=bad: bad(r, real_kernel(g, r)))
        with pytest.raises(ArithmeticError):
            list(_steps(f))


@pytest.mark.xfail(strict=True, reason=(
    "known defect: each step-4 Hankel kernel holds a squarefree quartic "
    "with four distinct real roots, in a region the grid search misses, so "
    "real_rank reports 5 uncertified; an exact decision on the kernel "
    "pencil would find rank 4, and this marker then has to come off"))
@pytest.mark.parametrize("coeffs", [["-3", "0", "2", "1", "-3", "3"],
                                    ["2", "2", "0", "-3", "2", "-1"]])
def test_overstated_quintics_have_real_rank_at_most_four(coeffs):
    f = BinaryForm.from_json({"d": 5, "c": coeffs})
    assert real_rank(f)[0] <= 4
