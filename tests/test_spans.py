"""Span machinery: Veronese rows, h1, curve power bases, restrictions.

The h1 oracle recomputes the span dimension in sympy straight from the
monomial values of the canonical point coordinates, so the package rank
code never checks itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import pytest
import sympy

from test_forms import LinearForm, power_of_linear
from waringlab import linalg
from waringlab.binary import complex_rank, power_point
from waringlab.factory import _genericity_certs
from waringlab.forms import HomogeneousForm, monomial_exponents
from waringlab.points import CurveSpec, PointSet, ProjectivePoint
from waringlab.scalars import ONE, ZERO, Scalar
from waringlab.spans import (Conclusion, HypothesisFails, NotUnique,
                             catalecticant_rank, conic_power_basis,
                             curve_meet_point, curve_power_basis,
                             h1_ideal, line_power_basis,
                             membership, off_curve_agreement,
                             pair_power_basis, parametrize_conic, power_row,
                             power_vector, restrict_to_conic,
                             restrict_to_line, unique_intersection_point)


def embed_on_line(line: CurveSpec, points1) -> list[ProjectivePoint]:
    """The points of a line at the parameters (s, t) in points1."""
    return [line.point_at(s, t) for s, t in points1]


def P(*vals) -> ProjectivePoint:
    return ProjectivePoint.of(*vals)


@dataclass(frozen=True)
class VeroneseSpace:
    m: int
    d: int

    @property
    def N(self) -> int:
        return comb(self.m + self.d, self.d) - 1


def embed_on_conic(param, points1) -> list[ProjectivePoint]:
    return [param.point_at(s, t) for s, t in points1]


def pow_form(p: ProjectivePoint, d: int) -> HomogeneousForm:
    return HomogeneousForm.from_coeff_vector(p.m + 1, d, power_vector(p, d))


def pow_sum(pts, coeffs, d: int) -> HomogeneousForm:
    n = pts[0].m + 1
    acc = [ZERO] * len(power_vector(pts[0], d))
    for p, c in zip(pts, coeffs):
        for k, v in enumerate(power_vector(p, d)):
            acc[k] = acc[k] + Scalar.of(c) * v
    return HomogeneousForm.from_coeff_vector(n, d, acc)


def to_sym(z: Scalar):
    return sympy.Rational(z.re) + sympy.I * sympy.Rational(z.im)


def oracle_h1(pts, d: int) -> int:
    rows = []
    for p in pts:
        row = []
        for exp in monomial_exponents(p.m + 1, d):
            val = sympy.Integer(1)
            for c, e in zip(p.coords, exp):
                val *= to_sym(c) ** e
            row.append(val)
        rows.append(row)
    span_dim = sympy.Matrix(rows).rank() - 1
    return len(pts) - 1 - span_dim


def _sympy_power_row(coords, d: int) -> list:
    """Coefficients of (coords . x)^d, for sympy-convertible coords."""
    xs = sympy.symbols(f"x0:{len(coords)}")
    lin = sympy.Poly(sum(c * v for c, v in zip(coords, xs)), *xs)
    coeffs = (lin ** d).as_dict()
    return [coeffs.get(exp, sympy.Integer(0))
            for exp in monomial_exponents(len(coords), d)]


def _random_coord(rng, gaussian: bool) -> Scalar:
    if rng.random() < 0.25:
        return ZERO
    re = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
    return Scalar.of(re, rng.randint(-2, 2) if gaussian else 0)


def test_power_row_matches_sympy_expansion():
    rng = random.Random(81)
    cases = [(ProjectivePoint.of(*(rng.randint(-3, 3) for _ in range(2)), 1),
              rng.randint(2, 4)) for _ in range(8)]
    # Gaussian and zero coordinates in P^1..P^4 up to the h1 workload's d = 8
    for m in (1, 2, 3, 4):
        for d in range(1, 9):
            for gaussian in (False, True):
                coords = [_random_coord(rng, gaussian) for _ in range(m + 1)]
                if all(c.is_zero for c in coords):
                    coords[-1] = ONE
                cases.append((ProjectivePoint(tuple(coords)), d))
    i = Scalar.of(0, 1)
    cases += [(ProjectivePoint((ZERO, ZERO, ONE)), 6),
              (ProjectivePoint((ONE, ZERO, i, ZERO)), 7),
              (ProjectivePoint((ZERO, ONE, ZERO, -i, Scalar.of(2, -1))), 8)]
    assert any(not p.is_real for p, _ in cases)
    assert any(any(c.is_zero for c in p.coords) for p, _ in cases)
    for p, d in cases:
        # the exact vector of the canonical point
        want = _sympy_power_row([to_sym(c) for c in p.coords], d)
        got = power_vector(p, d)
        assert len(got) == len(want) == comb(p.m + d, d)
        for g, w in zip(got, want):
            assert sympy.expand(to_sym(g) - w) == 0
        # the cached row: the same expansion at z = p.zcoords, in Z[i]
        z = [sympy.Integer(a) + sympy.I * b for a, b in p.zcoords]
        want = _sympy_power_row(z, d)
        got = power_row(p, d)
        assert len(got) == len(want)
        for (a, b), w in zip(got, want):
            assert type(a) is int and type(b) is int
            assert sympy.expand(a + sympy.I * b - w) == 0


def test_power_row_is_the_power_of_linear_vector():
    rng = random.Random(82)
    for m in (1, 2, 3, 4):
        for d in range(1, 9):
            coords = [_random_coord(rng, d % 2 == 0) for _ in range(m + 1)]
            if all(c.is_zero for c in coords):
                coords[0] = ONE
            p = ProjectivePoint(tuple(coords))
            vec = power_vector(p, d)
            assert tuple(vec) == power_of_linear(
                LinearForm(p.coords), d).coeff_vector()
            # the cached row is the vector times z_lead^d
            lead = Scalar.of(next(z for z in p.zcoords if z != (0, 0))[0])
            assert power_row(p, d) == tuple(
                (int(c.re), int(c.im)) for c in (v * lead ** d for v in vec))


def test_veronese_space_dimension():
    assert VeroneseSpace(2, 3).N == comb(5, 3) - 1
    assert VeroneseSpace(3, 2).N == comb(5, 2) - 1
    assert VeroneseSpace(2, 3).N + 1 == len(power_row(P(1, 2, 3), 3))


def test_h1_collinear_law_against_oracle():
    for d in (3, 4, 5):
        for k in (0, 1, 2):
            pts = [P(1, t, 0) for t in range(d + 1 + k)]
            rep = h1_ideal(PointSet.of(pts), d)
            assert rep.h1 == k == oracle_h1(pts, d)
            assert rep.independent == (k == 0)
            assert rep.set_size == d + 1 + k


def test_h1_general_points_match_oracle():
    rng = random.Random(83)
    for _ in range(10):
        d = rng.randint(2, 4)
        n = rng.randint(2, comb(d + 2, 2))
        pts = set()
        while len(pts) < n:
            pts.add(P(rng.randint(-4, 4), rng.randint(-4, 4), 1))
        pts = sorted(pts, key=lambda p: p.sort_key())
        rep = h1_ideal(PointSet.of(pts), d)
        assert rep.h1 == oracle_h1(pts, d)
        assert rep.span_dim == rep.set_size - 1 - rep.h1


def _agreement_sets(rng):
    """Seeded generic, collinear, conic and Gaussian sets in P^2..P^4."""
    sets = []
    for m in (2, 3, 4):
        pad = [0] * (m - 2)
        n = rng.randint(4, 12)
        generic = {P(*(rng.randint(-4, 4) for _ in range(m)), 1)
                   for _ in range(n)}
        line = {P(1, t, *pad, 2 * t - 1) for t in range(-3, n - 3)}
        # x^2 + y^2 = z^2 through (1 - t^2, 2t, 1 + t^2)
        conic = {P(1 - t * t, 2 * t, *pad, 1 + t * t)
                 for t in range(-4, n - 4)}
        gaussian = {ProjectivePoint(tuple(
            Scalar.of(rng.randint(-3, 3), rng.randint(-2, 2))
            for _ in range(m)) + (ONE,)) for _ in range(n)}
        sets += [generic, line, conic, gaussian]
    return [PointSet.of(s) for s in sets]


def test_h1_and_membership_agree_with_scalar_rank_and_span():
    rng = random.Random(84)
    seen = set()
    for s in _agreement_sets(rng):
        pts = list(s)
        for d in (2, 3, 5):
            vectors = [power_vector(p, d) for p in pts]
            rep = h1_ideal(s, d)
            assert rep.span_dim + 1 == linalg.rank(vectors)
            seen.add(("h1 > 0", rep.h1 > 0))
            n = s.m + 1
            coeffs = [Scalar.of(rng.randint(-3, 3), rng.randint(-1, 1))
                      for _ in pts]
            inside = HomogeneousForm.combination(n, d, coeffs, vectors)
            stray = P(*(rng.randint(-5, 5) for _ in range(s.m)), 7)
            outside = inside + pow_form(stray, d).scale(Scalar.of(1, 3))
            for form in (inside, outside, pow_form(pts[0], d)):
                if form.is_zero:
                    continue
                got = membership(form, s, d, "C")
                assert got == linalg.in_span(vectors, form.coeff_vector())
                seen.add(("member", got))
    assert seen == {("h1 > 0", True), ("h1 > 0", False),
                    ("member", True), ("member", False)}


def test_h1_ideal_leaves_the_cached_rows_unchanged():
    d = 4
    s = PointSet.of([P(1, t, t * t - 2) for t in range(-3, 5)]
                    + [ProjectivePoint((ONE, Scalar.of(2, -1), ZERO))])
    rows = [power_row(p, d) for p in s]
    before = [tuple(tuple(z) for z in row) for row in rows]
    form = pow_sum(list(s)[:3], [1, -2, 3], d)
    first = h1_ideal(s, d)
    assert membership(form, s, d, "C")
    assert h1_ideal(s, d) == first
    for p, row, old in zip(s, rows, before):
        assert power_row(p, d) is row
        assert row == old and type(row) is tuple
        assert all(type(z) is tuple for z in row)


def test_h1_ideal_checks_only_the_deficit_exactly(monkeypatch):
    shapes = []
    exact = linalg._eliminate

    def counted(m, reduce):
        shapes.append((len(m), len(m[0]) if m else 0))
        return exact(m, reduce)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    # independent points: the certificate mod p settles the rank alone
    rng = random.Random(86)
    generic = PointSet.of(P(*(rng.randint(-5, 5) for _ in range(4)), 1)
                          for _ in range(20))
    assert h1_ideal(generic, 8).h1 == 0
    assert shapes == []
    # 2d + 1 + k points on a conic: one exact solve, on the kept rows
    d, k = 5, 3
    conic = PointSet.of(P(1 - t * t, 2 * t, 0, 0, 1 + t * t)
                        for t in range(-6, 2 * d + k - 5))
    assert len(conic) == 2 * d + 1 + k
    assert h1_ideal(conic, d).h1 == k
    assert len(shapes) == 1
    rows, cols = shapes[0]
    assert rows == 2 * d + 1 and cols <= len(conic)


def test_h1_rejects_empty_set():
    with pytest.raises(ValueError):
        h1_ideal(PointSet.of([]), 3)


def test_membership_of_power_sums():
    p1, p2, q = P(1, 0, 0), P(1, 1, 0), P(0, 0, 1)
    f = pow_sum([p1, p2], [1, 2], 3)
    s = PointSet.of([p1, p2])
    assert membership(f, s, 3, "C")
    assert membership(f, s, 3, "R")
    assert not membership(f, PointSet.of([p1]), 3, "C")
    assert not membership(pow_form(q, 3), s, 3, "C")
    with pytest.raises(ValueError):
        membership(f, s, 4, "C")
    with pytest.raises(ValueError):
        membership(f, s, 3, "Q")
    i_pt = ProjectivePoint((ONE, Scalar.of(0, 1), ZERO))
    with pytest.raises(ValueError):
        membership(pow_form(i_pt, 3), PointSet.of([i_pt]), 3, "R")


def test_unique_intersection_point_finds_the_meet():
    d = 3
    t = PointSet.of([P(1, 0, 0), P(0, 1, 0), P(1, 1, 0)])
    e = PointSet.of([P(0, 0, 1)])
    g = pow_sum([P(1, 0, 0), P(1, 1, 0)], [1, 1], d)
    form = pow_sum([P(1, 0, 0), P(1, 1, 0), P(0, 0, 1)], [1, 1, 5], d)
    got = unique_intersection_point(form, e, t, d)
    assert isinstance(got, HomogeneousForm)
    assert got == g.canonical()


def test_unique_intersection_empty_e_returns_canonical_form():
    f = pow_form(P(1, 2, 0), 3)
    got = unique_intersection_point(f, PointSet.of([]), PointSet.of(
        [P(1, 0, 0)]), 3)
    assert got == f.canonical()


def test_unique_intersection_guards():
    t = PointSet.of([P(1, 0, 0), P(0, 1, 0), P(1, 1, 0)])
    with pytest.raises(ValueError):
        unique_intersection_point(pow_form(P(1, 0, 0), 2),
                                  PointSet.of([P(1, 0, 0)]), t, 2)


def test_unique_intersection_empty_meet():
    d = 2
    t = PointSet.of([P(1, 0, 0), P(0, 1, 0), P(1, 1, 0)])
    form = pow_sum([P(0, 0, 1), P(1, 1, 1)], [1, 1], d)
    got = unique_intersection_point(form, PointSet.of([P(1, 1, 1)]), t, d)
    assert isinstance(got, NotUnique) and "empty" in got.reason


def test_unique_intersection_positive_dimensional():
    # powers of three on-line points span the full degree-2 line space,
    # so a fourth on-line power together with an on-line form meets in
    # a plane, not a point
    d = 2
    t = PointSet.of([P(1, 0, 0), P(0, 1, 0), P(1, 1, 0)])
    form = pow_sum([P(1, 0, 0), P(1, -1, 0)], [1, 3], d)
    got = unique_intersection_point(form, PointSet.of([P(1, 2, 0)]), t, d)
    assert isinstance(got, NotUnique) and "positive" in got.reason


def test_off_curve_agreement_equal_and_not():
    line = CurveSpec.line(P(1, 0, 0), P(0, 1, 0))
    d = 4
    shared_off = [P(0, 0, 1), P(1, 1, 1)]
    a = PointSet.of([P(1, 0, 0), P(1, 1, 0)] + shared_off)
    b = PointSet.of([P(1, 2, 0), P(1, 3, 0), P(1, 4, 0)] + shared_off)
    res = off_curve_agreement(a, b, line, d)
    assert isinstance(res, Conclusion) and res.equal
    c = PointSet.of([P(1, 2, 0), P(0, 1, 1), P(1, 1, 1)])
    res2 = off_curve_agreement(a, c, line, d)
    assert isinstance(res2, Conclusion) and not res2.equal


def test_off_curve_agreement_hypothesis_fails():
    # four collinear off-curve points in degree 4 - 1 - 1 = 2 overshoot
    # the line budget by one, so the span hypothesis is void
    line = CurveSpec.line(P(1, 0, 0), P(0, 1, 0))
    stack = [P(0, 1, 1), P(0, 1, 2), P(0, 1, 3), P(0, 1, 4)]
    a = PointSet.of([P(1, 0, 0)] + stack[:2])
    b = PointSet.of([P(1, 1, 0)] + stack[2:])
    res = off_curve_agreement(a, b, line, 3)
    assert isinstance(res, HypothesisFails) and res.h1 == 1


def test_off_curve_agreement_needs_degree_above_curve():
    line = CurveSpec.line(P(1, 0, 0), P(0, 1, 0))
    s = PointSet.of([P(0, 0, 1)])
    with pytest.raises(ValueError):
        off_curve_agreement(s, s, line, 1)


def test_catalecticant_rank_frozen_values():
    xs = [P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)]
    f3 = pow_sum(xs, [1, 1, 1], 3)          # x^3 + y^3 + z^3
    assert catalecticant_rank(f3) == 3
    assert catalecticant_rank(f3, 0) == 1
    one = pow_form(P(1, 1, 1), 3)
    assert catalecticant_rank(one) == 1
    assert catalecticant_rank(one, 1) == 1
    with pytest.raises(ValueError):
        catalecticant_rank(f3, 7)


def test_catalecticant_never_exceeds_support_size():
    rng = random.Random(89)
    for _ in range(6):
        d = rng.randint(3, 5)
        pts = [P(rng.randint(-3, 3), rng.randint(-3, 3), 1)
               for _ in range(3)]
        f = pow_sum(pts, [1, 2, -1], d)
        if f.is_zero:
            continue
        assert catalecticant_rank(f) <= 3


def test_line_restriction_round_trip():
    line = CurveSpec.line(P(1, 0, 0), P(0, 1, 0))
    d = 3
    f = pow_sum([P(1, 2, 0), P(1, -1, 0)], [1, -3], d)
    g = restrict_to_line(f, line)
    assert g == power_point((ONE, Scalar.of(2)), d) + power_point(
        (ONE, Scalar.of(-1)), d).scale(Scalar.of(-3))
    rc, dec = complex_rank(g)
    assert rc == 2
    assert set(dec.points) == {(ONE, Scalar.of(2)), (ONE, Scalar.of(-1))}
    with pytest.raises(ValueError):
        restrict_to_line(pow_form(P(0, 0, 1), d), line)


def test_embed_on_line_hits_expected_points():
    line = CurveSpec.line(P(1, 0, 0), P(0, 1, 0))
    got = embed_on_line(line, [(ONE, Scalar.of(2)), (ZERO, ONE)])
    assert got == [P(1, 2, 0), P(0, 1, 0)]


def test_line_power_basis_rank_and_guard():
    line = CurveSpec.line(P(1, 2, 3), P(0, 1, -1))
    basis = line_power_basis(line, 4)
    assert len(basis) == 5
    conic_plane = [P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)]
    conic = CurveSpec.conic(conic_plane,
                            [ZERO, ZERO, ONE, Scalar.of(-1), ZERO, ZERO])
    with pytest.raises(ValueError):
        line_power_basis(conic, 4)


def _sympy_graded_pieces(images, d: int) -> list:
    """Coefficient vectors of the t-graded pieces of (sum images_i(t) x_i)^d."""
    xs = sympy.symbols(f"x0:{len(images)}")
    t = sympy.Symbol("t")
    lin = sum(sum(to_sym(c) * t ** j for j, c in enumerate(image)) * x
              for image, x in zip(images, xs))
    coeffs = sympy.Poly(lin ** d, t, *xs).as_dict()
    width = d * (len(images[0]) - 1) + 1
    return [[coeffs.get((k,) + exp, sympy.Integer(0))
             for exp in monomial_exponents(len(images), d)]
            for k in range(width)]


def _assert_pieces(got, want) -> None:
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        assert len(got_row) == len(want_row)
        for g, w in zip(got_row, want_row):
            assert sympy.expand(to_sym(g) - w) == 0


def test_line_power_basis_is_the_sympy_expansion():
    i = Scalar.of(0, 1)
    lines = [CurveSpec.line(P(1, 0, 0), P(0, 0, 1)),
             CurveSpec.line(P(1, 2, -1), P(0, 3, 1)),
             CurveSpec.line(P(0, 1, 0, 0), P(2, 0, 0, 1)),
             CurveSpec.line(ProjectivePoint((ONE, i, ZERO, Scalar.of(2))),
                            P(0, 0, 1, -1)),
             CurveSpec.line(P(1, 0, 2, 0, -1), P(0, 0, 1, 1, 3))]
    for line in lines:
        u, v = line.line_basis
        assert any(c.is_zero for c in u.coords + v.coords)
        for d in (1, 2, 4, 6):
            want = _sympy_graded_pieces(
                [[a, b] for a, b in zip(u.coords, v.coords)], d)
            _assert_pieces(line_power_basis(line, d), want)


def test_conic_power_basis_is_the_sympy_expansion():
    # x0 x2 - x1^2 and x0^2 + x1^2 - x2^2 in planes of P^2, P^3 and P^4
    forms = [([ZERO, ZERO, ONE, Scalar.of(-1), ZERO, ZERO], (ONE, ZERO, ZERO)),
             ([ONE, ZERO, ZERO, ONE, ZERO, Scalar.of(-1)], (ONE, ZERO, ONE))]
    planes = [[P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)],
              [P(1, 2, 0, 1), P(0, 1, 1, 0), P(0, 0, 1, 3)],
              [P(1, 0, 0, 2, 0), P(0, 1, 0, 0, -1), P(1, 1, 1, 0, 0)]]
    for plane in planes:
        for coeffs, on_conic in forms:
            conic = CurveSpec.conic(plane, coeffs)
            param = parametrize_conic(conic, conic.point_from_plane(on_conic))
            for d in (1, 2, 3):
                want = _sympy_graded_pieces(
                    [q.plain_coeffs() for q in param.quadrics], d)
                _assert_pieces(conic_power_basis(param, d), want)


def test_parametrize_conic_identities():
    plane = [P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)]
    conic = CurveSpec.conic(plane,
                            [ZERO, ZERO, ONE, Scalar.of(-1), ZERO, ZERO])
    param = parametrize_conic(conic, P(1, 0, 0))
    assert param.is_real
    seen = set()
    for s, t in ((ONE, ZERO), (ZERO, ONE), (ONE, ONE),
                 (ONE, Scalar.of(-2))):
        p = param.point_at(s, t)
        assert conic.contains(p)
        seen.add(p)
    assert len(seen) == 4
    with pytest.raises(ValueError):
        parametrize_conic(conic, P(1, 1, 0))


def test_conic_restriction_doubles_degree():
    plane = [P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)]
    conic = CurveSpec.conic(plane,
                            [ZERO, ZERO, ONE, Scalar.of(-1), ZERO, ZERO])
    param = parametrize_conic(conic, P(1, 0, 0))
    d = 3
    p = param.point_at(ONE, ONE)
    g = restrict_to_conic(pow_form(p, d), param)
    assert g.degree == 2 * d
    rc, dec = complex_rank(g)
    assert rc == 1 and dec.points == ((ONE, ONE),)
    with pytest.raises(ValueError):
        restrict_to_conic(pow_form(P(1, 1, 0), d), param)
    assert len(conic_power_basis(param, d)) == 2 * d + 1


def test_embed_on_conic_stays_on_conic():
    plane = [P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)]
    conic = CurveSpec.conic(plane,
                            [ZERO, ZERO, ONE, Scalar.of(-1), ZERO, ZERO])
    param = parametrize_conic(conic, P(1, 0, 0))
    pts = embed_on_conic(param, [(ONE, ZERO), (ONE, Scalar.of(3))])
    assert all(conic.contains(p) for p in pts)
    assert len(set(pts)) == 2


def test_pair_power_basis_in_p3():
    l1 = CurveSpec.line(P(1, 0, 0, 0), P(0, 1, 0, 0))
    l2 = CurveSpec.line(P(0, 0, 1, 0), P(0, 0, 0, 1))
    pair = CurveSpec.two_lines(l1, l2)
    d = 3
    basis = pair_power_basis(pair, d)
    assert len(basis) == 2 * (d + 1)
    assert grassmann_disjoint(line_power_basis(l1, d),
                              line_power_basis(l2, d))
    with pytest.raises(ValueError):
        pair_power_basis(l1, d)


def test_curve_power_basis_dispatch():
    d = 3
    l1 = CurveSpec.line(P(1, 0, 0), P(0, 0, 1))
    l2 = CurveSpec.line(P(0, 1, 0), P(0, 0, 1))
    red = CurveSpec.reducible_from_lines(l1, l2)
    assert len(curve_power_basis(red, d)) == 2 * d + 1
    assert len(curve_power_basis(l1, d)) == d + 1
    plane = [P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)]
    smooth = CurveSpec.conic(plane,
                             [ZERO, ZERO, ONE, Scalar.of(-1), ZERO, ZERO])
    with pytest.raises(ValueError):
        curve_power_basis(smooth, d)
    param = parametrize_conic(smooth, P(1, 0, 0))
    assert len(curve_power_basis(smooth, d, param)) == 2 * d + 1


def grassmann_disjoint(u_rows, v_rows) -> bool:
    """Reference: two spans meet only in zero iff their ranks add up."""
    both = list(u_rows) + list(v_rows)
    return linalg.rank(both) == linalg.rank(u_rows) + linalg.rank(v_rows)


def test_genericity_certs_match_the_grassmann_rank_formula():
    # E off the line z = 0, E with one point on it, and E dependent
    # (d + 2 points on the line y = 0); every verdict against the ranks
    rng = random.Random(97)
    d = 3
    basis = line_power_basis(CurveSpec.line(P(1, 0, 0), P(0, 1, 0)), d)
    seen = set()
    for trial in range(12):
        kind = trial % 3
        if kind == 2:
            e = [P(t, 0, 1) for t in rng.sample(range(-6, 7), d + 2)]
        else:
            e = [P(x, y, 1) for x, y in rng.sample(
                [(x, y) for x in range(-3, 4) for y in range(-3, 4)],
                rng.randint(1, 3))]
            if kind == 1:
                e[0] = P(rng.randint(-4, 4), 1, 0)
        rows = [power_vector(p, d) for p in e]
        independent = linalg.rank(rows) == len(rows)
        want = (independent, independent and grassmann_disjoint(rows, basis))
        certs = _genericity_certs(e, d, basis)
        assert [c.name for c in certs] == ["off-curve-independent",
                                           "off-curve-span-disjoint"]
        assert tuple(c.passed for c in certs) == want
        seen.add(want)
    assert seen == {(True, True), (True, False), (False, False)}


def test_curve_meet_point_against_line_span():
    line = CurveSpec.line(P(1, 0, 0), P(0, 1, 0))
    d = 3
    g = pow_sum([P(1, 0, 0), P(1, 1, 0)], [1, 1], d)
    form = pow_sum([P(1, 0, 0), P(1, 1, 0), P(0, 0, 1)], [1, 1, 2], d)
    got = curve_meet_point(form, PointSet.of([P(0, 0, 1)]),
                           line_power_basis(line, d), d)
    assert got == g.canonical()
    stray = curve_meet_point(pow_form(P(1, 1, 1), d), PointSet.of(
        [P(0, 0, 1)]), line_power_basis(line, d), d)
    assert isinstance(stray, NotUnique)
