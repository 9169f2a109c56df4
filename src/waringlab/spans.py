"""Spans of Veronese images: evaluation matrices, h1, restriction to curves.

Everything here reduces to exact linear algebra over Q(i).  A projective
point p corresponds to the d-th power form (p.x)^d; a form P lies in the
span of the Veronese image of S exactly when its coefficient vector is a
linear combination of those vectors.  Scaling a vector leaves its span
alone, so every span question reads the cached power_row(p, d), the
power's coefficient vector times a positive integer, in Gaussian integers
and as it is: h1 ranks (linalg.row_rank), membership compares the rank
with and without the form's cleared vector (linalg.row_rank again), and
meets intersect (linalg.span_intersection).  The
failure of a finite set to impose independent conditions in degree d is
the single number

    h1 = (number of points) - 1 - (projective dimension of the span)

and that number drives every hypothesis check downstream.

A CurveParametrization is the one map [s:t] -> point of a curve, its
coordinate images_i as binary forms: u_i s + v_i t on the line through u
and v, the i-th quadric on a parametrized conic.  The powers of the curve's
points span the graded pieces of (sum_i images_i(t) x_i)^d (power_basis),
and a form in that span restricts to a binary form (restrict_to_curve)
whose decompositions embed back through the same map (point).

A power basis is one table and a scale: its pieces are Gaussian-integer
vectors, the scale L^d of forms.substitution_rows times the true pieces.
Spans, meets and splits read the pieces as they are.  A restriction is
one linalg.solve_columns on the pieces, which multiplies the scale back
in, once per coefficient.  The catalecticant bound
eliminates integer entries too: L d! times c_e / multinomial(d, e).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from . import linalg
from .binary import BinaryForm
from .forms import (HomogeneousForm, gaussian_power, monomial_exponents,
                    multinomial, substitute, substitution_rows)
from .linalg import GInt
from .points import (LINE, SMOOTH_CONIC, TWO_DISJOINT_LINES, CurveSpec,
                     PointSet, ProjectivePoint, _CONIC_EXPS, _conic_matrix,
                     _quad_apply, split_on_curve)
from .scalars import ONE, ZERO, Scalar


@lru_cache(maxsize=None)
def power_row(p: ProjectivePoint, d: int) -> tuple[GInt, ...]:
    """(z.x)^d in Gaussian integers, z = p.zcoords = z_lead * p.coords, so
    z_lead^d times the coefficient vector of (p.x)^d; z_lead is a positive
    integer, as the canonical point leads with 1.  Shared cached tuples:
    never mutate."""
    return gaussian_power(p.zcoords, d)


def power_sum(num_vars: int, d: int, coeffs: Sequence[Scalar],
              points: Sequence[ProjectivePoint]) -> HomogeneousForm:
    """sum_i coeffs[i] * (points[i].x)^d, read off the cached power rows."""
    weights = [c / Scalar.of(next(z for z in p.zcoords if z != (0, 0))[0]
                             ** d) for c, p in zip(coeffs, points)]
    return HomogeneousForm.combination(num_vars, d, weights,
                                       [power_row(p, d) for p in points])


@dataclass(frozen=True)
class SpanReport:
    set_size: int
    span_dim: int
    h1: int
    independent: bool

    def to_json(self) -> dict:
        return {"set_size": self.set_size, "span_dim": self.span_dim,
                "h1": self.h1, "independent": self.independent}


def h1_ideal(s: PointSet, d: int) -> SpanReport:
    """Failure of s to impose independent conditions in degree d."""
    if len(s) == 0:
        raise ValueError("empty point set")
    span_dim = linalg.row_rank([power_row(p, d) for p in s]) - 1
    h1 = len(s) - 1 - span_dim
    return SpanReport(len(s), span_dim, h1, h1 == 0)


def membership(form: HomogeneousForm, s: PointSet, d: int,
               field_tag: str) -> bool:
    """Whether the form lies in the span of d-th powers of the points of s.

    Over R the span is taken with real coefficients, which requires real
    input data; for a real system solvability over R and over C agree,
    so the same rank test answers both questions.
    """
    if form.degree != d or form.num_vars != s.m + 1:
        raise ValueError("degree or ambient dimension mismatch")
    if field_tag == "R":
        if not form.is_real:
            raise ValueError("real membership needs a real form")
        if any(not p.is_real for p in s):
            raise ValueError("real membership needs real points")
    elif field_tag != "C":
        raise ValueError("field must be R or C")
    # a cleared vector spans the same line as the form's own
    rows = [power_row(p, d) for p in s]
    target = linalg._clear_row(form.coeff_vector())
    without, with_target = linalg.row_rank_pair(rows + [target])
    return with_target == without


@dataclass(frozen=True)
class NotUnique:
    reason: str


def unique_intersection_point(form: HomogeneousForm, e: PointSet,
                              t: PointSet, d: int):
    """The single point of span({form} u powers(e)) meet span(powers(t)).

    Returns the intersection as a canonical form when the meet is a single
    projective point, the input form itself when e is empty, and NotUnique
    when the meet is empty or positive-dimensional.  When the inputs are
    real data (real form, conjugation-stable e and t) the result must be
    real; a non-real result raises ArithmeticError.
    """
    if len(e) == 0:
        return form.canonical()
    if any(p in t for p in e):
        raise ValueError("the two point sets must be disjoint")
    found = curve_meet_point(form, e, [power_row(p, d) for p in t], d)
    if (not isinstance(found, NotUnique) and form.is_real
            and e.is_conjugation_stable()
            and t.is_conjugation_stable() and not found.is_real):
        raise ArithmeticError("real data produced a non-real meet point")
    return found


@dataclass(frozen=True)
class HypothesisFails:
    h1: int


@dataclass(frozen=True)
class Conclusion:
    equal: bool


def off_curve_agreement(a: PointSet, b: PointSet, curve: CurveSpec, d: int):
    """Off-curve parts of two sets, compared under the span hypothesis.

    With t the curve degree, a positive h1 of the combined off-curve set in
    degree d - t voids the hypothesis (HypothesisFails); otherwise the two
    off-curve parts are reported equal or not.
    """
    t = 1 if curve.kind == LINE else 2
    if d <= t:
        raise ValueError("need degree larger than the curve degree")
    a_off = split_on_curve(a, curve)[1]
    b_off = split_on_curve(b, curve)[1]
    off = a_off.union(b_off)
    if len(off) > 0:
        report = h1_ideal(off, d - t)
        if report.h1 > 0:
            return HypothesisFails(report.h1)
    return Conclusion(a_off == b_off)


def catalecticant_rank(form: HomogeneousForm, t: Optional[int] = None) -> int:
    """Rank of the degree-(t, d-t) coefficient pairing; rank(P) bounds it.

    Up to invertible column scaling this is the matrix of t-th partial
    derivative operators applied to the form, so its rank never exceeds
    the complex rank.  The default t is the balanced choice floor(d/2).
    """
    d = form.degree
    if t is None:
        t = d // 2
    if not 0 <= t <= d:
        raise ValueError("derivative order out of range")
    n = form.num_vars
    # entry c_e / multinomial(d, e) times L d!, L clearing the coefficients
    cleared = dict(zip(monomial_exponents(n, d),
                       linalg._clear_row(form.coeff_vector())))
    weight = math.factorial(d)
    rows = []
    for u in monomial_exponents(n, t):
        row = []
        for v in monomial_exponents(n, d - t):
            e = tuple(a + b for a, b in zip(u, v))
            re, im = cleared[e]
            w = weight // multinomial(d, e)
            row.append((re * w, im * w))
        rows.append(row)
    return linalg.row_rank(rows)


# -- curves parametrized by P^1 -------------------------------------------------

@dataclass(frozen=True)
class CurveParametrization:
    """Coordinate images of a bijection P^1 -> curve, as binary forms:
    degree 1 along a line, degree 2 along a smooth conic."""
    curve: CurveSpec
    images: tuple[BinaryForm, ...]

    @property
    def is_real(self) -> bool:
        return all(q.is_real for q in self.images)

    def point(self, s: Scalar, t: Scalar) -> tuple[Scalar, ...]:
        """Ambient coordinates of the parameter point [s:t], unscaled."""
        return tuple(q.evaluate(s, t) for q in self.images)


def parametrize_line(line: CurveSpec) -> CurveParametrization:
    """[s:t] -> s*b1 + t*b2 along the line basis (b1, b2)."""
    if line.kind != LINE:
        raise ValueError("need a line")
    u, v = line.line_basis
    return CurveParametrization(line, tuple(
        BinaryForm.from_plain([a, b]) for a, b in zip(u.coords, v.coords)))


def parametrize_conic(curve: CurveSpec,
                      base: ProjectivePoint) -> CurveParametrization:
    """Parametrize a smooth conic by secant lines through a point on it.

    The pencil of lines through the base point meets the conic in one
    further point each; sweeping the pencil with a parameter line gives
    three quadrics without a common zero, hence a bijection from P^1.
    A real base point on a real conic yields a real parametrization.
    """
    if curve.kind != SMOOTH_CONIC:
        raise ValueError("need a smooth conic")
    if not curve.contains(base):
        raise ValueError("base point must lie on the conic")
    n = tuple(base.coords[j] for j in curve.plane_pivots)
    mat = _conic_matrix(curve.conic_coeffs)
    basis_pair = None
    for i, j in ((0, 1), (0, 2), (1, 2)):
        e1 = tuple(ONE if k == i else ZERO for k in range(3))
        e2 = tuple(ONE if k == j else ZERO for k in range(3))
        if linalg.rank([list(n), list(e1), list(e2)]) == 3:
            basis_pair = (e1, e2)
            break
    if basis_pair is None:
        raise ArithmeticError("no screen line avoids the base point")
    e1, e2 = basis_pair
    q11 = _quad_apply(mat, e1, e1)
    q12 = _quad_apply(mat, e1, e2)
    q22 = _quad_apply(mat, e2, e2)
    b1 = _quad_apply(mat, n, e1)
    b2 = _quad_apply(mat, n, e2)
    two = Scalar.of(2)
    plane_quadrics = []
    for k in range(3):
        # Q(w) n_k - 2 B(n, w) w_k with w = s e1 + t e2, as (s^2, st, t^2)
        c_ss = q11 * n[k] - two * b1 * e1[k]
        c_st = two * q12 * n[k] - two * (b1 * e2[k] + b2 * e1[k])
        c_tt = q22 * n[k] - two * b2 * e2[k]
        plane_quadrics.append(BinaryForm.from_plain([c_ss, c_st, c_tt]))
    if linalg.rank([list(q.plain_coeffs()) for q in plane_quadrics]) != 3:
        raise ArithmeticError("secant parametrization degenerated")
    conic_form = HomogeneousForm.from_coeff_map(
        3, 2, dict(zip(_CONIC_EXPS, curve.conic_coeffs)))
    if any(not c.is_zero for c in substitute(
            conic_form, [q.plain_coeffs() for q in plane_quadrics])):
        raise ArithmeticError("parametrization left the conic")
    ambient = []
    for j in range(curve.m + 1):
        plain = [ZERO, ZERO, ZERO]
        for i, q in enumerate(plane_quadrics):
            for k, c in enumerate(q.plain_coeffs()):
                plain[k] = plain[k] + c * curve.plane_rows[i][j]
        ambient.append(BinaryForm.from_plain(plain))
    return CurveParametrization(curve, tuple(ambient))


class PowerBasis:
    """Gaussian-integer pieces that are scale times the curve's power basis.

    Scaling a vector leaves its span alone, so span questions read the
    pieces as they are; restrictions divide the scale back out.  A plain
    class: a dataclass would add its code generation to every import.
    """

    def __init__(self, pieces: tuple[tuple[GInt, ...], ...],
                 scale: int) -> None:
        self.pieces = pieces
        self.scale = scale


@lru_cache(maxsize=512)
def power_basis(param: CurveParametrization, d: int) -> PowerBasis:
    """deg*d + 1 independent vectors spanning the d-th powers of the curve's
    points, deg being the degree of the images: the coefficient vectors of
    the t-graded pieces of (sum images_i(t) x_i)^d.  Piece k is
    sum_e multinomial(d, e) * row_e[k] * x^e over the one substitution
    table of forms.substitution_rows, kept in Gaussian integers with the
    table's scale.  Shared cached tuples: never mutate.
    """
    rows, scale = substitution_rows(
        [q.plain_coeffs() for q in param.images], d)
    weights = [multinomial(d, e)
               for e in monomial_exponents(len(param.images), d)]
    pieces = tuple(tuple((w * row[k][0], w * row[k][1])
                         for w, row in zip(weights, rows))
                   for k in range(len(rows[0])))
    if linalg.row_rank(pieces) != param.images[0].degree * d + 1:
        noun = "line" if param.curve.kind == LINE else "conic"
        raise ArithmeticError(f"{noun} power basis degenerated")
    return PowerBasis(pieces, scale)


def pair_power_basis(pair: CurveSpec, d: int) -> tuple[tuple[GInt, ...], ...]:
    """Powers along two disjoint lines: the two lines' pieces, jointly free
    (each line keeps its own scale, which spans and splits do not see)."""
    if pair.kind != TWO_DISJOINT_LINES:
        raise ValueError("need two disjoint lines")
    left, right = (power_basis(parametrize_line(line), d).pieces
                   for line in pair.branches)
    if linalg.row_rank(left + right) != 2 * (d + 1):
        raise ArithmeticError("disjoint lines share power directions")
    return left + right


def restrict_to_curve(form: HomogeneousForm,
                      param: CurveParametrization) -> BinaryForm:
    """Coordinates of the form along a parametrized curve, as a binary form
    of degree deg * form.degree.

    The basis is chosen so that the curve point param.point(s, t) pairs
    with the parameter point [s:t]; ranks and decompositions transfer
    verbatim.
    """
    basis = power_basis(param, form.degree)
    sol = linalg.solve_columns(basis.pieces, form.coeff_vector(),
                               basis.scale)
    if sol is None:
        noun = "line" if param.curve.kind == LINE else "conic"
        raise ValueError(f"form does not lie on the {noun}'s power span")
    return BinaryForm.from_scaled(sol)


def curve_meet_point(form: HomogeneousForm, anchors: PointSet,
                     curve_basis: Sequence[Sequence[GInt]], d: int):
    """Single point of span({form} u powers(anchors)) meet a curve span,
    the curve span given by Gaussian-integer vectors."""
    u_cols = ([linalg._clear_row(form.coeff_vector())]
              + [power_row(p, d) for p in anchors])
    meet = linalg.span_intersection(u_cols, curve_basis)
    if len(meet) != 1:
        which = "empty" if not meet else "positive-dimensional"
        return NotUnique(f"intersection is {which}")
    return HomogeneousForm.from_coeff_vector(form.num_vars, d,
                                             meet[0]).canonical()
