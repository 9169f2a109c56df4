"""Spans of Veronese images: evaluation matrices, h1, restriction to curves.

Everything here reduces to exact linear algebra over Q(i).  A projective
point p corresponds to the d-th power form (p.x)^d, whose coefficient
vector in the monomial basis is power_vector(p, d); a form P lies in the
span of the Veronese image of S exactly when its coefficient vector is a
linear combination of those vectors.  Scaling a vector leaves its span
alone, so h1 ranks (linalg.row_rank) and membership eliminates
(linalg.pivots) the cached power_row(p, d), the same vector in Gaussian
integers, as it is.  The failure of a finite set to impose
independent conditions in degree d is the single number

    h1 = (number of points) - 1 - (projective dimension of the span)

and that number drives every hypothesis check downstream.

The powers of the points of a curve span the graded pieces of
(sum_i images_i(t) x_i)^d, where images_i(t) is coordinate i along the
curve's parameter: u_i + v_i t on the line through u and v, and the plain
coefficients of the i-th quadric on a parametrized conic.  Piece k is
sum_e multinomial(d, e) row_e[k] x^e, read off forms.substitution_rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from . import linalg
from .binary import BinaryForm
from .forms import (HomogeneousForm, gaussian_power, monomial_exponents,
                    multinomial, substitute, substitution_rows)
from .points import (LINE, REDUCIBLE_CONIC, SMOOTH_CONIC, TWO_DISJOINT_LINES,
                     CurveSpec, PointSet, ProjectivePoint, _CONIC_EXPS,
                     _conic_matrix, _eval_conic, _quad_apply)
from .scalars import ONE, ZERO, Scalar


@lru_cache(maxsize=None)
def power_row(p: ProjectivePoint, d: int) -> tuple[linalg.GInt, ...]:
    """(z.x)^d in Gaussian integers, z = p.zcoords = z_lead * p.coords, so
    power_vector(p, d) times z_lead^d.  Shared cached tuples: never mutate."""
    return gaussian_power(p.zcoords, d)


def power_vector(p: ProjectivePoint, d: int) -> list[Scalar]:
    """Coefficient vector of (p.x)^d in the fixed monomial order (uncached;
    z_lead is a positive integer, as the canonical point leads with 1)."""
    scale = (next(z for z in p.zcoords if z != (0, 0))[0] ** d, 0)
    return [ZERO if z == (0, 0) else linalg._quotient(z, scale)
            for z in power_row(p, d)]


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
    # scaled columns span the same lines, so in_span's answer is unchanged
    target = linalg._clear_row(form.coeff_vector())
    rows = list(zip(*[power_row(p, d) for p in s], target))
    return len(s) not in linalg.pivots(rows)


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
    found = curve_meet_point(form, e, [power_vector(p, d) for p in t], d)
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
    combined = a.union(b)
    off = PointSet.of(p for p in combined if not curve.contains(p))
    if len(off) > 0:
        report = h1_ideal(off, d - t)
        if report.h1 > 0:
            return HypothesisFails(report.h1)
    a_off = [p for p in a if not curve.contains(p)]
    b_off = [p for p in b if not curve.contains(p)]
    return Conclusion(sorted(p.sort_key() for p in a_off)
                      == sorted(p.sort_key() for p in b_off))


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
    rows = []
    for u in monomial_exponents(n, t):
        row = []
        for v in monomial_exponents(n, d - t):
            e = tuple(a + b for a, b in zip(u, v))
            row.append(form.coeff(e) / Scalar.of(multinomial(d, e)))
        rows.append(row)
    return linalg.rank(rows)


# -- power bases along curves ----------------------------------------------------

def _power_basis(images: Sequence[Sequence[Scalar]],
                 d: int) -> list[list[Scalar]]:
    """Coefficient vectors of the t-graded pieces of (sum images_i(t) x_i)^d.

    Piece k is sum_e multinomial(d, e) * row_e[k] * x^e, read off the one
    substitution table of forms.substitution_rows.
    """
    rows = substitution_rows(images, d)
    weights = [Scalar.of(multinomial(d, e))
               for e in monomial_exponents(len(images), d)]
    # the cached bases keep every entry, so zeros stay the shared ZERO
    return [[ZERO if row[k].is_zero else w * row[k]
             for w, row in zip(weights, rows)] for k in range(len(rows[0]))]


@lru_cache(maxsize=512)
def _line_power_basis_cached(line: CurveSpec,
                             d: int) -> tuple[tuple[Scalar, ...], ...]:
    u, v = line.line_basis
    basis = _power_basis([[a, b] for a, b in zip(u.coords, v.coords)], d)
    if linalg.rank(basis) != d + 1:
        raise ArithmeticError("line power basis degenerated")
    return tuple(tuple(row) for row in basis)


def line_power_basis(line: CurveSpec, d: int) -> list[list[Scalar]]:
    """d+1 independent vectors spanning the powers of points on a line."""
    if line.kind != LINE:
        raise ValueError("need a line")
    return [list(row) for row in _line_power_basis_cached(line, d)]


@dataclass(frozen=True)
class ConicParametrization:
    """Quadric images of the coordinates under a bijection P^1 -> conic."""
    curve: CurveSpec
    quadrics: tuple[BinaryForm, ...]

    @property
    def is_real(self) -> bool:
        return all(q.is_real for q in self.quadrics)

    def point_at(self, s: Scalar, t: Scalar) -> ProjectivePoint:
        return ProjectivePoint(tuple(q.evaluate(s, t) for q in self.quadrics))


def parametrize_conic(curve: CurveSpec,
                      base: ProjectivePoint) -> ConicParametrization:
    """Parametrize a smooth conic by secant lines through a point on it.

    The pencil of lines through the base point meets the conic in one
    further point each; sweeping the pencil with a parameter line gives
    three quadrics without a common zero, hence a bijection from P^1.
    A real base point on a real conic yields a real parametrization.
    """
    if curve.kind != SMOOTH_CONIC:
        raise ValueError("need a smooth conic")
    n = curve.plane_coordinates(base)
    if n is None or not _eval_conic(curve.conic_coeffs, n).is_zero:
        raise ValueError("base point must lie on the conic")
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
    return ConicParametrization(curve, tuple(ambient))


@lru_cache(maxsize=256)
def _conic_power_basis_cached(param: ConicParametrization,
                              d: int) -> tuple[tuple[Scalar, ...], ...]:
    basis = _power_basis([q.plain_coeffs() for q in param.quadrics], d)
    if linalg.rank(basis) != 2 * d + 1:
        raise ArithmeticError("conic power basis degenerated")
    return tuple(tuple(row) for row in basis)


def conic_power_basis(param: ConicParametrization,
                      d: int) -> list[list[Scalar]]:
    """2d+1 independent vectors spanning the powers of conic points."""
    return [list(row) for row in _conic_power_basis_cached(param, d)]


def pair_power_basis(pair: CurveSpec, d: int) -> list[list[Scalar]]:
    """Powers along two disjoint lines: the two line bases, jointly free."""
    if pair.kind != TWO_DISJOINT_LINES:
        raise ValueError("need two disjoint lines")
    basis = (line_power_basis(pair.branches[0], d)
             + line_power_basis(pair.branches[1], d))
    if linalg.rank(basis) != 2 * (d + 1):
        raise ArithmeticError("disjoint lines share power directions")
    return basis


def curve_power_basis(curve: CurveSpec, d: int,
                      param: Optional[ConicParametrization] = None
                      ) -> list[list[Scalar]]:
    if curve.kind == LINE:
        return line_power_basis(curve, d)
    if curve.kind == TWO_DISJOINT_LINES:
        return pair_power_basis(curve, d)
    if curve.kind == SMOOTH_CONIC:
        if param is None or param.curve != curve:
            raise ValueError("smooth conics need their parametrization")
        return conic_power_basis(param, d)
    if curve.kind == REDUCIBLE_CONIC:
        branches = curve.branch_lines()
        if branches is None:
            raise ValueError("branches are not rational")
        left = line_power_basis(branches[0], d)
        right = line_power_basis(branches[1], d)
        basis = linalg.row_space_basis(left + right)
        if len(basis) != 2 * d + 1:
            raise ArithmeticError("reducible conic power span degenerated")
        return basis
    raise ValueError(f"unknown curve kind {curve.kind}")


def restrict_to_line(form: HomogeneousForm, line: CurveSpec) -> BinaryForm:
    """Coordinates of the form along a line, as a binary form.

    The basis is chosen so that a point s*b1 + t*b2 of the line pairs with
    the parameter point [s:t]; ranks and decompositions transfer verbatim.
    """
    sol = linalg.solve_columns(line_power_basis(line, form.degree),
                               list(form.coeff_vector()))
    if sol is None:
        raise ValueError("form does not lie on the line's power span")
    return BinaryForm.from_scaled(sol)


def restrict_to_conic(form: HomogeneousForm,
                      param: ConicParametrization) -> BinaryForm:
    """Coordinates along a parametrized smooth conic, degree doubled."""
    sol = linalg.solve_columns(conic_power_basis(param, form.degree),
                               list(form.coeff_vector()))
    if sol is None:
        raise ValueError("form does not lie on the conic's power span")
    return BinaryForm.from_scaled(sol)


def curve_meet_point(form: HomogeneousForm, anchors: PointSet,
                     curve_basis: Sequence[Sequence[Scalar]], d: int):
    """Single point of span({form} u powers(anchors)) meet a curve span."""
    u_cols = [form.coeff_vector()] + [power_vector(p, d) for p in anchors]
    meet = linalg.span_intersection(u_cols, curve_basis)
    if len(meet) != 1:
        which = "empty" if not meet else "positive-dimensional"
        return NotUnique(f"intersection is {which}")
    return HomogeneousForm.from_coeff_vector(form.num_vars, d,
                                             meet[0]).canonical()
