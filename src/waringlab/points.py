"""Points of P^m over the Gaussian rationals, lines, conics, incidence.

Coordinates are canonical: the first nonzero coordinate is scaled to 1, so
equality of points is tuple equality.  Incidence tests run on cached
primitive Gaussian-integer coordinate vectors, which keeps the hot loops on
plain int arithmetic.

Curves are CurveSpec values of four kinds.  A Line stores the reduced
echelon basis of its span.  A conic (smooth or reducible) stores a plane
(echelon basis rows plus pivot columns) and the six coefficients of a
quadratic form in plane coordinates, scaled so the first nonzero coefficient
is 1.  TwoDisjointLines stores the pair.  Rich-curve search is exhaustive
and exact; see find_rich_lines / find_rich_conics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Optional, Sequence

from . import linalg
from .scalars import ONE, ZERO, Scalar, parse_int
from .univariate import solve_quadratic

GInt = tuple[int, int]


@dataclass(frozen=True)
class ProjectivePoint:
    coords: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        lead = next((c for c in self.coords if not c.is_zero), None)
        if lead is None:
            raise ValueError("projective point needs a nonzero coordinate")
        if lead != ONE:
            object.__setattr__(
                self, "coords", tuple(c / lead for c in self.coords))

    @staticmethod
    def of(*values) -> "ProjectivePoint":
        return ProjectivePoint(tuple(Scalar.of(v) if not isinstance(v, Scalar)
                                     else v for v in values))

    @property
    def m(self) -> int:
        return len(self.coords) - 1

    @property
    def is_real(self) -> bool:
        return all(c.is_real for c in self.coords)

    def conjugate(self) -> "ProjectivePoint":
        return ProjectivePoint(tuple(c.conjugate() for c in self.coords))

    @cached_property
    def zcoords(self) -> tuple[GInt, ...]:
        """Primitive Gaussian-integer representative, for int-only incidence."""
        return _primitive(linalg._clear_row(self.coords))

    def sort_key(self):
        return tuple(c.sort_key() for c in self.coords)

    def to_json(self) -> list:
        return [c.to_json() for c in self.coords]

    @staticmethod
    def from_json(obj: list) -> "ProjectivePoint":
        return ProjectivePoint(tuple(Scalar.from_json(c) for c in obj))


def spanning_rank(points: Sequence[ProjectivePoint]) -> int:
    return linalg.rank([p.coords for p in points])


@dataclass(frozen=True)
class PointSet:
    points: tuple[ProjectivePoint, ...]

    def __post_init__(self) -> None:
        # canonical points are equal exactly when their sort keys are
        unique: dict = {}
        for p in self.points:
            unique.setdefault(p.sort_key(), p)
        object.__setattr__(self, "points",
                           tuple(unique[k] for k in sorted(unique)))
        if self.points:
            m = self.points[0].m
            if any(p.m != m for p in self.points):
                raise ValueError("points live in different spaces")

    @staticmethod
    def of(points: Iterable[ProjectivePoint]) -> "PointSet":
        return PointSet(tuple(points))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p: ProjectivePoint) -> bool:
        return p in self.points

    @property
    def m(self) -> int:
        if not self.points:
            raise ValueError("empty set has no ambient dimension")
        return self.points[0].m

    @property
    def field_tag(self) -> str:
        return "R" if all(p.is_real for p in self.points) else "C"

    def union(self, other: "PointSet") -> "PointSet":
        return PointSet(self.points + other.points)

    def conjugate(self) -> "PointSet":
        return PointSet(tuple(p.conjugate() for p in self.points))

    def is_conjugation_stable(self) -> bool:
        return self.conjugate() == self

    def to_json(self) -> dict:
        return {"m": self.m, "points": [p.to_json() for p in self.points]}

    @staticmethod
    def from_json(obj: dict) -> "PointSet":
        pts = tuple(ProjectivePoint.from_json(p) for p in obj["points"])
        s = PointSet(pts)
        if s.points and s.m != parse_int(obj, "m"):
            raise ValueError("ambient dimension mismatch in point set data")
        return s


# -- curves -------------------------------------------------------------------

LINE = "Line"
SMOOTH_CONIC = "SmoothConic"
REDUCIBLE_CONIC = "ReducibleConic"
TWO_DISJOINT_LINES = "TwoDisjointLines"


@dataclass(frozen=True, eq=False)
class CurveSpec:
    kind: str
    line_basis: Optional[tuple[ProjectivePoint, ProjectivePoint]] = None
    plane_rows: Optional[tuple[tuple[Scalar, ...], ...]] = None
    plane_pivots: Optional[tuple[int, ...]] = None
    conic_coeffs: Optional[tuple[Scalar, ...]] = None
    branches: Optional[tuple["CurveSpec", "CurveSpec"]] = None

    # ---- constructors ----

    @staticmethod
    def line(p: ProjectivePoint, q: ProjectivePoint) -> "CurveSpec":
        if p.m != q.m:
            raise ValueError("points live in different spaces")
        rows = linalg.row_space_basis([list(p.coords), list(q.coords)])
        if len(rows) != 2:
            raise ValueError("line needs two independent points")
        basis = (ProjectivePoint(tuple(rows[0])),
                 ProjectivePoint(tuple(rows[1])))
        return CurveSpec(LINE, line_basis=basis)

    @staticmethod
    def conic(plane_points: Sequence[ProjectivePoint],
              coeffs: Sequence[Scalar],
              branches: Optional[tuple["CurveSpec", "CurveSpec"]] = None
              ) -> "CurveSpec":
        reduced, pivots = linalg.rref([list(p.coords) for p in plane_points])
        rows = tuple(tuple(r) for r in reduced[:len(pivots)])
        if len(rows) != 3:
            raise ValueError("conic plane needs rank 3")
        vec = list(coeffs)
        if len(vec) != 6:
            raise ValueError("conic needs 6 coefficients")
        lead = next((c for c in vec if not c.is_zero), None)
        if lead is None:
            raise ValueError("conic form must be nonzero")
        vec = [c / lead for c in vec]
        r = _conic_matrix_rank(vec)
        if r == 3:
            kind = SMOOTH_CONIC
        elif r == 2:
            kind = REDUCIBLE_CONIC
        else:
            raise ValueError("double lines are out of scope")
        return CurveSpec(kind, plane_rows=rows, plane_pivots=tuple(pivots),
                         conic_coeffs=tuple(vec), branches=branches)

    @staticmethod
    def reducible_from_lines(l1: "CurveSpec", l2: "CurveSpec") -> "CurveSpec":
        """The conic l1 + l2 for two distinct coplanar (meeting) lines."""
        pts = list(l1.line_basis) + list(l2.line_basis)
        reduced, pivots = linalg.rref([p.coords for p in pts])
        if len(pivots) != 3:
            raise ValueError("lines are not coplanar or are equal")
        rows = tuple(tuple(r) for r in reduced[:3])
        eq1 = _line_equation_in_plane(l1, rows, tuple(pivots))
        eq2 = _line_equation_in_plane(l2, rows, tuple(pivots))
        coeffs = _symmetric_product(eq1, eq2)
        return CurveSpec.conic([ProjectivePoint(r) for r in rows], coeffs,
                               branches=(l1, l2))

    @staticmethod
    def two_lines(l1: "CurveSpec", l2: "CurveSpec") -> "CurveSpec":
        if l1.kind != LINE or l2.kind != LINE:
            raise ValueError("need two lines")
        if spanning_rank(list(l1.line_basis) + list(l2.line_basis)) != 4:
            raise ValueError("lines are not disjoint")
        pair = tuple(sorted((l1, l2), key=lambda l: l.sort_key()))
        return CurveSpec(TWO_DISJOINT_LINES, branches=pair)

    # ---- identity ----

    def sort_key(self):
        if self.kind == LINE:
            return (0,) + tuple(p.sort_key() for p in self.line_basis)
        if self.kind in (SMOOTH_CONIC, REDUCIBLE_CONIC):
            tag = 1 if self.kind == SMOOTH_CONIC else 2
            return ((tag,)
                    + tuple(tuple(c.sort_key() for c in r)
                            for r in self.plane_rows)
                    + tuple(c.sort_key() for c in self.conic_coeffs))
        return (3,) + tuple(l.sort_key() for l in self.branches)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CurveSpec):
            return NotImplemented
        return self.sort_key() == other.sort_key()

    def __hash__(self) -> int:
        return hash(self.sort_key())

    # ---- geometry ----

    @property
    def m(self) -> int:
        if self.kind == LINE:
            return self.line_basis[0].m
        if self.kind == TWO_DISJOINT_LINES:
            return self.branches[0].m
        return len(self.plane_rows[0]) - 1

    @cached_property
    def _line_equations(self) -> tuple[tuple[GInt, ...], ...]:
        rows = [list(p.coords) for p in self.line_basis]
        return tuple(tuple(linalg._clear_row(vec))
                     for vec in linalg.nullspace(rows))

    def contains(self, p: ProjectivePoint) -> bool:
        if self.kind == LINE:
            return _incident(self._line_equations, p.zcoords)
        if self.kind == TWO_DISJOINT_LINES:
            return self.branches[0].contains(p) or self.branches[1].contains(p)
        u = self.plane_coordinates(p)
        if u is None:
            return False
        return _eval_conic(self.conic_coeffs, u).is_zero

    def plane_coordinates(self, p: ProjectivePoint) -> Optional[tuple[Scalar, ...]]:
        return _plane_coordinates(self.plane_rows, self.plane_pivots, p)

    def point_from_plane(self, u: Sequence[Scalar]) -> ProjectivePoint:
        return ProjectivePoint(_from_plane(self.plane_rows, u))

    def point_at(self, s: Scalar, t: Scalar) -> ProjectivePoint:
        """Point s*b1 + t*b2 of a line."""
        if self.kind != LINE:
            raise ValueError("point_at is for lines")
        b1, b2 = self.line_basis
        return ProjectivePoint(tuple(s * a + t * b
                                     for a, b in zip(b1.coords, b2.coords)))

    @property
    def is_real(self) -> bool:
        if self.kind == LINE:
            return all(p.is_real for p in self.line_basis)
        if self.kind == TWO_DISJOINT_LINES:
            a, b = self.branches
            if a.is_real and b.is_real:
                return True
            return _conj_line(a) == b
        return (all(all(c.is_real for c in r) for r in self.plane_rows)
                and all(c.is_real for c in self.conic_coeffs))

    @cached_property
    def node(self) -> Optional[ProjectivePoint]:
        """Singular point of a reducible conic."""
        if self.kind != REDUCIBLE_CONIC:
            return None
        mat = _conic_matrix(self.conic_coeffs)
        kernel = linalg.nullspace([list(r) for r in mat])
        if len(kernel) != 1:
            raise ArithmeticError("a reducible conic needs a single node")
        return self.point_from_plane(kernel[0])

    def branch_lines(self) -> Optional[tuple["CurveSpec", "CurveSpec"]]:
        """The two lines of a reducible conic, when they split over Q(i)."""
        if self.kind != REDUCIBLE_CONIC:
            return None
        if self.branches is not None:
            return self.branches
        mat = _conic_matrix(self.conic_coeffs)
        n = linalg.nullspace([list(r) for r in mat])[0]
        basis3 = [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]
        comp = []
        for e in basis3:
            if linalg.rank([n] + comp + [e]) == len(comp) + 2:
                comp.append(e)
            if len(comp) == 2:
                break
        e1, e2 = comp
        alpha = _quad_apply(mat, e1, e1)
        beta = Scalar.of(2) * _quad_apply(mat, e1, e2)
        gamma = _quad_apply(mat, e2, e2)
        dirs: list[list[Scalar]] = []
        if alpha.is_zero:
            dirs.append(e1)
            if gamma.is_zero:
                dirs.append(e2)
            else:
                z = -gamma / beta
                dirs.append([z * a + b for a, b in zip(e1, e2)])
        else:
            roots = solve_quadratic(alpha, beta, gamma)
            if roots is None:
                return None
            for z in roots:
                dirs.append([z * a + b for a, b in zip(e1, e2)])
        node = self.point_from_plane(n)
        lines = []
        for v in dirs:
            q = self.point_from_plane(v)
            lines.append(CurveSpec.line(node, q))
        if lines[0] == lines[1]:
            return None
        pair = tuple(sorted(lines, key=lambda l: l.sort_key()))
        object.__setattr__(self, "branches", pair)
        return pair

    # ---- serialization ----

    def to_json(self) -> dict:
        if self.kind == LINE:
            return {"kind": LINE,
                    "basis": [p.to_json() for p in self.line_basis]}
        if self.kind == TWO_DISJOINT_LINES:
            return {"kind": TWO_DISJOINT_LINES,
                    "lines": [l.to_json() for l in self.branches]}
        out = {"kind": self.kind,
               "plane": [list(map(lambda c: c.to_json(), r))
                         for r in self.plane_rows],
               "conic": [c.to_json() for c in self.conic_coeffs]}
        if self.branches is not None:
            out["branches"] = [l.to_json() for l in self.branches]
        return out

    @staticmethod
    def from_json(obj: dict) -> "CurveSpec":
        kind = obj["kind"]
        if kind == LINE:
            p, q = (ProjectivePoint.from_json(x) for x in obj["basis"])
            return CurveSpec.line(p, q)
        if kind == TWO_DISJOINT_LINES:
            l1, l2 = (CurveSpec.from_json(x) for x in obj["lines"])
            return CurveSpec.two_lines(l1, l2)
        plane = [ProjectivePoint(tuple(Scalar.from_json(c) for c in r))
                 for r in obj["plane"]]
        coeffs = [Scalar.from_json(c) for c in obj["conic"]]
        branches = None
        if "branches" in obj:
            l1, l2 = (CurveSpec.from_json(x) for x in obj["branches"])
            branches = tuple(sorted((l1, l2), key=lambda l: l.sort_key()))
        return CurveSpec.conic(plane, coeffs, branches=branches)


def _conj_line(l: CurveSpec) -> CurveSpec:
    return CurveSpec.line(*(p.conjugate() for p in l.line_basis))


def _primitive(vec: Sequence[GInt]) -> tuple[GInt, ...]:
    """vec divided by the gcd of all its integer parts."""
    content = gcd(*(abs(x) for pair in vec for x in pair))
    if content > 1:
        return tuple((a // content, b // content) for a, b in vec)
    return tuple(vec)


def _incident(eqs: Sequence[Sequence[GInt]], z: Sequence[GInt]) -> bool:
    """Whether the Gaussian-integer point z satisfies every equation."""
    for eq in eqs:
        re = sum(a * x - b * y for (a, b), (x, y) in zip(eq, z))
        im = sum(a * y + b * x for (a, b), (x, y) in zip(eq, z))
        if re or im:
            return False
    return True


_CONIC_EXPS = ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))


def _monomial_eval(u: Sequence[Scalar], exp) -> Scalar:
    term = ONE
    for v, e in zip(u, exp):
        for _ in range(e):
            term = term * v
    return term


def _conic_row(u: Sequence[Scalar]) -> list[Scalar]:
    """The six conic monomials at plane coordinates u, in _CONIC_EXPS order."""
    return [_monomial_eval(u, e) for e in _CONIC_EXPS]


def _eval_conic(coeffs: Sequence[Scalar], u: Sequence[Scalar]) -> Scalar:
    acc = ZERO
    for c, v in zip(coeffs, _conic_row(u)):
        acc = acc + c * v
    return acc


def _conic_matrix(coeffs: Sequence[Scalar]) -> tuple[tuple[Scalar, ...], ...]:
    a, b, c, d, e, f = coeffs
    half = Scalar.of(Fraction(1, 2))
    return ((a, b * half, c * half),
            (b * half, d, e * half),
            (c * half, e * half, f))


def _conic_matrix_rank(coeffs: Sequence[Scalar]) -> int:
    return linalg.rank([list(r) for r in _conic_matrix(coeffs)])


def _quad_apply(mat, u, v) -> Scalar:
    acc = ZERO
    for i in range(3):
        for j in range(3):
            if not u[i].is_zero and not v[j].is_zero:
                acc = acc + u[i] * mat[i][j] * v[j]
    return acc


def _symmetric_product(eq1: Sequence[Scalar],
                       eq2: Sequence[Scalar]) -> list[Scalar]:
    """Coefficients of (eq1 . u)(eq2 . u) in the fixed conic monomial order."""
    a0, a1, a2 = eq1
    b0, b1, b2 = eq2
    return [a0 * b0,
            a0 * b1 + a1 * b0,
            a0 * b2 + a2 * b0,
            a1 * b1,
            a1 * b2 + a2 * b1,
            a2 * b2]


def _from_plane(rows, u: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """The point with coordinates u in the plane's echelon basis rows."""
    out = [ZERO] * len(rows[0])
    for ui, row in zip(u, rows):
        if not ui.is_zero:
            out = [a + ui * b for a, b in zip(out, row)]
    return tuple(out)


def _plane_coordinates(rows, pivots, p: ProjectivePoint
                       ) -> Optional[tuple[Scalar, ...]]:
    """Coordinates of p in the plane's echelon basis, or None if off-plane."""
    u = tuple(p.coords[j] for j in pivots)
    return u if _from_plane(rows, u) == p.coords else None


def _line_equation_in_plane(line: CurveSpec, rows, pivots) -> list[Scalar]:
    """The linear form on plane coordinates cutting out the given line."""
    pts = [_plane_coordinates(rows, pivots, p) for p in line.line_basis]
    if None in pts:
        raise ValueError("line does not lie in the plane")
    kernel = linalg.nullspace(pts)
    if len(kernel) != 1:
        raise ArithmeticError("line basis does not span a line")
    return kernel[0]


# -- set vs curve -------------------------------------------------------------

def split_on_curve(s: PointSet, curve: CurveSpec) -> tuple[PointSet, PointSet]:
    if len(s) and curve.m != s.m:
        raise ValueError("curve and set live in different spaces")
    on = tuple(p for p in s if curve.contains(p))
    off = tuple(p for p in s if not curve.contains(p))
    return PointSet(on), PointSet(off)


def find_rich_lines(s: PointSet,
                    threshold: int) -> list[tuple[CurveSpec, int]]:
    """Every line through >= threshold points of s, sorted by count then key."""
    if threshold < 2:
        raise ValueError("threshold must be at least 2")
    seen: dict = {}
    pts = list(s)
    for p, q in itertools.combinations(pts, 2):
        line = CurveSpec.line(p, q)
        key = line.sort_key()
        if key in seen:
            continue
        count = sum(1 for x in pts if line.contains(x))
        seen[key] = (line, count)
    out = [(line, c) for line, c in seen.values() if c >= threshold]
    out.sort(key=lambda pair: (-pair[1], pair[0].sort_key()))
    return out


def _conic_through(points5: Sequence[ProjectivePoint],
                   pivots) -> Optional[list[Scalar]]:
    """The unique conic through five coplanar points, or None if undetermined."""
    kernel = linalg.nullspace(
        [_conic_row([p.coords[j] for j in pivots]) for p in points5])
    if len(kernel) != 1:
        return None
    return kernel[0]


def _planes_of(s: PointSet,
               min_members: int) -> list[tuple[tuple, tuple, list[ProjectivePoint]]]:
    """Planes spanned by triples of s holding >= min_members points of s."""
    pts = list(s)
    if len(pts) < min_members:
        return []
    if s.m == 2:
        rows = ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE))
        return [(rows, (0, 1, 2), pts)]
    seen = set()
    out = []
    for triple in itertools.combinations(pts, 3):
        if spanning_rank(triple) != 3:
            continue
        # the nullspace is read off the RREF, so it names the plane
        eqs = tuple(tuple(linalg._clear_row(v))
                    for v in linalg.nullspace([p.coords for p in triple]))
        if eqs in seen:
            continue
        seen.add(eqs)
        members = [p for p in pts if _incident(eqs, p.zcoords)]
        if len(members) < min_members:
            continue
        reduced, pivots = linalg.rref([list(p.coords) for p in triple])
        rows = tuple(tuple(r) for r in reduced[:3])
        out.append((rows, tuple(pivots), members))
    return out


def find_rich_conics(s: PointSet,
                     threshold: int) -> list[tuple[CurveSpec, int]]:
    """All point-determined conics with >= threshold incidences in s.

    Smooth candidates: a conic missing at most n-threshold points of an
    n-point plane cluster must pick up 5 points inside any window of
    n-threshold+5 cluster points, so 5-subsets of that window suffice.
    Reducible candidates: one branch carries >= threshold/2 points, so pairs
    (rich line, any 2-point line) cover them.  Conics not determined by
    their incidences (pencil members) are skipped by construction.
    """
    if threshold < 5:
        raise ValueError("threshold must be at least 5")
    found: dict = {}
    for rows, pivots, members in _planes_of(s, threshold):
        cluster = PointSet(tuple(members))
        pts = list(cluster)
        n = len(pts)
        window = pts[:min(n, n - threshold + 5)]
        candidates: list[list[Scalar]] = []
        for five in itertools.combinations(window, 5):
            vec = _conic_through(five, pivots)
            if vec is not None:
                candidates.append(vec)
        half = (threshold + 1) // 2
        counts: dict = {}
        line_list = []
        for p, q in itertools.combinations(pts, 2):
            l = CurveSpec.line(p, q)
            k = l.sort_key()
            if k in counts:
                continue
            counts[k] = sum(1 for x in pts if l.contains(x))
            line_list.append(l)
        rich = [l for l in line_list
                if counts[l.sort_key()] >= max(2, half)]
        rich.sort(key=lambda l: (-counts[l.sort_key()], l.sort_key()))
        for big in rich:
            nbig = counts[big.sort_key()]
            for other in line_list:
                if other == big:
                    continue
                # the pair cannot reach threshold incidences otherwise
                if nbig + counts[other.sort_key()] < threshold:
                    continue
                try:
                    conic = CurveSpec.reducible_from_lines(big, other)
                except ValueError:
                    continue
                candidates.append(list(conic.conic_coeffs))
        for vec in candidates:
            try:
                conic = CurveSpec.conic(
                    [ProjectivePoint(r) for r in rows], vec)
            except ValueError:
                continue
            key = conic.sort_key()
            if key in found:
                continue
            on = [p for p in pts if conic.contains(p)]
            if len(on) < threshold:
                continue
            rows_on = [_conic_row(conic.plane_coordinates(p)) for p in on]
            if len(linalg.nullspace(rows_on)) != 1:
                continue
            found[key] = (conic, len(on))
    out = list(found.values())
    out.sort(key=lambda pair: (-pair[1], pair[0].sort_key()))
    return out
