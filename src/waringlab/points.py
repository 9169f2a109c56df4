"""Points of P^m over the Gaussian rationals, lines, conics, incidence.

Coordinates are canonical: the first nonzero coordinate is scaled to 1, so
equality of points is tuple equality.  Incidence tests run on cached
primitive Gaussian-integer coordinate vectors (zcoords), which keeps the
hot loops on plain int arithmetic.

Curves are CurveSpec values of four kinds.  A Line stores the reduced
echelon basis of its span.  A conic (smooth or reducible) stores a plane
(echelon basis rows plus pivot columns) and the six coefficients of a
quadratic form in plane coordinates, scaled so the first nonzero coefficient
is 1.  TwoDisjointLines stores the pair.  The echelon rows are the identity
at the pivots, so a point of the plane has its coordinates there as plane
coordinates, and its zcoords there are those times a positive rational,
which a homogeneous conic does not see: conic incidence runs on ints.

Rich-curve search is exhaustive and exact, and it rests on one bound: a
curve through t of n sorted points has its first k points among the first
n - t + k.  So a rich line takes its first point, a rich plane its first
two and a smooth conic its five from that head of the sorted points; see
find_rich_lines / find_rich_conics.  Lines are grouped by a key, in one
dict pass: the Pluecker vector v of two points' zcoords (the 2x2 minors)
times the conjugate of its first nonzero entry, made primitive.  Another
pair on the line gives lambda * v, lambda in Q(i), and the product turns
lambda into |lambda|^2 > 0, which the content drops.  A CurveSpec is built
only for a curve that the search returns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterable, Optional, Sequence

from . import linalg
from .scalars import ONE, ZERO, Scalar, gaussian, parse_int, parse_list
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
        return ProjectivePoint(tuple(map(Scalar.of, values)))

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

    @cached_property
    def _key(self) -> tuple:
        return tuple(c.sort_key() for c in self.coords)

    def sort_key(self):
        return self._key

    def to_json(self) -> list:
        return [c.to_json() for c in self.coords]

    @staticmethod
    def from_json(obj: list) -> "ProjectivePoint":
        return ProjectivePoint(tuple(Scalar.from_json(c)
                                     for c in parse_list(obj, "a point")))


def spanning_rank(points: Sequence[ProjectivePoint]) -> int:
    return linalg.rank([p.coords for p in points])


@dataclass(frozen=True)
class PointSet:
    points: tuple[ProjectivePoint, ...]

    def __post_init__(self) -> None:
        # canonical points are equal exactly when their coordinates are
        object.__setattr__(self, "points", tuple(sorted(
            dict.fromkeys(self.points), key=ProjectivePoint.sort_key)))
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
        rank = linalg.rank([list(r) for r in _conic_matrix(vec)])
        if rank == 3:
            kind = SMOOTH_CONIC
        elif rank == 2:
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
        eq1, eq2 = (_plane_line(_line_key(*([p.zcoords[j] for j in pivots]
                                            for p in line.line_basis)))
                    for line in (l1, l2))
        return CurveSpec.conic([ProjectivePoint(r) for r in rows],
                               _scalars(_symmetric_product(eq1, eq2)),
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
    def _equations(self) -> tuple[tuple[GInt, ...], ...]:
        """Gaussian-integer equations of a line's or a conic's span."""
        rows = ([p.coords for p in self.line_basis] if self.kind == LINE
                else self.plane_rows)
        return tuple(map(tuple, linalg._int_kernel(
            [linalg._clear_row(r) for r in rows])))

    @cached_property
    def _conic_ints(self) -> tuple[GInt, ...]:
        return tuple(linalg._clear_row(self.conic_coeffs))

    def contains(self, p: ProjectivePoint) -> bool:
        if self.kind == TWO_DISJOINT_LINES:
            return self.branches[0].contains(p) or self.branches[1].contains(p)
        z = p.zcoords
        if not _incident(self._equations, z):
            return False
        if self.kind == LINE:
            return True
        # plane coordinates up to a factor (see the module docstring)
        return _incident((self._conic_ints,),
                         _conic_monomials([z[j] for j in self.plane_pivots]))

    def point_from_plane(self, u: Sequence[Scalar]) -> ProjectivePoint:
        return ProjectivePoint(_from_plane(self.plane_rows, u))

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
            roots = solve_quadratic(*linalg._clear([alpha, beta, gamma])[0])
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
        plane = [ProjectivePoint.from_json(r)
                 for r in parse_list(obj["plane"], "'plane'")]
        coeffs = [Scalar.from_json(c)
                  for c in parse_list(obj["conic"], "'conic'")]
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


def _canonical(vec: Sequence[GInt]) -> tuple[GInt, ...]:
    """One key for the Gaussian-integer vectors proportional to vec != 0:
    vec times the conjugate of its first nonzero entry, made primitive."""
    lr, li = next(z for z in vec if z != (0, 0))
    return _primitive([(a * lr + b * li, b * lr - a * li) for a, b in vec])


def _line_key(p: Sequence[GInt], q: Sequence[GInt]) -> tuple[GInt, ...]:
    """The canonical key of the line through distinct points p and q: its
    Pluecker vector, the 2x2 minors p_a q_b - p_b q_a for a < b."""
    out = []
    for a, b in itertools.combinations(range(len(p)), 2):
        (pr, pi), (qr, qi) = p[a], q[b]
        (sr, si), (tr, ti) = p[b], q[a]
        out.append((pr * qr - pi * qi - sr * tr + si * ti,
                    pr * qi + pi * qr - sr * ti - si * tr))
    return _canonical(out)


def _incident(eqs: Sequence[Sequence[GInt]], z: Sequence[GInt]) -> bool:
    """Whether the Gaussian-integer point z satisfies every equation."""
    for eq in eqs:
        re = sum(a * x - b * y for (a, b), (x, y) in zip(eq, z))
        im = sum(a * y + b * x for (a, b), (x, y) in zip(eq, z))
        if re or im:
            return False
    return True


_CONIC_EXPS = ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
# the index pairs of the monomials of _CONIC_EXPS, in the same order
_CONIC_PAIRS = tuple(itertools.combinations_with_replacement(range(3), 2))


def _conic_monomials(u: Sequence[GInt]) -> list[GInt]:
    """The six conic monomials at Gaussian-integer plane coordinates u."""
    return [_gmul(u[a], u[b]) for a, b in _CONIC_PAIRS]


def _conic_matrix(coeffs: Sequence[Scalar]) -> tuple[tuple[Scalar, ...], ...]:
    a, b, c, d, e, f = coeffs
    half = gaussian(1, 0, 2)
    return ((a, b * half, c * half),
            (b * half, d, e * half),
            (c * half, e * half, f))


def _quad_apply(mat, u, v) -> Scalar:
    acc = ZERO
    for i in range(3):
        for j in range(3):
            if not u[i].is_zero and not v[j].is_zero:
                acc = acc + u[i] * mat[i][j] * v[j]
    return acc


def _gmul(x: GInt, y: GInt) -> GInt:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _symmetric_product(eq1: Sequence[GInt],
                       eq2: Sequence[GInt]) -> list[GInt]:
    """Coefficients of (eq1 . u)(eq2 . u) in the fixed conic monomial order."""
    out = []
    for a, b in _CONIC_PAIRS:
        (xr, xi), (yr, yi) = _gmul(eq1[a], eq2[b]), _gmul(eq1[b], eq2[a])
        out.append((xr + yr, xi + yi) if a != b else (xr, xi))
    return out


def _plane_line(key: Sequence[GInt]) -> list[GInt]:
    """The equation of the line with this key in plane coordinates: up to
    a factor, the cross product of two of its points."""
    w01, (r, i), w12 = key
    return [w12, (-r, -i), w01]


def _scalars(vec: Sequence[GInt]) -> list[Scalar]:
    return [Scalar(re, im) for re, im in vec]


def _from_plane(rows, u: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """The point with coordinates u in the plane's echelon basis rows."""
    out = [ZERO] * len(rows[0])
    for ui, row in zip(u, rows):
        if not ui.is_zero:
            out = [a + ui * b for a, b in zip(out, row)]
    return tuple(out)


# -- set vs curve -------------------------------------------------------------

def split_on_curve(s: PointSet, curve: CurveSpec) -> tuple[PointSet, PointSet]:
    if len(s) and curve.m != s.m:
        raise ValueError("curve and set live in different spaces")
    on: list[ProjectivePoint] = []
    off: list[ProjectivePoint] = []
    for p in s:
        (on if curve.contains(p) else off).append(p)
    return PointSet(tuple(on)), PointSet(tuple(off))


def _line_groups(zs: Sequence[Sequence[GInt]],
                 stop: int) -> dict[tuple, list[int]]:
    """The points on each line through two of zs whose first point has an
    index below stop, as indices by line key, from one dict pass.

    Head point i is keyed against every later point.  A key that an earlier
    head point holds names a line through it, whose group is whole already.
    """
    groups: dict = {}
    for i in range(stop):
        local: dict = {}
        for j in range(i + 1, len(zs)):
            key = _line_key(zs[i], zs[j])
            if key not in groups:
                local.setdefault(key, [i]).append(j)
        groups.update(local)
    return groups


def find_rich_lines(s: PointSet,
                    threshold: int) -> list[tuple[CurveSpec, int]]:
    """Every line through >= threshold points of s, sorted by count then key."""
    if threshold < 2:
        raise ValueError("threshold must be at least 2")
    pts = list(s)
    # a rich line's first point is among the first n - threshold + 1
    groups = _line_groups([p.zcoords for p in pts], len(pts) - threshold + 1)
    out = [(CurveSpec.line(pts[g[0]], pts[g[1]]), len(g))
           for g in groups.values() if len(g) >= threshold]
    out.sort(key=lambda pair: (-pair[1], pair[0].sort_key()))
    return out


def _planes_of(s: PointSet,
               min_members: int) -> list[tuple[tuple, tuple, list[ProjectivePoint]]]:
    """Planes spanned by triples of s holding >= min_members points of s.

    A rich plane's first two members lie in the head, and its members span
    it, so a later member lies off their line and completes a visited triple.
    """
    pts = list(s)
    if len(pts) < min_members:
        return []
    if s.m == 2:
        rows = ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE))
        return [(rows, (0, 1, 2), pts)]
    seen = set()
    out = []
    for i, j in itertools.combinations(range(len(pts) - min_members + 2), 2):
        for x in pts[j + 1:]:
            triple = (pts[i], pts[j], x)
            # a collinear triple leaves an (m-1)-dimensional kernel; the
            # kernel of a plane is read off the RREF, so it names the plane
            kernel = linalg._int_kernel([list(p.zcoords) for p in triple])
            if len(kernel) != s.m - 2:
                continue
            eqs = tuple(_canonical(v) for v in kernel)
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

    Smooth candidates come from 5-subsets of each rich plane's head.
    Reducible candidates: one branch carries >= threshold/2 points, so pairs
    (rich line, any 2-point line) cover them.  Conics not determined by
    their incidences (pencil members) are skipped by construction.  All of
    it runs on the members' zcoords at the plane's pivots.
    """
    if threshold < 5:
        raise ValueError("threshold must be at least 5")
    found = []
    half = (threshold + 1) // 2
    for rows, pivots, members in _planes_of(s, threshold):
        us = [[p.zcoords[j] for j in pivots] for p in members]
        monomials = [_conic_monomials(u) for u in us]
        candidates: list[list[GInt]] = []
        head = monomials[:len(monomials) - threshold + 5]
        for five in itertools.combinations(head, 5):
            # the conic through five points, when they fix it
            kernel = linalg._int_kernel([list(r) for r in five])
            if len(kernel) == 1:
                candidates.append(kernel[0])
        # sorted by count, so the rich branches form a prefix
        lines = sorted(_line_groups(us, len(us) - 1).items(),
                       key=lambda item: len(item[1]), reverse=True)
        for big_key, big in lines:
            if len(big) < half:
                break
            for other_key, other in lines:
                # the pair cannot reach threshold incidences otherwise
                if len(big) + len(other) < threshold:
                    break
                if other is not big:
                    candidates.append(_symmetric_product(
                        _plane_line(big_key), _plane_line(other_key)))
        # a conic spans its plane, so no other plane finds it again
        tried = set()
        for vec in candidates:
            key = _canonical(vec)
            if key in tried:
                continue
            tried.add(key)
            on = [row for row in monomials if _incident((vec,), row)]
            # rank 5 on its points: the points determine the conic, which
            # is then no double line either
            if len(on) >= threshold and linalg.row_rank(on) == 5:
                conic = CurveSpec.conic(
                    [ProjectivePoint(r) for r in rows], _scalars(vec))
                found.append((conic, len(on)))
    found.sort(key=lambda pair: (-pair[1], pair[0].sort_key()))
    return found
