"""Ground-truth instance construction for the three structure cases.

An instance is a real form P together with a complex point set S_C, a
larger real point set S_R, and the curve (line, conic, or disjoint line
pair) that carries the disagreement between the two decompositions.  The
engine room is always the same: a real binary form whose real rank
strictly exceeds its complex rank is transplanted onto the curve, its two
Sylvester decompositions become the on-curve points, and a generic real
set E off the curve is added to both sides.

Every property the verifier will later test is recomputed here from
scratch and recorded as a named certificate; nothing is asserted on
faith.  Constraint failures raise ConstraintViolation naming the violated
certificate, and genericity of E is obtained by seeded rejection
sampling, so identical seeds rebuild identical instances.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import linalg
from .binary import BinaryDecomposition, BinaryForm, complex_rank, real_rank
from .forms import HomogeneousForm, substitute
from .points import (LINE, SMOOTH_CONIC, CurveSpec, PointSet,
                     ProjectivePoint, spanning_rank, split_on_curve)
from .scalars import (ONE, ZERO, Scalar, format_rational, gaussian,
                      parse_int)
from .spans import (CurveParametrization, catalecticant_rank, h1_ideal,
                    membership, parametrize_line, power_basis, power_row,
                    power_sum, restrict_to_curve)

CASE_A = "a"
CASE_B = "b"
CASE_C = "c"


class ConstraintViolation(ValueError):
    """A named instance constraint failed; .certificate says which."""

    def __init__(self, certificate: str, message: str) -> None:
        super().__init__(f"{certificate}: {message}")
        self.certificate = certificate


@dataclass(frozen=True)
class Certificate:
    name: str
    passed: bool
    note: str = ""
    data: tuple[tuple[str, str], ...] = ()

    def to_json(self) -> dict:
        out: dict = {"name": self.name, "passed": self.passed}
        if self.note:
            out["note"] = self.note
        if self.data:
            out["data"] = {k: v for k, v in self.data}
        return out

    @staticmethod
    def from_json(obj: dict) -> "Certificate":
        return Certificate(obj["name"], bool(obj["passed"]),
                           obj.get("note", ""),
                           tuple(sorted(obj.get("data", {}).items())))


@dataclass(frozen=True)
class Instance:
    m: int
    d: int
    case_label: str
    seed: int
    form: HomogeneousForm
    s_c: PointSet
    s_r: PointSet
    curve: CurveSpec
    certificates: tuple[Certificate, ...] = ()

    def to_json(self) -> dict:
        return {
            "case": self.case_label,
            "m": self.m,
            "d": self.d,
            "seed": self.seed,
            "P": self.form.to_json(),
            "S_C": self.s_c.to_json(),
            "S_R": self.s_r.to_json(),
            "curve": self.curve.to_json(),
            "certificates": [c.to_json() for c in self.certificates],
        }

    @staticmethod
    def from_json(obj: dict) -> "Instance":
        if obj["case"] not in (CASE_A, CASE_B, CASE_C):
            raise ValueError(f"unknown case label {obj['case']!r}")
        return Instance(
            m=parse_int(obj, "m"), d=parse_int(obj, "d"),
            case_label=obj["case"], seed=parse_int(obj, "seed"),
            form=HomogeneousForm.from_json(obj["P"]),
            s_c=PointSet.from_json(obj["S_C"]),
            s_r=PointSet.from_json(obj["S_R"]),
            curve=CurveSpec.from_json(obj["curve"]),
            certificates=tuple(Certificate.from_json(c)
                               for c in obj.get("certificates", [])))


# -- the gap family ---------------------------------------------------------------

def conjugate_pair_form(degree: int,
                        transplant: Optional[Sequence[int]] = None
                        ) -> BinaryForm:
    """The real form (x+iy)^degree + (x-iy)^degree, optionally moved by GL2.

    Its complex rank is 2 (the two conjugate points) while its real rank
    is the full degree, so it realizes the widest possible rank gap on a
    rational normal curve.  A transplant (a,b,c,e) with ae-bc = +-1
    precomposes with x -> ax+by, y -> cx+ey; real invertible substitution
    preserves both ranks.
    """
    coeffs = []
    for k in range(degree + 1):
        if k % 2:
            coeffs.append(ZERO)
        else:
            coeffs.append(Scalar.of(2 if k % 4 == 0 else -2))
    f = BinaryForm.from_scaled(coeffs)
    if transplant is None:
        return f
    a, b, c, e = transplant
    if a * e - b * c not in (1, -1):
        raise ValueError("transplant must be unimodular")
    return _compose_gl2(f, a, b, c, e)


def _compose_gl2(f: BinaryForm, a: int, b: int, c: int, e: int) -> BinaryForm:
    plain = HomogeneousForm.from_coeff_vector(2, f.degree, f.plain_coeffs())
    return BinaryForm.from_plain(substitute(
        plain, [[Scalar.of(a), Scalar.of(b)], [Scalar.of(c), Scalar.of(e)]]))


# -- embedding decompositions on curves --------------------------------------------

def _embedded_power_sum(raw_points: Sequence[tuple[Scalar, ...]],
                        coeffs: Sequence[Scalar], d: int
                        ) -> tuple[HomogeneousForm, list[ProjectivePoint],
                                   list[Scalar]]:
    """Sum of coeff * (point.x)^d with points canonicalized.

    Canonical representatives rescale each linear form, so each
    coefficient picks up the d-th power of the dropped scale.
    """
    points = [ProjectivePoint(tuple(raw)) for raw in raw_points]
    fixed = [lam * next(c for c in raw if not c.is_zero) ** d
             for raw, lam in zip(raw_points, coeffs)]
    return power_sum(len(raw_points[0]), d, fixed, points), points, fixed


_Ranked = tuple[int, BinaryDecomposition, int, BinaryDecomposition]


@dataclass(frozen=True)
class _Piece:
    """A gap form transplanted onto one curve component."""
    part: HomogeneousForm
    rc: int
    rr: int
    pts_c: list[ProjectivePoint]
    lam_c: list[Scalar]
    pts_r: list[ProjectivePoint]
    lam_r: list[Scalar]


def _gap_decompositions(gap: BinaryForm) -> _Ranked:
    """The certified complex and real ranks and decompositions of a gap
    form, which must be exact and show a real rank gap."""
    rc, dec_c = complex_rank(gap)
    rr, dec_r = real_rank(gap)
    if dec_c.mode != "exact" or dec_r.mode != "exact":
        raise ConstraintViolation(
            "gap-ranks", "gap form needs exact rational decompositions")
    if not dec_c.minimality_certified or not dec_r.minimality_certified:
        raise ConstraintViolation(
            "gap-ranks", "gap form ranks are not certified")
    if rr <= rc:
        raise ConstraintViolation(
            "gap-ranks", f"need a real rank gap, got ({rc}, {rr})")
    return rc, dec_c, rr, dec_r


def _transplant(gap: BinaryForm, param: CurveParametrization, d: int,
                ranked: _Ranked) -> _Piece:
    """Embed both decompositions of a gap form on a curve through
    param.point, and check that the result restricts back to the gap form.
    """
    rc, dec_c, rr, dec_r = ranked
    qc, pts_c, lam_c = _embedded_power_sum(
        [param.point(s, t) for s, t in dec_c.points], dec_c.coeffs, d)
    qr, pts_r, lam_r = _embedded_power_sum(
        [param.point(s, t) for s, t in dec_r.points], dec_r.coeffs, d)
    if qc != qr:
        raise ArithmeticError("two transplants of one form disagree")
    if restrict_to_curve(qc, param) != gap:
        raise ArithmeticError("transplant does not restrict back")
    return _Piece(qc, rc, rr, pts_c, lam_c, pts_r, lam_r)


def _check_budget(d: int, size_c: int, size_r: int) -> None:
    if size_c + size_r > 3 * d - 1:
        raise ConstraintViolation(
            "budget",
            f"set sizes {size_c}+{size_r} exceed 3d-1 = {3 * d - 1}")
    if size_c >= size_r:
        raise ConstraintViolation(
            "rank-gap", f"need strictly fewer complex points, "
            f"got {size_c} vs {size_r}")


def _witness_cert(pts_c, lam_c, pts_r, lam_r, e_points, e_coeffs,
                  even_d: bool) -> list[Certificate]:
    rows_c = tuple((str(p.to_json()), format_scalar(lam))
                   for p, lam in zip(pts_c, lam_c))
    rows_r = tuple((str(p.to_json()), format_scalar(lam))
                   for p, lam in zip(
                       list(pts_r) + list(e_points),
                       list(lam_r) + list(e_coeffs)))
    certs = [Certificate("construction-witness-complex", True,
                         "coefficients of the complex decomposition",
                         rows_c),
             Certificate("construction-witness-real", True,
                         "coefficients of the real decomposition", rows_r)]
    if even_d:
        signs = ",".join(
            "+" if lam.a > 0 else "-"
            for lam in list(lam_r) + list(e_coeffs))
        certs.append(Certificate(
            "real-coefficient-signs", True,
            "sign vector of the real coefficients; positive magnitudes "
            "stay rational instead of being absorbed as d-th roots",
            (("signs", signs),)))
    return certs


def format_scalar(s: Scalar) -> str:
    return f"{format_rational(s.re)}+{format_rational(s.im)}i"


def _minimality_cert(form: HomogeneousForm, size_c: int) -> Certificate:
    cat = catalecticant_rank(form)
    certified = cat == size_c
    note = ("complex side certified by catalecticant lower bound"
            if certified else
            "structural-only: catalecticant bound below the set size")
    return Certificate("global-complex-minimality", certified, note,
                       (("catalecticant_rank", str(cat)),
                        ("set_size", str(size_c))))


def _common_certs(inst_form: HomogeneousForm, s_c: PointSet, s_r: PointSet,
                  d: int, curve: CurveSpec) -> list[Certificate]:
    certs = []
    ok_c = membership(inst_form, s_c, d, "C")
    ok_r = membership(inst_form, s_r, d, "R")
    certs.append(Certificate("membership-complex", ok_c))
    certs.append(Certificate("membership-real", ok_r))
    if not (ok_c and ok_r):
        raise ConstraintViolation("membership", "P left its own spans")
    union = s_c.union(s_r)
    rep = h1_ideal(union, d)
    certs.append(Certificate(
        "h1-positive", rep.h1 > 0, "",
        (("h1", str(rep.h1)), ("set_size", str(rep.set_size)))))
    if rep.h1 <= 0:
        raise ConstraintViolation("h1-positive", "union imposes "
                                  "independent conditions")
    same = split_on_curve(s_c, curve)[1] == split_on_curve(s_r, curve)[1]
    certs.append(Certificate("off-curve-agreement", same))
    if not same:
        raise ConstraintViolation("off-curve-agreement",
                                  "off-curve parts differ")
    certs.append(Certificate(
        "conjugation-stable", s_c.is_conjugation_stable()
        and s_r.is_conjugation_stable()))
    return certs


def _genericity_certs(e_points: Sequence[ProjectivePoint], d: int,
                      params: Sequence[CurveParametrization]
                      ) -> list[Certificate]:
    """E imposes independent conditions, and its powers meet the powers
    along the arcs params only in zero."""
    if not e_points:
        return [Certificate("off-curve-independent", True, "empty E"),
                Certificate("off-curve-span-disjoint", True, "empty E")]
    rep = h1_ideal(PointSet.of(e_points), d)
    curve_rows = [row for prm in params for row in power_basis(prm, d).pieces]
    # two arcs of a reducible conic share the node's power direction
    curve_dim = (len(curve_rows) if len(params) == 1
                 else linalg.row_rank(curve_rows))
    # E independent: disjoint iff the dimensions add up
    disjoint = rep.independent and linalg.row_rank(
        [power_row(p, d) for p in e_points] + curve_rows
    ) == len(e_points) + curve_dim
    return [Certificate("off-curve-independent", rep.independent, "",
                        (("h1", str(rep.h1)),)),
            Certificate("off-curve-span-disjoint", disjoint)]


# -- the case builders ---------------------------------------------------------------

def _on_curve_union(pieces: Sequence[_Piece]) -> PointSet:
    return PointSet.of([p for pc in pieces for p in pc.pts_c + pc.pts_r])


def _union_threshold(pieces: Sequence[_Piece], need: int,
                     key: str) -> Certificate:
    count = len(_on_curve_union(pieces))
    if count < need:
        raise ConstraintViolation(
            "curve-threshold",
            f"on-curve union {count} is below {key} = {need}")
    return Certificate("curve-threshold", True, "",
                       (("on_curve_union", str(count)), (key, str(need))))


def _build(label: str, m: int, d: int, curve: CurveSpec, arcs,
           e_points: Sequence[ProjectivePoint],
           e_coeffs: Optional[Sequence[Scalar]], seed: int, rank_note: str,
           thresholds: Callable[[list[_Piece]], list[Certificate]]
           ) -> Instance:
    """The construction every case shares, on a validated real curve.

    arcs lists (gap form, parametrization) for each curve component that
    carries a gap; a parametrization of degree deg takes a gap form of
    degree deg * d, and the arcs' power bases span the curve's powers.
    No decomposition point may land on the curve's node, if it has one;
    that is tested on the parameter points' images, before anything is
    embedded.  thresholds checks the curve's richness on the transplanted
    pieces and returns its certificates.
    """
    for gap, param in arcs:
        want = param.images[0].degree * d
        if gap.degree != want or not gap.is_real:
            raise ConstraintViolation(
                "gap-ranks", f"gap forms must be real of degree {want}")
    for p in e_points:
        if not p.is_real:
            raise ConstraintViolation("off-curve", "E must be real")
        if curve.contains(p):
            raise ConstraintViolation("off-curve", "E must avoid the curve")
    ranked = [_gap_decompositions(gap) for gap, _ in arcs]
    size_c = sum(rc for rc, _, _, _ in ranked) + len(e_points)
    size_r = sum(rr for _, _, rr, _ in ranked) + len(e_points)
    _check_budget(d, size_c, size_r)
    node = curve.node
    if node is not None and any(
            ProjectivePoint(param.point(s, t)) == node
            for (_, param), (_, dec_c, _, dec_r) in zip(arcs, ranked)
            for s, t in dec_c.points + dec_r.points):
        raise ConstraintViolation(
            "node-avoidance", "a decomposition point hit the node")
    pieces = [_transplant(gap, param, d, rk)
              for (gap, param), rk in zip(arcs, ranked)]
    rich = thresholds(pieces)
    if e_coeffs is None:
        e_coeffs = [ONE] * len(e_points)
    form = sum((pc.part for pc in pieces[1:]), pieces[0].part)
    form = form + power_sum(m + 1, d, e_coeffs, e_points)
    pts_c = [p for pc in pieces for p in pc.pts_c]
    pts_r = [p for pc in pieces for p in pc.pts_r]
    s_c = PointSet.of(pts_c + list(e_points))
    s_r = PointSet.of(pts_r + list(e_points))
    if len(s_c) != size_c or len(s_r) != size_r:
        raise ConstraintViolation("off-curve",
                                  "E collides with curve points")
    sides = [""] if len(pieces) == 1 else ["_left", "_right"]
    ranks = tuple((kind + side, str(rank)) for side, pc in zip(sides, pieces)
                  for kind, rank in (("complex", pc.rc), ("real", pc.rr)))
    certs = [Certificate("curve-part-ranks", True, rank_note, ranks)]
    certs += rich
    certs.append(Certificate(
        "budget", True, "",
        (("sizes", f"{size_c}+{size_r}"), ("limit", str(3 * d - 1)))))
    certs += _genericity_certs(e_points, d, [param for _, param in arcs])
    if not all(c.passed for c in certs):
        bad = next(c for c in certs if not c.passed)
        raise ConstraintViolation(bad.name, "genericity failure")
    certs += _common_certs(form, s_c, s_r, d, curve)
    certs.append(_minimality_cert(form, size_c))
    certs += _witness_cert(
        pts_c, [lam for pc in pieces for lam in pc.lam_c],
        pts_r, [lam for pc in pieces for lam in pc.lam_r],
        e_points, e_coeffs, d % 2 == 0)
    return Instance(m, d, label, seed, form, s_c, s_r, curve, tuple(certs))


def make_case_a(m: int, d: int, gap_form: BinaryForm,
                e_points: Sequence[ProjectivePoint], line: CurveSpec,
                e_coeffs: Optional[Sequence[Scalar]] = None,
                seed: int = 0) -> Instance:
    """Rank disagreement carried by a real line."""
    if line.kind != LINE or line.m != m:
        raise ConstraintViolation("curve", "need a line in the right space")
    if not line.is_real:
        raise ConstraintViolation("curve", "the line must be real")
    return _build(CASE_A, m, d, line, [(gap_form, parametrize_line(line))],
                  e_points, e_coeffs, seed,
                  "certified binary ranks on the line",
                  lambda pieces: [_union_threshold(pieces, d + 2,
                                                   "d_plus_2")])


def make_case_b(m: int, d: int, gap_form: BinaryForm,
                e_points: Sequence[ProjectivePoint],
                param: CurveParametrization,
                e_coeffs: Optional[Sequence[Scalar]] = None,
                seed: int = 0) -> Instance:
    """Rank disagreement carried by a smooth conic (degree-2d gap form)."""
    curve = param.curve
    if curve.kind != SMOOTH_CONIC or curve.m != m:
        raise ConstraintViolation("curve",
                                  "need a smooth conic in the right space")
    if not curve.is_real or not param.is_real:
        raise ConstraintViolation("curve", "conic and parametrization "
                                  "must be real")
    return _build(CASE_B, m, d, curve, [(gap_form, param)],
                  e_points, e_coeffs, seed,
                  "certified binary ranks on the conic",
                  lambda pieces: [_union_threshold(pieces, 2 * d + 2,
                                                   "two_d_plus_2")])


def make_case_b_reducible(m: int, d: int, gap_left: BinaryForm,
                          gap_right: BinaryForm,
                          e_points: Sequence[ProjectivePoint],
                          line_left: CurveSpec, line_right: CurveSpec,
                          e_coeffs: Optional[Sequence[Scalar]] = None,
                          seed: int = 0) -> Instance:
    """Rank disagreement carried by two concurrent lines (reducible conic)."""
    curve = CurveSpec.reducible_from_lines(line_left, line_right)
    if curve.m != m:
        raise ConstraintViolation("curve", "lines live in the wrong space")
    if not line_left.is_real or not line_right.is_real:
        raise ConstraintViolation("curve", "branches must be real")
    if curve.node is None:
        raise ArithmeticError("concurrent lines without a node")

    def thresholds(pieces: list[_Piece]) -> list[Certificate]:
        union = _on_curve_union(pieces)
        rich = _union_threshold(pieces, 2 * d + 2, "two_d_plus_2")
        counts = [len(split_on_curve(union, branch)[0])
                  for branch in (line_left, line_right)]
        if min(counts) < d + 1:
            raise ConstraintViolation(
                "branch-threshold", f"branch holds {min(counts)} off-node "
                f"points, below d+1 = {d + 1}")
        return [rich, Certificate(
            "branch-threshold", True, "off-node points per branch",
            (("left", str(counts[0])), ("right", str(counts[1])),
             ("d_plus_1", str(d + 1))))]

    return _build(CASE_B, m, d, curve,
                  [(gap_left, parametrize_line(line_left)),
                   (gap_right, parametrize_line(line_right))],
                  e_points, e_coeffs, seed,
                  "certified per-branch binary ranks", thresholds)


def make_case_c(m: int, d: int, gap_left: BinaryForm,
                gap_right: BinaryForm,
                e_points: Sequence[ProjectivePoint],
                line_left: CurveSpec, line_right: CurveSpec,
                e_coeffs: Optional[Sequence[Scalar]] = None,
                seed: int = 0) -> Instance:
    """Rank disagreement split across two disjoint lines (needs m >= 3)."""
    if m < 3:
        raise ConstraintViolation(
            "curve", "disjoint lines need ambient dimension at least 3")
    curve = CurveSpec.two_lines(line_left, line_right)
    if curve.m != m:
        raise ConstraintViolation("curve", "lines live in the wrong space")
    if not curve.is_real:
        raise ConstraintViolation("curve", "both lines must be real")
    left, right = curve.branches

    def thresholds(pieces: list[_Piece]) -> list[Certificate]:
        sizes = [len(_on_curve_union([pc])) for pc in pieces]
        if min(sizes) < d + 2:
            raise ConstraintViolation(
                "curve-threshold", f"a line union has {min(sizes)} points, "
                f"below d+2 = {d + 2}")
        return [Certificate(
            "curve-threshold", True, "both line unions",
            (("left", str(sizes[0])), ("right", str(sizes[1])),
             ("d_plus_2", str(d + 2))))]

    return _build(CASE_C, m, d, curve,
                  [(gap_left, parametrize_line(left)),
                   (gap_right, parametrize_line(right))],
                  e_points, e_coeffs, seed,
                  "certified per-line binary ranks", thresholds)


# -- seeded generation ------------------------------------------------------------

def _child_rng(seed: int, *tags) -> random.Random:
    text = "waringlab:" + str(seed) + ":" + ":".join(str(t) for t in tags)
    digest = hashlib.sha256(text.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


_NUMERATORS = (-3, -2, -1, 1, 2, 3, 0)
_COEFF_PALETTE = (1, 2, -1, -2, Fraction(1, 2), Fraction(-1, 2), 3)


def _random_point(rng: random.Random, m: int) -> ProjectivePoint:
    while True:
        coords = tuple(gaussian(rng.choice(_NUMERATORS), 0,
                                rng.choice((1, 2))) for _ in range(m + 1))
        if any(not c.is_zero for c in coords):
            return ProjectivePoint(coords)


def _random_transplant(rng: random.Random) -> tuple[int, int, int, int]:
    a, b, c, e = 1, 0, 0, 1
    for _ in range(rng.randint(1, 3)):
        kind = rng.randint(0, 2)
        s = rng.choice((-2, -1, 1, 2))
        if kind == 0:
            a, b = a + s * c, b + s * e
        elif kind == 1:
            c, e = c + s * a, e + s * b
        else:
            a, b, c, e = c, e, -a, -b
    return a, b, c, e


def _random_line(rng: random.Random, m: int,
                 through: Optional[ProjectivePoint] = None) -> CurveSpec:
    """A line through two seeded points, or through `through` and one."""
    for _ in range(100):
        p = _random_point(rng, m) if through is None else through
        q = _random_point(rng, m)
        try:
            return CurveSpec.line(p, q)
        except ValueError:
            continue
    raise ArithmeticError("line sampling failed")


def _standard_conic(rng: random.Random, m: int
                    ) -> CurveParametrization:
    """A real smooth conic: the parameter quadrics (s^2, st, t^2) pushed
    into a seeded rational 3-space of the ambient."""
    for _ in range(100):
        pts = [_random_point(rng, m) for _ in range(3)]
        if m == 2:
            pts = [ProjectivePoint.of(1, 0, 0), ProjectivePoint.of(0, 1, 0),
                   ProjectivePoint.of(0, 0, 1)]
        if spanning_rank(pts) != 3:
            continue
        coeffs = (ZERO, ZERO, ONE, -ONE, ZERO, ZERO)
        curve = CurveSpec.conic(pts, coeffs)
        rows = curve.plane_rows
        quadrics = []
        for j in range(m + 1):
            quadrics.append(BinaryForm.from_plain(
                [rows[0][j], rows[1][j], rows[2][j]]))
        return CurveParametrization(curve, tuple(quadrics))
    raise ArithmeticError("conic sampling failed")


def _sample_e(rng: random.Random, m: int, d: int, count: int,
              param: CurveParametrization) -> list[ProjectivePoint]:
    if count == 0:
        return []
    for _ in range(300):
        chosen: list[ProjectivePoint] = []
        guard = 0
        while len(chosen) < count and guard < 200:
            guard += 1
            p = _random_point(rng, m)
            if not p.is_real or param.curve.contains(p) or p in chosen:
                continue
            chosen.append(p)
        if len(chosen) < count:
            continue
        if all(c.passed for c in _genericity_certs(chosen, d, [param])):
            return chosen
    raise ArithmeticError("off-curve sampling failed to reach genericity")


def _e_coeffs(rng: random.Random, count: int, d: int) -> list[Scalar]:
    if d % 2 == 0:
        return [Scalar.of(rng.choice((1, -1))) for _ in range(count)]
    return [Scalar.of(rng.choice(_COEFF_PALETTE)) for _ in range(count)]


def generate_instance(case: str, d: int, m: int, seed: int) -> Instance:
    """Deterministic factory entry point: one instance per (case,d,m,seed)."""
    if d < 3:
        raise ConstraintViolation("budget", "need degree at least 3")
    if m < 2:
        raise ConstraintViolation("curve", "need ambient dimension >= 2")
    if case == CASE_A:
        return _generate_a(d, m, seed)
    if case == CASE_B:
        return _generate_b(d, m, seed)
    if case == CASE_C:
        return _generate_c(d, m, seed)
    raise ConstraintViolation("case", f"unknown case label {case!r}")


def _generate_a(d: int, m: int, seed: int) -> Instance:
    for attempt in range(40):
        rng = _child_rng(seed, "a", d, m, attempt)
        line = _random_line(rng, m)
        if not line.is_real:
            continue
        gap = conjugate_pair_form(d, _random_transplant(rng))
        e_count = rng.randint(0, d - 2)
        try:
            e_pts = _sample_e(rng, m, d, e_count, parametrize_line(line))
            return make_case_a(m, d, gap, e_pts, line,
                               _e_coeffs(rng, len(e_pts), d), seed)
        except (ConstraintViolation, ArithmeticError):
            continue
    raise ArithmeticError(f"case-a generation failed for seed {seed}")


def _generate_b(d: int, m: int, seed: int) -> Instance:
    rng0 = _child_rng(seed, "b-kind", d, m)
    want_reducible = d >= 5 and rng0.random() < 0.5
    for attempt in range(40):
        rng = _child_rng(seed, "b", d, m, attempt)
        try:
            if want_reducible:
                node = _random_point(rng, m)
                if not node.is_real:
                    continue
                l1 = _random_line(rng, m, node)
                l2 = _random_line(rng, m, node)
                if l1 == l2 or not (l1.is_real and l2.is_real):
                    continue
                pts = list(l1.line_basis) + list(l2.line_basis)
                if spanning_rank(pts) != 3:
                    continue
                gap_l = conjugate_pair_form(d, _random_transplant(rng))
                gap_r = conjugate_pair_form(d, _random_transplant(rng))
                return make_case_b_reducible(
                    m, d, gap_l, gap_r, [], l1, l2, [], seed)
            param = _standard_conic(rng, m)
            gap = conjugate_pair_form(2 * d, _random_transplant(rng))
            e_count = rng.randint(0, max(0, (d - 3) // 2))
            e_pts = _sample_e(rng, m, d, e_count, param)
            return make_case_b(m, d, gap, e_pts, param,
                               _e_coeffs(rng, len(e_pts), d), seed)
        except (ConstraintViolation, ArithmeticError, ValueError):
            continue
    raise ArithmeticError(f"case-b generation failed for seed {seed}")


def _generate_c(d: int, m: int, seed: int) -> Instance:
    if m < 3:
        raise ConstraintViolation(
            "curve", "disjoint lines need ambient dimension at least 3")
    if 2 * d + 4 > 3 * d - 1:
        raise ConstraintViolation(
            "budget", "two full line gaps exceed the budget below degree 5")
    for attempt in range(40):
        rng = _child_rng(seed, "c", d, m, attempt)
        l1 = _random_line(rng, m)
        l2 = _random_line(rng, m)
        try:
            CurveSpec.two_lines(l1, l2)
        except ValueError:
            continue
        if not (l1.is_real and l2.is_real):
            continue
        gap_l = conjugate_pair_form(d, _random_transplant(rng))
        gap_r = conjugate_pair_form(d, _random_transplant(rng))
        try:
            return make_case_c(m, d, gap_l, gap_r, [], l1, l2, [], seed)
        except (ConstraintViolation, ArithmeticError):
            continue
    raise ArithmeticError(f"case-c generation failed for seed {seed}")
