"""Certified Waring ranks of binary forms, Sylvester style.

A BinaryForm of degree d stores coefficients c_0..c_d of the scaled basis
f = sum C(d,k) c_k x^(d-k) y^k, so the catalecticant at step r is literally
the Hankel array H[i][j] = c_{i+j}.  A kernel vector g of H is the plain
coefficient list of an apolar form h = sum g_j x^(r-j) y^j, and the rank-r
decompositions of f are exactly the squarefree apolar h: the roots [a:b] of
h name the linear forms a*x + b*y.

Rank search and its certificates:
  * complex rank: smallest r whose kernel contains a squarefree element.
    A squarefree element exists iff the gcd of the kernel is squarefree
    (the gcd is the fixed divisor; removing it leaves a basepoint-free
    system whose generic member is reduced in characteristic 0), so every
    negative step is certified.
  * real rank: smallest r >= complex rank whose kernel holds a real element
    with r distinct real roots.  Negative certificates: empty kernel,
    non-squarefree gcd, or a gcd with a non-real root (every element then
    inherits it).  Dimension-1 kernels are decided by testing the generator.
    Higher-dimensional kernels run a deterministic search that pins down
    all but deg-u roots on a fixed rational grid and solves the remaining
    cofactor u linearly; a hit is an unconditional decomposition, and if
    some earlier r ended with an exhausted search instead of a certificate
    the result carries minimality_certified = False.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

from . import linalg
from .scalars import ONE, ZERO, Scalar, parse_int
from .univariate import (BoxScalar, RootBox, all_roots_real, as_real_poly,
                         certified_root_boxes, interval_solve,
                         isolate_real_roots, is_squarefree, poly_gcd,
                         poly_mul, poly_trim, refine_real_root,
                         roots_over_gaussians)

Point1 = tuple[Scalar, Scalar]


@dataclass(frozen=True)
class BinaryForm:
    degree: int
    coeffs: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("need degree+1 coefficients")

    @staticmethod
    def from_scaled(coeffs: Sequence[Scalar]) -> "BinaryForm":
        return BinaryForm(len(coeffs) - 1, tuple(coeffs))

    @staticmethod
    def from_plain(plain: Sequence[Scalar]) -> "BinaryForm":
        d = len(plain) - 1
        return BinaryForm(d, tuple(
            a / Scalar.of(comb(d, k)) for k, a in enumerate(plain)))

    @staticmethod
    def zero(degree: int) -> "BinaryForm":
        return BinaryForm(degree, (ZERO,) * (degree + 1))

    def plain_coeffs(self) -> tuple[Scalar, ...]:
        return tuple(c * Scalar.of(comb(self.degree, k))
                     for k, c in enumerate(self.coeffs))

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    @property
    def is_real(self) -> bool:
        return all(c.is_real for c in self.coeffs)

    @property
    def field_tag(self) -> str:
        return "R" if self.is_real else "C"

    def conjugate(self) -> "BinaryForm":
        return BinaryForm(self.degree,
                          tuple(c.conjugate() for c in self.coeffs))

    def scale(self, s: Scalar) -> "BinaryForm":
        return BinaryForm(self.degree, tuple(c * s for c in self.coeffs))

    def __add__(self, other: "BinaryForm") -> "BinaryForm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return BinaryForm(self.degree, tuple(
            a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "BinaryForm") -> "BinaryForm":
        return self + other.scale(-ONE)

    def evaluate(self, x: Scalar, y: Scalar) -> Scalar:
        acc = ZERO
        for k, a in enumerate(self.plain_coeffs()):
            if a.is_zero:
                continue
            term = a
            for _ in range(self.degree - k):
                term = term * x
            for _ in range(k):
                term = term * y
            acc = acc + term
        return acc

    def canonical(self) -> "BinaryForm":
        lead = next((c for c in self.coeffs if not c.is_zero), None)
        if lead is None:
            return self
        return self.scale(ONE / lead)

    def to_json(self) -> dict:
        return {"d": self.degree, "c": [c.to_json() for c in self.coeffs]}

    @staticmethod
    def from_json(obj: dict) -> "BinaryForm":
        d = parse_int(obj, "d")
        if d < 1:
            raise ValueError(f"a binary form needs 'd' >= 1, got {d}")
        return BinaryForm(d, tuple(Scalar.from_json(c) for c in obj["c"]))


def moment_vector(point: Point1, degree: int) -> list[Scalar]:
    """Scaled coefficient vector of (a x + b y)^degree for point [a:b]."""
    a, b = point
    return [(a ** (degree - k)) * (b ** k) for k in range(degree + 1)]


def power_point(point: Point1, degree: int) -> BinaryForm:
    return BinaryForm(degree, tuple(moment_vector(point, degree)))


def hankel_matrix(f: BinaryForm, r: int) -> list[list[Scalar]]:
    if not 1 <= r <= f.degree:
        raise ValueError("step out of range")
    d = f.degree
    return [[f.coeffs[i + j] for j in range(r + 1)] for i in range(d - r + 1)]


def hankel_kernel(f: BinaryForm, r: int) -> list[BinaryForm]:
    """Apolar forms of degree r, as plain-coefficient kernel vectors."""
    kernel = linalg.nullspace(hankel_matrix(f, r))
    return [BinaryForm.from_plain(vec) for vec in kernel]


# -- plain-coefficient polynomial view ----------------------------------------

def _split_plain(plain: Sequence[Scalar]) -> tuple[int, list[Scalar]]:
    """(multiplicity of the x factor, dehomogenized poly G(t) = h(1, t))."""
    g = poly_trim(list(plain))
    if not g:
        raise ValueError("zero form")
    r = len(plain) - 1
    return r - (len(g) - 1), g


def binary_gcd(forms: Sequence[BinaryForm]) -> tuple[int, list[Scalar]]:
    """gcd of binary forms as (x-multiplicity, monic univariate part)."""
    x_mult = None
    acc: Optional[list[Scalar]] = None
    for h in forms:
        m, g = _split_plain(h.plain_coeffs())
        x_mult = m if x_mult is None else min(x_mult, m)
        acc = g if acc is None else poly_gcd(acc, g)
    if acc is None:
        raise ValueError("gcd of nothing")
    return x_mult, acc


def _binary_squarefree(x_mult: int, g: Sequence[Scalar]) -> bool:
    return x_mult <= 1 and is_squarefree(g)


def _binary_all_real(g: Sequence[Scalar]) -> bool:
    # the x factor vanishes at the real point [0:1]; only G matters
    monic = poly_trim(list(g))
    lead = monic[-1]
    monic = [c / lead for c in monic]
    if any(not c.is_real for c in monic):
        return False
    return all_roots_real(monic)


def binary_roots_exact(h: BinaryForm) -> Optional[list[Point1]]:
    """Roots of a squarefree binary form as canonical points, or None."""
    x_mult, g = _split_plain(h.plain_coeffs())
    if x_mult > 1 or not is_squarefree(g):
        raise ValueError("form is not squarefree")
    finite = roots_over_gaussians(g)
    if finite is None:
        return None
    pts = [(ONE, t) for t in finite]
    if x_mult == 1:
        pts.append((ZERO, ONE))
    pts.sort(key=lambda p: (p[0].sort_key(), p[1].sort_key()))
    return pts


# -- decompositions -------------------------------------------------------------

@dataclass(frozen=True)
class BinaryDecomposition:
    rank: int
    field_tag: str
    mode: str
    points: tuple[Point1, ...] = ()
    coeffs: tuple[Scalar, ...] = ()
    generator: Optional[BinaryForm] = None
    boxes: tuple[RootBox, ...] = ()
    coeff_boxes: tuple[BoxScalar, ...] = ()
    has_infinity_root: bool = False
    minimality_certified: bool = True
    notes: tuple[str, ...] = field(default_factory=tuple)

    def to_json(self) -> dict:
        out: dict = {"rank": self.rank, "field": self.field_tag,
                     "mode": self.mode}
        if self.mode == "exact":
            out["points"] = [[a.to_json(), b.to_json()]
                             for a, b in self.points]
            out["coeffs"] = [c.to_json() for c in self.coeffs]
        else:
            out["generator"] = self.generator.to_json()
            out["boxes"] = [b.to_json() for b in self.boxes]
            out["infinity_root"] = self.has_infinity_root
            out["coeffs"] = [b.to_json() for b in self.coeff_boxes]
        out["minimality_certified"] = self.minimality_certified
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def reconstruct(dec: BinaryDecomposition, degree: int) -> BinaryForm:
    if dec.mode != "exact":
        raise ValueError("only exact decompositions reconstruct exactly")
    acc = BinaryForm.zero(degree)
    for c, p in zip(dec.coeffs, dec.points):
        acc = acc + power_point(p, degree).scale(c)
    return acc


RESIDUAL_WIDTH = Fraction(1, 10 ** 30)


def reconstruction_check(f: BinaryForm, dec: BinaryDecomposition) -> bool:
    """Exact identity in exact mode; zero-in-interval at width < 1e-30 else."""
    if dec.mode == "exact":
        return reconstruct(dec, f.degree) == f
    return _residuals_vanish(f, dec.coeff_boxes,
                             _implicit_columns(dec, f.degree))


def _residuals_vanish(f: BinaryForm, coeff_boxes: Sequence[BoxScalar],
                      cols: list[list[BoxScalar]]) -> bool:
    for k in range(f.degree + 1):
        acc = BoxScalar.exact(-f.coeffs[k])
        for cb, col in zip(coeff_boxes, cols):
            acc = acc + cb * col[k]
        if not acc.contains_zero() or acc.width >= RESIDUAL_WIDTH:
            return False
    return True


def _implicit_columns(dec: BinaryDecomposition,
                      degree: int) -> list[list[BoxScalar]]:
    cols = []
    for box in dec.boxes:
        t = BoxScalar.from_box(box)
        # col[k] = t^k as a running product from exact 1
        col = [BoxScalar.exact(ONE)]
        for _ in range(degree):
            col.append(col[-1] * t)
        cols.append(col)
    if dec.has_infinity_root:
        cols.append([BoxScalar.exact(ONE if k == degree else ZERO)
                     for k in range(degree + 1)])
    return cols


def _solve_exact_coeffs(f: BinaryForm,
                        points: Sequence[Point1]) -> list[Scalar]:
    cols = [moment_vector(p, f.degree) for p in points]
    sol = linalg.solve_columns(cols, list(f.coeffs))
    if sol is None:
        raise ArithmeticError("apolar support failed to span the form")
    return sol


def _implicit_decomposition(f: BinaryForm, h: BinaryForm, field_tag: str,
                            certified: bool,
                            notes: tuple[str, ...]) -> BinaryDecomposition:
    """Certified-boxes decomposition for a squarefree apolar h."""
    x_mult, g = _split_plain(h.plain_coeffs())
    r = h.degree
    radius = Fraction(1, 10 ** 40)
    for _ in range(4):
        if field_tag == "R":
            boxes = _real_boxes(g, radius)
        else:
            boxes = certified_root_boxes(g, radius)
        dec = BinaryDecomposition(
            rank=r, field_tag=field_tag, mode="implicit",
            generator=h.canonical(), boxes=tuple(boxes),
            has_infinity_root=x_mult == 1,
            minimality_certified=certified, notes=notes)
        cols = _implicit_columns(dec, f.degree)
        rows = [[col[k] for col in cols] for k in range(f.degree + 1)]
        rhs = [BoxScalar.exact(c) for c in f.coeffs]
        try:
            coeff_boxes = interval_solve(rows, rhs)
        except ZeroDivisionError:
            radius = radius * radius
            continue
        dec = BinaryDecomposition(
            rank=r, field_tag=field_tag, mode="implicit",
            generator=dec.generator, boxes=dec.boxes,
            coeff_boxes=tuple(coeff_boxes),
            has_infinity_root=dec.has_infinity_root,
            minimality_certified=certified, notes=notes)
        if _residuals_vanish(f, coeff_boxes, cols):
            return dec
        radius = radius * radius
    raise ArithmeticError("interval refinement did not reach target width")


def _real_boxes(g: Sequence[Scalar], radius: Fraction) -> list[RootBox]:
    rg = as_real_poly(g)
    out = []
    for lo, hi in isolate_real_roots(rg):
        lo2, hi2 = refine_real_root(rg, lo, hi, radius)
        mid = (lo2 + hi2) / 2
        out.append(RootBox(Scalar.of(mid), radius))
    out.sort(key=lambda b: b.center.sort_key())
    return out


def _exact_decomposition(f: BinaryForm, h: BinaryForm,
                         pts: Optional[list[Point1]], field_tag: str,
                         certified: bool,
                         notes: tuple[str, ...]) -> BinaryDecomposition:
    """Decomposition on the roots pts of h; implicit when pts is None."""
    if pts is None:
        return _implicit_decomposition(f, h, field_tag, certified, notes)
    coeffs = _solve_exact_coeffs(f, pts)
    if any(c.is_zero for c in coeffs):
        keep = [(p, c) for p, c in zip(pts, coeffs) if not c.is_zero]
        notes = notes + ("support dropped zero-coefficient points",)
        return BinaryDecomposition(
            rank=len(keep), field_tag=field_tag, mode="exact",
            points=tuple(p for p, _ in keep),
            coeffs=tuple(c for _, c in keep),
            minimality_certified=False, notes=notes)
    return BinaryDecomposition(
        rank=h.degree, field_tag=field_tag, mode="exact",
        points=tuple(pts), coeffs=tuple(coeffs),
        minimality_certified=certified, notes=notes)


# -- deterministic squarefree / real-rooted element search ----------------------

_PARAM_SEQ: list[Scalar] = []


def _param_sequence(n: int) -> list[Scalar]:
    """0, 1, -1, 2, -2, 1/2, -1/2, 3, -3, 1/3, ... deterministic rationals."""
    while len(_PARAM_SEQ) < n:
        k = len(_PARAM_SEQ)
        if k == 0:
            _PARAM_SEQ.append(ZERO)
            continue
        block, pos = divmod(k - 1, 4)
        base = block + 1
        if pos == 0:
            _PARAM_SEQ.append(Scalar.of(base))
        elif pos == 1:
            _PARAM_SEQ.append(Scalar.of(-base))
        elif pos == 2:
            _PARAM_SEQ.append(Scalar.of(Fraction(1, base + 1)))
        else:
            _PARAM_SEQ.append(Scalar.of(Fraction(-1, base + 1)))
    return _PARAM_SEQ[:n]


def _grid_points(n: int) -> list[Point1]:
    """[0:1], then [1:t] for the parameter sequence: the search grid."""
    pts: list[Point1] = [(ZERO, ONE)]
    for t in _param_sequence(n - 1):
        pts.append((ONE, t))
    return pts[:n]


def _graded_combinations(size: int, cap: int):
    """Index combinations ordered by largest index, then lexicographically."""
    if size == 0:
        yield ()
        return
    for top in range(size - 1, cap):
        for rest in itertools.combinations(range(top), size - 1):
            yield rest + (top,)


def _squarefree_elements(kernel: list[BinaryForm]):
    """Squarefree members of the kernel span, in a deterministic order.

    Phases: single basis vectors, then two-vector pencils, then the full
    moment curve through the basis in both orders.  Duplicates are fine.
    """
    def usable(form: BinaryForm) -> Optional[BinaryForm]:
        plain = form.plain_coeffs()
        if all(c.is_zero for c in plain):
            return None
        x_mult, g = _split_plain(plain)
        return form if _binary_squarefree(x_mult, g) else None

    for h in kernel:
        got = usable(h)
        if got is not None:
            yield got
    params = _param_sequence(12)
    # at most two hits per pencil, so no single pair starves the rest
    for i, j in itertools.combinations(range(len(kernel)), 2):
        hits = 0
        for t in params:
            if t.is_zero:
                continue
            got = usable(kernel[i] + kernel[j].scale(t))
            if got is not None:
                yield got
                hits += 1
                if hits >= 2:
                    break
    for basis in (kernel, list(reversed(kernel))):
        for t in _param_sequence(40):
            acc = basis[0]
            power = ONE
            for h in basis[1:]:
                power = power * t
                acc = acc + h.scale(power)
            got = usable(acc)
            if got is not None:
                yield got


def _mult_by_form_matrix(q_plain: list[Scalar], c_deg: int,
                         r: int) -> list[list[Scalar]]:
    """Columns: plain coefficients of q * x^(c-j) y^j, j = 0..c_deg."""
    cols = []
    for j in range(c_deg + 1):
        u = [ZERO] * (c_deg + 1)
        u[j] = ONE
        prod = poly_mul(q_plain, u)
        col = list(prod) + [ZERO] * (r + 1 - len(prod))
        cols.append(col)
    return cols


def _real_rooted_search(f: BinaryForm, kernel: list[BinaryForm],
                        r: int) -> Optional[BinaryForm]:
    """Deterministic grid search for a real element with r distinct real roots.

    Pins r - c roots on the grid (c = rank of the Hankel step), solves the
    degree-c cofactor from the apolarity conditions, and tests the product.
    """
    k = len(kernel)
    c = r + 1 - k
    prescribe = r - c
    if prescribe <= 0:
        return None
    h_rows = hankel_matrix(f, r)
    grid_cap = max(12, prescribe + 8)
    grid = _grid_points(grid_cap)
    tried = 0
    for combo in _graded_combinations(prescribe, grid_cap):
        tried += 1
        if tried > 4000:
            break
        q_plain: list[Scalar] = [ONE]
        for idx in combo:
            a, b = grid[idx]
            q_plain = _mul_factor(q_plain, a, b)
        cols = _mult_by_form_matrix(q_plain, c, r)
        sys_rows = []
        for hrow in h_rows:
            sys_rows.append([
                sum((col[i] * hrow[i] for i in range(r + 1)), ZERO)
                for col in cols])
        sol_space = linalg.nullspace(sys_rows, num_cols=c + 1)
        if not sol_space:
            continue
        candidates = list(sol_space)
        if len(sol_space) > 1:
            total = sol_space[0]
            for v in sol_space[1:]:
                total = [a + b for a, b in zip(total, v)]
            candidates.append(total)
        for u in candidates:
            h_plain = poly_mul(q_plain, u)
            if len(h_plain) < r + 1:
                h_plain = list(h_plain) + [ZERO] * (r + 1 - len(h_plain))
            if all(cc.is_zero for cc in h_plain):
                continue
            x_mult, g = _split_plain(h_plain)
            if not _binary_squarefree(x_mult, g):
                continue
            if not _binary_all_real(g):
                continue
            return BinaryForm.from_plain(h_plain)
    return None


def _mul_factor(plain: list[Scalar], a: Scalar, b: Scalar) -> list[Scalar]:
    """Multiply a plain coefficient list by the factor b*x - a*y.

    Plain lists index by the y-degree, so multiplying by x shifts nothing
    and multiplying by y shifts by one.
    """
    out = [ZERO] * (len(plain) + 1)
    for i, cc in enumerate(plain):
        out[i] = out[i] + b * cc
        out[i + 1] = out[i + 1] - a * cc
    return out


def pullback_conic(form, images: Sequence[BinaryForm]) -> BinaryForm:
    """Substitute a quadric parametrization into a form: F(q_0(s,t), ...).

    Each variable image must be a binary quadric.  Raises ValueError when
    the images span less than three dimensions, which is exactly when the
    parametrized curve degenerates to a line or a point.
    """
    if len(images) != form.num_vars:
        raise ValueError("one quadric image per variable")
    if any(q.degree != 2 for q in images):
        raise ValueError("images must be binary quadrics")
    rows = [list(q.plain_coeffs()) for q in images]
    if linalg.rank(rows) < 3:
        raise ValueError("degenerate parametrization")
    d = form.degree
    acc = [ZERO] * (2 * d + 1)
    image_plain = [list(q.plain_coeffs()) for q in images]
    for exp, coeff in form.coeffs.items():
        prod: list[Scalar] = [coeff]
        for var, e in enumerate(exp):
            for _ in range(e):
                prod = poly_mul(prod, image_plain[var])
        for k, cc in enumerate(prod):
            acc[k] = acc[k] + cc
    return BinaryForm.from_plain(acc)


# -- the two rank engines --------------------------------------------------------

def _steps(f: BinaryForm):
    """(r, kernel, gcd) for each step r whose apolar kernel is nonempty
    with a squarefree gcd; the first such r is the complex rank, and no
    real decomposition exists at any other r."""
    if f.is_zero:
        raise ValueError("rank of the zero form is undefined")
    for r in range(1, f.degree + 1):
        kernel = hankel_kernel(f, r)
        if not kernel:
            continue
        x_mult, g = binary_gcd(kernel)
        if _binary_squarefree(x_mult, g):
            yield r, kernel, g


def complex_rank(f: BinaryForm) -> tuple[int, BinaryDecomposition]:
    """Smallest r whose apolar kernel holds a squarefree form, with witness."""
    for r, kernel, _g in _steps(f):
        first: Optional[BinaryForm] = None
        for n, h in enumerate(_squarefree_elements(kernel)):
            if first is None:
                first = h
            pts = binary_roots_exact(h)
            if pts is not None:
                return r, _exact_decomposition(f, h, pts, "C", True, ())
            if n >= 23:
                break
        if first is None:
            raise ArithmeticError(
                "squarefree element exists but search missed it")
        # binary_roots_exact(first) already gave None in the loop above
        return r, _implicit_decomposition(f, first, "C", True, ())
    raise ArithmeticError("no squarefree apolar form up to degree d")


def real_rank(f: BinaryForm) -> tuple[int, BinaryDecomposition]:
    """Smallest certified r admitting a real decomposition; see module doc."""
    if not f.is_real:
        raise ValueError("real rank needs a real form")
    certified = True
    notes: tuple[str, ...] = ()
    for r, kernel, g in _steps(f):
        if not _binary_all_real(g):
            continue
        if len(kernel) == 1:
            h = kernel[0]
            hx, hg = _split_plain(h.plain_coeffs())
            if _binary_squarefree(hx, hg) and _binary_all_real(hg):
                return r, _exact_decomposition(
                    f, h, binary_roots_exact(h), "R", certified, notes)
            continue
        h = _real_rooted_search(f, kernel, r)
        if h is not None:
            return r, _exact_decomposition(
                f, h, binary_roots_exact(h), "R", certified, notes)
        certified = False
        notes = ("search exhausted without certificate at step %d" % r,)
    raise ArithmeticError("no real-rooted apolar form up to degree d")
