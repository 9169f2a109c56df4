"""Certified Waring ranks of binary forms, Sylvester style.

A BinaryForm of degree d stores coefficients c_0..c_d of the scaled basis
f = sum C(d,k) c_k x^(d-k) y^k, so the catalecticant at step r is literally
the Hankel array H[i][j] = c_{i+j}.  A kernel vector g of H is the plain
coefficient list of an apolar form h = sum g_j x^(r-j) y^j, and the rank-r
decompositions of f are exactly the squarefree apolar h: the roots [a:b] of
h name the linear forms a*x + b*y.  The engine keeps apolar forms as these
plain lists; a BinaryForm is built only for an implicit-mode generator.

Sylvester's structure (Comas and Seiguer, arXiv:math/0112311): the apolar
ideal of f is generated by g1 and g2 of degrees c <= d + 2 - c, c the rank
of the middle catalecticant.  The kernel at step r is empty for r < c, g1
times all forms of degree r - c below d + 2 - c, and g1*A + g2*B, of
dimension 2r - d, from there on; _steps visits c and d + 2 - c..d only.

Rank search and its certificates:
  * complex rank: smallest r whose kernel contains a squarefree element.
    A squarefree element exists iff the gcd of the kernel is squarefree
    (the gcd is the fixed divisor; removing it leaves a basepoint-free
    system whose generic member is reduced in characteristic 0), so every
    negative step is certified.  A one-dimensional kernel is its own gcd,
    so its generator is the witness; larger kernels are searched.
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
from .forms import gaussian_powers
from .scalars import ONE, ZERO, Scalar, gaussian, parse_int, parse_list
from .univariate import (BoxScalar, RootBox, _real_multiple, all_roots_real,
                         certified_root_boxes, interval_solve,
                         isolate_real_roots, is_squarefree, poly_gcd,
                         poly_mul, poly_trim, roots_over_gaussians)

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

    def scale(self, s: Scalar) -> "BinaryForm":
        return BinaryForm(self.degree, tuple(c * s for c in self.coeffs))

    def __add__(self, other: "BinaryForm") -> "BinaryForm":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return BinaryForm(self.degree, tuple(
            a + b for a, b in zip(self.coeffs, other.coeffs)))

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
        return BinaryForm(d, tuple(Scalar.from_json(c)
                                   for c in parse_list(obj["c"], "'c'")))


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


def hankel_kernel(f: BinaryForm, r: int) -> list[list[Scalar]]:
    """Apolar forms of degree r, as plain-coefficient kernel vectors."""
    return linalg.nullspace(hankel_matrix(f, r))


# -- plain-coefficient polynomial view ----------------------------------------

def _split_plain(plain: Sequence[Scalar]) -> tuple[int, list[Scalar]]:
    """(multiplicity of the x factor, dehomogenized poly G(t) = h(1, t))."""
    g = poly_trim(list(plain))
    if not g:
        raise ValueError("zero form")
    r = len(plain) - 1
    return r - (len(g) - 1), g


def binary_gcd(forms: Sequence[Sequence[Scalar]]) -> tuple[int, list[Scalar]]:
    """gcd of plain binary forms as (x-multiplicity, univariate part G(t))."""
    x_mult = None
    acc: Optional[list[Scalar]] = None
    for h in forms:
        m, g = _split_plain(h)
        x_mult = m if x_mult is None else min(x_mult, m)
        acc = g if acc is None else poly_gcd(acc, g)
    if acc is None:
        raise ValueError("gcd of nothing")
    return x_mult, acc


def _binary_squarefree(x_mult: int, g: Sequence[Scalar]) -> bool:
    return x_mult <= 1 and is_squarefree(g)


def binary_roots_exact(h: Sequence[Scalar]) -> Optional[list[Point1]]:
    """Roots of a squarefree plain binary form as canonical points, or None.

    Every caller has shown h squarefree, so it is not tested again here."""
    x_mult, g = _split_plain(h)
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
    return _residuals_vanish(f, dec.coeff_boxes, _implicit_columns(
        dec.boxes, dec.has_infinity_root, f.degree))


def _residuals_vanish(f: BinaryForm, coeff_boxes: Sequence[BoxScalar],
                      cols: list[list[BoxScalar]]) -> bool:
    for k in range(f.degree + 1):
        acc = BoxScalar.exact(-f.coeffs[k])
        for cb, col in zip(coeff_boxes, cols):
            acc = acc + cb * col[k]
        if not acc.contains_zero() or acc.width >= RESIDUAL_WIDTH:
            return False
    return True


def _implicit_columns(boxes: Sequence[RootBox], infinity_root: bool,
                      degree: int) -> list[list[BoxScalar]]:
    cols = []
    for box in boxes:
        t = BoxScalar.from_box(box)
        # col[k] = t^k as a running product from exact 1
        col = [BoxScalar.exact(ONE)]
        for _ in range(degree):
            col.append(col[-1] * t)
        cols.append(col)
    if infinity_root:
        cols.append([BoxScalar.exact(ONE if k == degree else ZERO)
                     for k in range(degree + 1)])
    return cols


def _solve_exact_coeffs(f: BinaryForm,
                        points: Sequence[Point1]) -> list[Scalar]:
    # each point cleared once, (u, v) = L (a, b): its column u^(d-k) v^k is
    # L^d times moment_vector's, so its coefficient takes L^d
    d = f.degree
    cols, scales = [], []
    for point in points:
        (u, v), lcm = linalg._clear(point)
        us, vs = gaussian_powers(u, d), gaussian_powers(v, d)
        cols.append([(x * z - y * w, x * w + y * z)
                     for (x, y), (z, w) in zip(reversed(us), vs)])
        scales.append(lcm ** d)
    sol = linalg.solve_columns(cols, f.coeffs)
    if sol is None:
        raise ArithmeticError("apolar support failed to span the form")
    return [x * scale for x, scale in zip(sol, scales)]


def _implicit_decomposition(f: BinaryForm, h: Sequence[Scalar],
                            field_tag: str, certified: bool,
                            notes: tuple[str, ...]) -> BinaryDecomposition:
    """Certified-boxes decomposition for a squarefree apolar plain list h."""
    x_mult, g = _split_plain(h)
    rhs = [BoxScalar.exact(c) for c in f.coeffs]
    radius = Fraction(1, 10 ** 40)
    for _ in range(4):
        if field_tag == "R":
            boxes = _real_boxes(g, radius)
        else:
            boxes = certified_root_boxes(g, radius)
        cols = _implicit_columns(boxes, x_mult == 1, f.degree)
        rows = [[col[k] for col in cols] for k in range(f.degree + 1)]
        try:
            coeff_boxes = interval_solve(rows, rhs)
        except ZeroDivisionError:
            coeff_boxes = None
        if coeff_boxes is not None and _residuals_vanish(f, coeff_boxes,
                                                         cols):
            return BinaryDecomposition(
                rank=len(h) - 1, field_tag=field_tag, mode="implicit",
                generator=BinaryForm.from_plain(h).canonical(),
                boxes=tuple(boxes),
                coeff_boxes=tuple(coeff_boxes),
                has_infinity_root=x_mult == 1,
                minimality_certified=certified, notes=notes)
        radius = radius * radius
    raise ArithmeticError("interval refinement did not reach target width")


def _real_boxes(g: Sequence[Scalar], radius: Fraction) -> list[RootBox]:
    rg = _real_multiple(g)
    if rg is None:
        raise ValueError("polynomial is not real")
    return [RootBox(Scalar.of((lo + hi) / 2), radius)
            for lo, hi in isolate_real_roots(rg, radius)]


def _exact_decomposition(f: BinaryForm, h: Sequence[Scalar],
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
        rank=len(h) - 1, field_tag=field_tag, mode="exact",
        points=tuple(pts), coeffs=tuple(coeffs),
        minimality_certified=certified, notes=notes)


# -- deterministic squarefree / real-rooted element search ----------------------

def _param_sequence(n: int) -> list[Scalar]:
    """0, 1, -1, 1/2, -1/2, 2, -2, 1/3, -1/3, ...: the first n rationals."""
    out = [ZERO]
    for base in range(1, n // 4 + 2):
        out += [Scalar.of(base), Scalar.of(-base),
                gaussian(1, 0, base + 1), gaussian(-1, 0, base + 1)]
    return out[:n]


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


def _squarefree_elements(kernel: list[list[Scalar]]):
    """Squarefree members of the kernel span, in a deterministic order.

    Phases: single basis vectors, then two-vector pencils, then the full
    moment curve through the basis in both orders.  A form can come more
    than once.
    """
    def usable(h: list[Scalar]) -> Optional[list[Scalar]]:
        if all(c.is_zero for c in h):
            return None
        return h if _binary_squarefree(*_split_plain(h)) else None

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
            got = usable([a + t * b for a, b in zip(kernel[i], kernel[j])])
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
                acc = [a + power * b for a, b in zip(acc, h)]
            got = usable(acc)
            if got is not None:
                yield got


def _real_rooted_search(f: BinaryForm, kernel: list[list[Scalar]],
                        r: int) -> Optional[list[Scalar]]:
    """Deterministic grid search for a real element with r distinct real roots.

    Pins r - c roots on the grid (c = rank of the Hankel step), solves the
    degree-c cofactor u from the apolarity conditions, and tests the product.
    Plain lists index by the y-degree, so q*u is sum_j u_j * (q shifted by
    j), and a Hankel row applied to it gives sum_j u_j sum_i q_i row[i + j].
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
        q_plain = [ONE]
        for idx in combo:
            a, b = grid[idx]
            # the factor b*x - a*y of the root [a:b]
            q_plain = poly_mul(q_plain, [b, -a])
        sys_rows = [[sum((q * hrow[i + j] for i, q in enumerate(q_plain)),
                         ZERO) for j in range(c + 1)] for hrow in h_rows]
        sol_space = linalg.nullspace(sys_rows)
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
            # the x factor vanishes at the real point [0:1]; only G matters
            if not all_roots_real(g):
                continue
            return h_plain
    return None


# -- the two rank engines --------------------------------------------------------

def _steps(f: BinaryForm):
    """(r, kernel, gcd) at each step that can decide a rank; the first is
    the complex rank, and no real decomposition exists at any other r.

    With c the middle catalecticant rank (module doc), unvisited are r < c,
    where the kernel is empty, and c < r < d + 2 - c, where every element
    is g1 times a form and step c, whose gcd is g1 too, decided them all.
    From d + 2 - c on g1 and g2 are coprime, so the gcd 1 is not computed.
    Each visited kernel must have dimension max(1, 2r - d): 1 at step c
    (2 when 2c = d + 2) and 2r - d from d + 2 - c on.
    """
    if f.is_zero:
        raise ValueError("rank of the zero form is undefined")
    d = f.degree
    c = linalg.rank(hankel_matrix(f, max(1, d // 2)))
    for r in (c, *range(max(c + 1, d + 2 - c), d + 1)):
        kernel = hankel_kernel(f, r)
        if len(kernel) != max(1, 2 * r - d):
            raise ArithmeticError("step %d kernel has dimension %d, not "
                                  "Sylvester's %d"
                                  % (r, len(kernel), max(1, 2 * r - d)))
        x_mult, g = binary_gcd(kernel) if r == c else (0, [ONE])
        if _binary_squarefree(x_mult, g):
            yield r, kernel, g


def complex_rank(f: BinaryForm) -> tuple[int, BinaryDecomposition]:
    """Smallest r whose apolar kernel holds a squarefree form, with witness:
    the first step of _steps, which always yields one."""
    r, kernel, _g = next(_steps(f))
    # the step's gcd test proved a one-dimensional kernel's generator
    # squarefree; 24 candidates, repeats counted, from a larger kernel
    candidates = kernel if len(kernel) == 1 else itertools.islice(
        _squarefree_elements(kernel), 24)
    first: Optional[list[Scalar]] = None
    tried: set[tuple[Scalar, ...]] = set()
    for h in candidates:
        if first is None:
            first = h
        key = tuple(h)
        if key not in tried:
            tried.add(key)
            pts = binary_roots_exact(h)
            if pts is not None:
                return r, _exact_decomposition(f, h, pts, "C", True, ())
    if first is None:
        raise ArithmeticError(
            "squarefree element exists but search missed it")
    # binary_roots_exact(first) already gave None in the loop above
    return r, _implicit_decomposition(f, first, "C", True, ())


def real_rank(f: BinaryForm) -> tuple[int, BinaryDecomposition]:
    """Smallest certified r admitting a real decomposition; see module doc."""
    if not f.is_real:
        raise ValueError("real rank needs a real form")
    certified = True
    notes: tuple[str, ...] = ()
    for r, kernel, g in _steps(f):
        if not all_roots_real(g):
            continue
        # a one-dimensional kernel is its own gcd: squarefree, real-rooted
        h = kernel[0] if len(kernel) == 1 else _real_rooted_search(
            f, kernel, r)
        if h is not None:
            return r, _exact_decomposition(
                f, h, binary_roots_exact(h), "R", certified, notes)
        certified = False
        notes = ("search exhausted without certificate at step %d" % r,)
    raise ArithmeticError("no real-rooted apolar form up to degree d")
