"""Exact linear algebra over the Gaussian rationals, on one kernel.

Fraction-free (Bareiss) elimination runs on Gaussian integers (pairs of
ints): pivots, row_rank, span_intersection and solve_columns take columns
already in them, such as spans.power_row and the curve power bases, and
the other entry points clear each row of denominators once.  The reduced
row echelon form also clears the rows above each pivot and divides once,
at the end; nullspaces, row space bases and span intersections are read
off it.  The one column solver, solve_columns, picks an invertible square
block of independent columns mod p (exactly when p divides its minors),
eliminates the block with the target and checks the other rows exactly.
Pivots are chosen by position, not magnitude, so results are
deterministic.

Ranks (row_rank, and rank on top of it) rest on a certificate mod p: a
forward elimination over F_p picks r independent rows, and the rows it
calls dependent are checked exactly, through one small solve on the kernel.
A check that fails, which happens only when p divides a minor, hands the
question to the exact kernel, so the answer is always the exact rank.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .scalars import _CERT_PRIMES, ONE, ZERO, Scalar, gaussian

Matrix = list[list[Scalar]]
GInt = tuple[int, int]


# -- the kernel ----------------------------------------------------------------

def _gdiv_exact(a: GInt, b: GInt) -> GInt:
    if b == (1, 0):
        return a
    n = b[0] * b[0] + b[1] * b[1]
    re = a[0] * b[0] + a[1] * b[1]
    im = a[1] * b[0] - a[0] * b[1]
    # Bareiss guarantees exactness; a nonzero remainder means a logic bug.
    if re % n or im % n:
        raise ArithmeticError("inexact Gaussian integer division")
    return (re // n, im // n)


def _clear(row: Sequence[Scalar]) -> tuple[list[GInt], int]:
    """The row times the lcm of its denominators, as Gaussian integers,
    and that lcm."""
    lcm = math.lcm(*(c.d for c in row))
    return [(c.a * (lcm // c.d), c.b * (lcm // c.d)) for c in row], lcm


def _clear_row(row: Sequence[Scalar]) -> list[GInt]:
    return _clear(row)[0]


def _eliminate(m: list[list[GInt]], reduce: bool
               ) -> tuple[tuple[int, ...], list[GInt]]:
    """Bareiss elimination of the Gaussian integer matrix m, in place.

    Each update (pivot * a - head * b) / prev divides exactly by the previous
    pivot, and touches only the columns right of the pivot.  With reduce,
    the rows above each pivot are cleared too (Bareiss-Montante): at a free
    column j, pivot row r then holds divisors[j] times its RREF entry,
    divisors[j] being the pivot in force when the pass reached j.
    """
    nr = len(m)
    nc = len(m[0]) if m else 0
    pivots: list[int] = []
    divisors: list[GInt] = []
    prev: GInt = (1, 0)
    for col in range(nc):
        divisors.append(prev)
        r = len(pivots)
        piv = next((i for i in range(r, nr) if m[i][col] != (0, 0)), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        pr, pi = top[col]
        qr, qi = prev
        for i in (range(nr) if reduce else range(r + 1, nr)):
            if i == r:
                continue
            row = m[i]
            hr, hi = row[col]
            for j in range(col + 1, nc):
                ar, ai = row[j]
                br, bi = top[j]
                if not (ar or ai or br or bi):
                    continue
                xr = pr * ar - pi * ai - hr * br + hi * bi
                xi = pr * ai + pi * ar - hr * bi - hi * br
                if qi or xr % qr or xi % qr:
                    row[j] = _gdiv_exact((xr, xi), prev)
                else:
                    row[j] = (xr // qr, xi // qr)
        prev = top[col]
        pivots.append(col)
    return tuple(pivots), divisors


def _quotient(a: GInt, b: GInt) -> Scalar:
    """a / b as a Gaussian rational."""
    if b[1] == 0:
        return gaussian(a[0], a[1], b[0])
    return gaussian(a[0] * b[0] + a[1] * b[1], a[1] * b[0] - a[0] * b[1],
                    b[0] * b[0] + b[1] * b[1])


# -- questions answered by the kernel ------------------------------------------

def pivots(rows: Sequence[Sequence[GInt]]) -> tuple[int, ...]:
    """Pivot columns of the forward pass over Gaussian-integer rows, which
    are copied first: the elimination works in place on cached tuples."""
    return _eliminate([list(row) for row in rows], False)[0]


def _independent_mod_p(rows: Sequence[Sequence[GInt]]
                       ) -> tuple[list[int], list[int]]:
    """Rows R and columns C of a forward elimination of the rows' images
    re + im*s in F_p, taken in order: row R[k] is the k-th row independent
    of the rows before it, and C[k] its leading column after reduction.

    Kept row k is M[R[k]] less multiples of the kept rows before it,
    scaled to a leading 1 at C[k]; it vanishes at every earlier C.  So the
    image of M[R, C] is a lower triangular matrix with nonzero diagonal
    times a unit upper triangular one: it is invertible mod p.
    """
    p, s = _CERT_PRIMES[0]
    kept: list[tuple[int, list[int]]] = []
    picked: list[int] = []
    for i, row in enumerate(rows):
        v = [(re + im * s) % p for re, im in row]
        for c, b in kept:
            f = v[c]
            if f:
                v[c:] = [(x - f * y) % p for x, y in zip(v[c:], b)]
        c = next((j for j, x in enumerate(v) if x), None)
        if c is not None:
            inv = pow(v[c], -1, p)
            kept.append((c, [x * inv % p for x in v[c:]]))
            picked.append(i)
    return picked, [c for c, _ in kept]


def row_rank(rows: Sequence[Sequence[GInt]]) -> int:
    """Rank over Q(i) of Gaussian-integer rows, which are not mutated.

    Soundness.  Sending i to s, with s^2 = -1 mod p, maps Z[i] onto F_p
    as a ring, so the determinant of an integer minor maps to the
    determinant of its image.  The elimination mod p gives rows R and
    columns C whose minor M[R, C] is nonzero mod p, hence nonzero: the
    rank is at least r = #R, and when R holds every row that is the rank.
    Otherwise one fraction-free solve of M[R, C]^T x = M[j, C]^T for all
    leftover rows j at once gives D x_j in Z[i], where D = +-det M[R, C]
    is the final Bareiss pivot (D = 1 when r = 0).  When D M[j] equals
    sum_k (D x_j)_k M[R[k]] on every column, every row lies in the span of
    the R rows, so the rank is exactly r.  A failed check means p divided
    a minor that the exact rank needs, and the exact kernel decides.
    """
    return _certified_rank(rows, *_independent_mod_p(rows))


def row_rank_pair(rows: Sequence[Sequence[GInt]]) -> tuple[int, int]:
    """(row_rank(rows[:-1]), row_rank(rows)) from one pass mod p, which
    takes the rows in order: among the first n - 1 it picks what it picks
    for them alone.  Each rank keeps its own certificate and fallback."""
    picked, cols = _independent_mod_p(rows)
    k = len(picked) - (bool(picked) and picked[-1] == len(rows) - 1)
    return (_certified_rank(rows[:-1], picked[:k], cols[:k]),
            _certified_rank(rows, picked, cols))


def _certified_rank(rows: Sequence[Sequence[GInt]], picked: list[int],
                    cols: list[int]) -> int:
    """The rank of rows, from the rows and columns a pass mod p picked
    (see row_rank)."""
    r = len(picked)
    if r == len(rows):
        return r
    base = [rows[i] for i in picked]
    kept = set(picked)
    rest = [row for i, row in enumerate(rows) if i not in kept]
    if r:
        system = [[row[c] for row in base + rest] for c in cols]
        found, divisors = _eliminate(system, True)
        if found != tuple(range(r)):
            return len(pivots(rows))
        dr, di = divisors[r]
    else:
        system, (dr, di) = [], (1, 0)
    for j, row in enumerate(rest):
        xs = [(system[k][r + j], base[k]) for k in range(r)]
        for col, (ar, ai) in enumerate(row):
            sr = dr * ar - di * ai
            si = dr * ai + di * ar
            for (xr, xi), b in xs:
                br, bi = b[col]
                sr -= xr * br - xi * bi
                si -= xr * bi + xi * br
            if sr or si:
                return len(pivots(rows))
    return r


def rank(rows: Sequence[Sequence[Scalar]]) -> int:
    return row_rank([_clear_row(row) for row in rows])


def rref(rows: Sequence[Sequence[Scalar]]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    return _rref([_clear_row(row) for row in rows])


def _rref(m: list[list[GInt]]) -> tuple[Matrix, tuple[int, ...]]:
    """rref of Gaussian-integer rows, eliminated in place."""
    pivots, divisors = _eliminate(m, True)
    nc = len(divisors)
    reduced: Matrix = []
    for r, pc in enumerate(pivots):
        row = m[r]
        out = [ZERO] * nc
        out[pc] = ONE
        for j in range(pc + 1, nc):
            if j not in pivots and row[j] != (0, 0):
                out[j] = _quotient(row[j], divisors[j])
        reduced.append(out)
    reduced += [[ZERO] * nc for _ in range(len(m) - len(pivots))]
    return reduced, pivots


def nullspace(rows: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """Canonical kernel basis of a nonempty matrix: one vector per free
    column, unit there.  That is the last nonzero entry of the vector."""
    basis = []
    for x in _int_kernel([_clear_row(row) for row in rows]):
        unit = next(z for z in reversed(x) if z != (0, 0))
        basis.append([ZERO if z == (0, 0) else _quotient(z, unit) for z in x])
    return basis


def row_space_basis(rows: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """Canonical basis of the row space (nonzero rows of the RREF)."""
    reduced, pivots = rref(rows)
    return reduced[:len(pivots)]


def _int_kernel(m: list[list[GInt]]) -> list[list[GInt]]:
    """Kernel basis of the Gaussian-integer rows m, which are eliminated in
    place: the canonical one of nullspace, each vector times divisors[f]
    at its free column f.  So x_f = divisors[f], and x at pivot column r
    is -m[r][f]."""
    pivots, divisors = _eliminate(m, True)
    basis = []
    for free in range(len(divisors)):
        if free not in pivots:
            x = [(0, 0)] * len(divisors)
            x[free] = divisors[free]
            for r, pc in enumerate(pivots):
                x[pc] = (-m[r][free][0], -m[r][free][1])
            basis.append(x)
    return basis


def span_intersection(u_columns: Sequence[Sequence[GInt]],
                      v_columns: Sequence[Sequence[GInt]]
                      ) -> list[list[Scalar]]:
    """Canonical basis of span(U) meet span(V), for Gaussian-integer columns:
    each kernel vector x of [U | V] gives the common vector U x."""
    if not u_columns or not v_columns:
        return []
    k = len(u_columns)
    m = [list(row) for row in zip(*u_columns, *v_columns)]
    meets = [_combine_ints(x[:k], u_columns, len(m)) for x in _int_kernel(m)]
    reduced, found = _rref(meets)
    return reduced[:len(found)]


def _combine_ints(coeffs: Sequence[GInt], rows: Sequence[Sequence[GInt]],
                  width: int) -> list[GInt]:
    """sum_i coeffs[i] * rows[i] over Gaussian integers."""
    acc_re, acc_im = [0] * width, [0] * width
    for (cr, ci), row in zip(coeffs, rows):
        if not (cr or ci):
            continue
        for j, (ar, ai) in enumerate(row):
            if ar or ai:
                acc_re[j] += cr * ar - ci * ai
                acc_im[j] += cr * ai + ci * ar
    return list(zip(acc_re, acc_im))


def _combine(coeffs: Sequence[Scalar], rows: Sequence[Sequence[GInt]],
             width: int, scale: int = 1) -> list[Scalar]:
    """sum_i coeffs[i] * rows[i] / scale for Gaussian-integer rows of the
    given width: the coefficients are cleared once, and each entry is
    divided once, at the end."""
    cleared, lcm = _clear(coeffs)
    den = (lcm * scale, 0)
    return [ZERO if z == (0, 0) else _quotient(z, den)
            for z in _combine_ints(cleared, rows, width)]


def solve_columns(columns: Sequence[Sequence[GInt]],
                  target: Sequence[Scalar],
                  scale: int = 1) -> Optional[list[Scalar]]:
    """The unique x with  sum_j x_j * columns[j] / scale = target,  for
    Gaussian-integer columns, or None when there is none or more than one.

    The block rows C are the leading columns of a forward elimination of
    the columns read as rows, mod p as in row_rank (a block invertible mod
    p is invertible), or exactly when p divides the minors; fewer than k of
    them means the columns are dependent.  One Bareiss-Montante pass over
    the square block [columns[.][C] | T[C]], where target = T / q is
    cleared once, leaves y = det times the block's solution in its last
    column: sum_j y_j * columns[j] = det * T holds at the rows C, and is
    checked exactly at every other row.
    """
    k = len(columns)
    picked, rows = _independent_mod_p(columns)
    if len(picked) != k:
        rows = list(pivots(columns))
        if len(rows) != k:
            return None
    t, q = _clear(target)
    block = [[col[c] for col in columns] + [t[c]] for c in rows]
    _, divisors = _eliminate(block, True)
    dr, di = divisors[k] if k else (1, 0)
    y = [row[k] for row in block]
    kept = set(rows)
    others = [j for j in range(len(t)) if j not in kept]
    rebuilt = _combine_ints(y, [[col[j] for j in others] for col in columns],
                            len(others))
    for j, z in zip(others, rebuilt):
        ar, ai = t[j]
        if z != (dr * ar - di * ai, dr * ai + di * ar):
            return None
    den = (dr * q, di * q)
    return [ZERO if z == (0, 0) else _quotient((z[0] * scale,
                                                z[1] * scale), den)
            for z in y]
