"""Exact linear algebra over the Gaussian rationals.

Two layers.  Rank queries clear denominators row by row and run fraction-free
(Bareiss) elimination on pairs of Python ints representing Gaussian integers,
which keeps intermediate growth polynomial and never touches Fraction
normalization.  Solving, nullspaces and canonical bases run Gauss-Jordan
directly on Scalar entries; pivots are chosen by position, not magnitude,
so results are deterministic.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .scalars import ONE, ZERO, Scalar

Matrix = list[list[Scalar]]
GInt = tuple[int, int]


# -- Gaussian integer kernel ------------------------------------------------

def _gmul(a: GInt, b: GInt) -> GInt:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


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


def _clear_row(row: Sequence[Scalar]) -> list[GInt]:
    """The row times the lcm of its denominators, as Gaussian integers."""
    lcm = math.lcm(*(c.re.denominator for c in row),
                   *(c.im.denominator for c in row))
    return [(c.re.numerator * (lcm // c.re.denominator),
             c.im.numerator * (lcm // c.im.denominator)) for c in row]


def gaussian_int_rank(rows: list[list[GInt]]) -> int:
    """Fraction-free elimination rank of a Gaussian integer matrix."""
    m = [row[:] for row in rows]
    if not m or not m[0]:
        return 0
    nr, nc = len(m), len(m[0])
    prev: GInt = (1, 0)
    r = 0
    for col in range(nc):
        piv = next((i for i in range(r, nr) if m[i][col] != (0, 0)), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        pivot = m[r][col]
        for i in range(r + 1, nr):
            head = m[i][col]
            for j in range(col + 1, nc):
                a = _gmul(pivot, m[i][j])
                b = _gmul(head, m[r][j])
                m[i][j] = _gdiv_exact((a[0] - b[0], a[1] - b[1]), prev)
            m[i][col] = (0, 0)
        prev = pivot
        r += 1
        if r == nr:
            break
    return r


def rank(rows: Sequence[Sequence[Scalar]]) -> int:
    cleared = [_clear_row(row) for row in rows]
    return gaussian_int_rank(cleared)


def column_rank(columns: Sequence[Sequence[Scalar]]) -> int:
    if not columns:
        return 0
    return rank([list(row) for row in zip(*columns)])


# -- Scalar Gauss-Jordan ----------------------------------------------------

def rref(rows: Sequence[Sequence[Scalar]]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    m = [list(row) for row in rows]
    if not m:
        return [], ()
    nr, nc = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for col in range(nc):
        piv = next((i for i in range(r, nr) if not m[i][col].is_zero), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        if m[r][col] != ONE:
            inv = ONE / m[r][col]
            m[r] = [c * inv for c in m[r]]
        row_r = m[r]
        support = [j for j in range(col, nc) if not row_r[j].is_zero]
        for i in range(nr):
            if i != r and not m[i][col].is_zero:
                f = m[i][col]
                row = m[i]
                for j in support:
                    row[j] = row[j] - f * row_r[j]
        pivots.append(col)
        r += 1
        if r == nr:
            break
    return m, tuple(pivots)


def nullspace(rows: Sequence[Sequence[Scalar]],
              num_cols: Optional[int] = None) -> list[list[Scalar]]:
    """Canonical kernel basis: one vector per free column, unit there."""
    if not rows:
        if num_cols is None:
            raise ValueError("need num_cols for an empty matrix")
        return [[ONE if i == j else ZERO for i in range(num_cols)]
                for j in range(num_cols)]
    nc = len(rows[0])
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    basis: list[list[Scalar]] = []
    for free in range(nc):
        if free in pivot_set:
            continue
        vec = [ZERO] * nc
        vec[free] = ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][free]
        basis.append(vec)
    return basis


def solve_columns(columns: Sequence[Sequence[Scalar]],
                  target: Sequence[Scalar]) -> Optional[list[Scalar]]:
    """One exact solution of  sum_j x_j * columns[j] = target,  or None.

    Free variables are pinned to zero, so the answer is deterministic.
    """
    n = len(target)
    if not columns:
        return [] if all(t.is_zero for t in target) else None
    aug = [[columns[j][i] for j in range(len(columns))] + [target[i]]
           for i in range(n)]
    reduced, pivots = rref(aug)
    ncols = len(columns)
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][ncols]
    return x


def in_span(columns: Sequence[Sequence[Scalar]],
            vector: Sequence[Scalar]) -> bool:
    if all(v.is_zero for v in vector):
        return True
    base = column_rank(columns)
    return column_rank(list(columns) + [list(vector)]) == base


def row_space_basis(rows: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """Canonical basis of the row space (nonzero rows of the RREF)."""
    reduced, pivots = rref(rows)
    return [reduced[i] for i in range(len(pivots))]


def span_intersection(u_columns: Sequence[Sequence[Scalar]],
                      v_columns: Sequence[Sequence[Scalar]]
                      ) -> list[list[Scalar]]:
    """Canonical basis of span(U) meet span(V), as a list of vectors."""
    if not u_columns or not v_columns:
        return []
    n = len(u_columns[0])
    stacked = [[u_columns[j][i] for j in range(len(u_columns))]
               + [v_columns[j][i] for j in range(len(v_columns))]
               for i in range(n)]
    kernel = nullspace(stacked)
    vectors: list[list[Scalar]] = []
    for vec in kernel:
        combo = [ZERO] * n
        for j, col in enumerate(u_columns):
            if not vec[j].is_zero:
                combo = [a + vec[j] * b for a, b in zip(combo, col)]
        if any(not c.is_zero for c in combo):
            vectors.append(combo)
    if not vectors:
        return []
    return row_space_basis(vectors)

