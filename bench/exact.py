"""The benchmark's own exact arithmetic, independent of waringlab.

Gaussian rationals are pairs (re, im) of Fractions.  The output checks use
these helpers to re-expand decompositions and to certify ranks without
calling any code of the program under test.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

GQ = tuple[Fraction, Fraction]

# A prime p = 1 (mod 4), so that -1 has a square root I_MOD_P in F_p and
# reduction mod p is a ring map from Z[i].  Rank mod p is then a lower
# bound for the rank over Q(i), and full rank mod p certifies independence.
PRIME = 1_000_000_009


def _sqrt_minus_one(p: int) -> int:
    for g in range(2, p):
        if pow(g, (p - 1) // 2, p) == p - 1:
            return pow(g, (p - 1) // 4, p)
    raise ArithmeticError("no quadratic non-residue")


I_MOD_P = _sqrt_minus_one(PRIME)


def gq(re, im=0) -> GQ:
    return (Fraction(re), Fraction(im))


def gmul(a: GQ, b: GQ) -> GQ:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gadd(a: GQ, b: GQ) -> GQ:
    return (a[0] + b[0], a[1] + b[1])


def gpow(a: GQ, n: int) -> GQ:
    out = (Fraction(1), Fraction(0))
    for _ in range(n):
        out = gmul(out, a)
    return out


def fmt(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def scalar_json(z: GQ) -> dict:
    return {"re": fmt(z[0]), "im": fmt(z[1])}


def parse_scalar(obj) -> GQ:
    if isinstance(obj, str):
        return (Fraction(obj), Fraction(0))
    return (Fraction(obj["re"]), Fraction(obj.get("im", "0")))


def binary_power_sum(points, coeffs, degree: int) -> list[GQ]:
    """Scaled coefficients of sum_j c_j (a_j x + b_j y)^degree."""
    out = [gq(0)] * (degree + 1)
    for (a, b), c in zip(points, coeffs):
        for k in range(degree + 1):
            term = gmul(c, gmul(gpow(a, degree - k), gpow(b, k)))
            out[k] = gadd(out[k], term)
    return out


def scaled_from_plain(plain: list[int]) -> list[Fraction]:
    d = len(plain) - 1
    return [Fraction(c, comb(d, k)) for k, c in enumerate(plain)]


def fraction_rank(rows: list[list[Fraction]]) -> int:
    """Rank over Q by plain Gaussian elimination."""
    work = [list(r) for r in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]),
                     None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        for i in range(rank + 1, len(work)):
            if work[i][col]:
                f = work[i][col] / prow[col]
                work[i] = [x - f * y for x, y in zip(work[i], prow)]
        rank += 1
    return rank


def rank_mod_p(rows: list[list[int]], p: int = PRIME) -> int:
    work = [[x % p for x in r] for r in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]),
                     None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        prow = work[rank]
        inv = pow(prow[col], -1, p)
        for i in range(rank + 1, len(work)):
            if work[i][col]:
                f = work[i][col] * inv % p
                work[i] = [(x - f * y) % p for x, y in zip(work[i], prow)]
        rank += 1
    return rank


def monomials(num_vars: int, degree: int) -> list[tuple[int, ...]]:
    if num_vars == 1:
        return [(degree,)]
    out = []
    for e in range(degree, -1, -1):
        for rest in monomials(num_vars - 1, degree - e):
            out.append((e,) + rest)
    return out


def veronese_rank_mod_p(points: list[list[tuple[int, int]]], degree: int,
                        columns=None, p: int = PRIME) -> int:
    """Rank mod p of the degree-d monomial values at Gaussian-integer points.

    Multinomial column scaling is omitted: it is invertible mod p for
    p > degree and so leaves the rank unchanged.  With `columns`, only
    those monomial indices are used, which gives a lower bound.
    """
    exps = monomials(len(points[0]), degree)
    if columns is not None:
        exps = [exps[j] for j in columns]
    rows = []
    for pt in points:
        vals = [(re + im * I_MOD_P) % p for re, im in pt]
        row = []
        for exp in exps:
            v = 1
            for x, e in zip(vals, exp):
                if e:
                    v = v * pow(x, e, p) % p
            row.append(v)
        rows.append(row)
    return rank_mod_p(rows, p)
