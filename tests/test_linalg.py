"""Exact linear algebra cross-checked against sympy matrices."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from waringlab import linalg
from waringlab.scalars import _CERT_PRIMES, ONE, ZERO, Scalar


def to_sympy(rows):
    return sympy.Matrix([
        [sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im) for c in row]
        for row in rows])


def random_matrix(rng: random.Random, nr: int, nc: int, complex_entries=False):
    def entry():
        re = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
        im = Fraction(rng.randint(-2, 2)) if complex_entries else Fraction(0)
        return Scalar(re, im)
    return [[entry() for _ in range(nc)] for _ in range(nr)]


def test_rank_matches_sympy_on_seeded_matrices():
    rng = random.Random(7)
    for trial in range(60):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = random_matrix(rng, nr, nc, complex_entries=trial % 3 == 0)
        assert linalg.rank(rows) == to_sympy(rows).rank()


def test_rank_of_rank_one_products():
    u = [Scalar.of(1), Scalar.of(2), Scalar.of(-3)]
    v = [Scalar.of(5), Scalar.of(0, 1)]
    rows = [[a * b for b in v] for a in u]
    assert linalg.rank(rows) == 1


def test_nullspace_vectors_annihilate():
    rng = random.Random(11)
    for trial in range(40):
        nr, nc = rng.randint(1, 4), rng.randint(1, 6)
        rows = random_matrix(rng, nr, nc, complex_entries=trial % 2 == 0)
        kernel = linalg.nullspace(rows)
        assert len(kernel) == nc - linalg.rank(rows)
        for vec in kernel:
            for row in rows:
                acc = ZERO
                for a, b in zip(row, vec):
                    acc = acc + a * b
                assert acc.is_zero


def low_rank_matrix(rng: random.Random, nr: int, nc: int, r: int):
    """A product of an nr x r and an r x nc Gaussian-rational matrix."""
    left = random_matrix(rng, nr, r, complex_entries=True)
    right = random_matrix(rng, r, nc, complex_entries=True)
    return [[sum((a * b for a, b in zip(row, col)), ZERO)
             for col in zip(*right)] for row in left]


def oracle_shapes(rng: random.Random):
    """Tall, wide, square, rank-deficient, zero-row, zero-column and
    repeated-column cases."""
    for nr, nc in ((6, 3), (3, 7), (4, 4), (1, 5), (5, 1)):
        yield random_matrix(rng, nr, nc, complex_entries=True)
        yield low_rank_matrix(rng, nr, nc, rng.randint(1, min(nr, nc)))
        rows = random_matrix(rng, nr, nc, complex_entries=True)
        rows[rng.randrange(nr)] = [ZERO] * nc
        yield rows
        col = rng.randrange(nc)
        yield [[ZERO if j == col else c for j, c in enumerate(row)]
               for row in rows]
        yield [[ZERO] * nc for _ in range(nr)]
        # a free column between two pivot columns
        yield [row[:1] + [row[0] * Scalar.of(-3, 1)] + row[1:]
               for row in random_matrix(rng, nr, nc, complex_entries=True)]


def test_rref_matches_sympy_on_gaussian_rationals():
    rng = random.Random(43)
    for _ in range(4):
        for rows in oracle_shapes(rng):
            reduced, pivots = linalg.rref(rows)
            want, want_pivots = to_sympy(rows).rref()
            assert pivots == want_pivots
            diff = to_sympy(reduced) - want
            assert all(sympy.expand_complex(x) == 0 for x in diff)


def in_span(columns, vector) -> bool:
    """Whether vector is a combination of the columns: one elimination of
    [columns | vector], whose last column must not be a pivot."""
    rows = [linalg._clear_row(row) for row in zip(*columns, vector)]
    return len(columns) not in linalg.pivots(rows)


def test_in_span_matches_sympy_ranks_on_dependent_columns():
    rng = random.Random(47)
    for _ in range(40):
        n, k = rng.randint(2, 6), rng.randint(1, 5)
        cols = low_rank_matrix(rng, k, n, rng.randint(1, min(n, k)))
        if rng.random() < 0.5:
            vec = random_matrix(rng, 1, n, complex_entries=True)[0]
        else:
            coeffs = random_matrix(rng, 1, k, complex_entries=True)[0]
            vec = [sum((c[i] * x for c, x in zip(cols, coeffs)), ZERO)
                   for i in range(n)]
        a = to_sympy(cols).T
        inside = a.rank() == a.row_join(to_sympy([vec]).T).rank()
        assert in_span(cols, vec) == inside


def test_rref_is_idempotent_and_canonical():
    rng = random.Random(3)
    for _ in range(25):
        rows = random_matrix(rng, 3, 4)
        reduced, pivots = linalg.rref(rows)
        again, pivots2 = linalg.rref(reduced)
        assert again == reduced and pivots == pivots2
        for r, pc in enumerate(pivots):
            assert reduced[r][pc] == ONE
            for i in range(len(reduced)):
                if i != r:
                    assert reduced[i][pc].is_zero


def gint_scalars(col):
    return [Scalar.of(re, im) for re, im in col]


def test_solve_columns_finds_exact_solutions():
    # independent columns give the one solution; dependent columns give
    # None, even for a target inside their span
    rng = random.Random(19)
    unique = 0
    for _ in range(40):
        nr, nc = rng.randint(2, 6), rng.randint(1, 4)
        cols = [[(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(nr)]
                for _ in range(nc)]
        x_true = [Scalar.of(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                  for _ in range(nc)]
        target = [ZERO] * nr
        for xj, col in zip(x_true, cols):
            target = [t + xj * c for t, c in zip(target, gint_scalars(col))]
        x = linalg.solve_columns(cols, target)
        if len(linalg.pivots(list(zip(*cols)))) == nc:
            assert x == x_true
            unique += 1
        else:
            assert x is None
    assert 10 < unique < 40


def test_solve_columns_detects_inconsistency():
    cols = [[(1, 0), (0, 0)], [(1, 0), (0, 0)]]
    assert linalg.solve_columns(cols, [ZERO, ONE]) is None
    assert linalg.solve_columns(cols[:1], [ZERO, ONE]) is None
    assert linalg.solve_columns(cols[:1], [ONE, ZERO]) == [ONE]


def test_in_span_agrees_with_solve():
    rng = random.Random(23)
    for _ in range(30):
        nr = rng.randint(2, 5)
        cols = [[(rng.randint(-2, 2), 0) for _ in range(nr)]
                for _ in range(rng.randint(1, 3))]
        vec = [Scalar.of(rng.randint(-2, 2)) for _ in range(nr)]
        # solve on an independent subset with the same span
        basis = [cols[j] for j in linalg.pivots(list(zip(*cols)))]
        assert in_span([gint_scalars(c) for c in cols], vec) == (
            linalg.solve_columns(basis, vec) is not None)


def test_span_intersection_of_coordinate_planes():
    e = [[(1, 0), (0, 0), (0, 0)], [(0, 0), (1, 0), (0, 0)],
         [(0, 0), (0, 0), (1, 0)]]
    meet = linalg.span_intersection([e[0], e[1]], [e[1], e[2]])
    assert meet == [[ZERO, ONE, ZERO]]
    assert linalg.span_intersection([e[0]], [e[2]]) == []


def test_span_intersection_dimension_formula():
    # dim(U meet V) = dim U + dim V - dim(U + V), checked on random data
    rng = random.Random(31)
    for trial in range(25):
        n = rng.randint(3, 6)
        u = [[(rng.randint(-2, 2), rng.randint(-1, 1) * (trial % 2))
              for _ in range(n)] for _ in range(rng.randint(1, 3))]
        v = [[(rng.randint(-2, 2), rng.randint(-1, 1) * (trial % 2))
              for _ in range(n)] for _ in range(rng.randint(1, 3))]
        u_s, v_s = ([[Scalar.of(a, b) for a, b in col] for col in cols]
                    for cols in (u, v))
        du = linalg.rank([list(r) for r in zip(*u_s)])
        dv = linalg.rank([list(r) for r in zip(*v_s)])
        dsum = linalg.rank([list(r) for r in zip(*(u_s + v_s))])
        meet = linalg.span_intersection(u, v)
        assert len(meet) == du + dv - dsum
        for w in meet:
            assert in_span(u_s, w) and in_span(v_s, w)
        assert meet == linalg.row_space_basis(meet)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=-5, max_value=5),
                         min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_rank_never_exceeds_dimensions(int_rows):
    rows = [[Scalar.of(x) for x in row] for row in int_rows]
    r = linalg.rank(rows)
    assert 0 <= r <= min(len(rows), 3)


def test_row_space_basis_is_rref_rows():
    rows = [[Scalar.of(2), Scalar.of(4)], [Scalar.of(1), Scalar.of(2)],
            [Scalar.of(0), Scalar.of(1)]]
    basis = linalg.row_space_basis(rows)
    assert basis == [[ONE, ZERO], [ZERO, ONE]]


def test_inexact_gaussian_division_raises():
    # a guard that python -O cannot strip: 1 / 2 is not a Gaussian integer
    with pytest.raises(ArithmeticError):
        linalg._gdiv_exact((1, 0), (2, 0))
    assert linalg._gdiv_exact((2, 4), (1, 1)) == (3, 1)


# -- the rank certificate mod p -------------------------------------------------

P_CERT, S_CERT = _CERT_PRIMES[0]


def gint_matrix(rng: random.Random, nr: int, nc: int, r: int):
    """An nr x nc Gaussian-integer product of inner width r."""
    def entries(a, b):
        return [[(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(b)]
                for _ in range(a)]
    left, right = entries(nr, r), entries(r, nc)
    return [[(sum(a * c - b * e for (a, b), (c, e) in zip(row, col)),
              sum(a * e + b * c for (a, b), (c, e) in zip(row, col)))
             for col in zip(*right)] if r else [(0, 0)] * nc for row in left]


def gint_shapes(rng: random.Random):
    """Tall, wide, square, rank-deficient, zero-row and empty matrices."""
    yield []
    yield [[] for _ in range(3)]
    for nr, nc in ((7, 3), (3, 8), (5, 5), (1, 4), (6, 1)):
        yield gint_matrix(rng, nr, nc, max(nr, nc))
        yield gint_matrix(rng, nr, nc, rng.randint(0, min(nr, nc) - 1))
        rows = gint_matrix(rng, nr, nc, min(nr, nc))
        rows[rng.randrange(nr)] = [(0, 0)] * nc
        yield rows
        yield [[(0, 0)] * nc for _ in range(nr)]


def test_row_rank_matches_pivots_on_seeded_gaussian_integers():
    rng = random.Random(53)
    deficient = 0
    for _ in range(6):
        for rows in gint_shapes(rng):
            before = [list(row) for row in rows]
            got = linalg.row_rank(rows)
            assert got == len(linalg.pivots(rows))
            assert rows == before
            deficient += got < len(rows)
    assert deficient > 30


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda nc: st.lists(st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
        min_size=nc, max_size=nc), min_size=0, max_size=6)))
def test_row_rank_matches_pivots_on_random_rows(rows):
    # repeat a combination of two rows, so that deficits come up often
    if len(rows) >= 2:
        rows = rows + [[(a + 2 * c - e, b + 2 * e + c)
                        for (a, b), (c, e) in zip(rows[0], rows[1])]]
    assert linalg.row_rank(rows) == len(linalg.pivots(rows))


def test_row_rank_survives_a_prime_that_drops_rank(monkeypatch):
    # p itself, and i against s (both map to s mod p), vanish or coincide
    # mod p, so only the exact check of the leftover rows sees the rank
    cases = [([[(P_CERT, 0)]], 1),
             ([[(1, 0), (0, 0)], [(1, 0), (P_CERT, 0)]], 2),
             ([[(1, 0), (0, 1)], [(1, 0), (S_CERT, 0)]], 2)]
    calls = []
    exact = linalg.pivots
    monkeypatch.setattr(linalg, "pivots",
                        lambda rows: calls.append(1) or exact(rows))
    for rows, want in cases:
        assert linalg.row_rank(rows) == want
    assert len(calls) == len(cases)
    # a deficit that is real is certified without the exact fallback
    assert linalg.row_rank([[(1, 0), (0, 1)], [(0, 1), (-1, 0)]]) == 1
    assert linalg.row_rank([[(2, 0)], [(P_CERT, 0)]]) == 1
    assert len(calls) == len(cases)


def test_row_rank_pair_survives_a_prime_that_drops_rank(monkeypatch):
    # the rows of test_row_rank_survives_a_prime_that_drops_rank, each with
    # a last row that p drops or keeps: both ranks are exact either way
    lasts = [(P_CERT, 0), (1, 0), (S_CERT, 0), (0, 1), (0, 0)]
    calls = []
    exact = linalg.pivots
    monkeypatch.setattr(linalg, "pivots",
                        lambda rows: calls.append(1) or exact(rows))
    cases = [[[(P_CERT, 0)]],
             [[(1, 0), (0, 0)], [(1, 0), (P_CERT, 0)]],
             [[(1, 0), (0, 1)], [(1, 0), (S_CERT, 0)]],
             [[(1, 0), (0, 1)], [(0, 1), (-1, 0)]],
             [[(2, 0)], [(P_CERT, 0)]],
             []]
    for rows in cases:
        width = len(rows[0]) if rows else 2
        for last in lasts:
            for target in ([last] * width, [last] + [(1, 0)] * (width - 1)):
                pair = linalg.row_rank_pair(rows + [target])
                assert pair == (linalg.row_rank(rows),
                                linalg.row_rank(rows + [target]))
                assert pair == (len(exact(rows)) if rows else 0,
                                len(exact(rows + [target])))
    assert calls


# -- the column solver on its block ----------------------------------------------

def check_solve_columns(cols, coeffs):
    """solve_columns on a target inside the span, at scales 1 and 7, and
    on its unit offsets, against in_span; returns how many offsets lie
    outside."""
    nr = len(cols[0])

    def combine(xs):
        out = [ZERO] * nr
        for x, col in zip(xs, cols):
            out = [t + x * c for t, c in zip(out, gint_scalars(col))]
        return out

    inside = combine(coeffs)
    assert linalg.solve_columns(cols, inside) == coeffs
    assert linalg.solve_columns(cols, inside, 7) == [x * 7 for x in coeffs]
    strays = 0
    for j in range(nr):
        unit = [ONE if i == j else ZERO for i in range(nr)]
        outside = [t + u for t, u in zip(inside, unit)]
        x = linalg.solve_columns(cols, outside)
        assert (x is not None) == in_span([gint_scalars(c) for c in cols],
                                          outside)
        if x is not None:
            assert combine(x) == outside
        strays += x is None
    return strays


def test_solve_columns_on_seeded_columns():
    rng = random.Random(61)
    strict = strays = 0
    for _ in range(30):
        nr = rng.randint(1, 6)
        k = rng.randint(1, nr)
        cols = [list(c) for c in zip(*gint_matrix(rng, nr, k, k))]
        if len(linalg.pivots(cols)) < k:
            assert linalg.solve_columns(cols, [ZERO] * nr) is None
            continue
        strays += check_solve_columns(cols, [
            Scalar.of(Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
                      rng.randint(-2, 2)) for _ in range(k)])
        strict += k < nr
    assert strict > 10 and strays > 10


def test_solve_columns_falls_back_when_p_divides_the_block(monkeypatch):
    # the columns coincide mod p (p itself, and i against s), so the pick
    # mod p keeps one of them and the exact pivots choose the block; both
    # spans are z = 2x + y, so (0, 0, 1) and every unit offset lie outside
    cases = [[[(1, 0), (0, 0), (2, 0)], [(1, 0), (P_CERT, 0), (2 + P_CERT, 0)]],
             [[(1, 0), (0, 1), (2, 1)], [(1, 0), (S_CERT, 0), (2 + S_CERT, 0)]]]
    calls = []
    exact = linalg.pivots
    monkeypatch.setattr(linalg, "pivots",
                        lambda rows: calls.append(1) or exact(rows))
    for cols in cases:
        assert check_solve_columns(cols, [Scalar.of(Fraction(2, 3), 1),
                                          Scalar.of(-1, Fraction(1, 5))]) == 3
        assert linalg.solve_columns(cols, [ZERO, ZERO, ONE]) is None
    # per case: one exact pivots pass in each of six solves (the inside
    # target at two scales, the three unit offsets and (0, 0, 1)), and one
    # in each of the three in_span references
    assert len(calls) == 9 * len(cases)


def test_solve_columns_rejects_dependent_columns():
    # dependent over Q(i) (the second column is i times the first), and
    # dependent mod p only through an exact dependence
    for cols in ([[(1, 0), (2, 1)], [(0, 1), (-1, 2)]],
                 [[(P_CERT, 0), (0, 0)], [(2 * P_CERT, 0), (0, 0)]]):
        assert linalg.solve_columns(cols, [ZERO, ZERO]) is None
        assert linalg.solve_columns(cols, gint_scalars(cols[0])) is None
