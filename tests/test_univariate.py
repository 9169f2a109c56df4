"""Univariate machinery: division, gcd, exact roots, Sturm counting, boxes.

sympy serves as the oracle for gcds, real-root counts, and root values;
the package code never imports it.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy

from hypothesis import given, settings
from hypothesis import strategies as st

from waringlab.scalars import _CERT_PRIMES, ONE, ZERO, Scalar
import waringlab.univariate as univariate
from waringlab.univariate import (BoxScalar, Interval, _cannot_split,
                                  _fp, _fp_rem, _round_out,
                                  _sturm_count, all_roots_real, as_real_poly,
                                  cauchy_bound, certified_root_boxes,
                                  fraction_sqrt, gaussian_sqrt,
                                  interval_solve, is_squarefree,
                                  isolate_real_roots, poly_degree,
                                  poly_derivative, poly_divmod, poly_eval,
                                  poly_gcd, poly_mul, poly_monic, poly_trim,
                                  refine_real_root, roots_over_gaussians,
                                  solve_quadratic, sturm_sequence)

T = sympy.symbols("t")


def to_sympy_poly(p):
    expr = sum((sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im))
               * T ** k for k, c in enumerate(p))
    return sympy.Poly(expr, T, domain="QQ_I")


def rand_poly(rng, deg, lo=-4, hi=4):
    coeffs = [Scalar.of(rng.randint(lo, hi)) for _ in range(deg)]
    coeffs.append(Scalar.of(rng.choice([1, 2, -1, 3])))
    return coeffs


def squarefree_part(a):
    """Monic a / gcd(a, a'): the same roots, each once."""
    a = poly_monic(a)
    if len(a) <= 2:
        return a
    q, r = poly_divmod(a, poly_gcd(a, poly_derivative(a)))
    assert not r
    return poly_monic(q)


def count_real_roots(p, lo=None, hi=None):
    """Distinct real roots of p in (lo, hi]; None endpoints mean infinity."""
    seq = sturm_sequence(p)
    if not seq or len(seq[0]) <= 1:
        return 0
    return _sturm_count(seq, lo, hi)


def from_real_roots(*roots):
    p = [ONE]
    for t in roots:
        p = poly_mul(p, [-Scalar.of(t), ONE])
    return p


def from_sympy(poly):
    if poly.is_zero:
        return []
    return [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]


def test_fraction_operations_match_sympy_and_stay_fractions():
    rng = random.Random(47)
    zero = Fraction(0)
    for trial in range(60):
        a = [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
             for _ in range(rng.randint(0, 6))]
        a += [Fraction(rng.choice((1, -2, 3)), rng.randint(1, 4))]
        b = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
             for _ in range(rng.randint(0, 3))] + [Fraction(rng.randint(1, 4))]
        if trial % 10 == 0:
            a = [zero] * (trial % 3)
        a += [zero] * (trial % 4)  # trailing zeros for poly_trim to drop
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        sa = sympy.Poly(list(reversed(a)) or [0], T, domain="QQ")
        sb = sympy.Poly(list(reversed(b)), T, domain="QQ")
        sq, sr = sa.div(sb)
        q, r = poly_divmod(a, b)
        got = [poly_trim(a), q, r, poly_derivative(a)]
        assert got == [from_sympy(sa), from_sympy(sq), from_sympy(sr),
                       from_sympy(sa.diff(T))]
        value = poly_eval(a, x)
        assert value == sa.eval(sympy.Rational(x.numerator, x.denominator))
        for c in [value] + [c for poly in got for c in poly]:
            assert type(c) is Fraction


def test_poly_divmod_reconstructs():
    rng = random.Random(5)
    for _ in range(40):
        a = rand_poly(rng, rng.randint(0, 6))
        b = rand_poly(rng, rng.randint(0, 3))
        q, r = poly_divmod(a, b)
        back = poly_mul(q, b)
        total = [ZERO] * max(len(back), len(r), len(a))
        for i, c in enumerate(back):
            total[i] = total[i] + c
        for i, c in enumerate(r):
            total[i] = total[i] + c
        for i, c in enumerate(a):
            assert total[i] == c
        assert len(r) < len(b) or all(c.is_zero for c in r)


def test_poly_gcd_matches_sympy():
    rng = random.Random(9)
    for _ in range(30):
        a = rand_poly(rng, rng.randint(1, 4))
        b = rand_poly(rng, rng.randint(1, 4))
        ours = to_sympy_poly(poly_gcd(a, b))
        theirs = to_sympy_poly(a).gcd(to_sympy_poly(b)).monic()
        assert ours == theirs


def test_gcd_picks_up_common_factors():
    # (t-1)(t-2) and (t-1)(t+5) share exactly t-1
    a = poly_mul([Scalar.of(-1), ONE], [Scalar.of(-2), ONE])
    b = poly_mul([Scalar.of(-1), ONE], [Scalar.of(5), ONE])
    assert poly_gcd(a, b) == [Scalar.of(-1), ONE]


def test_is_squarefree_matches_sympy():
    rng = random.Random(13)
    for trial in range(40):
        p = rand_poly(rng, rng.randint(1, 4))
        if trial % 3 == 0:
            p = poly_mul(p, p)  # force a square
        sp = to_sympy_poly(p)
        expected = all(m == 1 for _, m in sp.factor_list()[1])
        assert is_squarefree(p) == expected


def test_squarefree_part_strips_multiplicity():
    p = poly_mul([ONE, ONE], poly_mul([ONE, ONE], [Scalar.of(-2), ONE]))
    sf = squarefree_part(p)
    assert is_squarefree(sf)
    assert to_sympy_poly(sf) == to_sympy_poly(
        poly_monic(poly_mul([ONE, ONE], [Scalar.of(-2), ONE])))


def test_fraction_sqrt():
    assert fraction_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert fraction_sqrt(Fraction(2)) is None
    assert fraction_sqrt(Fraction(0)) == 0


def test_gaussian_sqrt_roundtrip():
    rng = random.Random(17)
    for _ in range(40):
        z = Scalar.of(Fraction(rng.randint(-5, 5), rng.choice((1, 2))),
                      Fraction(rng.randint(-5, 5), rng.choice((1, 2))))
        w = gaussian_sqrt(z * z)
        assert w is not None and w * w == z * z
    assert gaussian_sqrt(Scalar.of(2)) is None
    assert gaussian_sqrt(Scalar.of(0, 1)) is None


def test_solve_quadratic_exact_cases():
    # t^2 - 5t + 6 = (t-2)(t-3)
    roots = solve_quadratic(ONE, Scalar.of(-5), Scalar.of(6))
    assert roots is not None and set(roots) == {Scalar.of(2), Scalar.of(3)}
    # t^2 + 1 over the Gaussian rationals
    roots = solve_quadratic(ONE, ZERO, ONE)
    assert roots is not None
    assert set(roots) == {Scalar.of(0, 1), Scalar.of(0, -1)}
    # t^2 - 2 has no rational (or Gaussian rational) roots
    assert solve_quadratic(ONE, ZERO, Scalar.of(-2)) is None


def test_roots_over_gaussians_matches_sympy():
    rng = random.Random(21)
    hits = 0
    for _ in range(40):
        root_vals = [Scalar.of(rng.randint(-3, 3),
                               rng.randint(-1, 1) if rng.random() < 0.4
                               else 0)
                     for _ in range(rng.randint(1, 3))]
        if len(set(root_vals)) != len(root_vals):
            continue
        p = [ONE]
        for v in root_vals:
            p = poly_mul(p, [-v, ONE])
        got = roots_over_gaussians(p)
        assert got is not None
        assert sorted(got, key=lambda s: s.sort_key()) == sorted(
            root_vals, key=lambda s: s.sort_key())
        hits += 1
    assert hits >= 25


def test_roots_over_gaussians_refuses_irrational():
    # t^2 - 2: roots exist over R but not over Q(i)
    assert roots_over_gaussians([Scalar.of(-2), ZERO, ONE]) is None


def test_count_real_roots_matches_sympy():
    rng = random.Random(29)
    for _ in range(30):
        p = rand_poly(rng, rng.randint(1, 5))
        sf = squarefree_part(p)
        ours = count_real_roots(as_real_poly(sf))
        theirs = sympy.Poly([c.re for c in reversed(sf)], T).count_roots()
        assert ours == theirs


def test_all_roots_real():
    # (t-1)(t+2)(t-1/2) versus t^2+1 times a real root
    p = poly_mul(poly_mul([Scalar.of(-1), ONE], [Scalar.of(2), ONE]),
                 [Scalar.of(Fraction(-1, 2)), ONE])
    assert all_roots_real(p)
    q = poly_mul([ONE, ZERO, ONE], [Scalar.of(-1), ONE])
    assert not all_roots_real(q)


def test_sturm_sequence_signs_and_bound():
    p = as_real_poly([Scalar.of(-2), ZERO, ONE])  # t^2 - 2
    seq = sturm_sequence(p)
    assert len(seq) >= 2
    bound = cauchy_bound(p)
    assert bound >= 2  # both roots inside [-bound, bound]
    assert count_real_roots(p, -bound, bound) == 2


def test_isolate_and_refine_real_roots():
    # roots at -1, 1/3, 2
    p = poly_mul(poly_mul([ONE, ONE], [Scalar.of(Fraction(-1, 3)), ONE]),
                 [Scalar.of(-2), ONE])
    rp = as_real_poly(p)
    raw = isolate_real_roots(rp)
    assert len(raw) == 3
    expected = [Fraction(-1), Fraction(1, 3), Fraction(2)]
    for (lo, hi), want in zip(sorted(raw), sorted(expected)):
        lo2, hi2 = refine_real_root(rp, lo, hi, Fraction(1, 10 ** 12))
        assert lo2 <= want <= hi2
        assert hi2 - lo2 < Fraction(1, 10 ** 12)


def sturm_bisection(p, lo, hi, width):
    """The refinement as it was: one Sturm count per bisection step."""
    if poly_eval(p, hi) == 0:
        return (hi, hi)
    while hi - lo > width:
        mid = (lo + hi) / 2
        if poly_eval(p, mid) == 0:
            return (mid, mid)
        if count_real_roots(p, mid, hi) == 1:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


def test_refine_real_root_matches_sturm_bisection():
    rng = random.Random(41)
    width = Fraction(1, 10 ** 15)
    boxes = 0
    for trial in range(40):
        if trial % 4 == 0:
            # rational roots, some dyadic, so bisection lands on them
            p = from_real_roots(*rng.sample(
                [-2, -1, Fraction(-1, 2), 0, Fraction(1, 4), Fraction(1, 3),
                 1, Fraction(3, 2), 2, 3], rng.randint(1, 4)))
        else:
            p = squarefree_part(rand_poly(rng, rng.randint(1, 6)))
        rp = as_real_poly(p)
        for lo, hi in isolate_real_roots(rp):
            boxes += 1
            assert (refine_real_root(rp, lo, hi, width)
                    == sturm_bisection(rp, lo, hi, width))
    assert boxes > 40


def fraction_bisection(p, lo, hi, width):
    """The refinement's bisection as it ran on Fractions, for reference."""
    s_hi = poly_eval(p, hi)
    if s_hi == 0:
        return (hi, hi)
    while hi - lo > width:
        mid = (lo + hi) / 2
        s_mid = poly_eval(p, mid)
        if s_mid == 0:
            return (mid, mid)
        if (s_mid > 0) != (s_hi > 0):
            lo = mid
        else:
            hi = mid
    return (lo, hi)


real_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=60)


@given(st.lists(real_coeffs, min_size=2, max_size=7),
       st.sampled_from([Fraction(1, 10 ** 40), Fraction(3, 10 ** 12),
                        Fraction(1, 2 ** 70), Fraction(1, 7)]))
@settings(max_examples=60, deadline=None)
def test_integer_bisection_matches_fraction_bisection(coeffs, width):
    """On random squarefree real polynomials with rational coefficients,
    the integer bisection returns the Fraction bisection's ends."""
    p = poly_trim([Scalar.of(c) for c in coeffs])
    if len(p) < 2:
        return
    rp = as_real_poly(squarefree_part(p))
    for lo, hi in isolate_real_roots(rp):
        assert (refine_real_root(rp, lo, hi, width)
                == fraction_bisection(rp, lo, hi, width))


def test_refine_real_root_at_the_right_end_and_midpoints():
    rp = as_real_poly(from_real_roots(-1, 1))
    width = Fraction(1, 10 ** 9)
    assert refine_real_root(rp, Fraction(0), Fraction(1), width) == (1, 1)
    assert refine_real_root(rp, Fraction(-2), Fraction(0),
                            width) == (-1, -1)
    lo, hi = refine_real_root(rp, Fraction(-2), Fraction(-1, 3), width)
    assert lo < -1 < hi or lo == hi == -1


def test_refine_real_root_checks_its_precondition():
    width = Fraction(1, 10 ** 6)
    double = as_real_poly(from_real_roots(1, 1, -2))
    with pytest.raises(ValueError):
        refine_real_root(double, Fraction(0), Fraction(2), width)
    rp = as_real_poly(from_real_roots(-2, 1))
    for lo, hi in ((2, 5), (-3, 2), (-5, -3)):
        with pytest.raises(ValueError):
            refine_real_root(rp, Fraction(lo), Fraction(hi), width)
    with pytest.raises(ValueError):
        refine_real_root([Fraction(3)], Fraction(0), Fraction(1), width)


def test_refine_real_root_builds_one_sturm_chain(monkeypatch):
    calls = []

    def counting(p):
        calls.append(p)
        return sturm_sequence(p)

    monkeypatch.setattr(univariate, "sturm_sequence", counting)
    rp = as_real_poly(from_real_roots(Fraction(-1, 3), Fraction(2, 7), 5))
    lo, hi = refine_real_root(rp, Fraction(0), Fraction(1),
                              Fraction(1, 10 ** 40))
    assert lo < Fraction(2, 7) < hi
    assert len(calls) == 1
    calls.clear()
    assert len(isolate_real_roots(rp)) == 3
    assert len(calls) == 1


def test_all_roots_real_on_non_squarefree_inputs():
    t = sympy.symbols("t")
    # (t-1)^2 (t+2) and (t^2+1)^2 (t-3), then seeded products with squares
    cases = [from_real_roots(1, 1, -2),
             poly_mul(poly_mul([ONE, ZERO, ONE], [ONE, ZERO, ONE]),
                      [Scalar.of(-3), ONE])]
    rng = random.Random(43)
    for _ in range(30):
        a = rand_poly(rng, rng.randint(1, 3))
        b = rand_poly(rng, rng.randint(0, 2))
        cases.append(poly_mul(poly_mul(a, a), b))
    seen = set()
    for p in cases:
        expr = sum(sympy.Rational(c.re) * t ** k for k, c in enumerate(p))
        poly = sympy.Poly(expr, t)
        expected = len(sympy.real_roots(poly)) == poly.degree()
        seen.add(expected)
        assert all_roots_real(p) == expected
    assert seen == {True, False}
    assert all_roots_real(cases[0]) and not all_roots_real(cases[1])


def test_certified_root_boxes_cover_all_roots():
    # squarefree with two real and two complex roots: (t^2+1)(t-1)(t+3)
    p = poly_mul([ONE, ZERO, ONE],
                 poly_mul([Scalar.of(-1), ONE], [Scalar.of(3), ONE]))
    radius = Fraction(1, 10 ** 20)
    boxes = certified_root_boxes(p, radius)
    assert len(boxes) == 4
    targets = [Scalar.of(1), Scalar.of(-3), Scalar.of(0, 1),
               Scalar.of(0, -1)]
    for t in targets:
        hits = [b for b in boxes
                if (b.center - t).norm() <= radius * radius]
        assert len(hits) == 1


def test_certified_root_boxes_reject_non_squarefree():
    p = poly_mul([ONE, ONE], [ONE, ONE])
    with pytest.raises(ValueError):
        certified_root_boxes(p, Fraction(1, 10 ** 10))


def test_interval_solve_small_system():
    a = BoxScalar.exact(Scalar.of(2))
    b = BoxScalar.exact(Scalar.of(1))
    c = BoxScalar.exact(Scalar.of(1))
    d = BoxScalar.exact(Scalar.of(1))
    # [[2,1],[1,1]] x = [3, 2] has solution [1, 1]
    sol = interval_solve([[a, b], [c, d]],
                         [BoxScalar.exact(Scalar.of(3)),
                          BoxScalar.exact(Scalar.of(2))])
    assert sol is not None
    for box in sol:
        assert box.re.contains(Fraction(1))
        assert box.im.contains(Fraction(0))


def test_poly_eval_horner():
    p = [Scalar.of(1), Scalar.of(-2), Scalar.of(3)]  # 3t^2 - 2t + 1
    assert poly_eval(p, Scalar.of(2)) == Scalar.of(9)


fracs = st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 12)
radii = st.fractions(min_value=0, max_value=2, max_denominator=10 ** 6)


@given(fracs, fracs)
@settings(max_examples=80, deadline=None)
def test_round_out_is_outward_and_tight(a, b):
    lo, hi = (a, b) if a <= b else (b, a)
    d = lo.denominator * hi.denominator
    box = _round_out(lo.numerator * hi.denominator,
                     hi.numerator * lo.denominator, d)
    assert box.lo <= lo <= hi <= box.hi
    if lo == hi:
        assert (box.lo, box.hi) == (lo, hi)
    else:
        # growth stays far below the sixty-four guard bits
        assert box.hi - box.lo <= (hi - lo) * (1 + Fraction(1, 2 ** 62))


# -- the Fraction interval kernel the integer one replaced, as a reference ----

def ref_round_out(lo, hi):
    if lo == hi:
        return (lo, hi)
    w = hi - lo
    k = 64 + max(0, w.denominator.bit_length() - w.numerator.bit_length() + 1)
    scale = 1 << k
    if lo.denominator <= scale and hi.denominator <= scale:
        return (lo, hi)
    return (Fraction(lo.numerator * scale // lo.denominator, scale),
            Fraction(-((-hi.numerator * scale) // hi.denominator), scale))


def ref_mul(x, y):
    vals = (x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1])
    return ref_round_out(min(vals), max(vals))


def ref_recip(x):
    return ref_round_out(1 / x[1], 1 / x[0])


REF_OPS = {"add": lambda x, y: ref_round_out(x[0] + y[0], x[1] + y[1]),
           "sub": lambda x, y: ref_round_out(x[0] - y[1], x[1] - y[0]),
           "mul": ref_mul, "neg": lambda x, y: (-x[1], -x[0]),
           "recip": lambda x, y: ref_recip(x),
           "truediv": lambda x, y: ref_mul(x, ref_recip(y))}
OPS = {"add": lambda x, y: x + y, "sub": lambda x, y: x - y,
       "mul": lambda x, y: x * y, "neg": lambda x, y: -x,
       "recip": lambda x, y: x.recip(), "truediv": lambda x, y: x / y}


def off_zero(x):
    """x itself, or x shifted onto the negatives if it holds zero."""
    if x[0] <= 0 <= x[1]:
        return (x[0] - x[1] - 1, Fraction(-1))
    return x


def dyadic_ends(draw):
    k = draw(st.integers(0, 300))
    a, b = sorted(draw(st.integers(-2 ** 310, 2 ** 310)) for _ in range(2))
    return Fraction(a, 1 << k), Fraction(b, 1 << k)


def centred_ends(draw):
    # a rational centre +- r 10^-40, as the implicit-mode root boxes are
    c = draw(st.fractions(min_value=-9, max_value=9,
                          max_denominator=2 ** 80))
    r = Fraction(draw(st.integers(0, 9)), 10 ** 40)
    return c - r, c + r


def exact_ends(draw):
    x = draw(st.fractions(max_denominator=10 ** 9))
    return x, x


@st.composite
def interval_ends(draw):
    return draw(st.sampled_from((dyadic_ends, centred_ends,
                                 exact_ends)))(draw)


@given(interval_ends(), interval_ends(), st.sampled_from(sorted(OPS)))
@settings(max_examples=400, deadline=None)
def test_integer_intervals_match_the_fraction_kernel(x, y, op):
    """lo and hi of every operation equal the Fraction kernel's, on dyadic,
    non-dyadic, mixed and zero-width ends; reciprocals see positive and
    negative intervals."""
    if op == "recip":
        x = off_zero(x)
    if op == "truediv":
        y = off_zero(y)
    got = OPS[op](Interval(*x), Interval(*y))
    want = REF_OPS[op](x, y)
    assert (got.lo, got.hi) == want
    assert got == Interval(*want)


@given(st.lists(interval_ends(), min_size=2, max_size=6))
@settings(max_examples=60, deadline=None)
def test_integer_interval_chains_match_the_fraction_kernel(ends):
    """Results fed back in, so rounded ends meet exact and non-dyadic ones."""
    acc, ref = Interval(*ends[0]), ends[0]
    for i, x in enumerate(ends[1:]):
        op = ("mul", "add", "sub")[i % 3]
        acc, ref = OPS[op](acc, Interval(*x)), REF_OPS[op](ref, x)
        assert (acc.lo, acc.hi) == ref
    got = Interval(*off_zero(ref)).recip()
    assert (got.lo, got.hi) == ref_recip(off_zero(ref))


def test_interval_solve_builds_no_fraction(monkeypatch):
    """The rectangle kernel stays on integers: a 5x5 solve on dyadic boxes
    constructs no Fraction at all."""
    rng = random.Random(18)

    def box(v):
        c = Fraction(rng.randint(-2 ** 80, 2 ** 80), 2 ** 70)
        r = Fraction(1, 2 ** 100)
        return Interval(c + v - r, c + v + r)

    matrix = [[BoxScalar(box(8 if i == j else 0), box(0)) for j in range(5)]
              for i in range(5)]
    rhs = [BoxScalar(box(1), box(0)) for _ in range(5)]
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    sol = interval_solve(matrix, rhs)
    monkeypatch.undo()
    assert made == []
    assert len(sol) == 5 and all(not z.contains_zero() for z in sol)


@given(fracs, fracs, radii, radii)
@settings(max_examples=60, deadline=None)
def test_interval_ops_contain_exact_values(x, y, rx, ry):
    ix = Interval(x - rx, x + rx)
    iy = Interval(y - ry, y + ry)
    s = ix + iy
    assert s.lo <= x + y <= s.hi
    d = ix - iy
    assert d.lo <= x - y <= d.hi
    p = ix * iy
    assert p.lo <= x * y <= p.hi
    if ix.lo > 0 or ix.hi < 0:
        r = ix.recip()
        assert r.lo <= Fraction(1) / x <= r.hi


def test_interval_chain_keeps_denominators_bounded():
    # z -> z^2 + c stays near a fixed point for c close to -1/3; without
    # outward rounding the exact denominators square at every step
    c = Interval(Fraction(-1, 3) - Fraction(1, 10 ** 9),
                 Fraction(-1, 3) + Fraction(1, 10 ** 9))
    z = c
    for _ in range(25):
        z = z * z + c
    # orbit settles near the attracting fixed point (1 - sqrt(7/3))/2
    assert Fraction(-1, 2) < z.lo <= z.hi < Fraction(-1, 5)
    assert z.lo.denominator.bit_length() < 4000
    assert z.hi.denominator.bit_length() < 4000


def test_modular_filter_never_discards_true_roots():
    # roots_over_gaussians skips a candidate x when the image of the monic
    # polynomial leaves a remainder mod t - x; the image is a ring map, so
    # the remainder is the image of the value and a true root survives
    rng = random.Random(5)
    p, s = _CERT_PRIMES[-1]
    agree = 0
    for _ in range(200):
        deg = rng.randint(1, 6)
        coeffs = [Scalar.of(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                  for _ in range(deg + 1)]
        cand = Scalar.of(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                         Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        image = [_fp(z, p, s) for z in coeffs]
        x = _fp(cand, p, s)
        if x is None or None in image:
            continue
        rem = _fp_rem(image, [-x % p, 1], p)
        value = _fp(poly_eval(coeffs, cand), p, s)
        assert rem == ([value] if value else [])
        if not poly_eval(coeffs, cand):
            assert not rem
        agree += 1
    assert agree > 150

    # (t - w)(t - 1): both roots survive the filter
    w = Scalar.of(Fraction(3, 7), Fraction(-2, 5))
    quad = [w, -(ONE + w), ONE]
    image = [_fp(z, p, s) for z in quad]

    def kept(z):
        return not _fp_rem(image, [-_fp(z, p, s) % p, 1], p)

    assert kept(w)
    assert kept(ONE)
    assert not kept(Scalar.of(17))


# -- modular certificates ----------------------------------------------------

P1, P2 = (p for p, _ in _CERT_PRIMES)


def from_roots(roots):
    p = [ONE]
    for v in roots:
        p = poly_mul(p, [-v, ONE])
    return p


def test_certificate_primes():
    for p, s in _CERT_PRIMES:
        assert p % 4 == 1
        assert sympy.isprime(p) and sympy.isprime((p - 1) // 4)
        assert (s * s + 1) % p == 0


def test_split_polynomials_pass_the_certificate():
    rng = random.Random(31)
    checked = 0
    for _ in range(60):
        roots = {Scalar.of(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                           Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                 for _ in range(rng.randint(3, 6))}
        if len(roots) < 3:
            continue
        assert not _cannot_split(poly_monic(from_roots(roots)))
        checked += 1
    assert checked >= 50


def test_split_polynomials_keep_their_roots():
    i = Scalar.of(0, 1)
    cases = [
        [ONE, Scalar.of(-2), i, Scalar.of(3, -1)],
        [Scalar.of(Fraction(1, 2)), Scalar.of(Fraction(-2, 3), 1),
         Scalar.of(5), -i, Scalar.of(-1)],
        # the first prime divides a denominator, so its reduction is bad
        [Scalar.of(Fraction(1, P1)), ONE, Scalar.of(-1)],
    ]
    for roots in cases:
        got = roots_over_gaussians(from_roots(roots))
        assert got == sorted(roots, key=lambda z: z.sort_key())


def test_non_split_binomials_are_certified():
    for p in ([Scalar.of(-2), ZERO, ZERO, ZERO, ZERO, ONE],
              [Scalar.of(3)] + [ZERO] * 7 + [ONE]):
        assert _cannot_split(p)
        assert roots_over_gaussians(p) is None


def test_bad_reductions_fall_through_to_the_snapper():
    # every certificate prime divides the constant's denominator
    p = [Scalar.of(Fraction(-1, P1 * P2)), ZERO, ZERO, ZERO, ZERO, ONE]
    assert not _cannot_split(p)
    assert roots_over_gaussians(p) is None


def test_is_squarefree_agrees_with_exact_gcd():
    def exact(a):
        return poly_degree(poly_gcd(a, poly_derivative(a))) == 0

    rng = random.Random(37)
    for trial in range(80):
        deg = rng.randint(1, 5)
        p = [Scalar.of(Fraction(rng.randint(-5, 5), rng.choice((1, 2, P1))),
                       Fraction(rng.randint(-2, 2), rng.choice((1, 3))))
             for _ in range(deg)] + [Scalar.of(rng.choice((1, -2, 3)))]
        if trial % 3 == 0:
            p = poly_mul(p, [Scalar.of(rng.randint(-2, 2)), ONE])
        if trial % 4 == 0:
            p = poly_mul(p, p)
        assert is_squarefree(p) == exact(p)
    # squarefree over Q(i) but not mod the first prime, then not mod any
    for shift in (P1, P1 * P2):
        p = from_roots([ONE, ONE + Scalar.of(shift)])
        assert is_squarefree(p) and exact(p)
    assert not is_squarefree(from_roots([ONE, ONE, Scalar.of(2)]))
    # (P1 t - 1)^2 (t - 2): the square drops out with the leading term mod P1
    lin = [Scalar.of(-1), Scalar.of(P1)]
    p = poly_mul(poly_mul(lin, lin), [Scalar.of(-2), ONE])
    assert not is_squarefree(p) and not exact(p)
