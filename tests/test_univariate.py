"""Univariate machinery: division, gcd, exact roots, Sturm counting, boxes.

sympy serves as the oracle for gcds, real-root counts, and root values;
the package code never imports it.
"""

from __future__ import annotations

import contextlib
import random
from fractions import Fraction
from math import isqrt

import pytest
import sympy

from hypothesis import given, settings
from hypothesis import strategies as st

from waringlab.linalg import _clear
from waringlab.scalars import _CERT_PRIMES, ONE, ZERO, Scalar
import waringlab.univariate as univariate
from waringlab.univariate import (BoxScalar, Interval, RootBox, _bisect,
                                  _cannot_split, _dyadic_scalar, _fp_at,
                                  _gsqrt,
                                  _homogenized_sign, _round_out, _snap,
                                  _variations, all_roots_real,
                                  certified_root_boxes,
                                  interval_solve, is_squarefree,
                                  isolate_real_roots,
                                  poly_derivative, poly_eval,
                                  poly_gcd, poly_mul, poly_trim,
                                  roots_over_gaussians,
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
    """Distinct real roots of p in (lo, hi] on the integer chain; None ends
    mean -infinity and +infinity."""
    seq = sturm_sequence(p)
    if not seq or len(seq[0]) <= 1:
        return 0

    def variations(x, end):
        if x is None:
            return _variations([(1 if q[-1] > 0 else -1)
                                * (end if len(q) % 2 == 0 else 1)
                                for q in seq])
        n, m = x.as_integer_ratio()
        return _variations([_homogenized_sign(q, n, m) for q in seq])

    return variations(lo, -1) - variations(hi, 1)


def from_real_roots(*roots):
    p = [ONE]
    for t in roots:
        p = poly_mul(p, [-Scalar.of(t), ONE])
    return p


def from_sympy(poly):
    if poly.is_zero:
        return []
    return [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]


# -- references: the Fraction Sturm chain, the Scalar root path and the
#    Scalar square roots that the integer ones replaced ------------------------

def poly_monic(a):
    a = poly_trim(a)
    return [c / a[-1] for c in a] if a else []


def poly_divmod(a, b):
    a = poly_trim(a)
    b = poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lead = b[-1]
    q = [lead * 0] * max(0, len(a) - len(b) + 1)
    r = a
    while len(r) >= len(b):
        f = r[-1] / lead
        k = len(r) - len(b)
        q[k] = f
        for i, c in enumerate(b):
            r[i + k] = r[i + k] - f * c
        r = poly_trim(r)
    return poly_trim(q), r


def ref_poly_gcd(a, b):
    """The Euclidean gcd over Q(i) on Scalar lists, made monic."""
    a = poly_trim(a)
    b = poly_trim(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    return poly_monic(a)


def as_real_poly(p):
    if any(c.im for c in p):
        raise ValueError("polynomial is not real")
    return poly_trim([c.re for c in p])


def ref_sturm_sequence(p):
    p = poly_trim(p)
    if not p:
        return []
    seq = [p, poly_derivative(p)]
    while seq[-1]:
        _, rem = poly_divmod(seq[-2], seq[-1])
        if not rem:
            break
        seq.append([-c for c in rem])
    return seq


def ref_sign(x):
    return (x > 0) - (x < 0)


def ref_sturm_at(seq, x, top):
    signs = []
    for q in seq:
        if not q:
            signs.append(0)
        elif x is None:
            s = ref_sign(q[-1])
            if not top and (len(q) - 1) % 2 == 1:
                s = -s
            signs.append(s)
        else:
            signs.append(ref_sign(poly_eval(q, x)))
    return _variations(signs)


def ref_sturm_count(seq, lo, hi):
    return ref_sturm_at(seq, lo, top=False) - ref_sturm_at(seq, hi, top=True)


def cauchy_bound(p):
    q = poly_trim(p)
    if len(q) <= 1:
        return Fraction(1)
    return Fraction(1) + max(abs(c) for c in q[:-1]) / abs(q[-1])


def ref_all_roots_real(p):
    """The binary engine's test as it was: monic over Q(i), real, then the
    Fraction chain's count at -infinity and +infinity."""
    monic = poly_monic(p)
    if not all(c.is_real for c in monic):
        return False
    rp = as_real_poly(monic)
    if len(rp) <= 1:
        return True
    seq = ref_sturm_sequence(rp)
    return ref_sturm_count(seq, None, None) == len(rp) - len(seq[-1])


def ref_isolate_real_roots(p):
    p = poly_trim(p)
    if len(p) <= 1:
        return []
    seq = ref_sturm_sequence(p)
    b = cauchy_bound(p)
    out = []
    stack = [(-b, b, ref_sturm_count(seq, -b, b))]
    while stack:
        lo, hi, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        left = ref_sturm_count(seq, lo, mid)
        stack.append((mid, hi, cnt - left))
        stack.append((lo, mid, left))
    out.sort()
    return out


def ref_refine_real_root(p, lo, hi, width):
    """The Fraction chain's precondition, then the Fraction bisection."""
    seq = ref_sturm_sequence(p)
    if not seq or len(seq[-1]) != 1:
        raise ValueError("refinement needs a squarefree, nonconstant p")
    if ref_sturm_count(seq, lo, hi) != 1:
        raise ValueError("refinement needs exactly one root in (lo, hi]")
    return fraction_bisection(p, lo, hi, width)


def ref_refined_roots(p, width):
    """The Fraction refinement of each Fraction isolating interval of the
    squarefree part of the real list p."""
    sf = [c.re for c in squarefree_part([Scalar.of(c) for c in p])]
    return [ref_refine_real_root(sf, lo, hi, width)
            for lo, hi in ref_isolate_real_roots(sf)]


def ref_fraction_sqrt(q):
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    rn = isqrt(q.numerator)
    rd = isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def ref_gaussian_sqrt(z):
    """A square root of z inside Q(i), or None when no such root exists."""
    if z.is_zero:
        return ZERO
    if z.im == 0:
        if z.re > 0:
            r = ref_fraction_sqrt(z.re)
            return None if r is None else Scalar.of(r)
        r = ref_fraction_sqrt(-z.re)
        return None if r is None else Scalar(Fraction(0), r)
    w = ref_fraction_sqrt(z.norm())
    if w is None:
        return None
    half = Fraction(1, 2)
    a2 = (z.re + w) * half
    a = ref_fraction_sqrt(a2)
    if a is None or a == 0:
        return None
    b = z.im / (2 * a)
    root = Scalar(a, b)
    if root * root != z:
        raise ArithmeticError("square root does not square back")
    return root


def ref_solve_quadratic(a, b, c):
    """Roots of a t^2 + b t + c over Q(i) on Scalars; None outside."""
    if a.is_zero:
        raise ValueError("not a quadratic")
    disc = b * b - Scalar.of(4) * a * c
    s = ref_gaussian_sqrt(disc)
    if s is None:
        return None
    two_a = Scalar.of(2) * a
    return ((-b + s) / two_a, (-b - s) / two_a)


def _fp(z, p, s):
    """The image re + im*s of z in F_p, or None when a denominator hits p."""
    try:
        return (z.re.numerator * pow(z.re.denominator, -1, p)
                + s * z.im.numerator * pow(z.im.denominator, -1, p)) % p
    except ValueError:
        return None


def ref_fp_rem(a, b, p):
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    while len(a) > db:
        f = a.pop() * inv % p
        if f:
            k = len(a) - db
            for i in range(db):
                a[k + i] = (a[k + i] - f * b[i]) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def ref_good_reduction(a, p, s):
    out = [_fp(c, p, s) for c in a]
    if None in out or not out[-1]:
        return None
    x, y = out, [c * i % p for i, c in enumerate(out)][1:]
    while y and y[-1] == 0:
        y.pop()
    while y:
        x, y = y, ref_fp_rem(x, y, p)
    return out if len(x) == 1 else None


def ref_cannot_split(g):
    for p, s in _CERT_PRIMES:
        gm = ref_good_reduction(g, p, s)
        if gm is None:
            continue
        acc = [1]
        for bit in bin(p)[2:]:
            sq = [0] * (2 * len(acc) - 1)
            for i, x in enumerate(acc):
                for j, y in enumerate(acc):
                    sq[i + j] += x * y
            if bit == "1":
                sq.insert(0, 0)
            acc = ref_fp_rem([c % p for c in sq], gm, p)
        return acc != [0, 1]
    return False


def ref_float_roots(p):
    coeffs = [complex(float(c.re), float(c.im)) for c in poly_trim(p)]
    n = len(coeffs) - 1
    if n <= 0:
        return []
    lead = coeffs[-1]
    coeffs = [c / lead for c in coeffs]
    bound = 1.0 + max(abs(c) for c in coeffs[:-1]) if n else 1.0
    zs = [bound * (0.41 + 0.87j) ** (k + 1) for k in range(n)]
    for _ in range(400):
        moved = 0.0
        for i in range(n):
            num = 0j
            for c in reversed(coeffs):
                num = num * zs[i] + c
            den = 1.0 + 0j
            for j in range(n):
                if j != i:
                    den *= zs[i] - zs[j]
            if den == 0:
                zs[i] += 1e-6 + 1e-6j
                continue
            step = num / den
            zs[i] -= step
            moved = max(moved, abs(step))
        if moved < 1e-14:
            break
    return zs


def ref_roots_over_gaussians(p):
    """The Scalar root path: monic, certificate, snap, evaluate, divide."""
    work = poly_monic(p)
    deg = len(work) - 1
    if deg < 0:
        raise ValueError("zero polynomial has no root list")
    if deg >= 3 and ref_cannot_split(work):
        return None
    roots = []
    while len(work) - 1 > 0:
        if len(work) - 1 == 1:
            roots.append(-work[0] / work[1])
            break
        if len(work) - 1 == 2:
            pair = ref_solve_quadratic(work[2], work[1], work[0])
            if pair is None:
                return None
            roots.extend(pair)
            break
        found = None
        p, s = _CERT_PRIMES[-1]
        image = [_fp(c, p, s) for c in work]
        filtering = None not in image
        for z0 in ref_float_roots(work):
            for re_c in _snap(z0.real):
                for im_c in _snap(z0.imag):
                    cand = Scalar(re_c, im_c)
                    x = _fp(cand, p, s) if filtering else None
                    if x is not None and ref_fp_rem(image, [-x % p, 1], p):
                        continue
                    if not poly_eval(work, cand):
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            return None
        roots.append(found)
        work, rem = poly_divmod(work, [-found, ONE])
        assert not rem
    roots.sort(key=lambda z: z.sort_key())
    return roots


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


def gsquare(z):
    return (z[0] * z[0] - z[1] * z[1], 2 * z[0] * z[1])


def test_fraction_sqrt():
    # square roots of rationals q, as the roots of t^2 - q cleared
    three_halves = Scalar.of(Fraction(3, 2))
    assert solve_quadratic((4, 0), (0, 0), (-9, 0)) == (three_halves,
                                                        -three_halves)
    assert solve_quadratic((9, 0), (0, 0), (-2, 0)) is None
    assert solve_quadratic((1, 0), (0, 0), (0, 0)) == (ZERO, ZERO)


def test_gaussian_sqrt_roundtrip():
    rng = random.Random(17)
    for _ in range(40):
        z = (rng.randint(-5, 5), rng.randint(-5, 5))
        w = _gsqrt(gsquare(z))
        assert w is not None and gsquare(w) == gsquare(z)
    assert _gsqrt((2, 0)) is None
    assert _gsqrt((0, 1)) is None


def test_solve_quadratic_exact_cases():
    # t^2 - 5t + 6 = (t-2)(t-3)
    roots = solve_quadratic((1, 0), (-5, 0), (6, 0))
    assert roots is not None and set(roots) == {Scalar.of(2), Scalar.of(3)}
    # t^2 + 1 over the Gaussian rationals
    roots = solve_quadratic((1, 0), (0, 0), (1, 0))
    assert roots is not None
    assert set(roots) == {Scalar.of(0, 1), Scalar.of(0, -1)}
    # t^2 - 2 has no rational (or Gaussian rational) roots
    assert solve_quadratic((1, 0), (0, 0), (-2, 0)) is None


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
    boxes = isolate_real_roots(rp, Fraction(1, 10 ** 12))
    assert len(boxes) == 3
    expected = [Fraction(-1), Fraction(1, 3), Fraction(2)]
    for (lo, hi), want in zip(boxes, expected):
        assert lo <= want <= hi
        assert hi - lo < Fraction(1, 10 ** 12)


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


def test_isolate_real_roots_matches_sturm_bisection():
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
        want = [sturm_bisection(rp, lo, hi, width)
                for lo, hi in ref_isolate_real_roots(rp)]
        boxes += len(want)
        assert isolate_real_roots(rp, width) == want
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
    assert isolate_real_roots(rp, width) == [
        fraction_bisection(rp, lo, hi, width)
        for lo, hi in ref_isolate_real_roots(rp)]


def test_isolate_real_roots_at_the_right_end_and_midpoints():
    rp = as_real_poly(from_real_roots(-1, 1))
    width = Fraction(1, 10 ** 9)
    # (-2, 2] splits at 0, and each half's first midpoint is a root
    assert isolate_real_roots(rp, width) == [(-1, -1), (1, 1)]
    q = sturm_sequence(rp)[0]
    assert _bisect(q, 0, 1, 1, width) == (1, 1)
    assert _bisect(q, -2, 0, 1, width) == (-1, -1)
    lo, hi = _bisect(q, -6, -1, 3, width)
    assert lo < -1 < hi or lo == hi == -1


def test_isolate_real_roots_builds_a_second_chain_only_on_a_repeated_root(
        monkeypatch):
    calls = []

    def counting(p):
        calls.append(p)
        return sturm_sequence(p)

    monkeypatch.setattr(univariate, "sturm_sequence", counting)
    width = Fraction(1, 10 ** 40)
    rp = as_real_poly(from_real_roots(Fraction(-1, 3), Fraction(2, 7), 5))
    boxes = isolate_real_roots(rp, width)
    assert len(boxes) == 3 and boxes[1][0] < Fraction(2, 7) < boxes[1][1]
    assert len(calls) == 1
    calls.clear()
    double = as_real_poly(from_real_roots(Fraction(-1, 3), Fraction(2, 7),
                                          Fraction(2, 7), 5))
    assert isolate_real_roots(double, width) == boxes
    assert len(calls) == 2


@contextlib.contextmanager
def count_budget(calls=1000):
    """univariate._count raising after the given number of calls, so an
    isolation that bisects forever fails instead of hanging."""
    left = [calls]
    count = univariate._count

    def budgeted(*args):
        left[0] -= 1
        if left[0] < 0:
            raise RuntimeError("isolation ran out of Sturm counts")
        return count(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(univariate, "_count", budgeted)
        yield


def test_isolation_returns_on_a_repeated_root_at_a_bisection_point():
    # t^2 (4t - 5/2)^2: the first midpoint 0 is a root of p and of p'
    p = [Fraction(0), Fraction(0), Fraction(25, 4), Fraction(-20),
         Fraction(16)]
    width = Fraction(1, 10 ** 12)
    with count_budget():
        boxes = isolate_real_roots(p, width)
    assert len(boxes) == 2 and boxes[0] == (0, 0)
    lo, hi = boxes[1]
    assert lo <= Fraction(5, 8) <= hi and hi - lo < width
    assert boxes == ref_refined_roots(p, width)


@st.composite
def products_with_squares(draw):
    """r^2 s: r a product of rational linear factors, at 0 or a dyadic
    point some of the time, where the bisection lands, or a random
    rational polynomial; s an optional random integer factor."""
    if draw(st.booleans()):
        roots = draw(st.lists(st.sampled_from(
            (0, 1, -1, Fraction(1, 2), Fraction(-3, 4), Fraction(2, 3))),
            min_size=1, max_size=3))
        r = [c.re for c in from_real_roots(*roots)]
    else:
        r = draw(st.lists(real_coeffs, min_size=2, max_size=3))
        r[-1] = r[-1] or Fraction(1)
    s = draw(st.lists(st.integers(-4, 4), max_size=3))
    r = [Scalar.of(c) for c in r]
    p = [x.re for x in poly_mul(r, r)]
    if any(s):
        p = [x.re for x in poly_mul([Scalar.of(c) for c in p],
                                    [Scalar.of(c) for c in s])]
    return p


@given(products_with_squares(),
       st.sampled_from([Fraction(1, 10 ** 30), Fraction(1, 7)]))
@settings(max_examples=150, deadline=None)
def test_isolation_of_a_product_with_squares_refines_its_squarefree_part(
        p, width):
    """The reference refinement of the reference isolation of p / gcd(p, p'),
    within a budget of Sturm counts."""
    with count_budget():
        got = isolate_real_roots(p, width)
    assert got == ref_refined_roots(p, width)


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


def gaussian_image(z, p, s):
    return (z[0] + s * z[1]) % p


def candidate(z):
    """z = (a + b i)/q as (a, b, q) over one denominator."""
    (a, da), (b, db) = z.re.as_integer_ratio(), z.im.as_integer_ratio()
    q = da * db
    return a * db, b * da, q


def test_modular_filter_never_discards_true_roots():
    # roots_over_gaussians skips a candidate z/q when the image of
    # q^n w(z/q) is nonzero mod p, w the cleared polynomial; the image is a
    # ring map, so it is the image of the exact value and a true root
    # survives
    rng = random.Random(5)
    p, s = _CERT_PRIMES[-1]
    checked = 0
    for _ in range(200):
        deg = rng.randint(1, 6)
        coeffs = [Scalar.of(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                  for _ in range(deg + 1)]
        cand = Scalar.of(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                         Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        w, den = _clear(poly_trim(coeffs))
        a, b, q = candidate(cand)
        got = _fp_at([gaussian_image(z, p, s) for z in w],
                     gaussian_image((a, b), p, s), q, p)
        value = poly_eval(coeffs, cand) * Scalar.of(den * q ** (len(w) - 1))
        assert value.re.denominator == value.im.denominator == 1
        assert got == gaussian_image((value.re.numerator,
                                      value.im.numerator), p, s)
        checked += 1
    assert checked == 200

    # (t - w)(t - 1): both roots survive the filter
    w = Scalar.of(Fraction(3, 7), Fraction(-2, 5))
    cleared = _clear([w, -(ONE + w), ONE])[0]
    image = [gaussian_image(z, p, s) for z in cleared]

    def kept(z):
        a, b, q = candidate(z)
        return not _fp_at(image, gaussian_image((a, b), p, s), q, p)

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
        assert not _cannot_split(_clear(from_roots(roots))[0])
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
        assert _cannot_split(_clear(p)[0])
        assert roots_over_gaussians(p) is None


def test_bad_reductions_fall_through_to_the_snapper():
    # every certificate prime divides the constant's denominator
    p = [Scalar.of(Fraction(-1, P1 * P2)), ZERO, ZERO, ZERO, ZERO, ONE]
    assert not _cannot_split(_clear(p)[0])
    assert roots_over_gaussians(p) is None


def test_is_squarefree_agrees_with_exact_gcd():
    def exact(a):
        return len(ref_poly_gcd(a, poly_derivative(a))) == 1

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


# -- the integer chain and the cleared root path against the references ------

@st.composite
def realness_inputs(draw):
    """c * q: q a product of real linear factors, some repeated, times an
    optional random integer factor, and c a Gaussian integer; sometimes one
    coefficient is then moved off the real line."""
    roots = draw(st.lists(st.fractions(-5, 5, max_denominator=4), max_size=4))
    roots += roots[:draw(st.integers(0, len(roots)))]
    q = [ONE]
    for x in roots:
        q = poly_mul(q, [Scalar.of(-x), ONE])
    extra = draw(st.lists(st.integers(-5, 5), max_size=4))
    if any(extra):
        q = poly_mul(q, [Scalar.of(c) for c in extra])
    c = Scalar.of(draw(st.integers(-3, 3)) or 1, draw(st.integers(-3, 3)))
    p = [c * x for x in q]
    if draw(st.booleans()):
        k = draw(st.integers(0, len(p) - 1))
        p[k] = p[k] + Scalar.of(0, draw(st.integers(1, 3)))
    return p


@given(realness_inputs())
@settings(max_examples=300, deadline=None)
def test_all_roots_real_matches_the_fraction_chain(p):
    """Repeated roots, complex multiples of real polynomials and non-real
    inputs get the answer of the monic Fraction test."""
    assert all_roots_real(p) == ref_all_roots_real(p)


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=7),
       st.integers(1, 12), st.integers(0, 2),
       st.sampled_from([Fraction(1, 10 ** 40), Fraction(3, 10 ** 12),
                        Fraction(1, 7)]))
@settings(max_examples=150, deadline=None)
def test_integer_chain_matches_the_fraction_chain(coeffs, den, square,
                                                  width):
    """Each member is a positive multiple of the Fraction chain's, and the
    isolation of p is the Fraction refinement of the Fraction isolation of
    its squarefree part."""
    p = [Fraction(c, den) for c in coeffs]
    for _ in range(square):
        p = [c.re for c in poly_mul([Scalar.of(c) for c in p],
                                    [Scalar.of(c) for c in coeffs[:3]])]
    p = poly_trim(p)
    if len(p) < 2:
        return
    chain, ref = sturm_sequence(p), ref_sturm_sequence(p)
    assert len(chain) == len(ref)
    for member, want in zip(chain, ref):
        assert len(member) == len(want)
        ratios = {Fraction(a) / b for a, b in zip(member, want) if b}
        assert len(ratios) == 1 and ratios.pop() > 0
    with count_budget():
        got = isolate_real_roots(p, width)
    assert got == ref_refined_roots(p, width)


gaussian_rationals = st.builds(
    lambda a, b, da, db: Scalar.of(Fraction(a, da), Fraction(b, db)),
    st.integers(-6, 6), st.integers(-4, 4), st.integers(1, 5),
    st.integers(1, 4))


@given(st.lists(gaussian_rationals, max_size=3),
       st.lists(gaussian_rationals, max_size=3),
       st.lists(gaussian_rationals, max_size=3))
@settings(max_examples=100, deadline=None)
def test_gaussian_gcd_matches_the_euclidean_one(a, b, common):
    """The remainder sequence over Z[i] gives the monic Euclidean gcd."""
    c = poly_trim(common) or [ONE]
    a, b = poly_mul(poly_trim(a) or [ONE], c), poly_mul(b, c)
    assert poly_gcd(a, b) == ref_poly_gcd(a, b)
    assert is_squarefree(a) == (len(ref_poly_gcd(a, poly_derivative(a)))
                                == 1)


@given(st.lists(gaussian_rationals, min_size=1, max_size=5),
       st.sampled_from([None, (-2, 0, 1), (2, 0, 1), (1, 1, 1), (3, 0, 2)]),
       gaussian_rationals.filter(bool))
@settings(max_examples=120, deadline=None)
def test_cleared_root_path_matches_the_scalar_one(roots, quad, c):
    """Products of Gaussian-rational linear factors, with and without an
    irreducible quadratic, times a constant: the same roots, or None."""
    p = from_roots(roots)
    if quad is not None:
        p = poly_mul(p, [Scalar.of(x) for x in quad])
    p = [c * x for x in p]
    got = roots_over_gaussians(p)
    assert got == ref_roots_over_gaussians(p)
    if quad is None:
        assert got == sorted(roots, key=lambda z: z.sort_key())


gaussian_integers = st.tuples(st.integers(-40, 40), st.integers(-40, 40))


@given(gaussian_integers, st.booleans())
@settings(max_examples=200, deadline=None)
def test_gsqrt_matches_the_scalar_root(z, square):
    """On squares, with either sign of the imaginary part, and on random
    Gaussian integers: the root of the Q(i) reference, with Re >= 0."""
    if square:
        z = gsquare(z)
    got = _gsqrt(z)
    assert (None if got is None else Scalar.of(*got)) == ref_gaussian_sqrt(
        Scalar.of(*z))


@st.composite
def gaussian_quadratics(draw):
    """c (t - r1)(t - r2) that split, with r2 = r1 for a zero discriminant,
    or a t^2 + b t + c at random, nearly always irreducible over Q(i)."""
    kind = draw(st.sampled_from(("split", "double", "random")))
    if kind == "random":
        return [draw(gaussian_rationals) for _ in range(2)] + [
            draw(gaussian_rationals.filter(bool))]
    r1 = draw(gaussian_rationals)
    r2 = r1 if kind == "double" else draw(gaussian_rationals)
    c = draw(gaussian_rationals.filter(bool))
    return [c * x for x in from_roots([r1, r2])]


@given(gaussian_quadratics())
@settings(max_examples=300, deadline=None)
def test_solve_quadratic_matches_the_scalar_one(p):
    """The cleared Gaussian-integer solver gives the Scalar solver's pair,
    in order, or its None."""
    got = solve_quadratic(*reversed(_clear(p)[0]))
    assert got == ref_solve_quadratic(p[2], p[1], p[0])


def test_realness_and_the_certified_none_build_no_fraction(monkeypatch):
    """On cleared input, all_roots_real and the certificate's None from
    roots_over_gaussians construct no Fraction and no Scalar."""
    inputs = [from_real_roots(-2, 1, 1, 3), from_roots([ONE, Scalar.of(0, 2)]),
              [Scalar.of(c) for c in (1, -3, 0, 4, 1)],
              [Scalar.of(3, 1), Scalar.of(-1, 2), Scalar.of(0, 1)]]
    binomial = [Scalar.of(-2), ZERO, ZERO, ZERO, ZERO, ONE]
    want = [ref_all_roots_real(p) for p in inputs]
    made = []
    new_fraction, init_scalar = Fraction.__new__, Scalar.__init__

    def counting_fraction(cls, *args, **kwargs):
        made.append(args)
        return new_fraction(cls, *args, **kwargs)

    def counting_scalar(self, *args, **kwargs):
        made.append(args)
        init_scalar(self, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_fraction)
    monkeypatch.setattr(Scalar, "__init__", counting_scalar)
    got = [all_roots_real(p) for p in inputs]
    none = roots_over_gaussians(binomial)
    monkeypatch.undo()
    assert made == []
    assert got == want == [True, False, False, False]
    assert none is None


@settings(max_examples=200, deadline=None)
@given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6),
       st.integers(0, 12), st.integers(1, 6))
def test_dyadic_scalar_rounds_as_fraction_round(a, b, e, bits):
    # denominators 2^e with e > bits give ties, which go to even
    scale = 1 << bits
    for d in (2 ** e, 3 ** e):
        z = Scalar(Fraction(a, d), Fraction(b, d))
        want = Scalar(Fraction(round(z.re * scale), scale),
                      Fraction(round(z.im * scale), scale))
        assert _dyadic_scalar(z, bits) == want


@settings(max_examples=100, deadline=None)
@given(st.fractions(max_denominator=100), st.fractions(max_denominator=100),
       st.fractions(min_value=Fraction(1, 10 ** 6), max_value=1,
                    max_denominator=10 ** 6))
def test_box_scalars_hold_their_values(re, im, r):
    z = Scalar(re, im)
    exact = BoxScalar.exact(z)
    assert (exact.re, exact.im) == (Interval(re, re), Interval(im, im))
    box = BoxScalar.from_box(RootBox(z, r))
    assert (box.re, box.im) == (Interval(re - r, re + r),
                                Interval(im - r, im + r))
