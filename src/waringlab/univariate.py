"""Univariate polynomial utilities behind the binary-form rank engine.

Polynomials are coefficient lists in ascending degree: Scalar lists for
the algebra over Q(i), int lists for the Sturm chains.  The three tests
that decide each rank step (is it squarefree, does it split over Q(i), are
all its roots real) take Scalar or Fraction lists, clear them once, and
then run on integers or on Gaussian integers as (re, im) int pairs.  Each
modular step sends re + im*i to re + im*s in F_p, s a square root of -1
mod a prime p = 5 mod 8: a large fixed one or, for roots, a small one.

Real roots are counted on one Sturm chain of int lists: each remainder is
a pseudo-remainder with a positive multiplier, negated and divided by its
content, so every member is a positive multiple of the chain over Q.
all_roots_real reads its leading signs.  isolate_real_roots counts signs
at points n/m by homogenized Horner sums on one chain (a second one for
the squarefree part of an input with a repeated root), then narrows each
interval by the signs of the chain's first member; the bisection keeps
both ends over one denominator.  Quadratics over Q(i) are solved on
cleared Gaussian-integer coefficients by a square root in Z[i].

Roots are produced in two modes.  Exact mode needs no float: at the first
small prime with a good reduction it finds the image's roots by trying
every residue, lifts them p-adically, reads each root times the leading
coefficient, a Gaussian integer, off its class modulo a power of a prime
of Z[i] over p, and admits it only by an exact Horner sum whose partial
sums deflate the cleared list.  Too few roots mod p or a refused candidate
proves no split; a squarefree list with no good small prime is the one
None without a certificate.  Good reductions also give is_squarefree a
fast path that only ever answers True; gcds run a fraction-free remainder
sequence over Z[i].  Implicit mode returns certified disks: a float
sweep's guesses, exact dyadic Newton polishing and the bound that some
root lies within n*|p(z)/p'(z)| of z, compared in rational arithmetic.  An
Interval holds integer ends over one positive denominator: products
multiply the denominators, sums align them (powers of two by a shift,
others through their lcm), and the outward rounding to a dyadic grid is
decided on those integers, so interval_solve builds no Fraction.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Optional, Sequence, TypeVar

from . import linalg
from .linalg import GInt
from .scalars import _CERT_PRIMES, ZERO, Scalar, gaussian

# int in, int out; Fraction in, Fraction out; Scalar in, Scalar out.
C = TypeVar("C", int, Fraction, Scalar)
Poly = list[Scalar]


# -- generic coefficient-list arithmetic -------------------------------------

def poly_trim(p: Sequence[C]) -> list[C]:
    out = list(p)
    while out and not out[-1]:
        out.pop()
    return out


def poly_mul(a: Sequence[Scalar], b: Sequence[Scalar]) -> Poly:
    a = poly_trim(a)
    b = poly_trim(b)
    if not a or not b:
        return []
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return poly_trim(out)


def poly_gcd(a: Sequence[Scalar], b: Sequence[Scalar]) -> Poly:
    """The monic gcd over Q(i), from the cleared lists (_zgcd)."""
    g = _zgcd(linalg._clear(poly_trim(a))[0], linalg._clear(poly_trim(b))[0])
    return [linalg._quotient(c, g[-1]) for c in g] if g else []


def poly_derivative(a: Sequence[C]) -> list[C]:
    return poly_trim([c * i for i, c in enumerate(a)][1:])


def poly_eval(a: Sequence[C], x: C) -> C:
    if not a:
        return x * 0
    acc = a[-1]
    for c in a[-2::-1]:
        acc = acc * x + c
    return acc


def is_squarefree(a: Sequence[Scalar]) -> bool:
    """True when a has no repeated root.

    a is cleared to Gaussian integers once.  A good reduction mod p only
    ever answers True; otherwise a is squarefree when gcd(a, a') is a
    constant.
    """
    w = linalg._clear(poly_trim(a))[0]
    if len(w) <= 1:
        return bool(w)
    if any(_good_reduction(w, p, s) is not None for p, s in _CERT_PRIMES):
        return True
    dw = [(i * x, i * y) for i, (x, y) in enumerate(w)][1:]
    return len(_zgcd(w, dw)) == 1


def _zgcd(x: list[GInt], y: list[GInt]) -> list[GInt]:
    """A gcd of two Gaussian-integer lists by pseudo-remainders (_gprem)."""
    while y:
        x, y = y, _gprem(x, y)
    return x


def _gprem(a: list[GInt], b: list[GInt]) -> list[GInt]:
    """lc(b)^k * a mod b over Z[i], k the steps taken, over its rational-
    integer content: a multiple of the remainder of a by b over Q(i)."""
    r, (lr, li), db = list(a), b[-1], len(b) - 1
    while len(r) > db:
        fr, fi = r.pop()
        k = len(r) - db
        r = [(x * lr - y * li, x * li + y * lr) for x, y in r]
        for i, (br, bi) in enumerate(b[:-1]):
            x, y = r[k + i]
            r[k + i] = (x - fr * br + fi * bi, y - fr * bi - fi * br)
        while r and r[-1] == (0, 0):
            r.pop()
    g = gcd(*(v for c in r for v in c))
    return [(x // g, y // g) for x, y in r]


# -- square roots and quadratics over Z[i] -----------------------------------

def _gsqrt(z: GInt) -> Optional[GInt]:
    """A square root a + b i of the Gaussian integer z in Z[i], or None.

    With n^2 = N(z), a root has a^2 = (n + Re z)/2, b^2 = (n - Re z)/2 and
    2ab = Im z; the one with a >= 0 is returned when it squares back to z.
    """
    x, y = z
    n = isqrt(x * x + y * y)
    a, b = isqrt((n + x) // 2), isqrt((n - x) // 2)
    if y < 0:
        b = -b
    return (a, b) if (a * a - b * b, 2 * a * b) == (x, y) else None


def solve_quadratic(a: GInt, b: GInt,
                    c: GInt) -> Optional[tuple[Scalar, Scalar]]:
    """Roots of a t^2 + b t + c, a != 0, over Q(i); None when they fall
    outside.  A square root in Q(i) of the Gaussian-integer discriminant
    lies in Z[i], which is integrally closed, so _gsqrt decides."""
    (ar, ai), (br, bi), (cr, ci) = a, b, c
    s = _gsqrt((br * br - bi * bi - 4 * (ar * cr - ai * ci),
                2 * br * bi - 4 * (ar * ci + ai * cr)))
    if s is None:
        return None
    two_a = (2 * ar, 2 * ai)
    return (linalg._quotient((s[0] - br, s[1] - bi), two_a),
            linalg._quotient((-s[0] - br, -s[1] - bi), two_a))


# -- modular images --------------------------------------------------------------

# Primes p = 5 mod 8 below 2^12, where 2 is a non-residue, so that
# s = 2^((p - 1)/4) is a square root of -1 mod p.
_SPLIT_PRIMES = tuple(p for p in range(5, 1 << 12, 8)
                      if all(p % k for k in range(3, isqrt(p) + 1, 2)))


def _fp_rem(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by monic b over F_p; b trimmed."""
    a = list(a)
    db = len(b) - 1
    while len(a) > db:
        f = a.pop()
        if f:
            k = len(a) - db
            for i in range(db):
                a[k + i] = (a[k + i] - f * b[i]) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def _fp_monic(a: list[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _fp_eval(a: list[int], z: int, m: int) -> int:
    """a(z) mod m by a Horner sum."""
    acc = 0
    for c in reversed(a):
        acc = (acc * z + c) % m
    return acc


def _good_reduction(w: Sequence[GInt], p: int,
                    s: int) -> Optional[list[int]]:
    """The image of the Gaussian-integer list w made monic mod p, or None
    unless the image keeps the degree and is squarefree.

    A good image certifies w is squarefree: its discriminant maps to the
    nonzero discriminant of the image.
    """
    out = [(re + s * im) % p for re, im in w]
    if not out[-1]:
        return None
    x = out = _fp_monic(out, p)
    y = [c * i % p for i, c in enumerate(out)][1:]
    while y and y[-1] == 0:
        y.pop()
    while y:
        y = _fp_monic(y, p)
        x, y = y, _fp_rem(x, y, p)
    return out if len(x) == 1 else None


# -- exact Gaussian-rational roots -------------------------------------------

def _deflate(w: list[GInt], roots: Sequence[tuple[int, int, int]]
             ) -> Optional[list[GInt]]:
    """w over t - z/q for each root z/q = (a + b i)/q in turn, over Z[i]
    and over its rational-integer content; None as soon as one is no root
    of what is left.  The Horner sums u_(n-1) = w_n, u_(k-1) = q^(n-k) w_k
    + z u_k end in q^n w(z/q), and u_k q^k is q^(n-1) times the quotient's
    t^k coefficient."""
    for a, b, q in roots:
        ur, ui = w[-1]
        us, qpow = [], 1
        for cr, ci in w[-2::-1]:
            us.append((ur, ui))
            qpow *= q
            ur, ui = ur * a - ui * b + cr * qpow, ur * b + ui * a + ci * qpow
        if ur or ui:
            return None
        w = [(x * q ** k, y * q ** k) for k, (x, y) in enumerate(reversed(us))]
        g = gcd(*(v for c in w for v in c))
        w = [(x // g, y // g) for x, y in w]
    return w


def roots_over_gaussians(p: Sequence[Scalar]) -> Optional[list[Scalar]]:
    """All roots of p with multiplicity, each verified exactly in Q(i);
    None if p fails to split.  Every None is certified but one: a
    squarefree p of degree 3 or more with no good reduction mod any prime
    of _SPLIT_PRIMES."""
    w = linalg._clear(poly_trim(p))[0]
    if not w:
        raise ValueError("zero polynomial has no root list")
    roots = _roots(w)
    if roots is not None:
        roots.sort(key=lambda z: z.sort_key())
    return roots


def _roots(w: list[GInt]) -> Optional[list[Scalar]]:
    """The roots of the cleared list w, or None.  Degrees 1 and 2 are
    solved directly; from degree 3 up the first good reduction decides
    (_lifted_roots).  With none, a squarefree w gives None, and any other
    loses the roots of gcd(w, w') first (_deflate), leaving each root once.
    """
    if len(w) == 3:
        pair = solve_quadratic(*reversed(w))
        return None if pair is None else list(pair)
    if len(w) < 3:
        return [linalg._quotient((-w[0][0], -w[0][1]), w[1])] if w[1:] else []
    for p in _SPLIT_PRIMES:
        s = pow(2, (p - 1) // 4, p)
        image = _good_reduction(w, p, s)
        if image is not None:
            return _lifted_roots(w, p, s, image)
    g = _zgcd(w, [(i * x, i * y) for i, (x, y) in enumerate(w)][1:])
    inner = _roots(g) if len(g) > 1 else None
    rest = inner and _deflate(w, [(z.a, z.b, z.d) for z in inner])
    outer = rest and _roots(rest)
    return outer and inner + outer


def _lifted_roots(w: list[GInt], p: int, s: int,
                  image: list[int]) -> Optional[list[Scalar]]:
    """The roots of w, of degree n >= 3, from its good image mod p under
    i -> s, or None when w does not split over Q(i).

    For a root r, w_n r lies in Z[i], which is integrally closed, and
    |w_n r| <= B = |w_n| + max |w_k| (Cauchy).  A split w reduces to n
    distinct roots of the image, so fewer prove it does not split.  Each
    root z is Newton-lifted with s to m = p^(2^j) > 4 B^2.  Z[i] -> Z/m,
    i -> s, has kernel (g), g = pi^(2^j) for pi = x + y i with N(pi) = p
    and x + y s = 0 mod p, and the class of c = w_n z mod g holds one
    Gaussian integer of norm below m/4, c - g round(c/g): for a split w,
    w_n r.  So a candidate that _deflate refuses proves it does not split.
    """
    n = len(w) - 1
    zs = [z for z in range(p) if not _fp_eval(image, z, p)]
    if len(zs) < n:
        return None
    x = next(x for x in range(1, p) if isqrt(p - x * x) ** 2 == p - x * x)
    y = isqrt(p - x * x)
    gr, gi = x, y if (x + y * s) % p == 0 else -y
    lr, li = w[-1]
    b = isqrt(lr * lr + li * li) + isqrt(max(u * u + v * v
                                             for u, v in w[:-1])) + 2
    m = p
    while m <= 4 * b * b:
        m *= m
        s = (s - (s * s + 1) * pow(2 * s, -1, m)) % m
        f = [(re + s * im) % m for re, im in w]
        df = [k * c for k, c in enumerate(f)][1:]
        zs = [(z - _fp_eval(f, z, m) * pow(_fp_eval(df, z, m), -1, m)) % m
              for z in zs]
        gr, gi = gr * gr - gi * gi, 2 * gr * gi
    lead, q = (lr + s * li) % m, lr * lr + li * li
    cands = []
    for z in zs:
        c = lead * z % m
        # beta = c - g round(c conj(g) / m), then r = beta conj(w_n) / q
        ur, ui = _round_half_even(c * gr, m), _round_half_even(-c * gi, m)
        br, bi = c - gr * ur + gi * ui, -gr * ui - gi * ur
        a, e = br * lr + bi * li, bi * lr - br * li
        k = gcd(a, e, q)
        cands.append((a // k, e // k, q // k))
    if _deflate(w, cands) is None:
        return None
    return [gaussian(a, e, d) for a, e, d in cands]


# -- Sturm chains on integers ------------------------------------------------

def _cleared(p: Sequence[Fraction | int]) -> list[int]:
    """The rational list p times the lcm of its denominators, trimmed."""
    parts = [c.as_integer_ratio() for c in p]
    den = lcm(*(d for _, d in parts))
    return poly_trim([n * (den // d) for n, d in parts])


def _real_multiple(p: Sequence[Scalar]) -> Optional[list[int]]:
    """Integers q with p = c * q for a complex c, or None: with w the
    cleared p, there is one exactly when every Im(w_k conj(w_n)) is 0, and
    q_k = Re(w_k conj(w_n))."""
    w = linalg._clear(poly_trim(p))[0]
    if not w:
        return []
    lr, li = w[-1]
    if any(y * lr != x * li for x, y in w):
        return None
    return [x * lr + y * li for x, y in w]


def _prem(a: list[int], b: list[int]) -> list[int]:
    """The remainder of |lc b|^k * a by b, k the steps taken: a positive
    multiple of the remainder of a by b."""
    r, m, db = list(a), abs(b[-1]), len(b) - 1
    sign = 1 if b[-1] > 0 else -1
    while len(r) > db:
        f = r.pop() * sign
        k = len(r) - db
        if m != 1:
            r = [c * m for c in r]
        for i, c in enumerate(b[:-1]):
            r[k + i] -= f * c
        while r and not r[-1]:
            r.pop()
    return r


def sturm_sequence(p: Sequence[Fraction | int]) -> list[list[int]]:
    """The Sturm chain of a real polynomial on int lists: p cleared and
    divided by its content, p', then each negated _prem of the two before
    over its content.  Each member is a positive multiple of the chain
    p, p', -rem, ... over Q, so every sign count is the same."""
    q = _cleared(p)
    if not q:
        return []
    g = gcd(*q)
    seq = [[c // g for c in q]]
    seq.append(poly_derivative(seq[0]))
    while seq[-1]:
        rem = _prem(seq[-2], seq[-1])
        if not rem:
            break
        g = gcd(*rem)
        seq.append([-c // g for c in rem])
    return seq


def _variations(signs: list[int]) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _count(seq: list[list[int]], a: int, b: int, den: int) -> int:
    """Distinct roots of the chain's polynomial in (a/den, b/den], den > 0."""
    return (_variations([_homogenized_sign(q, a, den) for q in seq])
            - _variations([_homogenized_sign(q, b, den) for q in seq]))


def all_roots_real(p: Sequence[Scalar]) -> bool:
    """True when every complex root of p is real (multiplicity ignored):
    then p is a multiple of a real q (_real_multiple), whose chain ends in
    gcd(q, q'), and the sign variations of the leading coefficients at
    -infinity and +infinity differ by deg q - deg gcd."""
    q = _real_multiple(p)
    if q is None:
        return False
    if len(q) <= 1:
        return True
    seq = sturm_sequence(q)
    top = [1 if c[-1] > 0 else -1 for c in seq]
    bottom = [t if len(c) % 2 else -t for t, c in zip(top, seq)]
    return _variations(bottom) - _variations(top) == len(q) - len(seq[-1])


def isolate_real_roots(p: Sequence[Fraction | int], width: Fraction
                       ) -> list[tuple[Fraction, Fraction]]:
    """Disjoint intervals (a, b] no wider than width, one distinct real
    root of p in each, sorted; (r, r) when the bisection hits a root r.

    The roots are those of the chain's first member q: p over its content,
    or, when the chain does not end in a constant (p has a repeated root),
    the squarefree part p / gcd(p, p') on a second chain.  Sturm counts
    bisect from the Cauchy bound 1 + max|q_i| / |q_n| until each interval
    holds one root, left halves first, and _bisect narrows each one.
    """
    seq = sturm_sequence(p)
    if not seq or len(seq[0]) <= 1:
        return []
    if len(seq[-1]) > 1:
        seq = sturm_sequence(_exact_quotient(seq[0], seq[-1]))
    q = seq[0]
    den = abs(q[-1])
    top = den + max(abs(c) for c in q[:-1])
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(-top, top, den, _count(seq, -top, top, den))]
    while stack:
        lo, hi, den, cnt = stack.pop()
        if cnt == 1:
            out.append(_bisect(q, lo, hi, den, width))
        elif cnt > 1:
            lo, mid, hi, den = 2 * lo, lo + hi, 2 * hi, 2 * den
            left = _count(seq, lo, mid, den)
            stack.append((mid, hi, den, cnt - left))
            stack.append((lo, mid, den, left))
    return out


def _exact_quotient(a: list[int], b: list[int]) -> list[Fraction]:
    """a / b over Q, for b dividing a."""
    r, quo = [Fraction(c) for c in a], []
    while len(r) >= len(b):
        f = r.pop() / b[-1]
        quo.append(f)
        for i, c in enumerate(b[:-1]):
            r[len(r) - len(b) + 1 + i] -= f * c
    return quo[::-1]


def _bisect(q: list[int], a: int, b: int, den: int,
            width: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink (a/den, b/den], which holds one simple root of q, to at most
    the width.  A simple root is a sign change, so once q(b/den) != 0 the root
    lies in (mid, b/den] exactly when q(mid) and q(b/den) differ in sign,
    and bisection keeps that half, else (a/den, mid]."""
    s_hi = _homogenized_sign(q, b, den)
    if s_hi == 0:
        return (Fraction(b, den),) * 2
    wn, wd = width.as_integer_ratio()
    while (b - a) * wd > wn * den:
        mid, a, b, den = a + b, 2 * a, 2 * b, 2 * den
        s_mid = _homogenized_sign(q, mid, den)
        if s_mid == 0:
            return (Fraction(mid, den),) * 2
        if s_mid != s_hi:
            a = mid
        else:
            b = mid
    return (Fraction(a, den), Fraction(b, den))


def _homogenized_sign(q: Sequence[int], n: int, m: int) -> int:
    """Sign of q(n/m) for integer q and m > 0, by a homogenized Horner sum."""
    acc, mpow = q[-1], 1
    for c in q[-2::-1]:
        mpow *= m
        acc = acc * n + c * mpow
    return (acc > 0) - (acc < 0)


# -- certified complex root boxes ----------------------------------------------

@dataclass(frozen=True)
class RootBox:
    """A disk certified to contain exactly one root of its polynomial."""

    center: Scalar
    radius: Fraction

    def to_json(self) -> dict:
        from .scalars import format_rational
        return {"center": self.center.to_json(),
                "radius": format_rational(self.radius)}


def _round_half_even(n: int, d: int) -> int:
    """n / d rounded to the nearest int, ties to even, as Fraction's round."""
    q, r = divmod(n, d)
    return q + (2 * r > d or (2 * r == d and q & 1))


def _dyadic_scalar(z: Scalar, bits: int) -> Scalar:
    return gaussian(_round_half_even(z.a << bits, z.d),
                    _round_half_even(z.b << bits, z.d), 1 << bits)


def _float_roots(w: Sequence[GInt]) -> list[complex]:
    """Durand-Kerner sweep; purely heuristic, every output gets verified.
    Each monic coefficient w_k / w_n is rounded once from its exact value.
    A sweep that ends off the finite floats runs again from the Fujiwara
    bound 2 max |w_k / w_n|^(1/(n-k))."""
    lr, li = w[-1]
    norm = lr * lr + li * li
    coeffs = [complex((x * lr + y * li) / norm, (y * lr - x * li) / norm)
              for x, y in w]
    n = len(coeffs) - 1
    for bound in (1.0 + max(abs(c) for c in coeffs[:-1]),
                  2 * max(abs(c) ** (1 / (n - k))
                          for k, c in enumerate(coeffs[:-1]))):
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
        if all(cmath.isfinite(z) for z in zs):
            break
    return zs


def certified_root_boxes(p: Sequence[Scalar],
                         radius: Fraction) -> list[RootBox]:
    """One certified disk of the given radius per root of a squarefree p.

    Certificate: some root lies within n*|p(z)/p'(z)| of any z (log-derivative
    bound), checked by comparing n^2 * N(p(z)) <= radius^2 * N(p'(z)) in exact
    arithmetic; n pairwise-disjoint such disks for a degree-n polynomial then
    hold exactly one root each.
    """
    work = poly_trim(p)
    n = len(work) - 1
    if n <= 0:
        return []
    if not is_squarefree(work):
        raise ValueError("certified boxes need a squarefree polynomial")
    dwork = poly_derivative(work)
    bits = 240
    for attempt in range(4):
        centers = []
        ok = True
        for z in _float_roots(linalg._clear(work)[0]):
            c = Scalar(Fraction(z.real), Fraction(z.imag))
            c = _dyadic_scalar(c, 64)
            for _ in range(3 + attempt):
                dv = poly_eval(dwork, c)
                if dv.is_zero:
                    ok = False
                    break
                c = c - poly_eval(work, c) / dv
                c = _dyadic_scalar(c, bits)
            if not ok:
                break
            pv = poly_eval(work, c)
            dv = poly_eval(dwork, c)
            if dv.is_zero or n * n * pv.norm() > radius * radius * dv.norm():
                ok = False
                break
            centers.append(c)
        if ok:
            four_r2 = 4 * radius * radius
            for a, b in itertools.combinations(centers, 2):
                if (a - b).norm() <= four_r2:
                    ok = False
                    break
        if ok:
            centers.sort(key=lambda z: z.sort_key())
            return [RootBox(c, radius) for c in centers]
        bits *= 2
    raise ArithmeticError("root certification did not converge")


# -- rectangle arithmetic for implicit-mode solves ------------------------------

_ROUND_GUARD_BITS = 64


def _round_out(a: int, b: int, d: int) -> "Interval":
    """[a/d, b/d] for a <= b and d > 0, widened to a dyadic grid fine
    enough to keep relative growth tiny.

    With the width (b - a)/d in lowest terms w/v, the grid is 2^-k for
    k = 64 + max(0, bitlen(v) - bitlen(w) + 1): sixty-four bits below the
    width.  Ends whose own lowest-terms denominators are at most 2^k pass
    through, so zero-width data stays exact; the others are snapped
    outward to floor(a 2^k / d) and ceil(b 2^k / d) over 2^k.  Without
    this the denominators double at every elimination step.  When d = 2^e
    the rule reads k = 64 + max(0, e + 2 - bitlen(b - a)), and an end
    passes exactly when 2^(e - k) divides it.  Every result is reduced by
    the gcd of its ends and denominator.
    """
    if d & (d - 1):
        w = b - a
        if w:
            g = gcd(w, d)
            top = 1 << (_ROUND_GUARD_BITS + max(
                0, (d // g).bit_length() - (w // g).bit_length() + 1))
        if not w or (d // gcd(a, d) <= top and d // gcd(b, d) <= top):
            g = gcd(a, b, d)
            return _interval(a // g, b // g, d // g)
        a, b, d = a * top // d, -(-b * top // d), top
    else:
        k = _ROUND_GUARD_BITS + max(
            0, d.bit_length() + 1 - (b - a).bit_length())
        shift = d.bit_length() - 1 - k
        if shift > 0 and (a | b) & ((1 << shift) - 1):
            a, b, d = a >> shift, -(-b >> shift), 1 << k
    x = a | b | d
    z = (x & -x).bit_length() - 1
    return _interval(a >> z, b >> z, d >> z)


def _interval(a: int, b: int, d: int) -> "Interval":
    """The Interval [a/d, b/d] from ends already known to be in order."""
    box = object.__new__(Interval)
    box.a, box.b, box.d = a, b, d
    return box


def _aligned(x: "Interval", y: "Interval") -> tuple[int, int, int, int, int]:
    """The ends of x and y over one denominator: the larger of two powers
    of two, else the lcm."""
    dx, dy = x.d, y.d
    if dx == dy:
        return x.a, x.b, y.a, y.b, dx
    if not (dx & (dx - 1) or dy & (dy - 1)):
        if dx < dy:
            s = dy.bit_length() - dx.bit_length()
            return x.a << s, x.b << s, y.a, y.b, dy
        s = dx.bit_length() - dy.bit_length()
        return x.a, x.b, y.a << s, y.b << s, dx
    g = gcd(dx, dy)
    fx, fy = dy // g, dx // g
    return x.a * fx, x.b * fx, y.a * fy, y.b * fy, dx * fx


class Interval:
    """The closed interval [a/d, b/d]: integer ends a <= b over one
    denominator d > 0, so the arithmetic never builds a Fraction.

    lo and hi read the ends as Fractions, and equality is by value.
    Sums, differences, products and reciprocals are rounded outward by
    _round_out; negation is exact.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, lo: Fraction, hi: Fraction) -> None:
        if lo > hi:
            raise ValueError("empty interval")
        (a, da), (b, db) = lo.as_integer_ratio(), hi.as_integer_ratio()
        d = lcm(da, db)
        self.a, self.b, self.d = a * (d // da), b * (d // db), d

    @property
    def lo(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __eq__(self, o: object) -> bool:
        if not isinstance(o, Interval):
            return NotImplemented
        return self.a * o.d == o.a * self.d and self.b * o.d == o.b * self.d

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __add__(self, o: "Interval") -> "Interval":
        a, b, c, e, d = _aligned(self, o)
        return _round_out(a + c, b + e, d)

    def __sub__(self, o: "Interval") -> "Interval":
        a, b, c, e, d = _aligned(self, o)
        return _round_out(a - e, b - c, d)

    def __mul__(self, o: "Interval") -> "Interval":
        vals = (self.a * o.a, self.a * o.b, self.b * o.a, self.b * o.b)
        return _round_out(min(vals), max(vals), self.d * o.d)

    def __neg__(self) -> "Interval":
        return _interval(-self.b, -self.a, self.d)

    def recip(self) -> "Interval":
        # [d/b, d/a] over the positive denominator a*b
        if self.a <= 0 <= self.b:
            raise ZeroDivisionError("interval straddles zero")
        return _round_out(self.a * self.d, self.b * self.d, self.a * self.b)

    def __truediv__(self, o: "Interval") -> "Interval":
        return self * o.recip()

    @property
    def width(self) -> Fraction:
        return Fraction(self.b - self.a, self.d)

    def contains(self, x: Fraction) -> bool:
        n, m = x.as_integer_ratio()
        return self.a * m <= n * self.d <= self.b * m


@dataclass(frozen=True)
class BoxScalar:
    """A rectangle in the complex plane with exact rational corners."""

    re: Interval
    im: Interval

    @staticmethod
    def exact(z: Scalar) -> "BoxScalar":
        return BoxScalar(_interval(z.a, z.a, z.d), _interval(z.b, z.b, z.d))

    @staticmethod
    def from_box(box: RootBox) -> "BoxScalar":
        (p, q), c = box.radius.as_integer_ratio(), box.center
        r, d = p * c.d, c.d * q
        return BoxScalar(_interval(c.a * q - r, c.a * q + r, d),
                         _interval(c.b * q - r, c.b * q + r, d))

    def __add__(self, o: "BoxScalar") -> "BoxScalar":
        return BoxScalar(self.re + o.re, self.im + o.im)

    def __sub__(self, o: "BoxScalar") -> "BoxScalar":
        return BoxScalar(self.re - o.re, self.im - o.im)

    def __mul__(self, o: "BoxScalar") -> "BoxScalar":
        return BoxScalar(self.re * o.re - self.im * o.im,
                         self.re * o.im + self.im * o.re)

    def recip(self) -> "BoxScalar":
        n = self.re * self.re + self.im * self.im
        if n.a <= 0:
            raise ZeroDivisionError("box may contain zero")
        return BoxScalar(self.re / n, (-self.im) / n)

    @property
    def width(self) -> Fraction:
        return max(self.re.width, self.im.width)

    def contains_zero(self) -> bool:
        re, im = self.re, self.im
        return re.a <= 0 <= re.b and im.a <= 0 <= im.b

    def to_json(self) -> dict:
        from .scalars import format_rational
        return {"re": [format_rational(self.re.lo), format_rational(self.re.hi)],
                "im": [format_rational(self.im.lo), format_rational(self.im.hi)]}


def interval_solve(matrix: list[list[BoxScalar]],
                   rhs: list[BoxScalar]) -> list[BoxScalar]:
    """Gaussian elimination with rectangle entries; pivots must exclude zero."""
    n = len(matrix)
    m = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    ncols = len(matrix[0])
    if any(len(row) != ncols + 1 for row in m) or n < ncols:
        raise ValueError("system shape mismatch")
    for col in range(ncols):
        piv = next((i for i in range(col, n)
                    if not m[i][col].contains_zero()), None)
        if piv is None:
            raise ZeroDivisionError("no usable pivot; refine the boxes")
        m[col], m[piv] = m[piv], m[col]
        inv = m[col][col].recip()
        # nothing reads a column at or left of the pivot again
        pivot_row = [x * inv for x in m[col][col + 1:]]
        m[col][col + 1:] = pivot_row
        for i in range(n):
            if i != col:
                f = m[i][col]
                m[i][col + 1:] = [a - f * b for a, b in
                                  zip(m[i][col + 1:], pivot_row)]
    return [m[i][ncols] for i in range(ncols)]
