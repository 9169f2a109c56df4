"""Projective points, point sets, and curve carriers."""

from __future__ import annotations

import itertools
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waringlab import linalg, points
from waringlab.points import (LINE, REDUCIBLE_CONIC, SMOOTH_CONIC,
                              TWO_DISJOINT_LINES, CurveSpec, PointSet,
                              ProjectivePoint, _conj_line, _incident,
                              _line_key, find_rich_conics,
                              find_rich_lines,
                              spanning_rank, split_on_curve)
from waringlab.scalars import ONE, ZERO, Scalar, gaussian
from waringlab.spans import parametrize_line


def P(*vals) -> ProjectivePoint:
    return ProjectivePoint.of(*vals)


def difference(s: PointSet, t: PointSet) -> PointSet:
    return PointSet(tuple(p for p in s if p not in t))


def conjugation_orbit(s: PointSet) -> PointSet:
    return s.union(s.conjugate())


def test_point_canonicalization():
    assert P(2, 4, 6) == P(1, 2, 3)
    assert P(0, 3, 9) == P(0, 1, 3)
    assert P(Fraction(1, 2), Fraction(1, 4)) == P(1, Fraction(1, 2))
    with pytest.raises(ValueError):
        P(0, 0, 0)


def test_point_conjugation_and_reality():
    p = ProjectivePoint((ONE, Scalar.of(0, 1), ZERO))
    assert not p.is_real
    assert p.conjugate() == ProjectivePoint((ONE, Scalar.of(0, -1), ZERO))
    assert P(1, -2, 3).is_real


def test_point_json_roundtrip():
    p = ProjectivePoint((ONE, Scalar.of(Fraction(1, 2), 3), ZERO))
    assert ProjectivePoint.from_json(p.to_json()) == p


def test_spanning_rank():
    pts = [P(1, 0, 0), P(0, 1, 0), P(1, 1, 0)]
    assert spanning_rank(pts) == 2
    assert spanning_rank(pts + [P(0, 0, 1)]) == 3


def test_pointset_dedup_and_union():
    s = PointSet.of([P(1, 0), P(2, 0), P(0, 1)])
    assert len(s) == 2
    t = PointSet.of([P(1, 1)])
    assert len(s.union(t)) == 3
    assert len(difference(s, t)) == 2
    assert P(1, 0) in s and P(1, 1) not in s


def _list_dedup(points) -> tuple:
    # the reference: first occurrence of each point by equality, then sorted
    seen = []
    for p in points:
        if p not in seen:
            seen.append(p)
    seen.sort(key=lambda p: p.sort_key())
    return tuple(seen)


@pytest.mark.parametrize("seed", range(8))
def test_pointset_dedup_matches_list_dedup(seed):
    rng = random.Random(seed)
    m = 1 + seed % 4
    pool = []
    while len(pool) < 12:
        coords = [Scalar.of(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                            rng.choice((0, 0, 1, -2)))
                  for _ in range(m + 1)]
        if any(not c.is_zero for c in coords):
            pool.append(ProjectivePoint(tuple(coords)))
    # scaled copies of pool points: equal after canonicalisation, distinct
    # objects with other coordinates before it
    picks = [rng.choice(pool) for _ in range(40)]
    points = [ProjectivePoint(tuple(c * Scalar.of(k) for c in p.coords))
              for p, k in zip(picks, rng.choices((1, 2, -3), k=40))]
    s = PointSet.of(points)
    reference = _list_dedup(points)
    assert s.points == reference
    assert all(a is b for a, b in zip(s.points, reference))
    assert len(s) == len(set(s.points)) < len(points)


def test_pointset_conjugation_stability():
    i = Scalar.of(0, 1)
    pair = PointSet.of([ProjectivePoint((ONE, i, ZERO)),
                        ProjectivePoint((ONE, -i, ZERO))])
    assert pair.is_conjugation_stable()
    lone = PointSet.of([ProjectivePoint((ONE, i, ZERO))])
    assert not lone.is_conjugation_stable()
    assert conjugation_orbit(lone).is_conjugation_stable()


def test_line_membership_and_point_at():
    line = CurveSpec.line(P(1, 0, 0), P(0, 1, 0))
    assert line.kind == LINE
    assert line.contains(P(1, 5, 0))
    assert not line.contains(P(1, 0, 1))
    q = ProjectivePoint(parametrize_line(line).point(Scalar.of(2),
                                                      Scalar.of(3)))
    assert line.contains(q)
    # the same line from different spanning points compares equal
    other = CurveSpec.line(P(1, 1, 0), P(1, -1, 0))
    assert other == line and hash(other) == hash(line)


def test_line_rejects_dependent_points():
    with pytest.raises(ValueError):
        CurveSpec.line(P(1, 2, 0), P(2, 4, 0))


def test_smooth_conic_contains_its_parametrized_points():
    plane = [P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)]
    # u0 u2 - u1^2: rank-3 conic through [1:0:0] and [0:0:1]
    coeffs = [ZERO, ZERO, ONE, Scalar.of(-1), ZERO, ZERO]
    conic = CurveSpec.conic(plane, coeffs)
    assert conic.kind == SMOOTH_CONIC
    assert conic.contains(P(1, 0, 0))
    assert conic.contains(P(1, 1, 1))
    assert conic.contains(P(1, 2, 4))
    assert not conic.contains(P(1, 1, 0))
    assert conic.node is None


def test_conic_rejects_double_line():
    plane = [P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)]
    # u0^2 has matrix rank 1
    with pytest.raises(ValueError):
        CurveSpec.conic(plane, [ONE, ZERO, ZERO, ZERO, ZERO, ZERO])


def test_reducible_conic_node_and_branches():
    l1 = CurveSpec.line(P(1, 0, 0), P(0, 0, 1))
    l2 = CurveSpec.line(P(0, 1, 0), P(0, 0, 1))
    conic = CurveSpec.reducible_from_lines(l1, l2)
    assert conic.kind == REDUCIBLE_CONIC
    assert conic.node == P(0, 0, 1)
    branches = conic.branch_lines()
    assert branches is not None and set(branches) == {l1, l2}
    assert conic.contains(P(1, 0, 5))
    assert conic.contains(P(0, 1, -2))
    assert not conic.contains(P(1, 1, 1))


def test_branch_recovery_without_stored_branches():
    l1 = CurveSpec.line(P(1, 0, 0), P(0, 0, 1))
    l2 = CurveSpec.line(P(0, 1, 0), P(0, 0, 1))
    stored = CurveSpec.reducible_from_lines(l1, l2)
    bare = CurveSpec.conic(
        [ProjectivePoint(r) for r in stored.plane_rows],
        list(stored.conic_coeffs))
    assert bare.branches is None
    recovered = bare.branch_lines()
    assert recovered is not None and set(recovered) == {l1, l2}


def plane_conic(*coeffs) -> CurveSpec:
    """The conic a u0^2 + b u0 u1 + c u0 u2 + d u1^2 + e u1 u2 + f u2^2 in
    the plane P^2."""
    return CurveSpec.conic([P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)],
                           [Scalar.of(c) for c in coeffs])


def test_branch_lines_solve_the_quadratic_over_gaussian_integers():
    node = P(0, 0, 1)
    # u0^2 + u1^2 = (u0 + i u1)(u0 - i u1): conjugate Gaussian lines
    conic = plane_conic(1, 0, 0, 1, 0, 0)
    assert conic.kind == REDUCIBLE_CONIC
    a, b = conic.branch_lines()
    assert {a, b} == {CurveSpec.line(node, P(Scalar.of(0, 1), 1, 0)),
                      CurveSpec.line(node, P(Scalar.of(0, -1), 1, 0))}
    assert not a.is_real and _conj_line(a) == b
    # u0^2 - u1^2 / 4, cleared to 4 z^2 - 1 before the solve
    halves = plane_conic(1, 0, 0, Fraction(-1, 4), 0, 0).branch_lines()
    assert set(halves) == {CurveSpec.line(node, P(1, 2, 0)),
                           CurveSpec.line(node, P(-1, 2, 0))}
    # u0^2 - 2 u1^2 splits over R only
    conic = plane_conic(1, 0, 0, -2, 0, 0)
    assert conic.kind == REDUCIBLE_CONIC and conic.branch_lines() is None


def test_two_disjoint_lines_requires_rank_four():
    l1 = CurveSpec.line(P(1, 0, 0, 0), P(0, 1, 0, 0))
    l2 = CurveSpec.line(P(0, 0, 1, 0), P(0, 0, 0, 1))
    pair = CurveSpec.two_lines(l1, l2)
    assert pair.kind == TWO_DISJOINT_LINES
    assert pair.contains(P(1, 2, 0, 0)) and pair.contains(P(0, 0, 1, -1))
    meeting = CurveSpec.line(P(1, 0, 0, 0), P(0, 0, 1, 0))
    with pytest.raises(ValueError):
        CurveSpec.two_lines(l1, meeting)


def test_split_on_curve():
    line = CurveSpec.line(P(1, 0, 0), P(0, 1, 0))
    s = PointSet.of([P(1, 0, 0), P(1, 1, 0), P(0, 0, 1)])
    on, off = split_on_curve(s, line)
    assert len(on) == 2 and len(off) == 1
    assert P(0, 0, 1) in off


def test_find_rich_lines_on_collinear_cluster():
    pts = [P(1, k, 0) for k in range(5)] + [P(0, 0, 1), P(1, 1, 1)]
    s = PointSet.of(pts)
    hits = find_rich_lines(s, 5)
    assert len(hits) == 1
    line, count = hits[0]
    assert count == 5
    assert line == CurveSpec.line(P(1, 0, 0), P(1, 1, 0))


def test_find_rich_lines_sorted_by_count():
    pts = ([P(1, k, 0) for k in range(4)]
           + [P(0, 1, k) for k in range(1, 4)] + [P(0, 1, 0)])
    hits = find_rich_lines(PointSet.of(pts), 3)
    counts = [c for _, c in hits]
    assert counts == sorted(counts, reverse=True)
    assert counts[0] == 5  # [0:1:*] line picks up [0:1:0] too


def test_find_rich_conics_smooth():
    # seven points on u0 u2 = u1^2 plus one stray
    pts = [P(1, t, t * t) for t in range(-3, 4)] + [P(1, 1, 0)]
    hits = find_rich_conics(PointSet.of(pts), 7)
    assert len(hits) == 1
    conic, count = hits[0]
    assert conic.kind == SMOOTH_CONIC and count == 7


def test_find_rich_conics_reducible():
    pts = ([P(1, k, 0) for k in range(1, 5)]
           + [P(0, 1, k) for k in range(1, 5)])
    hits = find_rich_conics(PointSet.of(pts), 8)
    assert len(hits) == 1
    conic, count = hits[0]
    assert conic.kind == REDUCIBLE_CONIC and count == 8
    branches = conic.branch_lines()
    assert branches is not None


def test_find_rich_conics_in_higher_ambient():
    # the cluster plane is not the full space when m = 3
    pts = [P(1, t, t * t, 0) for t in range(-3, 4)] + [P(0, 0, 0, 1)]
    hits = find_rich_conics(PointSet.of(pts), 7)
    assert len(hits) == 1
    assert hits[0][1] == 7


# -- the head windows of the rich-curve search ----------------------------------

def planted_set(seed: int) -> tuple[PointSet, list, list]:
    """Two meeting lines, a 4-7 point conic and 0-3 strays in P^(2 + seed % 3).

    The first line lies in x0 = 0, so its 3-4 points sort first: the three
    smallest points of the reducible conic the two lines form lie on one
    branch.  The second line holds 2-7 points in P^2 and 6 = 2d + 2 (d = 2)
    in P^3 and P^4, where every plane through it and one more point is rich.
    The conic points lie far out along x1, so they sort last: at a threshold
    equal to their number, the first two points of the conic's plane are the
    last two points that the head keeps.
    Returns the set, the first line's points and the conic's points.
    """
    rng = random.Random(seed)
    m = 2 + seed % 3

    def vec(lead: int) -> list[int]:
        return [lead] + [rng.randint(-3, 3) for _ in range(m)]

    def on_line(a, b, ts) -> list[ProjectivePoint]:
        return [P(*(x + t * y for x, y in zip(a, b))) for t in ts]

    u = [0, 1] + vec(0)[2:]
    v = [0, 0, 1] + vec(0)[3:]
    first = on_line(u, v, range(rng.randint(3, 4)))
    node = [x + 9 * y for x, y in zip(u, v)]
    size = 6 if m >= 3 else rng.randint(2, 7)
    second = on_line(node, vec(rng.randint(1, 3)), range(1, size + 1))
    a, b, c = [1, 1000] + vec(0)[2:], vec(0), vec(0)
    conic = [P(*(x + t * y + t * t * z for x, y, z in zip(a, b, c)))
             for t in range(-2, rng.randint(2, 5))]
    strays = [P(*vec(rng.randint(1, 3))) for _ in range(rng.randint(0, 3))]
    return PointSet.of(first + second + conic + strays), first, conic


def all_pairs_rich_lines(s: PointSet, threshold: int):
    """The all-pairs reference for find_rich_lines: a line from every pair."""
    seen: dict = {}
    pts = list(s)
    for p, q in itertools.combinations(pts, 2):
        line = CurveSpec.line(p, q)
        key = line.sort_key()
        if key in seen:
            continue
        count = sum(1 for x in pts if line.contains(x))
        seen[key] = (line, count)
    out = [(line, c) for line, c in seen.values() if c >= threshold]
    out.sort(key=lambda pair: (-pair[1], pair[0].sort_key()))
    return out


def all_triples_planes(s: PointSet):
    """Every plane that a triple of s spans, with its members in s."""
    pts = list(s)
    seen = set()
    out = []
    for triple in itertools.combinations(pts, 3):
        if spanning_rank(triple) != 3:
            continue
        eqs = tuple(tuple(linalg._clear_row(v))
                    for v in linalg.nullspace([p.coords for p in triple]))
        if eqs in seen:
            continue
        seen.add(eqs)
        members = [p for p in pts if _incident(eqs, p.zcoords)]
        reduced, pivots = linalg.rref([list(p.coords) for p in triple])
        out.append((tuple(tuple(r) for r in reduced[:3]), tuple(pivots),
                    members))
    return out


def _as_json(found) -> list:
    return [(curve.to_json(), count) for curve, count in found]


@pytest.mark.parametrize("seed", range(15))
def test_rich_line_head_is_exact(seed):
    s, first, conic = planted_set(seed)
    pts = list(s)
    assert pts[:len(first)] == sorted(first, key=ProjectivePoint.sort_key)
    assert pts[-len(conic):] == sorted(conic, key=ProjectivePoint.sort_key)
    table = all_pairs_rich_lines(s, 2)
    for threshold in range(2, len(pts) + 2):
        want = [(l, c) for l, c in table if c >= threshold]
        assert _as_json(find_rich_lines(s, threshold)) == _as_json(want)


@pytest.mark.parametrize("seed", [1, 2, 4, 5])
def test_rich_plane_head_is_exact(seed, monkeypatch):
    s, _first, _conic = planted_set(seed)
    assert s.m >= 3
    planes = all_triples_planes(s)
    got = [find_rich_conics(s, t) for t in range(5, len(s) + 2)]
    monkeypatch.setattr(points, "_planes_of", lambda _s, t: [
        plane for plane in planes if len(plane[2]) >= t])
    want = [find_rich_conics(s, t) for t in range(5, len(s) + 2)]
    assert [_as_json(x) for x in got] == [_as_json(x) for x in want]
    assert any(conic.kind == REDUCIBLE_CONIC for conic, _ in want[0])


# -- the integer keys and incidences against Scalar references --------------------

def gaussian_point(z) -> ProjectivePoint:
    return ProjectivePoint(tuple(Scalar.of(re, im) for re, im in z))


def gaussian_combination(lam, a, mu, b) -> list:
    (lr, li), (mr, mi) = lam, mu
    return [(lr * ar - li * ai + mr * br - mi * bi,
             lr * ai + li * ar + mr * bi + mi * br)
            for (ar, ai), (br, bi) in zip(a, b)]


@pytest.mark.parametrize("seed", range(9))
def test_line_key_names_the_line(seed):
    rng = random.Random(seed)
    m = 2 + seed % 3

    def gint(k=3):
        return (rng.randint(-k, k), rng.randint(-k, k))

    key_of: dict = {}
    line_of: dict = {}
    for _ in range(8):
        a, b = [gint() for _ in range(m + 1)], [gint() for _ in range(m + 1)]
        if spanning_rank([gaussian_point(a), gaussian_point(b)]) < 2:
            continue
        # points of the line a b, and non-unit Gaussian multiples of them,
        # which are not primitive
        zs = []
        for lam, mu in [((1, 0), (0, 0)), ((0, 0), (1, 0))] + [
                (gint(), gint()) for _ in range(4)]:
            z = gaussian_combination(lam, a, mu, b)
            if any(any(c) for c in z):
                factor = rng.choice(((2, 0), (1, 1), (0, -3), (2, -1)))
                zs += [z, gaussian_combination(factor, z, (0, 0), z)]
        pairs = [(p, q) for p, q in itertools.combinations(zs, 2)
                 if spanning_rank([gaussian_point(p), gaussian_point(q)]) == 2]
        keys = {_line_key(p, q) for p, q in pairs}
        assert len(keys) == 1
        key = keys.pop()
        line = CurveSpec.line(gaussian_point(a), gaussian_point(b))
        for p, q in pairs[:3]:
            assert CurveSpec.line(gaussian_point(p), gaussian_point(q)) == line
        # one key per line, and one line per key
        assert key_of.setdefault(line.sort_key(), key) == key
        assert line_of.setdefault(key, line.sort_key()) == line.sort_key()
    assert len(key_of) >= 4


def scalar_monomials(u) -> list:
    return [u[a] * u[b]
            for a, b in itertools.combinations_with_replacement(range(3), 2)]


def scalar_on_conic(conic: CurveSpec, p: ProjectivePoint) -> bool:
    """Incidence in Scalar arithmetic: p back from its coordinates at the
    pivots through the plane rows, then the conic's value there."""
    u = [p.coords[j] for j in conic.plane_pivots]
    if all(c.is_zero for c in u) or conic.point_from_plane(u) != p:
        return False
    return scalar_value(conic.conic_coeffs, scalar_monomials(u)).is_zero


def scalar_product(eq1, eq2) -> list:
    return [eq1[a] * eq2[b] + (eq1[b] * eq2[a] if a != b else ZERO)
            for a, b in itertools.combinations_with_replacement(range(3), 2)]


def scalar_value(coeffs, monomials) -> Scalar:
    value = ZERO
    for c, x in zip(coeffs, monomials):
        value = value + c * x
    return value


def all_subsets_rich_conics(s: PointSet):
    """The reference for find_rich_conics, in Scalar and with no head
    window: every plane of a triple, every 5-subset of its members and
    every pair of lines through them that holds 5 of them; each
    point-determined conic with >= 5 points of s."""
    found = []
    for rows, pivots, members in all_triples_planes(s):
        if len(members) < 5:
            continue
        mono = {p: scalar_monomials([p.coords[j] for j in pivots])
                for p in members}
        candidates: dict = {}

        def add(vec):
            lead = next(c for c in vec if not c.is_zero)
            candidates[tuple(c / lead for c in vec)] = None

        for five in itertools.combinations(members, 5):
            kernel = linalg.nullspace([mono[p] for p in five])
            if len(kernel) == 1:
                add(kernel[0])
        lines = all_pairs_rich_lines(PointSet.of(members), 2)
        for (l1, n1), (l2, n2) in itertools.combinations(lines, 2):
            if n1 + n2 < 5:
                continue
            eq1, eq2 = (linalg.nullspace([[p.coords[j] for j in pivots]
                                          for p in line.line_basis])[0]
                        for line in (l1, l2))
            add(scalar_product(eq1, eq2))
        for vec in candidates:
            # a conic lies in its plane, so its points in s are members
            on = [p for p in members if scalar_value(vec, mono[p]).is_zero]
            if len(on) >= 5 and len(linalg.nullspace(
                    [mono[p] for p in on])) == 1:
                plane = [ProjectivePoint(r) for r in rows]
                found.append((CurveSpec.conic(plane, vec), len(on)))
    found.sort(key=lambda pair: (-pair[1], pair[0].sort_key()))
    return found


def check_conics_against_reference(s: PointSet) -> list:
    table = all_subsets_rich_conics(s)
    for threshold in range(5, len(s) + 2):
        want = [(c, n) for c, n in table if n >= threshold]
        assert _as_json(find_rich_conics(s, threshold)) == _as_json(want)
    # the integer incidence of the curves that hold more than their five
    for conic, count in table:
        if count > 5:
            assert [conic.contains(p) for p in s] == [
                scalar_on_conic(conic, p) for p in s]
    return table


@pytest.mark.parametrize("seed", range(15))
def test_rich_conics_match_the_all_subsets_reference(seed):
    s, _first, _conic = planted_set(seed)
    table = check_conics_against_reference(s)
    assert any(conic.kind == REDUCIBLE_CONIC for conic, _ in table)


@st.composite
def structured_sets(draw):
    """Up to 10 points in P^2 or P^3 with small Gaussian coordinates: some
    on a conic a + t b + t^2 c, some on a line a + t b, and strays."""
    m = draw(st.integers(2, 3))
    gint = st.builds(Scalar.of, st.integers(-2, 2), st.integers(-1, 1))
    vec = st.lists(gint, min_size=m + 1, max_size=m + 1)
    a, b, c, d, e = (draw(vec) for _ in range(5))
    ts = st.lists(st.integers(-3, 3), max_size=6, unique=True)
    coords = [[x + t * y + t * t * z for x, y, z in zip(a, b, c)]
              for t in map(Scalar.of, draw(ts))]
    coords += [[x + t * y for x, y in zip(d, e)]
               for t in map(Scalar.of, draw(ts))]
    coords += draw(st.lists(vec, max_size=2))
    return PointSet.of(ProjectivePoint(tuple(v)) for v in coords[:10]
                       if any(not x.is_zero for x in v))


@settings(max_examples=25, deadline=None)
@given(structured_sets())
def test_rich_conics_match_the_reference_on_drawn_sets(s):
    check_conics_against_reference(s)
    table = all_pairs_rich_lines(s, 2)
    for threshold in range(2, len(s) + 2):
        want = [(l, c) for l, c in table if c >= threshold]
        assert _as_json(find_rich_lines(s, threshold)) == _as_json(want)


def test_rich_curve_search_builds_only_the_lines_it_needs(monkeypatch):
    built, tried, pairs = [], [], 0
    line = CurveSpec.line
    product = points._symmetric_product
    monkeypatch.setattr(CurveSpec, "line", staticmethod(
        lambda p, q: built.append(1) or line(p, q)))
    monkeypatch.setattr(points, "_symmetric_product",
                        lambda a, b: tried.append(1) or product(a, b))
    for seed in range(15):
        s, _first, _conic = planted_set(seed)
        for threshold in range(2, len(s) + 2):
            built.clear()
            assert len(find_rich_lines(s, threshold)) == len(built)
        # thresholds from 7 keep the 5-subsets few; pairs are still tried
        for threshold in range(7, len(s) + 2):
            built.clear()
            tried.clear()
            find_rich_conics(s, threshold)
            assert len(built) <= len(tried)
            pairs += len(tried)
    assert pairs


def test_curve_json_roundtrip():
    line = CurveSpec.line(P(1, 2, 3), P(0, 1, -1))
    assert CurveSpec.from_json(line.to_json()) == line
    plane = [P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)]
    conic = CurveSpec.conic(plane, [ZERO, ZERO, ONE, Scalar.of(-1),
                                    ZERO, ZERO])
    assert CurveSpec.from_json(conic.to_json()) == conic
    l1 = CurveSpec.line(P(1, 0, 0, 0), P(0, 1, 0, 0))
    l2 = CurveSpec.line(P(0, 0, 1, 0), P(0, 0, 0, 1))
    pair = CurveSpec.two_lines(l1, l2)
    assert CurveSpec.from_json(pair.to_json()) == pair


def test_curve_json_needs_arrays_for_plane_and_conic():
    # a digit string was read element by element as a row or a coefficient
    # list
    plane = [P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)]
    obj = CurveSpec.conic(plane, [ZERO, ZERO, ONE, Scalar.of(-1),
                                  ZERO, ZERO]).to_json()
    for key, value in (("conic", "001000"), ("conic", {"0": 1}),
                       ("plane", ["100", "010", "001"]), ("plane", "abc")):
        bad = dict(obj, **{key: value})
        with pytest.raises(ValueError, match="JSON array"):
            CurveSpec.from_json(bad)


def test_conjugate_curve_fixes_real_lines():
    line = CurveSpec.line(P(1, 2, 3), P(0, 1, -1))
    assert line.is_real and _conj_line(line) == line
    i = Scalar.of(0, 1)
    complex_line = CurveSpec.line(
        ProjectivePoint((ONE, i, ZERO)), P(0, 0, 1))
    assert not complex_line.is_real
    assert _conj_line(complex_line) != complex_line


def test_deterministic_sort_keys():
    rng = random.Random(2)
    pts = [P(rng.randint(-5, 5), rng.randint(-5, 5), 1) for _ in range(8)]
    keys = [p.sort_key() for p in PointSet.of(pts)]
    assert keys == sorted(keys)


def test_point_set_work_and_keys_stay_per_point():
    # keys over one common denominator of the whole set would each be as
    # long as all the distinct denominators together
    rng = random.Random(5)

    def part() -> Scalar:
        return gaussian(rng.getrandbits(200), rng.getrandbits(200),
                        rng.getrandbits(200) | 1)

    pts = [ProjectivePoint((ONE, part(), part())) for _ in range(300)]
    size = sum(sys.getsizeof(v) for p in pts for c in p.coords
               for v in (c.a, c.b, c.d))
    scaled = [ProjectivePoint(tuple(c * 3 for c in p.coords))
              for p in pts[:20]]
    tracemalloc.start()
    try:
        s = PointSet(tuple(pts + scaled))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * size
    assert list(s) == sorted(set(pts), key=lambda p: [
        (Fraction(c.a, c.d), Fraction(c.b, c.d)) for c in p.coords])
