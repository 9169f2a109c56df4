"""Projective points, point sets, and curve carriers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from waringlab.points import (LINE, REDUCIBLE_CONIC, SMOOTH_CONIC,
                              TWO_DISJOINT_LINES, CurveSpec, PointSet,
                              ProjectivePoint, _conj_line, find_rich_conics,
                              find_rich_lines, spanning_rank, split_on_curve)
from waringlab.scalars import ONE, ZERO, Scalar


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
    q = line.point_at(Scalar.of(2), Scalar.of(3))
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
