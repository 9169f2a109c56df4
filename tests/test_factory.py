"""Instance factory: gap forms, case constructors, deterministic generation."""

from __future__ import annotations

import json
import random

import pytest
import sympy

from waringlab.binary import BinaryForm, complex_rank, real_rank
from waringlab import factory
from waringlab.factory import (CASE_A, CASE_B, ConstraintViolation,
                               Instance, _compose_gl2, _random_transplant,
                               conjugate_pair_form, generate_instance,
                               make_case_a, make_case_b,
                               make_case_b_reducible, make_case_c)
from waringlab.forms import HomogeneousForm
from waringlab.points import (LINE, REDUCIBLE_CONIC, SMOOTH_CONIC,
                              TWO_DISJOINT_LINES, CurveSpec, PointSet,
                              ProjectivePoint)
from waringlab.scalars import ONE, ZERO, Scalar
from waringlab.spans import parametrize_conic, parametrize_line


def P(*vals) -> ProjectivePoint:
    return ProjectivePoint.of(*vals)


def test_conjugate_pair_form_frozen_cubic():
    f = conjugate_pair_form(3)
    # (x+iy)^3 + (x-iy)^3 = 2x^3 - 6xy^2
    assert f == BinaryForm.from_plain(
        [Scalar.of(2), ZERO, Scalar.of(-6), ZERO])
    assert f.is_real


def test_conjugate_pair_form_coefficient_pattern():
    for d in (4, 5, 6):
        f = conjugate_pair_form(d)
        for k, c in enumerate(f.coeffs):
            if k % 2:
                assert c.is_zero
            else:
                assert c == Scalar.of(2 if k % 4 == 0 else -2)


def test_transplant_preserves_both_ranks():
    f = conjugate_pair_form(5, (1, 1, 0, 1))
    assert f.is_real
    rc, _ = complex_rank(f)
    rr, _ = real_rank(f)
    assert (rc, rr) == (2, 5)
    with pytest.raises(ValueError):
        conjugate_pair_form(4, (2, 0, 0, 2))


def test_compose_gl2_matches_sympy_substitution():
    x, y = sympy.symbols("x y")

    def to_sym(c: Scalar):
        return sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)

    rng = random.Random(91)
    entries = [ZERO, ONE, Scalar.of(-3), Scalar.of(1, 2), Scalar.of(0, -1)]
    for trial in range(40):
        d = rng.randint(1, 12)
        f = (conjugate_pair_form(d) if trial % 2 else BinaryForm.from_plain(
            [rng.choice(entries) for _ in range(d + 1)]))
        a, b, c, e = _random_transplant(rng)
        got = _compose_gl2(f, a, b, c, e)
        plain = f.plain_coeffs()
        expr = sympy.expand(sum(
            to_sym(p) * (a * x + b * y) ** (d - k) * (c * x + e * y) ** k
            for k, p in enumerate(plain)))
        want = [expr.coeff(x, d - k).coeff(y, k) for k in range(d + 1)]
        assert got.degree == d
        assert [to_sym(p) for p in got.plain_coeffs()] == want, (f, a, b, c, e)


def test_worked_example_case_a():
    line = CurveSpec.line(P(1, 0, 0), P(0, 1, 0))
    gap = conjugate_pair_form(3)
    inst = make_case_a(2, 3, gap, [P(0, 0, 1)], line)
    i = Scalar.of(0, 1)
    want_c = PointSet.of([
        ProjectivePoint((ONE, i, ZERO)),
        ProjectivePoint((ONE, -i, ZERO)),
        P(0, 0, 1)])
    want_r = PointSet.of([P(1, 0, 0), P(1, 1, 0), P(1, -1, 0), P(0, 0, 1)])
    assert inst.s_c == want_c
    assert inst.s_r == want_r
    # 2x^3 - 6xy^2 + z^3
    want_form = HomogeneousForm.from_coeff_map(3, 3, {
        (3, 0, 0): Scalar.of(2),
        (1, 2, 0): Scalar.of(-6),
        (0, 0, 3): ONE})
    assert inst.form == want_form
    assert inst.case_label == CASE_A
    assert inst.curve == line
    assert all(c.passed for c in inst.certificates)


def test_case_a_rejects_bad_inputs():
    line = CurveSpec.line(P(1, 0, 0), P(0, 1, 0))
    gap = conjugate_pair_form(3)
    with pytest.raises(ConstraintViolation) as exc:
        make_case_a(2, 3, gap, [P(1, 5, 0)], line)
    assert exc.value.certificate == "off-curve"
    with pytest.raises(ConstraintViolation) as exc:
        make_case_a(2, 3, conjugate_pair_form(4), [], line)
    assert exc.value.certificate == "gap-ranks"
    with pytest.raises(ConstraintViolation) as exc:
        make_case_a(2, 3, gap, [P(0, 0, 1), P(1, 1, 1)], line)
    assert exc.value.certificate == "budget"
    conic_plane = [P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)]
    conic = CurveSpec.conic(conic_plane,
                            [ZERO, ZERO, ONE, Scalar.of(-1), ZERO, ZERO])
    with pytest.raises(ConstraintViolation) as exc:
        make_case_a(2, 3, gap, [], conic)
    assert exc.value.certificate == "curve"


def _rejects(certificate, build, *args):
    with pytest.raises(ConstraintViolation) as exc:
        build(*args)
    assert exc.value.certificate == certificate


def test_case_b_rejects_bad_inputs():
    # the conic xz = y^2 in P^2, parametrized from the point [0:0:1]
    conic = CurveSpec.conic([P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)],
                            [ZERO, ZERO, ONE, Scalar.of(-1), ZERO, ZERO])
    param = parametrize_conic(conic, P(0, 0, 1))
    gap = conjugate_pair_form(6)
    assert make_case_b(2, 3, gap, [], param).case_label == CASE_B
    _rejects("off-curve", make_case_b, 2, 3, gap, [P(1, 0, 0)], param)
    _rejects("gap-ranks", make_case_b, 2, 3, conjugate_pair_form(3), [],
             param)
    _rejects("budget", make_case_b, 2, 3, gap, [P(1, 1, 0)], param)
    _rejects("curve", make_case_b, 3, 3, gap, [], param)


def test_case_b_reducible_rejects_bad_inputs():
    # the lines z = 0 and 7x - y - 7z = 0 meet in the node [1:7:0], which
    # no decomposition point of the gap form lands on
    left = CurveSpec.line(P(1, 0, 0), P(0, 1, 0))
    right = CurveSpec.line(P(1, 7, 0), P(1, 0, 1))
    gap = conjugate_pair_form(5)
    inst = make_case_b_reducible(2, 5, gap, gap, [], left, right)
    assert inst.curve.kind == REDUCIBLE_CONIC
    _rejects("off-curve", make_case_b_reducible, 2, 5, gap, gap,
             [P(1, 0, 1)], left, right)
    _rejects("gap-ranks", make_case_b_reducible, 2, 5, gap,
             conjugate_pair_form(4), [], left, right)
    _rejects("budget", make_case_b_reducible, 2, 5, gap, gap,
             [P(1, 1, 1)], left, right)
    _rejects("curve", make_case_b_reducible, 3, 5, gap, gap, [], left,
             right)


def test_case_b_reducible_rejects_a_node_hit_before_embedding(monkeypatch):
    # the left branch z = 0 takes [s:t] to [s:t:0], so the node is the image
    # of a point of the gap form's real decomposition
    gap = conjugate_pair_form(5)
    _, dec_r = real_rank(gap)
    left = CurveSpec.line(P(1, 0, 0), P(0, 1, 0))
    node = ProjectivePoint(parametrize_line(left).point(*dec_r.points[2]))
    assert node == P(3, 1, 0)
    right = CurveSpec.line(node, P(0, 0, 1))
    embedded = []
    embed = factory._embedded_power_sum
    monkeypatch.setattr(factory, "_embedded_power_sum",
                        lambda *args: embedded.append(args) or embed(*args))
    _rejects("node-avoidance", make_case_b_reducible, 2, 5, gap, gap, [],
             left, right)
    assert embedded == []
    # gap ranks fail first, then the budget, and only then the node
    _rejects("gap-ranks", make_case_b_reducible, 2, 5, gap,
             conjugate_pair_form(4), [], left, right)
    assert not CurveSpec.reducible_from_lines(left, right).contains(
        P(1, 1, 1))
    _rejects("budget", make_case_b_reducible, 2, 5, gap, gap,
             [P(1, 1, 1)], left, right)
    assert embedded == []


def test_case_c_rejects_bad_inputs():
    left = CurveSpec.line(P(1, 0, 0, 0), P(0, 1, 0, 0))
    right = CurveSpec.line(P(0, 0, 1, 0), P(0, 0, 0, 1))
    gap = conjugate_pair_form(5)
    inst = make_case_c(3, 5, gap, gap, [], left, right)
    assert inst.curve.kind == TWO_DISJOINT_LINES
    _rejects("off-curve", make_case_c, 3, 5, gap, gap, [P(0, 0, 2, 3)],
             left, right)
    _rejects("gap-ranks", make_case_c, 3, 5, conjugate_pair_form(6), gap,
             [], left, right)
    _rejects("budget", make_case_c, 3, 5, gap, gap, [P(1, 1, 1, 1)], left,
             right)
    _rejects("curve", make_case_c, 2, 5, gap, gap, [], left, right)


def test_constraint_violation_is_a_value_error():
    err = ConstraintViolation("budget", "too many points")
    assert isinstance(err, ValueError)
    assert err.certificate == "budget"
    assert "budget" in str(err)


def test_generate_instance_validation():
    with pytest.raises(ConstraintViolation):
        generate_instance("a", 2, 2, 0)
    with pytest.raises(ConstraintViolation):
        generate_instance("a", 3, 1, 0)
    with pytest.raises(ConstraintViolation):
        generate_instance("z", 3, 2, 0)
    with pytest.raises(ConstraintViolation):
        generate_instance("c", 5, 2, 0)
    with pytest.raises(ConstraintViolation):
        generate_instance("c", 4, 3, 0)


def test_generation_is_deterministic():
    a = generate_instance("a", 4, 2, 7)
    b = generate_instance("a", 4, 2, 7)
    assert json.dumps(a.to_json()) == json.dumps(b.to_json())
    c = generate_instance("a", 4, 2, 8)
    assert json.dumps(a.to_json()) != json.dumps(c.to_json())


def test_generated_case_a_structure():
    for seed in (0, 1, 2, 3):
        inst = generate_instance("a", 4, 2, seed)
        assert inst.case_label == CASE_A
        assert inst.curve.kind == LINE
        assert len(inst.s_c) < len(inst.s_r)
        assert len(inst.s_c) + len(inst.s_r) <= 3 * inst.d - 1
        assert inst.s_c.is_conjugation_stable()
        assert all(p.is_real for p in inst.s_r)
        assert inst.form.is_real
        union = inst.s_c.union(inst.s_r)
        on_curve = [p for p in union if inst.curve.contains(p)]
        assert len(on_curve) >= inst.d + 2
        assert all(c.passed for c in inst.certificates)


def test_generated_case_b_covers_both_conic_kinds():
    kinds = set()
    for seed in range(14):
        inst = generate_instance("b", 5, 2, seed)
        kinds.add(inst.curve.kind)
        union = inst.s_c.union(inst.s_r)
        on_curve = [p for p in union if inst.curve.contains(p)]
        assert len(on_curve) >= 2 * inst.d + 2
        assert len(inst.s_c) < len(inst.s_r)
        if kinds >= {SMOOTH_CONIC, REDUCIBLE_CONIC}:
            break
    assert kinds >= {SMOOTH_CONIC, REDUCIBLE_CONIC}


def test_generated_case_c_structure():
    for seed in (0, 1):
        inst = generate_instance("c", 5, 3, seed)
        assert inst.curve.kind == TWO_DISJOINT_LINES
        union = inst.s_c.union(inst.s_r)
        left, right = inst.curve.branches
        assert sum(1 for p in union if left.contains(p)) >= inst.d + 2
        assert sum(1 for p in union if right.contains(p)) >= inst.d + 2


def test_instance_json_roundtrip():
    inst = generate_instance("b", 5, 2, 3)
    j = inst.to_json()
    again = Instance.from_json(j).to_json()
    assert again == j
    assert set(j) == {"case", "m", "d", "seed", "P", "S_C", "S_R",
                      "curve", "certificates"}


def test_higher_ambient_dimension():
    inst = generate_instance("a", 4, 3, 5)
    assert inst.m == 3
    assert inst.form.num_vars == 4
    union = inst.s_c.union(inst.s_r)
    assert all(inst.curve.contains(p) or p.is_real for p in union)
