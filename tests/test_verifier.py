"""Classification reports: hypothesis gate, detection, case checks, notes."""

from __future__ import annotations

import json

from waringlab.factory import (conjugate_pair_form, generate_instance,
                               make_case_a)
from waringlab.forms import HomogeneousForm
from waringlab.points import (LINE, REDUCIBLE_CONIC, SMOOTH_CONIC,
                              TWO_DISJOINT_LINES, CurveSpec, PointSet,
                              ProjectivePoint)
from waringlab.scalars import Scalar
from waringlab.spans import Conclusion, off_curve_agreement
from waringlab.verifier import classify, classify_triple, detect_structure

NO_STRUCTURE_NOTE = ("no rich line, conic, or disjoint line pair found; "
                     "input sits outside the structure dichotomy")


def P(*vals) -> ProjectivePoint:
    return ProjectivePoint.of(*vals)


def coherence_check(form: HomogeneousForm, s_c: PointSet, s_r: PointSet,
                    curve: CurveSpec, d: int):
    """Off-curve agreement of an instance's two point sets."""
    return off_curve_agreement(s_c, s_r, curve, d)


def worked_example():
    line = CurveSpec.line(P(1, 0, 0), P(0, 1, 0))
    return make_case_a(2, 3, conjugate_pair_form(3), [P(0, 0, 1)], line)


def test_worked_example_classifies_as_case_a():
    inst = worked_example()
    rep = classify(inst)
    assert rep.mode == "instance"
    assert rep.overall_pass
    assert rep.headline == "a"
    assert rep.label_match is True
    assert rep.passing_cases == ("a",)
    att = next(a for a in rep.attempts if a.passed)
    assert att.case_label == "a"
    assert att.curve == inst.curve
    ids = [c.check_id for c in att.checks]
    for want in ("a.i", "a.ii", "a.iii"):
        assert want in ids
    meets = dict(att.meet_points)
    assert list(meets) == ["P_l"]
    # the meet of <f, z^3> with the line sections is the planted gap form
    want = HomogeneousForm.from_coeff_map(3, 3, {
        (3, 0, 0): Scalar.of(2),
        (1, 2, 0): Scalar.of(-6)}).canonical()
    assert meets["P_l"] == want
    assert meets["P_l"].is_real


def test_raw_mode_flags_assumed_ranks():
    inst = worked_example()
    rep = classify_triple(inst.form, inst.s_c, inst.s_r, inst.d, inst.m)
    assert rep.mode == "raw"
    assert any("assumed" in n for n in rep.notes)
    assert rep.case_label is None
    assert rep.label_match is None
    assert rep.overall_pass
    assert rep.headline == "a"


def test_equal_sizes_fail_rank_inequality():
    inst = worked_example()
    rep = classify_triple(inst.form, inst.s_r, inst.s_r, 3, 2)
    assert not rep.overall_pass
    assert rep.attempts == ()
    assert rep.detected_lines == ()
    assert rep.detected_conics == ()
    assert rep.detected_pairs == ()
    failed = {c.check_id for c in rep.hypothesis_checks if not c.passed}
    assert "rank-inequality" in failed


def test_budget_overflow_blocks_classification():
    inst = worked_example()
    fat = PointSet.of(list(inst.s_r) + [P(1, 5, 0), P(1, 7, 0)])
    rep = classify_triple(inst.form, inst.s_c, fat, 3, 2)
    assert not rep.overall_pass
    assert rep.attempts == ()
    budget = next(c for c in rep.hypothesis_checks if c.check_id == "budget")
    assert not budget.passed
    assert dict(budget.data) == {"sizes": "3+6", "limit": "8"}


def test_extra_off_point_breaks_off_agreement():
    # keep the planted off point so both memberships still hold, then add
    # a second off-curve point only on the real side
    inst = worked_example()
    skewed = PointSet.of(list(inst.s_r) + [P(1, 2, 3)])
    rep = classify_triple(inst.form, inst.s_c, skewed, 3, 2)
    assert all(c.passed for c in rep.hypothesis_checks)
    assert not rep.overall_pass
    att = next(a for a in rep.attempts
               if a.case_label == "a" and a.curve == inst.curve)
    ai = next(c for c in att.checks if c.check_id == "a.i")
    assert not ai.passed
    assert dict(ai.data) == {"off_complex": "1", "off_real": "2"}


def test_planted_curve_is_detected():
    grid = (("a", 4, 2, (LINE,)),
            ("b", 5, 2, (SMOOTH_CONIC, REDUCIBLE_CONIC)),
            ("c", 5, 3, (TWO_DISJOINT_LINES,)))
    for case, d, m, kinds in grid:
        inst = generate_instance(case, d, m, 1)
        rep = classify(inst)
        assert rep.overall_pass
        assert rep.label_match is True
        if case == "a":
            found = [c for c, _ in rep.detected_lines]
        elif case == "b":
            found = [c for c, _ in rep.detected_conics]
        else:
            found = [c for c, _, _ in rep.detected_pairs]
        assert inst.curve.sort_key() in [c.sort_key() for c in found]
        assert inst.curve.kind in kinds


def test_detect_structure_counts_and_thresholds():
    inst = worked_example()
    union = inst.s_c.union(inst.s_r)
    det = detect_structure(union, 3)
    assert [n for _, n in det.lines] == [5]
    assert det.conics == ()
    assert det.pairs == ()
    assert detect_structure(union, 3, line_threshold=6).empty

    instc = generate_instance("c", 5, 3, 0)
    detc = detect_structure(instc.s_c.union(instc.s_r), 5)
    assert detc.pairs
    pair, n1, n2 = detc.pairs[0]
    assert pair.kind == TWO_DISJOINT_LINES
    assert n1 >= 7 and n2 >= 7


def test_threshold_override_reports_no_structure():
    inst = generate_instance("c", 5, 3, 2)
    rep = classify(inst, line_threshold=9)
    assert not rep.overall_pass
    assert rep.attempts == ()
    # branches hold d+2 points, not d+1, so only the plain note appears
    assert list(rep.notes) == [NO_STRUCTURE_NOTE]


def test_coherence_check_matches_off_curve_agreement():
    inst = worked_example()
    ok = coherence_check(inst.form, inst.s_c, inst.s_r, inst.curve, inst.d)
    assert ok == Conclusion(True)
    skewed = PointSet.of(list(inst.s_r) + [P(1, 2, 3)])
    bad = coherence_check(inst.form, inst.s_c, skewed, inst.curve, inst.d)
    assert bad == Conclusion(False)


def test_case_b_smooth_and_reducible_reports():
    seen = set()
    for seed in range(14):
        inst = generate_instance("b", 5, 2, seed)
        if inst.curve.kind in seen:
            continue
        seen.add(inst.curve.kind)
        rep = classify(inst)
        assert rep.overall_pass
        assert rep.label_match is True
        att = next(a for a in rep.attempts
                   if a.passed and a.case_label == "b")
        ids = {c.check_id for c in att.checks}
        assert {"b.i", "b.ii", "b.iii", "b.iv"} <= ids
        biv = next(c for c in att.checks if c.check_id == "b.iv")
        names = [n for n, _ in att.meet_points]
        if inst.curve.kind == SMOOTH_CONIC:
            assert "smooth" in biv.note
            assert names == ["P_C"]
        else:
            counts = dict(biv.data)
            assert int(counts["left"]) >= 6
            assert int(counts["right"]) >= 6
            assert names == ["P_C", "P_C_left", "P_C_right"]
        if len(seen) == 2:
            break
    assert len(seen) == 2


def test_case_c_meet_points_are_real():
    inst = generate_instance("c", 5, 3, 0)
    rep = classify(inst)
    assert rep.overall_pass
    assert rep.headline == "c"
    att = next(a for a in rep.attempts if a.passed and a.case_label == "c")
    ids = {c.check_id for c in att.checks}
    assert {"c.i", "c.ii", "c.iii", "c.iv"} <= ids
    assert [n for n, _ in att.meet_points] == ["O_Gamma", "O_l", "O_r"]
    assert all(f.is_real for _, f in att.meet_points)


def test_report_json_is_deterministic_and_shaped():
    inst = generate_instance("b", 5, 2, 3)
    r1 = classify(inst).to_json()
    r2 = classify(inst).to_json()
    assert json.dumps(r1) == json.dumps(r2)
    assert list(r1.keys()) == [
        "mode", "m", "d", "case_label", "hypothesis_checks", "h1_total",
        "detected", "attempts", "passing_cases", "headline", "overall_pass",
        "label_match", "notes"]
    assert list(r1["detected"].keys()) == ["lines", "conics", "pairs"]
    assert r1["headline"] == "b"
    assert r1["overall_pass"] is True
    assert r1["h1_total"] >= 1
