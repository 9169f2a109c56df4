"""Acceptance gate.

Eight criteria, one test each, named test_criterion_1 through
test_criterion_8 so the verbose run reads as one pass or fail line per
criterion.  Each test also prints a single bracketed verdict line with
its measured numbers.  Criteria 5 through 8 share one deterministic
batch of one hundred fifty instances, fifty per case, built once at
module scope.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from test_binary import oracle_complex_rank
from test_verifier import coherence_check

from waringlab.binary import (BinaryForm, complex_rank, power_point,
                              real_rank, reconstruct, reconstruction_check)
from waringlab.factory import generate_instance
from waringlab.points import (REDUCIBLE_CONIC, CurveSpec, PointSet,
                              ProjectivePoint)
from waringlab.scalars import ONE, ZERO, Scalar
from waringlab.spans import (Conclusion, HypothesisFails, h1_ideal,
                             parametrize_line)
from waringlab.verifier import classify, detect_structure

SUB_CHECKS = {"a": ("a.i", "a.ii", "a.iii"),
              "b": ("b.i", "b.ii", "b.iii", "b.iv"),
              "c": ("c.i", "c.ii", "c.iii", "c.iv")}

MEET_NAMES = {"P_l", "P_C", "P_C_left", "P_C_right", "O_Gamma", "O_l", "O_r"}


def _verdict(n: int, detail: str) -> None:
    print(f"[criterion {n}] PASS {detail}")


def _dump(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


@pytest.fixture(scope="module")
def batch():
    """Fifty instances per case over the supported grid, classified once.

    Case c needs 2(d+2) on-curve points inside the 3d-1 budget, which
    forces d >= 5, and disjoint lines need ambient dimension at least 3.
    """
    cells_ab = [(d, m) for d in (3, 4, 5, 6) for m in (2, 3, 4)]
    cells_c = [(d, m) for d in (5, 6) for m in (3, 4)]
    rows = []
    t0 = time.perf_counter()
    for case, cells in (("a", cells_ab), ("b", cells_ab), ("c", cells_c)):
        for i in range(50):
            d, m = cells[i % len(cells)]
            inst = generate_instance(case, d, m, 9000 + i)
            rows.append((inst, classify(inst)))
    elapsed = time.perf_counter() - t0
    return rows, elapsed


def test_criterion_1_monomial_ranks_match_kernel_oracle():
    spent = 0.0
    count = 0
    worst = 0.0
    for d in range(1, 9):
        for a in range(d + 1):
            b = d - a
            coeffs = [ZERO] * (d + 1)
            coeffs[b] = ONE
            f = BinaryForm.from_plain(coeffs)
            t0 = time.perf_counter()
            rc, dec = complex_rank(f)
            step = time.perf_counter() - t0
            spent += step
            worst = max(worst, step)
            count += 1
            assert rc == oracle_complex_rank(f)
            expected = 1 if a == 0 or b == 0 else max(a, b) + 1
            assert rc == expected
            assert dec.minimality_certified
            assert reconstruction_check(f, dec)
    assert count == 44
    assert spent < 5.0
    _verdict(1, f"{count} monomials, rank time {spent:.2f}s "
                f"(worst single {worst:.2f}s), bound 5s")


def test_criterion_2_gap_form_ranks_and_reconstructions():
    t0 = time.perf_counter()
    f = BinaryForm.from_plain([Scalar.of(2), ZERO, Scalar.of(-6), ZERO])
    rc, dec_c = complex_rank(f)
    rr, dec_r = real_rank(f)
    elapsed = time.perf_counter() - t0
    assert (rc, rr) == (2, 3)
    assert dec_c.mode == "exact" and dec_r.mode == "exact"
    assert dec_c.minimality_certified and dec_r.minimality_certified
    i = Scalar.of(0, 1)
    assert set(zip(dec_c.points, dec_c.coeffs)) == {
        ((ONE, i), ONE), ((ONE, -i), ONE)}
    assert set(zip(dec_r.points, dec_r.coeffs)) == {
        ((ONE, ZERO), Scalar.of(4)),
        ((ONE, ONE), Scalar.of(-1)),
        ((ONE, Scalar.of(-1)), Scalar.of(-1))}
    assert reconstruct(dec_c, 3) == f
    assert reconstruct(dec_r, 3) == f
    # both stated identities expanded directly, no rank engine involved
    assert power_point((ONE, i), 3) + power_point((ONE, -i), 3) == f
    spread = power_point((ONE, ZERO), 3).scale(Scalar.of(4)) \
        + power_point((ONE, ONE), 3).scale(Scalar.of(-1)) \
        + power_point((ONE, Scalar.of(-1)), 3).scale(Scalar.of(-1))
    assert spread == f
    assert elapsed < 1.0
    _verdict(2, f"ranks (2, 3), exact reconstructions, "
                f"{elapsed:.3f}s, bound 1s")


def test_criterion_3_collinear_h1_law():
    combos = [(d, k) for d in (3, 4, 5, 6) for k in (0, 1, 2, 3)]
    checked = 0
    for i in range(100):
        d, k = combos[i % len(combos)]
        rng = random.Random(40000 + i)
        while True:
            p0 = ProjectivePoint.of(*[rng.randint(-5, 5) for _ in range(3)])
            p1 = ProjectivePoint.of(*[rng.randint(-5, 5) for _ in range(3)])
            if any(not c.is_zero for c in p0.coords) \
                    and any(not c.is_zero for c in p1.coords) \
                    and p0 != p1:
                break
        param = parametrize_line(CurveSpec.line(p0, p1))
        params = rng.sample(range(-30, 31), d + 1 + k)
        pts = PointSet.of(ProjectivePoint(param.point(ONE, Scalar.of(t)))
                          for t in params)
        assert len(pts) == d + 1 + k
        rep = h1_ideal(pts, d)
        assert rep.h1 == k
        checked += 1
    assert checked == 100
    _verdict(3, "100 seeded collinear configurations, h1 equals the "
                "excess over d+1 in every one")


def test_criterion_4_detection_always_finds_rich_curve(batch):
    rows, _ = batch
    sample = rows[25:125]
    assert len(sample) == 100
    for inst, _report in sample:
        union = inst.s_c.union(inst.s_r)
        assert len(inst.s_c) + len(inst.s_r) <= 3 * inst.d - 1
        assert h1_ideal(union, inst.d).h1 > 0
        det = detect_structure(union, inst.d)
        rich_line = any(n >= inst.d + 2 for _, n in det.lines)
        rich_conic = any(n >= 2 * inst.d + 2 for _, n in det.conics)
        assert rich_line or rich_conic
    _verdict(4, "100 seeded instances, every union holds a line with "
                "at least d+2 points or a conic with at least 2d+2")


def test_criterion_5_batch_classification(batch):
    rows, elapsed = batch
    assert len(rows) == 150
    per_case = {"a": 0, "b": 0, "c": 0}
    for inst, report in rows:
        assert report.overall_pass
        assert report.label_match is True
        per_case[inst.case_label] += 1
        att = next(a for a in report.attempts
                   if a.passed and a.case_label == inst.case_label)
        ids = {c.check_id: c.passed for c in att.checks}
        for sub in SUB_CHECKS[inst.case_label]:
            assert ids[sub] is True
    assert per_case == {"a": 50, "b": 50, "c": 50}
    assert elapsed < 120.0
    _verdict(5, f"150/150 classified with matching labels and every "
                f"sub-condition green in {elapsed:.1f}s, bound 120s")


def test_criterion_6_off_curve_agreement(batch):
    rows, _ = batch
    for inst, _report in rows:
        out = coherence_check(inst.form, inst.s_c, inst.s_r, inst.curve,
                              inst.d)
        assert out == Conclusion(True)
    negatives = 0
    for inst, _report in rows:
        if inst.case_label != "a" or negatives == 20:
            continue
        moved = None
        for t in range(1, 80):
            coords = [1, t] + [t + 1 + j for j in range(inst.m - 1)]
            p = ProjectivePoint.of(*coords)
            if inst.curve.contains(p) or p in inst.s_r or p in inst.s_c:
                continue
            out = coherence_check(
                inst.form, inst.s_c,
                PointSet.of(list(inst.s_r) + [p]), inst.curve, inst.d)
            if isinstance(out, HypothesisFails):
                continue
            moved = out
            break
        assert moved == Conclusion(False)
        negatives += 1
    assert negatives == 20
    _verdict(6, "agreement on all 150 honest instances, 20/20 perturbed "
                "instances rejected")


def test_criterion_7_meet_points_exactly_real(batch):
    rows, _ = batch
    seen: dict[str, int] = {}
    reducible_present = any(inst.curve.kind == REDUCIBLE_CONIC
                            for inst, _ in rows)
    for _inst, report in rows:
        for att in report.attempts:
            if not att.passed:
                continue
            for name, form in att.meet_points:
                assert name in MEET_NAMES
                assert form.is_real
                seen[name] = seen.get(name, 0) + 1
    assert {"P_l", "P_C", "O_Gamma", "O_l", "O_r"} <= set(seen)
    if reducible_present:
        assert {"P_C_left", "P_C_right"} <= set(seen)
    counts = ", ".join(f"{k}={v}" for k, v in sorted(seen.items()))
    _verdict(7, f"every named meet point is exactly real ({counts})")


def test_criterion_8_reruns_are_byte_identical(batch):
    rows, _ = batch
    for inst, report in rows:
        again = generate_instance(inst.case_label, inst.d, inst.m,
                                  inst.seed)
        assert _dump(again.to_json()) == _dump(inst.to_json())
        assert _dump(classify(again).to_json()) == _dump(report.to_json())
    _verdict(8, "150 instance files and reports reproduced byte for byte "
                "from the same seeds")
