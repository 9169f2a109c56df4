"""Case classification: test a (P, S_C, S_R) triple against the structure
theorem's three shapes and report every check exactly.

The pipeline mirrors how the structure is forced: hypothesis checks first
(budget, strict size inequality, memberships, positive h1 of the union),
then detection of rich curves (lines holding at least d+2 of the points,
conics holding at least 2d+2, and disjoint line pairs rich on both legs),
then one verification attempt per detected curve in a fixed order.  A
report never throws: every anomaly is recorded as a failed check, every
number it carries is exact, and identical inputs yield identical bytes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from . import linalg
from .binary import complex_rank, real_rank
from .factory import Instance
from .forms import HomogeneousForm
from .points import (SMOOTH_CONIC, CurveSpec, PointSet, ProjectivePoint,
                     find_rich_conics, find_rich_lines, split_on_curve)
from .spans import (CurveParametrization, NotUnique, curve_meet_point,
                    h1_ideal, membership, pair_power_basis, parametrize_conic,
                    parametrize_line, power_row, restrict_to_curve,
                    unique_intersection_point)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    note: str = ""
    data: tuple[tuple[str, str], ...] = ()

    def to_json(self) -> dict:
        out: dict = {"id": self.check_id, "passed": self.passed}
        if self.note:
            out["note"] = self.note
        if self.data:
            out["data"] = {k: v for k, v in self.data}
        return out


@dataclass(frozen=True)
class CaseAttempt:
    case_label: str
    curve: CurveSpec
    checks: tuple[CheckResult, ...]
    meet_points: tuple[tuple[str, HomogeneousForm], ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "case": self.case_label,
            "curve": self.curve.to_json(),
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
            "points": {name: form.to_json()
                       for name, form in self.meet_points},
        }


@dataclass(frozen=True)
class CaseReport:
    mode: str
    m: int
    d: int
    case_label: Optional[str]
    hypothesis_checks: tuple[CheckResult, ...]
    h1_total: int
    detected_lines: tuple[tuple[CurveSpec, int], ...]
    detected_conics: tuple[tuple[CurveSpec, int], ...]
    detected_pairs: tuple[tuple[CurveSpec, int, int], ...]
    attempts: tuple[CaseAttempt, ...]
    notes: tuple[str, ...] = ()

    @property
    def passing_cases(self) -> tuple[str, ...]:
        seen = []
        for a in self.attempts:
            if a.passed and a.case_label not in seen:
                seen.append(a.case_label)
        return tuple(seen)

    @property
    def headline(self) -> Optional[str]:
        for a in self.attempts:
            if a.passed:
                return a.case_label
        return None

    @property
    def overall_pass(self) -> bool:
        return (all(c.passed for c in self.hypothesis_checks)
                and self.headline is not None)

    @property
    def label_match(self) -> Optional[bool]:
        if self.case_label is None:
            return None
        return self.case_label in self.passing_cases

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "m": self.m,
            "d": self.d,
            "case_label": self.case_label,
            "hypothesis_checks": [c.to_json()
                                  for c in self.hypothesis_checks],
            "h1_total": self.h1_total,
            "detected": {
                "lines": [{"curve": c.to_json(), "count": n}
                          for c, n in self.detected_lines],
                "conics": [{"curve": c.to_json(), "count": n}
                           for c, n in self.detected_conics],
                "pairs": [{"curve": c.to_json(), "counts": [a, b]}
                          for c, a, b in self.detected_pairs],
            },
            "attempts": [a.to_json() for a in self.attempts],
            "passing_cases": list(self.passing_cases),
            "headline": self.headline,
            "overall_pass": self.overall_pass,
            "label_match": self.label_match,
            "notes": list(self.notes),
        }


def _is_real_data(form: HomogeneousForm, s_c: PointSet,
                  s_r: PointSet) -> bool:
    return (form.is_real and s_c.is_conjugation_stable()
            and all(p.is_real for p in s_r))


# -- hypothesis layer -------------------------------------------------------------

def check_hypotheses(form: HomogeneousForm, s_c: PointSet, s_r: PointSet,
                     d: int) -> tuple[list[CheckResult], int]:
    checks: list[CheckResult] = []
    valid = len(s_c) > 0 and len(s_r) > 0 and form.degree == d \
        and not form.is_zero
    checks.append(CheckResult(
        "input-valid", valid,
        "" if valid else "empty point set or degree mismatch"))
    if not valid:
        return checks, 0
    budget = len(s_c) + len(s_r) <= 3 * d - 1
    checks.append(CheckResult(
        "budget", budget, "",
        (("sizes", f"{len(s_c)}+{len(s_r)}"), ("limit", str(3 * d - 1)))))
    checks.append(CheckResult(
        "rank-inequality", len(s_c) < len(s_r), "",
        (("complex", str(len(s_c))), ("real", str(len(s_r))))))
    checks += _membership_checks(form, s_c, s_r, d, "")
    rep = h1_ideal(s_c.union(s_r), d)
    checks.append(CheckResult(
        "h1-positive", rep.h1 > 0, "",
        (("h1", str(rep.h1)),)))
    return checks, rep.h1


# -- detection layer --------------------------------------------------------------

@dataclass(frozen=True)
class DetectedStructure:
    lines: tuple[tuple[CurveSpec, int], ...]
    conics: tuple[tuple[CurveSpec, int], ...]
    pairs: tuple[tuple[CurveSpec, int, int], ...]

    @property
    def empty(self) -> bool:
        return not (self.lines or self.conics or self.pairs)


def detect_structure(union: PointSet, d: int,
                     line_threshold: Optional[int] = None,
                     conic_threshold: Optional[int] = None
                     ) -> DetectedStructure:
    lt = d + 2 if line_threshold is None else line_threshold
    ct = 2 * d + 2 if conic_threshold is None else conic_threshold
    lines = find_rich_lines(union, lt)
    conics = find_rich_conics(union, ct)
    pairs = sorted(_disjoint_pairs(lines),
                   key=lambda row: (-(row[1] + row[2]), row[0].sort_key()))
    return DetectedStructure(tuple(lines), tuple(conics), tuple(pairs))


def _disjoint_pairs(lines: list[tuple[CurveSpec, int]]):
    """Each disjoint pair of the counted lines, with the count on each leg."""
    for (l1, n1), (l2, n2) in itertools.combinations(lines, 2):
        try:
            pair = CurveSpec.two_lines(l1, l2)
        except ValueError:
            continue
        # two_lines orders its legs by key
        yield (pair, n1, n2) if pair.branches[0] is l1 else (pair, n2, n1)


# -- steps every case shares -------------------------------------------------------

def _split(s_c: PointSet, s_r: PointSet, curve: CurveSpec, check_id: str
           ) -> tuple[tuple[PointSet, ...], CheckResult]:
    """(on_c, off_c, on_r, off_r), and the off-curve agreement check."""
    on_c, off_c = split_on_curve(s_c, curve)
    on_r, off_r = split_on_curve(s_r, curve)
    agree = CheckResult(
        check_id, off_c == off_r, "",
        (("off_complex", str(len(off_c))), ("off_real", str(len(off_r)))))
    return (on_c, off_c, on_r, off_r), agree


def _roll_up(check_id: str, sub: list[CheckResult]) -> list[CheckResult]:
    """A summary check that passes when every sub-check does, then those."""
    return [CheckResult(check_id, all(c.passed for c in sub),
                        "; ".join(c.note for c in sub if c.note))] + sub


def _meet_both_ways(read, parts: tuple[PointSet, ...], real_data: bool,
                    label: str, note: Optional[str] = None
                    ) -> tuple[Optional[HomogeneousForm], CheckResult]:
    """The meet point read from the complex and from the real span data.

    read(off, on) returns the point or NotUnique.  Both reads must exist,
    agree, and be real on real-hypothesis input; note replaces the default
    note of a passing check.
    """
    on_c, off_c, on_r, off_r = parts
    try:
        p1 = read(off_c, on_c)
        p2 = read(off_r, on_r)
    except (ValueError, ArithmeticError) as err:
        return None, CheckResult(label, False, str(err))
    if isinstance(p1, NotUnique) or isinstance(p2, NotUnique):
        reason = p1.reason if isinstance(p1, NotUnique) else p2.reason
        return None, CheckResult(label, False, reason)
    if p1 != p2:
        return None, CheckResult(label, False,
                                 "complex and real span reads disagree")
    if real_data and not p1.is_real:
        return None, CheckResult(label, False, "meet point is not real")
    if note is None:
        note = "meet point agrees across both span reads" + (
            " and is real" if real_data else "")
    return p1, CheckResult(label, True, note)


def _rank_checks(param: CurveParametrization, part: HomogeneousForm,
                 on_c: PointSet, on_r: PointSet,
                 prefix: str) -> list[CheckResult]:
    """Evincing as cardinality: part restricted along param has certified
    binary ranks equal to the on-curve set sizes."""
    try:
        restricted = restrict_to_curve(part, param)
    except (ValueError, ArithmeticError) as err:
        return [CheckResult(prefix + "restriction", False, str(err))]
    out: list[CheckResult] = []
    for side, engine, on in (("complex", complex_rank, on_c),
                             ("real", real_rank, on_r)):
        try:
            r, dec = engine(restricted)
        except (ValueError, ArithmeticError) as err:
            out.append(CheckResult(prefix + side + "-evincing", False,
                                   str(err)))
            continue
        ok = r == len(on) and dec.minimality_certified
        note = "" if ok else f"{side} rank {r} vs {len(on)} points"
        if not dec.minimality_certified:
            note = f"{side} rank not certified"
        out.append(CheckResult(prefix + side + "-evincing", ok, note,
                               (("rank", str(r)), ("points", str(len(on))))))
    return out


def _membership_checks(point_form: HomogeneousForm, on_c: PointSet,
                       on_r: PointSet, d: int,
                       prefix: str) -> list[CheckResult]:
    out = []
    for side, tag, on in (("complex", "C", on_c), ("real", "R", on_r)):
        try:
            ok = membership(point_form, on, d, tag)
            out.append(CheckResult(prefix + "membership-" + side, ok))
        except ValueError as err:
            out.append(CheckResult(prefix + "membership-" + side, False,
                                   str(err)))
    return out


def _single_curve(form: HomogeneousForm, s_c: PointSet, s_r: PointSet,
                  curve: CurveSpec, d: int, label: str, meet_name: str,
                  bound: tuple[str, int], evince
                  ) -> tuple[list[CheckResult], list, PointSet]:
    """Steps i to iii of a single-curve case, and the on-curve union.

    i: the sets agree off the curve.  ii: the meet point, named meet_name,
    is evinced on the curve; evince(point, on_c, on_r, meets) gives those
    checks and may add meet points.  iii: the on-curve union reaches
    bound = (key, value) and the complex side stays smaller.
    """
    parts, agree = _split(s_c, s_r, curve, label + ".i")
    on_c, _, on_r, _ = parts
    checks = [agree]
    meets: list[tuple[str, HomogeneousForm]] = []
    point, meet = _meet_both_ways(
        lambda off, on: unique_intersection_point(form, off, on, d),
        parts, _is_real_data(form, s_c, s_r), label + ".ii.meet")
    sub = [meet]
    if point is not None:
        meets.append((meet_name, point))
        sub += evince(point, on_c, on_r, meets)
        sub += _membership_checks(point, on_c, on_r, d, label + ".ii.")
    checks += _roll_up(label + ".ii", sub)
    union = on_c.union(on_r)
    key, need = bound
    checks.append(CheckResult(
        label + ".iii", len(union) >= need and len(on_c) < len(on_r), "",
        (("on_curve_union", str(len(union))), (key, str(need)),
         ("on_complex", str(len(on_c))), ("on_real", str(len(on_r))))))
    return checks, meets, union


# -- case (a) ----------------------------------------------------------------------

def verify_case_a(form: HomogeneousForm, s_c: PointSet, s_r: PointSet,
                  line: CurveSpec, d: int) -> CaseAttempt:
    checks, meets, _ = _single_curve(
        form, s_c, s_r, line, d, "a", "P_l", ("d_plus_2", d + 2),
        lambda point, on_c, on_r, _meets: _rank_checks(
            parametrize_line(line), point, on_c, on_r, "a.ii."))
    return CaseAttempt("a", line, tuple(checks), tuple(meets))


# -- case (b) ----------------------------------------------------------------------

def _branch_split(point_form: HomogeneousForm, on_set: PointSet,
                  left: CurveSpec, right: CurveSpec, node: ProjectivePoint,
                  d: int) -> Optional[tuple[HomogeneousForm,
                                            HomogeneousForm]]:
    """Write the on-conic part as (left-branch sum) + (right-branch sum).

    Solves for the coefficients over the given support; None when the
    support does not determine the split uniquely or the node carries
    a point.
    """
    pts = list(on_set)
    if node in pts:
        return None
    cols = [power_row(p, d) for p in pts]
    # the split exists and is unique exactly when solve_columns finds x:
    # it gives None for dependent powers and for P outside their span
    sol = linalg.solve_columns(cols, point_form.coeff_vector())
    if sol is None:
        return None
    lams: tuple[list, list] = ([], [])
    vecs: tuple[list, list] = ([], [])
    for p, lam, col in zip(pts, sol, cols):
        if left.contains(p):
            side = 0
        elif right.contains(p):
            side = 1
        else:
            return None
        lams[side].append(lam)
        vecs[side].append(col)
    n = point_form.num_vars
    return (HomogeneousForm.combination(n, d, lams[0], vecs[0]),
            HomogeneousForm.combination(n, d, lams[1], vecs[1]))


def verify_case_b(form: HomogeneousForm, s_c: PointSet, s_r: PointSet,
                  conic: CurveSpec, d: int) -> CaseAttempt:
    smooth = conic.kind == SMOOTH_CONIC
    branches = None if smooth else conic.branch_lines()
    node = None if smooth else conic.node

    def evince(point, on_c, on_r, meets):
        if smooth:
            return _smooth_conic_evincing(point, conic, on_c, on_r)
        return _reducible_conic_evincing(point, branches, node, on_c, on_r,
                                         d, meets)

    checks, meets, union = _single_curve(
        form, s_c, s_r, conic, d, "b", "P_C", ("two_d_plus_2", 2 * d + 2),
        evince)
    if smooth:
        checks.append(CheckResult("b.iv", True, "smooth conic; no branch "
                                  "condition applies"))
    elif branches is None or node is None:
        checks.append(CheckResult("b.iv", False,
                                  "branches are not rational"))
    else:
        # the node lies on both branches and counts on neither
        counts = [(tag, len(split_on_curve(union, branch)[0])
                   - (node in union))
                  for tag, branch in zip(("left", "right"), branches)]
        checks.append(CheckResult(
            "b.iv", all(cnt >= d + 1 for _, cnt in counts), "",
            tuple((tag, str(cnt)) for tag, cnt in counts)
            + (("d_plus_1", str(d + 1)),)))
    return CaseAttempt("b", conic, tuple(checks), tuple(meets))


def _smooth_conic_evincing(point: HomogeneousForm, conic: CurveSpec,
                           on_c: PointSet,
                           on_r: PointSet) -> list[CheckResult]:
    base = next((p for p in on_r if p.is_real), None)
    if base is None:
        return [CheckResult(
            "b.ii.parametrization", False,
            "no real on-conic point anchors a real parametrization")]
    try:
        param = parametrize_conic(conic, base)
    except (ValueError, ArithmeticError) as err:
        return [CheckResult("b.ii.parametrization", False, str(err))]
    return [CheckResult("b.ii.parametrization", True)] + _rank_checks(
        param, point, on_c, on_r, "b.ii.")


def _reducible_conic_evincing(point: HomogeneousForm,
                              branches: Optional[tuple[CurveSpec,
                                                       CurveSpec]],
                              node: Optional[ProjectivePoint],
                              on_c: PointSet, on_r: PointSet, d: int,
                              meets: list) -> list[CheckResult]:
    if branches is None or node is None:
        return [CheckResult("b.ii.split", False,
                            "branches are not rational")]
    left, right = branches
    split_c = _branch_split(point, on_c, left, right, node, d)
    split_r = _branch_split(point, on_r, left, right, node, d)
    if split_c is None or split_r is None:
        return [CheckResult("b.ii.split", False,
                            "branch split is not unique over the given "
                            "support")]
    if split_c != split_r:
        return [CheckResult("b.ii.split", False,
                            "complex and real branch splits disagree")]
    out = [CheckResult("b.ii.split", True)]
    part_l, part_r = split_c
    meets.append(("P_C_left", part_l))
    meets.append(("P_C_right", part_r))
    for tag, part, branch in (("left.", part_l, left),
                              ("right.", part_r, right)):
        out += _rank_checks(parametrize_line(branch), part,
                            split_on_curve(on_c, branch)[0],
                            split_on_curve(on_r, branch)[0], "b.ii." + tag)
    return out


# -- case (c) ----------------------------------------------------------------------

def verify_case_c(form: HomogeneousForm, s_c: PointSet, s_r: PointSet,
                  pair: CurveSpec, d: int) -> CaseAttempt:
    left, right = pair.branches
    parts, agree = _split(s_c, s_r, pair, "c.i")
    checks = [agree]
    lc, lr, rc_set, rr_set = (split_on_curve(s, line)[0]
                              for line in (left, right) for s in (s_c, s_r))
    u_left, u_right = lc.union(lr), rc_set.union(rr_set)
    checks.append(CheckResult(
        "c.ii", len(u_left) >= d + 2 and len(u_right) >= d + 2, "",
        (("left_union", str(len(u_left))),
         ("right_union", str(len(u_right))),
         ("d_plus_2", str(d + 2)))))
    real_data = _is_real_data(form, s_c, s_r)
    try:
        basis = pair_power_basis(pair, d)
    except (ValueError, ArithmeticError) as err:
        checks.append(CheckResult("c.iii", False, str(err)))
        return CaseAttempt("c", pair, tuple(checks), ())
    point, meet = _meet_both_ways(
        lambda off, _on: curve_meet_point(form, off, basis, d),
        parts, real_data, "c.iii", note="")
    checks.append(meet)
    if point is None:
        return CaseAttempt("c", pair, tuple(checks), ())
    meets = [("O_Gamma", point)]
    sub: list[CheckResult] = []
    sol = linalg.solve_columns(basis, point.coeff_vector())
    if sol is None:
        sub.append(CheckResult("c.iv.split", False,
                               "meet point left the joint span"))
    else:
        n = form.num_vars
        o_l = HomogeneousForm.combination(n, d, sol[:d + 1], basis[:d + 1])
        o_r = HomogeneousForm.combination(n, d, sol[d + 1:], basis[d + 1:])
        if real_data and (not o_l.is_real or not o_r.is_real):
            sub.append(CheckResult("c.iv.split", False,
                                   "line components are not real"))
        elif o_l.is_zero or o_r.is_zero:
            sub.append(CheckResult("c.iv.split", False,
                                   "a line component vanished"))
        else:
            sub.append(CheckResult("c.iv.split", True))
            meets += [("O_l", o_l), ("O_r", o_r)]
            for tag, part, line, bc, br in (
                    ("left.", o_l, left, lc, lr),
                    ("right.", o_r, right, rc_set, rr_set)):
                sub += _rank_checks(parametrize_line(line), part, bc, br,
                                    "c.iv." + tag)
                sub += _membership_checks(part, bc, br, d, "c.iv." + tag)
    checks += _roll_up("c.iv", sub)
    return CaseAttempt("c", pair, tuple(checks), tuple(meets))


# -- classification ----------------------------------------------------------------

def classify_triple(form: HomogeneousForm, s_c: PointSet, s_r: PointSet,
                    d: int, m: int, case_label: Optional[str] = None,
                    mode: str = "raw",
                    line_threshold: Optional[int] = None,
                    conic_threshold: Optional[int] = None) -> CaseReport:
    notes: list[str] = []
    if mode == "raw":
        notes.append("rank hypotheses assumed: the given sets are taken "
                     "as evincing without global certification")
    hyp, h1_total = check_hypotheses(form, s_c, s_r, d)
    if not all(c.passed for c in hyp):
        return CaseReport(mode, m, d, case_label, tuple(hyp), h1_total,
                          (), (), (), (), tuple(notes))
    union = s_c.union(s_r)
    det = detect_structure(union, d, line_threshold, conic_threshold)
    attempts: list[CaseAttempt] = []
    for line, _count in det.lines:
        attempts.append(verify_case_a(form, s_c, s_r, line, d))
    for conic, _count in det.conics:
        attempts.append(verify_case_b(form, s_c, s_r, conic, d))
    for pair, _a, _b in det.pairs:
        attempts.append(verify_case_c(form, s_c, s_r, pair, d))
    if det.empty:
        notes.append("no rich line, conic, or disjoint line pair found; "
                     "input sits outside the structure dichotomy")
        near = find_rich_lines(union, d + 1)
        if any(n1 == n2 == d + 1 for _pair, n1, n2 in _disjoint_pairs(near)):
            notes.append("two disjoint lines hold exactly d+1 points "
                         "each; such points impose independent "
                         "conditions and carry no span failure")
    return CaseReport(mode, m, d, case_label, tuple(hyp), h1_total,
                      det.lines, det.conics, det.pairs, tuple(attempts),
                      tuple(notes))


def classify(inst: Instance, line_threshold: Optional[int] = None,
             conic_threshold: Optional[int] = None) -> CaseReport:
    return classify_triple(inst.form, inst.s_c, inst.s_r, inst.d, inst.m,
                           case_label=inst.case_label, mode="instance",
                           line_threshold=line_threshold,
                           conic_threshold=conic_threshold)
