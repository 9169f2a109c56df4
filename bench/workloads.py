"""Seeded inputs and output checks for the three benchmark workloads.

Each workload is a list of requests made of whole periods of a fixed mix;
PERIOD gives the length of one period.  A request names the `waringlab`
command line it runs, the input files it needs and what its output must
show.  Inputs are drawn from `random.Random` seeded by the workload seed
alone, so the same seed gives the same files; the program sees only the
files and the command line.

Every checker takes the exit code, the output text and the request, and
returns None when the output passes or a one-line reason when it does not.
The checks use only `exact.py`, never the program's own arithmetic.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from exact import (GQ, binary_power_sum, fraction_rank, gmul, gpow, gq,
                   parse_scalar, scalar_json, scaled_from_plain,
                   veronese_rank_mod_p)


@dataclass(frozen=True)
class Request:
    """One command of a workload and what its output must show."""

    kind: str
    argv: tuple[str, ...]
    items: int
    files: tuple[tuple[str, str], ...] = ()
    expect: dict = field(default_factory=dict)


# -- suite --------------------------------------------------------------------

SUITE_GRID = ([(case, d, m) for d in (3, 4, 5, 6) for m in (2, 3, 4)
               for case in ("a", "b")]
              + [("c", d, m) for d in (5, 6) for m in (3, 4)])


def suite_requests(seed: int) -> list[Request]:
    # One suite command is already the whole 28-cell batch, and a run
    # holds only one or two of them; repeating the seed makes the second
    # command the byte-reproducibility check.
    return [Request("suite", ("suite", "--seed", str(seed)), len(SUITE_GRID),
                    expect={"seed": seed})]


def check_suite(code: int, out: str, req: Request) -> str | None:
    if code != 0:
        return f"suite exited {code}"
    obj = json.loads(out)
    rows = obj["rows"]
    if obj["seed"] != req.expect["seed"]:
        return "suite echoed the wrong seed"
    if obj["total"] != len(SUITE_GRID) or len(rows) != len(SUITE_GRID):
        return "suite did not report every grid cell"
    if obj["passed"] != obj["total"]:
        return f"suite passed {obj['passed']} of {obj['total']}"
    for row, cell in zip(rows, SUITE_GRID):
        if (row["case"], row["d"], row["m"]) != cell:
            return f"suite row {cell} out of order"
        if not (row["overall_pass"] is True and row["label_match"] is True):
            return f"suite cell {cell} failed"
    return None


# -- rank ---------------------------------------------------------------------

def _interleave(*families: list) -> list:
    """Merge lists evenly, so that any stretch of requests holds each."""
    keyed = [((i + 0.5) / len(fam), k, item)
             for k, fam in enumerate(families) for i, item in enumerate(fam)]
    return [item for _, _, item in sorted(keyed)]


# One period of the rank mix, as (family, degree, y-exponent).  Gap forms
# cover every degree 3..8 three times and are the exact-mode path.
# Monomials x^a y^b take every split with a, b >= 1 up to degree 5; from
# degree 6 on, interior monomials cost seconds each.  Random forms run the
# real grid search and implicit mode and take most of the time; they stop
# at degree 6 because a degree-8 form costs anywhere from 1 to 4 s, which
# would let a handful of them decide a run's throughput.  Every period has
# the same composition, so runs that fit different numbers of periods
# measure the same mix.
RANK_MIX = _interleave(
    [("gap", d, 0) for d in range(3, 9)] * 3,
    [("monomial", d, b) for d in (3, 4, 5) for b in range(1, d)],
    [("random", d, 0) for d in range(3, 7)] * 2)


def _unimodular(rng: random.Random) -> tuple[int, int, int, int]:
    while True:
        a, b, c, e = (rng.randint(-2, 2) for _ in range(4))
        if a * e - b * c in (1, -1):
            return a, b, c, e


def gap_form(d: int, transplant: tuple[int, int, int, int]) -> list[GQ]:
    """Scaled coefficients of L^d + conj(L)^d, L = (a+ic)x + (b+ie)y.

    This is (x+iy)^d + (x-iy)^d after x -> ax+by, y -> cx+ey; a real
    unimodular substitution keeps its ranks (2, d).
    """
    a, b, c, e = transplant
    alpha, beta = gq(a, c), gq(b, e)
    out = []
    for k in range(d + 1):
        z = gmul(gpow(alpha, d - k), gpow(beta, k))
        out.append(gq(2 * z[0]))
    return out


def _form_json(scaled: list[GQ]) -> str:
    return json.dumps({"d": len(scaled) - 1,
                       "c": [scalar_json(c) for c in scaled]})


def rank_requests(seed: int, count: int) -> list[Request]:
    rng = random.Random(f"rank:{seed}")
    out = []
    for i in range(count):
        family, d, b = RANK_MIX[i % len(RANK_MIX)]
        expect: dict = {"family": family}
        if family == "gap":
            t = _unimodular(rng)
            scaled = gap_form(d, t)
            expect.update(complex=2, real=d, exact=True)
        elif family == "monomial":
            plain = [0] * (d + 1)
            plain[b] = 1
            scaled = [gq(c) for c in scaled_from_plain(plain)]
            # complex rank of x^a y^b is max(a, b) + 1 and its real rank
            # is a + b when both exponents are positive
            expect.update(complex=max(d - b, b) + 1, real=d)
        else:
            plain = [0]
            while not any(plain):
                plain = [rng.randint(-3, 3) for _ in range(d + 1)]
            scaled = [gq(c) for c in scaled_from_plain(plain)]
        expect["target"] = scaled
        name = f"rank-{i:04d}.json"
        out.append(Request(family, ("rank", name), 1,
                           files=((name, _form_json(scaled)),),
                           expect=expect))
    return out


def sylvester_ranks(scaled: list[GQ]) -> set[int]:
    """The two values Sylvester's theorem allows for the complex rank.

    With r the rank of the middle catalecticant, the rank is r when its
    kernel at step r holds a squarefree form, and d - r + 2 otherwise.
    """
    d = len(scaled) - 1
    s = d // 2
    rows = [[scaled[i + j][0] for j in range(d - s + 1)]
            for i in range(s + 1)]
    r = fraction_rank(rows)
    return {r, d - r + 2}


def _check_decomposition(dec: dict, rank: int, field_tag: str,
                         target: list[GQ]) -> str | None:
    d = len(target) - 1
    if dec["rank"] != rank or dec["field"] != field_tag:
        return f"{field_tag} decomposition disagrees with its rank"
    if dec["mode"] == "exact":
        points = [(parse_scalar(a), parse_scalar(b))
                  for a, b in dec["points"]]
        coeffs = [parse_scalar(c) for c in dec["coeffs"]]
        if len(points) != rank or len(coeffs) != rank:
            return f"{field_tag} decomposition has the wrong length"
        if field_tag == "R" and any(z[1] for pt in points for z in pt):
            return "real decomposition uses a non-real point"
        if field_tag == "R" and any(c[1] for c in coeffs):
            return "real decomposition uses a non-real coefficient"
        if binary_power_sum(points, coeffs, d) != target:
            return f"{field_tag} decomposition does not re-expand to the form"
        return None
    if dec["mode"] != "implicit":
        return f"unknown decomposition mode {dec['mode']!r}"
    width = len(dec["boxes"]) + (1 if dec["infinity_root"] else 0)
    if width != rank or len(dec["coeffs"]) != rank:
        return f"implicit {field_tag} decomposition has the wrong length"
    if dec["generator"]["d"] != rank:
        return f"implicit {field_tag} generator has the wrong degree"
    return None


def check_rank(code: int, out: str, req: Request) -> str | None:
    if code != 0:
        return f"rank exited {code}"
    obj = json.loads(out)
    target = req.expect["target"]
    if [parse_scalar(c) for c in obj["input"]["c"]] != target:
        return "rank echoed a different input"
    rc = obj["complex"]["rank"]
    rr = obj["real"]["rank"]
    expect = req.expect
    if "complex" in expect and rc != expect["complex"]:
        return f"complex rank {rc}, expected {expect['complex']}"
    if "real" in expect and rr != expect["real"]:
        return f"real rank {rr}, expected {expect['real']}"
    if rc not in sylvester_ranks(target):
        return f"complex rank {rc} contradicts Sylvester's theorem"
    if rr < rc:
        return f"real rank {rr} below complex rank {rc}"
    for key, tag, rank in (("complex", "C", rc), ("real", "R", rr)):
        dec = obj[key]["decomposition"]
        if expect.get("exact") and dec["mode"] != "exact":
            return f"{key} decomposition not exact"
        reason = _check_decomposition(dec, rank, tag, target)
        if reason:
            return reason
    return None


# -- h1 -----------------------------------------------------------------------

# One period of the h1 mix: sets in P^2..P^4 at every degree 3..8, each
# shape once on its curve and once generic.  Line sets have d+1+k points
# and conic sets 2d+1+k, so they fail to impose independent conditions by
# exactly k; generic sets of the same size (capped at the number of
# monomials) impose them, which the benchmark certifies by a full rank mod
# p before the program sees them.  Shapes, sizes and k follow from the
# entry alone, so every period and every seed has the same matrix shapes
# and only the coordinates vary; the period is in a fixed shuffled order,
# so that any stretch of requests mixes cheap and costly sets.
H1_MIX = [(shape, generic, m, d) for d in range(3, 9) for m in (2, 3, 4)
          for shape in ("line", "conic") for generic in (False, True)]
random.Random(0).shuffle(H1_MIX)


GInt = tuple[int, int]


def _small_gaussian(rng: random.Random, complex_coords: bool) -> GInt:
    return (rng.randint(-3, 3), rng.randint(-2, 2) if complex_coords else 0)


def _independent_vectors(rng: random.Random, count: int, m: int,
                         complex_coords: bool) -> list[list[GInt]]:
    while True:
        vecs = [[_small_gaussian(rng, complex_coords) for _ in range(m + 1)]
                for _ in range(count)]
        if veronese_rank_mod_p(vecs, 1) == count:
            return vecs


def _curve_points(rng: random.Random, basis: list[list[GInt]], degree: int,
                  n: int) -> list[list[GInt]]:
    """n distinct points sum_j s^(deg-j) t^j u_j on a line or a conic.

    Distinct [s:t] give distinct points because the u_j are independent.
    """
    params: list[tuple[int, int]] = [(0, 1)]
    while len(params) < n:
        t = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if (t.numerator, t.denominator) not in params:
            params.append((t.numerator, t.denominator))
    pts = []
    for s, t in params:
        weights = [s ** (degree - j) * t ** j for j in range(degree + 1)]
        pts.append([(sum(w * u[i][0] for w, u in zip(weights, basis)),
                     sum(w * u[i][1] for w, u in zip(weights, basis)))
                    for i in range(len(basis[0]))])
    return pts


def _generic_points(rng: random.Random, m: int, d: int, n: int,
                    complex_coords: bool) -> list[list[GInt]]:
    width = comb(m + d, d)
    while True:
        pts = [[_small_gaussian(rng, complex_coords) for _ in range(m + 1)]
               for _ in range(n)]
        # a full-rank column subset already certifies the whole matrix
        columns = sorted(rng.sample(range(width), min(width, n + 8)))
        if (veronese_rank_mod_p(pts, d, columns) == n
                or veronese_rank_mod_p(pts, d) == n):
            return pts


def _point_set_json(m: int, pts: list[list[GInt]]) -> str:
    return json.dumps({"m": m, "points": [[scalar_json(gq(*c)) for c in p]
                                          for p in pts]})


def h1_requests(seed: int, count: int) -> list[Request]:
    rng = random.Random(f"h1:{seed}")
    out = []
    for i in range(count):
        shape, generic, m, d = H1_MIX[i % len(H1_MIX)]
        k = 1 + (m + d + (shape == "conic")) % 6
        complex_coords = (m + d) % 4 == 0
        if generic:
            size = (d + 1 + k) if shape == "line" else (2 * d + 1 + k)
            pts = _generic_points(rng, m, d, min(size, comb(m + d, d)),
                                  complex_coords)
            kind, h1 = "generic", 0
        else:
            degree = 1 if shape == "line" else 2
            basis = _independent_vectors(rng, degree + 1, m, complex_coords)
            pts = _curve_points(rng, basis, degree, degree * d + 1 + k)
            kind, h1 = shape, k
        name = f"h1-{i:04d}.json"
        out.append(Request(kind, ("h1", name, "--d", str(d)), 1,
                           files=((name, _point_set_json(m, pts)),),
                           expect={"h1": h1, "size": len(pts), "d": d}))
    return out


def check_h1(code: int, out: str, req: Request) -> str | None:
    if code != 0:
        return f"h1 exited {code}"
    obj = json.loads(out)
    expect = req.expect
    if obj["d"] != expect["d"] or obj["set_size"] != expect["size"]:
        return "h1 reported the wrong degree or set size"
    if obj["h1"] != obj["set_size"] - 1 - obj["span_dim"]:
        return "h1 is not set_size - 1 - span_dim"
    if obj["h1"] != expect["h1"]:
        return f"h1 {obj['h1']}, expected {expect['h1']}"
    if obj["independent"] is not (expect["h1"] == 0):
        return "h1 independence flag is wrong"
    return None


WORKLOADS = ("suite", "rank", "h1")
PERIOD = {"suite": 1, "rank": len(RANK_MIX), "h1": len(H1_MIX)}
CHECKERS = {"suite": check_suite, "rank": check_rank, "h1": check_h1}


def requests(workload: str, seed: int) -> list[Request]:
    """The request list of a workload: whole periods of its mix.

    A run issues the list in order and starts over when it reaches the
    end; the repeated commands must give the same output bytes.
    """
    if workload == "suite":
        return suite_requests(seed)
    if workload == "rank":
        return rank_requests(seed, 7 * PERIOD["rank"])
    return h1_requests(seed, 2 * PERIOD["h1"])
