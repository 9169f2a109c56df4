"""Golden corpus: the exact bytes the command line writes.

tests/golden/ holds the output of `generate` and `verify` for every cell
of `suite --seed 0`, of `rank` on eight forms and of `h1` on three point
sets (two of the forms and one set have non-real entries);
test_cli.py::test_suite_runs_full_grid compares the suite bytes.
Criterion 8 only compares a run with itself, so these files are what holds
a refactor to the same output.  The module needs only the standard
library, so any interpreter can compare the corpus:

    PYTHONPATH=src python tests/test_golden.py --check

Without --check it regenerates the corpus.  Do that only for a change that
is meant to alter output, and read the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from waringlab import univariate
from waringlab.cli import _suite_grid, main

GOLDEN = Path(__file__).parent / "golden"
SUITE = GOLDEN / "suite-seed0.json"

# rank inputs carry scaled coefficients: f = sum C(d,k) c_k x^(d-k) y^k
RANK_INPUTS = {
    # 2x^3 - 6xy^2, plain coefficients [2, 0, -6, 0]
    "gap-cubic": {"d": 3, "c": ["2", "0", "-2", "0"]},
    # x^2 y^2 and x y^5: both complex ranks end in implicit mode
    "x2y2": {"d": 4, "c": ["0", "0", "1/6", "0", "0"]},
    "xy5": {"d": 6, "c": ["0", "0", "0", "0", "0", "1/6", "0"]},
    # -3x^5 + 3x^3y^2 + 2y^5: real rank 4 in implicit mode, four real boxes
    "quintic-boxes": {"d": 5, "c": ["-3", "0", "3/10", "0", "0", "2"]},
    # -x^6 - 3x^5y + 3x^3y^3 + x^2y^4 + 2xy^5 - 3y^6: real rank 5 in
    # implicit mode with a root at infinity, minimality not certified
    "sextic-infinity": {"d": 6, "c": ["-1", "-1/2", "0", "3/20", "1/15",
                                      "1/3", "-3"]},
    # (x+iy)^8 + (x-iy)^8: complex rank 2, real rank 8, so steps 3..7
    # decide nothing
    "octic-pair": {"d": 8, "c": ["2", "0", "-2", "0", "2", "0", "-2", "0",
                                 "2"]},
    # 2(x - y)^3 + (x + iy)^3: complex rank 2 in exact mode, not real
    "gaussian-cubic": {"d": 3, "c": [{"re": "3", "im": "0"},
                                     {"re": "-2", "im": "1"},
                                     {"re": "1", "im": "0"},
                                     {"re": "-2", "im": "-1"}]},
    # a quartic with Gaussian coefficients: complex rank 3 in implicit mode
    "gaussian-quartic": {"d": 4, "c": [{"re": "1", "im": "1"},
                                       {"re": "0", "im": "1/4"},
                                       {"re": "-1/3", "im": "0"},
                                       {"re": "1/2", "im": "-1/4"},
                                       {"re": "2", "im": "0"}]},
}
# coordinates are ints or (re, im) pairs of ints
H1_INPUTS = {
    "collinear5": (3, [[0, 1, t] for t in range(5)]),
    "generic6": (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1],
                     [1, 2, 3], [1, -1, 2]]),
    # [1 : t+i : t] for t = 0..4 on a line, and [0 : 1 : -i]: h1 = 1
    "gaussian6": (3, [[1, (t, 1), t] for t in range(5)] + [[0, 1, (0, -1)]]),
}


def _coord_json(c):
    if isinstance(c, tuple):
        return {"re": str(c[0]), "im": str(c[1])}
    return str(c)


def _input_files() -> dict[str, dict]:
    files = {f"rank-{name}.json": obj for name, obj in RANK_INPUTS.items()}
    for name, (_d, pts) in H1_INPUTS.items():
        files[f"h1-{name}.json"] = {
            "m": 2, "points": [[_coord_json(c) for c in p] for p in pts]}
    return files


def _jobs() -> list[tuple[str, list[str]]]:
    """(golden file, argv without --out) for every command in the corpus."""
    inputs = GOLDEN / "inputs"
    jobs = []
    for case, d, m in _suite_grid():
        name = f"{case}-d{d}-m{m}.json"
        jobs.append((f"generate/{name}",
                     ["generate", "--case", case, "--d", str(d),
                      "--m", str(m), "--seed", "0"]))
        jobs.append((f"verify/{name}",
                     ["verify", str(GOLDEN / "generate" / name)]))
    for name in RANK_INPUTS:
        jobs.append((f"rank/{name}.json",
                     ["rank", str(inputs / f"rank-{name}.json")]))
    for name, (d, _pts) in H1_INPUTS.items():
        jobs.append((f"h1/{name}-d{d}.json",
                     ["h1", str(inputs / f"h1-{name}.json"), "--d", str(d)]))
    return jobs


JOBS = _jobs()


def pytest_generate_tests(metafunc):
    # parametrized here, so the module imports without pytest
    if metafunc.function is test_output_matches_golden_bytes:
        metafunc.parametrize("golden, argv", JOBS, ids=[j[0] for j in JOBS])


def test_output_matches_golden_bytes(golden, argv, tmp_path):
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_exact_rank_outputs_run_no_float_root_finder(monkeypatch, tmp_path):
    """With the float sweep made to raise, every rank input whose
    decompositions are all exact still writes its golden bytes."""
    def no_floats(w):
        raise AssertionError("the float root finder ran")

    monkeypatch.setattr(univariate, "_float_roots", no_floats)
    checked = []
    for golden, argv in JOBS:
        if not golden.startswith("rank/"):
            continue
        want = (GOLDEN / golden).read_bytes()
        parts = [p for p in json.loads(want).values()
                 if isinstance(p, dict) and "decomposition" in p]
        if all(p["decomposition"]["mode"] == "exact" for p in parts):
            out = tmp_path / "out.json"
            assert main(argv + ["--out", str(out)]) == 0
            assert out.read_bytes() == want
            checked.append(golden)
    assert checked == ["rank/gap-cubic.json", "rank/octic-pair.json",
                       "rank/gaussian-cubic.json"]


def test_inputs_match_their_definitions():
    for name, obj in _input_files().items():
        text = (GOLDEN / "inputs" / name).read_text(encoding="utf-8")
        assert json.loads(text) == obj


def regenerate() -> None:
    for sub in ("inputs", "generate", "verify", "rank", "h1"):
        (GOLDEN / sub).mkdir(parents=True, exist_ok=True)
    for name, obj in _input_files().items():
        (GOLDEN / "inputs" / name).write_text(json.dumps(obj) + "\n",
                                              encoding="utf-8")
    for golden, argv in JOBS:
        if main(argv + ["--out", str(GOLDEN / golden)]) != 0:
            raise SystemExit(f"{golden}: command did not exit 0")
    if main(["suite", "--seed", "0", "--out", str(SUITE)]) != 0:
        raise SystemExit("suite: command did not exit 0")


def check() -> int:
    """Compare every golden command's stdout with its file; write nothing.
    Returns the number of mismatches."""
    bad = 0
    for golden, argv in JOBS + [("suite-seed0.json",
                                 ["suite", "--seed", "0"])]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        same = out.getvalue().encode("utf-8") == (GOLDEN / golden).read_bytes()
        if code != 0 or not same:
            bad += 1
            print(f"MISMATCH {golden} (exit {code})", file=sys.stderr)
    for name, obj in _input_files().items():
        text = (GOLDEN / "inputs" / name).read_text(encoding="utf-8")
        if json.loads(text) != obj:
            bad += 1
            print(f"MISMATCH inputs/{name}", file=sys.stderr)
    print(f"{len(JOBS) + 1 + len(_input_files()) - bad} of "
          f"{len(JOBS) + 1 + len(_input_files())} golden files match")
    return bad


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(1 if check() else 0)
    regenerate()
