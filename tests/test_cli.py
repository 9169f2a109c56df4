"""Command line surface: exit codes, JSON envelopes, reproducible bytes."""

from __future__ import annotations

import argparse
import concurrent.futures.process
import contextlib
import io
import json
import multiprocessing
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waringlab import cli
from waringlab.binary import BinaryDecomposition, BinaryForm, reconstruct
from waringlab.cli import main
from waringlab.factory import conjugate_pair_form, make_case_a
from waringlab.points import CurveSpec, PointSet, ProjectivePoint
from waringlab.scalars import ONE, ZERO, Scalar


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def P(*vals) -> ProjectivePoint:
    return ProjectivePoint.of(*vals)


def test_generate_writes_reproducible_instance(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        rc, out, err = run(capsys, "generate", "--case", "a", "--d", "4",
                           "--m", "2", "--seed", "11", "--out", str(path))
        assert rc == 0
        assert out == "" and err == ""
    assert a.read_bytes() == b.read_bytes()
    obj = json.loads(a.read_text())
    assert list(obj) == ["case", "m", "d", "seed", "P", "S_C", "S_R",
                         "curve", "certificates"]
    assert (obj["case"], obj["d"], obj["m"], obj["seed"]) == ("a", 4, 2, 11)


def test_generate_rejects_infeasible_cell(capsys):
    rc, out, err = run(capsys, "generate", "--case", "c", "--d", "4",
                       "--m", "3", "--seed", "0")
    assert rc == 2
    assert out == ""
    envelope = json.loads(err)
    assert envelope["error"] == "ConstraintViolation"
    assert envelope["message"]


def test_generate_then_verify_round_trip(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    rc, _, _ = run(capsys, "generate", "--case", "a", "--d", "4", "--m", "2",
                   "--seed", "5", "--out", str(inst_path))
    assert rc == 0
    rc, out, err = run(capsys, "verify", str(inst_path))
    assert rc == 0 and err == ""
    report = json.loads(out)
    assert report["mode"] == "instance"
    assert report["overall_pass"] is True
    assert report["label_match"] is True
    assert report["headline"] == "a"
    assert report["seed"] == 5


def _raw_triple(**fields):
    line = CurveSpec.line(P(1, 0, 0), P(0, 1, 0))
    inst = make_case_a(2, 3, conjugate_pair_form(3), [P(0, 0, 1)], line)
    raw = {"P": inst.form.to_json(), "S_C": inst.s_c.to_json(),
           "S_R": inst.s_r.to_json(), "d": 3, "m": 2}
    raw.update(fields)
    return raw


def test_verify_raw_triple_mode(tmp_path, capsys):
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(_raw_triple()))
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 0
    report = json.loads(out)
    assert report["mode"] == "raw"
    assert report["case_label"] is None
    assert report["seed"] is None
    assert any("assumed" in n for n in report["notes"])


def test_verify_threshold_overrides(tmp_path, capsys):
    inst_path = tmp_path / "c.json"
    rc, _, _ = run(capsys, "generate", "--case", "c", "--d", "5", "--m", "3",
                   "--seed", "2", "--out", str(inst_path))
    assert rc == 0
    rc, out, _ = run(capsys, "verify", str(inst_path),
                     "--threshold-overrides", '{"line": 9}')
    assert rc == 1
    report = json.loads(out)
    assert report["overall_pass"] is False
    assert report["attempts"] == []

    rc, out, err = run(capsys, "verify", str(inst_path),
                       "--threshold-overrides", '{"bogus": 1}')
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "ValueError"
    rc, _, err = run(capsys, "verify", str(inst_path),
                     "--threshold-overrides", '[1, 2]')
    assert rc == 2
    assert json.loads(err)["error"] == "ValueError"


def _relabelled(tmp_path, capsys, label):
    inst_path = tmp_path / "inst.json"
    run(capsys, "generate", "--case", "a", "--d", "4", "--m", "2",
        "--seed", "5", "--out", str(inst_path))
    obj = json.loads(inst_path.read_text())
    obj["case"] = label
    inst_path.write_text(json.dumps(obj))
    return inst_path


def test_verify_exits_1_on_label_mismatch(tmp_path, capsys):
    rc, out, err = run(capsys, "verify", str(_relabelled(tmp_path, capsys,
                                                         "c")))
    assert rc == 1 and err == ""
    report = json.loads(out)
    assert report["overall_pass"] is True
    assert report["passing_cases"] == ["a"]
    assert report["label_match"] is False


def test_verify_rejects_unknown_case_label(tmp_path, capsys):
    rc, out, err = run(capsys, "verify", str(_relabelled(tmp_path, capsys,
                                                         "z")))
    assert rc == 2 and out == ""
    envelope = json.loads(err)
    assert envelope["error"] == "ValueError"
    assert "'z'" in envelope["message"]


def test_threshold_overrides_must_be_integers(tmp_path, capsys):
    inst_path = _relabelled(tmp_path, capsys, "a")
    for text in ('{"line": 3.7}', '{"conic": "8"}', '{"line": true}'):
        rc, out, err = run(capsys, "verify", str(inst_path),
                           "--threshold-overrides", text)
        assert rc == 2 and out == ""
        assert json.loads(err)["error"] == "ValueError"


def _exits_2_with_value_error(capsys, path, *argv):
    rc, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert rc == 2 and out == ""
    envelope = json.loads(err)
    assert envelope["error"] == "ValueError"
    return envelope["message"]


def _inputs_with(tmp_path, value):
    """A rank, an h1 and two verify inputs, each with one field = value."""
    raw_p = _raw_triple()
    raw_p["P"]["d"] = value
    point = [{"re": "1/1"}] * 3
    inputs = [({"d": value, "c": ["1", "0", "1"]}, ("rank",)),
              ({"m": value, "points": [point]}, ("h1", "--d", "2")),
              (_raw_triple(m=value), ("verify",)),
              (raw_p, ("verify",))]
    for k, (obj, argv) in enumerate(inputs):
        path = tmp_path / f"in{k}.json"
        path.write_text(json.dumps(obj))
        yield path, argv


def test_strings_and_objects_are_not_read_as_arrays(tmp_path, capsys):
    # each was read element by element and answered: the forms 1, 2, 3
    # and 5, 6, 7, the points [1:0] and [0:1], and a zero form P
    triple = _raw_triple()
    triple["S_C"]["points"][0] = "001"
    empty_terms = _raw_triple()
    empty_terms["P"]["terms"] = ""
    inputs = [({"d": 2, "c": "123"}, ("rank",)),
              ({"d": 2, "c": {"5": "a", "6": "b", "7": "c"}}, ("rank",)),
              ({"m": 1, "points": ["10", "01"]}, ("h1", "--d", "2")),
              ({"m": 1, "points": [{"1": 0, "0": 1}]}, ("h1", "--d", "2")),
              (triple, ("verify",)), (empty_terms, ("verify",))]
    for k, (obj, argv) in enumerate(inputs):
        path = tmp_path / f"in{k}.json"
        path.write_text(json.dumps(obj))
        assert "JSON array" in _exits_2_with_value_error(capsys, path, *argv)


def test_rank_rejects_degree_zero(tmp_path, capsys):
    path = tmp_path / "form.json"
    path.write_text('{"d": 0, "c": ["1"]}')
    assert "'d'" in _exits_2_with_value_error(capsys, path, "rank")


def test_float_degree_and_dimension_are_rejected(tmp_path, capsys):
    # 2.9 was read as 2 and ranked
    for value in (2.9, 2.0):
        for path, argv in _inputs_with(tmp_path, value):
            _exits_2_with_value_error(capsys, path, *argv)


def test_bool_degree_and_dimension_are_rejected(tmp_path, capsys):
    # true was read as 1
    for path, argv in _inputs_with(tmp_path, True):
        _exits_2_with_value_error(capsys, path, *argv)


def test_instance_fields_must_be_integers(tmp_path, capsys):
    inst_path = _relabelled(tmp_path, capsys, "a")
    obj = json.loads(inst_path.read_text())
    obj["d"] = 4.0
    inst_path.write_text(json.dumps(obj))
    _exits_2_with_value_error(capsys, inst_path, "verify")


def test_instance_seed_must_be_an_integer(tmp_path, capsys):
    inst_path = _relabelled(tmp_path, capsys, "a")
    obj = json.loads(inst_path.read_text())
    obj["seed"] = 2.5
    inst_path.write_text(json.dumps(obj))
    assert "'seed'" in _exits_2_with_value_error(capsys, inst_path, "verify")


def _with_exponent(tmp_path, capsys, pick, value):
    """The case-a instance with entry pick(exp) of one term's exp = value."""
    inst_path = _relabelled(tmp_path, capsys, "a")
    obj = json.loads(inst_path.read_text())
    for term in obj["P"]["terms"]:
        k = pick(term["exp"])
        if k is not None:
            term["exp"][k] = value(term["exp"][k])
            break
    else:
        raise AssertionError("no term to edit")
    inst_path.write_text(json.dumps(obj))
    return inst_path


def test_float_exponent_is_rejected(tmp_path, capsys):
    # e + 0.9 truncates back to a valid exponent; only the type check fails
    path = _with_exponent(tmp_path, capsys, lambda exp: 0,
                          lambda e: e + 0.9)
    assert "'exp'" in _exits_2_with_value_error(capsys, path, "verify")


def test_bool_exponent_is_rejected(tmp_path, capsys):
    path = _with_exponent(tmp_path, capsys,
                          lambda exp: exp.index(1) if 1 in exp else None,
                          lambda e: True)
    assert "'exp'" in _exits_2_with_value_error(capsys, path, "verify")


def test_top_level_json_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    for argv in (("verify",), ("rank",), ("h1", "--d", "3")):
        message = _exits_2_with_value_error(capsys, path, *argv)
        assert "JSON object" in message


def test_rational_literals_outside_the_grammar_exit_2(tmp_path, capsys):
    path = tmp_path / "form.json"
    for text in ("1e3", "1.5", "1_0"):
        path.write_text(json.dumps({"d": 1, "c": [text, "1"]}))
        assert repr(text) in _exits_2_with_value_error(capsys, path, "rank")


def test_verify_output_file_bytes_stable(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    run(capsys, "generate", "--case", "b", "--d", "4", "--m", "2",
        "--seed", "3", "--out", str(inst_path))
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    for path in (r1, r2):
        rc, _, _ = run(capsys, "verify", str(inst_path), "--out", str(path))
        assert rc == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_rank_command_on_gap_form(tmp_path, capsys):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(conjugate_pair_form(3).to_json()))
    rc, out, _ = run(capsys, "rank", str(path))
    assert rc == 0
    payload = json.loads(out)
    assert list(payload) == ["input", "complex", "real", "seed"]
    assert payload["complex"]["rank"] == 2
    assert payload["real"]["rank"] == 3
    assert len(payload["complex"]["decomposition"]["points"]) == 2
    assert len(payload["real"]["decomposition"]["points"]) == 3


def test_rank_command_accepts_bare_string_coefficients(tmp_path, capsys):
    path = tmp_path / "form.json"
    path.write_text('{"d": 3, "c": ["2", "0", "-2", "0"]}')
    rc, out, _ = run(capsys, "rank", str(path))
    assert rc == 0
    payload = json.loads(out)
    assert payload["complex"]["rank"] == 2
    assert payload["real"]["rank"] == 3

    bad = tmp_path / "bad_form.json"
    bad.write_text('{"d": 3, "c": [2, 0, -2, 0]}')
    rc, out, err = run(capsys, "rank", str(bad))
    assert rc == 2 and out == ""
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("d, roots", [
    # a degree-20 kernel whose monic coefficients reach 19!
    (64, [Fraction(k) for k in range(20)]),
    # roots over 7^30 that no small denominator approximates
    (6, [Fraction(3 ** 40 + k, 7 ** 30) for k in range(3)]),
])
def test_rank_command_finds_exact_roots_without_floats(tmp_path, capsys, d,
                                                      roots):
    """sum_k (x + r_k y)^d, whose scaled coefficients are the power sums
    of the r_k: complex and real rank len(roots), both exact, on [1 : r_k]."""
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"d": d, "c": [
        str(sum(r ** j for r in roots)) for j in range(d + 1)]}))
    rc, out, _ = run(capsys, "rank", str(path))
    assert rc == 0
    payload = json.loads(out)
    want = sorted(Scalar.of(r).to_json()["re"] for r in roots)
    for part in (payload["complex"], payload["real"]):
        assert part["rank"] == len(roots)
        decomposition = part["decomposition"]
        assert decomposition["mode"] == "exact"
        points = decomposition["points"]
        assert all(p[0] == {"re": "1/1", "im": "0/1"} for p in points)
        assert sorted(p[1]["re"] for p in points) == want


def test_rank_command_nonreal_form(tmp_path, capsys):
    form = BinaryForm.from_plain([ONE, ZERO, ZERO, Scalar.of(0, 1)])
    path = tmp_path / "form.json"
    path.write_text(json.dumps(form.to_json()))
    rc, out, _ = run(capsys, "rank", str(path))
    assert rc == 0
    payload = json.loads(out)
    assert payload["complex"]["rank"] == 2
    assert payload["real"] is None
    assert payload["note"] == "real rank is defined for real forms only"


def test_h1_command_collinear_points(tmp_path, capsys):
    pts = PointSet.of([P(0, 1, t) for t in range(5)])
    path = tmp_path / "pts.json"
    path.write_text(json.dumps(pts.to_json()))
    rc, out, _ = run(capsys, "h1", str(path), "--d", "3")
    assert rc == 0
    payload = json.loads(out)
    assert payload["set_size"] == 5
    assert payload["span_dim"] == 3
    assert payload["h1"] == 1
    assert payload["independent"] is False
    assert payload["d"] == 3


def test_h1_rejects_degree_below_one(tmp_path, capsys):
    path = tmp_path / "pts.json"
    path.write_text(json.dumps(PointSet.of([P(0, 1, 2)]).to_json()))
    for d in ("-1", "0"):
        rc, out, err = run(capsys, "h1", str(path), "--d", d)
        assert rc == 2 and out == ""
        assert json.loads(err)["error"] == "ValueError"


def test_h1_rejects_negative_dimension(tmp_path, capsys):
    # the message blamed the size limits for an invalid dimension
    path = tmp_path / "pts.json"
    path.write_text(json.dumps({"m": -1, "points": [["1"]]}))
    message = _exits_2_with_value_error(capsys, path, "h1", "--d", "3")
    assert "'m'" in message and "limits" not in message


def test_error_envelope_for_bad_input(tmp_path, capsys):
    rc, out, err = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert rc == 2 and out == ""
    envelope = json.loads(err)
    assert envelope["error"] == "FileNotFoundError"

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run(capsys, "rank", str(bad))
    assert rc == 2
    assert json.loads(err)["error"] == "JSONDecodeError"


def test_suite_runs_full_grid(tmp_path, capsys):
    out_path = tmp_path / "suite.json"
    rc, _, _ = run(capsys, "suite", "--seed", "0", "--out", str(out_path))
    assert rc == 0
    payload = json.loads(out_path.read_text())
    assert payload["total"] == 28
    assert payload["passed"] == 28
    assert all(r["overall_pass"] and r["label_match"]
               for r in payload["rows"])
    cells = {(r["case"], r["d"], r["m"]) for r in payload["rows"]}
    assert len(cells) == 28
    assert ("c", 5, 3) in cells and ("a", 3, 2) in cells
    golden = Path(__file__).parent / "golden" / "suite-seed0.json"
    assert out_path.read_bytes() == golden.read_bytes()


# -- the suite's worker pool ---------------------------------------------------

def _pin_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _quick_cell(cell, seed):
    """A cheap stand-in for cli._suite_cell that says where it ran."""
    case, d, m = cell
    return {"case": case, "d": d, "m": m, "seed": seed,
            "overall_pass": True, "label_match": True, "headline": case,
            "in_worker": multiprocessing.parent_process() is not None}


def _cell_failing_on_b43_and_c64(cell, seed):
    if cell in (("b", 4, 3), ("c", 6, 4)):
        raise ValueError(f"cell {cell} failed")
    return _quick_cell(cell, seed)


def _cell_killing_its_worker(cell, seed):
    if cell == ("c", 6, 4) and multiprocessing.parent_process() is not None:
        os._exit(1)
    return _quick_cell(cell, seed)


def _quick_suite(capsys, monkeypatch, cell, cpus: int):
    monkeypatch.setattr(cli, "_suite_cell", cell)
    _pin_cpus(monkeypatch, cpus)
    result = run(capsys, "suite", "--seed", "3")
    assert multiprocessing.active_children() == []
    return result


@pytest.mark.parametrize("seed", [0, 1])
def test_suite_bytes_do_not_depend_on_the_worker_count(seed, monkeypatch,
                                                       capsys):
    outputs = []
    for cpus in (1, 2):
        _pin_cpus(monkeypatch, cpus)
        rc, out, err = run(capsys, "suite", "--seed", str(seed))
        assert rc == 0 and err == ""
        assert multiprocessing.active_children() == []
        outputs.append(out)
    assert outputs[0] == outputs[1]
    if seed == 0:
        golden = Path(__file__).parent / "golden" / "suite-seed0.json"
        assert outputs[0] == golden.read_text()


def test_suite_runs_its_cells_in_workers_in_grid_order(monkeypatch, capsys):
    rc, out, _ = _quick_suite(capsys, monkeypatch, _quick_cell, 2)
    rows = json.loads(out)["rows"]
    assert rc == 0
    assert [(r["case"], r["d"], r["m"]) for r in rows] == cli._suite_grid()
    assert all(r["in_worker"] for r in rows)


def test_suite_reports_the_first_failing_cell_in_grid_order(monkeypatch,
                                                            capsys):
    # c64 fails first in time (it is submitted first), b43 first in the grid
    alone = _quick_suite(capsys, monkeypatch, _cell_failing_on_b43_and_c64, 1)
    pooled = _quick_suite(capsys, monkeypatch, _cell_failing_on_b43_and_c64,
                          2)
    assert pooled == alone
    rc, out, err = pooled
    assert rc == 2 and out == ""
    assert json.loads(err) == {"error": "ValueError",
                               "message": "cell ('b', 4, 3) failed"}


def test_suite_runs_in_process_when_the_pool_cannot_start(monkeypatch,
                                                          capsys):
    def no_pool(*args, **kwargs):
        raise OSError("no pool here")

    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor",
                        no_pool)
    rc, out, err = _quick_suite(capsys, monkeypatch, _quick_cell, 2)
    assert rc == 0 and err == ""
    rows = json.loads(out)["rows"]
    assert len(rows) == 28 and not any(r["in_worker"] for r in rows)


def test_suite_stops_the_started_workers_when_a_fork_fails(monkeypatch,
                                                           capsys):
    start = multiprocessing.context.ForkProcess.start
    forks = []

    def second_fork_fails(proc):
        forks.append(proc)
        if len(forks) == 2:
            raise OSError("fork failed")
        start(proc)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start",
                        second_fork_fails)
    rc, out, _ = _quick_suite(capsys, monkeypatch, _quick_cell, 2)
    assert rc == 0 and len(forks) == 2
    assert not any(r["in_worker"] for r in json.loads(out)["rows"])


def test_suite_runs_in_process_when_a_worker_dies(monkeypatch, capsys):
    rc, out, err = _quick_suite(capsys, monkeypatch,
                                _cell_killing_its_worker, 2)
    assert rc == 0 and err == ""
    rows = json.loads(out)["rows"]
    assert len(rows) == 28 and not any(r["in_worker"] for r in rows)


def test_unknown_case_choice_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--case", "q", "--d", "3", "--m", "2",
              "--seed", "0"])
    assert exc.value.code == 2
    capsys.readouterr()


# The texts of the whole parser, as it printed them with COLUMNS=80: the
# help of every command, and the usage errors of a missing, an unknown
# and a misused command.
USAGE_TEXTS = [
    (("--help",), 0,
     ('usage: waringlab [-h] {generate,verify,rank,h1,suite} ...\n'
      '\n'
      'Exact real versus complex Waring rank laboratory.\n'
      '\n'
      'positional arguments:\n'
      '  {generate,verify,rank,h1,suite}\n'
      '    generate            write one instance file\n'
      '    verify              classify an instance or triple\n'
      '    rank                binary form ranks over C and R\n'
      '    h1                  span report for a point set\n'
      '    suite               generate and verify the grid\n'
      '\n'
      'options:\n'
      '  -h, --help            show this help message and exit\n'),
     ""),
    (('generate', '--help'), 0,
     ('usage: waringlab generate [-h] --case {a,b,c} --d D --m M --seed SEED\n'
      '                          [--out OUT]\n'
      '\n'
      'options:\n'
      '  -h, --help      show this help message and exit\n'
      '  --case {a,b,c}\n'
      '  --d D\n'
      '  --m M\n'
      '  --seed SEED\n'
      '  --out OUT\n'),
     ""),
    (('verify', '--help'), 0,
     ('usage: waringlab verify [-h] [--out OUT]\n'
      '                        [--threshold-overrides THRESHOLD_OVERRIDES]\n'
      '                        input\n'
      '\n'
      'positional arguments:\n'
      '  input\n'
      '\n'
      'options:\n'
      '  -h, --help            show this help message and exit\n'
      '  --out OUT\n'
      '  --threshold-overrides THRESHOLD_OVERRIDES\n'
      '                        expert: JSON like {"line": 5, "conic": 8}\n'),
     ""),
    (('rank', '--help'), 0,
     ('usage: waringlab rank [-h] [--out OUT] input\n'
      '\n'
      'positional arguments:\n'
      '  input\n'
      '\n'
      'options:\n'
      '  -h, --help  show this help message and exit\n'
      '  --out OUT\n'),
     ""),
    (('h1', '--help'), 0,
     ('usage: waringlab h1 [-h] --d D [--out OUT] input\n'
      '\n'
      'positional arguments:\n'
      '  input\n'
      '\n'
      'options:\n'
      '  -h, --help  show this help message and exit\n'
      '  --d D\n'
      '  --out OUT\n'),
     ""),
    (('suite', '--help'), 0,
     ('usage: waringlab suite [-h] [--seed SEED] [--out OUT]\n'
      '\n'
      'options:\n'
      '  -h, --help   show this help message and exit\n'
      '  --seed SEED\n'
      '  --out OUT\n'),
     ""),
    ((), 2,
     "",
     ('usage: waringlab [-h] {generate,verify,rank,h1,suite} ...\n'
      'waringlab: error: the following arguments are required: command\n')),
    (('bogus',), 2,
     "",
     ('usage: waringlab [-h] {generate,verify,rank,h1,suite} ...\n'
      "waringlab: error: argument command: invalid choice: 'bogus' "
      "(choose from 'generate', 'verify', 'rank', 'h1', 'suite')\n")),
    (('generate', '--case', 'q', '--d', '3', '--m', '2', '--seed', '0'), 2,
     "",
     ('usage: waringlab generate [-h] --case {a,b,c} --d D --m M --seed SEED\n'
      '                          [--out OUT]\n'
      "waringlab generate: error: argument --case: invalid choice: 'q' "
      "(choose from 'a', 'b', 'c')\n")),
    (('rank', 'in.json', '--bogus'), 2,
     "",
     ('usage: waringlab [-h] {generate,verify,rank,h1,suite} ...\n'
      'waringlab: error: unrecognized arguments: --bogus\n')),
]


@pytest.mark.parametrize("argv, code, out, err", USAGE_TEXTS)
def test_usage_texts_keep_their_bytes(argv, code, out, err, monkeypatch,
                                      capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == code
    assert capsys.readouterr() == (out, err)


def test_a_command_builds_only_its_own_parser(monkeypatch, capsys):
    built = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: built.append(name)
                        or add_parser(self, name, **kw))
    every = list(cli._COMMANDS)
    for argv, names in (([], every), (["bogus"], every),
                        (["rank", "--help"], ["rank"]),
                        (["suite", "--seed", "x"], ["suite"])):
        built.clear()
        with pytest.raises(SystemExit):
            main(argv)
        assert built == names
    capsys.readouterr()


def test_raw_triple_seed_must_be_an_integer_or_null(tmp_path, capsys):
    path = tmp_path / "raw.json"
    for seed in ({"x": [2.5]}, 2.5, True):
        path.write_text(json.dumps(_raw_triple(seed=seed)))
        assert "'seed'" in _exits_2_with_value_error(capsys, path, "verify")
    for seed in (None, 7):
        path.write_text(json.dumps(_raw_triple(seed=seed)))
        rc, out, err = run(capsys, "verify", str(path))
        assert rc == 0 and err == ""
        assert json.loads(out)["seed"] == seed


def _over_limit_inputs(tmp_path):
    """(argv, the limit the message must name) past each size limit."""
    inst = json.loads((Path(__file__).parent / "golden" / "generate"
                       / "a-d3-m2.json").read_text())
    point = ["1", "0", "0"]
    files = {
        "rank": {"d": 65, "c": ["1"] * 66},
        "wide": {"m": 2, "points": [point]},
        "p0": {"m": 0, "points": [["1"]]},
        "many": {"m": 2, "points": [point] * 1001},
        "inst-d": dict(inst, d=13),
        "inst-m": dict(inst, m=7),
        "raw-m": _raw_triple(m=7),
        "form-d": dict(inst, P=dict(inst["P"], d=13)),
        "points-m": dict(inst, S_R=dict(inst["S_R"], m=7)),
        "literal": {"d": 1, "c": ["1" * 10_001, "1"]},
    }
    paths = {}
    for name, obj in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(obj))
    gen = ["generate", "--case", "a", "--seed", "0"]
    return [
        (["rank", paths["rank"]], "64"),
        (gen + ["--d", "13", "--m", "2"], "12"),
        (gen + ["--d", "3", "--m", "7"], "6"),
        (["h1", paths["wide"], "--d", "100"], "5000"),
        (["h1", paths["wide"], "--d", str(10 ** 9)], "5000"),
        (["h1", paths["p0"], "--d", "5000"], "5000"),
        (["h1", paths["many"], "--d", "2"], "1000"),
        (["verify", paths["inst-d"]], "12"),
        (["verify", paths["inst-m"]], "6"),
        (["verify", paths["raw-m"]], "6"),
        (["verify", paths["form-d"]], "12"),
        (["verify", paths["points-m"]], "6"),
        (["rank", paths["literal"]], "10000"),
    ]


def test_size_limits_exit_2_before_any_work(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("an over-limit input reached the engine")

    for name in ("complex_rank", "real_rank", "generate_instance",
                 "classify", "classify_triple", "h1_ideal"):
        monkeypatch.setattr(cli, name, no_work)
    for argv, limit in _over_limit_inputs(tmp_path):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "", argv
        envelope = json.loads(err)
        assert envelope["error"] == "ValueError"
        assert limit in envelope["message"], (argv, envelope)


def test_limits_admit_the_largest_inputs(tmp_path, capsys):
    path = tmp_path / "pts.json"
    # C(4 + 12, 4) = 1820 columns, C(2 + 98, 2) = 4950 and d = 4999 in P^0
    path.write_text(json.dumps({"m": 4,
                                "points": [["1", "2", "0", "0", "1"]]}))
    assert run(capsys, "h1", str(path), "--d", "12")[0] == 0
    path.write_text(json.dumps({"m": 2, "points": [["1", "2", "3"]]}))
    assert run(capsys, "h1", str(path), "--d", "98")[0] == 0
    path.write_text(json.dumps({"m": 0, "points": [["1"]]}))
    assert run(capsys, "h1", str(path), "--d", "4999")[0] == 0
    # Python's own limit of 4300 digits per int still applies to each
    # number read
    path.write_text(json.dumps({"d": 1, "c": ["1" * 4000, "0"]}))
    assert run(capsys, "rank", str(path))[0] == 0


def test_rank_writes_numbers_past_the_digit_limit(tmp_path, capsys):
    # two in-limit literals whose decomposition point has 8000 digits
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = digit_limit()
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"d": 1, "c": ["1" * 4000, "1/" + "7" * 4000]}))
    rc, out, err = run(capsys, "rank", str(path))
    assert rc == 0 and err == ""
    assert digit_limit() == before
    form = BinaryForm(1, (Scalar(Fraction("1" * 4000)),
                          Scalar(Fraction(1, int("7" * 4000)))))
    payload = json.loads(out)
    for part in ("complex", "real"):
        dec = payload[part]["decomposition"]
        with cli._unlimited_digits():
            points = tuple((Scalar.from_json(a), Scalar.from_json(b))
                           for a, b in dec["points"])
            coeffs = tuple(Scalar.from_json(c) for c in dec["coeffs"])
        assert max(len(z["re"]) for p in dec["points"] for z in p) > 8000
        back = BinaryDecomposition(dec["rank"], dec["field"], dec["mode"],
                                   points, coeffs)
        assert reconstruct(back, 1) == form


# -- the contract under fuzzed input ------------------------------------------

def _assert_contract(argv: list[str]) -> None:
    """Exit 0 or 1 with a report, or exit 2 with the envelope; no raise."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    if rc == 2:
        assert out.getvalue() == ""
        assert set(json.loads(err.getvalue())) == {"error", "message"}
    else:
        assert rc in (0, 1) and err.getvalue() == ""
        assert isinstance(json.loads(out.getvalue()), dict)


_literals = st.one_of(
    st.from_regex(r"[+-]?[0-9]{1,3}(/[0-9]{1,2})?", fullmatch=True),
    st.sampled_from(["0", "1/0", " 7 ", "", "1e3", "1.5", "x", "0/1"]))
_scalars = st.one_of(_literals, st.fixed_dictionaries(
    {"re": _literals}, optional={"im": _literals}))
_leaves = st.one_of(st.none(), st.booleans(), st.integers(-3, 8),
                    st.floats(-4, 4, width=16), _literals)
_json = st.recursive(_leaves, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.dictionaries(st.sampled_from(["re", "im", "d", "m", "c", "points",
                                     "seed", "terms", "exp"]),
                    kids, max_size=3)), max_leaves=8)
_big = st.one_of(st.integers(65, 10 ** 9), st.just(10 ** 30))


_FUZZ_DIR = tempfile.TemporaryDirectory(prefix="waringlab-fuzz")


def _write(obj) -> str:
    path = Path(_FUZZ_DIR.name) / "in.json"
    path.write_text(json.dumps(obj))
    return str(path)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({
    "d": st.one_of(st.integers(-1, 6), _big, _leaves),
    "c": st.one_of(st.lists(_scalars, min_size=1, max_size=8), _json)}))
def test_fuzzed_rank_keeps_the_contract(obj):
    _assert_contract(["rank", _write(obj)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({
    "m": st.one_of(st.integers(-1, 4), _big, _leaves),
    "points": st.one_of(st.lists(st.lists(_scalars, min_size=1, max_size=5),
                                 max_size=6), _json)}),
       st.one_of(st.integers(-1, 6), st.integers(7, 10 ** 12)))
def test_fuzzed_h1_keeps_the_contract(obj, d):
    _assert_contract(["h1", _write(obj), "--d", str(d)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(["a", "b", "c"]),
       st.one_of(st.integers(-2, 4), st.integers(13, 10 ** 12)),
       st.one_of(st.integers(-1, 3), st.integers(7, 10 ** 12)),
       st.integers(-5, 10 ** 12))
def test_fuzzed_generate_keeps_the_contract(case, d, m, seed):
    _assert_contract(["generate", "--case", case, "--d", str(d),
                      "--m", str(m), "--seed", str(seed)])


def _paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


_INSTANCE = json.loads((Path(__file__).parent / "golden" / "generate"
                        / "a-d3-m2.json").read_text())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_fuzzed_verify_keeps_the_contract(data):
    base = data.draw(st.sampled_from([_INSTANCE, _raw_triple()]))
    obj = json.loads(json.dumps(base))
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_paths(obj))[1:]))
        value = data.draw(st.one_of(_json, _big))
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    _assert_contract(["verify", _write(obj)])
