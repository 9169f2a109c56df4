"""Command line surface: exit codes, JSON envelopes, reproducible bytes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from waringlab.binary import BinaryForm
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


def test_unknown_case_choice_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--case", "q", "--d", "3", "--m", "2",
              "--seed", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
