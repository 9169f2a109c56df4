"""Tests of the benchmark itself: its checkers, its inputs and its tracer.

Run from the root of a checkout:

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import statistics
import subprocess
import sys
import tempfile
import textwrap
import unittest
from array import array
from pathlib import Path

import run
import speed
import tracer
import workloads
from exact import gq, veronese_rank_mod_p

CLI = run.import_program()


def program_output(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = CLI.main(argv)
    return code, out.getvalue()


class CheckersRejectCorruptOutput(unittest.TestCase):

    def setUp(self) -> None:
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)

    def tearDown(self) -> None:
        self.tmp.cleanup()

    def _run(self, req: workloads.Request) -> tuple[int, str]:
        for name, text in req.files:
            (self.dir / name).write_text(text)
        names = {name for name, _ in req.files}
        return program_output([str(self.dir / a) if a in names else a
                               for a in req.argv])

    def test_rank_rejects_a_perturbed_coefficient(self) -> None:
        reqs = workloads.rank_requests(7, workloads.PERIOD["rank"])
        gap = next(r for r in reqs if r.kind == "gap"
                   and r.expect["real"] == 4)
        code, out = self._run(gap)
        self.assertIsNone(workloads.check_rank(code, out, gap))
        for key in ("complex", "real"):
            bad = json.loads(out)
            coeff = bad[key]["decomposition"]["coeffs"][0]
            coeff["re"] = coeff["re"].replace("/", "1/", 1)
            reason = workloads.check_rank(code, json.dumps(bad), gap)
            self.assertIn("re-expand", reason)

    def test_rank_rejects_a_wrong_rank_and_a_failed_exit(self) -> None:
        reqs = workloads.rank_requests(7, workloads.PERIOD["rank"])
        mono = next(r for r in reqs if r.kind == "monomial")
        code, out = self._run(mono)
        self.assertIsNone(workloads.check_rank(code, out, mono))
        bad = json.loads(out)
        bad["complex"]["rank"] += 1
        self.assertIsNotNone(workloads.check_rank(code, json.dumps(bad), mono))
        self.assertIsNotNone(workloads.check_rank(2, out, mono))

    def test_h1_rejects_an_off_by_one(self) -> None:
        reqs = workloads.h1_requests(3, workloads.PERIOD["h1"])
        for kind in ("line", "conic", "generic"):
            req = next(r for r in reqs if r.kind == kind
                       and r.argv[-1] == "3")
            code, out = self._run(req)
            self.assertIsNone(workloads.check_h1(code, out, req), kind)
            for delta in (1, -1):
                bad = json.loads(out)
                bad["h1"] += delta
                bad["span_dim"] -= delta
                self.assertIsNotNone(
                    workloads.check_h1(code, json.dumps(bad), req), kind)

    def test_suite_rejects_a_failing_row(self) -> None:
        req = workloads.suite_requests(5)[0]
        rows = [{"case": c, "d": d, "m": m, "seed": 5, "overall_pass": True,
                 "label_match": True, "headline": c}
                for c, d, m in workloads.SUITE_GRID]
        good = {"seed": 5, "total": len(rows), "passed": len(rows),
                "rows": rows}
        self.assertIsNone(workloads.check_suite(0, json.dumps(good), req))
        for field in ("overall_pass", "label_match"):
            bad = copy.deepcopy(good)
            bad["rows"][3][field] = False
            self.assertIsNotNone(
                workloads.check_suite(0, json.dumps(bad), req))
        bad = copy.deepcopy(good)
        bad["passed"] -= 1
        self.assertIsNotNone(workloads.check_suite(1, json.dumps(bad), req))
        self.assertIsNotNone(workloads.check_suite(1, json.dumps(good), req))


class Inputs(unittest.TestCase):

    def test_same_seed_same_files_other_seed_other_files(self) -> None:
        for make in (workloads.rank_requests, workloads.h1_requests):
            first = [r.files for r in make(11, 40)]
            self.assertEqual(first, [r.files for r in make(11, 40)])
            self.assertNotEqual(first, [r.files for r in make(12, 40)])

    def test_generic_sets_are_certified_and_curves_deficient(self) -> None:
        for req in workloads.h1_requests(4, workloads.PERIOD["h1"]):
            obj = json.loads(req.files[0][1])
            pts = [[(int(c["re"].split("/")[0]), int(c["im"].split("/")[0]))
                    for c in p] for p in obj["points"]]
            d = int(req.argv[-1])
            rank = veronese_rank_mod_p(pts, d)
            if req.kind == "generic":
                self.assertEqual(rank, len(pts))
            else:
                self.assertLessEqual(rank, len(pts) - req.expect["h1"])

    def test_gap_form_matches_its_definition(self) -> None:
        # (x+iy)^3 + (x-iy)^3 = 2x^3 - 6xy^2, scaled coefficients 2, 0, -2, 0
        self.assertEqual(workloads.gap_form(3, (1, 0, 0, 1)),
                         [gq(2), gq(0), gq(-2), gq(0)])


class SelfTime(unittest.TestCase):

    def test_self_time_on_a_nested_call_tree(self) -> None:
        names = ["cli.main", "binary.complex_rank", "linalg.nullspace",
                 "univariate.roots_over_gaussians", "linalg.rank"]
        #   cli.main            0 .. 10
        #     binary.complex_rank   1 .. 6
        #       linalg.nullspace      2 .. 3
        #       univariate.roots      3.5 .. 5
        #     linalg.rank           7 .. 9
        #       linalg.rank           7.5 .. 8   (nested in itself)
        name_of = array("i", [0, 1, 2, 3, 4, 4])
        parent = array("i", [-1, 0, 1, 1, 0, 4])
        start = array("d", [0.0, 1.0, 2.0, 3.5, 7.0, 7.5])
        end = array("d", [10.0, 6.0, 3.0, 5.0, 9.0, 8.0])
        s = tracer.summarize(names, name_of, parent, start, end,
                             busy_names=("linalg.rank",))
        self.assertEqual(s["layer_self"]["cli"], 3.0)
        self.assertEqual(s["layer_self"]["binary"], 2.5)
        self.assertEqual(s["layer_self"]["linalg"], 1.0 + 1.5 + 0.5)
        self.assertEqual(s["layer_self"]["univariate"], 1.5)
        self.assertEqual(sum(s["layer_self"].values()), 10.0)
        self.assertEqual(s["layer_calls"]["linalg"], 3)
        self.assertEqual(s["busy"]["linalg.rank"], 2.0)
        self.assertEqual(s["root_time"], 10.0)
        self.assertEqual(tracer.child_counts(names, name_of, parent,
                                             "linalg.nullspace",
                                             "binary.complex_rank"), 1)

    def test_matrix_entries(self) -> None:
        self.assertEqual(tracer.matrix_entries(([[1, 2, 3], [4, 5, 6]],
                                                [[1], [2]], [1, 2])), 8)


class ClosedLoop(unittest.TestCase):

    def setUp(self) -> None:
        workloads.CHECKERS["fake"] = lambda code, out, req: None

    def tearDown(self) -> None:
        del workloads.CHECKERS["fake"]

    def _loop(self, main) -> run.Loop:
        reqs = [workloads.Request("k", ("x", str(i)), 1) for i in range(3)]
        return run.Loop("fake", main, reqs, run.WORK, run.CacheLedger({}))

    def test_whole_periods_and_the_minimum(self) -> None:
        calls = []
        loop = self._loop(lambda argv: calls.append(argv) or 0)
        start = run.time.perf_counter()
        self.assertEqual(loop.run_until(0, 0.0, start, 3, minimum=4), 6)
        self.assertEqual([a[1] for a in calls], ["0", "1", "2"] * 2)
        self.assertEqual(loop.run_until(6, 0.0, start, 3), 6)
        self.assertEqual((loop.attempted, loop.failed, loop.items), (6, 0, 6))

    def test_a_repeat_with_other_bytes_fails(self) -> None:
        count = iter(range(100))
        loop = self._loop(lambda argv: print(next(count)) or 0)
        loop.run_until(0, 0.0, run.time.perf_counter(), 3, minimum=6)
        self.assertEqual(loop.failed, 3)
        self.assertIn("different output bytes", loop.reasons[0])

    def test_an_exception_counts_as_one_failed_command(self) -> None:
        def main(argv):
            if argv[1] == "1":
                raise ValueError("bad input")
            return 0
        loop = self._loop(main)
        loop.run_until(0, 0.0, run.time.perf_counter(), 3, minimum=3)
        self.assertEqual((loop.attempted, loop.failed, loop.items), (3, 1, 2))
        self.assertIn("raised ValueError: bad input", loop.reasons[0])


class SpeedScaling(unittest.TestCase):

    def test_factor_averages_the_samples_near_a_command(self) -> None:
        probe = speed.SpeedProbe()
        probe.times = [0.0, 2.0, 4.0, 6.0]
        probe.samples = [1.5, 3.0, 1.0, 2.0]
        ref = speed.REFERENCE_MS
        self.assertAlmostEqual(probe.factor(1.8, 2.2), ref / 3.0)
        self.assertAlmostEqual(probe.factor(1.8, 3.6), ref / 2.0)
        self.assertAlmostEqual(probe.factor(-1.0, 9.0), ref / 1.875)
        # no sample within half a second: the next one stands in
        self.assertAlmostEqual(probe.factor(0.9, 1.0), ref / 3.0)

    def test_probe_samples_while_running(self) -> None:
        with speed.SpeedProbe() as probe:
            deadline = run.time.perf_counter() + 3 * speed.INTERVAL_S
            while run.time.perf_counter() < deadline:
                pass
        self.assertGreaterEqual(len(probe.samples), 3)
        self.assertGreater(probe.spent, 0.0)
        self.assertTrue(all(s > 0 for s in probe.samples))

    def test_busy_cpus_do_not_slow_the_probe(self) -> None:
        # Two spinning processes keep both vCPUs of the reference machine
        # busy, as a pool of workers would: the probe's wall time grows
        # by half, its CPU time, which it reports, does not.
        spin = ("import time\nend = time.time() + 60\n"
                "while time.time() < end: pass")

        def median_probe() -> float:
            return statistics.median(speed.probe_ms() for _ in range(200))

        ratios = []
        for _ in range(2):
            idle = median_probe()
            procs = [subprocess.Popen([sys.executable, "-c", spin])
                     for _ in range(2)]
            try:
                busy = median_probe()
            finally:
                for proc in procs:
                    proc.kill()
                    proc.wait(timeout=10)
            ratios.append(busy / idle)
        self.assertLess(min(ratios), 1.25, ratios)


class Declarations(unittest.TestCase):

    def test_metric_names_agree(self) -> None:
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        pred = json.loads((run.HERE / "predictions.json").read_text())
        per_layer = [m["name"] for m in bench["per_layer"]]
        self.assertEqual(per_layer, [p["metric"]
                                     for p in pred["predictions"]])
        ledger = run.CacheLedger({})
        ledger.totals["spans.power_row"] = {"hits": 0, "misses": 0,
                                            "max_size": 0}
        loop = run.Loop("rank", None, [], run.WORK, ledger)
        emitted = run.layer_metrics(tracer.Tracer(), loop, ledger, 1.0)
        self.assertEqual(sorted(emitted), sorted(per_layer))
        for m in bench["per_layer"]:
            self.assertEqual(emitted[m["name"]][1], m["unit"], m["name"])
        e2e = [m["name"] for m in bench["end_to_end"]]
        self.assertIn("setup_s", e2e)


class Tracing(unittest.TestCase):
    """The tracer runs in a child interpreter: it rewires the package."""

    def _child(self, body: str) -> str:
        code = textwrap.dedent(f"""
            import sys
            sys.path.insert(0, {str(run.HERE)!r})
            import run, tracer
            cli = run.import_program()
            {textwrap.indent(textwrap.dedent(body), '            ').strip()}
        """)
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, cwd=run.ROOT,
                              timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return proc.stdout

    def test_every_binding_is_wrapped(self) -> None:
        out = self._child("""
            import waringlab.factory as factory, waringlab.binary as binary
            original = binary.real_rank
            t = tracer.Tracer()
            t.install()
            assert factory.real_rank is binary.real_rank is not original
            factory.real_rank = original
            try:
                t.check_coverage()
            except tracer.CoverageError as exc:
                print("caught", exc)
        """)
        self.assertIn("caught unwrapped bindings: waringlab.factory."
                      "real_rank", out)

    def test_a_missing_boundary_fails_the_install(self) -> None:
        out = self._child("""
            tracer.BUSY = tracer.BUSY + ("binary.renamed_away",)
            try:
                tracer.Tracer().install()
            except tracer.CoverageError as exc:
                print("caught", exc)
        """)
        self.assertIn("caught no public function to wrap for: "
                      "binary.renamed_away", out)

    def test_spans_of_one_rank_command(self) -> None:
        out = self._child("""
            import io, contextlib, json
            t = tracer.Tracer()
            t.install()
            path = run.WORK / "trace-test.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps({"d": 3, "c": [
                {"re": "2/1", "im": "0/1"}, {"re": "0/1", "im": "0/1"},
                {"re": "-2/1", "im": "0/1"}, {"re": "0/1", "im": "0/1"}]}))
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["rank", str(path)])
            path.unlink()
            s = t.summary()
            print(json.dumps({"code": code, "calls": s["name_calls"],
                              "roots": [t.names[t.name_of[i]]
                                        for i in range(len(t.start))
                                        if t.parent[i] < 0]}))
        """)
        got = json.loads(out)
        self.assertEqual(got["code"], 0)
        self.assertEqual(got["roots"], ["cli.main"])
        self.assertGreaterEqual(got["calls"]["binary.complex_rank"], 1)
        self.assertGreaterEqual(got["calls"]["binary.real_rank"], 1)


if __name__ == "__main__":
    unittest.main()
