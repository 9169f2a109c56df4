"""waringlab benchmark: closed-loop load through `waringlab.cli.main`.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {suite,rank,h1} --seed N --seconds S \
        --trace {0,1}
    python3 bench/run.py --workload all --seed N --seconds S --trace {0,1}

One process issues one `waringlab` command at a time and waits for it:
a closed loop with a single caller and no threads.  Every command starts
with the program's function caches emptied and garbage collected, as in
the fresh process a user's command gets.  Inputs come from --seed alone
and are written as JSON files; the program sees only those files and its
command line.  Commands are issued in whole periods of the workload's mix
(see workloads.py) for as long as the next period fits in --seconds, so
every run measures the same mix.  Each output is checked; a command that
exits nonzero or fails its check counts as failed.

--trace 0 gives the end-to-end metrics.  Latencies are scaled to a
reference machine speed by an in-process probe that reads CPU time (see
speed.py), because on a shared 2-vCPU virtual machine the same work
drifts by a third or more from minute to minute; the latencies as
measured and the mean scale factor are in the `record` line.  setup_s is
the median wall time, scaled the same way, of SETUP_SAMPLES fresh
interpreters that each start and import the program.  Generating,
certifying and writing the inputs is the benchmark's own work, and its
file writing varies with the disk, so it is kept out of setup_s.

--trace 1 gives the per-layer metrics.  It runs the untraced loop for a
quarter of the window, wraps every layer (see tracer.py), runs the same
commands again traced, which gives the tracing overhead and checks that
tracing leaves the output bytes alone, and goes on traced until the
window ends.  The spans are written to .bench_out/ when the run ends.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  `--workload all` runs each
workload in its own interpreter and prints every metric as a table.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import BUSY, LAYERS, Tracer, child_counts  # noqa: E402

SETUP_SAMPLES = 15

# A fresh interpreter that imports the program from src/ (argv[1]).
SETUP_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import waringlab.cli")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def import_program():
    """Import waringlab from this checkout's src/ and nowhere else."""
    if not (SRC / "waringlab" / "cli.py").is_file():
        raise SetupError(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import waringlab.cli
    if Path(waringlab.cli.__file__).resolve().parent != SRC / "waringlab":
        raise SetupError("waringlab was imported from outside the checkout")
    return waringlab.cli


def prepare(workload: str, seed: int, directory: Path) -> list:
    """Generate the request list and write its input files."""
    reqs = workloads.requests(workload, seed)
    directory.mkdir(parents=True, exist_ok=True)
    for req in reqs:
        for name, text in req.files:
            (directory / name).write_text(text, encoding="utf-8")
    return reqs


def function_caches(package: str = "waringlab") -> dict:
    """Every functools cache defined in a waringlab module, by name."""
    found = {}
    for modname, module in list(sys.modules.items()):
        if module is None or not modname.startswith(package + "."):
            continue
        short = modname.split(".", 1)[1]
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and hasattr(obj, "cache_clear"):
                wrapped = getattr(obj, "__wrapped__", None)
                if getattr(wrapped, "__module__", None) == modname:
                    found[f"{short}.{name}"] = obj
    return found


class CacheLedger:
    """cache_info() summed over commands, with each command's peak size."""

    def __init__(self, caches: dict) -> None:
        self.caches = caches
        self.totals = {name: {"hits": 0, "misses": 0, "max_size": 0}
                       for name in caches}

    def reset(self) -> None:
        """Fold the finished command into the totals and empty the caches."""
        for name, cache in self.caches.items():
            info = cache.cache_info()
            tot = self.totals[name]
            tot["hits"] += info.hits
            tot["misses"] += info.misses
            tot["max_size"] = max(tot["max_size"], info.currsize)
            cache.cache_clear()

    def clear_totals(self) -> None:
        for tot in self.totals.values():
            tot.update(hits=0, misses=0, max_size=0)


class Loop:
    """The closed loop: issue a command, time it, check it, repeat."""

    def __init__(self, workload: str, main, reqs: list, directory: Path,
                 ledger: CacheLedger, tracer=None) -> None:
        self.workload = workload
        self.tracer = tracer
        # entered only for untraced runs; until then it spends no time
        self.probe = SpeedProbe()
        self.main = main
        self.reqs = reqs
        self.directory = directory
        self.ledger = ledger
        self.first_output: dict[int, str] = {}
        self.latencies: list[float] = []
        self.windows: list[tuple[float, float]] = []
        self.kinds: list[str] = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def issue(self, index: int) -> None:
        req = self.reqs[index % len(self.reqs)]
        names = {name for name, _ in req.files}
        argv = [str(self.directory / a) if a in names else a
                for a in req.argv]
        self.ledger.reset()
        gc.collect()
        if self.tracer is not None:
            self.tracer.current_request = index
        out, err = io.StringIO(), io.StringIO()
        crash = None
        spent = self.probe.spent
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = self.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:
            # an uncaught exception ends a user's command with exit code 1
            code = 1
            crash = f"raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        text = out.getvalue()
        self.attempted += 1
        self.latencies.append(t1 - t0 - (self.probe.spent - spent))
        self.windows.append((t0, t1))
        self.kinds.append(req.kind)
        reason = crash or self._check(code, text, req)
        key = index % len(self.reqs)
        if reason is None and key in self.first_output \
                and self.first_output[key] != text:
            reason = "repeated request gave different output bytes"
        self.first_output.setdefault(key, text)
        if reason is None:
            self.items += req.items
        else:
            self.failed += 1
            self.reasons.append(f"{req.kind} {' '.join(req.argv)}: {reason}")

    def _check(self, code, text, req):
        try:
            return workloads.CHECKERS[self.workload](code, text, req)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output ({type(exc).__name__}: {exc})"

    def run_until(self, index: int, deadline: float, start: float,
                  period: int, minimum: int = 0) -> int:
        """Issue whole periods of the request list while the next one fits.

        The next period fits when the time since start plus the median
        period time so far stays within deadline.  At least `minimum`
        commands are issued.  Returns the index after the last command.
        """
        times: list[float] = []
        issued = 0
        while issued < minimum or (
                times and time.perf_counter() - start
                + statistics.median(times) <= deadline):
            t0 = time.perf_counter()
            for _ in range(period):
                self.issue(index)
                index += 1
            times.append(time.perf_counter() - t0)
            issued += period
        return index


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import the program.

    Returns them as measured and scaled to the reference machine speed.
    The probe samples in this process while the child runs on another
    CPU, so its time is not taken off the child's.
    """
    cmd = [sys.executable, "-c", SETUP_CHILD, str(SRC)]
    times, windows = [], []
    with SpeedProbe() as probe:
        for _ in range(SETUP_SAMPLES):
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            t1 = time.perf_counter()
            if proc.returncode != 0:
                raise SetupError("set-up run failed: " + proc.stderr.strip())
            times.append(t1 - t0)
            windows.append((t0, t1))
    return times, [t * probe.factor(*w) for t, w in zip(times, windows)]


def run_workload(workload: str, seed: int, seconds: int, trace: bool):
    main_module = import_program()
    directory = WORK / f"{workload}-{os.getpid()}"
    try:
        reqs = prepare(workload, seed, directory)
        setup_times, setup_scaled = ([], []) if trace else measure_setup()
        ledger = CacheLedger(function_caches())
        loop = Loop(workload, main_module.main, reqs, directory, ledger)
        period = workloads.PERIOD[workload]
        start = time.perf_counter()
        if not trace:
            # two commands at least, so that a one-entry list repeats
            with loop.probe:
                loop.run_until(0, seconds, start, period, minimum=2)
            scaled = [latency * loop.probe.factor(*window) for latency, window
                      in zip(loop.latencies, loop.windows)]
        else:
            calibrated = loop.run_until(0, seconds / 4, start, period,
                                        minimum=1)
            tracer = Tracer()
            tracer.install()
            ledger.reset()
            ledger.clear_totals()
            traced = Loop(workload, main_module.main, reqs, directory, ledger,
                          tracer)
            traced.first_output = dict(loop.first_output)
            # the same commands again, then on while the window lasts
            traced.run_until(0, seconds, start, period, minimum=calibrated)
            overhead = (sum(traced.latencies[:calibrated])
                        / sum(loop.latencies))
            traced.attempted += loop.attempted
            traced.failed += loop.failed
            traced.reasons += loop.reasons
            loop = traced
        ledger.reset()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "requests": len(loop.latencies), "items": loop.items,
        "failed_frac": loop.failed / loop.attempted,
        "peak_rss_mb": peak_rss_mb, "setup_samples_s": setup_times,
        "caches": ledger.totals,
        "latency_ms_by_kind": latency_by_kind(loop),
        "measured": wall_metrics(loop.latencies, loop.items),
    }
    if trace:
        metrics = layer_metrics(tracer, loop, ledger, overhead)
        record["spans"] = len(tracer.start)
        record["spans_file"] = str(write_spans(tracer, workload, seed)
                                   .relative_to(ROOT))
    else:
        metrics = {"setup_s": (statistics.median(setup_scaled), "s"),
                   **wall_metrics(scaled, loop.items),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
        record["speed_factor"] = sum(scaled) / sum(loop.latencies)
    return loop, record, metrics


def wall_metrics(latencies: list[float], items: int) -> dict:
    """Throughput and latency percentiles of a run's commands."""
    return {"items_per_s": (items / sum(latencies), "1/s"),
            "p50_ms": (1000 * statistics.median(latencies), "ms"),
            "p90_ms": (1000 * percentile(latencies, 90), "ms")}


def latency_by_kind(loop) -> dict:
    """Request count and median latency in ms for each kind of request."""
    by: dict = {}
    for kind, latency in zip(loop.kinds, loop.latencies):
        by.setdefault(kind, []).append(latency)
    return {kind: [len(v), 1000 * statistics.median(v)]
            for kind, v in sorted(by.items())}


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when nothing was attempted."""
    return num / den if den else 0.0


def layer_metrics(tracer, loop, ledger, overhead: float) -> dict:
    """The per-layer metrics of a traced run, as name: (value, unit)."""
    s = tracer.summary()
    c = tracer.counts
    wall = s["root_time"]
    items = max(1, loop.items)
    out: dict = {"trace.overhead": (overhead, "ratio"),
                 "trace.wall_s": (wall, "s")}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (s["layer_self"][layer], "s")
        out[f"{layer}.self_share"] = (_ratio(s["layer_self"][layer], wall),
                                      "ratio")
        out[f"{layer}.calls"] = (s["layer_calls"][layer], "count")
    roots = s["name_calls"]["univariate.roots_over_gaussians"]
    power = ledger.totals["spans.power_row"]
    lookups = power["hits"] + power["misses"]
    out.update({
        "linalg.entries": (c["linalg.entries"], "count"),
        "linalg.rank.full_ratio": (
            _ratio(c["linalg.rank.full"], c["linalg.rank.calls"]), "ratio"),
        "univariate.roots_over_gaussians.calls": (roots, "count"),
        "univariate.roots_over_gaussians.hit_ratio": (
            _ratio(c["univariate.roots_over_gaussians.hits"], roots),
            "ratio"),
        "binary.complex_rank.calls_per_item": (
            s["name_calls"]["binary.complex_rank"] / items, "count"),
        "binary.real_rank.certified_ratio": (
            _ratio(c["binary.real_rank.certified"],
                   s["name_calls"]["binary.real_rank"]), "ratio"),
        "spans.power_row.hit_ratio": (_ratio(power["hits"], lookups),
                                      "ratio"),
        "spans.power_row.size": (power["max_size"], "count"),
        "points.find_rich_conics.nullspace_calls": (
            child_counts(tracer.names, tracer.name_of, tracer.parent,
                         "linalg.nullspace", "points.find_rich_conics"),
            "count"),
        "verifier.attempts": (c["verifier.attempts"], "count"),
        "verifier.attempt_pass_ratio": (
            _ratio(c["verifier.attempts_passed"], c["verifier.attempts"]),
            "ratio"),
    })
    for name in BUSY:
        out[f"{name}.busy_s"] = (s["busy"][name], "s")
    return out


def write_spans(tracer, workload: str, seed: int) -> Path:
    """Write the spans as JSON lines: a header, then one array per span."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": ["name", "start", "end", "parent",
                                        "request"],
                             "names": tracer.names}) + "\n")
        for row in zip(tracer.name_of, tracer.start, tracer.end,
                       tracer.parent, tracer.request):
            fh.write(json.dumps(row) + "\n")
    return path


def result_line(loop, metrics: dict) -> str:
    return json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Run every workload in a fresh interpreter and print one table."""
    print(f"{'workload':8} {'metric':48} {'value':>14} unit")
    worst = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace))]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        worst = max(worst, result["failed"])
        rows = dict(result["metrics"])
        rows["failed_frac"] = {"value": result["failed"]
                               / result["attempted"], "unit": "ratio"}
        if workload == "suite" and not trace:
            # one suite command is the request, so its median latency is
            # the suite wall time
            rows["suite_s"] = {"value": rows["p50_ms"]["value"] / 1000,
                               "unit": "s"}
        for name, m in rows.items():
            print(f"{workload:8} {name:48} {m['value']:14.6g} {m['unit']}")
    return 0 if worst == 0 else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if "WARINGLAB_THREADS" in os.environ:
        sys.stderr.write("refusing to run: WARINGLAB_THREADS is set; the "
                         "benchmark measures the single-caller path\n")
        return 2
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        loop, record, metrics = run_workload(args.workload, args.seed,
                                             args.seconds, bool(args.trace))
    except SetupError as exc:
        sys.stderr.write(f"benchmark cannot run: {exc}\n")
        return 2
    for reason in loop.reasons[:20]:
        print("FAILED " + reason)
    print("record " + json.dumps(record))
    print(result_line(loop, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
