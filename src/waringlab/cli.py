"""Command line front end.

Subcommands: generate (write an instance file), verify (classify an
instance or a raw triple, exit 0 on pass), rank (binary ranks with
decompositions), h1 (span report for a point set), suite (batch
generate-and-verify over the standard grid).  The suite's cells run on a
pool of forked worker processes, one per available CPU, and its report is
byte for byte the same as from a single process; every other command runs
in the calling process.

All I/O is JSON with rationals as strings; outputs are byte-reproducible
from the command line and the input files.  Errors leave as machine
readable JSON on stderr with a nonzero exit status.  Input sizes are
capped (the MAX_* limits below and scalars.MAX_LITERAL) before any work.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from math import comb

from .binary import BinaryForm, complex_rank, real_rank
from .factory import CASE_A, CASE_B, CASE_C, Instance, generate_instance
from .forms import HomogeneousForm
from .points import PointSet
from .scalars import parse_int, parse_list
from .spans import h1_ideal
from .verifier import classify, classify_triple


MAX_RANK_D = 64
MAX_INSTANCE_D = 12
MAX_INSTANCE_M = 6
MAX_H1_COLUMNS = 5_000
MAX_POINTS = 1_000


def _cap(what: str, value: int, limit: int) -> None:
    if value > limit:
        raise ValueError(f"{what} = {value} exceeds the limit of {limit}")


def _cap_points(obj: dict) -> None:
    _cap("the number of points", len(parse_list(obj["points"], "'points'")),
         MAX_POINTS)


def _cap_instance(obj: dict) -> None:
    """d and m of a verify input, its form and its point sets."""
    for where in (obj, obj["P"], obj["S_C"], obj["S_R"]):
        if not isinstance(where, dict):
            raise ValueError("P, S_C and S_R must be JSON objects")
    for where in (obj, obj["P"]):
        _cap("'d'", parse_int(where, "d"), MAX_INSTANCE_D)
    for where in (obj, obj["P"], obj["S_C"], obj["S_R"]):
        _cap("'m'", parse_int(where, "m"), MAX_INSTANCE_M)
    _cap_points(obj["S_C"])
    _cap_points(obj["S_R"])


def _read(build):
    """build(), with a JSON value of the wrong shape as a ValueError."""
    try:
        return build()
    except (AttributeError, IndexError) as err:
        raise ValueError(f"malformed input: {err}") from err


def _dump(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


@contextlib.contextmanager
def _unlimited_digits():
    """Lift Python's int/str digit limit, restoring it on the way out.

    A report may hold numbers longer than any input literal (a rank
    point's coordinates multiply coefficients together); inputs are read
    before this, so reading keeps the limit.
    """
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield
        return
    saved = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(saved)


def _emit(build, out_path: str | None) -> None:
    """Serialise the report that build() returns, to out_path or stdout."""
    with _unlimited_digits():
        text = _dump(build())
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("the input must be a JSON object, got "
                         + type(obj).__name__)
    return obj


def _parse_overrides(text: str | None) -> tuple[int | None, int | None]:
    if not text:
        return None, None
    obj = json.loads(text)
    if not isinstance(obj, dict) or not set(obj) <= {"line", "conic"}:
        raise ValueError(
            'threshold overrides must be a JSON object with keys in '
            '{"line", "conic"}')
    for key, value in obj.items():
        if value is not None and type(value) is not int:
            raise ValueError(f"threshold override {key!r} must be an "
                             f"integer, got {value!r}")
    return obj.get("line"), obj.get("conic")


def cmd_generate(args: argparse.Namespace) -> int:
    _cap("--d", args.d, MAX_INSTANCE_D)
    _cap("--m", args.m, MAX_INSTANCE_M)
    inst = generate_instance(args.case, args.d, args.m, args.seed)
    _emit(inst.to_json, args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    obj = _load(args.input)
    _cap_instance(obj)
    lt, ct = _parse_overrides(args.threshold_overrides)
    if "case" in obj:
        inst = _read(lambda: Instance.from_json(obj))
        report = classify(inst, line_threshold=lt, conic_threshold=ct)
        seed = inst.seed
    else:
        form, s_c, s_r = _read(lambda: (HomogeneousForm.from_json(obj["P"]),
                                        PointSet.from_json(obj["S_C"]),
                                        PointSet.from_json(obj["S_R"])))
        report = classify_triple(form, s_c, s_r, parse_int(obj, "d"),
                                 parse_int(obj, "m"), mode="raw",
                                 line_threshold=lt, conic_threshold=ct)
        seed = None if obj.get("seed") is None else parse_int(obj, "seed")
    _emit(lambda: {**report.to_json(), "seed": seed}, args.out)
    return 0 if report.overall_pass and report.label_match is not False else 1


def cmd_rank(args: argparse.Namespace) -> int:
    obj = _load(args.input)
    _cap("'d'", parse_int(obj, "d"), MAX_RANK_D)
    form = _read(lambda: BinaryForm.from_json(obj))
    rc, dec_c = complex_rank(form)
    real = real_rank(form) if form.is_real else None

    def payload() -> dict:
        out: dict = {
            "input": form.to_json(),
            "complex": {"rank": rc, "decomposition": dec_c.to_json()},
            "real": None if real is None else {
                "rank": real[0], "decomposition": real[1].to_json()},
        }
        if real is None:
            out["note"] = "real rank is defined for real forms only"
        out["seed"] = None
        return out

    _emit(payload, args.out)
    return 0


def cmd_h1(args: argparse.Namespace) -> int:
    if args.d < 1:
        raise ValueError(f"--d must be at least 1, got {args.d}")
    obj = _load(args.input)
    _cap_points(obj)
    m = parse_int(obj, "m")
    if m < 0:
        raise ValueError(f"'m' must be at least 0, got {m}")
    # C(d + m, m) is cheap only for small min(d, m); C(26, 13) > 10^7.  It
    # is 1 in P^0, where d must be capped itself; for m >= 1 it is > d.
    if min(args.d, m) > 13 or args.d >= MAX_H1_COLUMNS \
            or comb(args.d + m, m) > MAX_H1_COLUMNS:
        raise ValueError(f"d = {args.d} in P^{m} exceeds the limits "
                         f"C(d + m, m) <= {MAX_H1_COLUMNS} Veronese columns "
                         f"and d < {MAX_H1_COLUMNS}")
    s = _read(lambda: PointSet.from_json(obj))
    report = h1_ideal(s, args.d)
    _emit(lambda: {**report.to_json(), "d": args.d, "seed": None}, args.out)
    return 0


def _suite_grid() -> list[tuple[str, int, int]]:
    cells = []
    for d in (3, 4, 5, 6):
        for m in (2, 3, 4):
            cells.append((CASE_A, d, m))
            cells.append((CASE_B, d, m))
    for d in (5, 6):
        for m in (3, 4):
            cells.append((CASE_C, d, m))
    return cells


def _suite_cell(cell: tuple[str, int, int], seed: int) -> dict:
    case, d, m = cell
    inst = generate_instance(case, d, m, seed)
    report = classify(inst)
    return {
        "case": case, "d": d, "m": m, "seed": seed,
        "overall_pass": report.overall_pass,
        "label_match": bool(report.label_match),
        "headline": report.headline,
    }


def _pooled_rows(cells: list, seed: int, workers: int) -> list[dict] | None:
    """The cells' rows from `workers` forked processes, or None if the pool
    cannot start or breaks.

    Cells are submitted heaviest first (the grid reversed: case c, then the
    largest d and m) and read back in grid order.  So the rows come in grid
    order, and when cells fail, the error raised is that of the first
    failing cell in grid order, as in one process; the cells still queued
    are then cancelled.  Every worker has exited on return.

    The pool modules are imported here, so that they add nothing to the
    import of this module.  A forked worker inherits the whole parent: the
    command line runs single-threaded, and the pool forks its workers
    before it starts its own manager thread.
    """
    import multiprocessing
    from concurrent.futures.process import (BrokenProcessPool,
                                            ProcessPoolExecutor)

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    children = set(multiprocessing.active_children())
    try:
        pool = ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"))
    except (OSError, NotImplementedError):  # the latter: no working sem_open
        return None
    with pool:
        try:
            futures = [pool.submit(_suite_cell, c, seed)
                       for c in reversed(cells)]
        except (OSError, BrokenProcessPool):
            # the first submit forks every worker; if a later fork fails,
            # the ones already started wait on the queue until stopped
            for proc in set(multiprocessing.active_children()) - children:
                proc.terminate()
                proc.join()
            return None
        try:
            return [f.result() for f in reversed(futures)]
        except BrokenProcessPool:
            return None
        finally:
            pool.shutdown(cancel_futures=True)


def _suite_rows(seed: int) -> list[dict]:
    """One row per grid cell, in grid order."""
    cells = _suite_grid()
    # the CPUs this process may run on; the call exists on Linux only
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(len(affinity(0)) if affinity else 1, len(cells))
    rows = _pooled_rows(cells, seed, workers) if workers > 1 else None
    if rows is None:
        rows = [_suite_cell(c, seed) for c in cells]
    return rows


def cmd_suite(args: argparse.Namespace) -> int:
    rows = _suite_rows(args.seed)
    failures = [r for r in rows if not (r["overall_pass"]
                                        and r["label_match"])]
    payload = {
        "seed": args.seed,
        "total": len(rows),
        "passed": len(rows) - len(failures),
        "rows": rows,
    }
    _emit(lambda: payload, args.out)
    return 0 if not failures else 1


# name: (help, handler, (argument, add_argument keywords) pairs)
_COMMANDS = {
    "generate": ("write one instance file", cmd_generate, (
        ("--case", {"required": True, "choices": (CASE_A, CASE_B, CASE_C)}),
        ("--d", {"required": True, "type": int}),
        ("--m", {"required": True, "type": int}),
        ("--seed", {"required": True, "type": int}),
        ("--out", {}))),
    "verify": ("classify an instance or triple", cmd_verify, (
        ("input", {}),
        ("--out", {}),
        ("--threshold-overrides",
         {"help": 'expert: JSON like {"line": 5, "conic": 8}'}))),
    "rank": ("binary form ranks over C and R", cmd_rank, (
        ("input", {}), ("--out", {}))),
    "h1": ("span report for a point set", cmd_h1, (
        ("input", {}),
        ("--d", {"required": True, "type": int}),
        ("--out", {}))),
    "suite": ("generate and verify the grid", cmd_suite, (
        ("--seed", {"type": int, "default": 0}), ("--out", {}))),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the named command only, whose
    usage line still lists every command."""
    parser = argparse.ArgumentParser(
        prog="waringlab",
        description="Exact real versus complex Waring rank laboratory.")
    subs = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}")
    for name in [command] if command else _COMMANDS:
        help_text, func, arguments = _COMMANDS[name]
        sub = subs.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            sub.add_argument(flag, **keywords)
        sub.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # one command runs, so only its parser is built
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS
                        else None).parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, TypeError, ArithmeticError,
            json.JSONDecodeError) as err:
        sys.stderr.write(_dump({
            "error": type(err).__name__,
            "message": str(err),
        }))
        return 2


if __name__ == "__main__":
    sys.exit(main())
