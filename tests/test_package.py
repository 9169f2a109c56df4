"""Package-wide source rules."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

from waringlab import spans

SRC = Path(__file__).resolve().parents[1] / "src" / "waringlab"
TESTS = Path(__file__).resolve().parent


def test_no_assert_in_the_package():
    # python -O strips assert statements, so no guard in src/ may be one
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules under {SRC}"
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, "assert statements in the package: " + ", ".join(found)


def test_no_unused_imports():
    # __init__.py imports to re-export, and __future__ imports are flags
    paths = sorted(p for p in [*SRC.glob("*.py"), *TESTS.glob("*.py")]
                   if p.name != "__init__.py")
    assert paths, f"no modules under {SRC} or {TESTS}"
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used]
    assert not found, "unused imports: " + ", ".join(found)


def test_power_row_keeps_the_cache_the_bench_reads():
    # bench/run.py finds functools caches by cache_info, cache_clear and the
    # wrapped function's module, and reads ledger.totals["spans.power_row"]:
    # without this cache a traced run stops with KeyError
    row = spans.power_row
    assert hasattr(row, "cache_info") and hasattr(row, "cache_clear")
    assert row.__wrapped__.__module__ == "waringlab.spans"
    assert row.cache_info().maxsize is None


def test_importing_the_cli_loads_no_pool_module():
    # the suite imports its worker pool when it runs: at module level the
    # pool modules would add their import time to every command's start
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "import waringlab.cli; "
             "print(sorted({'multiprocessing', 'concurrent.futures.process'}"
             " & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe, str(SRC.parent)],
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout
    assert out == "[]\n"
