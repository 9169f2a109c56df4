"""Package-wide source rules."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "waringlab"


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
