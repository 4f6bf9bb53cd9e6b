"""Raise coverage: fail for every `raise` in src/subsum that tier-1 never runs.

    python ci/raise_coverage.py

Run it from the repository root with pytest and hypothesis importable. It
runs tier-1 (pytest over tests/) in this process under a sys.settrace
tracer that line-traces only frames whose code lives under src/subsum,
then walks each module's AST for raise statements and prints file:line for
each one whose line never ran. Exit status: 1 if any raise never ran, else
pytest's own status.

Subprocesses are not traced: a raise that only a subprocess test reaches
counts as never run. A raise that shares its line with other code counts
as run when that line runs. Tracing makes tier-1 about twice as slow, so
Hypothesis's per-example deadline is lifted for this run; every other
setting is tier-1's own.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "subsum"


def run_traced_tests() -> tuple[int, set[tuple[str, int]]]:
    """Tier-1's exit status and the (file, line) pairs it ran in the package."""
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    class NoDeadline:
        @staticmethod
        def pytest_configure(config):
            from hypothesis import settings

            settings.register_profile("raise_coverage", deadline=None)
            settings.load_profile("raise_coverage")

    ran, in_package = set(), {}

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in in_package:
            in_package[name] = os.path.realpath(name).startswith(f"{PACKAGE}{os.sep}")
        return trace_lines if in_package[name] else None

    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")],
                             plugins=[NoDeadline])
    finally:
        sys.settrace(None)
    # Key the lines by real path, whatever path the package was imported by.
    return int(status), {(os.path.realpath(name), line) for name, line in ran}


def main() -> int:
    status, ran = run_traced_tests()
    raises = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        raises += [(path, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Raise)]
    missed = sorted((path.relative_to(ROOT), line) for path, line in raises
                    if (os.path.realpath(path), line) not in ran)
    for place, line in missed:
        print(f"raise never run by tier-1: {place}:{line}")
    print(f"raise coverage: {len(missed)} of {len(raises)} raise statements never run")
    return 1 if missed else status


if __name__ == "__main__":
    sys.exit(main())
