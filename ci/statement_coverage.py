"""Statement coverage: fail for every statement in src/subsum that tier-1 never runs.

    python ci/statement_coverage.py

Run it from the repository root with pytest and hypothesis importable. It
runs tier-1 (pytest over tests/) in this process under a sys.settrace
tracer that line-traces only frames whose code lives under src/subsum,
then walks each module's AST for every statement but docstrings and prints
file:line for each one whose first line never ran. Exit status: 1 if any
statement never ran, else pytest's own status.

Subprocesses are not traced, so __main__.py, which only `python -m subsum`
runs, is exempt, and any other statement that only a subprocess test
reaches counts as never run. A statement that shares its first line with
other code counts as run when that line runs. Tracing makes tier-1 about
twice as slow, so Hypothesis's per-example deadline is lifted for this
run, and its examples are derandomized so that each run executes the same
ones; every other setting is tier-1's own.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "subsum"
# Run only by `python -m subsum`, in a subprocess the tracer never sees.
EXEMPT = {"__main__.py"}


def run_traced_tests() -> tuple[int, set[tuple[str, int]]]:
    """Tier-1's exit status and the (file, line) pairs it ran in the package."""
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    class Profile:
        @staticmethod
        def pytest_configure(config):
            from hypothesis import settings

            settings.register_profile("statement_coverage", deadline=None,
                                      derandomize=True)
            settings.load_profile("statement_coverage")

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
                             plugins=[Profile])
    finally:
        sys.settrace(None)
    # Key the lines by real path, whatever path the package was imported by.
    return int(status), {(os.path.realpath(name), line) for name, line in ran}


def statements(tree: ast.Module) -> list[ast.stmt]:
    """Every statement in tree except the docstrings, which never run as code."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {node.body[0] for node in ast.walk(tree)
                  if isinstance(node, owners) and ast.get_docstring(node, clean=False) is not None}
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and node not in docstrings]


def main() -> int:
    status, ran = run_traced_tests()
    stmts = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name not in EXEMPT:
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            stmts += [(path, node.lineno) for node in statements(tree)]
    missed = sorted({(path.relative_to(ROOT), line) for path, line in stmts
                     if (os.path.realpath(path), line) not in ran})
    for place, line in missed:
        print(f"statement never run by tier-1: {place}:{line}")
    print(f"statement coverage: {len(missed)} of {len(stmts)} statements never run")
    return 1 if missed else status


if __name__ == "__main__":
    sys.exit(main())
