"""List the library statements that no test executes.

    python3 tools/uncovered_lines.py [PYTEST_ARG...]

The script runs the test suite (all of tests/ unless pytest arguments are
given) in this one process with a `sys.settrace` line tracer on every frame
of src/jointmeas, and then prints one line per statement that never ran,

    src/jointmeas/module.py:line: source

in file and line order. pytest's own report goes to stderr, so stdout holds
only that list. It needs only the standard library and pytest: no coverage
package. Code run in a child process (the CLI's fresh-interpreter tests) is
not traced, and the tracer slows the suite several times over.

A statement counts as run when any line of it executes; for a compound
statement (def, class, if, for, with, ...) that is any line of its header,
decorators included. Docstrings are not statements.
"""

from __future__ import annotations

import ast
import contextlib
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jointmeas"


def statement_spans(source: str) -> list[tuple[int, int, int]]:
    """(first line, last line, reported line) of each statement in
    `source`: a simple statement spans all its lines, a compound one only
    its header, from its first decorator to the line before its body."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or _is_docstring(node):
            continue
        body = getattr(node, "body", None)
        if isinstance(body, list) and body:
            decorators = getattr(node, "decorator_list", [])
            first = min([node.lineno, *(d.lineno for d in decorators)])
            spans.append((first, max(node.lineno, body[0].lineno - 1), node.lineno))
        else:
            spans.append((node.lineno, node.end_lineno, node.lineno))
    return spans


def _is_docstring(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest in-process with every src/jointmeas frame line-traced;
    returns pytest's exit code and the executed lines of each module, by
    file name."""
    executed: dict[str, set[int]] = {path.name: set() for path in PACKAGE.glob("*.py")}
    # co_filename -> the executed-line set of its module, or None outside
    # the package
    sinks: dict[str, set[int] | None] = {}

    def sink(filename: str) -> set[int] | None:
        if filename not in sinks:
            path = Path(filename).resolve()
            sinks[filename] = executed.get(path.name) if path.parent == PACKAGE else None
        return sinks[filename]

    def local(frame, event, arg):
        if event == "line":
            sinks[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_trace(frame, event, arg):
        if (lines := sink(frame.f_code.co_filename)) is None:
            return None
        lines.add(frame.f_lineno)
        return local

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), executed


def uncovered(executed: dict[str, set[int]]) -> list[str]:
    """`path:line: source` for every statement none of whose lines ran."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        ran = executed[path.name]
        for first, last, at in sorted(statement_spans(source), key=lambda s: s[2]):
            if ran.isdisjoint(range(first, last + 1)):
                out.append(f"{path.relative_to(ROOT)}:{at}: {lines[at - 1].strip()}")
    return out


def main(argv: list[str]) -> int:
    if str(PACKAGE.parent) not in sys.path:
        sys.path.insert(0, str(PACKAGE.parent))
    code, executed = run_traced(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    for line in uncovered(executed):
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
