"""Run the tier-1 suite under a line tracer and list the statements it never ran.

Usage, from anywhere::

    python tests/trace_tier1.py [extra pytest arguments]

The suite runs in this process under ``sys.settrace`` and
``threading.settrace``, so pool threads are traced too; only frames of
``src/ltlkit/*.py`` get line events.  Afterwards every statement of those
files that never ran is printed as ``file:line: text``, and the script
exits with pytest's exit code.

Two acceptance tests hold the whole run to a wall-clock budget that a
traced run cannot meet, so they are deselected here (and only here):
``test_criterion_2_oracle_agreement`` and
``test_criterion_8_offline_completeness``.

Limits: code that tests run in a subprocess (the CLI startup tests, for
one) is not traced, so a statement only such a test reaches is listed as
never run.  ``global`` and ``nonlocal`` declarations emit no line events
and are never listed, nor are docstrings.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ltlkit"

DESELECTED = (
    "tests/test_acceptance.py::test_criterion_2_oracle_agreement",
    "tests/test_acceptance.py::test_criterion_8_offline_completeness",
)


# Statements that run nothing of their own: declarations emit no line
# event, and ``try`` only guards the statements in its blocks.
SILENT = (ast.Global, ast.Nonlocal, ast.Try)
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def statement_spans(tree: ast.Module):
    """(first line, lines) of each statement that emits a line event when run.

    A compound statement spans its decorators and header, not its body; a
    simple one spans all its lines.  Docstrings are left out.
    """
    docstrings = {
        id(node.body[0]) for node in ast.walk(tree)
        if isinstance(node, SCOPES) and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, SILENT) or id(node) in docstrings:
            continue
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        yield node.lineno, range(first, last + 1)


def main(argv: list[str]) -> int:
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    hits: dict[str, set[int]] = {name: set() for name in files}

    def trace_lines(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename in hits else None

    args = ["-q", "--continue-on-collection-errors", "--rootdir", str(ROOT)]
    args += [arg for nodeid in DESELECTED for arg in ("--deselect", nodeid)]
    args += [str(ROOT / "tests"), *argv]

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    for name, path in files.items():
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        never_ran = sorted(
            first for first, span in statement_spans(ast.parse(source))
            if not hits[name].intersection(span)
        )
        for line in never_ran:
            print(f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
