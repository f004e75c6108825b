"""Statements of ``dfinite`` that no test reaches.

Runs pytest in this process under ``sys.settrace``, recording only the
lines executed in ``src/dfinite``, then prints every statement inside a
function (nested ones included) that never ran, as
``path:line: function: source``.  Only lines that carry bytecode count,
so docstrings and ``else:`` lines are never listed.
Code run in a subprocess (the CLI and demo scripts that tests start
with ``subprocess``) is not traced.  pytest does not collect this file.
Run it from the repository root; further arguments go to pytest:

    PYTHONPATH=src python tests/run_linetrace.py [pytest args]

The whole tier-1 suite takes several times its plain run time under the
trace.  The exit code is pytest's.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dfinite"


def _code_lines(code) -> set:
    """Lines with bytecode in the functions under a module code object."""
    out = set()
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= {line for _, _, line in const.co_lines() if line is not None}
            out |= _code_lines(const)
    return out


def _function_statements(path: Path):
    """The source lines and (line, qualified function name) of each
    statement in a function body.  A simple statement is keyed by its
    first line that carries bytecode, a compound one by its header."""
    source = path.read_text()
    live = _code_lines(compile(source, str(path), "exec"))
    out = set()

    def visit(node, name, in_function):
        for child in ast.iter_child_nodes(node):
            if in_function and isinstance(child, ast.stmt):
                span = range(child.lineno, (child.lineno if hasattr(child, "body") else child.end_lineno) + 1)
                line = next((n for n in span if n in live), None)
                if line is not None:
                    out.add((line, name))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = "%s.%s" % (name, child.name) if name else child.name
                visit(child, inner, not isinstance(child, ast.ClassDef))
            else:
                visit(child, name, in_function)

    visit(ast.parse(source), "", False)
    return source.splitlines(), sorted(out)


def main() -> int:
    prefix = str(PACKAGE) + "/"
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT))  # as ``python -m pytest`` run from the root would
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(sys.argv[1:] or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if not hits:
        print("no line of %s ran: is it the dfinite on sys.path?" % PACKAGE)
        return 1
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines, statements = _function_statements(path)
        for line, name in statements:
            if (str(path), line) not in hits:
                missed += 1
                print("%s:%d: %s: %s" % (path.relative_to(ROOT), line, name, lines[line - 1].strip()))
    print("%d statements inside functions not reached" % missed)
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
