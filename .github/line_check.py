"""Run pytest and fail if a line of src/abclab ran in no test (Python 3.12+).

    PYTHONPATH=src python .github/line_check.py -q --continue-on-collection-errors

The arguments go to pytest.  A sys.monitoring LINE callback records each
line the first time it runs and then disables itself there, so the suite
runs at its usual speed.  A line counts when it compiles to code: docstrings
and comments do not.  The lines that ran in no test are listed by function
whatever pytest's outcome.  Exits with pytest's status if pytest failed,
else 1 when a line ran in no test, else 0.

A line that no in-process test can run is allowed when it lies in a
statement whose first line says "pragma: no cover - <reason>", or from a
statement of ALLOWED to the end of its function.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "abclab"
PRAGMA = "pragma: no cover"

# (module, function, the first line of a statement in it): the reason no
# in-process test runs that statement or the rest of the function.
ALLOWED = {
    ("cli.py", "_serve", "with socket.create_server(endpoint) as listener:"):
        "after the bind it serves until SIGINT, so only serve-* child processes run it",
    ("cli.py", "<module>", 'if __name__ == "__main__":'):
        "runs only where the CLI is the main module, in child processes",
}


def executable_lines(code):
    lines = {line for _, _, line in code.co_lines() if line}  # 0: a module's start
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def statements(tree, last_line):
    """(qualified name of the enclosing function or class, or "<module>";
    the last line of that scope; a statement) for each statement of tree."""
    def walk(node, owner, end):
        for child in ast.iter_child_nodes(node):
            inner = owner, end
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = child.name if owner == "<module>" else f"{owner}.{child.name}"
                inner = name, child.end_lineno
            if isinstance(child, ast.stmt):
                yield owner, end, child
            yield from walk(child, *inner)
    yield from walk(tree, "<module>", last_line)


def missed(ran):
    """module:function -> lines that compile to code, ran in no test and are
    not allowed; and the problems of the allow-list itself."""
    found, problems, allowed_seen = {}, [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        tree = ast.parse(source)
        excused, owners = set(), {}
        for owner, end, stmt in statements(tree, len(text)):
            first = text[stmt.lineno - 1].strip()
            span = range(stmt.lineno, stmt.end_lineno + 1)
            owners.update(dict.fromkeys(span, owner))
            if PRAGMA in first:
                if not first.partition(PRAGMA)[2].lstrip(" -"):
                    problems.append(f"{path.name}:{stmt.lineno}: {PRAGMA} without a reason")
                excused.update(span)
            if (path.name, owner, first) in ALLOWED:
                allowed_seen.add((path.name, owner, first))
                excused.update(range(stmt.lineno, end + 1))
        unrun = executable_lines(compile(source, str(path), "exec")) - ran.get(path, set())
        for line in sorted(unrun - excused):
            found.setdefault(f"{path.name}:{owners.get(line, '<module>')}", []).append(line)
    problems += [f"stale allow-list entry {entry}" for entry in ALLOWED.keys() - allowed_seen]
    return found, problems


def main(argv):
    ran_at = {}
    monitoring = sys.monitoring
    tool = monitoring.COVERAGE_ID

    def on_line(code, line):
        ran_at.setdefault(code.co_filename, set()).add(line)
        return monitoring.DISABLE

    monitoring.use_tool_id(tool, "line_check")
    monitoring.register_callback(tool, monitoring.events.LINE, on_line)
    monitoring.set_events(tool, monitoring.events.LINE)
    try:
        status = pytest.main(argv)
    finally:
        monitoring.set_events(tool, monitoring.events.NO_EVENTS)
        monitoring.free_tool_id(tool)
    ran = {}
    for filename, lines in ran_at.items():
        ran.setdefault(Path(filename).resolve(), set()).update(lines)
    found, problems = missed(ran)
    for where, lines in found.items():
        print(f"line check: {where} ran in no test at lines {lines}")
    for problem in problems:
        print(f"line check: {problem}")
    return status or (1 if found or problems else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
