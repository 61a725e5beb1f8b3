"""Which statement lines of ``src/socchange`` no tier-1 test runs.

Runs the tier-1 suite in this process under a ``sys.settrace`` tracer that
records the lines executed in the package's files, then lists every
statement line that never ran. Each line in ``ALLOWED`` is expected to stay
unreached, for the reason given there. Exits 1 when another line is
unreached, when an allowed line is reached or gone, or when a test fails.
Standard library and pytest only, no coverage package:

    PYTHONPATH=src python tests/tools/line_probe.py [extra pytest args]

A statement counts as reached when a line event fires on one of its own
lines: for a compound statement, its header lines (decorators included),
or else the first statement of its body. Docstrings and other bare string
statements run no code and are not counted. Lines run only in a
subprocess (the CLI tests that start ``python -m socchange.cli``) are not
seen; ``ALLOWED`` names them.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "socchange"

# (file, stripped source line) -> why no in-process test runs it
ALLOWED = {
    ("cli.py", "sys.exit(main())"):
        "runs only when the module is run as a script, which the CLI tests "
        "do in subprocesses",
}


def _is_string(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _first_line(node: ast.stmt) -> int:
    return min([node.lineno] + [d.lineno for d in
                                getattr(node, "decorator_list", [])])


def _statements(path: Path) -> dict[int, tuple[range, ast.stmt | None]]:
    """Own lines and first body statement (None for a simple statement) of
    each counted statement, by its first line. Statements sharing a line
    (``if x: return``) count once, as the innermost."""
    stmts = {}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.stmt) or _is_string(node):
            continue
        first = _first_line(node)
        body = [s for s in getattr(node, "body", []) if not _is_string(s)]
        if body:
            own = range(first, max(first + 1, node.body[0].lineno))
            stmts[first] = (own, body[0])
        else:
            stmts[first] = (range(first, node.end_lineno + 1), None)
    return stmts


def unreached(executed: dict[str, set[int]]) -> tuple[int, list]:
    """(number of counted statement lines, sorted unreached (file, line))."""
    total, missing = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executed.get(str(path), set())
        stmts = _statements(path)

        def reached(first):
            own, child = stmts[first]
            return any(n in lines for n in own) or (
                child is not None and reached(_first_line(child)))
        total += len(stmts)
        missing += [(path.name, first) for first in sorted(stmts)
                    if not reached(first)]
    return total, missing


def trace_tests(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on ``args`` under the tracer; (exit code, lines run per
    file of the package)."""
    prefix = str(PACKAGE) + os.sep
    inside: dict[str, str | None] = {}
    executed: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[inside[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            real = os.path.realpath(name)
            inside[name] = real if real.startswith(prefix) else None
            if inside[name] is not None:
                executed.setdefault(real, set())
        return local if inside[name] is not None else None

    import pytest
    from hypothesis import settings
    # a traced example runs several times slower than an untraced one, and
    # the lines that drawn examples reach must not vary from run to run
    settings.register_profile("line-probe", deadline=None, derandomize=True)
    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            "--hypothesis-profile=line-probe",
                            # hypothesis is imported above, before pytest
                            # could rewrite its asserts
                            "-W", "ignore::pytest.PytestAssertRewriteWarning",
                            str(ROOT / "tests"), *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), executed


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    code, executed = trace_tests(argv)
    total, missing = unreached(executed)
    failed = code != 0
    seen = set()
    print(f"\n{len(missing)} of {total} statement lines of src/socchange "
          "unreached:")
    for name, line in missing:
        text = (PACKAGE / name).read_text().splitlines()[line - 1].strip()
        reason = ALLOWED.get((name, text))
        seen.add((name, text))
        print(f"  {name}:{line}: {text}"
              + (f"\n      allowed: {reason}" if reason else ""))
        failed |= reason is None
    for name, text in sorted(ALLOWED.keys() - seen):
        print(f"  allowed line reached or gone: {name}: {text}")
        failed = True
    if code != 0:
        print(f"pytest exited {code}")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
