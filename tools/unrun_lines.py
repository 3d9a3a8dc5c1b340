"""List the lines of ``src/layerfem`` that the tier-1 tests never run.

Usage, from any directory (extra arguments go to pytest)::

    python tools/unrun_lines.py [pytest arguments]

The tier-1 suite runs in this process under ``sys.settrace``, which records
each line executed in ``src/layerfem``.  A module's executable lines are those
its compiled code objects map bytecode to (``co_lines()``), so lines such as
``nonlocal`` declarations or the continuation lines of a multi-line condition
are not counted.  Every executable line that never ran is printed.  The exit
code is pytest's when the suite fails, else 1 when an unrun line is not in
``ALLOWED`` or an ``ALLOWED`` entry names no unrun line, else 0.

Tracing about doubles the suite's time, so this is a check run by hand, not a
tier-1 test.  It needs Python 3.11 or later (``co_qualname``) and pytest.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "layerfem"

# (module file, innermost function's qualified name, stripped source line)
# of the lines allowed never to run, each with the reason it stays.
ALLOWED = {
    ("cli.py", "<module>", "sys.exit(main())"):
        "runs only when the module is executed as a script (python -m layerfem.cli)",
    ("femcore.py", "_Condensation._interior_solve", "raise"):
        "re-raises a LinAlgError of the batched solve when no single block reproduces it",
}


def executable_lines(path: Path) -> dict[int, str]:
    """Each line that carries bytecode, mapped to its innermost code object's qualified name."""
    lines: dict[int, str] = {}
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()   # a parent is always visited before its nested code
        for _, _, line in code.co_lines():
            if line is not None:
                lines[line] = code.co_qualname
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_traced(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest in this process; returns its exit code and the (file, line)s run in the package."""
    prefix = str(PACKAGE) + os.sep
    seen: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    if "layerfem" in sys.modules:
        raise RuntimeError("layerfem is already imported; its module-level lines would go untraced")
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), seen


def main(argv: list[str]) -> int:
    code, seen = run_traced(argv)
    if code != 0:
        print(f"the tests failed (pytest exit code {code}); no lines reported", file=sys.stderr)
        return code

    unlisted, used = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line, qualname in sorted(executable_lines(path).items()):
            if (str(path), line) in seen:
                continue
            text = source[line - 1].strip()
            key = (path.name, qualname, text)
            where = f"{path.relative_to(ROOT)}:{line} ({qualname}): {text}"
            if key in ALLOWED:
                used.add(key)
                print(f"{where}\n    allowed: {ALLOWED[key]}")
            else:
                unlisted.append(where)
                print(where)
    stale = [key for key in ALLOWED if key not in used]
    for key in stale:
        print(f"allowlist entry names no unrun line: {key}")
    print(f"{len(unlisted)} unrun line(s) not in the allowlist, {len(stale)} stale allowlist entries")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
