"""Check that the Tier-1 suite runs every line of `src/uncquery/`.

Runs pytest in this process with a line tracer on the frames of the
package's modules, then prints each executable line that never ran and
exits 1 if there is any (or with pytest's own code if the suite fails).
Standard library and pytest only:

    PYTHONPATH=src python tools/linecov.py -q --hypothesis-seed=0

Arguments are passed to pytest.  A module's executable lines are those
`co_lines()` names in its compiled code, nested code objects included.
`__main__.py` and the bodies of `if __name__ == "__main__":` blocks are
left out, found by the AST: only subprocess tests run them, and a
subprocess is not traced.  Nothing is written under the repository:
bytecode is not written, pytest's cache and the pytest-benchmark plugin
(if installed) are off, and Hypothesis keeps its database in a temporary
directory.
"""
from __future__ import annotations

import ast
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "uncquery"


def _main_block_lines(tree: ast.Module) -> set:
    """The lines of the bodies of `if __name__ == "__main__":` blocks."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            lines.update(range(node.body[0].lineno, node.body[-1].end_lineno + 1))
    return lines


def executable_lines(path: Path) -> set:
    """The lines of `path` that some instruction of its compiled code carries,
    less those of `if __name__ == "__main__":` bodies."""
    source = path.read_text()
    lines, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        # Line 0 is no source line: it marks the module code's first instruction.
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines - _main_block_lines(ast.parse(source))


def main(argv: list) -> int:
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__main__.py")
    ran = {str(p): set() for p in modules}
    tracers: dict = {}  # co_filename -> the line tracer of its module, or None

    def tracer_for(filename: str):
        lines = ran.get(os.path.realpath(filename))
        if lines is None:
            return None
        add = lines.add

        def trace_lines(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return trace_lines

        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        tracer = tracers.get(filename, False)
        if tracer is False:
            tracer = tracers[filename] = tracer_for(filename)
        return tracer

    sys.dont_write_bytecode = True
    import pytest

    os.chdir(ROOT)  # where Tier-1 runs, so pytest reads pyproject.toml's settings
    with tempfile.TemporaryDirectory(prefix="linecov-") as scratch:
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = scratch
        threading.settrace(trace_calls)
        sys.settrace(trace_calls)
        try:
            code = pytest.main(["-p", "no:cacheprovider", "-p", "no:benchmark", *argv])
        finally:
            sys.settrace(None)
            threading.settrace(None)

    missed = []
    total = 0
    for path in modules:
        lines = executable_lines(path)
        total += len(lines)
        source = path.read_text().splitlines()
        missed += [f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}"
                   for line in sorted(lines - ran[str(path)])]
    print(f"linecov: {total - len(missed)} of {total} executable lines in "
          f"{PACKAGE.relative_to(ROOT)} ran; {len(missed)} never ran")
    for line in missed:
        print(line)
    if code != 0:
        return int(code)
    return 1 if missed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
