#!/usr/bin/env python3
"""Print the lines of src/premlog that no tier-1 test runs.

Runs the tier-1 suite (`pytest -q --continue-on-collection-errors`, plus
any arguments given) in this process under sys.settrace and
threading.settrace. Then, for each src/premlog/*.py module, it prints the
executable lines that never ran, each with its text, and a count per
module. The executable lines are read from the module's compiled code
objects. Only the standard library is used, so no coverage package is
needed.

    python3 scripts/line_trace.py                         # the whole suite
    python3 scripts/line_trace.py tests/test_analysis.py  # one file

Not traced: code generated at run time (the `<premlog rule ...>` and
`<premlog admit ...>` functions), and child processes that tests start.
Line tracing slows the suite about threefold: a run of the whole suite
takes about 2.5 minutes (144 and 159 s in two runs on a 2-core Intel
Xeon). The hypothesis tests draw other inputs on each run, so a line or
two can move in or out of the list. The exit code is pytest's.
"""
from __future__ import annotations

import sys
import threading
from pathlib import Path
from types import CodeType
from typing import Dict, Iterator, Set

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "premlog"


def _code_objects(code: CodeType) -> Iterator[CodeType]:
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _code_objects(const)


def executable_lines(path: Path) -> Set[int]:
    """The lines that some instruction of the compiled module belongs to."""
    code = compile(path.read_text(), str(path), "exec")
    return {line for co in _code_objects(code) for _, _, line in co.co_lines() if line}


def trace_suite(args) -> tuple:
    """Run pytest under a line tracer; return its exit code and the lines
    run, per module path."""
    targets = {str(p): p for p in PACKAGE.glob("*.py")}
    ran: Dict[str, Set[int]] = {name: set() for name in targets}

    def tracer(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None  # no line events outside the package
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), {targets[name]: lines for name, lines in ran.items()}


def main(argv) -> int:
    code, ran = trace_suite(argv)
    print()
    for path in sorted(ran):
        text = path.read_text().splitlines()
        missed = sorted(executable_lines(path) - ran[path])
        name = path.relative_to(ROOT)
        for line in missed:
            print(f"{name}:{line}: {text[line - 1].strip()}")
    for path in sorted(ran):
        missed = executable_lines(path) - ran[path]
        print(f"{path.relative_to(ROOT)}: {len(missed)} lines not run")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
