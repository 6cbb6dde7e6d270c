"""Opt-in line-hit report: which lines of src/wheelmac does no input run?

    python3 tests/linehits.py

The host needs no coverage package: lines are recorded with the stdlib
``sys.settrace``.  Tier-1 runs in this process, traced by a pytest plugin
from before the first test module imports the library; then one pass of
each benchmark workload runs (``perfbench/workloads.py``, imported and
driven as ``perfbench/run.py`` drives it: inputs from seed 1, every
verdict, the gate).  Every line of src/wheelmac/*.py that holds bytecode
and never ran is printed as ``file:line: source``, and the count goes to
stderr.  The exit code is tier-1's.

Two blind spots:

  * tests that run the library in a child process (the ``python -O``
    checks, the CLI runs) are not traced, so a line only they reach is
    printed here;
  * a name bound by an alias, such as ``__rmul__ = scale``, cannot be
    judged by line hits: its line runs at import whether or not anything
    calls the alias, and a call runs the lines of the aliased function.

pytest does not collect this file (its name does not start with test_).
"""

import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wheelmac"
SEED = 1  # of each workload's inputs


class _LineHits:
    """pytest plugin recording (file, line) for each line run under SRC,
    from the loading of the initial conftests until pytest unconfigures;
    start() and stop() trace any other span."""

    def __init__(self):
        self.hits = set()
        self._prefix = str(SRC) + os.sep

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def _call(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self._prefix):
            return self._line
        return None

    def start(self):
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)

    @pytest.hookimpl(tryfirst=True)
    def pytest_load_initial_conftests(self):
        self.start()

    def pytest_unconfigure(self):
        self.stop()


def _code_lines(code):
    """The lines that hold bytecode in code and its nested code objects
    (line 0 is the interpreter's own start of a module, no source line)."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _workload_passes(plugin):
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    plugin.start()
    try:
        for wl in workloads.WORKLOADS.values():
            inputs = wl.make_inputs(SEED)
            results = [(key, thunk()) for key, thunk, _ in wl.verdicts(inputs)]
            for msg in wl.gate(inputs, results):
                print("workload %s: %s" % (wl.name, msg), file=sys.stderr)
    finally:
        plugin.stop()


def main():
    sys.path.insert(0, str(SRC.parent))
    plugin = _LineHits()
    status = pytest.main(["-q", "-p", "no:cacheprovider",
                          "--continue-on-collection-errors", str(ROOT / "tests")],
                         plugins=[plugin])
    _workload_passes(plugin)
    unreached = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for line in sorted(_code_lines(compile(source, str(path), "exec"))):
            if (str(path), line) not in plugin.hits:
                unreached += 1
                print("%s:%d: %s" % (path.relative_to(ROOT), line,
                                     lines[line - 1].strip()))
    print("%d lines never ran" % unreached, file=sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
