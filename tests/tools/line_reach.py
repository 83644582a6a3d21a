"""Which lines of src/vaxgame a pytest run never reaches: a plugin that
uses only the standard library (no coverage package is needed).

Off unless loaded with -p, from the root of a source checkout:

    python -m pytest -p tests.tools.line_reach --line-reach=reach.txt tests

It records every line of src/vaxgame that the run executes, on every
thread, with sys.settrace and threading.settrace (Python 3.11 has no
sys.monitoring), and lists the executable lines it never reached, one
function a line, in the file given or else at the end of the terminal
report:

    params.py PublicCostModel.__post_init__: 205 207

A line is executable when the compiled module maps an instruction to it;
a function's lines are listed under the innermost function that holds
them. Tracing slows the run several-fold and changes no test's result.
"""
from __future__ import annotations

import sys
import threading
import types
from collections import deque
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "vaxgame"


def executable_lines(path: Path) -> dict[int, str]:
    """Each executable line of the module at path, with the qualified name
    of the innermost function, class body or <module> that holds it."""
    owner: dict[int, str] = {}
    todo = deque([compile(path.read_text(), str(path), "exec")])
    while todo:
        # breadth first, so an inner code object overrides its parent's
        # claim on a line they share (a def line)
        code = todo.popleft()
        owner.update((line, code.co_qualname)
                     for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return owner


class Recorder:
    """The lines each file of a directory reached, keyed by its name."""

    def __init__(self, root: Path):
        self.root = root.resolve()
        self.reached: dict[str, set[int]] = {}
        self._sets: dict[str, set[int] | None] = {}

    def _lines(self, filename: str) -> set[int] | None:
        """The reached set of a traced file, or None outside the root."""
        if filename not in self._sets:
            path = Path(filename).resolve()
            self._sets[filename] = (self.reached.setdefault(path.name, set())
                                    if path.parent == self.root else None)
        return self._sets[filename]

    def call(self, frame, event, arg):
        """Global trace function: a frame of the root gets the line tracer."""
        lines = self._lines(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line

    def unreached(self) -> list[str]:
        """One "module.py function: lines" row per function with executable
        lines that no traced frame reached, by module and first line."""
        rows = []
        for path in sorted(self.root.glob("*.py")):
            reached = self.reached.get(path.name, set())
            missed: dict[str, list[int]] = {}
            for line, owner in sorted(executable_lines(path).items()):
                if line not in reached:
                    missed.setdefault(owner, []).append(line)
            rows += [f"{path.name} {owner}: {' '.join(map(str, lines))}"
                     for owner, lines in missed.items()]
        return rows


def pytest_addoption(parser):
    parser.addoption("--line-reach", metavar="FILE", default=None,
                     help="write the unreached lines of src/vaxgame to FILE")


_RECORDER = pytest.StashKey[Recorder]()


def pytest_configure(config):
    recorder = config.stash[_RECORDER] = Recorder(SRC)
    threading.settrace(recorder.call)
    sys.settrace(recorder.call)


def pytest_unconfigure(config):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter, config):
    rows = config.stash[_RECORDER].unreached()
    out = config.getoption("line_reach")
    terminalreporter.section("line reach of src/vaxgame")
    if out is None:
        for row in rows:
            terminalreporter.write_line(row)
    else:
        Path(out).write_text("".join(row + "\n" for row in rows))
        terminalreporter.write_line(f"{len(rows)} functions with unreached "
                                    f"lines, listed in {out}")
